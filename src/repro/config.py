"""Cost model and tunables for the simulated LOCUS network.

All costs are in abstract microsecond-like time units charged to the virtual
clock.  The default calibration reproduces the comparative claims of the
paper rather than absolute VAX-11/750 timings:

* Local page access (buffer miss) costs ``cpu_syscall + disk_read``.
* Remote page access adds two message sends and two receives, calibrated so
  the total *CPU* overhead is about twice the local case (paper section
  2.2.1, footnote: "the cpu overhead of accessing a remote page is twice
  local access").  Packet disassembly/reassembly being the dominant software
  cost is explicitly called out in section 6.
* A remote open costs significantly more than a local one because it runs the
  four-message US/CSS/SS protocol of Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class CostModel:
    """Virtual-time costs charged by the kernel and network layers."""

    # CPU costs (charged to the executing site's clock and cpu accounting)
    cpu_syscall: float = 1.0        # base cost of syscall entry/processing
    cpu_msg: float = 2.5            # packet (dis)assembly per message send/recv
    cpu_page_copy: float = 0.2      # copying one page kernel<->user space
    cpu_dir_entry: float = 0.02     # scanning one directory entry
    cpu_process_page: float = 0.5   # copying one image page during fork/exec

    # Disk costs (charged at the storage site)
    disk_read: float = 10.0         # read one block from the storage medium
    disk_write: float = 10.0        # write one block to the storage medium
    buffer_hit: float = 0.1         # buffer-cache hit

    # Network costs (elapsed wire time; not CPU)
    net_latency: float = 2.0        # per-message propagation delay
    net_per_byte: float = 0.002     # serialization delay per payload byte

    # Geometry
    page_size: int = 1024           # bytes per logical page / disk block
    buffer_pages: int = 256         # per-site buffer cache capacity (pages)

    # Protocol behaviour
    readahead: bool = True          # one-page readahead on sequential reads
    delta_propagation: bool = True  # pull only changed pages when sound
    # Hot-path optimizations (each one a measurable ablation; the defaults
    # keep the paper's exact per-message protocols, like pathname_shipping):
    # cache decoded directory entries keyed by committed version vector so
    # repeat pathname components skip the open/read/decode/close cycle.
    name_cache: bool = False
    name_cache_entries: int = 256   # per-site name cache capacity (dirs)
    # Batched page transfer: up to this many pages per fs.read_pages /
    # fs.pull_read_range message (1 = the paper's one-page-per-message
    # protocol).  Message size stays the sum of payload bytes, so the wire
    # model keeps charging honestly for the data moved.
    batch_pages: int = 1
    readahead_window: int = 1       # minimum pages fetched ahead (floor)
    # Adaptive readahead cap: the window grows with the observed sequential
    # run length of each open file (1, 2, 3, ... pages ahead) up to this
    # many pages, and collapses back to the floor on any non-sequential
    # access.  Random workloads therefore never over-fetch while long scans
    # converge to full-window prefetch.
    readahead_max: int = 8
    pull_pipeline: int = 1          # concurrent propagation-pull requests
    # Batched write/commit flush: stage dirty pages at the US and ship them
    # to a remote SS in fs.write_pages messages of up to batch_pages pages
    # (one-way, like fs.write_page), flushing before every ordering point
    # (commit, truncate, attribute change, close).  The commit request then
    # carries the number of page writes shipped so a partially delivered
    # batch can never half-commit.  Single-page flushes keep the paper's
    # exact fs.write_page message.
    batch_writes: bool = False
    # Manifest-based heal pull: when the propagation queue holds several
    # requests (a recovery sweep notifies once per behind file), ask each
    # source for all of its files' attributes in one fs.pull_manifest RPC
    # instead of one fs.pull_open round trip per file, then run up to
    # pull_pipeline per-file pulls concurrently.  Files the manifest cannot
    # vouch for fall back to the paper's per-file protocol.
    pull_manifest: bool = False
    merge_sequential_poll: bool = False  # ablation: poll sites one by one
    # Ablation: disable the CSS single-open-for-modification policy; with
    # replication and no global synchronization, concurrent writers diverge
    # (why the CSS exists, section 2.2.1).
    enforce_single_writer: bool = True
    # Extension the paper was investigating (section 2.3.4): "ship partial
    # pathnames to foreign sites so they can do the expansion locally,
    # avoiding remote directory opens and network transmission of directory
    # pages" — resuming at each site-change, since "the SS for each
    # intermediate directory could be different".
    pathname_shipping: bool = False
    msg_header_bytes: int = 64      # wire overhead per message

    # Remote-operation supervision.  Off reproduces the paper's
    # unsupervised protocol: any mid-call failure surfaces to the caller,
    # and a write open whose storage site is lost gets the paper's failure
    # action (section 5.6: "discard pages, set error in local file
    # descriptor").  On, remote calls get a per-op timeout plus bounded
    # deterministic exponential backoff, the US read path fails over to
    # another pack copy when its SS dies mid-call (sections 2.3.2 and 5.6:
    # "the system will substitute a different copy"), and mutating calls
    # are exactly-once: every mutating RPC (commit, create, css_open/close)
    # carries a ``(client_id, op_seq)`` stamp and the CSS and SS keep a
    # bounded per-client idempotency ledger, so a retried or failed-over
    # request whose first attempt already applied replays the recorded
    # reply instead of re-executing.  That makes the write path safe to
    # retry, lets open-for-write re-home to a surviving replica mid-storm
    # (staged shadow pages are re-staged at the new SS), and retires the
    # merge conflict window: the CSS refuses writer opens with
    # EWOULDCONFLICT while a file is queued for reconciliation.  Stamps
    # ride the header slots excluded from the wire-size model.  Fault-free
    # runs are identical either way — no retry, replay or refusal ever
    # fires and timeout events are cancelled without advancing the clock.
    supervise_remote_ops: bool = True
    rpc_timeout: float = 400.0      # per-op backstop for remote calls
    rpc_retries: int = 3            # bounded retry / failover attempts
    rpc_backoff: float = 8.0        # base of the exponential retry backoff
    ledger_window: int = 16         # memoized replies retained per client

    # Flight recorder (ISSUE 5).  With the flag on, every syscall, RPC and
    # message handler records a causal span and a virtual-time latency
    # sample (repro.obs); trace context rides message headers in a field
    # excluded from the wire-size model, recording charges no CPU and adds
    # no yield points, so virtual time and message counts are identical
    # with tracing on or off.  Off leaves only the always-on metrics
    # registry (plain counter/histogram updates).
    trace_enabled: bool = True

    # Load / hotspot accounting (ISSUE 10).  With the flag on, each site
    # keeps rolling-window syscall and RPC rates, per-RPC-op service
    # demand, per-filegroup CSS-role utilization and a bounded top-K
    # (space-saving) per-inode hotness sketch (repro.obs.load), the
    # propagator records replication lag, and the cluster-wide
    # ConvergenceMonitor measures divergence detection latency.  Like
    # tracing, accounting is purely observational — it never charges CPU,
    # sends messages, adds yield points or touches the simulator RNG —
    # so virtual time and message counts are byte-identical with the flag
    # on or off (held to zero delta by the T21 benchmark).
    load_accounting: bool = True

    # Anti-entropy scrub (ISSUE 9).  After a partition merge or recovery
    # sweep, each CSS sweeps the filegroups it synchronizes: every pack
    # holder returns a batched (version vector, content digest) summary
    # over one fs.scrub_digest RPC, and mismatches are classified and
    # repaired — a dominated copy is pulled up to date through the normal
    # propagation machinery, equal-vv digest skew is flagged as a conflict
    # (or re-merged, for directories), and a copy a pack stores without
    # advertising is retired.  The scrub only ever runs after a heal or
    # merge, never in fault-free steady state, so flag-off runs are
    # byte-identical when no fault fires.
    scrub_enabled: bool = True
    scrub_rounds: int = 4           # max sweep rounds before giving up
    scrub_interval: float = 150.0   # virtual-time delay between rounds

    # Reconfiguration timers
    poll_timeout: float = 50.0      # RPC poll timeout used by reconfiguration
    merge_long_timeout: float = 200.0   # while expected sites missing
    merge_short_timeout: float = 40.0   # after all believed-up sites replied
    watchdog_interval: float = 100.0    # passive-site check on active site

    def message_delay(self, nbytes: int) -> float:
        """Wire time for a message carrying ``nbytes`` of payload."""
        return self.net_latency + (nbytes + self.msg_header_bytes) * self.net_per_byte

    def with_overrides(self, **kw) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


@dataclass
class ClusterConfig:
    """Static configuration for building a :class:`~repro.core.cluster.LocusCluster`."""

    n_sites: int = 3
    seed: int = 0
    cost: CostModel = field(default_factory=CostModel)
    # Event-loop scheduler: "calendar" (bucketed calendar queue, the
    # default) or "heap" (the pre-overhaul single global heap, kept as the
    # T18 benchmark's measuring stick).  Both produce the identical event
    # schedule; they differ only in wall-clock throughput.
    sim_kernel: str = "calendar"
    # Sites holding a physical container (pack) of the root filegroup.
    # ``None`` means every site stores a pack, the fully replicated default.
    root_pack_sites: "list[int] | None" = None
    blocks_per_pack: int = 1 << 16
    max_open_files: int = 64

    def resolved_root_packs(self) -> "list[int]":
        if self.root_pack_sites is None:
            return list(range(self.n_sites))
        return list(self.root_pack_sites)
