"""A LOCUS site: one machine's kernel, storage, and RPC plumbing.

LOCUS is procedure based: "at the point within the execution of the system
call that foreign service is needed, the operating system packages up a
message and sends it to the relevant foreign site.  Typically the kernel then
sleeps, waiting for a response" (paper section 2.3.2, Figure 1).  ``Site.rpc``
implements exactly that flow; when the destination is the local site only a
procedure call is needed and no messages move.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, Optional, Set, Tuple

from repro.config import ClusterConfig, CostModel
from repro.errors import (CircuitClosed, EWOULDCONFLICT, NetworkError,
                          SiteDown, SimTimeout, TaskCancelled, Unreachable)
from repro.net.message import Message, MsgKind
from repro.net.network import Network
from repro.obs.load import LoadAccountant
from repro.obs.registry import MetricsRegistry
from repro.fs.name_cache import NameCache
from repro.sim.simulator import Simulator
from repro.sim.task import Task
from repro.storage.buffer_cache import BufferCache
from repro.storage.pack import Pack

Handler = Callable[[int, dict], Generator]


class Site:
    """One full-function LOCUS node (every site can be US, SS and CSS)."""

    def __init__(self, site_id: int, sim: Simulator, net: Network,
                 config: ClusterConfig):
        self.site_id = site_id
        self.sim = sim
        self.net = net
        self.config = config
        self.cost: CostModel = config.cost
        self.up = True
        self.cpu_used = 0.0
        self.cpu_type = "vax"          # machine type (section 2.4.1)
        self.programs: Dict[str, Any] = {}   # the installed instruction set
        self.packs: Dict[int, Pack] = {}            # gfs -> local pack
        self.cache = BufferCache(self.cost.buffer_pages)
        # Decoded-directory-entry cache; every buffer-cache invalidation
        # path cascades into it (see BufferCache.companion).
        self.name_cache = NameCache(self.cost.name_cache_entries)
        self.cache.companion = self.name_cache
        # Flight recorder: per-site metrics are always on (observational,
        # zero virtual-time cost); the shared tracer is attached by the
        # cluster builder when cost.trace_enabled.
        self.metrics = MetricsRegistry(f"site{site_id}")
        self.tracer = None
        self.metrics.register_source("cache", lambda: {
            "pages": len(self.cache),
            "hit_rate": round(self.cache.stats.hit_rate, 3),
            "invalidations": self.cache.stats.invalidations,
        })
        self.metrics.register_source("name_cache", lambda: {
            "dirs": len(self.name_cache),
            "hit_rate": round(self.name_cache.stats.hit_rate, 3),
            "fills": self.name_cache.stats.fills,
            "stale_drops": self.name_cache.stats.stale_drops,
            "invalidations": self.name_cache.stats.invalidations,
            "neg_hits": self.name_cache.stats.neg_hits,
            "neg_fills": self.name_cache.stats.neg_fills,
        })
        # Shared event-queue depth (live entries only — cancelled events
        # awaiting lazy discard are excluded by Simulator.pending()).
        self.metrics.register_source("sim", lambda: {
            "events_pending": self.sim.pending(),
            "events_processed": self.sim.events_processed,
        })
        # Load / hotspot accounting (ISSUE 10): rolling syscall/RPC rates,
        # per-inode hotness, CSS-role utilization.  Observational only —
        # the gauge source is registered only when the flag is on so
        # flag-off reports keep their original shape.
        self.load = LoadAccountant(self)
        if self.load.enabled:
            self.metrics.register_source("load", self.load.gauges)
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[Tuple[int, int], Any] = {}  # (peer, reqid) -> Future
        self._reqids = itertools.count(1)
        # Hot-path label caches: op -> "rpc.<op>" metric key and
        # mtype -> "serve:<mtype>@<id>" task name.  The op vocabulary is
        # small and static, so caching removes an f-string per call.
        self._rpc_keys: Dict[str, str] = {}
        self._serve_names: Dict[str, str] = {}
        self._task_name = f"site{site_id}"
        self._tasks: Set[Task] = set()
        # Exactly-once stamping (ISSUE 8): a monotonically increasing
        # mutating-op sequence — never reset, even across crashes, so a
        # restarted client cannot collide with its own pre-crash entries
        # in a server's durable ledger — plus the set of seqs still
        # outstanding, from which the contiguous-completion ack floor
        # piggybacked on every stamped request is derived.
        self._op_seqs = itertools.count(0)
        self._stamp_live: Set[int] = set()
        self._stamp_last = -1
        # Subsystems are attached by the cluster builder.
        self.fs = None          # repro.fs.manager.FsManager
        self.proc = None        # repro.proc.manager.ProcManager
        self.topology = None    # repro.reconfig.topology.TopologyService
        self.recovery = None    # repro.recovery.manager.RecoveryManager
        self.scrub = None       # repro.fs.scrub.ScrubManager
        self.convergence = None  # repro.obs.load.ConvergenceMonitor (shared)
        self.tx = None          # repro.tx.manager.TxManager
        net.register_site(site_id, self._on_message, self._on_circuit_closed)

    # ------------------------------------------------------------------
    # CPU accounting: charging advances the virtual clock and the site's
    # cpu_used counter (single-CPU contention is not modelled; documented
    # in DESIGN.md).
    # ------------------------------------------------------------------

    def cpu(self, amount: float) -> Generator:
        self.cpu_used += amount
        yield amount

    # ------------------------------------------------------------------
    # Handler registry
    # ------------------------------------------------------------------

    def register_handler(self, op: str, fn: Handler) -> None:
        if op in self._handlers:
            raise ValueError(f"handler {op!r} already registered")
        self._handlers[op] = fn

    # ------------------------------------------------------------------
    # Exactly-once stamps
    # ------------------------------------------------------------------

    def next_stamp(self) -> Tuple[int, int]:
        """Issue a fresh ``(client_id, op_seq)`` stamp for a mutating op."""
        seq = next(self._op_seqs)
        self._stamp_live.add(seq)
        self._stamp_last = seq
        return (self.site_id, seq)

    def stamp_done(self, seq: int) -> None:
        """The stamped op finished (or was abandoned): it will never be
        retried again, so servers may retire its ledger entry once the
        ack floor passes it."""
        self._stamp_live.discard(seq)

    def stamp_ack(self) -> int:
        """Highest seq below which every stamped op has completed."""
        live = self._stamp_live
        return (min(live) - 1) if live else self._stamp_last

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------

    def rpc(self, dst: int, op: str, payload: Optional[dict] = None,
            timeout: Optional[float] = None) -> Generator:
        """Remote procedure call; a plain procedure call when ``dst`` is
        local.  Raises whatever the remote handler raised, or
        :class:`Unreachable` / :class:`CircuitClosed` on communication
        failure, or :class:`SimTimeout` when ``timeout`` expires."""
        payload = payload or {}
        if dst == self.site_id:
            # Local collapse: no messages (Figure 2's optimized cases).
            result = yield from self._dispatch(op, self.site_id, payload)
            return result
        tracer = self.tracer
        start = self.sim.now
        span = prev = None
        if tracer is not None and tracer.enabled:
            span, prev = tracer.begin(f"rpc:{op}", "rpc", self.site_id,
                                      attrs={"dst": dst})
        metric_key = self._rpc_keys.get(op)
        if metric_key is None:
            metric_key = self._rpc_keys[op] = "rpc." + op
        status_label = "ok"
        try:
            cpu_msg = self.cost.cpu_msg
            self.cpu_used += cpu_msg                    # message setup
            yield cpu_msg
            reqid = next(self._reqids)
            fut = self.sim.create_future(op)
            self._pending[(dst, reqid)] = fut
            msg = self.net.make_message(self.site_id, dst, op,
                                        MsgKind.REQUEST, payload,
                                        reqid=reqid,
                                        trace_ctx=span.ctx
                                        if span is not None else None)
            try:
                self.net.send(self.site_id, dst, msg)
            except Exception as exc:
                self._pending.pop((dst, reqid), None)
                if isinstance(exc, Unreachable) and self.topology is not None:
                    # Lazy failure detection: a failed send means the circuit
                    # to the peer is gone; the partition protocol must run.
                    self.topology.on_circuit_closed(dst, "send failed")
                raise
            wait = fut if timeout is None else self.sim.with_timeout(
                fut, timeout, label=f"{op}->{dst}")
            try:
                status, value = yield wait
            except SimTimeout:
                self._pending.pop((dst, reqid), None)
                raise
            self.cpu_used += cpu_msg                    # return processing
            yield cpu_msg
            if status == "err":
                raise value
            return value
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            self.metrics.observe(metric_key, self.sim.now - start)
            if span is not None:
                tracer.finish(span, prev, status=status_label)

    def backstop_rpc(self, dst: int, op: str,
                     payload: Optional[dict] = None) -> Generator:
        """Unretried call with the supervised per-op timeout backstop.

        The caller owns retry and fallback: a timeout is a
        :class:`NetworkError` like any other communication failure, so
        the existing skip/retry handling covers it.  With
        ``cost.supervise_remote_ops`` off this is plain :meth:`rpc` — the
        paper's unsupervised call, which waits on the circuit alone."""
        cost = self.cost
        timeout = (cost.rpc_timeout or None) if cost.supervise_remote_ops \
            else None
        result = yield from self.rpc(dst, op, payload, timeout=timeout)
        return result

    def supervised_rpc(self, dst, op: str, payload: Optional[dict] = None,
                       once: bool = False) -> Generator:
        """Supervised remote call: a per-op timeout plus bounded
        deterministic exponential backoff.

        ``dst`` may be a callable re-evaluated before every attempt so a
        retry chases responsibility that moved during the failure (e.g. a
        CSS re-elected while this call was failing).  Every call is
        retried, so the operation must be safe to deliver twice: either
        idempotent (reads, absolute patches), or marked ``once`` for
        exactly-once delivery, in which case the payload is stamped with
        ``(client_id, op_seq)`` and the server's idempotency ledger turns
        a duplicate into a replay of the recorded reply — at-least-once
        delivery plus server-side dedup yields exactly-once execution.  A
        caller that pre-stamped the payload (a background close
        notification reusing its first attempt's stamp) keeps its own
        stamp and its own completion bookkeeping.

        ``EWOULDCONFLICT`` — the CSS refusing a writer open while the file
        is queued for reconciliation — is always retryable (the refusal
        precedes any state change) and gets a larger attempt budget so a
        writer can wait out a post-heal merge sweep.

        With ``cost.supervise_remote_ops`` off this degenerates to plain
        :meth:`rpc` — the paper's unsupervised behaviour.
        """
        resolve = dst if callable(dst) else (lambda: dst)
        cost = self.cost
        payload = payload if payload is not None else {}
        own_stamp = (once and cost.supervise_remote_ops
                     and "_stamp" not in payload)
        if own_stamp:
            payload["_stamp"] = self.next_stamp()
        try:
            if not cost.supervise_remote_ops:
                result = yield from self.rpc(resolve(), op, payload)
                return result
            timeout = cost.rpc_timeout or None
            retries = cost.rpc_retries
            backoff = cost.rpc_backoff
            tracer = self.tracer
            span = prev = None
            if tracer is not None and tracer.enabled:
                span, prev = tracer.begin(f"srpc:{op}", "rpc", self.site_id)
            status_label = "ok"
            try:
                attempt = 0
                conflict_waits = 0
                while True:
                    if "_stamp" in payload:
                        payload["_ack"] = self.stamp_ack()
                    try:
                        result = yield from self.rpc(resolve(), op, payload,
                                                     timeout=timeout)
                        return result
                    except NetworkError as exc:
                        if attempt >= retries or not self.up:
                            raise
                        self.metrics.count("rpc.retries")
                        if span is not None:
                            tracer.event(span, "retry",
                                         {"attempt": attempt,
                                          "error": type(exc).__name__,
                                          "backoff": backoff * (2 ** attempt)})
                        # Deterministic exponential backoff: gives the
                        # partition protocol time to converge before the
                        # retry resolves dst.
                        yield backoff * (2 ** attempt)
                        attempt += 1
                    except EWOULDCONFLICT:
                        # Conflict-window refusal: wait for the merge the
                        # CSS has scheduled, on its own (longer) budget so
                        # network retries stay bounded independently.
                        if conflict_waits >= max(2 * retries, 8) or not self.up:
                            raise
                        self.metrics.count("rpc.conflict_retries")
                        yield backoff * (2 ** min(conflict_waits, 4))
                        conflict_waits += 1
            except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
                status_label = type(exc).__name__
                raise
            finally:
                if span is not None:
                    tracer.finish(span, prev, status=status_label)
        finally:
            if own_stamp:
                # Success or final failure, this client will never re-send
                # this seq: let the servers' ledgers retire it.
                self.stamp_done(payload["_stamp"][1])

    def oneway(self, dst: int, op: str,
               payload: Optional[dict] = None) -> Generator:
        """One-way protocol message: low-level acks only, no response
        (the write protocol of section 2.3.5)."""
        payload = payload or {}
        if dst == self.site_id:
            # Local: run the handler as a procedure call, discard result.
            yield from self._dispatch(op, self.site_id, payload)
            return None
        yield from self.cpu(self.cost.cpu_msg)
        ctx = None
        if self.tracer is not None and self.tracer.enabled:
            ctx = self.tracer.current_ctx()
        msg = self.net.make_message(self.site_id, dst, op,
                                    MsgKind.ONEWAY, payload, trace_ctx=ctx)
        self.net.send(self.site_id, dst, msg)
        return None

    def oneway_quiet(self, dst: int, op: str,
                     payload: Optional[dict] = None) -> Generator:
        """One-way send that swallows unreachability (best-effort notify)."""
        try:
            yield from self.oneway(dst, op, payload)
        except NetworkError:
            pass
        return None

    # ------------------------------------------------------------------
    # Message handling (server side of Figure 1)
    # ------------------------------------------------------------------

    def _dispatch(self, op: str, src: int, payload: dict) -> Generator:
        handler = self._handlers.get(op)
        if handler is None:
            raise ValueError(f"site {self.site_id}: no handler for {op!r}")
        result = yield from handler(src, payload)
        return result

    def _on_message(self, msg: Message) -> None:
        if not self.up:
            return
        if msg.kind is MsgKind.RESPONSE:
            fut = self._pending.pop((msg.src, msg.reqid), None)
            if fut is not None:
                fut.resolve(msg.payload)
            else:
                # Duplicate delivery: a reply to an attempt whose supervisor
                # already timed out and moved on.  Each attempt carries a
                # unique reqid (the attempt tag), so a late reply can never
                # resolve a newer attempt's future — it is counted and
                # discarded here.
                self.metrics.count("rpc.late_replies_discarded")
            return
        name = self._serve_names.get(msg.mtype)
        if name is None:
            name = self._serve_names[msg.mtype] = \
                f"serve:{msg.mtype}@{self.site_id}"
        self.spawn(self._serve(msg), name=name)

    def _serve(self, msg: Message) -> Generator:
        """Message analysis, system-call continuation, send return message."""
        tracer = self.tracer
        span = prev = None
        if tracer is not None and tracer.enabled:
            # The handler span parents under the caller's rpc span carried
            # in the message header — the cross-site causal link.
            span, prev = tracer.begin(f"serve:{msg.mtype}", "handler",
                                      self.site_id,
                                      parent_ctx=msg.trace_ctx,
                                      inherit=False,
                                      attrs={"src": msg.src})
        served_start = self.sim.now
        status_label = "ok"
        try:
            cpu_msg = self.cost.cpu_msg
            self.cpu_used += cpu_msg                    # message analysis
            yield cpu_msg
            response: Optional[Tuple[str, Any]]
            try:
                value = yield from self._dispatch(msg.mtype, msg.src,
                                                  msg.payload)
                response = ("ok", value)
            except TaskCancelled:
                raise
            except Exception as exc:  # noqa: BLE001 - errors go to caller
                response = ("err", exc)
                status_label = f"err:{type(exc).__name__}"
            if msg.kind is MsgKind.ONEWAY:
                return None
            self.cpu_used += cpu_msg                    # send return message
            yield cpu_msg
            reply = self.net.make_message(self.site_id, msg.src, msg.mtype,
                                          MsgKind.RESPONSE, response,
                                          reqid=msg.reqid,
                                          trace_ctx=msg.trace_ctx)
            try:
                self.net.send(self.site_id, msg.src, reply)
            except Exception:
                # Requester unreachable: it learns via its closed circuit.
                pass
            return None
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            if self.load.enabled:
                self.load.note_rpc_served(msg.mtype,
                                          self.sim.now - served_start)
            if span is not None:
                tracer.finish(span, prev, status=status_label)

    def _on_circuit_closed(self, peer: int, reason: str) -> None:
        if not self.up:
            return
        # Fail every RPC outstanding toward the lost peer: closing a circuit
        # aborts ongoing activity between the two sites (section 5.1).
        for key in [k for k in self._pending if k[0] == peer]:
            fut = self._pending.pop(key)
            fut.fail(CircuitClosed(peer, reason))
        if self.topology is not None:
            self.topology.on_circuit_closed(peer, reason)

    # ------------------------------------------------------------------
    # Task management (so a crash can kill in-flight kernel work)
    # ------------------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Task:
        task = self.sim.spawn(gen, name=name or self._task_name)
        self._tasks.add(task)
        task.done.add_callback(lambda _f: self._tasks.discard(task))
        return task

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Site failure: volatile state vanishes; packs (disks) survive."""
        self.up = False
        for task in list(self._tasks):
            task.cancel(f"site {self.site_id} crashed")
        self._tasks.clear()
        for fut in self._pending.values():
            fut.fail(SiteDown(self.site_id))
        self._pending.clear()
        # In-flight stamped ops died with their tasks and will never be
        # retried; advancing the ack floor past them lets server ledgers
        # retire their entries.  The seq counter itself is NOT reset, so
        # post-restart stamps cannot collide with pre-crash ones.
        self._stamp_live.clear()
        self.cache.clear()
        self.net.fail_site(self.site_id)
        for subsystem in (self.fs, self.proc, self.tx, self.recovery,
                          self.scrub, self.topology):
            if subsystem is not None:
                subsystem.reset_volatile()

    def restart(self) -> None:
        """Power back on alone in a partition of one; the merge protocol
        will bring the site back into the network (section 5.5)."""
        self.net.restore_site(self.site_id)
        self.up = True
        for subsystem in (self.fs, self.proc, self.tx, self.recovery,
                          self.scrub, self.topology):
            if subsystem is not None:
                subsystem.on_restart()

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Site {self.site_id} {state} packs={sorted(self.packs)}>"
