"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-walk --seed 1 --seconds 20 --trace 0

Workloads: read-walk, write-churn, fault-storm (see README.md).  A run is
a fixed number of *episodes*, each with its own seed derived from
``--seed``; an episode builds a cluster and populates it (set-up), runs
the clients (the measured phase) and is judged by the oracle.  Simulated
metrics pool all episodes, so they are deterministic in the seed.  When
every episode has run once, episodes are run again, in order, until
``--seconds`` have passed (at least one repeat): a repeat must reproduce
its episode's end vtime, per-type message counts and op-log digest, and
adds a host-time sample.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats each
episode once under the sampling profiler and prints the per-layer
metrics.  The last line of standard output is the result object; the
line before it holds details (tail percentiles, sample counts, the
known-defect counters).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The median time of reference_cpu() on the host the bounds were set on (a
# shared two-vCPU Intel Xeon virtual machine); host times are reported
# scaled to that speed.
REFERENCE_CPU_S = 0.0290

# Message types sent only by the recovery subsystem (src/repro/recovery).
_RECOVERY_MTYPES = {"fs.pack_inventory", "fs.patch_nlink",
                    "fs.install_merged", "fs.mark_conflict"}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def episode_seed(seed: int, i: int) -> int:
    return seed * 64 + i


def parity(first, rnd) -> list:
    """Differences between two rounds of one episode (empty when equal)."""
    out = []
    if rnd.t_end - rnd.t0 != first.t_end - first.t0:
        out.append(f"end vtime {rnd.t_end - rnd.t0} != "
                   f"{first.t_end - first.t0}")
    if rnd.messages() != first.messages():
        out.append("per-type message counts differ")
    if rnd.digest() != first.digest():
        out.append("op-log digest differs")
    return out


@functools.lru_cache(maxsize=1)
def _population():
    """A few MB of small dicts and a fixed random walk over them."""
    rng = random.Random(1)
    objs = [{"id": k, "v": k * 3, "s": str(k)} for k in range(20000)]
    return objs, [rng.randrange(len(objs)) for __ in range(40000)]


def reference_cpu() -> float:
    """CPU seconds of fixed pure-Python work of the simulator's kind but
    none of its code: an event loop (generators, a heap, small dicts) and
    a random walk over more small dicts than the CPU caches hold.

    The benchmark's host is shared, and other tenants inflate the CPU time
    of the same work by up to 2x, in bursts from a fraction of a second to
    minutes.  ``run.py`` runs this at every slice boundary of a timed
    phase and scales each slice's CPU time by ``REFERENCE_CPU_S`` over the
    mean of the two runs around it, so a later commit is compared at
    equal host speed; on one write-churn episode this cut the spread of a
    round's CPU time between quartiles from 0.15 to 0.045.  The work never
    touches the program, so a faster program still shows in full."""
    objs, walk = _population()
    c0 = time.process_time()
    heap, seq, stats = [], 0, {}

    def proc(k):
        for n in range(1, 41):
            stats[k % 97] = stats.get(k % 97, 0) + n
            yield (n * 7 + k) % 13 + 1.0

    for k in range(400):
        heap.append((0.0, k, proc(k)))
        seq = k + 1
    heapq.heapify(heap)
    while heap:
        t, __, gen = heapq.heappop(heap)
        for delay in gen:
            heapq.heappush(heap, (t + delay, seq, gen))
            seq += 1
            break
    acc = 0
    for k in walk:
        obj = objs[k]
        acc += obj["v"]
        obj["v"] = acc & 0xffff
    return time.process_time() - c0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"the program's sources are missing ({SRC}/repro)")
    sys.path[:0] = [SRC, HERE]
    import layers
    from oracle import judge
    from workloads import WORKLOADS, Round, sim_metrics

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    episodes = [cls(episode_seed(args.seed, i))
                for i in range(cls.spec.episodes)]
    began = time.monotonic()
    problems = []
    reference = []      # every reference_cpu() time of the run
    setups = []         # scaled set-up CPU of every untraced round
    # Untraced rounds, per episode: raw and scaled CPU of the run phase.
    raw = {i: [] for i in range(len(episodes))}
    cost = {i: [] for i in range(len(episodes))}
    firsts, verdicts = [], []
    traced = []     # one dict per traced round

    def sample_host():
        reference.append(reference_cpu())

    def scaled(t: float, before: float, after: float) -> float:
        return t * REFERENCE_CPU_S * 2 / (before + after)

    def one_round(i: int, trace: bool):
        # The host's speed is sampled around the set-up and at every
        # slice boundary of the run (not in traced rounds, where the
        # profiler would charge it to the benchmark).
        rnd = Round(episodes[i])
        sample_host()
        t_setup = rnd.setup()
        sample_host()
        sampler = layers.Sampler() if trace else None
        counts0 = layers.counters(rnd.cluster) if trace else None
        mark = len(reference) - 1
        with (layers.boundary_counts() if trace
              else contextlib.nullcontext()) as bounds:
            slices = rnd.run(profile=sampler,
                             tick=None if trace else sample_host)
        if len(firsts) <= i:
            firsts.append(rnd)
            verdicts.append(judge(rnd))
            rnd.compact()
        else:
            problems.extend(f"episode {i}: {p}"
                            for p in parity(firsts[i], rnd))
        if trace:
            spans = rnd.cluster.tracer.spans
            traced.append({"cpu": sum(slices),
                           "layers": sampler.cpu, "before": counts0,
                           "after": layers.counters(rnd.cluster),
                           "state": dict(bounds, spans=len(spans),
                                         retained_mb=layers.retained_mb(
                                             spans), **_space(rnd))})
        else:
            setups.append(scaled(t_setup, *reference[mark - 1:mark + 1]))
            host = reference[mark:]
            raw[i].append(sum(slices))
            cost[i].append(sum(scaled(t, host[k], host[k + 1])
                               for k, t in enumerate(slices)))
        rnd.release()
        gc.collect()

    for i in range(len(episodes)):
        one_round(i, False)
    if args.trace:
        for i in range(len(episodes)):
            one_round(i, True)
    else:
        i = 0
        while i == 0 or time.monotonic() - began < args.seconds:
            one_round(i % len(episodes), False)
            i += 1

    ops = [op for rnd in firsts for op in rnd.ops]
    sim = sim_metrics(firsts)
    for v in verdicts:
        problems += v.failures
    digest = hashlib.sha1("".join(r.digest() for r in firsts).encode())
    details = {
        "workload": args.workload, "seed": args.seed,
        "episodes": len(episodes), "rounds": len(setups),
        "digest": digest.hexdigest(),
        "reads_judged": sum(v.reads_judged for v in verdicts),
        "reads_unjudged": sum(v.reads_unjudged for v in verdicts),
        "fs.conflicts_flagged": sum(v.conflicts_flagged for v in verdicts),
        "fs.writer_disagreements": sum(v.writer_disagreements
                                       for v in verdicts),
        "problems": problems,
    }
    for key in ("read_vlat_tail_pct", "read_samples", "write_vlat_tail_pct",
                "write_samples"):
        details[key] = sim[key][0]
    details["reference_cpu_s"] = statistics.median(reference)
    if args.trace:
        metrics = _per_layer(layers, firsts, verdicts, traced, raw)
    else:
        # Per-episode rates, median: one storm episode can cost twice
        # another's CPU for the same ops, and should not move the whole.
        rates = [len(rnd.ops) / statistics.median(cost[i])
                 for i, rnd in enumerate(firsts)]
        metrics = {
            "ops_per_s": (statistics.median(rates), "ops/CPU-s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        for key in ("read_vlat_p50", "read_vlat_tail", "write_vlat_p50",
                    "write_vlat_tail", "msgs_per_op", "ops_ok_frac",
                    "max_outage_v"):
            metrics[key] = sim[key]
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _space(rnd) -> dict:
    """Block bytes in use on every pack, and the live bytes the clients
    can read, at the end of ``rnd``."""
    cluster = rnd.cluster
    page = cluster.config.cost.page_size
    stored = sum(pack.blocks_in_use for site in cluster.sites
                 for pack in site.packs.values()) * page
    live = dict(rnd.w.initial)
    for op in sorted(rnd.ops, key=lambda op: (op.client, op.start)):
        if op.ok and op.kind == "write":
            live[op.path] = op.arg
        elif op.ok and op.kind == "rename":
            live[op.arg] = live.pop(op.path)
    return {"stored_bytes": stored, "page": page,
            "live_bytes": sum(len(v) for v in live.values())}


def _per_layer(layers, firsts, verdicts, traced, raw):
    """The per-layer metrics of a traced run, summed over episodes."""
    layer_cpu, d, state = {}, {}, {}
    for t in traced:
        for k, v in t["layers"].items():
            layer_cpu[k] = layer_cpu.get(k, 0.0) + v
        for k, v in t["after"].items():
            d[k] = d.get(k, 0) + v - t["before"][k]
        for k, v in t["state"].items():
            state.setdefault(k, []).append(v)
    ops = sum(len(rnd.ops) for rnd in firsts)
    n_msgs = sum(rnd.msgs.total_messages for rnd in firsts)
    sent, pages = {}, {}
    for rnd in firsts:
        for k, v in rnd.msgs.sent.items():
            sent[k] = sent.get(k, 0) + v
        for k, v in rnd.msgs.pages.items():
            pages[k] = pages.get(k, 0) + v
    traced_cpu = sum(t["cpu"] for t in traced)

    out = {}
    for layer in layers.LAYERS + ("bench",):
        out[f"{layer}.self_cpu_s"] = (layer_cpu.get(layer, 0.0), "CPU-s")
    covered = sum(layer_cpu.get(layer, 0.0) for layer in layers.LAYERS)
    out["trace.coverage"] = (covered / traced_cpu, "ratio")
    out["trace.overhead"] = (sum(t["cpu"] for t in traced)
                             / sum(rounds[0] for rounds in raw.values()),
                             "ratio")
    out["reads_unjudged"] = (sum(v.reads_unjudged for v in verdicts),
                             "count")

    out["sim.events"] = (d["sim.events"], "count")
    out["sim.ns_per_event"] = (layer_cpu.get("sim", 0.0)
                               / max(1, d["sim.events"]) * 1e9, "ns")
    out["net.messages"] = (n_msgs, "count")
    out["net.bytes"] = (sum(rnd.msgs.total_bytes for rnd in firsts),
                        "bytes")
    out["net.us_per_msg"] = (layer_cpu.get("net", 0.0) / max(1, n_msgs)
                             * 1e6, "us")
    out["net.dropped"] = (sum(rnd.msgs.dropped for rnd in firsts), "count")
    out["net.circuits_closed"] = (sum(rnd.msgs.circuits_closed
                                      for rnd in firsts), "count")
    for key in ("core.rpcs", "core.rpc_retries", "core.failovers",
                "core.late_replies_discarded", "fs.prop_pulls",
                "fs.prop_pages_pulled", "fs.prop_deferred",
                "fs.scrub_rounds", "storage.cache_evictions",
                "proc.syscalls"):
        out[key] = (d[key], "count")
    out["fs.dir_reads"] = (sum(state["fs.dir_reads"]), "count")
    lookups = d["fs.nc_hits"] + d["fs.nc_misses"]
    out["fs.name_cache_hit_rate"] = (d["fs.nc_hits"] / lookups
                                     if lookups else 0.0, "ratio")
    started = (d["fs.prop_pulls"] + d["fs.prop_skipped"]
               + d["fs.prop_failed"] + d["fs.prop_deferred"])
    out["fs.prop_useful_ratio"] = (d["fs.prop_pulls"] / started
                                   if started else 0.0, "ratio")
    data_msgs = sum(sent[k] for k in pages)
    out["fs.pages_per_data_msg"] = (sum(pages.values()) / data_msgs
                                    if data_msgs else 0.0, "pages/msg")
    out["fs.conflicts_flagged"] = (sum(v.conflicts_flagged
                                       for v in verdicts), "count")
    out["fs.writer_disagreements"] = (sum(v.writer_disagreements
                                          for v in verdicts), "count")

    cache = d["storage.cache_hits"] + d["storage.cache_misses"]
    out["storage.cache_hit_rate"] = (d["storage.cache_hits"] / cache
                                     if cache else 0.0, "ratio")
    block_writes = sum(state["storage.block_writes"])
    user_bytes = sum(len(op.arg) for rnd in firsts for op in rnd.ops
                     if op.kind == "write" and op.ok)
    out["storage.block_writes"] = (block_writes, "count")
    out["storage.write_amp"] = (block_writes * state["page"][0]
                                / max(1, user_bytes), "ratio")
    out["storage.space_amp"] = (sum(state["stored_bytes"])
                                / sum(state["live_bytes"]), "ratio")

    out["obs.spans_retained"] = (statistics.median(state["spans"]), "count")
    out["obs.retained_mb"] = (statistics.median(state["retained_mb"]), "MB")
    out["proc.syscalls_per_op"] = (d["proc.syscalls"] / ops, "syscalls/op")

    trace = [entry for rnd in firsts for entry in rnd.fault_trace]
    fault_kinds = {"crash", "restart", "partition", "heal", "loss_burst",
                   "latency_spike", "disk_errors", "drop"}
    out["faults.events_fired"] = (sum(k in fault_kinds for __, k, __ in trace),
                                  "count")
    out["faults.invariant_checks"] = (sum(k == "invariant_check"
                                          for __, k, __ in trace), "count")
    out["faults.invariant_check_cpu_s"] = (
        sum(state["faults.invariant_check_cpu_s"]), "CPU-s")
    out["reconfig.messages"] = (sum(v for k, v in sent.items()
                                    if k.startswith("topo.")
                                    or k.startswith("fs.css_rebuild")),
                                "count")
    out["recovery.messages"] = (sum(v for k, v in sent.items()
                                    if k.split(".resp")[0]
                                    in _RECOVERY_MTYPES), "count")
    return out


if __name__ == "__main__":
    sys.exit(main())
