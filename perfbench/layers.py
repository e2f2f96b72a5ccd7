"""Per-layer CPU attribution and per-layer counters for a traced round.

CPU time comes from a sampling profiler: a ``SIGPROF`` interval timer
that ticks on process CPU time.  At each tick the handler charges the
CPU time since the previous tick to the innermost frame on the stack
that belongs to a layer — a package under ``src/repro/`` (``sim``,
``net``, ``core``, ``fs``, ...) or ``bench`` (this directory).  Library
frames (the standard library, builtins) are skipped, so a layer's
``self_cpu_s`` is the time inside its own code, minus nested calls into
other layers, plus the library time it called.  Sampling leaves the
program's frames alone, so it costs little and cannot change the
simulation; a deterministic profiler (cProfile) was tried first and
loses whole stack contexts when the storm's crashes throw into nested
generators.

Counts come from the program's public counters (``NetStats``,
``CacheStats``, ``PropStats``, ``NameCacheStats``, ``ScrubStats``, the
metrics registries, ``sim.events_processed``) and from counting
wrappers installed at three layer boundaries for the traced round only.
Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import time
from typing import Dict, Iterable

LAYERS = ("sim", "net", "core", "fs", "storage", "obs", "proc", "faults",
          "reconfig", "recovery")
# Packages without a layer of their own; top-level modules fold to core.
_FOLDED = {"tools": "faults", "tx": "proc"}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str):
    """The layer a source file belongs to, or None for library code."""
    if filename.startswith(_BENCH_DIR):
        return "bench"
    i = filename.find(_SRC_MARK)
    if i < 0:
        return None
    rest = filename[i + len(_SRC_MARK):]
    pkg = rest.split(os.sep, 1)[0] if os.sep in rest else "core"
    return pkg if pkg in LAYERS else _FOLDED.get(pkg, "core")


class Sampler:
    """CPU-time sampling profiler; ``cpu`` maps layer -> CPU seconds."""

    def __init__(self, interval: float = 0.001):
        self.interval = interval
        self.cpu: Dict[str, float] = {}
        self.samples = 0
        self._layers: Dict[object, object] = {}    # code -> layer
        self._last = 0.0
        self._prev_handler = None

    def enable(self) -> None:
        self._prev_handler = signal.signal(signal.SIGPROF, self._tick)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def disable(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._prev_handler or signal.SIG_DFL)
        self._charge("unsampled", time.process_time() - self._last)

    def _charge(self, layer: str, seconds: float) -> None:
        self.cpu[layer] = self.cpu.get(layer, 0.0) + seconds

    def _tick(self, signum, frame) -> None:
        now = time.process_time()
        layers = self._layers
        layer = None
        while frame is not None:
            code = frame.f_code
            layer = layers.get(code, False)
            if layer is False:
                layer = layers[code] = layer_of(code.co_filename)
            if layer is not None:
                break
            frame = frame.f_back
        self._charge(layer or "unattributed", now - self._last)
        self.samples += 1
        self._last = now


@contextlib.contextmanager
def boundary_counts():
    """Count calls at three layer boundaries while the block runs:
    ``storage.block_writes`` (``Pack.write_block``), ``fs.dir_reads``
    (``PathMixin.read_dir_entries``) and the invariant checker's calls
    and CPU time.  The wrappers only count; results are unchanged."""
    from repro.faults.invariants import InvariantChecker
    from repro.fs.path import PathMixin
    from repro.storage.pack import Pack
    out = {"storage.block_writes": 0, "fs.dir_reads": 0,
           "faults.invariant_check_cpu_s": 0.0}
    originals = [(Pack, "write_block"), (PathMixin, "read_dir_entries"),
                 (InvariantChecker, "check")]
    saved = [(cls, name, cls.__dict__[name]) for cls, name in originals]
    write_block, read_dir_entries, check = (f for __, __, f in saved)

    def counted_write_block(self, blockno, data):
        out["storage.block_writes"] += 1
        return write_block(self, blockno, data)

    def counted_read_dir_entries(self, gfile):
        out["fs.dir_reads"] += 1
        return read_dir_entries(self, gfile)

    def timed_check(self):
        c0 = time.process_time()
        try:
            return check(self)
        finally:
            out["faults.invariant_check_cpu_s"] += time.process_time() - c0

    Pack.write_block = counted_write_block
    PathMixin.read_dir_entries = counted_read_dir_entries
    InvariantChecker.check = timed_check
    try:
        yield out
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


# ----------------------------------------------------------------------
# Program counters
# ----------------------------------------------------------------------

def _hist_count(cluster, prefix: str) -> int:
    return sum(h.count for site in cluster.sites
               for name, h in site.metrics.hists.items()
               if name.startswith(prefix))


def _counter(cluster, names: Iterable[str]) -> int:
    return sum(site.metrics.counters.get(n, 0) for site in cluster.sites
               for n in names)


def counters(cluster) -> Dict[str, float]:
    """Cumulative program counters; callers diff two of these."""
    out: Dict[str, float] = {
        "sim.events": cluster.sim.events_processed,
        "core.rpcs": _hist_count(cluster, "rpc."),
        "core.rpc_retries": _counter(cluster, ["rpc.retries"]),
        "core.failovers": _counter(cluster, ["fs.failovers",
                                             "fs.write_failovers"]),
        "core.late_replies_discarded":
            _counter(cluster, ["rpc.late_replies_discarded"]),
        "proc.syscalls": _hist_count(cluster, "syscall."),
    }
    for key, attr in (("prop_pulls", "pulls"),
                      ("prop_pages_pulled", "pages_pulled"),
                      ("prop_deferred", "deferred"),
                      ("prop_skipped", "skipped"),
                      ("prop_failed", "failed")):
        out["fs." + key] = sum(getattr(s.fs.propagator.stats, attr)
                               for s in cluster.sites)
    out["fs.nc_hits"] = sum(s.name_cache.stats.hits for s in cluster.sites)
    out["fs.nc_misses"] = sum(s.name_cache.stats.misses
                              for s in cluster.sites)
    out["fs.scrub_rounds"] = sum(s.scrub.stats.rounds for s in cluster.sites)
    out["storage.cache_hits"] = sum(s.cache.stats.hits for s in cluster.sites)
    out["storage.cache_misses"] = sum(s.cache.stats.misses
                                      for s in cluster.sites)
    out["storage.cache_evictions"] = sum(s.cache.stats.evictions
                                         for s in cluster.sites)
    return out


def _deep_size(obj, seen: set) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen)
                    for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set)):
        size += sum(_deep_size(x, seen) for x in obj)
    elif hasattr(obj, "__dict__"):
        size += _deep_size(vars(obj), seen)
    elif hasattr(obj, "__slots__"):
        size += sum(_deep_size(getattr(obj, s), seen)
                    for s in obj.__slots__ if hasattr(obj, s))
    return size


def retained_mb(spans) -> float:
    """Approximate memory held by the recorder's span list: the deep
    size of an evenly spaced sample of 200 spans, scaled up."""
    if not spans:
        return 0.0
    step = max(1, len(spans) // 200)
    sample = spans[::step]
    seen: set = set()
    size = sum(_deep_size(s, seen) for s in sample)
    return size * len(spans) / len(sample) / 1e6
