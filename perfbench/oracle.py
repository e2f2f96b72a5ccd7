"""Exact output checks for a finished round, run outside the timed phase.

The oracle rebuilds what each path should hold from the round's own op
log (the workload's initial tree plus every write the clients issued)
and judges:

* every op of a fault-free workload succeeded;
* every read returned a version from that path's write history — in
  write-churn, where each directory has one writer that also does all of
  its reads, exactly the model's current bytes; a read (or stat) that
  overlaps in vtime a write to the same path is *unjudged*, because a
  concurrent reader may see a truncating write half done;
* every readdir matches the model's names;
* after the round, every site lists every directory with the model's
  names and reads the final bytes of every path, fsck is clean and the
  :class:`InvariantChecker` reports nothing.

fault-storm changes three rules: hot files are read-only, so every
successful hot read must return the exact bytes; the fault injector's
post-heal audits must have found nothing; and each client's own file is
judged only on what every site can read after the storm — some version
from that file's history (known defects B and C; see README.md), where
a write that failed at the client counts with every state it may have
committed: its bytes, or the truncated file or a page-aligned prefix of
its bytes that its close committed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.errors import ECONFLICT, LocusError
from repro.faults.invariants import InvariantChecker
from repro.tools.fsck import fsck

from workloads import Op, Round


class Verdict:

    def __init__(self):
        self.failures: List[str] = []
        self.reads_judged = 0
        self.reads_unjudged = 0
        self.conflicts_flagged = 0
        self.writer_disagreements = 0

    @property
    def correct(self) -> bool:
        return not self.failures

    def fail(self, msg: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(msg)
        elif len(self.failures) == 20:
            self.failures.append("...")


def _overlaps(op: Op, writes: List[Op]) -> bool:
    return any(w.start <= op.end and op.start <= w.end for w in writes)


def judge(rnd: Round) -> Verdict:
    """Judge ``rnd`` (its cluster must still be alive)."""
    v = Verdict()
    w = rnd.w
    if w.spec.storm:
        _judge_storm(rnd, v)
    elif w.spec.name == "write-churn":
        final = _judge_private_dirs(rnd, v)
        _judge_final(rnd, v, final)
    else:
        final = _judge_shared(rnd, v)
        _judge_final(rnd, v, final)
    return v


def _judge_shared(rnd: Round, v: Verdict) -> Dict[str, bytes]:
    """read-walk: shared read-only tree plus per-client home files."""
    w = rnd.w
    history: Dict[str, List[bytes]] = {p: [d] for p, d in w.initial.items()}
    writes: Dict[str, List[Op]] = defaultdict(list)
    final = dict(w.initial)
    for op in rnd.ops:
        if not op.ok:
            v.fail(f"op failed: {op.kind} {op.path}: {op.err}")
        elif op.kind == "write":
            history[op.path].append(op.arg)
            writes[op.path].append(op)
            final[op.path] = op.arg     # one writer per path, in order
    for op in rnd.ops:
        if not op.ok or op.kind == "write":
            continue
        if op.kind == "readdir":
            expect = sorted(w.dirs[op.path])
            if op.result != expect:
                v.fail(f"readdir {op.path}: {op.result} != {expect}")
            continue
        if _overlaps(op, writes.get(op.path, ())):
            v.reads_unjudged += 1
            continue
        v.reads_judged += 1
        if op.kind == "read" and op.result not in history[op.path]:
            v.fail(f"read {op.path} at {op.start:.1f}: bytes not in history")
        if op.kind == "stat" and op.result not in {len(d) for d in
                                                   history[op.path]}:
            v.fail(f"stat {op.path}: size {op.result} not in history")
    return final


def _judge_private_dirs(rnd: Round, v: Verdict) -> Dict[str, bytes]:
    """write-churn: replay each client's ops in order against the model
    of its own directory; every read must see exactly the model."""
    w = rnd.w
    model = dict(w.initial)
    by_client: Dict[int, List[Op]] = defaultdict(list)
    for op in sorted(rnd.ops, key=lambda op: (op.client, op.start)):
        by_client[op.client].append(op)
    for ops in by_client.values():
        for op in ops:
            if not op.ok:
                v.fail(f"op failed: {op.kind} {op.path}: {op.err}")
                continue
            if op.kind == "write":
                model[op.path] = op.arg
            elif op.kind == "rename":
                if op.path not in model:
                    v.fail(f"rename of {op.path}, absent from the model")
                    continue
                model[op.arg] = model.pop(op.path)
            elif op.kind == "read":
                v.reads_judged += 1
                if op.result != model.get(op.path):
                    v.fail(f"read {op.path} at {op.start:.1f}: "
                           f"not the model's bytes")
            elif op.kind == "readdir":
                prefix = op.path + "/"
                expect = sorted(p[len(prefix):] for p in model
                                if p.startswith(prefix))
                if op.result != expect:
                    v.fail(f"readdir {op.path}: {len(op.result)} names, "
                           f"model has {len(expect)}")
    return model


def _read_everywhere(rnd: Round, path: str) -> Dict[int, object]:
    """Read ``path`` at every site: bytes, or the error's class name."""
    out: Dict[int, object] = {}
    for site in rnd.cluster.sites:
        try:
            out[site.site_id] = rnd.cluster.shell(site.site_id) \
                .read_file(path)
        except LocusError as exc:
            out[site.site_id] = type(exc).__name__
    return out


def _audit(rnd: Round, v: Verdict) -> None:
    report = fsck(rnd.cluster)
    if not report.clean:
        v.fail("fsck: " + " ".join(report.summary().split()))
    for violation in InvariantChecker(rnd.cluster).check():
        v.fail(f"invariant: {violation.kind}: {violation.detail}")


def _judge_listings(rnd: Round, v: Verdict, paths) -> None:
    """Every site lists every directory with exactly the names of the
    files in ``paths`` and the workload's directories."""
    names: Dict[str, set] = {d: set() for d in rnd.w.dirs}
    for path in list(rnd.w.dirs) + list(paths):
        if path != "/":
            parent, name = path.rsplit("/", 1)
            names[parent or "/"].add(name)
    for d in sorted(names):
        expect = sorted(names[d])
        for site in rnd.cluster.sites:
            try:
                got = sorted(rnd.cluster.shell(site.site_id).readdir(d))
            except LocusError as exc:
                got = type(exc).__name__
            if got != expect:
                v.fail(f"final readdir of {d} at site {site.site_id}: "
                       f"{got} != {expect}")


def _judge_final(rnd: Round, v: Verdict, final: Dict[str, bytes]) -> None:
    """After settle: fsck, invariants, every site lists every directory
    as the model does and reads every path's final bytes."""
    _audit(rnd, v)
    _judge_listings(rnd, v, final)
    for path in sorted(final):
        for site, got in _read_everywhere(rnd, path).items():
            if got != final[path]:
                v.fail(f"final read of {path} at site {site}: "
                       f"{got if isinstance(got, str) else 'wrong bytes'}")


def _judge_storm(rnd: Round, v: Verdict) -> None:
    w = rnd.w
    hot = {p: d for p, d in w.initial.items() if p.startswith("/hot/")}
    history: Dict[str, List[bytes]] = {p: [d] for p, d in w.initial.items()
                                       if p not in hot}
    page = rnd.cluster.config.cost.page_size
    for op in rnd.ops:
        if op.kind == "write":
            history[op.path].append(op.arg)
            if not op.ok:
                history[op.path].extend(_torn_states(op.arg, page))
        elif op.ok and op.kind == "read":
            v.reads_judged += 1
            if op.result != hot[op.path]:
                v.fail(f"hot read {op.path} at {op.start:.1f}: wrong bytes")
    for violation in rnd.violations:
        v.fail(f"injector: {violation.kind}: {violation.detail}")
    _audit(rnd, v)
    _judge_listings(rnd, v, w.initial)
    for path in sorted(hot):
        for site, got in _read_everywhere(rnd, path).items():
            if got != hot[path]:
                v.fail(f"final read of {path} at site {site}: "
                       f"{got if isinstance(got, str) else 'wrong bytes'}")
    for path in sorted(history):
        seen = _read_everywhere(rnd, path)
        readable = {site: got for site, got in seen.items()
                    if isinstance(got, bytes)}
        for site, got in seen.items():
            if got == ECONFLICT.__name__:
                continue    # defect C: counted below, not judged
            if got not in history[path]:
                v.fail(f"final read of {path} at site {site}: "
                       f"{got if isinstance(got, str) else 'not in history'}")
        if len(set(readable.values())) > 1:
            v.writer_disagreements += 1     # defect B
    v.conflicts_flagged = count_conflicts(rnd.cluster)


def _torn_states(data: bytes, page: int) -> List[bytes]:
    """What a write_file that failed may leave committed besides the old
    and the new bytes.  Its open truncates and its close commits whatever
    was staged (close runs even when the write fails), so the file can
    hold nothing, or a page-aligned prefix of the new bytes."""
    return [data[:k] for k in range(0, len(data), page)]


def count_conflicts(cluster) -> int:
    """Files flagged as unreconciled conflicts on any pack."""
    flagged = set()
    for site in cluster.sites:
        for gfs, pack in site.packs.items():
            for ino, inode in pack.inodes.items():
                if getattr(inode, "conflict", False):
                    flagged.add((gfs, ino))
    return len(flagged)
