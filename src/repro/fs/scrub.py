"""Anti-entropy scrub: background divergence sweep after heal/merge.

The paper's propagation protocol is notification-driven: a commit sends
``fs.notify`` to the other storage sites, and the partition-merge
procedure (section 4) re-reconciles whatever a topology change may have
disturbed.  Both are one-shot — a notify lost to a fault that fires
*after* the merge sweep snapshotted its inventories leaves replicas
quietly divergent until some unrelated membership change, and nothing
ever cross-checks the *content* of copies whose version vectors agree.

The scrub closes that gap.  After every partition merge or recovery
sweep, the filegroup's CSS runs a bounded number of delayed rounds; each
round asks every reachable pack holder for a batched summary — one
``fs.scrub_digest`` RPC per pack, returning each inode's attributes plus
a digest of its committed content — and classifies every mismatch:

* a dominated or never-seeded copy is handed to the recovery manager's
  per-file reconcile (which propagates the best version through the
  normal pull machinery);
* copies whose version vectors are *equal* but whose digests differ are
  flagged as a conflict (regular files) or re-merged (directories);
* a pack storing data its inode no longer advertises is told to retire
  the copy;
* a live directory entry naming an inode no reachable pack holds is
  scrubbed out (the classic fsck action), and link counts are recounted.

A round that finds nothing ends the sweep early; ``scrub_rounds`` bounds
the worst case.  The scrub never runs in fault-free steady state — its
only triggers fire from the merge procedure — so disabling it
(``CostModel.scrub_enabled``) changes nothing on a clean run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generator, List, Set, Tuple

from repro.errors import FsError, NetworkError
from repro.fs.directory import decode_entries
from repro.fs.types import Gfile
from repro.storage.inode import FileType
from repro.storage.version_vector import latest

_DIR_TYPES = (FileType.DIRECTORY, FileType.HIDDEN_DIR)


def committed_digest(pack, ino: int, page_size: int = 1024) -> str:
    """Digest of an inode's committed content, straight from pack blocks
    (the same committed view fsck audits)."""
    inode = pack.get_inode(ino)
    if inode is None:
        return ""
    chunks = []
    for blockno in inode.pages:
        chunks.append((pack.read_block(blockno) if blockno is not None
                       else b"").ljust(page_size, b"\x00"))
    return hashlib.sha1(b"".join(chunks)[:inode.size]).hexdigest()[:16]


class ScrubStats:
    def __init__(self):
        self.sweeps = 0
        self.rounds = 0
        self.converged = 0          # sweeps that ended on a clean round
        self.exhausted = 0          # sweeps that ran out of rounds
        self.partial_rounds = 0     # rounds missing a believed-up holder
        self.reconciles = 0         # files handed to recovery
        self.digest_skews = 0       # equal-vv copies with differing content
        self.dir_remerges = 0
        self.placement_repairs = 0  # unadvertised copies retired
        self.dangling_removed = 0
        self.nlink_repairs = 0


class ScrubManager:
    """Per-site anti-entropy scrubber; active at the CSS of a filegroup."""

    def __init__(self, site):
        self.site = site
        self.stats = ScrubStats()
        self._active: Set[int] = set()   # filegroups with a sweep running
        site.metrics.register_source("scrub", lambda: {
            "sweeps": self.stats.sweeps,
            "rounds": self.stats.rounds,
            "converged": self.stats.converged,
            "exhausted": self.stats.exhausted,
            "partial_rounds": self.stats.partial_rounds,
            "reconciles": self.stats.reconciles,
            "digest_skews": self.stats.digest_skews,
            "placement_repairs": self.stats.placement_repairs,
            "dangling_removed": self.stats.dangling_removed,
        })

    @property
    def sid(self) -> int:
        return self.site.site_id

    def reset_volatile(self) -> None:
        self._active.clear()   # sweep tasks died with the site

    def on_restart(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, gfs: int) -> None:
        """Kick off a scrub sweep for a filegroup this site synchronizes.
        Called from the merge procedure, next to recovery scheduling."""
        if not self.site.cost.scrub_enabled:
            return
        if gfs in self._active:
            return
        self._active.add(gfs)
        self.site.spawn(self._traced_sweep(gfs),
                        name=f"scrub:fg{gfs}@{self.sid}")

    def _traced_sweep(self, gfs: int) -> Generator:
        tracer = getattr(self.site, "tracer", None)
        span = prev = None
        if tracer is not None and tracer.enabled:
            tracer.instant("scrub.start", site=self.sid, attrs={"gfs": gfs})
            span, prev = tracer.begin(f"scrub:fg{gfs}", "scrub", self.sid,
                                      inherit=False, attrs={"gfs": gfs})
        status_label = "ok"
        try:
            result = yield from self._sweep(gfs)
            return result
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            self._active.discard(gfs)
            if span is not None:
                tracer.finish(span, prev, status=status_label)
                tracer.instant("scrub.complete", site=self.sid,
                               attrs={"gfs": gfs,
                                      "rounds": self.stats.rounds,
                                      "status": status_label})

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------

    def _sweep(self, gfs: int) -> Generator:
        cost = self.site.cost
        recovery = self.site.recovery
        fs = self.site.fs
        self.stats.sweeps += 1
        for __ in range(max(1, cost.scrub_rounds)):
            yield cost.scrub_interval
            if not cost.scrub_enabled:
                return None
            if fs.mount.css_for(gfs) != self.sid:
                return None   # lost the CSS role: the new CSS scrubs
            # Let queued reconciles drain first; a scrub over a half-merged
            # filegroup would re-report what recovery is already fixing.
            for __wait in range(10):
                busy = recovery is not None and (
                    recovery.pending.get(gfs) or recovery._demanding)
                if not busy:
                    break
                yield cost.scrub_interval / 2
            self.stats.rounds += 1
            self.site.metrics.count("scrub.rounds")
            before = recovery.stats.nlink_repairs if recovery else 0
            mismatches = yield from self._round(gfs)
            # Recount link references even on an otherwise clean round: a
            # deferred directory merge (rule-d resurrection) can land after
            # the sweep's own repair pass already ran.
            if recovery is not None:
                try:
                    yield from recovery._repair_link_counts(gfs)
                except (NetworkError, FsError):
                    pass
            repairs = (recovery.stats.nlink_repairs - before) \
                if recovery else 0
            self.stats.nlink_repairs += repairs
            if mismatches == 0 and repairs == 0:
                self.stats.converged += 1
                self.site.metrics.count("scrub.converged")
                return None
        self.stats.exhausted += 1
        self.site.metrics.count("scrub.exhausted")
        return None

    def _flag(self, category: str, gfile: Gfile) -> None:
        """A divergence was classified: timestamp it on the shared
        timeline (``scrub.<category>`` instant) and feed the cluster's
        detection-latency metric (ISSUE 10).  Observational only."""
        tracer = getattr(self.site, "tracer", None)
        if tracer is not None and tracer.enabled:
            tracer.instant(f"scrub.{category}", site=self.sid,
                           attrs={"gfile": list(gfile)})
        monitor = self.site.convergence
        if monitor is not None and monitor.enabled:
            monitor.note_detection(category, site=self.sid, gfile=gfile)

    def _summaries(self, gfs: int) -> Generator:
        """One fs.scrub_digest RPC per reachable pack holder.  Returns
        ``(summaries, expected)`` — the holders that answered and the set
        the partition tables said should have."""
        members = self.site.topology.partition_set if self.site.topology \
            else set(self.site.net.site_ids)
        expected = {s for s in self.site.fs.mount.pack_sites(gfs)
                    if s in members}
        summaries: Dict[int, Dict[int, dict]] = {}
        for s in sorted(expected):
            try:
                summaries[s] = yield from self.site.backstop_rpc(
                    s, "fs.scrub_digest", {"gfs": gfs})
            except (NetworkError, FsError):
                continue
        return summaries, expected

    def _round(self, gfs: int) -> Generator:
        """One classification pass; returns the number of mismatches found
        (each is also repaired or queued for repair)."""
        recovery = self.site.recovery
        summaries, expected = yield from self._summaries(gfs)
        # A believed-up pack holder that did not answer may be hiding
        # exactly the divergence the scrub exists to find: the round is
        # incomplete, not converged, so keep the sweep alive.
        shortfall = len(expected) - len(summaries)
        if shortfall:
            self.stats.partial_rounds += 1
            self.site.metrics.count("scrub.partial_rounds")
        if len(summaries) < 2:
            return shortfall if len(expected) >= 2 else 0
        all_inos: Set[int] = set()
        for summ in summaries.values():
            all_inos |= set(summ)
        mismatches = shortfall
        for ino in sorted(all_inos):
            gfile: Gfile = (gfs, ino)
            copies = [(s, summ[ino]) for s, summ in summaries.items()
                      if ino in summ]
            live = [(s, e["attrs"]) for s, e in copies
                    if e["has_data"] and not e["attrs"]["deleted"]]
            if not live:
                continue
            if all(a["conflict"] for __, a in live):
                continue   # awaiting user resolution (section 4.6)
            __, best_vv, conflict = latest(
                (s, a["version"]) for s, a in live)
            if best_vv.total() == 0:
                continue   # never-committed placeholders, nothing to spread
            if conflict:
                # Concurrent lineages: the merge machinery, not a pull.
                mismatches += 1
                self.stats.reconciles += 1
                self.site.metrics.count("scrub.reconciles")
                self._flag("reconcile", gfile)
                if recovery is not None:
                    recovery._note_reconcile_needed(gfile)
                continue
            win_attrs = next(a for __, a in live if a["version"] == best_vv)
            behind = {s for s, a in live if a["version"] != best_vv}
            missing = (set(win_attrs["storage_sites"]) & set(summaries)) \
                - {s for s, __ in live}
            if behind or missing:
                # A dominated copy (its update notify was lost) or an
                # advertised replica holding no data: recovery's per-file
                # reconcile propagates the best version to both.
                mismatches += 1
                self.stats.reconciles += 1
                self.site.metrics.count("scrub.reconciles")
                self._flag("reconcile", gfile)
                if recovery is not None:
                    recovery._note_reconcile_needed(gfile)
                continue
            digests = {e["digest"] for __, e in copies
                       if e["has_data"] and not e["attrs"]["deleted"]}
            if len(digests) > 1:
                # Equal version vectors, different bytes: the version
                # system itself was subverted (e.g. a torn install), so no
                # copy can be trusted as "the" best.
                mismatches += 1
                self.stats.digest_skews += 1
                self.site.metrics.count("scrub.digest_skews")
                self._flag("digest_skew", gfile)
                if recovery is None:
                    continue
                if win_attrs["ftype"] in _DIR_TYPES:
                    self.stats.dir_remerges += 1
                    try:
                        yield from recovery._merge_directory(
                            gfile, live, summaries, force=True)
                    except (NetworkError, FsError):
                        pass
                else:
                    yield from recovery._mark_conflict(gfile, live)
                continue
            for s, a in live:
                if s not in win_attrs["storage_sites"]:
                    # Misplaced: the pack stores data the inode no longer
                    # advertises there (a replica drop whose notify was
                    # lost).  The normal notify path returns "already
                    # current" on an equal version, so the retire is
                    # requested explicitly.
                    mismatches += 1
                    self.stats.placement_repairs += 1
                    self.site.metrics.count("scrub.placement_repairs")
                    self._flag("placement", gfile)
                    yield from self.site.oneway_quiet(s, "fs.notify", {
                        "gfile": gfile, "attrs": win_attrs, "pages": None,
                        "origin": self.sid, "_scrub_placement": True})
        mismatches += yield from self._scrub_dangling(gfs, summaries)
        return mismatches

    def _scrub_dangling(self, gfs: int,
                        summaries: Dict[int, Dict[int, dict]]) -> Generator:
        """Remove live directory entries naming an inode no pack holds live
        data for — the classic fsck scrub, run under the directory write
        lock so it serializes with any in-flight modification."""
        fs = self.site.fs
        recovery = self.site.recovery
        if recovery is None:
            return 0
        if not set(fs.mount.pack_sites(gfs)) <= set(summaries):
            # A pack is unreachable: its copies could be the referent.
            return 0
        live: Set[int] = set()
        for summ in summaries.values():
            live |= {ino for ino, e in summ.items()
                     if e["has_data"] and not e["attrs"]["deleted"]}
        removed = 0
        for ino in sorted(live):
            holders: List[Tuple[int, dict]] = [
                (s, summ[ino]) for s, summ in summaries.items()
                if ino in summ and summ[ino]["has_data"]
                and not summ[ino]["attrs"]["deleted"]]
            attrs0 = holders[0][1]["attrs"]
            if attrs0["ftype"] not in _DIR_TYPES:
                continue
            if any(e["attrs"]["conflict"] for __, e in holders) or \
                    any(e["attrs"]["version"] != attrs0["version"]
                        for __, e in holders):
                continue   # divergent copies go through reconcile first
            try:
                data = yield from recovery._read_copy(
                    holders[0][0], (gfs, ino), attrs0)
                entries = decode_entries(data)
            except (NetworkError, FsError, ValueError):
                continue
            for entry in entries:
                if entry.deleted or entry.name in (".", ".."):
                    continue
                if entry.ino in live:
                    continue
                try:
                    yield from fs._dir_modify(
                        (gfs, ino),
                        lambda view, n=entry.name: view.entries.remove(
                            next(e for e in view.entries
                                 if e.name == n and not e.deleted)))
                except (NetworkError, FsError, StopIteration):
                    continue
                removed += 1
                self.stats.dangling_removed += 1
                self.site.metrics.count("scrub.dangling_removed")
                self._flag("dangling", (gfs, entry.ino))
        return removed
