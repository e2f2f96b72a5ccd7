"""The recovery orchestrator: filegroup sweeps, per-type merges, conflict
marking, owner notification, and demand recovery (section 4).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import EEXIST, FsError, NetworkError
from repro.fs.directory import decode_entries, encode_entries
from repro.fs.types import Gfile, Mode
from repro.recovery.dir_merge import merge_directories
from repro.recovery.mailbox import (MailMessage, decode_mailbox,
                                    encode_mailbox, merge_mailboxes)
from repro.storage.inode import FileType
from repro.storage.version_vector import VersionVector, latest


def _same_entries(a, b) -> bool:
    """Entry-set equality, order-independent (merge output is sorted,
    on-disk copies are not)."""
    key = lambda e: (e.name, e.ino, e.ftype, e.deleted,
                     None if e.dvv is None else tuple(sorted(
                         e.dvv.to_dict().items())))
    return sorted(map(key, a)) == sorted(map(key, b))


class RecoveryStats:
    def __init__(self):
        self.files_examined = 0
        self.propagations_scheduled = 0
        self.dir_merges = 0
        self.mailbox_merges = 0
        self.type_manager_merges = 0
        self.conflicts_marked = 0
        self.deletes_undone = 0
        self.name_conflicts = 0
        self.nlink_repairs = 0
        self.mails_sent = 0
        self.retries_scheduled = 0


class RecoveryManager:
    """Runs at the CSS of each filegroup after a merge (section 5.3: "the
    recovery procedure runs as a privileged application program")."""

    def __init__(self, site):
        self.site = site
        self.stats = RecoveryStats()
        # gfs -> inos still awaiting reconciliation (demand recovery pulls
        # individual files forward in the queue, section 4.4).
        self.pending: Dict[int, Set[int]] = {}
        self._sweep_inventories: Dict[int, Dict[int, dict]] = {}
        # Demand reconciliations currently executing: gfile -> completion
        # future.  ``needs`` stays true for these so a writer open racing a
        # mid-flight merge is still refused (the conflict window would
        # otherwise reopen between the pending-discard and the install).
        self._demanding: Dict[Gfile, object] = {}
        # Registered higher-level recovery/merge managers by file type
        # (section 4.3): ftype -> callable(copies) -> merged bytes or None.
        self.merge_managers: Dict[FileType, Callable] = {}
        self._mail_seq = itertools.count(1)

    @property
    def sid(self) -> int:
        return self.site.site_id

    def reset_volatile(self) -> None:
        self.pending.clear()
        self._sweep_inventories.clear()
        self._demanding.clear()

    def on_restart(self) -> None:
        pass

    def register_merge_manager(self, ftype: FileType, fn: Callable) -> None:
        """Install a per-type recovery/merge manager (e.g. for DATABASE
        files); ``fn(copies)`` gets ``[(site, attrs, content_bytes)]`` and
        returns merged bytes, or None to fall back to conflict marking."""
        self.merge_managers[ftype] = fn

    # ------------------------------------------------------------------
    # Sweep scheduling
    # ------------------------------------------------------------------

    def schedule_filegroup(self, gfs: int) -> None:
        self.site.spawn(self._traced_sweep(gfs),
                        name=f"recovery:fg{gfs}@{self.sid}")

    def _traced_sweep(self, gfs: int) -> Generator:
        """Run one recovery sweep under its own root span, bracketed by
        instant events so the pass shows up on the exported timeline."""
        tracer = getattr(self.site, "tracer", None)
        span = prev = None
        if tracer is not None and tracer.enabled:
            tracer.instant("recovery.start", site=self.sid,
                           attrs={"gfs": gfs})
            span, prev = tracer.begin(f"recovery:fg{gfs}", "recovery",
                                      self.sid, inherit=False,
                                      attrs={"gfs": gfs})
        status_label = "ok"
        try:
            result = yield from self.reconcile_filegroup(gfs)
            return result
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            if span is not None:
                tracer.finish(span, prev, status=status_label)
                tracer.instant("recovery.complete", site=self.sid,
                               attrs={"gfs": gfs,
                                      "files_examined":
                                          self.stats.files_examined,
                                      "status": status_label})

    def needs(self, gfile: Gfile) -> bool:
        return (gfile[1] in self.pending.get(gfile[0], ())
                or gfile in self._demanding)

    def demand(self, gfile: Gfile) -> Generator:
        """Demand recovery: reconcile one file out of order so regular
        traffic sees only a small delay (section 4.4)."""
        gfs, ino = gfile
        inflight = self._demanding.get(gfile)
        if inflight is not None:
            # Another access is already reconciling this file; running a
            # second merge concurrently would race the first's install.
            yield inflight
            return None
        if not self.needs(gfile):
            return None
        tracer = getattr(self.site, "tracer", None)
        if tracer is not None and tracer.enabled:
            # The delayed access's span shows why it waited.
            tracer.event_on(tracer.current_ctx(), "demand_recovery",
                            {"gfile": list(gfile)})
        inventories = self._sweep_inventories.get(gfs, {})
        self.pending.get(gfs, set()).discard(ino)
        done = self.site.sim.create_future(f"demand:{gfile}")
        self._demanding[gfile] = done
        try:
            yield from self._reconcile_ino(gfs, ino, inventories)
        finally:
            self._demanding.pop(gfile, None)
            done.resolve(None)
        return None

    def demand_soon(self, gfile: Gfile) -> None:
        """Schedule demand reconciliation without blocking the caller.

        The conflict-window retirement path: the CSS refuses a writer open
        with EWOULDCONFLICT and kicks the merge off here, so the writer's
        supervised retry finds the file reconciled instead of waiting for
        the sweep to reach it."""
        if gfile in self._demanding or not self.needs(gfile):
            return
        self.site.spawn(self.demand(gfile),
                        name=f"demand:{gfile}@{self.sid}")

    # ------------------------------------------------------------------
    # The filegroup sweep
    # ------------------------------------------------------------------

    def reconcile_filegroup(self, gfs: int) -> Generator:
        members = self.site.topology.partition_set if self.site.topology \
            else set(self.site.net.site_ids)
        pack_sites = [s for s in self.site.fs.mount.pack_sites(gfs)
                      if s in members]
        inventories: Dict[int, dict] = {}
        for s in pack_sites:
            try:
                inv = yield from self.site.backstop_rpc(
                    s, "fs.pack_inventory", {"gfs": gfs})
            except (NetworkError, FsError):
                continue
            inventories[s] = inv
        if not inventories:
            return None
        all_inos = set()
        for inv in inventories.values():
            all_inos |= set(inv)
        self._sweep_inventories[gfs] = inventories
        self.pending[gfs] = set(all_inos)
        for ino in sorted(all_inos):
            if ino not in self.pending.get(gfs, ()):
                continue  # demand recovery already handled it
            self.pending[gfs].discard(ino)
            try:
                yield from self._reconcile_ino(gfs, ino, inventories)
            except (NetworkError, FsError):
                # A site vanished, or an install write failed (EIO) while
                # the winner was being put in place.  Dropping the file
                # here would leave its replicas divergent until some
                # unrelated membership change re-sweeps; instead put it on
                # the same bounded deferral schedule the writer-active
                # path uses, with a fresh inventory per attempt.
                self.stats.retries_scheduled += 1
                self.pending.setdefault(gfs, set()).add(ino)
                self._schedule_retry(gfs, ino, attempt=1)
        try:
            yield from self._repair_link_counts(gfs)
        except (NetworkError, FsError):
            pass
        self.pending.pop(gfs, None)
        self._sweep_inventories.pop(gfs, None)
        return None

    def _link_census(self, gfs: int) -> Generator:
        """Count live directory references per inode across the filegroup.

        Returns ``(best, refs, conflicted)`` where ``best`` maps each live
        inode to its latest ``(site, attrs)`` copy, ``refs`` maps inode to
        the number of live entries naming it, and ``conflicted`` maps each
        version-conflicted regular file to its live ``(site, attrs)``
        holders — or None when any directory is unreadable or its copies
        are in version conflict (a partial census could shrink a correct
        nlink).
        """
        members = self.site.topology.partition_set if self.site.topology \
            else set(self.site.net.site_ids)
        inventories: Dict[int, dict] = {}
        for s in self.site.fs.mount.pack_sites(gfs):
            if s not in members:
                continue
            try:
                inventories[s] = yield from self.site.backstop_rpc(
                    s, "fs.pack_inventory", {"gfs": gfs})
            except (NetworkError, FsError):
                continue
        if not inventories:
            return None
        all_inos = set()
        for inv in inventories.values():
            all_inos |= set(inv)
        best: Dict[int, Tuple[int, dict]] = {}
        conflicted: Dict[int, List[Tuple[int, dict]]] = {}
        for ino in all_inos:
            holders = [(s, inv[ino]["attrs"])
                       for s, inv in inventories.items()
                       if ino in inv and inv[ino]["has_data"]]
            live = [(s, a) for s, a in holders if not a["deleted"]]
            if not live:
                continue
            __, best_vv, conflict = latest(
                (s, a["version"]) for s, a in live)
            if conflict or any(a["conflict"] for __, a in live):
                if live[0][1]["ftype"] in (FileType.DIRECTORY,
                                           FileType.HIDDEN_DIR):
                    return None
                conflicted[ino] = live
                continue
            best[ino] = next((s, a) for s, a in live
                             if a["version"] == best_vv)
        refs: Dict[int, int] = {}
        for ino, (s, attrs) in sorted(best.items()):
            if attrs["ftype"] not in (FileType.DIRECTORY,
                                      FileType.HIDDEN_DIR):
                continue
            try:
                data = yield from self._read_copy(s, (gfs, ino), attrs)
                entries = decode_entries(data)
            except (NetworkError, FsError):
                return None
            for entry in entries:
                if entry.deleted or entry.name in (".", ".."):
                    continue
                refs[entry.ino] = refs.get(entry.ino, 0) + 1
        return best, refs, conflicted

    def _repair_link_counts(self, gfs: int) -> Generator:
        """Post-sweep nlink repair.

        Directory merges union inserts and undo deletes (section 4.4
        rules a/d), which changes how many live names reference a file
        without ever opening its inode; a link/unlink that committed the
        entry but lost the count update in a partition leaves the same
        skew.  Recount live references from the reconciled directories
        and fix any regular file whose nlink disagrees — what ``fsck
        -y`` would do, run as part of the merge procedure.
        """
        census = yield from self._link_census(gfs)
        if census is None:
            return None
        best, refs, conflicted = census
        for ino in sorted(best):
            s, attrs = best[ino]
            if attrs["ftype"] is not FileType.REGULAR or attrs["conflict"]:
                continue
            n = refs.get(ino, 0)
            if n == 0 or n == attrs["nlink"]:
                continue  # orphans are fsck's report, not a repair target
            try:
                yield from self._repair_one_nlink(gfs, ino)
            except (NetworkError, FsError):
                pass
        for ino in sorted(conflicted):
            # A conflicted file cannot go through the locked open/commit
            # repair path (normal opens refuse, and a commit would stamp a
            # new version over the divergent copies).  Its live names are
            # still real: directory merges union inserts and undo deletes
            # regardless of the file's own conflict.  Patch the count in
            # place on every holder, version vectors untouched, the same
            # way the conflict flag itself is applied.
            if any(a["ftype"] is not FileType.REGULAR
                   for __, a in conflicted[ino]):
                continue
            n = refs.get(ino, 0)
            if n == 0:
                continue
            for s, attrs in conflicted[ino]:
                if attrs["nlink"] == n:
                    continue
                self.stats.nlink_repairs += 1
                payload = {"gfile": (gfs, ino), "nlink": n}
                if s == self.sid:
                    yield from self.site.fs.h_patch_nlink(self.sid, payload)
                else:
                    yield from self.site.oneway_quiet(
                        s, "fs.patch_nlink", payload)
        return None

    def _repair_one_nlink(self, gfs: int, ino: int) -> Generator:
        """Fix one file's link count under its CSS write lock.

        A bare install races in-flight writers: a commit opened while
        the census ran would overwrite the repaired count.  Taking the
        normal open-for-modification lock serializes the repair with any
        writer, and the recount under the lock sees the final entry set.
        """
        fs = self.site.fs
        handle = yield from fs._open_write_retry((gfs, ino))
        try:
            census = yield from self._link_census(gfs)
            if census is None:
                return None
            __, refs, __ = census
            n = refs.get(ino, 0)
            if n and n != handle.attrs["nlink"]:
                self.stats.nlink_repairs += 1
                yield from fs.set_attrs(handle, nlink=n)
        finally:
            yield from fs.close(handle)
        return None

    # ------------------------------------------------------------------
    # Per-file reconciliation
    # ------------------------------------------------------------------

    def _reconcile_ino(self, gfs: int, ino: int,
                       inventories: Dict[int, dict],
                       attempt: int = 0) -> Generator:
        self.stats.files_examined += 1
        gfile: Gfile = (gfs, ino)
        entry = self.site.fs.css_entries.get(gfile)
        if entry is not None and entry.writer is not None and attempt < 10:
            # An operation in progress: "the desired action is to permit
            # these operations to continue to completion, and only then
            # perform file system conflict analysis" (section 5.6).
            self.pending.setdefault(gfs, set()).add(ino)
            self._schedule_retry(gfs, ino, attempt + 1)
            return None
        holders: List[Tuple[int, dict]] = []
        for s, inv in inventories.items():
            entry = inv.get(ino)
            if entry is not None and entry["has_data"]:
                holders.append((s, entry["attrs"]))
        if not holders:
            return None
        __, best_vv, conflict = latest(
            (s, attrs["version"]) for s, attrs in holders)
        all_equal = all(a["version"] == best_vv for __, a in holders)
        live = [(s, a) for s, a in holders if not a["deleted"]]
        dead = [(s, a) for s, a in holders if a["deleted"]]
        ftype = holders[0][1]["ftype"]
        if conflict and dead and live:
            # "A file which was deleted in one partition while it was
            # modified in another, wants to be saved": undo the delete.
            self.stats.deletes_undone += 1
            yield from self._install_winner(gfile, live, holders,
                                            content=None)
            return None
        if ftype in (FileType.DIRECTORY, FileType.HIDDEN_DIR) \
                and not all_equal and live:
            # Directories always go through the merge rules: even a
            # strictly-newer copy's tombstones must be checked against
            # "modified since the delete" (section 4.4 rule b/d).
            yield from self._merge_directory(gfile, live, inventories)
            return None
        if not conflict:
            yield from self._propagate_best(gfile, holders, best_vv)
            return None
        # Mutually inconsistent copies: dispatch by type (section 4.3).
        if ftype is FileType.MAILBOX:
            yield from self._merge_mailbox(gfile, live or holders)
        elif ftype in self.merge_managers:
            yield from self._merge_via_manager(gfile, live or holders, ftype)
        else:
            yield from self._mark_conflict(gfile, holders)
        return None

    def note_stale_sweep(self, gfile: Gfile) -> None:
        """A holder answered a sweep notify with a strictly newer version:
        the sweep's inventory snapshot went stale mid-run (a commit landed
        between the inventory and the propagation).  Re-reconcile the file
        against fresh inventories so every behind copy learns the real
        best, not just the site the answer reached."""
        self._note_reconcile_needed(gfile)

    def note_divergent_notify(self, gfile: Gfile) -> None:
        """A commit notify carried a version concurrent with the local
        copy: two lineages exist (e.g. a merge result raced a writer that
        was already in flight when the merge ran).  Neither side can be
        pulled without losing the other, so re-run full reconciliation —
        the merge machinery folds both lineages into one dominating
        version, or marks the file in conflict."""
        self._note_reconcile_needed(gfile)

    def _note_reconcile_needed(self, gfile: Gfile) -> None:
        gfs, ino = gfile
        if ino in self.pending.get(gfs, set()):
            return                       # a deferred reconcile is queued
        self.stats.retries_scheduled += 1
        self.pending.setdefault(gfs, set()).add(ino)
        self._schedule_retry(gfs, ino, attempt=1)

    def _schedule_retry(self, gfs: int, ino: int, attempt: int) -> None:
        """Queue a deferred single-file reconciliation attempt."""
        def _retry():
            self.site.spawn(self._retry_ino(gfs, ino, attempt),
                            name=f"recovery-retry:{gfs}:{ino}")

        self.site.sim.schedule(30.0 * attempt, _retry)

    def _retry_ino(self, gfs: int, ino: int, attempt: int) -> Generator:
        """Re-inventory one file and reconcile it (deferred recovery)."""
        members = self.site.topology.partition_set if self.site.topology \
            else set(self.site.net.site_ids)
        inventories: Dict[int, dict] = {}
        for s in self.site.fs.mount.pack_sites(gfs):
            if s not in members:
                continue
            try:
                inventories[s] = yield from self.site.backstop_rpc(
                    s, "fs.pack_inventory", {"gfs": gfs})
            except (NetworkError, FsError):
                continue
        self.pending.get(gfs, set()).discard(ino)
        try:
            yield from self._reconcile_ino(gfs, ino, inventories,
                                           attempt=attempt)
        except (NetworkError, FsError):
            if attempt < 10:
                self.stats.retries_scheduled += 1
                self.pending.setdefault(gfs, set()).add(ino)
                self._schedule_retry(gfs, ino, attempt + 1)
            return None
        # A deferred directory merge can resurrect entries after the
        # sweep's link-count pass already ran; recount once more.
        try:
            yield from self._repair_link_counts(gfs)
        except (NetworkError, FsError):
            pass
        return None

    def _propagate_best(self, gfile: Gfile, holders: List[Tuple[int, dict]],
                        best_vv: VersionVector) -> Generator:
        winners = [(s, a) for s, a in holders if a["version"] == best_vv]
        if not winners:
            return None
        win_site, win_attrs = winners[0]
        current = {s for s, a in holders if a["version"] == best_vv}
        behind = {s for s, __ in holders} - current
        # Advertised storage sites holding no data yet (e.g. replicas of a
        # file created while they were in the other partition) must be
        # seeded too.
        if not win_attrs["deleted"]:
            behind |= set(win_attrs["storage_sites"]) - current
        if not behind:
            return None
        self.stats.propagations_scheduled += len(behind)
        monitor = self.site.convergence
        if monitor is not None and monitor.enabled:
            monitor.note_repair("propagate", site=self.site.site_id,
                                gfile=gfile)
        # _recovery marks a sweep-driven notify (header-riding, zero wire
        # size): a receiver whose copy strictly supersedes win_attrs
        # answers with its own attributes instead of silently dropping the
        # stale push, so a commit that raced the inventory snapshot still
        # converges (note_stale_sweep below).
        payload = {"gfile": gfile, "attrs": win_attrs, "pages": None,
                   "origin": win_site, "_recovery": True}
        for s in sorted(behind):
            yield from self.site.oneway_quiet(s, "fs.notify", payload)
        return None

    # ------------------------------------------------------------------
    # Reading raw copies (bypassing CSS and conflict checks)
    # ------------------------------------------------------------------

    def _read_copy(self, source: int, gfile: Gfile,
                   attrs: dict) -> Generator:
        psz = self.site.cost.page_size
        n_pages = (attrs["size"] + psz - 1) // psz
        chunks = []
        for page in range(n_pages):
            data = yield from self.site.backstop_rpc(
                source, "fs.pull_read", {"gfile": gfile, "page": page})
            chunks.append(data.ljust(psz, b"\x00"))
        return b"".join(chunks)[:attrs["size"]]

    # ------------------------------------------------------------------
    # Type-specific merges
    # ------------------------------------------------------------------

    def _merge_directory(self, gfile: Gfile,
                         holders: List[Tuple[int, dict]],
                         inventories: Dict[int, dict],
                         force: bool = False) -> Generator:
        copies = []
        owners = {}
        for s, attrs in holders:
            for attempt in range(3):
                data = yield from self._read_copy(s, gfile, attrs)
                try:
                    entries = decode_entries(data)
                    break
                except ValueError:
                    # Torn read: a live writer committed between the
                    # inventory snapshot and the page pulls, so the
                    # snapshot size sliced mid-record.  Re-fetch the
                    # inode and read again.
                    yield 5.0 * (attempt + 1)
                    try:
                        attrs = yield from self.site.backstop_rpc(
                            s, "fs.fetch_attrs", {"gfile": gfile})
                    except (NetworkError, FsError):
                        pass
            else:
                # Never stabilized: surface as transient so the caller
                # (a supervised open, or the deferred-retry sweep)
                # reschedules the whole reconcile instead of merging
                # from garbage.
                raise NetworkError(
                    f"directory copy of {gfile} at site {s} unstable")
            copies.append(entries)
            owners[s] = attrs["owner"]

        def file_version(ino: int) -> Optional[VersionVector]:
            vvs = []
            for inv in inventories.values():
                entry = inv.get(ino)
                if entry is not None and entry["has_data"] \
                        and not entry["attrs"]["deleted"]:
                    vvs.append(entry["attrs"]["version"])
            if not vvs:
                return None
            out = vvs[0]
            for vv in vvs[1:]:
                out = out.merge(vv)
            return out

        merged, report = merge_directories(copies, file_version)
        self.stats.dir_merges += 1
        self.stats.name_conflicts += len(report.name_conflicts)
        # When one copy dominates and the merge changed nothing relative to
        # it (no rule-d resurrection, no name aliasing), installing would
        # only mint a gratuitous new lineage — one that races any writer
        # already in flight against the dominant copy.  Propagate instead.
        # ``force`` (the scrub's equal-vv digest-skew repair) skips the
        # shortcut: the copies' bytes differ even though their vectors
        # agree, so only a fresh dominating install re-unifies them.
        __, best_vv, conflict = latest(
            (s, a["version"]) for s, a in holders)
        if not conflict and not force:
            for (s, attrs), entries in zip(holders, copies):
                if attrs["version"] != best_vv:
                    continue
                if _same_entries(merged, entries):
                    yield from self._propagate_best(gfile, holders, best_vv)
                    return None
                break
        yield from self._install_winner(gfile, holders, holders,
                                        content=encode_entries(merged))
        for name, ino_a, ino_b in report.name_conflicts:
            for ino in (ino_a, ino_b):
                owner = self._owner_of(gfile[0], ino, inventories)
                yield from self.send_mail(
                    owner, subject=f"name conflict on {name!r}",
                    body=(f"Directory merge found {name!r} bound to two "
                          f"different files; yours is now "
                          f"{name}@{ino}."))
        return None

    def _owner_of(self, gfs: int, ino: int,
                  inventories: Dict[int, dict]) -> str:
        for inv in inventories.values():
            entry = inv.get(ino)
            if entry is not None:
                return entry["attrs"]["owner"]
        return "root"

    def _merge_mailbox(self, gfile: Gfile,
                       holders: List[Tuple[int, dict]]) -> Generator:
        copies = []
        for s, attrs in holders:
            data = yield from self._read_copy(s, gfile, attrs)
            copies.append(decode_mailbox(data))
        merged = merge_mailboxes(copies)
        self.stats.mailbox_merges += 1
        yield from self._install_winner(gfile, holders, holders,
                                        content=encode_mailbox(merged))
        return None

    def _merge_via_manager(self, gfile: Gfile,
                           holders: List[Tuple[int, dict]],
                           ftype: FileType) -> Generator:
        triples = []
        for s, attrs in holders:
            data = yield from self._read_copy(s, gfile, attrs)
            triples.append((s, attrs, data))
        merged = self.merge_managers[ftype](triples)
        if merged is None:
            yield from self._mark_conflict(gfile, holders)
            return None
        self.stats.type_manager_merges += 1
        yield from self._install_winner(gfile, holders, holders,
                                        content=merged)
        return None

    # ------------------------------------------------------------------
    # Installing merge results
    # ------------------------------------------------------------------

    def _install_winner(self, gfile: Gfile,
                        winners: List[Tuple[int, dict]],
                        all_holders: List[Tuple[int, dict]],
                        content: Optional[bytes]) -> Generator:
        """Write the reconciled version at one site with a vector that
        dominates every copy; normal propagation distributes it."""
        merged_vv = VersionVector()
        for __, attrs in all_holders:
            merged_vv = merged_vv.merge(attrs["version"])
        target_site, target_attrs = winners[0]
        if content is None:
            content = yield from self._read_copy(target_site, gfile,
                                                 target_attrs)
        yield from self.site.rpc(target_site, "fs.install_merged", {
            "gfile": gfile,
            "data": content,
            "base_vv": merged_vv,
            "ftype": target_attrs["ftype"],
            "owner": target_attrs["owner"],
            "perms": target_attrs["perms"],
            "nlink": max(1, target_attrs["nlink"]),
            "storage_sites": sorted(
                set(itertools.chain.from_iterable(
                    a["storage_sites"] for __, a in all_holders))),
        })
        return None

    # ------------------------------------------------------------------
    # Untyped conflicts (section 4.6)
    # ------------------------------------------------------------------

    def _mark_conflict(self, gfile: Gfile,
                       holders: List[Tuple[int, dict]]) -> Generator:
        self.stats.conflicts_marked += 1
        monitor = self.site.convergence
        if monitor is not None and monitor.enabled:
            monitor.note_repair("mark_conflict", site=self.site.site_id,
                                gfile=gfile)
        for s, __ in holders:
            yield from self.site.oneway_quiet(s, "fs.mark_conflict",
                                              {"gfile": gfile})
        owner = holders[0][1]["owner"]
        yield from self.send_mail(
            owner, subject=f"update conflict on file {gfile}",
            body=("The file was updated independently in different "
                  "partitions.  Normal access attempts will fail; use "
                  "split_conflict or resolve_conflict to reconcile."))
        return None

    def resolve_conflict(self, gfile: Gfile, keep_site: int) -> Generator:
        """User tool: declare one site's copy the winner."""
        inv = {}
        for s in self.site.fs.mount.pack_sites(gfile[0]):
            try:
                inv[s] = yield from self.site.backstop_rpc(
                    s, "fs.pack_inventory", {"gfs": gfile[0]})
            except (NetworkError, FsError):
                continue
        holders = [(s, e[gfile[1]]["attrs"]) for s, e in inv.items()
                   if gfile[1] in e and e[gfile[1]]["has_data"]]
        winner = [(s, a) for s, a in holders if s == keep_site]
        if not winner:
            raise FsError(f"site {keep_site} stores no copy of {gfile}")
        yield from self._install_winner(gfile, winner, holders, content=None)
        return None

    def split_conflict(self, proc, path: str) -> Generator:
        """User tool (section 4.6): rename each version of a conflicted file
        into a separate normal file; returns the new names."""
        fs = self.site.fs
        gfile, __ = yield from fs.resolve_gfile(proc, path)
        parent, name, __ = yield from fs.walk(proc, path,
                                              follow_leaf_hidden=False)
        inv = {}
        for s in fs.mount.pack_sites(gfile[0]):
            try:
                inv[s] = yield from self.site.backstop_rpc(
                    s, "fs.pack_inventory", {"gfs": gfile[0]})
            except (NetworkError, FsError):
                continue
        seen_versions = {}
        for s, entries in inv.items():
            entry = entries.get(gfile[1])
            if entry is None or not entry["has_data"]:
                continue
            seen_versions.setdefault(entry["attrs"]["version"],
                                     (s, entry["attrs"]))
        new_names = []
        for vv, (s, attrs) in seen_versions.items():
            data = yield from self._read_copy(s, gfile, attrs)
            new_name = f"{path}@site{s}"
            fd_gfile, __ = yield from fs.create_file(proc, new_name,
                                                     exclusive=True)
            handle = yield from fs.open_gfile(fd_gfile, Mode.WRITE)
            try:
                if data:
                    yield from fs.write(handle, 0, data)
            finally:
                yield from fs.close(handle)
            new_names.append(new_name)
        # Remove the conflicted original.
        yield from fs.unlink(proc, path)
        return new_names

    # ------------------------------------------------------------------
    # Electronic mail (the notification channel of sections 4.4-4.6)
    # ------------------------------------------------------------------

    def send_mail(self, owner: str, subject: str, body: str) -> Generator:
        fs = self.site.fs
        self.stats.mails_sent += 1
        try:
            yield from fs.mkdir(None, "/mail")
        except EEXIST:
            pass
        path = f"/mail/{owner}"
        gfile, __ = yield from fs.create_file(None, path,
                                              ftype=FileType.MAILBOX)
        handle = yield from fs.open_gfile(gfile, Mode.WRITE)
        try:
            data = yield from fs.read(handle, 0, handle.size)
            messages = decode_mailbox(data)
            messages.append(MailMessage(
                msg_id=f"{self.sid}-{int(self.site.sim.now * 1000)}-"
                       f"{next(self._mail_seq)}",
                sender="recovery-daemon",
                subject=subject, body=body,
                stamp=self.site.sim.now))
            yield from fs.truncate(handle)
            yield from fs.write(handle, 0, encode_mailbox(messages))
        finally:
            yield from fs.close(handle)
        return None

    def delete_mail(self, owner: str, msg_id: str) -> Generator:
        """Mark one message deleted (a tombstone, so partition merges never
        resurrect read-and-deleted mail, section 4.5)."""
        fs = self.site.fs
        gfile, __ = yield from fs.resolve_gfile(None, f"/mail/{owner}")
        handle = yield from fs.open_gfile(gfile, Mode.WRITE)
        try:
            data = yield from fs.read(handle, 0, handle.size)
            messages = decode_mailbox(data)
            for message in messages:
                if message.msg_id == msg_id:
                    message.deleted = True
            yield from fs.truncate(handle)
            yield from fs.write(handle, 0, encode_mailbox(messages))
        finally:
            yield from fs.close(handle)
        return None

    def read_mail(self, owner: str) -> Generator:
        """Convenience for tests/examples: the owner's mailbox contents."""
        fs = self.site.fs
        try:
            gfile, __ = yield from fs.resolve_gfile(None, f"/mail/{owner}")
        except FsError:
            return []
        handle = yield from fs.open_gfile(gfile, Mode.READ)
        try:
            data = yield from fs.read(handle, 0, handle.size)
        finally:
            yield from fs.close(handle)
        return [m for m in decode_mailbox(data) if not m.deleted]
