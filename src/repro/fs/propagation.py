"""Pull-based update propagation (paper section 2.3.6).

"A queue of propagation requests is kept by the kernel at each site and a
kernel process services the queue.  Propagation is done by 'pulling' the
data ...  When each page arrives, the buffer that contains it is renamed and
sent out to secondary storage ...  Note also that this propagation-in
procedure uses the standard commit mechanism, so if contact is lost with the
site containing the newer version, the local site is still left with a
coherent, complete copy of the file, albeit still out of date."

With ``CostModel.pull_manifest`` on, a backlog of queued requests (a
recovery sweep after a partition heal sends one ``fs.notify`` per behind
file) is serviced as a batch: one ``fs.pull_manifest`` RPC per source
replaces that source's per-file ``fs.pull_open`` round trips, and up to
``pull_pipeline`` per-file pulls run concurrently.  Any file the manifest
cannot vouch for falls back to the paper's per-file protocol, and every
pull still installs through the standard shadow-page commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.errors import EIO, FsError, NetworkError
from repro.fs.types import Gfile
from repro.sim.sync import SimQueue
from repro.storage.shadow import ShadowFile
from repro.storage.version_vector import VersionVector

_ATTR_FIELDS = ("size", "owner", "perms", "nlink", "ftype",
                "storage_sites", "mtime", "conflict")

_MAX_DEFERRALS = 20
_DEFER_DELAY = 25.0
_VALIDATE_AFTER = 5   # deferrals before probing for a leaked SS handle


@dataclass
class PropStats:
    pulls: int = 0
    pages_pulled: int = 0
    delta_pulls: int = 0
    full_pulls: int = 0
    skipped: int = 0
    deferred: int = 0
    failed: int = 0
    range_requests: int = 0     # batched fs.pull_read_range messages issued
    pipelined_rounds: int = 0   # rounds with >1 range request in flight
    manifest_requests: int = 0  # fs.pull_manifest RPCs issued
    manifest_hits: int = 0      # per-file fs.pull_open round trips avoided
    sync_waits: int = 0         # sequential round-trip waits in the pull path


@dataclass
class _Request:
    gfile: Gfile
    attrs: dict
    pages: Optional[List[int]]    # None forces a full pull
    hint: int                     # site that announced the new version
    deferrals: int = 0


class Propagator:
    """Per-site kernel process that brings local copies up to date."""

    def __init__(self, fs):
        self.fs = fs
        self.site = fs.site
        self.queue = SimQueue(self.site.sim,
                              name=f"prop@{self.site.site_id}")
        self._pending: Set[Gfile] = set()
        # Replication-lag accounting (ISSUE 10): first-enqueue vtime per
        # pending file.  Pure bookkeeping — read by the load gauges and a
        # metrics histogram, never by the pull protocol itself.
        self._enqueued: Dict[Gfile, float] = {}
        # Files whose pull is in flight right now: storage-site opens must
        # not snapshot the pack mid-pull (they would later commit over it).
        self._pulling: Set[Gfile] = set()
        self._task = None
        self.stats = PropStats()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._task is None or self._task.finished:
            self._task = self.site.spawn(self._run(),
                                         name=f"propagator@{self.site.site_id}")

    def reset(self) -> None:
        """Crash: queued requests are volatile (recovery re-derives them).

        The queue is recreated: the dead kernel process may have left a
        stale getter registered, which would otherwise swallow the first
        request enqueued after restart.
        """
        self.queue = SimQueue(self.site.sim,
                              name=f"prop@{self.site.site_id}")
        self._pending.clear()
        self._enqueued.clear()
        self._pulling.clear()   # in-flight pull tasks died with the site
        self._task = None

    def is_pending(self, gfile: Gfile) -> bool:
        return gfile in self._pending

    def pending(self) -> List[Gfile]:
        """Files queued (or mid-pull) for propagation, sorted — the public
        accessor used by inspection and the metrics registry."""
        return sorted(self._pending)

    def is_pulling(self, gfile: Gfile) -> bool:
        return gfile in self._pulling

    @property
    def idle(self) -> bool:
        return not self._pending

    # -- replication-lag accounting (ISSUE 10) ------------------------------

    def lag_ages(self) -> List[float]:
        """Replication lag of each still-pending file: virtual time since
        its first enqueue, in pending-set order (sorted by gfile)."""
        now = self.site.sim.now
        return [round(now - self._enqueued[g], 6)
                for g in sorted(self._pending) if g in self._enqueued]

    def _retire(self, gfile: Gfile, outcome: str) -> None:
        """A request left the pending set.  ``pulled`` / ``skipped`` /
        ``failed`` are terminal: the enqueue timestamp is dropped, and a
        completed pull records its replication lag (first-enqueue vtime →
        committed vtime).  ``requeued`` keeps the timestamp so the
        eventual pull measures the full lag."""
        self._pending.discard(gfile)
        if outcome == "requeued":
            return
        enqueued = self._enqueued.pop(gfile, None)
        if outcome == "pulled" and enqueued is not None \
                and self.site.cost.load_accounting:
            self.site.metrics.observe("prop.lag",
                                      self.site.sim.now - enqueued)

    # -- intake -------------------------------------------------------------

    def enqueue(self, gfile: Gfile, attrs: dict,
                pages: Optional[List[int]], hint: int) -> None:
        if gfile not in self._pending:
            self._enqueued[gfile] = self.site.sim.now
        self._pending.add(gfile)
        self.queue.put(_Request(gfile=gfile, attrs=attrs,
                                pages=pages, hint=hint))
        self.start()

    # -- the kernel process ----------------------------------------------------

    def _run(self) -> Generator:
        while True:
            req = yield from self.queue.get()
            if self.fs.cost.pull_manifest and len(self.queue):
                batch = [req] + self.queue.drain()
                yield from self._service_batch(batch)
                continue
            yield from self._service_one(req)

    def _service_one(self, req: _Request) -> Generator:
        try:
            yield from self._service(req)
        except (NetworkError, EIO):
            # EIO here is a *physical write* failure installing pulled
            # pages: the shadow already rolled back to the coherent old
            # copy.  Dropping the request would strand this replica stale
            # forever (no later membership change re-derives it), so a
            # transient disk fault gets the same bounded retry as contact
            # loss.
            self._retry_later(req)
        except FsError:
            self.stats.failed += 1
            self._pulling.discard(req.gfile)
            self._retire(req.gfile, "failed")
            self._retire_placeholder(req.gfile)

    def _retry_later(self, req: _Request) -> None:
        """Contact lost mid-pull: the shadow mechanism already left a
        coherent old copy.  Retry later — the source (or another holder)
        may come back; the recovery sweep also covers us at the next
        membership change."""
        self.stats.failed += 1
        self._pulling.discard(req.gfile)
        req.deferrals += 1
        if req.deferrals <= _MAX_DEFERRALS:
            self.site.sim.schedule(_DEFER_DELAY * req.deferrals,
                                   self.queue.put, req)
        else:
            self._retire(req.gfile, "failed")
            self._retire_placeholder(req.gfile)

    def _retire_placeholder(self, gfile: Gfile) -> None:
        """A pull permanently given up must not strand an empty-vv
        placeholder inode.

        A recovery notify can install an inode entry ahead of the data it
        advertises; if every source then vanishes, the placeholder has no
        pages, no committed history (empty version vector) and no
        directory entry pointing at it — fsck counts it as an orphan and
        an anti-entropy scrub would try to spread it.  Only such
        never-filled placeholders are retired; any copy with committed
        history stays, coherent and merely out of date."""
        fs = self.fs
        if gfile in fs.ss:
            return
        pack = fs.local_pack(gfile[0])
        inode = pack.get_inode(gfile[1]) if pack else None
        if inode is None or inode.has_data or inode.pages:
            return
        if inode.version.total() != 0:
            return
        pack.inodes.pop(gfile[1], None)
        self.site.cache.invalidate_file(*gfile)

    def _defer(self, req: _Request) -> None:
        """The file is busy locally; retry once the activity drains."""
        req.deferrals += 1
        self.stats.deferred += 1
        if req.deferrals == _VALIDATE_AFTER:
            # A genuinely active open drains in a couple of delays; one
            # stuck this long is likely a leaked SS registration (its
            # fs.close lost in a burst — nothing else collects it while
            # membership holds).  Ask each registered US whether it still
            # has the file open and drop the dead registrations.
            self.site.spawn(self.fs.validate_ss_entry(req.gfile),
                            name=f"ss-validate:{req.gfile}")
        if req.deferrals <= _MAX_DEFERRALS:
            self.site.sim.schedule(_DEFER_DELAY, self.queue.put, req)
        else:
            self._retire(req.gfile, "failed")

    def _precheck(self, req: _Request) -> str:
        """'skip' (nothing to pull into), 'defer' (busy locally), or
        'pull'."""
        fs = self.fs
        gfile = req.gfile
        pack = fs.local_pack(gfile[0])
        inode = pack.get_inode(gfile[1]) if pack else None
        if inode is None:
            return "skip"
        if (inode.deleted or not inode.has_data) and \
                self.site.site_id not in req.attrs["storage_sites"]:
            # Not a resurrection target; nothing to pull into.
            return "skip"
        target_vv: VersionVector = req.attrs["version"]
        if inode.version.dominates(target_vv):
            return "skip"
        if inode.version.conflicts(target_vv):
            # Divergent histories cannot be propagated over; recovery's
            # type-specific merge handles this (section 4).
            return "skip"
        if gfile in fs.ss:
            # The file is open locally; retry once the activity drains.
            return "defer"
        return "pull"

    def _service(self, req: _Request) -> Generator:
        verdict = self._precheck(req)
        if verdict == "skip":
            self.stats.skipped += 1
            self._retire(req.gfile, "skipped")
            return None
        if verdict == "defer":
            self._defer(req)
            return None
        pack = self.fs.local_pack(req.gfile[0])
        before = self.stats.pulls
        yield from self._pull(req, pack, pack.get_inode(req.gfile[1]).version)
        self._retire(req.gfile,
                     "pulled" if self.stats.pulls > before else "requeued")
        return None

    # -- manifest batch service (CostModel.pull_manifest) ------------------

    def _service_batch(self, batch: List[_Request]) -> Generator:
        """Service a drained queue backlog with one ``fs.pull_manifest``
        round trip per source site and up to ``pull_pipeline`` per-file
        pulls in flight.  Each file keeps the serial path's retry/defer
        policy; only the round-trip count changes."""
        pull: List[_Request] = []
        chosen: Dict[Gfile, _Request] = {}
        for req in batch:
            verdict = self._precheck(req)
            if verdict == "skip":
                self.stats.skipped += 1
                self._retire(req.gfile, "skipped")
            elif verdict == "defer":
                self._defer(req)
            else:
                prev = chosen.get(req.gfile)
                if prev is None:
                    chosen[req.gfile] = req
                    pull.append(req)
                elif req.attrs["version"].dominates(prev.attrs["version"]):
                    # Duplicate notifies for one file: pull the newest
                    # announced version once, not the file twice at once.
                    pull[pull.index(prev)] = req
                    chosen[req.gfile] = req
                else:
                    self.stats.skipped += 1
        if not pull:
            return None
        by_hint: Dict[int, List[_Request]] = {}
        for req in pull:
            by_hint.setdefault(req.hint, []).append(req)
        manifests: Dict[int, Dict[Gfile, dict]] = {}
        for hint in sorted(by_hint):
            self.stats.manifest_requests += 1
            self.stats.sync_waits += 1
            try:
                resp = yield from self.site.backstop_rpc(
                    hint, "fs.pull_manifest",
                    {"gfiles": [r.gfile for r in by_hint[hint]]})
            except (FsError, NetworkError):
                continue   # per-file fs.pull_open fallback below
            manifests[hint] = resp["files"]
        depth = max(1, self.fs.cost.pull_pipeline)
        for i in range(0, len(pull), depth):
            wave = pull[i:i + depth]
            tasks = [self.site.spawn(
                self._pull_task(req, manifests.get(req.hint, {})),
                name=f"manifestpull:{req.gfile}") for req in wave]
            rounds = yield self.site.sim.gather([t.done for t in tasks],
                                                label="manifestwave")
            # The wave's pulls run concurrently: its critical path is the
            # *deepest* member's sequential round count, not their sum.
            self.stats.sync_waits += max(
                [r for r in rounds if r] + [1])
        return None

    def _pull_task(self, req: _Request,
                   manifest: Dict[Gfile, dict]) -> Generator:
        """One file's pull inside a manifest wave, wrapped in the same
        error policy the serial kernel process applies.  Returns the
        number of sequential round-trip waits the pull performed, so the
        wave accounting above can take the max across the wave."""
        source = None
        attrs = manifest.get(req.gfile)
        if attrs is not None and attrs["version"].dominates(
                req.attrs["version"]):
            source = (req.hint, attrs)
            self.stats.manifest_hits += 1
        waits = [0]
        try:
            pack = self.fs.local_pack(req.gfile[0])
            inode = pack.get_inode(req.gfile[1]) if pack else None
            if inode is None:
                self.stats.skipped += 1
                self._retire(req.gfile, "skipped")
                return waits[0]
            before = self.stats.pulls
            yield from self._pull(req, pack, inode.version,
                                  manifest_source=source, waits=waits)
            self._retire(req.gfile, "pulled" if self.stats.pulls > before
                         else "requeued")
        except (NetworkError, EIO):
            # Same policy as _service_one: a transient disk-write fault
            # must not permanently abandon convergence.
            self._retry_later(req)
        except FsError:
            self.stats.failed += 1
            self._pulling.discard(req.gfile)
            self._retire(req.gfile, "failed")
            self._retire_placeholder(req.gfile)
        return waits[0]

    # -- the pull itself ----------------------------------------------------

    def _count_wait(self, waits: Optional[List[int]]) -> None:
        """One sequential round-trip wait.  Serial pulls count straight
        into the stats; pulls inside a manifest wave accumulate into the
        wave's ``waits`` sink, which the wave reduces with ``max`` (its
        members wait concurrently, not back to back)."""
        if waits is None:
            self.stats.sync_waits += 1
        else:
            waits[0] += 1

    def _pull(self, req: _Request, pack, local_vv: VersionVector,
              manifest_source: Optional[Tuple[int, dict]] = None,
              waits: Optional[List[int]] = None) -> Generator:
        """Internally open the file at a site with the latest version and
        page the changes (or the whole file) across."""
        fs = self.fs
        gfile = req.gfile
        if manifest_source is not None:
            # The manifest already vouched for the source's version: the
            # per-file fs.pull_open round trip is unnecessary.
            source, remote_attrs = manifest_source
        else:
            source, remote_attrs = yield from self._open_source(req, waits)
        target_vv = remote_attrs["version"]
        if local_vv.dominates(target_vv):
            self.stats.skipped += 1
            return None

        # Delta pull is only sound when the remote version is exactly one
        # commit (originated at the announcing site) ahead of our copy, and
        # the file did not shrink (shrinks need the page list rebuilt).
        psz = fs.cost.page_size
        n_pages = (remote_attrs["size"] + psz - 1) // psz
        local_inode = pack.get_inode(req.gfile[1])
        delta_ok = (fs.cost.delta_propagation
                    and req.pages is not None
                    and remote_attrs["version"] == req.attrs["version"]
                    and target_vv == local_vv.bump(req.hint)
                    and local_inode is not None
                    and not local_inode.deleted
                    and local_inode.has_data
                    and n_pages >= len(local_inode.pages))
        pull_pages = (sorted(p for p in req.pages if p < n_pages)
                      if delta_ok else list(range(n_pages)))
        if delta_ok:
            self.stats.delta_pulls += 1
        else:
            self.stats.full_pulls += 1

        shadow = ShadowFile(pack, gfile[1])
        self._pulling.add(gfile)
        try:
            if not delta_ok:
                shadow.truncate()
            yield from self._pull_pages(source, gfile, pull_pages, shadow,
                                        waits)
            if gfile in fs.ss:
                # A local open slipped in before the pull gate existed (or
                # via an unsynchronized path): committing now would be
                # clobbered by that open's stale shadow.  Defer instead.
                shadow.abort()
                req.deferrals += 1
                self.stats.deferred += 1
                if req.deferrals <= _MAX_DEFERRALS:
                    self._pending.add(gfile)
                    self.site.sim.schedule(_DEFER_DELAY, self.queue.put, req)
                return None
            shadow.set_attrs(**{k: remote_attrs[k] for k in _ATTR_FIELDS})
            # Pulling a live version resurrects a locally-tombstoned copy
            # (the undo-delete of section 4.4 rule d).
            shadow.set_attrs(deleted=False, has_data=True)
            shadow.commit(new_version=target_vv.copy(),
                          mtime=remote_attrs["mtime"])
        except BaseException:
            shadow.abort()   # coherent, complete, out-of-date copy remains
            raise
        finally:
            self._pulling.discard(gfile)
        self.site.cache.invalidate_file(*gfile)
        self.stats.pulls += 1
        return None

    def _pull_pages(self, source: int, gfile: Gfile, pages: List[int],
                    shadow: ShadowFile,
                    waits: Optional[List[int]] = None) -> Generator:
        """Page the data across from ``source`` into ``shadow``.

        The paper's protocol is one ``fs.pull_read`` round trip per page.
        With ``batch_pages`` > 1 the pages travel in ``fs.pull_read_range``
        chunks, and with ``pull_pipeline`` > 1 several chunk requests are
        kept in flight at once — the source reads the next chunk off its
        disk while earlier ones are on the wire.  Pages are still written
        to secondary storage here in file order, so the shadow-commit
        invariant (a coherent copy survives any failure) is untouched.
        """
        fs = self.fs
        batch = max(1, fs.cost.batch_pages)
        depth = max(1, fs.cost.pull_pipeline)
        if batch == 1 and depth == 1:
            for page in pages:
                self._count_wait(waits)
                data = yield from self.site.backstop_rpc(
                    source, "fs.pull_read", {"gfile": gfile, "page": page})
                shadow.write_page(page, data)
                yield from self.site.cpu(fs.cost.disk_write)
                self.stats.pages_pulled += 1
            return None
        chunks = [pages[i:i + batch] for i in range(0, len(pages), batch)]
        for r in range(0, len(chunks), depth):
            in_flight = chunks[r:r + depth]
            tasks = [self.site.spawn(self._fetch_chunk(source, gfile, chunk),
                                     name=f"pullrange:{gfile}")
                     for chunk in in_flight]
            if len(tasks) > 1:
                self.stats.pipelined_rounds += 1
            self._count_wait(waits)
            results = yield self.site.sim.gather(
                [t.done for t in tasks], label=f"pullround:{gfile}")
            for fetched in results:
                for page in sorted(fetched):
                    shadow.write_page(page, fetched[page])
                    yield from self.site.cpu(fs.cost.disk_write)
                    self.stats.pages_pulled += 1
        return None

    def _fetch_chunk(self, source: int, gfile: Gfile,
                     chunk: List[int]) -> Generator:
        """Fetch one chunk of committed pages; ``{page: data}``."""
        if len(chunk) == 1 and self.fs.cost.batch_pages == 1:
            data = yield from self.site.backstop_rpc(
                source, "fs.pull_read", {"gfile": gfile, "page": chunk[0]})
            return {chunk[0]: data}
        self.stats.range_requests += 1
        resp = yield from self.site.backstop_rpc(
            source, "fs.pull_read_range",
            {"gfile": gfile, "pages": list(chunk)})
        return resp["pages"]

    def _open_source(self, req: _Request,
                     waits: Optional[List[int]] = None) -> Generator:
        """Find a site holding the (at least) announced version."""
        fs = self.fs
        candidates = [req.hint] + [
            s for s in req.attrs["storage_sites"]
            if s not in (req.hint, self.site.site_id)]
        last_exc: Optional[Exception] = None
        for cand in candidates:
            self._count_wait(waits)
            try:
                attrs = yield from self.site.backstop_rpc(
                    cand, "fs.pull_open", {"gfile": req.gfile})
            except (FsError, NetworkError) as exc:
                last_exc = exc
                continue
            if attrs["version"].dominates(req.attrs["version"]):
                return cand, attrs
        raise last_exc or NetworkError("no propagation source available")
