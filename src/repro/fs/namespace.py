"""Namespace operations: create, unlink, mkdir, link, rename, readdir.

File creation follows paper section 2.3.7: the create is done at one storage
site (the "placeholder" protocol allocates the inode number from that pack's
private pool) and propagated to the other storage sites.  Initial storage
sites obey the published algorithm:

    a. all storage sites must be storage sites of the parent directory;
    b. the local site is used first if possible;
    c. then follow the parent directory's site order, except that sites
       which are currently inaccessible are chosen last.

Directory entry changes (enter / delete / change) are each atomic: the whole
update runs under an open-for-modification serialized by the CSS and takes
effect at one commit.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.errors import (EBUSY, EEXIST, EINVAL, EISDIR, ENOENT, ENOTDIR,
                          ENOTEMPTY, EXDEV)
from repro.fs.directory import DirEntry, DirView, check_name, decode_entries, \
    encode_entries
from repro.fs.types import Gfile, Mode
from repro.storage.inode import FileType
from repro.storage.pack import ROOT_INO

_DIR_TYPES = (FileType.DIRECTORY, FileType.HIDDEN_DIR)


class NamespaceMixin:
    """Naming-tree operations; mixed into :class:`FsManager`."""

    # ------------------------------------------------------------------
    # Atomic directory update
    # ------------------------------------------------------------------

    def _dir_modify(self, dir_gfile: Gfile, mutate) -> Generator:
        """Open-modify-commit one directory under CSS synchronization.

        ``mutate(view)`` applies the entry change to a :class:`DirView`;
        whatever it returns is this function's result.

        Directory entry updates are atomic kernel operations: when another
        site holds the directory's modification lock, this kernel waits and
        retries rather than reflecting EBUSY to the application.
        """
        handle = None
        for attempt in range(200):
            try:
                handle = yield from self.open_gfile(dir_gfile, Mode.WRITE)
                break
            except EBUSY:
                yield 2.0 + 0.5 * (self.sid % 7)   # deterministic backoff
        if handle is None:
            raise EBUSY(f"directory {dir_gfile} modification lock "
                        f"unavailable")
        try:
            if handle.attrs["ftype"] not in _DIR_TYPES:
                raise ENOTDIR(f"gfile {dir_gfile}")
            data = yield from self.read(handle, 0, handle.size)
            view = DirView(decode_entries(data))
            yield from self.site.cpu(
                self.cost.cpu_dir_entry * max(1, len(view.entries)))
            result = mutate(view)
            yield from self.truncate(handle)
            yield from self.write(handle, 0, encode_entries(view.entries))
            yield from self.commit(handle)
        except BaseException:
            if not handle.closed and handle.dirty:
                yield from self.abort(handle)
            raise
        finally:
            if not handle.closed:
                yield from self.close(handle)
        return result

    def _open_write_retry(self, gfile: Gfile,
                          allow_conflict: bool = False) -> Generator:
        """Open a file for modification, waiting out another site's write
        lock the same way ``_dir_modify`` does for directories: nlink
        updates are atomic kernel operations, so EBUSY is absorbed by the
        kernel rather than reflected to the application (and leaving the
        syscall half-done — entry inserted, count never bumped)."""
        for attempt in range(200):
            try:
                handle = yield from self.open_gfile(
                    gfile, Mode.WRITE, allow_conflict=allow_conflict)
                return handle
            except EBUSY:
                yield 2.0 + 0.5 * (self.sid % 7)   # deterministic backoff
        raise EBUSY(f"file {gfile} modification lock unavailable")

    # ------------------------------------------------------------------
    # Storage-site selection (section 2.3.7)
    # ------------------------------------------------------------------

    def _choose_storage_sites(self, proc,
                              parent_sites: List[int]) -> List[int]:
        if not parent_sites:
            raise EINVAL("parent directory has no storage sites")
        want = getattr(proc, "default_copies", 1) if proc else 1
        count = max(1, min(want, len(parent_sites)))
        believed_up = None
        if self.site.topology is not None:
            believed_up = self.site.topology.partition_set
        ordered: List[int] = []
        if self.sid in parent_sites:                 # (b) local site first
            ordered.append(self.sid)
        for s in parent_sites:                       # (c) parent order...
            if s in ordered:
                continue
            if believed_up is None or s in believed_up:
                ordered.append(s)
        for s in parent_sites:                       # ...inaccessible last
            if s not in ordered:
                ordered.append(s)
        return ordered[:count]

    # ------------------------------------------------------------------
    # create / open by path
    # ------------------------------------------------------------------

    def create_file(self, proc, path: str,
                    ftype: FileType = FileType.REGULAR,
                    perms: int = 0o644,
                    exclusive: bool = False,
                    storage_sites: Optional[List[int]] = None) -> Generator:
        """Create a file; returns ``(gfile, created)``.

        When the name already exists and ``exclusive`` is false, the
        existing file is returned (Unix ``creat`` semantics; the caller
        truncates).
        """
        parent, name, leaf = yield from self.walk(proc, path,
                                                  follow_leaf_hidden=False)
        if name is None:
            raise EEXIST(path)
        if leaf is not None:
            if exclusive:
                raise EEXIST(path)
            if leaf.ftype in _DIR_TYPES and ftype not in _DIR_TYPES:
                raise EISDIR(path)
            return leaf.gfile, False
        check_name(name)
        parent_attrs = yield from self._fetch_attrs_anywhere(parent)
        if parent_attrs["ftype"] not in _DIR_TYPES:
            raise ENOTDIR(path)
        chosen = storage_sites or self._choose_storage_sites(
            proc, parent_attrs["storage_sites"])
        owner = getattr(proc, "user", "root") if proc else "root"
        # Stamped exactly-once: a retried create must replay the recorded
        # allocation, never mint a second orphan inode.
        attrs = yield from self.site.supervised_rpc(
            chosen[0], "fs.create_file", {
                "gfs": parent[0],
                "ftype": ftype,
                "owner": owner,
                "perms": perms,
                "storage_sites": chosen,
            }, once=True)
        gfile: Gfile = (parent[0], attrs["ino"])
        try:
            yield from self._dir_modify(
                parent, lambda view: view.insert(name, attrs["ino"], ftype))
        except BaseException:
            # The name never appeared: compensate by retiring the fresh
            # inode so it cannot linger as an orphan.
            yield from self.site.oneway_quiet(chosen[0], "fs.scrub_orphan",
                                              {"gfile": gfile})
            raise
        return gfile, True

    def open_path(self, proc, path: str, mode: Mode,
                  create: bool = False, truncate: bool = False,
                  exclusive: bool = False,
                  allow_conflict: bool = False) -> Generator:
        """The open/creat system call: path in, open handle out."""
        created = False
        if create and mode.writable:
            gfile, created = yield from self.create_file(
                proc, path, exclusive=exclusive)
        else:
            gfile, __ = yield from self.resolve_gfile(proc, path)
        handle = yield from self.open_gfile(gfile, mode,
                                            allow_conflict=allow_conflict)
        if truncate and mode.writable and not created and handle.size:
            yield from self.truncate(handle)
        return handle

    # ------------------------------------------------------------------
    # mkdir / rmdir
    # ------------------------------------------------------------------

    def mkdir(self, proc, path: str, perms: int = 0o755,
              hidden: bool = False,
              storage_sites: Optional[List[int]] = None) -> Generator:
        ftype = FileType.HIDDEN_DIR if hidden else FileType.DIRECTORY
        parent, name, leaf = yield from self.walk(proc, path,
                                                  follow_leaf_hidden=False)
        if name is None or leaf is not None:
            raise EEXIST(path)
        gfile, __ = yield from self.create_file(
            proc, path, ftype=ftype, perms=perms, exclusive=True,
            storage_sites=storage_sites)
        # Seed '.' and '..' (constructed directly: they bypass name checks).
        handle = yield from self.open_gfile(gfile, Mode.WRITE)
        try:
            seed = [DirEntry(".", gfile[1], ftype),
                    DirEntry("..", parent[1], FileType.DIRECTORY)]
            yield from self.write(handle, 0, encode_entries(seed))
        finally:
            yield from self.close(handle)  # commits
        return gfile

    def rmdir(self, proc, path: str) -> Generator:
        parent, name, leaf = yield from self.walk(proc, path,
                                                  follow_leaf_hidden=False)
        if leaf is None:
            raise ENOENT(path)
        if leaf.ftype not in _DIR_TYPES:
            raise ENOTDIR(path)
        if leaf.gfile[1] == ROOT_INO:
            raise EINVAL("cannot remove a filegroup root")
        entries = yield from self.read_dir_entries(leaf.gfile)
        if not DirView(entries).is_empty():
            raise ENOTEMPTY(path)
        yield from self._remove_object(parent, name, leaf.gfile)
        return None

    # ------------------------------------------------------------------
    # unlink / link / rename
    # ------------------------------------------------------------------

    def unlink(self, proc, path: str) -> Generator:
        """Remove a name; delete the file when its last link goes
        (section 2.3.7: 'File delete uses much of the same mechanism as
        normal file update')."""
        parent, name, leaf = yield from self.walk(proc, path,
                                                  follow_leaf_hidden=False)
        if leaf is None:
            raise ENOENT(path)
        if leaf.ftype in _DIR_TYPES:
            raise EISDIR(path)
        yield from self._remove_object(parent, name, leaf.gfile)
        return None

    def _remove_object(self, parent: Gfile, name: str,
                       target: Gfile) -> Generator:
        # Take the target's modification lock BEFORE touching the directory
        # and hold it across the whole removal.  The background nlink-repair
        # sweep takes the same lock, so it can never run between the entry
        # removal and the count decrement and see a half-done unlink.
        # Removal of a conflicted file is always allowed (the split tool
        # relies on it; unlink never reads the data).
        handle = yield from self._open_write_retry(target,
                                                   allow_conflict=True)
        try:
            yield from self._dir_modify(
                parent,
                lambda view: view.remove(name, handle.attrs["version"]))
            nlink = max(0, handle.attrs["nlink"] - 1)
            if nlink == 0:
                yield from self.set_attrs(handle, nlink=0, deleted=True)
            else:
                yield from self.set_attrs(handle, nlink=nlink)
        finally:
            yield from self.close(handle)  # commits
        return None

    def link(self, proc, existing: str, newpath: str) -> Generator:
        gfile, ftype = yield from self.resolve_gfile(proc, existing,
                                                     follow_leaf_hidden=False)
        if ftype in _DIR_TYPES:
            raise EISDIR("hard links to directories are not allowed")
        parent, name, leaf = yield from self.walk(proc, newpath,
                                                  follow_leaf_hidden=False)
        if name is None or leaf is not None:
            raise EEXIST(newpath)
        if parent[0] != gfile[0]:
            raise EXDEV("links cannot cross filegroups")
        check_name(name)
        # File lock first, then the directory update under it: the repair
        # sweep recounts references and patches nlink under the same file
        # lock, so interleaving between the entry insert and the count bump
        # (which would double-apply the new reference) is impossible.
        handle = yield from self._open_write_retry(gfile)
        try:
            yield from self._dir_modify(
                parent, lambda view: view.insert(name, gfile[1], ftype))
            yield from self.set_attrs(handle,
                                      nlink=handle.attrs["nlink"] + 1)
        finally:
            yield from self.close(handle)
        return None

    def rename(self, proc, old: str, new: str) -> Generator:
        old_parent, old_name, leaf = yield from self.walk(
            proc, old, follow_leaf_hidden=False)
        if leaf is None:
            raise ENOENT(old)
        new_parent, new_name, new_leaf = yield from self.walk(
            proc, new, follow_leaf_hidden=False)
        if new_name is None or new_leaf is not None:
            raise EEXIST(new)
        if new_parent[0] != leaf.gfile[0]:
            raise EXDEV("rename cannot cross filegroups")
        check_name(new_name)
        moving_dir = leaf.ftype in _DIR_TYPES
        if moving_dir and new_parent != old_parent:
            if leaf.gfile[1] == ROOT_INO:
                raise EINVAL("cannot move a filegroup root")
            yield from self._assert_not_subtree(leaf.gfile, new_parent)
        target_attrs = yield from self._fetch_attrs_anywhere(leaf.gfile)
        if old_parent == new_parent:
            def both(view: DirView):
                view.remove(old_name, target_attrs["version"])
                view.insert(new_name, leaf.gfile[1], leaf.ftype)
            yield from self._dir_modify(old_parent, both)
        else:
            yield from self._dir_modify(
                new_parent,
                lambda v: v.insert(new_name, leaf.gfile[1], leaf.ftype))
            yield from self._dir_modify(
                old_parent,
                lambda v: v.remove(old_name, target_attrs["version"]))
            if moving_dir:
                yield from self._set_dotdot(leaf.gfile, new_parent[1])
        return None

    def _assert_not_subtree(self, moved: Gfile, candidate: Gfile
                            ) -> Generator:
        """Refuse to move a directory into its own subtree (cycle)."""
        current = candidate
        for __ in range(512):
            if current == moved:
                raise EINVAL("cannot move a directory into itself")
            if current[1] == ROOT_INO:
                mount_point = self.mount.parent_of_root(current[0])
                if mount_point is None:
                    return None
                current = mount_point
                continue
            entries = yield from self.read_dir_entries(current)
            parent_entry = DirView(entries).lookup("..")
            if parent_entry is None or parent_entry.ino == current[1]:
                return None
            current = (current[0], parent_entry.ino)
        raise EINVAL("directory tree too deep")

    def _set_dotdot(self, child: Gfile, parent_ino: int) -> Generator:
        """Rewrite a moved directory's '..' entry."""
        def mutate(view: DirView):
            for entry in view.entries:
                if entry.name == "..":
                    entry.ino = parent_ino
                    return None
            view.entries.append(
                DirEntry("..", parent_ino, FileType.DIRECTORY))
            return None

        yield from self._dir_modify(child, mutate)
        return None

    # ------------------------------------------------------------------
    # readdir / chmod / chown
    # ------------------------------------------------------------------

    def readdir(self, proc, path: str) -> Generator:
        gfile, ftype = yield from self.resolve_gfile(proc, path)
        if ftype not in _DIR_TYPES:
            raise ENOTDIR(path)
        entries = yield from self.read_dir_entries(gfile)
        return DirView(entries).names()

    def chmod(self, proc, path: str, perms: int) -> Generator:
        yield from self._attr_change(proc, path, perms=perms)
        return None

    def chown(self, proc, path: str, owner: str) -> Generator:
        yield from self._attr_change(proc, path, owner=owner)
        return None

    def _attr_change(self, proc, path: str, **patch) -> Generator:
        gfile, __ = yield from self.resolve_gfile(proc, path)
        handle = yield from self.open_gfile(gfile, Mode.WRITE)
        try:
            yield from self.set_attrs(handle, **patch)
        finally:
            yield from self.close(handle)  # commit ships inode-only change
        return None

    # ------------------------------------------------------------------
    # Replication control (an add of a copy / delete of a copy)
    # ------------------------------------------------------------------

    def add_replica(self, proc, path: str, new_site: int) -> Generator:
        """Store an additional copy of the file at ``new_site``."""
        gfile, __ = yield from self.resolve_gfile(proc, path)
        if new_site not in self.mount.pack_sites(gfile[0]):
            raise EINVAL(f"site {new_site} holds no pack of fg {gfile[0]}")
        handle = yield from self.open_gfile(gfile, Mode.WRITE)
        try:
            sites = list(handle.attrs["storage_sites"])
            if new_site not in sites:
                sites.append(new_site)
                yield from self.set_attrs(handle, storage_sites=sites)
        finally:
            yield from self.close(handle)
        return None

    def drop_replica(self, proc, path: str, victim_site: int) -> Generator:
        """Stop storing the file at ``victim_site`` (move = add + delete)."""
        gfile, __ = yield from self.resolve_gfile(proc, path)
        handle = yield from self.open_gfile(gfile, Mode.WRITE)
        try:
            sites = [s for s in handle.attrs["storage_sites"]
                     if s != victim_site]
            if not sites:
                raise EINVAL("cannot drop the last copy")
            if sites != list(handle.attrs["storage_sites"]):
                yield from self.set_attrs(handle, storage_sites=sites)
        finally:
            yield from self.close(handle)
        return None
