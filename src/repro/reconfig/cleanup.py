"""The cleanup procedure (paper section 5.6).

"Even before the partition has been reestablished, there is considerable
work that each node can do to clean up its internal data structures":

=====================================  =====================================
Resource                               Failure action
=====================================  =====================================
Local file in use remotely (update)    discard pages, close and abort
Local file in use remotely (read)      close
Remote file in use locally (update)    discard pages, error in descriptor
Remote file in use locally (read)      internal close, attempt reopen
Remote fork/exec, remote site fails    return error to caller
Fork/exec, calling site fails          notify process
Distributed transaction                abort related subtransactions
=====================================  =====================================
"""

from __future__ import annotations

from typing import Generator, Set

from repro.errors import ESTALE, FsError, NetworkError


def run_cleanup(site, lost: Set[int], members: Set[int]) -> Generator:
    """Apply the failure-action table at one site after a topology change."""
    # New epoch: CSS peer-version knowledge gathered before this change is
    # suspect (a rejoined site may carry commits nobody here has heard of).
    site.fs.topology_epoch += 1
    yield from _cleanup_fs(site, lost, members)
    if site.proc is not None:
        site.proc.on_partition_change(lost)
    if site.tx is not None:
        yield from site.tx.on_partition_change(lost)
    return None


def _cleanup_fs(site, lost: Set[int], members: Set[int]) -> Generator:
    fs = site.fs
    # --- SS role: local resources in use remotely -----------------------
    for gfile, so in list(fs.ss.items()):
        lost_users = [us for us in set(list(so.users) + list(so.unsync_users))
                      if us in lost]
        for us in lost_users:
            if so.writer == us:
                # "Discard pages, close file and abort updates."
                so.shadow.abort()
                site.cache.invalidate_file(*gfile)
            so.drop_site(us)
        fs._maybe_drop_ss(gfile, so)
    # --- CSS role: forget state for departed sites -----------------------
    for entry in list(fs.css_entries.values()):
        for us in list(entry.readers) + ([entry.writer] if entry.writer
                                         else []):
            if us in lost:
                entry.drop_site(us)
        if not entry.in_use:
            fs.css_entries.pop(entry.gfile, None)
    # --- US role: remote resources in use locally --------------------------
    for handle in list(fs.us.values()):
        if handle.closed or handle.ss_site not in lost:
            continue
        site.cache.invalidate_file(*handle.gfile)
        if handle.mode.writable:
            if fs.cost.supervise_remote_ops:
                # Write-path failover: the open's uncommitted operations
                # are still staged on the handle, so instead of erroring
                # the descriptor we re-home it to a surviving replica and
                # replay them there.  Falls back to the paper's failure
                # action when no copy survives.
                site.spawn(_rehome_writer(site, handle),
                           name=f"rehome:{handle.gfile}@{site.site_id}")
            else:
                # "Discard pages, set error in local file descriptor."
                handle.attrs["error"] = f"storage site {handle.ss_site} lost"
                handle.dirty = False
                handle.closed = True
                fs.us.pop(handle.hid, None)
        else:
            # "Internal close, attempt to reopen at other site" — the system
            # substitutes a different copy of the same version if possible.
            # Spawned as its own kernel task: reconfiguration re-elects the
            # CSS only after this cleanup returns, and the reopen must be
            # able to wait that re-election out (the handle stays open
            # meanwhile; concurrent reads queue behind the failover).
            site.spawn(_reopen_elsewhere(site, handle),
                       name=f"reopen:{handle.gfile}@{site.site_id}")
    return None
    yield  # pragma: no cover -- keeps this a generator for run_cleanup


def _rehome_writer(site, handle) -> Generator:
    """Exactly-once write failover from reconfiguration cleanup: reopen
    the file at a surviving pack copy and re-stage the handle's
    uncommitted pages / truncate / attribute patches there.  If nothing
    survives the descriptor gets the paper's error instead."""
    fs = site.fs
    try:
        yield from fs._failover_write(handle)
    except (FsError, NetworkError):
        if not handle.closed:
            handle.attrs["error"] = f"storage site {handle.ss_site} lost"
            handle.dirty = False
            handle.closed = True
            fs.us.pop(handle.hid, None)
    return None


def _reopen_elsewhere(site, handle) -> Generator:
    """Substitute another copy under the old handle id, or mark the
    descriptor in error.  The adopt-a-replacement mechanics are shared with
    the mid-call read failover (``FsManager.failover_handle``)."""
    fs = site.fs
    try:
        yield from fs.failover_handle(handle)
    except ESTALE:
        # A copy exists but it is older than what the process was reading;
        # substituting it silently would run time backwards.
        handle.attrs["error"] = "remaining copies are stale"
        handle.closed = True
        fs.us.pop(handle.hid, None)
    except (FsError, NetworkError):
        handle.attrs["error"] = "no surviving copy reachable"
        handle.closed = True
        fs.us.pop(handle.hid, None)
    return None
