"""Batched write/commit + manifest heal parity harness.

The batched write path (``CostModel.batch_writes``) and the manifest heal
pull (``CostModel.pull_manifest``) are pure message-count optimisations:
every scenario here runs once per flag combination and must end in an
*identical* on-disk state — same inodes, same version vectors, same
committed bytes on every pack of every site.  The snapshot excludes
``mtime`` only, because virtual timestamps legitimately differ when the
message count differs.

The fault half of the harness checks the one property parity cannot: a
virtual circuit closing in the middle of a staged-write flush must never
half-commit.  A lost ``fs.write_pages`` chunk followed by a commit RPC
(which silently reopens the circuit) has to surface as a failed commit
with the old content intact.
"""

import random

import pytest

from repro import LocusCluster
from repro.config import CostModel
from repro.errors import LocusError
from repro.tools import fsck

FLAG_COMBOS = [
    {},                                                  # paper-exact
    {"batch_writes": True, "batch_pages": 4},
    {"pull_manifest": True, "pull_pipeline": 4},
    {"batch_writes": True, "pull_manifest": True,
     "batch_pages": 4, "pull_pipeline": 4},
    # Supervision (retries, failover, exactly-once stamps and ledgers) is
    # ON in the default combo above; this leg proves the whole machinery
    # is invisible on fault-free runs — byte-identical post-state under
    # the paper's unsupervised protocol.
    {"supervise_remote_ops": False},
    # Same discipline for the anti-entropy scrub (on by default): its
    # sweeps only trigger from the merge procedure and a clean sweep
    # repairs nothing, so disabling it must change no committed byte —
    # including across the heal scenarios, where sweeps actually run.
    {"scrub_enabled": False},
]

COMBO_IDS = ["off", "batch_writes", "pull_manifest", "both",
             "no_supervision", "no_scrub"]


def poststate(cluster):
    """Canonical committed on-disk state of the whole cluster.

    Per (site, filegroup, inode): every attribute that must not depend on
    how many messages the protocol used, plus the committed page bytes.
    ``mtime`` is deliberately absent — commits land at different virtual
    times under different batching, and that is the *only* divergence the
    optimisation is allowed."""
    state = {}
    for site in cluster.sites:
        for gfs, pack in sorted(site.packs.items()):
            for ino, inode in sorted(pack.inodes.items()):
                content = tuple(
                    None if b is None else pack.read_block(b)
                    for b in inode.pages)
                state[(site.site_id, gfs, ino)] = (
                    tuple(sorted(inode.version.to_dict().items())),
                    inode.size,
                    inode.deleted,
                    inode.has_data,
                    inode.conflict,
                    tuple(sorted(inode.storage_sites)),
                    inode.nlink,
                    inode.perms,
                    inode.owner,
                    inode.ftype,
                    content,
                )
    return state


def _cluster(flags, n_sites=2, seed=11, root_pack_sites=(0,)):
    return LocusCluster(n_sites=n_sites, seed=seed,
                        root_pack_sites=list(root_pack_sites),
                        cost=CostModel().with_overrides(**flags))


# ---------------------------------------------------------------------------
# Scenarios.  Each drives a complete operation sequence from a diskless
# using site (so every write crosses the US/SS wire) and settles.
# ---------------------------------------------------------------------------

def scenario_big_sequential_write(cluster):
    """32 pages in one go: multiple fs.write_pages chunks per flush."""
    data = bytes((i * 7) % 256 for i in range(32 * 1024))
    cluster.shell(1).write_file("/big", data)
    cluster.settle()


def scenario_overwrite_shrink_and_grow(cluster):
    sh = cluster.shell(1)
    sh.write_file("/f", b"a" * 9000)
    sh.write_file("/f", b"b" * 2000)      # shrink (truncate + rewrite)
    sh.write_file("/f", b"c" * 12000)     # grow again
    cluster.settle()


def scenario_partial_page_writes(cluster):
    """Unaligned pwrites: read-modify-write against staged pages."""
    sh = cluster.shell(1)
    sh.write_file("/p", b"x" * 3000)
    fd = sh.open("/p", "w")
    sh.pwrite(fd, 700, b"MID")            # inside page 0
    sh.pwrite(fd, 1020, b"SPAN")          # straddles pages 0/1
    sh.pwrite(fd, 2900, b"TAIL-BEYOND-END" * 10)   # extends the file
    sh.commit(fd)
    sh.close(fd)
    cluster.settle()


def scenario_explicit_abort(cluster):
    """An aborted open changes nothing, staged pages included."""
    sh = cluster.shell(1)
    sh.write_file("/keep", b"original" * 500)
    fd = sh.open("/keep", "w")
    sh.pwrite(fd, 0, b"discarded" * 600)
    sh.abort(fd)
    sh.close(fd)
    cluster.settle()


def scenario_commit_then_more_writes(cluster):
    """Two commits on one open: the staged-page counter must reset."""
    sh = cluster.shell(1)
    fd = sh.open("/2c", "w", create=True)
    sh.pwrite(fd, 0, b"first" * 900)
    sh.commit(fd)
    sh.pwrite(fd, 2048, b"second" * 900)
    sh.commit(fd)
    sh.close(fd)
    cluster.settle()


def scenario_interleaved_files(cluster):
    """Alternating writes to two files: per-handle staging must not mix."""
    sh = cluster.shell(1)
    fa = sh.open("/a", "w", create=True)
    fb = sh.open("/b", "w", create=True)
    for i in range(6):
        sh.pwrite(fa, i * 1024, bytes([65 + i]) * 1024)
        sh.pwrite(fb, i * 512, bytes([97 + i]) * 512)
    sh.close(fa)
    sh.close(fb)
    cluster.settle()


def scenario_unlink_and_recreate(cluster):
    sh = cluster.shell(1)
    sh.write_file("/ghost", b"one" * 400)
    sh.unlink("/ghost")
    sh.write_file("/ghost", b"two" * 700)
    cluster.settle()


def scenario_heal_many_small_files(cluster):
    """Partitioned divergence over 20 files: the manifest batch path."""
    sh0, sh1 = cluster.shell(0), cluster.shell(1)
    sh0.setcopies(2)
    for i in range(20):
        sh0.write_file(f"/f{i}", b"a" * 100)
    cluster.settle()
    cluster.partition({0}, {1})
    for i in range(20):
        sh0.write_file(f"/f{i}", bytes([i]) * 200)
    cluster.heal()
    cluster.settle()
    for i in range(20):
        assert sh1.read_file(f"/f{i}") == bytes([i]) * 200


def scenario_heal_mixed_sizes(cluster):
    """Heal pull over files needing one page, many pages, and deletion."""
    sh0 = cluster.shell(0)
    sh0.setcopies(2)
    sh0.write_file("/small", b"s" * 50)
    sh0.write_file("/large", b"L" * 9000)
    sh0.write_file("/doomed", b"d" * 100)
    cluster.settle()
    cluster.partition({0}, {1})
    sh0.write_file("/small", b"S" * 80)
    sh0.write_file("/large", b"M" * 17000)
    sh0.unlink("/doomed")
    cluster.heal()
    cluster.settle()


SCENARIOS = [
    scenario_big_sequential_write,
    scenario_overwrite_shrink_and_grow,
    scenario_partial_page_writes,
    scenario_explicit_abort,
    scenario_commit_then_more_writes,
    scenario_interleaved_files,
    scenario_unlink_and_recreate,
]

HEAL_SCENARIOS = [
    scenario_heal_many_small_files,
    scenario_heal_mixed_sizes,
]


class TestCommitParity:
    @pytest.mark.parametrize("scenario", SCENARIOS,
                             ids=lambda s: s.__name__)
    def test_write_path_state_identical_across_flags(self, scenario):
        baseline = None
        for flags, cid in zip(FLAG_COMBOS, COMBO_IDS):
            cluster = _cluster(flags)
            scenario(cluster)
            assert fsck(cluster).clean, cid
            snap = poststate(cluster)
            if baseline is None:
                baseline = snap
            else:
                assert snap == baseline, f"{scenario.__name__}: {cid} diverged"

    @pytest.mark.parametrize("scenario", HEAL_SCENARIOS,
                             ids=lambda s: s.__name__)
    def test_heal_state_identical_across_flags(self, scenario):
        baseline = None
        for flags, cid in zip(FLAG_COMBOS, COMBO_IDS):
            cluster = LocusCluster(
                n_sites=2, seed=11,
                cost=CostModel().with_overrides(**flags))
            scenario(cluster)
            assert fsck(cluster).clean, cid
            snap = poststate(cluster)
            if baseline is None:
                baseline = snap
            else:
                assert snap == baseline, f"{scenario.__name__}: {cid} diverged"


# ---------------------------------------------------------------------------
# Satellite: seeded-random sequential schedules.  Each op completes before
# the next starts, so the final state is timing-independent and must be
# byte-identical across every flag combination.
# ---------------------------------------------------------------------------

def _random_schedule(rng, n_ops):
    """A reproducible op list; replayed verbatim under every combo."""
    ops = []
    for __ in range(n_ops):
        kind = rng.random()
        name = f"/fz{rng.randrange(5)}"
        if kind < 0.35:
            ops.append(("write", name, rng.randrange(1, 40) * 257))
        elif kind < 0.55:
            ops.append(("pwrite", name, rng.randrange(0, 3000),
                        rng.randrange(1, 3000)))
        elif kind < 0.70:
            ops.append(("abortwrite", name, rng.randrange(1, 3000)))
        elif kind < 0.85:
            ops.append(("truncwrite", name, rng.randrange(1, 5000)))
        else:
            ops.append(("unlink", name))
    return ops


def _apply_schedule(cluster, ops):
    sh = cluster.shell(1)
    for i, op in enumerate(ops):
        fill = bytes([33 + i % 90])
        try:
            if op[0] == "write":
                sh.write_file(op[1], fill * op[2])
            elif op[0] == "pwrite":
                fd = sh.open(op[1], "w", create=True)
                sh.pwrite(fd, op[2], fill * op[3])
                sh.commit(fd)
                sh.close(fd)
            elif op[0] == "abortwrite":
                fd = sh.open(op[1], "w", create=True)
                sh.pwrite(fd, 0, fill * op[2])
                sh.abort(fd)
                sh.close(fd)
            elif op[0] == "truncwrite":
                fd = sh.open(op[1], "w", create=True, trunc=True)
                sh.pwrite(fd, 0, fill * op[2])
                sh.close(fd)
            elif op[0] == "unlink":
                sh.unlink(op[1])
        except LocusError:
            pass          # e.g. unlink of a never-created name
        cluster.settle()


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_random_schedule_parity(seed):
    ops = _random_schedule(random.Random(seed), 30)
    baseline = None
    for flags, cid in zip(FLAG_COMBOS, COMBO_IDS):
        cluster = _cluster(flags, seed=seed)
        _apply_schedule(cluster, ops)
        assert fsck(cluster).clean, cid
        snap = poststate(cluster)
        if baseline is None:
            baseline = snap
        else:
            assert snap == baseline, f"seed {seed}: {cid} diverged"


# ---------------------------------------------------------------------------
# Fault half: a circuit closing mid-batch must never half-commit.
# ---------------------------------------------------------------------------

def _drop_next(net, mtype):
    """Arm the network to lose the next ``mtype`` message, closing the
    circuit exactly as the paper's loss model does (section 5.1)."""
    orig_send = net.send
    state = {"dropped": 0}

    def send(src, dst, msg):
        if msg.mtype == mtype and not state["dropped"]:
            state["dropped"] += 1
            net.stats.record_send(msg.stat_key(), msg.size)
            net.stats.dropped += 1
            net._close_circuit(frozenset((src, dst)), "message lost")
            return
        orig_send(src, dst, msg)

    net.send = send
    return state


class TestMidBatchCircuitClose:
    def _run_lost_flush(self, lost_mtype, **flags):
        cluster = _cluster(
            dict({"batch_writes": True, "batch_pages": 4}, **flags))
        sh = cluster.shell(1)
        old = b"old" * 2000
        sh.write_file("/victim", old)
        cluster.settle()
        state = _drop_next(cluster.net, lost_mtype)
        fd = sh.open("/victim", "w")
        new = b"NEW" * 4000            # 12000 B = 12 pages = 3 chunks
        failed = False
        try:
            sh.pwrite(fd, 0, new)
            sh.commit(fd)
        except LocusError:
            failed = True
        try:
            sh.abort(fd)
            sh.close(fd)
        except LocusError:
            pass
        cluster.settle()
        assert state["dropped"] == 1, "fault never fired"
        return cluster, old, new, failed

    @pytest.mark.parametrize("lost", ["fs.write_pages", "fs.commit"])
    def test_lost_chunk_never_half_commits(self, lost):
        """Losing a staged-write chunk (or the commit itself) must leave
        either the complete old content or the complete new content —
        the commit RPC reopening the closed circuit must not slip a
        partial batch through."""
        cluster, old, new, failed = self._run_lost_flush(lost)
        content = cluster.shell(0).read_file("/victim")
        if failed:
            assert content == old, "half-commit: old content corrupted"
        else:
            assert content == new
        assert fsck(cluster).clean

    def test_commit_reports_missing_pages(self):
        """The guard itself: fewer pages received than the commit claims
        were sent raises EWRITELOST at the storage site.  With
        exactly-once writes on (the default) the using site replays its
        retained staged pages and the retried commit completes — no
        half-commit either way."""
        cluster, __, new, failed = self._run_lost_flush("fs.write_pages")
        assert not failed, "replayed commit should complete"
        assert cluster.shell(0).read_file("/victim") == new
        assert cluster.site(1).metrics.counters["fs.commit_retries"] >= 1

    def test_commit_fails_without_replay(self):
        """Flag-off leg: under the paper's unsupervised protocol the same
        lost chunk surfaces as a failed commit with the old content
        intact."""
        cluster, old, __, failed = self._run_lost_flush(
            "fs.write_pages", supervise_remote_ops=False)
        assert failed, "commit must fail when a flush chunk was lost"
        assert cluster.shell(0).read_file("/victim") == old

    def test_ss_crash_before_commit_leaves_old_content(self):
        """Kill the storage site after the flush but before the commit:
        the shadow pages die with it; restart exposes the old content."""
        cluster = _cluster({"batch_writes": True, "batch_pages": 4})
        sh = cluster.shell(1)
        old = b"old" * 1000
        sh.write_file("/v", old)
        cluster.settle()
        fs1 = cluster.site(1).fs

        def half_op():
            from repro.fs.types import Mode
            gfile, __ = yield from fs1.resolve_gfile(None, "/v")
            handle = yield from fs1.open_gfile(gfile, Mode.WRITE)
            yield from fs1.write(handle, 0, b"NEW" * 3000)
            # Flush is staged/sent; die before commit by parking forever.
            yield 10_000_000.0

        cluster.spawn(1, half_op())
        cluster.sim.run(until=cluster.sim.now + 50)
        cluster.fail_site(0)
        cluster.settle()
        cluster.restart_site(0)
        cluster.settle()
        assert cluster.shell(0).read_file("/v") == old
        assert fsck(cluster).clean
