"""Strict expected-failure probes for the known defects A, B, E and F.

Each probe asserts the correct behaviour on a seed where the program, at
the commit that added these probes, misbehaves.  They are marked
``xfail(strict=True)``: while the defect stands they report XFAIL; the
commit that fixes one turns its probe into an XPASS, which fails the
suite until the marker is removed and the traffic the defect kept out of
the benchmark's judged workloads is added back (README.md, "Known
defects").
"""

import pytest

from oracle import judge
from repro.tools.fsck import fsck
from workloads import ClientGen, FaultStorm, Op, Round, Spec, Workload, \
    content

# Seeds found by searching the first few hundred episode seeds.  Defect
# C has no probe: no episode of this storm, nor of a write-heavy variant
# (about 1,500 episodes in all), ended with a conflict-flagged file.
SEED_A = 2
SEED_B = 310
SEED_E = 20
SEED_F = 6


class StormWritesAnytime(FaultStorm):
    """fault-storm as first designed: 20% writes at any time."""

    WRITE_WINDOW = (0.0, FaultStorm.PERIOD)
    WRITE_SHARE = 0.2


class UnlinkChurn(Workload):
    """Defect A's traffic: two sites, a 2-copy filegroup, one client per
    site creating, overwriting and unlinking files in its own directory."""

    spec = Spec(name="unlink-churn", n_sites=2, pack_sites=[0, 1],
                copies=2, client_sites=[0, 1], duration=3000.0, think=5.0,
                episodes=1)

    def tree(self) -> None:
        self._add_dir("/u")
        for cid in self.spec.client_sites:
            self._add_dir(f"/u/c{cid}")

    def client(self, cid: int) -> ClientGen:
        return _UnlinkClient(self, cid)


class _UnlinkClient(ClientGen):

    def __init__(self, workload, cid):
        super().__init__(workload, cid)
        self.names = []
        self.created = 0
        self.version = 0

    def next_op(self, elapsed: float) -> Op:
        rng = self.rng
        x = rng.random()
        if self.names and x < 0.3:
            return Op(self.cid, "unlink", f"/u/c{self.cid}/"
                      f"{rng.choice(self.names)}")
        if self.names and x < 0.6:
            path = f"/u/c{self.cid}/{rng.choice(self.names)}"
        else:
            path = f"/u/c{self.cid}/f{self.created}"
            self.created += 1
        self.version += 1
        return Op(self.cid, "write", path,
                  content(self.w.seed, path, self.version,
                          rng.randint(200, 3000)))

    def done(self, op: Op) -> None:
        if not op.ok:
            return
        name = op.path.rsplit("/", 1)[1]
        if op.kind == "unlink":
            self.names.remove(name)
        elif name not in self.names:
            self.names.append(name)


def _round(workload: Workload) -> Round:
    rnd = Round(workload)
    rnd.setup()
    rnd.run()
    return rnd


@pytest.mark.xfail(strict=True, reason="defect A: concurrent unlink in a "
                   "replicated filegroup leaves orphans/misplaced copies")
def test_defect_a_unlink_churn_fsck_clean():
    rnd = _round(UnlinkChurn(SEED_A))
    assert all(op.ok for op in rnd.ops)
    report = fsck(rnd.cluster)
    assert report.clean, report.summary()


@pytest.mark.xfail(strict=True, reason="defect B: a failed write's bytes "
                   "served by one pack site only after a full heal")
def test_defect_b_writer_files_agree_after_heal():
    verdict = judge(_round(StormWritesAnytime(SEED_B)))
    assert verdict.correct, verdict.failures
    assert verdict.writer_disagreements == 0


@pytest.mark.xfail(strict=True, reason="defect E: a write_file that "
                   "succeeds across a loss burst keeps the old size")
def test_defect_e_write_during_loss_burst():
    verdict = judge(_round(StormWritesAnytime(SEED_E)))
    assert verdict.correct, verdict.failures


@pytest.mark.xfail(strict=True, reason="defect F: a write that fails "
                   "during a loss burst leaves a stale copy after every heal")
def test_defect_f_failed_write_during_loss_burst():
    verdict = judge(_round(StormWritesAnytime(SEED_F)))
    assert verdict.correct, verdict.failures
