"""The oracle passes on clean rounds and fires on planted faults.

Each negative plants one wrong output into an otherwise clean round —
a flipped byte in a judged read result, a pack block changed after the
round settled, a client op missing from the model — and the oracle must
report it.  Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os

import pytest

from oracle import judge
from run import episode_seed
from workloads import WORKLOADS, Round

SEEDS = json.load(open(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "seeds.json")))


def small_round(name: str, seed: int) -> Round:
    """A round a quarter of the workload's usual length."""
    w = WORKLOADS[name](seed)
    w.spec = dataclasses.replace(w.spec, duration=w.spec.duration / 4)
    rnd = Round(w)
    rnd.setup()
    rnd.run()
    return rnd


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("which", ["default", "held_out"])
def test_first_episode_is_clean(name, which):
    """Every workload's oracle passes on its default and held-out seed
    (one full-size episode each; run.py judges every episode)."""
    w = WORKLOADS[name](episode_seed(SEEDS[name][which], 0))
    rnd = Round(w)
    rnd.setup()
    rnd.run()
    verdict = judge(rnd)
    assert verdict.correct, verdict.failures
    assert verdict.reads_judged > 0


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_flipped_read_byte_fails(name):
    rnd = small_round(name, 7)
    assert judge(rnd).correct
    written = {op.path for op in rnd.ops if op.kind == "write"}
    op = next(op for op in rnd.ops if op.ok and op.kind == "read"
              and (name == "write-churn" or op.path not in written))
    op.result = _flip(op.result)
    verdict = judge(rnd)
    assert not verdict.correct
    assert any("read" in f for f in verdict.failures), verdict.failures


@pytest.mark.parametrize("name", ["read-walk", "write-churn"])
def test_dropped_model_op_fails(name):
    rnd = small_round(name, 7)
    assert judge(rnd).correct
    last_write = max((op for op in rnd.ops if op.ok and op.kind == "write"),
                     key=lambda op: op.end)
    rnd.ops.remove(last_write)
    assert not judge(rnd).correct


@pytest.mark.parametrize("name", ["read-walk", "write-churn"])
def test_mutated_pack_block_fails(name):
    rnd = small_round(name, 7)
    assert judge(rnd).correct
    pack = rnd.cluster.sites[rnd.w.spec.pack_sites[0]].packs[0]
    inode = next(i for __, i in sorted(pack.inodes.items())
                 if i.ftype.name == "REGULAR" and i.pages
                 and i.pages[0] is not None)
    block = inode.pages[0]
    pack.blocks[block] = _flip(pack.blocks[block])
    verdict = judge(rnd)
    assert not verdict.correct
