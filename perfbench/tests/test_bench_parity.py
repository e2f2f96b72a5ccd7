"""Determinism of the benchmark's simulated output.

Two untraced runs of one seed must give identical simulated metrics and
an identical op-log digest, and a round run under the sampling profiler
and the boundary counters must reproduce the untraced round's end vtime,
per-type message counts and op-log digest: the timers do not perturb
the program.
"""

import dataclasses
import json
import os
import subprocess
import sys

import layers
from run import parity
from workloads import WORKLOADS, Round, sim_metrics

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "run.py")
SIM_METRICS = ("read_vlat_p50", "read_vlat_tail", "write_vlat_p50",
               "write_vlat_tail", "msgs_per_op", "ops_ok_frac",
               "max_outage_v")


def _run_once(workload: str, seed: int):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=300)
    details, result = (json.loads(line)
                       for line in out.stdout.strip().splitlines()[-2:])
    return details, result


def test_two_processes_agree():
    a_details, a = _run_once("fault-storm", 3)
    b_details, b = _run_once("fault-storm", 3)
    assert a["correct"] and b["correct"]
    assert a_details["digest"] == b_details["digest"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    for key in SIM_METRICS:
        assert a["metrics"][key] == b["metrics"][key], key


def _small(name: str, seed: int):
    w = WORKLOADS[name](seed)
    w.spec = dataclasses.replace(w.spec, duration=w.spec.duration / 4)
    return w


def test_traced_round_reproduces_untraced():
    for name in sorted(WORKLOADS):
        w = _small(name, 5)
        plain = Round(w)
        plain.setup()
        plain.run()
        traced = Round(w)
        traced.setup()
        sampler = layers.Sampler()
        with layers.boundary_counts() as counts:
            traced.run(profile=sampler)
        assert parity(plain, traced) == [], name
        assert sim_metrics([plain]) == sim_metrics([traced]), name
        assert sampler.samples > 0
        assert counts["fs.dir_reads"] > 0


def test_boundary_counters_are_removed():
    from repro.faults.invariants import InvariantChecker
    from repro.fs.path import PathMixin
    from repro.storage.pack import Pack
    before = (Pack.write_block, PathMixin.read_dir_entries,
              InvariantChecker.check)
    with layers.boundary_counts():
        pass
    assert (Pack.write_block, PathMixin.read_dir_entries,
            InvariantChecker.check) == before
