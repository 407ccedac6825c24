"""Smoke test of the benchmark itself: python3 -m pytest perfbench/test_smoke.py

Each workload, run at a tiny size, must emit every metric BENCHMARK.json
names with its unit, and the checkers must reject deliberately corrupted
answers.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run._import_backflow()

import backflow as bf  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    result = run.measure(workload, seed=7, seconds=0.05, trace=trace, min_ops=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _example_one():
    a = -0.25j
    wf = bf.make_line_wavefunction(bf.RationalSpec(zeros=(bf.Root(a),), poles=(bf.Root(-1j, 2),)))
    return a, wf, bf.momentum_spectrum(wf), bf.backflow_intervals(wf)


def test_example_one_checker_accepts_the_right_answer_only():
    a, wf, sp, report = _example_one()
    assert checks.example_one_faults(a, wf, sp, report) is None
    edge = checks.FIG1_EDGE
    for wrong in [((-math.inf, math.inf),), (), ((-edge, 0.9 * edge),), ((-edge, 0.0), (0.0, edge))]:
        bad = bf.BackflowReport(wrong, report.min_wavenumber, 0.0, report.min_current, 0.0)
        assert checks.example_one_faults(a, wf, sp, bad) is not None, wrong
    assert checks.line_interval_faults(wf, ((-math.inf, math.inf),)).startswith("(-inf, inf)")
    assert checks.line_interval_faults(wf, ((-edge, 1.1 * edge),)) is not None


def test_ring_checker_rejects_a_missed_arc():
    a, n = 2.0 - 1e-3, 3
    wf = bf.make_ring_wavefunction(bf.RationalSpec(zeros=(bf.Root(0j),), poles=(bf.Root(a, n),)), 1.0)
    report = bf.ring_backflow_intervals(wf)
    assert checks.single_pole_ring_faults(a, n, report, wf) is None
    empty = bf.BackflowReport((), 0.0, 0.0, 0.0, 0.0)
    assert checks.single_pole_ring_faults(a, n, empty, wf) is not None
    lo, hi = report.intervals[0]
    assert checks.ring_interval_faults(wf, ((lo + 0.2 * (hi - lo), hi),)) is not None


def test_taylor_checker_rejects_a_perturbed_numerator():
    m, b = 8, 3 * math.pi
    profile = bf.exp_profile_coeffs(-1.0)
    problem = bf.PadeProblem(profile, m, (bf.Root(-1j * b, m + 1),), math.pi)
    numerator = list(bf.pade_numerator(problem).coeffs)
    assert checks.taylor_match_faults(numerator, -1j * b, m + 1, profile, m) is None
    numerator[5] *= 1 + 1e-8
    assert checks.taylor_match_faults(numerator, -1j * b, m + 1, profile, m) is not None


def test_cli_checker_rejects_a_corrupted_report():
    a, wf, _, report = _example_one()
    good = {"norm_constant": wf.norm_constant,
            "backflow": {"intervals": [list(iv) for iv in report.intervals]}}
    assert checks.figure_one_faults(good) is None
    assert checks.figure_one_faults(dict(good, backflow={"intervals": [["-inf", "inf"]]})) is not None
    assert checks.figure_one_faults(dict(good, norm_constant=1.01 * wf.norm_constant)) is not None


def test_known_defects_are_tagged_by_input():
    tags = {op.label: op.defect for op in workloads.survey(1)}
    narrow = [label for label, tag in tags.items() if tag == "narrow_ring_arc"]
    assert len(narrow) == 2  # the rotated delta = 1e-7 poles, n = 3 and 4
    designs = {op.label: op.defect for op in workloads.design(1)}
    assert designs["design m=8 b=3pi"] is None
    assert designs["design m=16 b=10pi"] == "high_order_design"


def test_fails_without_the_library_sources():
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        os.mkdir(os.path.join(bare, "perfbench"))
        for name in os.listdir(run.HERE):
            if name.endswith(".py"):
                shutil.copy(os.path.join(run.HERE, name), os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            BENCH["command"] + ["--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
