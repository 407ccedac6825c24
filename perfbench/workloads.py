"""Seeded inputs for the three workloads.

A workload is a list of operations that the timed loop cycles through, one
at a time (a closed loop with one client). `Op.call` is the only code that
is timed; `Op.check` judges its outcome afterwards against an independent
reference (see checks.py); `Op.defect` names the known-defect class an input
belongs to, so that a failure of such an input is counted in the error rate
without marking the run incorrect.

Each generator takes the seed and hands `backflow` only the generated specs
(and, for `cli`, descriptor files it writes into the run's temporary directory).
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import backflow as bf
import backflow.cli as bf_cli

import checks

# ring_backflow_intervals samples k on this many points per period; the
# narrow-arc defect is an arc narrower than one step with its centre off-grid.
RING_SAMPLES = 4096
CLI_SAMPLES = 2001


@dataclass(frozen=True)
class Op:
    kind: str  # input family, e.g. "c04" or "design"
    label: str  # the exact input, for failure listings
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    defect: str | None = None  # known-defect class of this input, if any
    memo: bool = True  # an equal outcome of the same op gets the same verdict


# ---------------------------------------------------------------------------
# survey: many low-degree states, built and analysed. Construction and
# backflow analysis do nearly all the work and nothing is written to disk.


def _line_op(kind, label, spec, check, defect=None) -> Op:
    def call():
        wf = bf.make_line_wavefunction(spec)
        return wf, bf.momentum_spectrum(wf), bf.backflow_intervals(wf)

    return Op(kind, label, call, lambda out: check(*out), defect)


def _ring_op(kind, label, spec, check, defect=None) -> Op:
    def call():
        wf = bf.make_ring_wavefunction(spec, 1.0)
        return wf, bf.ring_spectrum(wf), bf.ring_backflow_intervals(wf)

    return Op(kind, label, call, lambda out: check(*out), defect)


def _c04_ops() -> list[Op]:
    """The 400-point criterion-04 region map of N(x-a)/(x+i)^2."""
    ops = []
    for re in np.linspace(-2.0, 2.0, 20):
        for im in np.linspace(-3.0, -0.05, 20):
            a = complex(re, im)
            if checks.c04_on_boundary(a):
                continue
            spec = bf.RationalSpec(zeros=(bf.Root(a),), poles=(bf.Root(-1j, 2),))
            ops.append(
                _line_op(
                    "c04", f"line a={a!r}", spec,
                    lambda wf, sp, rep, a=a: checks.example_one_faults(a, wf, sp, rep),
                )
            )
    return ops


def _random_line_spec(rng) -> bf.RationalSpec:
    poles = [
        bf.Root(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.8, -0.4)), int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(1, 3)))
    ]
    target = int(rng.integers(0, sum(p.multiplicity for p in poles)))
    zeros = []
    while len(zeros) < target:
        cand = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]))
        if all(abs(cand - p.position) > 1e-2 for p in poles):
            zeros.append(bf.Root(cand, 1))
    return bf.RationalSpec(zeros=tuple(zeros), poles=tuple(poles))


def _random_ring_spec(rng) -> bf.RationalSpec:
    zeros = [bf.Root(0j)]
    for _ in range(int(rng.integers(0, 3))):
        mag = rng.choice([rng.uniform(0.3, 0.85), rng.uniform(1.2, 2.2)])
        zeros.append(bf.Root(mag * cmath.exp(2j * math.pi * rng.uniform()), 1))
    poles = [
        bf.Root(rng.uniform(1.3, 2.5) * cmath.exp(2j * math.pi * rng.uniform()), int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(0, 3)))
    ]
    return bf.RationalSpec(zeros=tuple(zeros), poles=tuple(poles))


def _single_pole_op(kind, a: complex, n: int, defect=None) -> Op:
    spec = bf.RationalSpec(zeros=(bf.Root(0j),), poles=(bf.Root(a, n),))
    return _ring_op(
        kind, f"ring z/(z-{a!r})^{n}", spec,
        lambda wf, sp, rep: checks.single_pole_ring_faults(a, n, rep, wf),
        defect,
    )


def near_threshold_arc_width(a: float, n: int) -> float:
    """Width, in units of the period, of the backflow arc of z/(z-a)^n when
    a = n - 1 - delta is just inside the threshold: for small delta the arc
    is |phi| < sqrt(2 delta (1+a) / ((n-2) a)) about the point opposite a."""
    delta = n - 1 - a
    return 2 * math.sqrt(2 * delta * (1 + a) / ((n - 2) * a)) / (2 * math.pi)


def survey(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = _c04_ops()
    for _ in range(40):
        spec = _random_line_spec(rng)
        ops.append(
            _line_op(
                "line_random", f"line {spec!r}", spec,
                lambda wf, sp, rep: checks.line_interval_faults(wf, rep.intervals),
            )
        )
    # criterion-06 grid of single-pole rings
    for a in np.linspace(1.1, 2.9, 10):
        for n in range(2, 7):
            if abs(n - (a + 1)) > 1e-6:
                ops.append(_single_pole_op("ring_grid", complex(a), n))
    # poles just inside the threshold n = |a| + 1; the rotated ones sit between
    # two of ring_backflow_intervals' sample points
    step = 2 * math.pi / RING_SAMPLES
    for n in (3, 4):
        for delta in (1e-1, 1e-3, 1e-5, 1e-7):
            a = n - 1 - delta
            narrow = near_threshold_arc_width(a, n) < 1.0 / RING_SAMPLES
            ops.append(_single_pole_op("ring_threshold", complex(a), n))
            turn = cmath.exp(1j * step * rng.uniform(0.4, 0.6))
            ops.append(
                _single_pole_op(
                    "ring_threshold", a * turn, n, "narrow_ring_arc" if narrow else None
                )
            )
    for _ in range(40):
        spec = _random_ring_spec(rng)
        ops.append(
            _ring_op(
                "ring_random", f"ring {spec!r}", spec,
                lambda wf, sp, rep: checks.ring_interval_faults(wf, rep.intervals),
            )
        )
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# design: exp(-ix) designs on (-pi, pi) with an order-(m+1) pole at -ib.
# High-degree polyring work (companion roots, coefficient spans near 1e23) and
# padegen carry the time; no ring code and no file output run here.

DESIGN_M = range(4, 21)
DESIGN_B_OVER_PI = (2.0, 3.0, 4.5, 6.5, 10.0, 15.0)
HIGH_ORDER_M = 9  # from here on the pole product loses coefficients and k its roots


def _design_op(m: int, b: float) -> Op:
    profile = bf.exp_profile_coeffs(-1.0)
    problem = bf.PadeProblem(profile, m, (bf.Root(-1j * b, m + 1),), math.pi)

    def call():
        report = bf.design_wavefunction(problem)
        return report, bf.backflow_intervals(report.wavefunction)

    def check(out):
        report, backflow = out
        fault = checks.taylor_match_faults(report.numerator.coeffs, -1j * b, m + 1, profile, m)
        return fault or checks.line_interval_faults(report.wavefunction, backflow.intervals)

    return Op(
        "design", f"design m={m} b={b / math.pi:g}pi", call, check,
        "high_order_design" if m >= HIGH_ORDER_M else None,
    )


def design(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = [_design_op(m, f * math.pi) for m in DESIGN_M for f in DESIGN_B_OVER_PI]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# cli: in-process `backflow.cli.main` over a fixed rotation. Field sampling,
# CSV/JSON writing and the oracle's verify path do most of their work here.


def _ring_descriptor(pole: complex, n: int):
    """z / (z - pole)^n on a ring of period 1."""
    return {
        "kind": "ring",
        "period": 1.0,
        "zeros": [{"re": 0.0, "im": 0.0, "mult": 1}],
        "poles": [{"re": pole.real, "im": pole.imag, "mult": n}],
    }


def _main(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bf_cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _cli_op(label, argv, check) -> Op:
    def judge(out):
        code, text = out
        if code != 0:
            return f"exit code {code}: {text.strip()[:200]}"
        return check(text)

    return Op("cli_" + argv[0], label, lambda: _main(argv), judge, memo=False)


def cli(seed: int, workdir: str) -> list[Op]:
    """The rotation; descriptors are written into `workdir`, which also takes
    every output. The radius-1.01 ring, the slowest analysis, runs twice per
    rotation, once turned by a seeded angle, so that op_ms_p90 falls among
    its runs rather than on the edge between it and the next slowest."""
    rng = np.random.default_rng(seed)
    ring3_lo = math.acos(-1 / 6) / (2 * math.pi)
    turn = float(rng.uniform(0.0, 1.0))  # in periods
    descriptors = {
        "example1": {
            "kind": "line",
            "zeros": [{"re": 0.0, "im": -0.25, "mult": 1}],
            "poles": [{"re": 0.0, "im": -1.0, "mult": 2}],
        },
        "ring3": _ring_descriptor(1.5, 3),
        "ring101": _ring_descriptor(1.01, 3),
        "ring101_turned": _ring_descriptor(1.01 * cmath.exp(2j * math.pi * turn), 3),
    }
    path = {}
    for name, payload in descriptors.items():
        path[name] = os.path.join(workdir, f"{name}.json")
        with open(path[name], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    design_path = os.path.join(workdir, "design_m8_b3pi.json")
    b = 3 * math.pi
    with open(design_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "profile": {"kind": "exp", "kappa": -1.0},
                "m": 8,
                "x0": math.pi,
                "poles": [{"re": 0.0, "im": -b, "mult": 9}],
            },
            fh,
        )
    figdir = os.path.join(workdir, "figures")

    def analyze(name, extra):
        prefix = os.path.join(workdir, f"analyze_{name}")

        def check(_text):
            report = checks.load_json(prefix + "_report.json")
            spectrum_rows = CLI_SAMPLES if name == "example1" else len(report["spectrum"])
            return (
                checks.row_faults([prefix + "_field.csv"], CLI_SAMPLES)
                or checks.row_faults([prefix + "_spectrum.csv"], spectrum_rows)
                or extra(report)
            )

        return _cli_op(
            f"analyze {name}", ["analyze", "--input", path[name], "--output", prefix], check
        )

    def ring101_arc(centre):
        # n = 3 > 1.01 + 1: one arc, centred opposite the pole
        def check(report):
            ivs = checks.json_intervals(report["backflow"])
            if len(ivs) != 1 or not (centre - ivs[0][0]) % 1.0 < ivs[0][1] - ivs[0][0]:
                return f"radius-1.01 ring arcs {ivs!r}, expected one arc about x = {centre!r}"
            return None

        return check

    def design_check(_text):
        prefix = os.path.join(workdir, "design")
        report = checks.load_json(prefix + "_report.json")
        numerator = [complex(c["re"], c["im"]) for c in report["numerator"]]
        return checks.row_faults([prefix + "_field.csv"], CLI_SAMPLES) or checks.taylor_match_faults(
            numerator, -1j * b, 9, bf.exp_profile_coeffs(-1.0), 8
        )

    def figure_check(fig):
        prefix = os.path.join(figdir, f"figure{fig}")

        def check(_text):
            if fig == 4:
                csvs = [
                    f"{prefix}_b{tag}pi_{part}.csv" for tag in (3, 15) for part in ("density", "wave")
                ]
            else:
                csvs = [f"{prefix}_{part}.csv" for part in ("density", "wavenumber", "current")]
            fault = checks.row_faults(csvs, CLI_SAMPLES)
            if fault:
                return fault
            report = checks.load_json(prefix + "_report.json")
            if fig == 1:
                return checks.figure_one_faults(report)
            if fig == 2:
                edge = math.acos(4 / (3 * math.sqrt(2))) / (2 * math.pi)
                if report["spectrum_entries"] != 2:
                    return f"figure 2 has {report['spectrum_entries']} spectrum entries, expected 2"
                return checks.ring_arc_faults(report, -edge, edge)
            if fig == 3:
                return checks.ring_arc_faults(report, ring3_lo, 1 - ring3_lo)
            designs = report["designs"]
            if len(designs) != 2 or not designs[1]["max_error_on_interval"] < designs[0]["max_error_on_interval"]:
                return f"figure 4 designs {designs!r} lack the error/distance trade"
            return None

        return check

    def verify_check(text):
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or any(" PASS " not in line for line in lines):
            return f"verify output not all PASS: {text.strip()[:200]}"
        return None

    rotation = [
        analyze("example1", checks.figure_one_faults),
        analyze("ring3", lambda rep: checks.ring_arc_faults(rep, ring3_lo, 1 - ring3_lo)),
        analyze("ring101", ring101_arc(0.5)),
        analyze("ring101_turned", ring101_arc(turn + 0.5)),
        _cli_op(
            "design m=8 b=3pi",
            ["design", "--input", design_path, "--output", os.path.join(workdir, "design")],
            design_check,
        ),
        *(
            _cli_op(f"figure {fig}", ["figure", "--figure", str(fig), "--output", figdir], figure_check(fig))
            for fig in (1, 2, 3, 4)
        ),
        _cli_op("verify example1", ["verify", "--input", path["example1"]], verify_check),
        _cli_op("verify ring3", ["verify", "--input", path["ring3"]], verify_check),
    ]
    return [rotation[i] for i in rng.permutation(len(rotation))]
