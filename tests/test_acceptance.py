"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime (run with `pytest tests/test_acceptance.py -v -s` to see them).
Tolerances are pinned here and nowhere else."""

import json
import math
import os
import time

import numpy as np
import pytest

from backflow import cli
from backflow import contwave as cw
from backflow import oracle
from backflow import padegen as pg
from backflow import ringwave as rw
from backflow.errors import SingularPoint

SQRT_2PI = math.sqrt(2 * math.pi)


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, number: int, label: str):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"criterion {number} overran: {elapsed:.1f}s"
        print(f"ACCEPTANCE {number:>2} PASS  {label}  [{elapsed:.2f}s < {self.budget:.0f}s]")


def example_one(a: complex) -> cw.LineWaveFunction:
    spec = cw.RationalSpec(zeros=(cw.Root(a),), poles=(cw.Root(-1j, 2),))
    return cw.make_line_wavefunction(spec)


def random_line_spec(rng) -> cw.RationalSpec:
    poles = []
    for _ in range(int(rng.integers(1, 3))):
        poles.append(
            cw.Root(
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.8, -0.4)),
                int(rng.integers(1, 3)),
            )
        )
    n = sum(p.multiplicity for p in poles)
    zeros = []
    target = int(rng.integers(0, n))
    while sum(z.multiplicity for z in zeros) < target:
        cand = complex(
            rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
        )
        if all(abs(cand - p.position) > 1e-2 for p in poles):
            zeros.append(cw.Root(cand, 1))
    return cw.RationalSpec(zeros=tuple(zeros), poles=tuple(poles))


def random_ring_spec(rng) -> cw.RationalSpec:
    zeros = [cw.Root(0j)]
    for _ in range(int(rng.integers(0, 3))):
        mag = rng.choice([rng.uniform(0.3, 0.85), rng.uniform(1.2, 2.2)])
        zeros.append(cw.Root(mag * np.exp(2j * np.pi * rng.uniform()), 1))
    poles = []
    for _ in range(int(rng.integers(0, 3))):
        mag = rng.uniform(1.3, 2.5)
        poles.append(
            cw.Root(mag * np.exp(2j * np.pi * rng.uniform()), int(rng.integers(1, 3)))
        )
    return cw.RationalSpec(zeros=tuple(zeros), poles=tuple(poles))


def test_criterion_01_extremal_current():
    watch = Stopwatch(1.0)
    a = 1j * (2 - math.sqrt(5))
    wf = example_one(a)
    expect = (2 - math.sqrt(5)) / math.pi

    analytic = cw.probability_current(wf, 0.0)
    assert analytic == pytest.approx(expect, abs=1e-10)

    dens = abs(complex(wf(0.0))) ** 2
    numeric = dens * oracle.phase_gradient_fd(wf, 0.0, 1e-5)
    assert numeric == pytest.approx(expect, abs=1e-6)
    watch.done(1, f"j(0) = {analytic:.12f} = (2-sqrt(5))/pi both routes")


def test_criterion_02_spectrum_closed_form():
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(20240810)
    for _ in range(10):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, -0.05))
        if abs(a + 1j) < 1e-2:
            a += 0.1
        wf = example_one(a)
        sp = cw.momentum_spectrum(wf)
        for p in rng.uniform(0.0, 10.0, size=20):
            p = float(p) or 0.01
            expect = -1j * wf.norm_constant * SQRT_2PI * (1 + (1j * a - 1) * p) * math.exp(-p)
            got = cw.eval_spectrum(sp, p)
            assert abs(got - expect) <= 1e-10 * abs(expect)
            ref = oracle.fourier_quadrature(wf, p, tol=1e-8).value
            assert abs(got - ref) <= 1e-6
    watch.done(2, "closed-form momentum spectrum, 10 states x 20 momenta, both routes")


def test_criterion_03_spectrum_positivity_both_geometries():
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(20240811)
    for _ in range(10):
        wf = cw.make_line_wavefunction(random_line_spec(rng))
        sp = cw.momentum_spectrum(wf)
        peak = max(abs(cw.eval_spectrum(sp, float(p))) for p in np.linspace(0.05, 10, 120))
        for p in rng.uniform(-10.0, -0.1, size=5):
            neg = oracle.fourier_quadrature(wf, float(p), tol=1e-8).value
            assert abs(neg) < 1e-6 * peak
    for _ in range(10):
        wf = rw.make_ring_wavefunction(random_ring_spec(rng), 1.0)
        sp = rw.ring_spectrum(wf)
        peak = max(abs(c) for c in sp.coeffs)
        M = 4096
        x = np.arange(M) / M - 0.5
        vals = wf(x)
        for k in range(-20, 1):
            ck = np.sum(vals * np.exp(-2j * np.pi * k * x)) / M
            assert abs(ck) < 1e-6 * peak
    watch.done(3, "negative-momentum content < 1e-6 of peak, 10 line + 10 ring states")


def test_criterion_04_backflow_region_map():
    watch = Stopwatch(30.0)
    margin = 1e-3
    res = np.linspace(-2.0, 2.0, 20)
    ims = np.linspace(-3.0, -0.05, 20)
    checked = 0
    for re in res:
        for im in ims:
            a = complex(re, im)
            d_circle = abs(a + 1.25j) - 0.75
            if abs(d_circle) < margin or abs(im + 2.0) < margin:
                continue
            report = cw.backflow_intervals(example_one(a))
            if d_circle < 0:
                assert report.intervals == (), f"expected no backflow at a={a}"
            elif im > -2.0:
                assert len(report.intervals) == 1, f"expected finite interval at a={a}"
                lo, hi = report.intervals[0]
                assert math.isfinite(lo) and math.isfinite(hi)
            else:
                assert len(report.intervals) == 2, f"expected half-infinite pair at a={a}"
                assert report.intervals[0][0] == -math.inf
                assert report.intervals[1][1] == math.inf
            checked += 1
    assert checked > 350
    watch.done(4, f"backflow case map on {checked} grid points matches the circle/half-plane rule")


def test_criterion_05_ring_example_two():
    watch = Stopwatch(1.0)
    a = math.sqrt(2)
    spec = cw.RationalSpec(zeros=(cw.Root(0j), cw.Root(a + 0j)))
    wf = rw.make_ring_wavefunction(spec, 1.0)
    sp = rw.ring_spectrum(wf)
    assert len(sp.coeffs) == 2
    assert abs(sp.coefficient(1)) ** 2 == pytest.approx(2 / 3, abs=1e-12)
    assert abs(sp.coefficient(2)) ** 2 == pytest.approx(1 / 3, abs=1e-12)

    report = rw.ring_backflow_intervals(wf)
    edge = math.acos((a * a + 2) / (3 * a)) / (2 * math.pi)
    assert len(report.intervals) == 1
    lo, hi = report.intervals[0]
    assert lo == pytest.approx(-edge, abs=1e-6)
    assert hi == pytest.approx(edge, abs=1e-6)
    watch.done(5, f"two-eigenstate ring: |c1|^2 = 2/3, |c2|^2 = 1/3, arc |x| < {edge:.6f}")


def test_criterion_06_ring_example_three():
    watch = Stopwatch(10.0)
    for a, n in [(1.5, 3), (2.0, 4), (1.2, 2)]:
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(a + 0j, n),))
        wf = rw.make_ring_wavefunction(spec, 1.0)
        ref = oracle.single_pole_reference_norm(a, n)
        assert abs(wf.norm_constant - ref) <= 1e-6 * ref
    for a in np.linspace(1.1, 2.9, 10):
        for n in range(2, 7):
            if abs(n - (a + 1)) < 1e-6:
                continue
            spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(float(a), n),))
            wf = rw.make_ring_wavefunction(spec, 1.0)
            report = rw.ring_backflow_intervals(wf)
            assert bool(report.intervals) == (n > a + 1), (a, n)
    watch.done(6, "Parseval norm matches reference integral; backflow iff n > a+1")


def test_criterion_07_pade_designer():
    watch = Stopwatch(10.0)
    from backflow.polyring import Series, poly_from_roots, series_quotient

    m, x0 = 8, math.pi
    reports = {}
    for b in (3 * math.pi, 15 * math.pi):
        problem = pg.PadeProblem(
            profile_coeffs=pg.exp_profile_coeffs(-1.0),
            numerator_degree=m,
            poles=(cw.Root(-1j * b, m + 1),),
            half_width=x0,
        )
        reports[b] = pg.design_wavefunction(problem)

    rep = reports[15 * math.pi]
    B = poly_from_roots(rep.wavefunction.spec.poles)
    taylor = series_quotient(Series(rep.numerator.coeffs), Series(B.coeffs), m + 1)
    for k in range(m + 1):
        want = (-1j) ** k / math.factorial(k)
        assert abs(taylor.coeffs[k] - want) <= 1e-10 * abs(want)

    assert reports[15 * math.pi].max_error_on_interval < reports[3 * math.pi].max_error_on_interval
    ratio = reports[15 * math.pi].amplitude_ratio / reports[3 * math.pi].amplitude_ratio
    assert 1e4 <= ratio <= 1e6
    watch.done(7, f"designed Taylor matches exp(-ix) through k=8; amplitude price x{ratio:.3g}")


def test_criterion_08_amplitude_scaling():
    watch = Stopwatch(30.0)
    m = 8
    pairs = pg.amplitude_scaling_probe(m, [3 * math.pi, 6 * math.pi, 12 * math.pi], math.pi)
    slope = np.polyfit(np.log([b for b, _ in pairs]), np.log([r for _, r in pairs]), 1)[0]
    assert abs(slope - m) <= 0.2 * m
    watch.done(8, f"log amplitude-ratio vs log b slope = {slope:.2f} (target {m} +- 20%)")


def test_criterion_09_phase_gradient_suite():
    watch = Stopwatch(30.0)
    rng = np.random.default_rng(20240812)
    for _ in range(10):
        wf = cw.make_line_wavefunction(random_line_spec(rng))
        used = 0
        while used < 100:
            x = float(rng.uniform(-4, 4))
            try:
                k = cw.local_wavenumber(wf, x)
                fd = oracle.phase_gradient_fd(wf, x, 1e-5)
            except SingularPoint:
                continue
            assert abs(k - fd) <= 1e-4
            used += 1
    for _ in range(10):
        wf = rw.make_ring_wavefunction(random_ring_spec(rng), 1.0)
        used = 0
        while used < 100:
            x = float(rng.uniform(0.0, 1.0))
            try:
                k = rw.ring_wavenumber(wf, x)
                fd = oracle.phase_gradient_fd(wf, x, 1e-6)
            except SingularPoint:
                continue
            assert abs(k - fd) <= 1e-4
            used += 1
    watch.done(9, "analytic k matches finite-difference phase gradient, 20 states x 100 points")


def test_criterion_10_figure_reproduction(tmp_path):
    watch = Stopwatch(30.0)
    outdir = str(tmp_path)
    for fig in (1, 2, 3, 4):
        assert cli.cmd_figure(fig, outdir, samples=2001) == 0

    def load(name):
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            return json.load(fh)

    # figure 1: backflow endpoints at +-1/sqrt(14), one spectrum term family
    rep1 = load("figure1_report.json")
    edge = 1 / math.sqrt(14)
    (lo, hi), = rep1["backflow"]["intervals"]
    assert lo == pytest.approx(-edge, abs=1e-9)
    assert hi == pytest.approx(edge, abs=1e-9)
    assert rep1["norm_constant"] == pytest.approx((math.pi * (1 + 1 / 16) / 2) ** -0.5, rel=1e-9)
    with open(os.path.join(outdir, "figure1_current.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    assert header == ["x", "current", "abs_current"]
    mid = rows[np.argmin(np.abs(rows[:, 0]))]
    assert mid[1] == pytest.approx(-4 / (17 * math.pi), abs=1e-9)

    # figure 2: exactly two spectrum entries, arc edges from the cosine threshold
    rep2 = load("figure2_report.json")
    assert rep2["spectrum_entries"] == 2
    a = math.sqrt(2)
    edge2 = math.acos((a * a + 2) / (3 * a)) / (2 * math.pi)
    (lo2, hi2), = rep2["backflow"]["intervals"]
    assert lo2 == pytest.approx(-edge2, abs=1e-6)
    assert hi2 == pytest.approx(edge2, abs=1e-6)

    # figure 3: arc between the acos(-1/6) crossings
    rep3 = load("figure3_report.json")
    lo_expect = math.acos(-1 / 6) / (2 * math.pi)
    (lo3, hi3), = rep3["backflow"]["intervals"]
    assert lo3 == pytest.approx(lo_expect, abs=1e-6)
    assert hi3 == pytest.approx(1 - lo_expect, abs=1e-6)

    # figure 4: two designs, with the documented error/amplitude trade
    rep4 = load("figure4_report.json")
    designs = {round(d["b"] / math.pi): d for d in rep4["designs"]}
    assert designs[15]["max_error_on_interval"] < designs[3]["max_error_on_interval"]
    ratio = designs[15]["amplitude_ratio"] / designs[3]["amplitude_ratio"]
    assert 1e4 <= ratio <= 1e6
    watch.done(10, "figure datasets 1-4 reproduce the derived feature values")
