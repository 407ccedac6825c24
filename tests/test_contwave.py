import math

import mpmath
import numpy as np
import pytest

from backflow import contwave as cw
from backflow import oracle
from backflow import padegen as pg
from backflow.errors import SingularPoint, SpecViolation

SQRT_2PI = math.sqrt(2 * math.pi)


def example_one(a: complex) -> cw.LineWaveFunction:
    """psi = N (x - a) / (x + i)^2."""
    spec = cw.RationalSpec(zeros=(cw.Root(a),), poles=(cw.Root(-1j, 2),))
    return cw.make_line_wavefunction(spec)


def example_one_norm(a: complex) -> float:
    return (math.pi * (abs(a) ** 2 + 1) / 2) ** -0.5


def example_one_spectrum(a: complex, N: float, p: float) -> complex:
    return -1j * N * SQRT_2PI * (1 + (1j * a - 1) * p) * math.exp(-p)


class TestConstruction:
    def test_norm_matches_closed_form(self):
        a = -0.25j
        wf = example_one(a)
        assert wf.norm_constant == pytest.approx(example_one_norm(a), rel=1e-9)

    def test_norm_single_simple_pole(self):
        spec = cw.RationalSpec(poles=(cw.Root(-1j, 1),))
        wf = cw.make_line_wavefunction(spec)
        assert wf.norm_constant == pytest.approx(1 / math.sqrt(math.pi), rel=1e-9)

    def test_norm_two_simple_poles(self):
        # 1/((x^2+1)(x^2+4)) integrates to pi/6
        spec = cw.RationalSpec(poles=(cw.Root(-1j), cw.Root(-2j)))
        wf = cw.make_line_wavefunction(spec)
        assert wf.norm_constant == pytest.approx(math.sqrt(6 / math.pi), rel=1e-9)

    def test_zero_pole_collision_rejected(self):
        with pytest.raises(SpecViolation):
            cw.RationalSpec(zeros=(cw.Root(-1j),), poles=(cw.Root(-1j, 2),))

    def test_m_ge_n_rejected(self):
        with pytest.raises(SpecViolation):
            cw.make_line_wavefunction(
                cw.RationalSpec(zeros=(cw.Root(1j), cw.Root(2j)), poles=(cw.Root(-1j),))
            )

    def test_upper_half_plane_pole_rejected(self):
        with pytest.raises(SpecViolation):
            cw.make_line_wavefunction(cw.RationalSpec(poles=(cw.Root(1j),)))

    @pytest.mark.parametrize("mult", [2.5, True, math.inf, math.nan, "2"])
    def test_non_integral_multiplicity_rejected(self, mult):
        with pytest.raises(SpecViolation, match="pole multiplicity must be an integer"):
            cw.RationalSpec(poles=(cw.Root(-1j, mult),))

    @pytest.mark.parametrize("mult", [2.0, np.int64(2), np.float64(2.0)])
    def test_integral_multiplicity_kept(self, mult):
        (pole,) = cw.RationalSpec(poles=(cw.Root(-1j, mult),)).poles
        assert type(pole.multiplicity) is int and pole.multiplicity == 2

    @pytest.mark.parametrize("mult", [0, -1])
    def test_multiplicity_below_one_rejected(self, mult):
        with pytest.raises(SpecViolation, match="zero multiplicity must be >= 1"):
            cw.RationalSpec(zeros=(cw.Root(-0.25j, mult),), poles=(cw.Root(-1j, 2),))

    @pytest.mark.parametrize("position", [complex(math.nan, -1), complex(0, -math.inf), complex(math.inf, -1)])
    def test_non_finite_position_rejected(self, position):
        with pytest.raises(SpecViolation, match="pole position must be finite"):
            cw.RationalSpec(poles=(cw.Root(position, 2),))

    def test_duplicate_roots_merge(self):
        spec = cw.RationalSpec(poles=(cw.Root(-1j), cw.Root(-1j + 1e-12)))
        assert len(spec.poles) == 1
        assert spec.poles[0].multiplicity == 2

    def test_builds_without_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("line construction called the quadrature oracle")

        monkeypatch.setattr(oracle, "norm_quadrature", refuse)
        assert example_one(-0.25j).norm_constant == pytest.approx(example_one_norm(-0.25j), rel=1e-12)
        assert pg.design_wavefunction(pg.exp_design_problem(8, 3 * math.pi, math.pi)).wavefunction.norm_constant > 0

    def test_normalizes_on_the_line_chart(self, monkeypatch):
        # one map of a line state onto the circle, read by the normalizer as by the analysis
        charts = []
        line_chart = cw._line_chart
        monkeypatch.setattr(cw, "_line_chart", lambda spec: charts.append(spec) or line_chart(spec))
        wf = example_one(-0.25j)
        assert charts == [wf.spec]

    def test_construction_and_analyses_share_one_chart(self):
        cw._line_chart.cache_clear()
        wf = example_one(-0.25j)
        cw.backflow_intervals(wf)
        cw.density_critical_points(wf)
        assert cw._line_chart.cache_info().misses == 1


def mp_norm_integral(spec: cw.RationalSpec):
    """integral |f|^2 dx at 40 digits from the same float root data, broken at each
    root's real part and at steps growing x4 from its |Im| on both sides."""
    with mpmath.workdps(40):
        rows = [(mpmath.mpc(r.position), sign * r.multiplicity)
                for sign, roots in ((1, spec.zeros), (-1, spec.poles)) for r in roots]
        points = {z.real + side * abs(z.imag) * 4**k for z, _ in rows for side in (-1, 1) for k in range(8)}
        return mpmath.quad(
            lambda x: mpmath.fprod(abs(x - z) ** (2 * p) for z, p in rows),
            [-mpmath.inf, *sorted(points), mpmath.inf],
        )


def example_one_moved(scale: float, offset: float = 0.0) -> cw.RationalSpec:
    """(x + i/4) / (x + i)^2 stretched by `scale` and moved to x = offset * scale."""
    return cw.RationalSpec(
        zeros=(cw.Root(scale * (offset - 0.25j)),), poles=(cw.Root(scale * (offset - 1j), 2),)
    )


class TestChartNormalization:
    """The chart quadrature against mpmath: on valid states whose |f|^2 the oracle's tan-mapped
    quadrature cannot integrate (it raises QuadratureFailure), and on charts that reorder the roots."""

    @pytest.mark.parametrize(
        "scale, offset", [(1e-8, 0.0), (1e12, 0.0), (1e-8, 1e6), (1.0, 1e6), (1e12, 1e6)]
    )
    def test_example_one_scaled_and_translated(self, scale, offset):
        spec = example_one_moved(scale, offset)
        wf = cw.make_line_wavefunction(spec)
        assert wf.norm_constant**-2 == pytest.approx(float(mp_norm_integral(spec)), rel=1e-11)

    def test_pole_close_to_the_axis(self):
        spec = cw.RationalSpec(zeros=(cw.Root(0.3 - 0.2j),), poles=(cw.Root(-1e-6j), cw.Root(1 - 1j)))
        expect = float(mp_norm_integral(spec))
        assert expect == pytest.approx(204205.72159746366, rel=1e-15)
        assert cw.make_line_wavefunction(spec).norm_constant**-2 == pytest.approx(expect, rel=1e-11)

    def test_real_zero_ordered_last(self):
        spec = cw.RationalSpec(zeros=(cw.Root(0.5), cw.Root(0.3 - 0.25j)), poles=(cw.Root(-1j, 3),))
        assert cw._line_chart(spec).zeta[-1, 0].imag == 0
        expect = float(mp_norm_integral(spec))
        assert cw.make_line_wavefunction(spec).norm_constant**-2 == pytest.approx(expect, rel=1e-11)

    def test_far_pole_design(self):
        spec = pg.design_wavefunction(pg.exp_design_problem(5, 10 * math.pi, math.pi)).wavefunction.spec
        expect = float(mp_norm_integral(spec))
        assert cw.make_line_wavefunction(spec).norm_constant**-2 == pytest.approx(expect, rel=1e-11)


class TestEvalPsi:
    def test_value_at_origin(self):
        a = -0.25j
        wf = example_one(a)
        # f(0) = (-a)/(i)^2 = a
        assert complex(wf(0.0)) == pytest.approx(wf.norm_constant * a, rel=1e-12)
        dens = abs(wf(0.0)) ** 2
        assert dens == pytest.approx(2 / (17 * math.pi), rel=1e-9)

    def test_asymptotic_decay(self):
        wf = example_one(-0.25j)
        x = 1e6
        expect = wf.norm_constant**2 * x ** (2 * (1 - 2))
        assert abs(wf(x)) ** 2 == pytest.approx(expect, rel=1e-4)

    def test_real_zero(self):
        spec = cw.RationalSpec(zeros=(cw.Root(1.0),), poles=(cw.Root(-1j, 2),))
        wf = cw.make_line_wavefunction(spec)
        assert wf(1.0) == 0

    def test_array_evaluation(self):
        wf = example_one(-0.25j)
        xs = np.linspace(-2, 2, 7)
        vals = wf(xs)
        assert vals.shape == xs.shape
        assert complex(vals[3]) == pytest.approx(complex(wf(0.0)))


class TestMomentumSpectrum:
    def test_example_one_closed_form(self):
        a = 0.7 - 1.3j
        wf = example_one(a)
        sp = cw.momentum_spectrum(wf)
        assert len(sp.terms) == 1
        assert len(sp.terms[0].coeffs) == 2
        for p in (0.3, 1.0, 2.7, 8.9):
            expect = example_one_spectrum(a, wf.norm_constant, p)
            got = cw.eval_spectrum(sp, p)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_single_simple_pole_spectrum(self):
        spec = cw.RationalSpec(poles=(cw.Root(-1j),))
        wf = cw.make_line_wavefunction(spec)
        sp = cw.momentum_spectrum(wf)
        (term,) = sp.terms
        assert term.coeffs == pytest.approx((-1j * wf.norm_constant * SQRT_2PI,))
        assert cw.eval_spectrum(sp, 2.0) == pytest.approx(
            -1j * wf.norm_constant * SQRT_2PI * math.exp(-2.0), rel=1e-12
        )

    def test_two_pole_spectrum_against_oracle(self):
        spec = cw.RationalSpec(poles=(cw.Root(-1j), cw.Root(-2j)))
        wf = cw.make_line_wavefunction(spec)
        sp = cw.momentum_spectrum(wf)
        for p in (0.5, 1.0, 2.0):
            got = cw.eval_spectrum(sp, p)
            ref = oracle.fourier_quadrature(wf, p, tol=1e-9).value
            assert got == pytest.approx(ref, abs=1e-7)

    def test_negative_p_is_zero(self):
        sp = cw.momentum_spectrum(example_one(-0.25j))
        assert cw.eval_spectrum(sp, -1.0) == 0

    def test_principal_value_at_zero(self):
        a = -0.25j
        wf = example_one(a)
        sp = cw.momentum_spectrum(wf)
        # decay exponent 1: half of the p -> 0+ limit, i.e. -i N sqrt(pi/2)
        assert cw.eval_spectrum(sp, 0.0) == pytest.approx(
            -1j * wf.norm_constant * math.sqrt(math.pi / 2), rel=1e-12
        )

    def test_value_at_p_one(self):
        a = -0.25j
        wf = example_one(a)
        sp = cw.momentum_spectrum(wf)
        expect = -1j * wf.norm_constant * SQRT_2PI * 0.25 * math.exp(-1.0)
        assert cw.eval_spectrum(sp, 1.0) == pytest.approx(expect, rel=1e-12)


class TestLocalWavenumber:
    def test_example_one_at_origin(self):
        wf = example_one(-0.25j)
        assert cw.local_wavenumber(wf, 0.0) == pytest.approx(-2.0, rel=1e-12)

    def test_zero_crossings(self):
        wf = example_one(-0.25j)
        edge = 1 / math.sqrt(14)
        assert cw.local_wavenumber(wf, edge) == pytest.approx(0.0, abs=1e-12)
        assert cw.local_wavenumber(wf, -edge) == pytest.approx(0.0, abs=1e-12)

    def test_upper_half_plane_zeros_keep_k_positive(self):
        rng = np.random.default_rng(7)
        spec = cw.RationalSpec(
            zeros=(cw.Root(0.4 + 0.8j), cw.Root(-1.1 + 0.3j)),
            poles=(cw.Root(-0.2 - 1.0j, 2), cw.Root(1.0 - 0.7j)),
        )
        wf = cw.make_line_wavefunction(spec)
        for x in rng.uniform(-8, 8, size=100):
            assert cw.local_wavenumber(wf, float(x)) > 0

    def test_singular_at_real_zero(self):
        spec = cw.RationalSpec(zeros=(cw.Root(1.0),), poles=(cw.Root(-1j, 2),))
        wf = cw.make_line_wavefunction(spec)
        with pytest.raises(SingularPoint):
            cw.local_wavenumber(wf, 1.0)


class TestProbabilityCurrent:
    def test_example_one_at_origin(self):
        a = -0.25j
        wf = example_one(a)
        expect = (2 / math.pi) * (-0.25 + 2 * 0.0625) / (1 + 0.0625)
        assert cw.probability_current(wf, 0.0) == pytest.approx(expect, rel=1e-9)
        # same thing via |psi(0)|^2 * k(0) = (2/(17 pi)) * (-2)
        assert expect == pytest.approx(-4 / (17 * math.pi))

    def test_extremal_current(self):
        a = 1j * (2 - math.sqrt(5))
        wf = example_one(a)
        assert cw.probability_current(wf, 0.0) == pytest.approx(
            (2 - math.sqrt(5)) / math.pi, abs=1e-10
        )

    def test_zero_at_real_zero(self):
        spec = cw.RationalSpec(zeros=(cw.Root(1.0),), poles=(cw.Root(-1j, 2),))
        wf = cw.make_line_wavefunction(spec)
        assert cw.probability_current(wf, 1.0) == 0.0


class TestBackflowIntervals:
    def test_finite_interval(self):
        wf = example_one(-0.25j)
        report = cw.backflow_intervals(wf)
        edge = 1 / math.sqrt(14)
        assert len(report.intervals) == 1
        lo, hi = report.intervals[0]
        assert lo == pytest.approx(-edge, abs=1e-10)
        assert hi == pytest.approx(edge, abs=1e-10)
        assert abs(cw.local_wavenumber(wf, lo)) < 1e-10
        assert abs(cw.local_wavenumber(wf, hi)) < 1e-10
        mid = 0.5 * (lo + hi)
        assert cw.local_wavenumber(wf, mid) < 0
        assert cw.probability_current(wf, mid) < 0
        assert report.min_wavenumber == pytest.approx(-2.0, rel=1e-9)
        assert report.min_current < 0

    def test_half_infinite_intervals(self):
        wf = example_one(-3j)
        report = cw.backflow_intervals(wf)
        # k = -3/(x^2+9) + 2/(x^2+1) < 0 for |x| > sqrt(15)
        assert len(report.intervals) == 2
        (lo1, hi1), (lo2, hi2) = report.intervals
        assert lo1 == -math.inf
        assert hi1 == pytest.approx(-math.sqrt(15), abs=1e-10)
        assert lo2 == pytest.approx(math.sqrt(15), abs=1e-10)
        assert hi2 == math.inf

    def test_no_backflow_inside_circle(self):
        # |a + 5i/4| <= 3/4 suppresses backflow; avoid a = -i (pole collision)
        wf = example_one(-0.8j)
        report = cw.backflow_intervals(wf)
        assert report.intervals == ()
        xs = np.linspace(-30, 30, 1501)
        assert all(cw.local_wavenumber(wf, float(x)) >= 0 for x in xs)

    def test_forward_flow_reports_minima_at_infinity(self):
        # j > 0 everywhere: the infimum 0 of k and of j is only approached in the tails
        wf = example_one(-0.8j)
        report = cw.backflow_intervals(wf)
        assert (report.min_wavenumber, report.min_wavenumber_location) == (0.0, math.inf)
        assert (report.min_current, report.min_current_location) == (0.0, math.inf)

    def test_tangency_is_flagged_not_reported(self):
        # a = -i/2 sits on the excluded-circle boundary: k >= 0 with a double
        # root at the origin, reported as a tangency rather than an interval
        wf = example_one(-0.5j)
        report = cw.backflow_intervals(wf)
        assert report.intervals == ()
        assert len(report.tangencies) == 1
        assert report.tangencies[0] == pytest.approx(0.0, abs=1e-6)

    def test_boundary_im_minus_two_single_half_infinite(self):
        # a2 = -2 with a1 > 0: k = 0 once, backflow on x > x1 only
        wf = example_one(1.0 - 2.0j)
        report = cw.backflow_intervals(wf)
        assert len(report.intervals) == 1
        lo, hi = report.intervals[0]
        assert hi == math.inf
        assert math.isfinite(lo)
        assert cw.local_wavenumber(wf, lo + 1.0) < 0
        assert cw.local_wavenumber(wf, lo - 1.0) > 0


def merged(xs, tol=1e-9):
    """Sorted xs with points closer than tol to the previous kept one dropped."""
    out = []
    for x in sorted(xs):
        if not out or x - out[-1] > tol:
            out.append(x)
    return out


class TestDensityCriticalPoints:
    def test_example_one(self):
        # |psi|^2 = N^2 (x^2 + 1/16) / (x^2 + 1)^2: (|psi|^2)' vanishes at 0 and where x^2 = 7/8
        points = merged(cw.density_critical_points(example_one(-0.25j)))
        assert points == pytest.approx([-math.sqrt(7 / 8), 0.0, math.sqrt(7 / 8)], abs=1e-12)

    def test_real_zero(self):
        # |psi|^2 = N^2 (x - 1)^2 / (x^2 + 1)^2: maxima where x^2 - 2x - 1 = 0, the zero x = 1 a minimum
        points = [x for x in merged(cw.density_critical_points(example_one(1.0))) if abs(x - 1) > 1e-9]
        assert points == pytest.approx([1 - math.sqrt(2), 1 + math.sqrt(2)], abs=1e-12)


def exp_design(m: int, b: float) -> cw.LineWaveFunction:
    """exp(-ix) on (-pi, pi) with an order-(m+1) pole at -ib."""
    return pg.design_wavefunction(pg.exp_design_problem(m, b, math.pi)).wavefunction


def mp_wavenumber(wf: cw.LineWaveFunction, slope: bool = False):
    """k(x), or k'(x), at 50 digits from the same float root data."""

    def k(x):
        total = mpmath.mpf(0)
        for sign, roots in ((1, wf.spec.zeros), (-1, wf.spec.poles)):
            for r in roots:
                u, v = mpmath.mpf(r.position.real), mpmath.mpf(r.position.imag)
                d2 = (x - u) ** 2 + v**2
                total += sign * r.multiplicity * v * (-2 * (x - u) / d2**2 if slope else 1 / d2)
        return total

    return k


class TestHighOrderDesigns:
    """The exp(-ix) designs have k = -1 on (-pi, pi) and a pole product with
    coefficients spanning ~1e23; each answer is checked at 50 digits."""

    @pytest.mark.parametrize("m, b, edge", [(16, 10 * math.pi, 4.6), (20, 15 * math.pi, 7.01)])
    def test_finite_crossings(self, m, b, edge):
        wf = exp_design(m, b)
        report = cw.backflow_intervals(wf)
        assert len(report.intervals) == 1
        lo, hi = report.intervals[0]
        assert lo == pytest.approx(-edge, abs=0.05) and hi == pytest.approx(edge, abs=0.05)
        k = mp_wavenumber(wf)
        with mpmath.workdps(50):
            assert k(mpmath.mpf(0.5 * (lo + hi))) < 0
            for end in (lo, hi):
                root = mpmath.findroot(k, mpmath.mpf(end))
                assert abs(end - root) <= 1e-12 * max(1.0, abs(end))
                assert k(mpmath.mpf(end) - 1e-6) * k(mpmath.mpf(end) + 1e-6) < 0

    def test_residues_against_mpmath(self):
        # the full degree-20 numerator, whose top coefficients are far below its
        # peak, and the first 21 Taylor coefficients of prod (z - a) about the pole
        m, b = 20, 15 * math.pi
        report = pg.design_wavefunction(pg.exp_design_problem(m, b, math.pi))
        assert len(report.numerator.coeffs) == m + 1
        wf = report.wavefunction
        (term,) = cw.momentum_spectrum(wf).terms
        with mpmath.workdps(60):
            pole = mpmath.mpc(term.pole)
            taylor = [mpmath.mpc(1)]  # prod (u - (a - pole)), ascending powers of u
            for r in wf.spec.zeros:
                for _ in range(r.multiplicity):
                    shift = mpmath.mpc(r.position) - pole
                    taylor = [(taylor[k - 1] if k else 0) - shift * (taylor[k] if k < len(taylor) else 0)
                              for k in range(len(taylor) + 1)]
            pref = mpmath.mpc(-1j * wf.norm_constant * wf.phase * SQRT_2PI)
            ref = [complex(pref * taylor[m - k] / mpmath.factorial(k)) for k in range(m + 1)]
        peak = max(abs(c) for c in ref)
        assert max(abs(got - want) for got, want in zip(term.coeffs, ref)) <= 1e-13 * peak

    def test_global_minimum_of_k(self):
        wf = exp_design(10, 10 * math.pi)
        report = cw.backflow_intervals(wf)
        x = report.min_wavenumber_location
        with mpmath.workdps(50):
            x0 = mpmath.findroot(mp_wavenumber(wf, slope=True), (mpmath.mpf(x), mpmath.mpf(x) + 1e-9))
            assert abs(x0 - x) < 1e-9
            assert report.min_wavenumber == pytest.approx(float(mp_wavenumber(wf)(x0)), rel=1e-12)
        assert report.min_wavenumber == pytest.approx(-443.10, abs=0.01)
        xs = np.linspace(-8.0, 8.0, 4001)
        assert report.min_wavenumber <= cw.local_wavenumber(wf, xs).min()

    def test_minimum_on_the_flat_stretch(self):
        # k = -1 to ~1e-15 on (-pi, pi) is the minimum; the roots of the k'
        # polynomial there scatter off the circle
        wf = exp_design(5, 4.5 * math.pi)
        report = cw.backflow_intervals(wf)
        xs = np.linspace(-8.0, 8.0, 16001)
        assert report.min_wavenumber <= cw.local_wavenumber(wf, xs).min() + 1e-12
        assert abs(report.min_wavenumber_location) < math.pi


@pytest.mark.parametrize(
    "zeros, poles, centres",
    [
        # two zeros 1e-6 below the axis: dips of depth ~1e6 and width ~1e-3
        ([0.3 - 1e-6j, -0.5 - 1e-6j], [(-1j, 3)], [-0.5, 0.3]),
        # a dip of depth 1e5 next to a zero just above the axis and a near pole
        ([-1.86 - 1e-5j, -1.56 + 0.007j], [(2.3 - 0.003j, 3), (-1.7 - 0.2j, 3)], [-1.86]),
    ],
)
def test_zeros_near_the_axis(zeros, poles, centres):
    spec = cw.RationalSpec(zeros=tuple(cw.Root(a) for a in zeros), poles=tuple(cw.Root(*b) for b in poles))
    wf = cw.make_line_wavefunction(spec)
    report = cw.backflow_intervals(wf)
    assert [round(0.5 * (lo + hi), 2) for lo, hi in report.intervals] == centres
    k, slope = mp_wavenumber(wf), mp_wavenumber(wf, slope=True)
    with mpmath.workdps(50):
        for end in (v for interval in report.intervals for v in interval):
            assert abs(end - mpmath.findroot(k, (mpmath.mpf(end), mpmath.mpf(end) + 1e-9))) <= 1e-12
        x = report.min_wavenumber_location
        x0 = mpmath.findroot(slope, (mpmath.mpf(x), mpmath.mpf(x) + 1e-12))
        assert report.min_wavenumber == pytest.approx(float(k(x0)), rel=1e-12)


class TestProperties:
    """Invariant suite on seeded random wave functions."""

    def _random_spec(self, rng) -> cw.RationalSpec:
        n_poles = rng.integers(1, 3)
        poles = []
        for _ in range(n_poles):
            poles.append(
                cw.Root(
                    complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.8, -0.4)),
                    int(rng.integers(1, 3)),
                )
            )
        n = sum(p.multiplicity for p in poles)
        zeros = []
        m_total = int(rng.integers(0, n))
        while sum(z.multiplicity for z in zeros) < m_total:
            im = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
            cand = complex(rng.uniform(-1.5, 1.5), im)
            if all(abs(cand - p.position) > 1e-2 for p in poles):
                zeros.append(cw.Root(cand, 1))
        return cw.RationalSpec(zeros=tuple(zeros), poles=tuple(poles))

    def test_normalization_and_positivity(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            wf = cw.make_line_wavefunction(self._random_spec(rng))
            total = oracle.norm_quadrature(wf, 1e-10).value.real
            assert total == pytest.approx(1.0, abs=1e-8)
            sp = cw.momentum_spectrum(wf)
            peak = max(abs(cw.eval_spectrum(sp, p)) for p in np.linspace(0.05, 10, 120))
            for p in rng.uniform(-10, -0.1, size=3):
                neg = oracle.fourier_quadrature(wf, float(p), tol=1e-9).value
                assert abs(neg) < 1e-6 * peak

    def test_analytic_numeric_agreement(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            wf = cw.make_line_wavefunction(self._random_spec(rng))
            sp = cw.momentum_spectrum(wf)
            for p in rng.uniform(0.1, 10, size=5):
                got = cw.eval_spectrum(sp, float(p))
                ref = oracle.fourier_quadrature(wf, float(p), tol=1e-9).value
                assert abs(got - ref) < 1e-6 * max(1.0, abs(got))

    def test_phase_gradient_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            wf = cw.make_line_wavefunction(self._random_spec(rng))
            checked = 0
            while checked < 30:
                x = float(rng.uniform(-4, 4))
                try:
                    k = cw.local_wavenumber(wf, x)
                    fd = oracle.phase_gradient_fd(wf, x, 1e-5)
                except SingularPoint:
                    continue
                assert fd == pytest.approx(k, abs=1e-4)
                checked += 1

    def test_gauge_invariance(self):
        wf = example_one(0.3 - 0.9j)
        rotated = cw.with_phase(wf, -0.6 + 2.2j)
        for x in (-1.7, 0.1, 2.3):
            assert abs(rotated(x)) ** 2 == pytest.approx(abs(wf(x)) ** 2, rel=1e-10)
            assert cw.local_wavenumber(rotated, x) == cw.local_wavenumber(wf, x)
            assert cw.probability_current(rotated, x) == pytest.approx(
                cw.probability_current(wf, x), rel=1e-10
            )

    def test_zero_phase_rejected(self):
        with pytest.raises(ValueError, match="phase must be nonzero"):
            cw.with_phase(example_one(0.3 - 0.9j), 0)

    def test_translation_covariance(self):
        a, shift = 0.4 - 1.1j, 2.5
        spec = cw.RationalSpec(zeros=(cw.Root(a),), poles=(cw.Root(-1j, 2),))
        moved = cw.RationalSpec(
            zeros=(cw.Root(a + shift),), poles=(cw.Root(-1j + shift, 2),)
        )
        wf = cw.LineWaveFunction(spec, 1.0)
        wf_moved = cw.LineWaveFunction(moved, 1.0)
        for x in (-3.0, -0.2, 1.9):
            assert cw.local_wavenumber(wf_moved, x + shift) == pytest.approx(
                cw.local_wavenumber(wf, x), abs=1e-10
            )

    def test_backflow_sign_structure(self):
        rng = np.random.default_rng(19)
        found_intervals = 0
        for _ in range(6):
            spec = self._random_spec(rng)
            if not any(z.position.imag < 0 for z in spec.zeros):
                continue
            wf = cw.make_line_wavefunction(spec)
            report = cw.backflow_intervals(wf)
            for lo, hi in report.intervals:
                mid = (
                    0.5 * (lo + hi)
                    if math.isfinite(lo) and math.isfinite(hi)
                    else (hi - 1.0 if math.isfinite(hi) else lo + 1.0)
                )
                assert cw.local_wavenumber(wf, mid) < 0
                assert cw.probability_current(wf, mid) < 0
                found_intervals += 1
            for x in rng.uniform(-6, 6, size=40):
                x = float(x)
                if any(lo < x < hi for lo, hi in report.intervals):
                    continue
                try:
                    assert cw.local_wavenumber(wf, x) >= -1e-12
                except SingularPoint:
                    pass
        assert found_intervals > 0

    def test_smoothness_at_p_zero(self):
        # n - m = 4: spectrum is twice continuously differentiable at p = 0,
        # so one-sided derivative estimates from the right must vanish like
        # the identically-zero left side.
        spec = cw.RationalSpec(poles=(cw.Root(-1j, 2), cw.Root(-2j, 2)))
        wf = cw.make_line_wavefunction(spec)
        sp = cw.momentum_spectrum(wf)
        h = 0.02
        npts = 7
        samples = np.array([cw.eval_spectrum(sp, i * h) for i in range(npts)])
        # one-sided stencil weights from the Vandermonde system
        vander = np.vander(np.arange(npts, dtype=float), increasing=True).T
        for deriv, tol in [(0, 1e-6), (1, 1e-4), (2, 1e-3)]:
            rhs = np.zeros(npts)
            rhs[deriv] = math.factorial(deriv)
            weights = np.linalg.solve(vander, rhs)
            onesided = np.dot(weights, samples) / h**deriv
            assert abs(onesided) < tol


@pytest.mark.parametrize("w", [1e-8, 1e-10, 1e-13])
def test_zero_just_below_the_axis_keeps_its_interval(w):
    """psi = N (x - a) / (x + i)^2 with a = t - iw: k = 2/(1 + x^2) - w/((x - t)^2 + w^2) is
    about -1/w at t and negative on one interval about t, whose ends are the roots of
    (2 - w) x^2 - 4 t x + 2 t^2 + 2 w^2 - w. Its crossings are so steep that |k| there
    exceeds the round-off of k's terms, and is at the round-off of theta instead. The ends
    are held to 1e-12 of the state's unit length scale, or of themselves when larger."""
    for t in np.linspace(-3.0, 3.0, 25).tolist():
        report = cw.backflow_intervals(example_one(complex(t, -w)))
        hits = [iv for iv in report.intervals if iv[0] <= t <= iv[1]]
        assert len(hits) == 1, f"a = {t} - {w}i: {report}"
        with mpmath.workdps(50):
            a, b, c = 2 - mpmath.mpf(w), -4 * mpmath.mpf(t), 2 * mpmath.mpf(t) ** 2 + 2 * mpmath.mpf(w) ** 2 - w
            d = mpmath.sqrt(b * b - 4 * a * c)
            for end, root in zip(hits[0], ((-b - d) / (2 * a), (-b + d) / (2 * a))):
                assert abs(end - root) <= 1e-12 * max(1, abs(root)), f"a = {t} - {w}i: {end} vs {root}"
        assert any(lo < report.min_wavenumber_location < hi for lo, hi in report.intervals), report


@pytest.mark.parametrize("w", [1e-8, 1e-13])
def test_zero_below_the_chart_centre_keeps_relative_accuracy(w):
    """psi = N (x + iw) / (x + i)^2 has k < 0 on (-r, r), r = sqrt((w - 2 w^2) / (2 - w)), about
    the chart centre theta = 0. The roots there are wrapped into [-pi, pi) only when outside it,
    so the ends keep their relative accuracy: a wrap of every root rounds them to an ulp of pi."""
    report = cw.backflow_intervals(example_one(complex(0.0, -w)))
    assert len(report.intervals) == 1, report
    with mpmath.workdps(50):
        r = mpmath.sqrt((mpmath.mpf(w) - 2 * mpmath.mpf(w) ** 2) / (2 - mpmath.mpf(w)))
        for end, root in zip(report.intervals[0], (-r, r)):
            assert abs(end - root) <= 1e-14 * abs(root), f"{end} vs {root}"
