import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import contwave as cw
from backflow import oracle
from backflow import ringwave as rw
from backflow.errors import SpecViolation, TruncationFailure


def example_two(a: float = math.sqrt(2)) -> rw.RingWaveFunction:
    """f(z) = z (z - a): two positive momentum eigenstates."""
    spec = cw.RationalSpec(zeros=(cw.Root(0j), cw.Root(a + 0j)))
    return rw.make_ring_wavefunction(spec, 1.0)


def example_three(a: float = 1.5, n: int = 3) -> rw.RingWaveFunction:
    """f(z) = z / (z - a)^n: an infinite geometric ladder of momenta."""
    spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(a + 0j, n),))
    return rw.make_ring_wavefunction(spec, 1.0)


def dft_coefficient(wf: rw.RingWaveFunction, k: int, samples: int = 4096) -> complex:
    """Independent trapezoid evaluation of the projection integral."""
    L = wf.period
    x = np.arange(samples) * (L / samples) - L / 2
    vals = wf(x) * np.exp(-2j * np.pi * k * x / L) / math.sqrt(L)
    return complex(np.sum(vals) * (L / samples))


class TestConstruction:
    def test_example_two_norm(self):
        a = math.sqrt(2)
        wf = example_two(a)
        assert wf.norm_constant == pytest.approx((1 + a * a) ** -0.5, rel=1e-12)

    def test_example_three_norm_matches_reference(self):
        for a, n in [(1.5, 3), (2.0, 4), (1.2, 2)]:
            wf = example_three(a, n)
            ref = oracle.single_pole_reference_norm(a, n)
            assert wf.norm_constant == pytest.approx(ref, rel=1e-9)

    def test_pole_on_circle_rejected(self):
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(1.0 + 0j, 2),))
        with pytest.raises(SpecViolation):
            rw.make_ring_wavefunction(spec)

    def test_missing_origin_zero_rejected(self):
        spec = cw.RationalSpec(zeros=(cw.Root(0.5 + 0j),), poles=(cw.Root(2.0 + 0j, 2),))
        with pytest.raises(SpecViolation):
            rw.make_ring_wavefunction(spec)

    @pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan])
    def test_period_must_be_positive_and_finite(self, period):
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(1.5 + 0j, 3),))
        with pytest.raises(SpecViolation, match="period must be positive"):
            rw.make_ring_wavefunction(spec, period)

    def test_one_series_quotient_at_radius_1_01(self, monkeypatch):
        # the order guess allows for the k^(n-1) growth of an order-n pole, so
        # the Taylor engine makes one pass at one order, with no doubling
        orders, series = [], rw.rational_series

        def counted(zeros, poles, center, order):
            orders.append(order)
            return series(zeros, poles, center, order)

        monkeypatch.setattr(rw, "rational_series", counted)
        wf = example_three(1.01, 3)
        assert len(orders) == 1
        assert len(wf.taylor_coeffs) == 4531
        # and it aims at the 1e-16 tail itself, with no slack: 5,423 terms for the 4,531 kept
        assert orders[0] <= 5500

    def test_clustered_poles_take_one_pass(self, monkeypatch):
        # two simple poles 1e-3 apart in angle act like one double pole: the order guess allows for
        # the k^(n-1) growth of the total pole order n, so the first pass reaches the tail
        orders, series = [], rw.rational_series

        def counted(zeros, poles, center, order):
            orders.append(order)
            return series(zeros, poles, center, order)

        monkeypatch.setattr(rw, "rational_series", counted)
        p1, p2 = 1.01, 1.01 * cmath.exp(1e-3j)
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(p1 + 0j), cw.Root(p2)))
        raw = rw._raw_taylor_coefficients(spec)
        assert orders == [4585]
        assert len(raw) == 4093
        # [z^k] z / ((z - p1)(z - p2)) = (p2^-k - p1^-k) / (p1 - p2), k >= 1, at 50 digits
        with mpmath.workdps(50):
            mp1, mp2 = mpmath.mpc(p1), mpmath.mpc(p2)
            ref = [0j] + [complex((mp2**-k - mp1**-k) / (mp1 - mp2)) for k in range(1, len(raw))]
        peak = max(abs(c) for c in ref)
        assert max(abs(got - want) for got, want in zip(raw, ref)) <= 1e-13 * peak

    @pytest.mark.parametrize("a, n", [(1.1, 6), (1.01, 3)])
    def test_taylor_coefficients_against_mpmath(self, a, n):
        # [z^k] z/(z-a)^n = (-a)^(-n) C(k+n-2, n-1) a^(1-k), k >= 1, at 50 digits
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(a + 0j, n),))
        raw = rw._raw_taylor_coefficients(spec)
        with mpmath.workdps(50):
            mp_a = mpmath.mpf(a)
            ref = [0j] + [
                complex((-mp_a) ** -n * mpmath.binomial(k + n - 2, n - 1) * mp_a ** (1 - k))
                for k in range(1, len(raw))
            ]
        peak = max(abs(c) for c in ref)
        assert max(abs(got - want) for got, want in zip(raw, ref)) <= 1e-14 * peak

    def test_builds_without_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ring construction called the quadrature oracle")

        monkeypatch.setattr(oracle, "norm_quadrature", refuse)
        wf = example_three(1.01, 3)
        assert sum(abs(c) ** 2 for c in rw.ring_spectrum(wf).coeffs) == pytest.approx(1.0, rel=1e-12)

    def test_slow_decay_truncation_failure(self):
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(1.0 + 1e-6, 2),))
        with pytest.raises(TruncationFailure):
            rw.make_ring_wavefunction(spec)

    def test_periodicity(self):
        wf = example_three()
        for x in (-0.37, 0.0, 0.21):
            assert complex(wf(x + 1.0)) == pytest.approx(complex(wf(x)), abs=1e-12)


class TestSpectrum:
    def test_example_two_exactly_two_coefficients(self):
        a = math.sqrt(2)
        sp = rw.ring_spectrum(example_two(a))
        assert len(sp.coeffs) == 2
        assert abs(sp.coefficient(1)) ** 2 == pytest.approx(a * a / (1 + a * a), abs=1e-13)
        assert abs(sp.coefficient(2)) ** 2 == pytest.approx(1 / (1 + a * a), abs=1e-13)
        assert sp.momenta[0] == pytest.approx(2 * math.pi)
        assert sp.momenta[1] == pytest.approx(4 * math.pi)

    def test_nonpositive_k_vanishes(self):
        sp = rw.ring_spectrum(example_three())
        assert sp.coefficient(0) == 0
        assert sp.coefficient(-3) == 0

    def test_example_three_binomial_ratios(self):
        a, n = 1.5, 3
        sp = rw.ring_spectrum(example_three(a, n))
        for k in range(1, 6):
            expect = math.comb(n + k - 1, k) / (math.comb(n + k - 2, k - 1) * a)
            got = sp.coefficient(k + 1) / sp.coefficient(k)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_parseval(self):
        for wf in (example_two(), example_three()):
            sp = rw.ring_spectrum(wf)
            assert sum(abs(c) ** 2 for c in sp.coeffs) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dft(self):
        wf = example_three()
        sp = rw.ring_spectrum(wf)
        for k in range(1, 30):
            assert sp.coefficient(k) == pytest.approx(dft_coefficient(wf, k), abs=1e-8)

    def test_negative_k_dft_vanishes(self):
        wf = example_three()
        for k in range(-20, 1):
            assert abs(dft_coefficient(wf, k)) < 1e-10


class TestWavenumber:
    def test_example_two_at_origin(self):
        wf = example_two()
        assert rw.ring_wavenumber(wf, 0.0) == pytest.approx(
            -2 * math.sqrt(2) * math.pi, rel=1e-12
        )

    def test_example_three_at_half(self):
        wf = example_three()
        assert rw.ring_wavenumber(wf, 0.5) == pytest.approx(-0.4 * math.pi, rel=1e-12)

    def test_interior_zeros_only_positive(self):
        spec = cw.RationalSpec(
            zeros=(cw.Root(0j), cw.Root(0.4 + 0.3j)),
            poles=(cw.Root(1.6 - 0.9j, 2),),
        )
        wf = rw.make_ring_wavefunction(spec)
        xs = np.linspace(0, 1, 257)
        # poles with numerator negative everywhere sampled -> only positive k
        theta = 2 * np.pi * xs
        pole = spec.poles[0].position
        nums = 1 - abs(pole) * np.cos(theta - cmath.phase(pole))
        if np.all(nums < 0):
            assert all(rw.ring_wavenumber(wf, float(x)) > 0 for x in xs)

    def test_singular_at_circle_zero(self):
        spec = cw.RationalSpec(
            zeros=(cw.Root(0j), cw.Root(1j)), poles=(cw.Root(1.7 + 0j, 3),)
        )
        wf = rw.make_ring_wavefunction(spec)
        with pytest.raises(rw.SingularPoint):
            rw.ring_wavenumber(wf, 0.25)

    def test_phase_gradient_consistency(self):
        rng = np.random.default_rng(3)
        wf = example_three()
        for x in rng.uniform(0, 1, size=40):
            k = rw.ring_wavenumber(wf, float(x))
            fd = oracle.phase_gradient_fd(wf, float(x), 1e-6)
            assert fd == pytest.approx(k, abs=1e-4)


class TestCurrent:
    def test_example_two_at_origin(self):
        wf = example_two()
        a = math.sqrt(2)
        expect = ((1 - a) ** 2 / (1 + a * a)) * (-2 * math.sqrt(2) * math.pi)
        assert rw.ring_current(wf, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_zero_of_psi_gives_zero_current(self):
        # place a zero on the unit circle at x = 0.25 (position i)
        spec = cw.RationalSpec(
            zeros=(cw.Root(0j), cw.Root(1j)), poles=(cw.Root(1.7 + 0j, 3),)
        )
        wf = rw.make_ring_wavefunction(spec)
        assert rw.ring_current(wf, 0.25) == pytest.approx(0.0, abs=1e-20)

    def test_period_integral_identity(self):
        # integral of j over a period equals sum p_k |c_k|^2
        wf = example_three()
        sp = rw.ring_spectrum(wf)
        expect = sum(p * abs(c) ** 2 for p, c in zip(sp.momenta, sp.coeffs))
        xs = np.arange(8192) / 8192.0
        total = float(np.mean([rw.ring_current(wf, float(x)) for x in xs]))
        assert total == pytest.approx(expect, rel=1e-8)
        assert expect > 0


class TestBackflowArcs:
    def test_example_two_arc(self):
        a = math.sqrt(2)
        report = rw.ring_backflow_intervals(example_two(a))
        edge = math.acos((a * a + 2) / (3 * a)) / (2 * math.pi)
        assert len(report.intervals) == 1
        lo, hi = report.intervals[0]
        assert lo == pytest.approx(-edge, abs=1e-9)
        assert hi == pytest.approx(edge, abs=1e-9)
        assert report.min_wavenumber == pytest.approx(-2 * math.sqrt(2) * math.pi, rel=1e-9)
        assert report.min_current < 0

    def test_example_three_arc(self):
        report = rw.ring_backflow_intervals(example_three(1.5, 3))
        lo_expect = math.acos(-1 / 6) / (2 * math.pi)
        assert len(report.intervals) == 1
        lo, hi = report.intervals[0]
        assert lo == pytest.approx(lo_expect, abs=1e-9)
        assert hi == pytest.approx(1 - lo_expect, abs=1e-9)

    def test_example_three_no_backflow_below_threshold(self):
        # n = 2 <= a + 1 = 2.5: forward flow everywhere
        report = rw.ring_backflow_intervals(example_three(1.5, 2))
        assert report.intervals == ()

    def test_backflow_iff_n_exceeds_a_plus_one(self):
        for a in np.linspace(1.1, 2.9, 10):
            for n in range(2, 7):
                if abs(n - (a + 1)) < 1e-6:
                    continue
                report = rw.ring_backflow_intervals(example_three(float(a), n))
                assert bool(report.intervals) == (n > a + 1)

    @pytest.mark.parametrize(
        "zeros, poles, period",
        [
            ([0j, 1.3927535088542045 - 0.4802138611086775j, -0.14902282052565607 + 0.8154501466157339j], [], 1.0),
            ([0j], [(1.5 * cmath.exp(2j), 3)], 2.5),
            ([0j, 1 + 0j], [], 2.5),  # k constant: its minimum is a grid point
            ([0j], [(1.5 + 0j, 3)], 1.0),  # example three
            ([0j], [(1.2 + 0j, 2)], 3.0),  # min j one ulp below theta = pi, where theta / lam rounds to L/2
        ],
        ids=["three-zeros", "turned-pole", "constant-k", "example-three", "antipode"],
    )
    def test_one_frame(self, zeros, poles, period):
        """Arc starts, tangencies and both minimum locations lie in [-L/2, L/2), and a negative
        minimum lies in an arc (modulo L, as an arc across the seam keeps hi = lo + width)."""
        spec = cw.RationalSpec(zeros=tuple(map(cw.Root, zeros)), poles=tuple(cw.Root(*p) for p in poles))
        report = rw.ring_backflow_intervals(rw.make_ring_wavefunction(spec, period))
        xs = [lo for lo, _ in report.intervals] + [*report.tangencies]
        xs += [report.min_wavenumber_location, report.min_current_location]
        assert all(-period / 2 <= x < period / 2 for x in xs), report
        for value, x in [(report.min_wavenumber, report.min_wavenumber_location),
                         (report.min_current, report.min_current_location)]:
            assert value >= 0 or any((x - lo) % period < hi - lo for lo, hi in report.intervals)


def mp_ring_wavenumber(wf: rw.RingWaveFunction):
    """k(x) on the ring at 50 digits from the same float root data."""

    def k(x):
        theta = 2 * mpmath.pi * x / wf.period
        total = mpmath.mpf(0)
        for sign, roots in ((1, wf.spec.zeros), (-1, wf.spec.poles)):
            for r in roots:
                rho, phi = mpmath.mpf(abs(r.position)), mpmath.mpf(cmath.phase(r.position))
                d2 = 1 + rho**2 - 2 * rho * mpmath.cos(theta - phi)
                total += sign * r.multiplicity * (1 - rho * mpmath.cos(theta - phi)) / d2
        return 2 * mpmath.pi / wf.period * total

    return k


class TestNearThreshold:
    """z/(z - a)^n flows backwards iff n > |a| + 1; checked at 50 digits."""

    def test_narrow_arc_between_grid_points(self):
        # |a| = 2 - 1e-7: an arc of width ~5e-5 about the point opposite the
        # pole, turned half a step of a 4096-point grid
        turn = 0.5 * 2 * math.pi / 4096
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root((2 - 1e-7) * cmath.exp(1j * turn), 3),))
        wf = rw.make_ring_wavefunction(spec)
        report = rw.ring_backflow_intervals(wf)
        assert len(report.intervals) == 1
        lo, hi = report.intervals[0]
        assert 0 < hi - lo < 1e-3
        k = mp_ring_wavenumber(wf)
        with mpmath.workdps(50):
            assert k(mpmath.mpf(0.5 * (lo + hi))) < 0
            for end in (lo, hi):
                root = mpmath.findroot(k, (mpmath.mpf(end), mpmath.mpf(end) + 1e-9))
                assert abs(end - root) <= 1e-12

    def test_tangency_at_threshold(self):
        # n = |a| + 1 exactly: k >= 0 touches 0 opposite the pole, at x = 1/2
        spec = cw.RationalSpec(zeros=(cw.Root(0j),), poles=(cw.Root(2.0 + 0j, 3),))
        wf = rw.make_ring_wavefunction(spec)
        report = rw.ring_backflow_intervals(wf)
        assert report.intervals == ()
        assert len(report.tangencies) == 1
        assert abs(report.tangencies[0] % 1.0 - 0.5) < 1e-7
        with mpmath.workdps(50):
            assert abs(mp_ring_wavenumber(wf)(mpmath.mpf(report.tangencies[0]))) < 1e-12


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_zero_just_outside_the_circle(eps):
    # a zero at radius 1 + eps turns k negative on an arc of width ~sqrt(eps) about it
    zero = (1 + eps) * cmath.exp(2j)
    spec = cw.RationalSpec(zeros=(cw.Root(0j), cw.Root(zero)), poles=(cw.Root(2.0 + 0j, 3),))
    wf = rw.make_ring_wavefunction(spec)
    report = rw.ring_backflow_intervals(wf)
    assert len(report.intervals) == 1
    lo, hi = report.intervals[0]
    assert lo < 1 / math.pi < hi and hi - lo < 100 * math.sqrt(eps)
    k = mp_ring_wavenumber(wf)
    with mpmath.workdps(50):
        for end in (lo, hi):
            assert k(mpmath.mpf(end) - 1e-9) * k(mpmath.mpf(end) + 1e-9) < 0
            assert abs(end - mpmath.findroot(k, (mpmath.mpf(end), mpmath.mpf(end) + 1e-12))) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(1.02, 1.98))
def test_example_two_threshold_crossing(a):
    """k changes sign exactly where cos(2 pi x) = (a^2 + 2) / (3 a)."""
    wf = example_two(a)
    crossing = math.acos((a * a + 2) / (3 * a)) / (2 * math.pi)
    assert abs(rw.ring_wavenumber(wf, crossing)) < 1e-8
