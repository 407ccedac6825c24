import math

import mpmath
import numpy as np
import pytest

from backflow import contwave as cw
from backflow import padegen as pg
from backflow.contwave import Root
from backflow.errors import SpecViolation
from backflow.polyring import Series, poly_from_roots, series_quotient


class TestPadeNumerator:
    def test_exp_profile_closed_form(self):
        # single pole of order m+1 at -ib: alpha_k = sum_l C(m+1,l) (ib)^(m+1-l) (-i)^(k-l)/(k-l)!
        m, b = 8, 3 * math.pi
        alpha = pg.pade_numerator(pg.exp_design_problem(m, b, math.pi)).coeffs
        for k in range(m + 1):
            expect = sum(
                math.comb(m + 1, l)
                * (1j * b) ** (m + 1 - l)
                * (-1j) ** (k - l)
                / math.factorial(k - l)
                for l in range(k + 1)
            )
            assert alpha[k] == pytest.approx(expect, rel=1e-13)

    def test_constant_profile_truncates_denominator(self):
        # p(x) = 1: the convolution returns beta itself, truncated at m
        problem = pg.PadeProblem(
            profile_coeffs=(1.0, 0.0, 0.0),
            numerator_degree=1,
            poles=(Root(-1j, 2),),
            half_width=1.0,
        )
        alpha = pg.pade_numerator(problem).coeffs
        assert alpha[0] == pytest.approx(-1 + 0j)
        assert alpha[1] == pytest.approx(2j)

    def test_degree_zero(self):
        problem = pg.PadeProblem(
            profile_coeffs=(2.0 + 1j,),
            numerator_degree=0,
            poles=(Root(-2j, 3),),
            half_width=0.5,
        )
        alpha = pg.pade_numerator(problem).coeffs
        beta0 = poly_from_roots(problem.poles).coeffs[0]
        assert alpha == (pytest.approx(beta0 * (2.0 + 1j)),)

    def test_m_not_below_n_rejected(self):
        with pytest.raises(SpecViolation):
            pg.pade_numerator(
                pg.PadeProblem(
                    profile_coeffs=tuple([1.0] * 6),
                    numerator_degree=3,
                    poles=(Root(-1j, 3),),
                    half_width=1.0,
                )
            )

    @pytest.mark.parametrize(
        "pole, message",
        [
            (Root(complex(math.nan, -1), 2), "pole position must be finite"),
            (Root(complex(0, -math.inf), 2), "pole position must be finite"),
            (Root(-math.inf * 1j, 2), "pole position must be finite"),
            (Root(-2j, 0), "pole multiplicity must be >= 1"),
        ],
    )
    def test_bad_pole_is_a_spec_violation(self, pole, message):
        with pytest.raises(SpecViolation, match=message):
            pg.PadeProblem(pg.exp_profile_coeffs(-1.0), 3, (pole,), 1.0)

    def test_design_poles_are_merged(self):
        problem = pg.PadeProblem((1.0, 0.5), 1, ((-2j, 2.0), Root(-2j + 1e-12)), 1.0)
        assert problem.poles == (Root(-2j, 3),)
        assert type(problem.poles[0].multiplicity) is int

    def test_negative_degree_rejected(self):
        with pytest.raises(SpecViolation, match="numerator degree must be >= 0"):
            pg.PadeProblem((1.0, 0.5), -1, (Root(-2j, 2),), 1.0)

    @pytest.mark.parametrize("degree", [2.5, True, "3"], ids=["fraction", "bool", "string"])
    def test_non_integer_degree_rejected(self, degree):
        with pytest.raises(SpecViolation, match="numerator degree must be an integer"):
            pg.PadeProblem((1.0, 0.5, 0.25, 0.125), degree, (Root(-2j, 4),), 1.0)

    def test_degree_stored_as_int(self):
        problem = pg.PadeProblem((1.0, 0.5, 0.25, 0.125), np.int64(3), (Root(-2j, 4),), 1.0)
        assert problem.numerator_degree == 3 and type(problem.numerator_degree) is int

    def test_short_profile_rejected(self):
        with pytest.raises(SpecViolation, match=r"need at least m\+1=3 profile coefficients, got 2"):
            pg.PadeProblem((1.0, 0.5), 2, (Root(-2j, 4),), 1.0)

    def test_upper_pole_rejected(self):
        with pytest.raises(SpecViolation, match="must lie strictly in the lower half-plane"):
            pg.pade_numerator(
                pg.PadeProblem(
                    profile_coeffs=(1.0, 1.0),
                    numerator_degree=0,
                    poles=(Root(1j, 2),),
                    half_width=1.0,
                )
            )


class TestDesign:
    def test_taylor_match_random_poles(self):
        rng = np.random.default_rng(23)
        x0 = 1.0
        for _ in range(5):
            m = int(rng.integers(2, 6))
            poles = []
            total = 0
            while total <= m:
                mult = int(rng.integers(1, 4))
                poles.append(
                    Root(
                        complex(rng.uniform(-3, 3), rng.uniform(-6, -1.5 * x0)),
                        mult,
                    )
                )
                total += mult
            coeffs = tuple(
                complex(u, v)
                for u, v in rng.uniform(-1, 1, size=(m + 1, 2))
            )
            problem = pg.PadeProblem(coeffs, m, tuple(poles), x0)
            report = pg.design_wavefunction(problem)
            A = report.numerator
            B = poly_from_roots(poles)
            q = series_quotient(Series(A.coeffs), Series(B.coeffs), m + 1)
            scale = max(abs(c) for c in coeffs)
            for got, want in zip(q.coeffs, coeffs):
                assert abs(got - want) <= 1e-10 * scale

    def test_reconstruction_matches_convolution(self):
        report = pg.design_wavefunction(pg.exp_design_problem(8, 3 * math.pi, math.pi))
        A = report.numerator
        recon = poly_from_roots(report.wavefunction.spec.zeros)
        lead = A.coeffs[-1]
        for rc, ac in zip(recon.coeffs, A.coeffs):
            assert abs(lead * rc - ac) <= 1e-8 * abs(ac)

    def test_error_decreases_with_pole_distance(self):
        errs = [
            pg.design_wavefunction(pg.exp_design_problem(8, b, math.pi)).max_error_on_interval
            for b in (3 * math.pi, 6 * math.pi, 12 * math.pi, 15 * math.pi)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_amplitude_ratio_comparison(self):
        rep3 = pg.design_wavefunction(pg.exp_design_problem(8, 3 * math.pi, math.pi))
        rep15 = pg.design_wavefunction(pg.exp_design_problem(8, 15 * math.pi, math.pi))
        assert rep15.max_error_on_interval < rep3.max_error_on_interval
        assert 1e4 < rep15.amplitude_ratio / rep3.amplitude_ratio < 1e6
        assert rep3.amplitude_ratio >= 1
        assert rep15.amplitude_ratio >= 1

    def test_designed_state_tracks_profile(self):
        report = pg.design_wavefunction(pg.exp_design_problem(8, 15 * math.pi, math.pi))
        wf = report.wavefunction
        scale = wf.norm_constant / abs(report.numerator.coeffs[-1])
        for x in (-1.5, -0.4, 0.0, 0.8, 2.0):
            got = complex(wf(x))
            want = scale * complex(math.cos(x), -math.sin(x))
            assert got == pytest.approx(want, rel=2e-3)

    def test_designed_state_backflows_across_interval(self):
        report = pg.design_wavefunction(pg.exp_design_problem(8, 15 * math.pi, math.pi))
        intervals = cw.backflow_intervals(report.wavefunction).intervals
        covered = sum(
            max(0.0, min(hi, math.pi) - max(lo, -math.pi)) for lo, hi in intervals
        )
        assert covered >= 0.9 * 2 * math.pi

    def test_spectrum_positivity_inherited(self):
        from backflow import oracle

        report = pg.design_wavefunction(pg.exp_design_problem(4, 8.0, 1.0))
        wf = report.wavefunction
        sp = cw.momentum_spectrum(wf)
        peak = max(abs(cw.eval_spectrum(sp, p)) for p in np.linspace(0.05, 12, 150))
        for p in (-0.5, -2.0, -7.0):
            neg = oracle.fourier_quadrature(wf, p, tol=1e-9).value
            assert abs(neg) < 1e-6 * peak


class TestOnePath:
    def test_one_numerator_solve_per_design(self, monkeypatch):
        calls, solve = [], pg.pade_numerator

        def counted(problem):
            calls.append(problem)
            return solve(problem)

        monkeypatch.setattr(pg, "pade_numerator", counted)
        problems = [pg.exp_design_problem(m, 6.5 * math.pi, math.pi) for m in (0, 4, 12)]
        for problem in problems:
            pg.design_wavefunction(problem)
        assert calls == problems

    @pytest.mark.parametrize("m", [19, 20])
    def test_error_of_the_built_state_against_mpmath(self, m):
        # max |lead(A) prod (x - a) / (x + ib)^(m+1) - p(x)| over the state's own float zeros and
        # the same 2001 points, at 50 digits
        report = pg.design_wavefunction(pg.exp_design_problem(m, 15 * math.pi, math.pi))
        spec = report.wavefunction.spec
        with mpmath.workdps(50):
            lead = mpmath.mpc(report.numerator.coeffs[-1])
            profile = [mpmath.mpc(c) for c in reversed(pg.exp_profile_coeffs(-1.0))]

            def error(x):
                x = mpmath.mpf(x)
                top = mpmath.fprod((x - mpmath.mpc(r.position)) ** r.multiplicity for r in spec.zeros)
                bottom = mpmath.fprod((x - mpmath.mpc(r.position)) ** r.multiplicity for r in spec.poles)
                return abs(lead * top / bottom - mpmath.polyval(profile, x))

            expect = float(max(error(x) for x in np.linspace(-math.pi, math.pi, 2001)))
        assert report.max_error_on_interval == pytest.approx(expect, abs=1e-14)

    def test_zero_profile_rejected(self):
        problem = pg.PadeProblem((0, 0, 0), 2, (Root(-2j, 3),), 1.0)
        with pytest.raises(SpecViolation, match="identically zero numerator"):
            pg.design_wavefunction(problem)

    def test_degree_zero_design(self):
        # psi = N i 3pi / (x + 3i pi): no zeros, |psi| peaks at x = 0 on the interval
        report = pg.design_wavefunction(pg.exp_design_problem(0, 3 * math.pi, math.pi))
        assert report.wavefunction.spec.zeros == ()
        assert report.amplitude_ratio == 1.0
        xs = np.linspace(-math.pi, math.pi, 2001)
        expect = np.max(np.abs(3j * math.pi / (xs + 3j * math.pi) - np.exp(-1j * xs)))
        assert report.max_error_on_interval == pytest.approx(expect, rel=1e-14)


def mp_amplitude_ratio(wf: cw.LineWaveFunction, x0: float) -> float:
    """max |psi| over the line over its max on [-x0, x0], at 40 digits from the
    same float root data: the critical points of |psi|^2 are among the real parts
    of the roots of sum_l 2 m_l (x - u_l) prod_(j != l) ((x - u_j)^2 + v_j^2)."""

    def mul(p, q):  # ascending coefficients
        out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    with mpmath.workdps(40):
        rows = [(mpmath.mpc(r.position), sign * r.multiplicity)
                for sign, roots in ((1, wf.spec.zeros), (-1, wf.spec.poles)) for r in roots]
        slope = [mpmath.mpf(0)] * (2 * len(rows))
        for l, (a, m) in enumerate(rows):
            term = [-2 * m * a.real, 2 * m]
            for j, (b, _) in enumerate(rows):
                if j != l:
                    term = mul(term, [abs(b) ** 2, -2 * b.real, 1])
            slope = [s + t for s, t in zip(slope, term)]
        roots = mpmath.polyroots(slope[::-1], maxsteps=200, extraprec=200)
        xs = [r.real for r in roots] + [-mpmath.mpf(x0), mpmath.mpf(x0)]

        def amplitude(x):
            return abs(mpmath.fprod((x - a) ** m for a, m in rows))

        inside = max(amplitude(x) for x in xs if abs(x) <= x0)
        return float(max(amplitude(x) for x in xs) / inside)


class TestAmplitudeRatio:
    def test_narrow_peak_against_mpmath(self):
        # a pole 1.1e-5 below the axis: |psi| peaks ~1.6e4 times above the interval, over ~1e-5
        poles = (Root(-30j, 3), Root(-1.1152202888346672 - 1.0787726726300035e-05j))
        report = pg.design_wavefunction(pg.PadeProblem(pg.exp_profile_coeffs(-1.0), 2, poles, 1.0))
        expect = mp_amplitude_ratio(report.wavefunction, 1.0)
        assert expect == pytest.approx(15623.4271368712, rel=1e-12)
        assert report.amplitude_ratio == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("m, b", [(8, 3 * math.pi), (8, 15 * math.pi), (16, 10 * math.pi)])
    def test_designs_against_mpmath(self, m, b):
        report = pg.design_wavefunction(pg.exp_design_problem(m, b, math.pi))
        expect = mp_amplitude_ratio(report.wavefunction, math.pi)
        assert report.amplitude_ratio == pytest.approx(expect, rel=1e-12)


class TestScalingProbe:
    def test_slope_near_m(self):
        m = 8
        pairs = pg.amplitude_scaling_probe(m, [3 * math.pi, 6 * math.pi, 12 * math.pi], math.pi)
        slope = np.polyfit(
            np.log([b for b, _ in pairs]), np.log([r for _, r in pairs]), 1
        )[0]
        assert slope == pytest.approx(m, rel=0.2)

    def test_small_case_against_direct_bound(self):
        m, x0 = 2, 1.0
        ((b, ratio),) = pg.amplitude_scaling_probe(m, [10.0], x0)
        expect = b**m / math.factorial(m)
        assert ratio == pytest.approx(expect, rel=4.0)
        assert expect / 5 < ratio < expect * 5

    def test_single_value(self):
        pairs = pg.amplitude_scaling_probe(3, [12.0], 1.0)
        assert len(pairs) == 1
        assert pairs[0][0] == 12.0

    def test_b_below_half_width_rejected(self):
        with pytest.raises(SpecViolation):
            pg.amplitude_scaling_probe(3, [0.5], 1.0)
