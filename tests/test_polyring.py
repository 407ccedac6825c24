import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import backflow
from backflow import contwave
from backflow import padegen as pg
from backflow import polyring, ringwave
from backflow.errors import DegreeZero, TruncationFailure, ZeroLeadingDenominator
from backflow.polyring import (
    Poly,
    RealRoot,
    Root,
    Series,
    circle_roots,
    complex_roots,
    horner,
    poly_from_roots,
    rational_series,
    real_roots,
    series_quotient,
)


def test_poly_from_roots_empty_is_one():
    assert poly_from_roots([]).coeffs == (1 + 0j,)


def test_poly_from_roots_single():
    p = poly_from_roots([(1j, 1)])
    assert p.coeffs == (-1j, 1 + 0j)


def test_poly_from_roots_double():
    # (z + i)^2 = z^2 + 2iz - 1
    p = poly_from_roots([(-1j, 2)])
    assert p.coeffs == (-1 + 0j, 2j, 1 + 0j)


def test_poly_eval_at_root():
    assert horner(Poly((-1j, 1)).coeffs, 1j) == 0


def test_poly_eval_constant():
    assert horner(Poly((1,)).coeffs, 3.7 + 2j) == 1


def test_poly_eval_origin():
    assert horner(Poly((-1, 2j, 1)).coeffs, 0) == -1


def test_poly_eval_zero_poly():
    assert horner(Poly(()).coeffs, 5.0) == 0


def test_series_quotient_geometric():
    q = series_quotient(Series((1,)), Series((1, -1)), 4)
    assert q.coeffs == (1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)


def test_series_quotient_identity():
    sq = Series(poly_from_roots([(-1j, 2)]).coeffs)
    q = series_quotient(sq, sq, 3)
    np.testing.assert_allclose(q.coeffs, (1, 0, 0), atol=1e-15)


def test_series_quotient_single_pole_binomial():
    # z/(z-a)^n about 0: coefficient of z^k is (-1)^n C(n+k-2, k-1) a^(1-n-k)
    a, n = 1.5, 3
    num = Series((0, 1), 0j)
    den = Series(poly_from_roots([(a, n)]).coeffs)
    q = series_quotient(num, den, 6)
    for k in range(1, 5):
        expect = (-1) ** n * math.comb(n + k - 2, k - 1) * a ** (1 - n - k)
        assert q.coeffs[k] == pytest.approx(expect, rel=1e-13)


def test_series_quotient_zero_denominator():
    with pytest.raises(ZeroLeadingDenominator):
        series_quotient(Series((1,)), Series((0, 1)), 3)
    with pytest.raises(ZeroLeadingDenominator):  # an all-zero denominator has no scale
        series_quotient(Series((1,)), Series((0j,)), 2)


def test_poly_keeps_small_leading_coefficients():
    assert Poly((1.0, 1e-20)).degree == 1
    assert Poly((1.0, 0.0, 0j)).degree == 0


def test_rational_series_against_mpmath():
    # (z - 0.3i)^2 (z + 1) / ((z - 2)(z + 1 - 3i)^3) about 0.5 - 0.2i
    zeros, poles, center = [(0.3j, 2), (-1.0, 1)], [(2.0, 1), (-1 + 3j, 3)], 0.5 - 0.2j
    got = rational_series(zeros, poles, center, 12)
    assert got.center == center and got.order == 12
    with mpmath.workdps(50):
        def f(z):
            num = (z - mpmath.mpc(0.3j)) ** 2 * (z + 1)
            return num / ((z - 2) * (z - mpmath.mpc(-1 + 3j)) ** 3)

        ref = [complex(c) for c in mpmath.taylor(f, mpmath.mpc(center), 11)]
    peak = max(abs(c) for c in ref)
    assert max(abs(a - b) for a, b in zip(got.coeffs, ref)) <= 1e-14 * peak


def test_rational_series_without_poles_is_the_shifted_numerator():
    got = rational_series([(1.0, 2)], [], 3.0, 5)
    np.testing.assert_allclose(got.coeffs, (4, 4, 1, 0, 0), atol=1e-15)


def test_rational_series_keeps_its_guards():
    with pytest.raises(ZeroLeadingDenominator):
        rational_series([(0.0, 1)], [(1.5 - 0.5j, 2)], 1.5 - 0.5j, 8)
    with pytest.raises(ValueError):
        rational_series([(0.0, 1)], [(1.5, 3)], 0j, 0)


def test_real_roots_quadratic():
    p = Poly((-1 / 14, 0, 1))
    roots = real_roots(p)
    expect = 1 / math.sqrt(14)
    assert [r.value for r in roots] == pytest.approx([-expect, expect], abs=1e-12)
    assert [r.multiplicity for r in roots] == [1, 1]


def test_real_roots_none():
    assert real_roots(Poly((1, 0, 1))) == []


def test_real_roots_triple():
    roots = real_roots(Poly((0, 0, 0, 1)))
    assert roots == [RealRoot(0.0, 3)]


def test_real_roots_constant_raises():
    with pytest.raises(DegreeZero):
        real_roots(Poly((2.0,)))


def test_real_roots_double():
    roots = real_roots(Poly((1.0, -2.0, 1.0)))
    assert [r.multiplicity for r in roots] == [2]
    assert roots[0].value == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("gap, expected", [(1e-5, []), (1e-7, [(1.0, 2)])], ids=["1e-5", "1e-7"])
def test_real_roots_of_a_near_axis_pair(gap, expected):
    # roots 1 +- gap i: at 1e-5 the real part leaves a residual of 1e-11, no root; at 1e-7 it
    # leaves 1e-15, one double root, clustered on the real parts
    roots = real_roots(Poly((1.0 + gap * gap, -2.0, 1.0)))
    assert [(pytest.approx(x, abs=1e-12), m) for x, m in roots] == expected


def test_real_roots_rejects_complex_coefficients():
    with pytest.raises(ValueError):
        real_roots(Poly((1j, 1.0)))


def test_circle_roots_of_trigonometric_polynomial():
    # simple roots at +-pi/3; the factor cos 2t + 3 raises the degree to 3
    # without adding roots
    theta = 2 * np.pi * np.arange(16) / 16
    samples = (np.cos(theta) - 0.5) * (np.cos(2 * theta) + 3)
    roots = circle_roots(samples, 3, np.abs(samples) + 4)
    assert roots == pytest.approx([-np.pi / 3, np.pi / 3], abs=1e-13)
    assert circle_roots(np.full(16, 2.0), 3, np.full(16, 2.0)).size == 0


def test_circle_roots_double_root():
    theta = 2 * np.pi * np.arange(8) / 8
    samples = 1 - np.cos(theta)  # 2 sin^2(t/2): a double root at 0
    roots = circle_roots(samples, 1, samples + 1)
    assert len(roots) == 2 and np.abs(roots).max() < 1e-7


def test_circle_roots_rejects_a_higher_degree():
    theta = 2 * np.pi * np.arange(16) / 16
    samples = np.cos(3 * theta)
    with pytest.raises(TruncationFailure):
        circle_roots(samples, 2, np.ones(16))
    with pytest.raises(ValueError):
        circle_roots(samples, 8, np.ones(16))


def _assert_matches_companion(samples, degree, size):
    """circle_roots against the roots near |z| = 1 of z^d p(z), from the complex companion
    matrix of conj(c[d:0:-1]) ++ c[:d+1] on the same trimmed coefficients: the same in-band
    count; within 1e-9 on simple roots (on the circle to 1e-9, condition eps |p| / |p'| at
    most 1e-12); elsewhere (double roots, clusters, roots off the circle) a relative residual
    |p(theta)| / sum |c_n| at most 10 times the companion's, or than n eps for n = 2 d + 1
    terms, the round-off of evaluating p."""
    c = np.fft.rfft(samples) / len(samples)
    d = degree
    while d > 0 and abs(c[d]) <= polyring.CIRCLE_TAIL * np.max(size):
        d -= 1
    c = c[: d + 1]
    z = polyring._companion_eigenvalues(np.concatenate([np.conj(c[:0:-1]), c])) if d else np.empty(0)
    z = z[np.abs(np.abs(z) - 1) <= polyring.CIRCLE_BAND]
    got, want = circle_roots(samples, degree, size), np.angle(z)
    assert got.size == want.size

    n = np.arange(d + 1)[:, None]

    def p(theta, order=0):  # the order-th theta-derivative of p
        return np.real(((1j * n) ** order * np.where(n, 2, 1) * c[:, None] * np.exp(1j * n * theta)).sum(0))

    scale = abs(c[0]) + 2 * np.abs(c[1:]).sum()
    eps = np.finfo(float).eps
    simple = (np.abs(np.abs(z) - 1) <= 1e-9) & (eps * scale <= 1e-12 * np.abs(p(want, 1)))
    residual, reference = np.abs(p(got)) / scale, np.maximum(np.abs(p(want)) / scale, (2 * d + 1) * eps)
    unpaired = np.ones(want.size, bool)
    for i, theta in enumerate(got):  # pair each root with the nearest unpaired reference, cyclically
        gap = np.where(unpaired, np.abs(np.angle(np.exp(1j * (theta - want)))), np.inf)
        j = int(np.argmin(gap))
        unpaired[j] = False
        if simple[j]:
            assert gap[j] <= 1e-9, (theta, want[j])
        else:
            assert residual[i] <= 10 * reference[j], (theta, residual[i], want[j], reference[j])


def test_circle_roots_match_the_companion_on_random_polynomials():
    # random real trigonometric polynomials of degree 1..60: a factor sin(theta) puts roots at 0 and
    # pi, a factor (cos(theta) - cos(0.7))^2 a double root at +-0.7
    rng = np.random.default_rng(23)
    for d in range(1, 61):
        N = 4 << d.bit_length()
        theta = 2 * np.pi * np.arange(N) / N

        def random(k):
            (a, b), n = rng.normal(size=(2, k + 1, 1)), np.arange(k + 1)[:, None]
            return (a * np.cos(n * theta) + b * np.sin(n * theta)).sum(0)

        if d % 3 == 0:
            samples = np.sin(theta) * random(d - 1)
        elif d % 3 == 2 and d > 2:
            samples = (np.cos(theta) - math.cos(0.7)) ** 2 * random(d - 2)
        else:
            samples = random(d)
        _assert_matches_companion(samples, d, np.full(N, np.abs(samples).max()))


def _engine_calls(monkeypatch, analysis, wf):
    """The (samples, degree, size) of every circle_roots call that `analysis` makes on wf."""
    calls = []
    monkeypatch.setattr(contwave, "circle_roots", lambda *args: calls.append(args) or circle_roots(*args))
    analysis(wf)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("m", [4, 12, 20])
@pytest.mark.parametrize("b_over_pi", [2, 15])
def test_circle_roots_match_the_companion_on_design_numerators(monkeypatch, m, b_over_pi):
    # the numerators of k, k', j' (backflow_intervals) and (log|psi|^2)' (density_critical_points)
    wf = pg.design_wavefunction(pg.exp_design_problem(m, b_over_pi * math.pi, math.pi)).wavefunction
    calls = [call for analysis in (contwave.backflow_intervals, contwave.density_critical_points)
             for call in _engine_calls(monkeypatch, analysis, wf)]
    assert [degree for _, degree, _ in calls] == [m + 1, 2 * m + 2, 2 * m + 2, m + 1]
    for call in calls:
        _assert_matches_companion(*call)


def test_circle_roots_match_the_companion_near_the_ring_threshold(monkeypatch):
    spec = contwave.RationalSpec(zeros=(Root(0j),), poles=(Root(2 - 1e-7, 3),))
    calls = _engine_calls(monkeypatch, ringwave.ring_backflow_intervals, ringwave.make_ring_wavefunction(spec))
    assert len(calls) == 3
    for call in calls:
        _assert_matches_companion(*call)


def test_root_is_the_pair_polyring_reads():
    r = Root(0.5 - 1j, 2)
    assert r == (0.5 - 1j, 2)
    pos, mult = r
    assert (pos, mult) == (r.position, r.multiplicity) == (0.5 - 1j, 2)
    assert Root(1j) == Root(position=1j, multiplicity=1)
    assert backflow.Root is contwave.Root is Root
    assert poly_from_roots([r]) == poly_from_roots([(0.5 - 1j, 2)])


def test_complex_roots_returns_roots():
    got = complex_roots(poly_from_roots([(1 + 2j, 1), (-0.5j, 2)]))
    assert got and all(isinstance(r, Root) for r in got)


def test_complex_roots_simple():
    p = poly_from_roots([(1 + 2j, 1), (-0.5j, 2)])
    got = complex_roots(p)
    assert sorted(m for _, m in got) == [1, 2]
    for z, mult in got:
        # double roots are sqrt(eps)-conditioned; simple ones are sharp
        tol = 1e-10 if mult == 1 else 1e-6
        assert min(abs(z - 1 - 2j), abs(z + 0.5j)) < tol


# --- properties -------------------------------------------------------------

complexish = st.complex_numbers(
    max_magnitude=5.0, allow_nan=False, allow_infinity=False
)
# root data as plain (position, multiplicity) pairs and as Roots, mixed in one list
root_lists = st.lists(
    st.tuples(complexish, st.integers(1, 3)) | st.builds(Root, complexish, st.integers(1, 3)), max_size=4
)


@settings(max_examples=60)
@given(root_lists)
def test_from_roots_eval_residual(pairs):
    p = poly_from_roots(pairs)
    top = max(abs(c) for c in p.coeffs)
    for pos, _ in pairs:
        bound = 1e-10 * top * (1 + abs(pos)) ** p.degree
        assert abs(horner(p.coeffs, pos)) < bound


unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60)
@given(
    st.lists(unit_complex, min_size=1, max_size=5),
    st.lists(unit_complex, min_size=1, max_size=5),
)
def test_series_quotient_inverts_product(f, g):
    # unit-scale coefficients with a solid constant term keep the triangular
    # back-substitution well conditioned, which is what the 1e-12 bound assumes
    if abs(g[0]) < 0.5:
        g = [g[0] + 1.0] + list(g[1:])
    fp, gp = Poly(tuple(f)), Poly(tuple(g))
    if not fp.coeffs:
        return
    prod = np.convolve(fp.coeffs, gp.coeffs)
    K = 6
    q = series_quotient(Series(prod), Series(gp.coeffs), K)
    expect = list(fp.coeffs) + [0j] * K
    scale = max(abs(c) for c in fp.coeffs)
    for got, want in zip(q.coeffs, expect[:K]):
        assert abs(got - want) <= 1e-12 * max(scale, 1e-12)


def _bits(series):
    return [(c.real.hex(), c.imag.hex()) for c in series.coeffs]


def _factor_by_factor(zeros, poles, center, order):
    """rational_series as a chain of series_quotient calls, one linear factor each."""
    center = complex(center)
    num = poly_from_roots([(a - center, m) for a, m in zeros]).coeffs[:order]
    q = Series(num + (0j,) * (order - len(num)), center)
    for b, n in poles:
        factor = Series((center - b, 1.0), center)
        for _ in range(n):
            q = series_quotient(q, factor, order)
    return q


@settings(max_examples=200)
@given(root_lists, root_lists, complexish, st.integers(1, 64))
def test_rational_series_matches_series_quotient_bit_for_bit(zeros, poles, center, order):
    try:
        want = _factor_by_factor(zeros, poles, center, order)
    except (ValueError, ZeroLeadingDenominator) as exc:
        with pytest.raises(type(exc)):
            rational_series(zeros, poles, center, order)
        return
    got = rational_series(zeros, poles, center, order)
    assert got.center == want.center
    assert _bits(got) == _bits(want)


@settings(max_examples=40)
@given(
    st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    )
)
def test_real_roots_recovery(xs):
    xs = sorted(xs)
    if any(b - a <= 1e-3 for a, b in zip(xs, xs[1:])):
        return
    p = poly_from_roots([(x, 1) for x in xs])
    got = real_roots(p)
    assert len(got) == len(xs)
    for r, x in zip(got, xs):
        assert r.value == pytest.approx(x, abs=1e-8)
        assert r.multiplicity == 1


def test_newton_polish_stops_at_round_off(monkeypatch):
    # the m = 20, b = 15 pi Pade numerator, whose residuals reach round-off in a few
    # steps while the 1e-16 step test seldom fires
    numerator = pg.pade_numerator(pg.exp_design_problem(20, 15 * math.pi, math.pi))
    calls, horner = [], polyring.horner

    def counted(coeffs, z):
        calls.append(z)
        return horner(coeffs, z)

    monkeypatch.setattr(polyring, "horner", counted)
    roots = complex_roots(numerator)
    monkeypatch.undo()
    # one residual at each start, then p'(z), p(z) and the residual per Newton step
    assert (len(calls) - 20) / (3 * 20) <= 12
    assert max(polyring.root_residual(numerator, z) for z, _ in roots) <= 1e-15
