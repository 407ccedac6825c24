"""Periodic wave functions on a ring, built from the same rational functions.

Restricting f(z) to the unit circle, psi(x) = N * f(exp(2 pi i x / L)), gives
an L-periodic state. With every pole outside the closed unit disk and a zero
at the origin, f(z)/z is analytic in |z| <= 1, so the Fourier coefficients
c_k vanish for k <= 0: the momentum spectrum is strictly positive and
discrete. The c_k for k >= 1 are Taylor coefficients of f about the origin
(residues of f(z) z^(-k-1)), scaled by N sqrt(L); normalization is Parseval
on those coefficients, cross-checked by trapezoid quadrature over a period.

Backflow arcs are found by dense sampling of the local wave number over one
period followed by bracketed root refinement; features narrower than
L/samples need a higher sampling density.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import brentq, minimize_scalar

from . import oracle
from .contwave import BackflowReport, RationalSpec, _current, _defined
from .errors import QuadratureFailure, SingularPoint, SpecViolation, TruncationFailure  # noqa: F401 (re-exported)
from .polyring import Series, poly_from_roots, series_quotient

TAIL_REL = 1e-16
K_CAP = 100_000


def validate_ring_spec(spec: RationalSpec) -> None:
    """Poles strictly outside the unit circle; a zero at the origin."""
    for b in spec.poles:
        if abs(b.position) <= 1 + 1e-9:
            raise SpecViolation(
                f"ring pole at {b.position} must satisfy |b| > 1 (strictly outside "
                "the unit circle)"
            )
    if not any(abs(a.position) < 1e-12 for a in spec.zeros):
        raise SpecViolation(
            "ring spectrum positivity requires a zero at the origin (f(0) = 0)"
        )


@dataclass(frozen=True)
class RingWaveFunction:
    """psi(x) = norm_constant * f(exp(2 pi i x / L)); taylor_coeffs are the
    raw coefficients [z^k] f used for the spectrum, k = 0 .. K."""

    spec: RationalSpec
    period: float
    norm_constant: float
    taylor_coeffs: tuple[complex, ...]

    def __call__(self, x):
        w = np.exp(2j * math.pi * np.asarray(x, float) / self.period) if not np.isscalar(x) \
            else cmath.exp(2j * math.pi * x / self.period)
        num, den = self.spec.products(w)
        return self.norm_constant * num / den


@dataclass(frozen=True)
class MomentumSpectrumRing:
    """Fourier coefficients c_k for k = 1 .. K (trailing negligible ones cut);
    the eigenstate momenta are p_k = 2 pi k / period."""

    coeffs: tuple[complex, ...]
    period: float

    def coefficient(self, k: int) -> complex:
        if k < 1 or k > len(self.coeffs):
            return 0j
        return self.coeffs[k - 1]

    @property
    def momenta(self) -> tuple[float, ...]:
        return tuple(2 * math.pi * (k + 1) / self.period for k in range(len(self.coeffs)))


def _raw_taylor_coefficients(spec: RationalSpec) -> tuple[complex, ...]:
    """[z^k] f up to the tail criterion |f_K| < 1e-16 max|f_k|."""
    num = poly_from_roots(spec.zeros)
    if not spec.poles:
        return tuple(num.coeffs)
    den = poly_from_roots(spec.poles)
    rho = min(abs(b.position) for b in spec.poles)
    # geometric decay rate 1/rho, slowed by a polynomial in k for high-order poles
    needed = math.log(1e18) / math.log(rho)
    order = int(needed) + 12 * spec.n + num.degree + 32
    if order > K_CAP:
        raise TruncationFailure(
            f"tail criterion needs ~{order} coefficients (pole radius {rho:.6f}); "
            f"cap is {K_CAP}"
        )
    while True:
        q = series_quotient(
            Series(num.coeffs, 0j), Series(den.coeffs, 0j), order
        ).coeffs
        top = max(abs(c) for c in q)
        if abs(q[-1]) < TAIL_REL * top:
            break
        order *= 2
        if order > K_CAP:
            raise TruncationFailure(
                f"coefficient tail still {abs(q[-1]) / top:.2e} of peak at the cap"
            )
    # cut the negligible tail but keep the invariant-defining last small entry
    keep = len(q)
    while keep > 1 and abs(q[keep - 1]) < TAIL_REL * top:
        keep -= 1
    return tuple(q[: keep + 1])


def make_ring_wavefunction(spec: RationalSpec, period: float = 1.0) -> RingWaveFunction:
    """Fix N by Parseval on the Taylor coefficients of f, then cross-check the
    period integral of |psi|^2 by trapezoid quadrature."""
    if not (period > 0 and math.isfinite(period)):
        raise SpecViolation(f"period must be positive, got {period}")
    validate_ring_spec(spec)
    raw = _raw_taylor_coefficients(spec)
    power = sum(abs(c) ** 2 for c in raw)
    norm = 1.0 / math.sqrt(period * power)
    wf = RingWaveFunction(spec, period, norm, raw)
    check = oracle.norm_quadrature(wf, "ring", 1e-10).value.real
    if abs(check - 1.0) > 1e-8:
        raise QuadratureFailure(
            f"Parseval norm disagrees with period quadrature by {abs(check - 1.0):.2e}"
        )
    return wf


def ring_spectrum(wf: RingWaveFunction) -> MomentumSpectrumRing:
    """c_k = N sqrt(L) [z^k] f for k >= 1 (k <= 0 vanish by construction)."""
    scale = wf.norm_constant * math.sqrt(wf.period)
    return MomentumSpectrumRing(
        tuple(scale * c for c in wf.taylor_coeffs[1:]), wf.period
    )


def ring_wavenumber(wf: RingWaveFunction, x):
    """Local wave number on the ring at x, a scalar or an array; roots outside
    the unit circle contribute negative values wherever their numerator
    1 - |r| cos(...) has the right sign. Undefined on a circle zero:
    SingularPoint for a scalar, NaN in an array."""
    if np.isscalar(x):
        exp, cos = cmath.exp, math.cos
    else:
        exp, cos, x = np.exp, np.cos, np.asarray(x, float)
    theta = 2 * math.pi * x / wf.period
    w = exp(1j * theta)
    total = 0.0
    for sign, roots in ((1, wf.spec.zeros), (-1, wf.spec.poles)):
        for r in roots:
            pos = r.position
            d2 = abs(w - pos) ** 2
            if sign > 0:
                d2 = _defined(d2, x, "wave number undefined at the circle zero")
            num = 1.0 - abs(pos) * cos(theta - cmath.phase(pos))
            total = total + sign * r.multiplicity * num / d2
    return (2 * math.pi / wf.period) * total


def ring_current(wf: RingWaveFunction, x):
    """j(x) = |psi|^2 k(x) at x, a scalar or an array; zero where psi
    vanishes on the circle."""
    return _current(wf(x), ring_wavenumber, wf, x)


def ring_backflow_intervals(wf: RingWaveFunction, samples: int = 4096) -> BackflowReport:
    """Arcs of k < 0 over one period, located by dense sampling plus bracketed
    refinement. Arcs are reported as (lo, hi) with lo normalized into
    [-L/2, L/2); an arc crossing the period seam keeps hi = lo + width."""
    L = wf.period
    xs = np.arange(samples) * (L / samples)
    ks = ring_wavenumber(wf, xs)
    ks = np.where(np.isnan(ks), np.inf, ks)  # circle zeros: treat as positive spikes

    # a grid point where k is exactly 0 is a crossing; otherwise a sign change
    # between finite neighbours brackets one
    nxt = np.roll(ks, -1)
    exact = ks == 0.0
    bracket = ~exact & ((ks < 0) != (nxt < 0)) & np.isfinite(ks) & np.isfinite(nxt)
    crossings = xs[exact].tolist()
    for lo in xs[bracket].tolist():
        root = brentq(lambda t: ring_wavenumber(wf, t), lo, lo + L / samples, xtol=1e-14, rtol=8.9e-16)
        crossings.append(float(root))
    crossings = sorted(set(crossings))

    intervals: list[tuple[float, float]] = []
    if not crossings:
        if bool(np.all(ks > 0)):
            pass  # forward-flowing everywhere
        elif bool(np.all(ks < 0)):  # pragma: no cover - impossible for valid specs
            intervals.append((-L / 2, L / 2))
    else:
        # each crossing opens an arc that ends at the next one, cyclically
        los = np.array(crossings)
        his = np.array(crossings[1:] + [crossings[0] + L])
        mids = np.fmod(0.5 * (los + his), L)
        k_mid = ring_wavenumber(wf, mids)
        k_mid = np.where(np.isnan(k_mid), ring_wavenumber(wf, mids + 1e-9 * L), k_mid)
        for lo, hi in zip(los[k_mid < 0].tolist(), his[k_mid < 0].tolist()):
            width = hi - lo
            start = lo
            while start >= L / 2:
                start -= L
            while start < -L / 2:
                start += L
            intervals.append((start, start + width))
        intervals.sort()

    # extremal wave number and current over the period, grid + local refinement
    def refine(fun, i0):
        a = float(xs[i0]) - L / samples
        b = float(xs[i0]) + L / samples
        res = minimize_scalar(fun, bounds=(a, b), method="bounded", options={"xatol": 1e-13})
        return (float(res.fun), float(res.x))

    i_k = int(np.argmin(ks))
    min_k, min_k_loc = refine(lambda t: ring_wavenumber(wf, float(t)), i_k)
    if ks[i_k] < min_k:
        min_k, min_k_loc = float(ks[i_k]), float(xs[i_k])

    js = ring_current(wf, xs)
    i_j = int(np.argmin(js))
    min_j, min_j_loc = refine(lambda t: ring_current(wf, float(t)), i_j)
    if js[i_j] < min_j:
        min_j, min_j_loc = float(js[i_j]), float(xs[i_j])

    return BackflowReport(
        intervals=tuple(intervals),
        min_wavenumber=min_k,
        min_wavenumber_location=min_k_loc,
        min_current=min_j,
        min_current_location=min_j_loc,
        tangencies=(),
    )


def single_pole_reference_norm(a: float, n: int) -> float:
    """Closed-form normalization for f(z) = z/(z-a)^n with real a > 1:
    N = (a-1)^n sqrt(pi / (2 c I)), c = (a-1)/(a+1),
    I = integral_0^inf (1 + c^2 t^2)^(n-1) / (1 + t^2)^n dt.

    Serves as an independent cross-check of the Parseval normalization."""
    if not (a > 1):
        raise ValueError("requires a > 1")
    c = (a - 1.0) / (a + 1.0)
    val, err = integrate.quad(
        lambda t: (1 + c * c * t * t) ** (n - 1) / (1 + t * t) ** n,
        0.0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    if err > 1e-9 * abs(val):
        raise QuadratureFailure(f"reference integral error {err:.2e}")
    return (a - 1.0) ** n * math.sqrt(math.pi / (2 * c * val))
