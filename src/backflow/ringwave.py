"""Periodic wave functions on a ring, built from the same rational functions.

Restricting f(z) to the unit circle, psi(x) = N * f(exp(2 pi i x / L)), gives
an L-periodic state. With every pole outside the closed unit disk and a zero
at the origin, f(z)/z is analytic in |z| <= 1, so the Fourier coefficients
c_k vanish for k <= 0: the momentum spectrum is strictly positive and
discrete. The c_k for k >= 1 are Taylor coefficients of f about the origin
(residues of f(z) z^(-k-1)), scaled by N sqrt(L), from the same linear-factor
engine as the line's residues (polyring.rational_series); normalization is
Parseval on those coefficients. Construction runs no quadrature: the period
integral of |psi|^2 is an independent check in `backflow verify`.

With theta = 2 pi x / L, k times prod |e^{i theta} - r|^2 over the roots
off the circle and the origin is a trigonometric polynomial in theta, so
backflow arcs and the extrema of k and j come from the same circle-root
engine as on the line (contwave._circle_report), at any arc width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contwave import BackflowReport, RationalSpec, _Chart, _as_given, _circle_report, _current, _root_sum
from .errors import SingularPoint, SpecViolation, TruncationFailure  # noqa: F401 (re-exported)
from .polyring import poly_from_roots, rational_series

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
        num, den = self.spec.products(np.exp(2j * math.pi * np.array(x, float, ndmin=1) / self.period))
        return _as_given(x, self.norm_constant * num / den)


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
    if not spec.poles:
        return poly_from_roots(spec.zeros).coeffs
    rho = min(abs(b.position) for b in spec.poles)
    # geometric decay rate 1/rho to the tail criterion, slowed by the k^(n-1) growth of an order-n pole:
    # n is the total pole order, since n simple poles clustered on one circle grow like one order-n pole
    needed = -math.log(TAIL_REL) / math.log(rho)
    growth = (spec.n - 1) * math.log(needed) / math.log(rho)
    order = int(needed + growth) + 12 * spec.n + spec.m + 32
    if order > K_CAP:
        raise TruncationFailure(
            f"tail criterion needs ~{order} coefficients (pole radius {rho:.6f}); "
            f"cap is {K_CAP}"
        )
    while True:
        q = rational_series(spec.zeros, spec.poles, 0j, order).coeffs
        top = max(abs(c) for c in q)
        if top * top < np.finfo(float).tiny:  # Parseval's |[z^k] f|^2 would underflow
            raise TruncationFailure(f"Taylor coefficients of f underflow: peak {top:.2e}")
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
    """Fix N by Parseval on the Taylor coefficients of f. No quadrature runs
    here: `backflow verify` checks the period integral of |psi|^2."""
    if not (period > 0 and math.isfinite(period)):
        raise SpecViolation(f"period must be positive, got {period}")
    validate_ring_spec(spec)
    raw = _raw_taylor_coefficients(spec)
    power = sum(abs(c) ** 2 for c in raw)
    norm = 1.0 / math.sqrt(period * power)
    return RingWaveFunction(spec, period, norm, raw)


def ring_spectrum(wf: RingWaveFunction) -> MomentumSpectrumRing:
    """c_k = N sqrt(L) [z^k] f for k >= 1 (k <= 0 vanish by construction)."""
    scale = wf.norm_constant * math.sqrt(wf.period)
    return MomentumSpectrumRing(
        tuple(scale * c for c in wf.taylor_coeffs[1:]), wf.period
    )


def ring_wavenumber(wf: RingWaveFunction, x):
    """Local wave number on the ring at x, a scalar or an array; roots outside
    the unit circle contribute negative values wherever their numerator
    1 - |r| cos(...) has the right sign. Undefined closer than 1e-12 to a
    circle zero: SingularPoint for a scalar, NaN in an array."""
    theta = 2 * math.pi * np.array(x, float, ndmin=1) / wf.period
    pos, _, _, rho, phi, mult, singular = wf.spec.root_columns
    d2 = abs(np.exp(1j * theta) - pos) ** 2
    terms = mult * (1.0 - rho * np.cos(theta - phi)) / np.where(d2 < singular, np.nan, d2)
    k = (2 * math.pi / wf.period) * _root_sum(terms)
    return _as_given(x, k, undefined="wave number undefined at the circle zero")


def ring_current(wf: RingWaveFunction, x):
    """j(x) = |psi|^2 k(x) at x, a scalar or an array; zero where psi
    vanishes on the circle."""
    xs = np.array(x, float, ndmin=1)
    return _as_given(x, _current(wf(xs), ring_wavenumber(wf, xs)))


def ring_backflow_intervals(wf: RingWaveFunction) -> BackflowReport:
    """Arcs of k < 0 over one period, tangencies of k with 0 and the minima of
    k and j, exactly (see contwave._circle_report), in theta = 2 pi x / L with
    lam = 2 pi / L and q = |e^{i theta} - r|^2. A zero at the origin adds 1 to
    k per unit multiplicity and one on the circle 1/2, so neither enters the
    products. Every x is theta / (2 pi) * L with theta in [-pi, pi), so arc starts
    lo, tangencies and minimum locations lie in [-L/2, L/2) (theta / lam can round
    up to L/2); an arc (lo, hi) across the period seam keeps hi = lo + width."""
    lam = 2 * math.pi / wf.period
    pos, _, _, rho, phi, m, _ = (column[:, 0] for column in wf.spec.root_columns)
    origin, on = rho < 1e-12, abs(rho - 1) < 1e-12
    c0 = float(m[origin].sum() + 0.5 * m[on].sum())
    keep = np.flatnonzero(~origin)[np.argsort(on[~origin], kind="stable")]  # roots off the circle first
    pos, rho, phi, m = pos[keep], rho[keep], phi[keep], m[keep]
    cos, sin = np.array([*map(math.cos, phi)]), np.array([*map(math.sin, phi)])
    f = (2 * m * rho * lam)[:, None] * np.transpose([np.zeros_like(phi), -sin, cos])  # m (log q)'
    coef = np.array([np.transpose([m, -m * rho * cos, -m * rho * sin]), (0.5 * (rho * rho - 1))[:, None] * f, f])

    def turn(t):  # q = |e^{it} - r|^2
        e = np.exp(1j * t)
        return e, 1.0, 1j * e, 0.0

    chart = _Chart(c0, keep.size - int(on.sum()), pos[:, None], phi, m, coef, turn,
                   lambda t: t / (2 * math.pi) * wf.period, 1 / lam, wf.period)
    return _circle_report(wf, chart, ring_wavenumber, ring_current)

