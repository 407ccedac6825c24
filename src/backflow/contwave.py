"""Wave functions on the real line built from rational complex functions.

A wave function here is the boundary value psi(x) = N * f(x) of a ratio of
monic polynomials f(z) = prod(z-a_l)^m_l / prod(z-b_l)^n_l whose poles all
sit strictly in the lower half-plane. Closing the Fourier contour downward
then kills the spectrum for p < 0, and everything of interest follows from
the root data alone:

* the momentum spectrum is a sum over poles of (polynomial in p) * exp(-i p b_l),
  with coefficients read off a truncated Taylor quotient at each pole;
* the local wave number k(x) is a signed sum of Lorentzians, one per root,
  negative bumps coming from zeros placed below the axis;
* backflow regions are the sublevel set k < 0, found exactly by clearing
  denominators into a real polynomial and classifying sign changes.

Units: hbar = mass = 1; x in units of an arbitrary length scale, momenta in
its inverse, currents in the corresponding frequency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np
from scipy.optimize import minimize_scalar

from . import oracle
from .errors import QuadratureFailure, SingularPoint, SpecViolation
from .polyring import (
    Poly,
    Series,
    poly_add,
    horner,
    poly_derivative,
    poly_from_roots,
    poly_mul,
    poly_scale,
    real_roots,
    series_from_poly,
    series_quotient,
)

MERGE_TOL = 1e-9
_SQRT_2PI = math.sqrt(2 * math.pi)


@dataclass(frozen=True)
class Root:
    """A zero or pole location with its multiplicity."""

    position: complex
    multiplicity: int = 1


def _merged(roots: Iterable[Root], label: str) -> tuple[Root, ...]:
    out: list[Root] = []
    for r in roots:
        pos, mult = complex(r.position), int(r.multiplicity)
        if mult < 1:
            raise SpecViolation(f"{label} multiplicity must be >= 1, got {mult}")
        if not (math.isfinite(pos.real) and math.isfinite(pos.imag)):
            raise SpecViolation(f"{label} position must be finite, got {pos}")
        for i, kept in enumerate(out):
            if abs(pos - kept.position) < MERGE_TOL:
                out[i] = Root(kept.position, kept.multiplicity + mult)
                break
        else:
            out.append(Root(pos, mult))
    return tuple(out)


@dataclass(frozen=True)
class RationalSpec:
    """Zero and pole lists of f(z); duplicates within 1e-9 are merged."""

    zeros: tuple[Root, ...] = ()
    poles: tuple[Root, ...] = ()

    def __post_init__(self):
        zeros = _merged(self.zeros, "zero")
        poles = _merged(self.poles, "pole")
        for a in zeros:
            for b in poles:
                if abs(a.position - b.position) < MERGE_TOL:
                    raise SpecViolation(
                        f"zero at {a.position} lies within {MERGE_TOL} of pole at "
                        f"{b.position}; the rational function would be degenerate"
                    )
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "poles", poles)

    @property
    def m(self) -> int:
        return sum(r.multiplicity for r in self.zeros)

    @property
    def n(self) -> int:
        return sum(r.multiplicity for r in self.poles)

    def products(self, z):
        """(prod (z - a)^m over the zeros, prod (z - b)^n over the poles) at
        complex z, a scalar or a numpy array."""
        num = 1.0 + 0j
        for r in self.zeros:
            num = num * (z - r.position) ** r.multiplicity
        den = 1.0 + 0j
        for r in self.poles:
            den = den * (z - r.position) ** r.multiplicity
        return num, den


def validate_line_spec(spec: RationalSpec) -> None:
    """Square integrability (m < n) and lower-half-plane poles."""
    if spec.m >= spec.n:
        raise SpecViolation(
            f"square integrability requires total zero order m={spec.m} < "
            f"total pole order n={spec.n}"
        )
    for b in spec.poles:
        if b.position.imag >= 0:
            raise SpecViolation(
                f"pole at {b.position} must lie strictly in the lower half-plane"
            )


@dataclass(frozen=True)
class LineWaveFunction:
    """psi(x) = norm_constant * phase * f(x); phase is a unit-modulus constant
    (it carries the argument of a non-monic designed numerator and drops out
    of every physical quantity)."""

    spec: RationalSpec
    norm_constant: float
    phase: complex = 1.0 + 0j

    def __call__(self, x):
        return eval_psi(self, x)

    @property
    def decay_exponent(self) -> int:
        return self.spec.n - self.spec.m

    @property
    def root_positions(self) -> tuple[complex, ...]:
        return tuple(r.position for r in self.spec.zeros + self.spec.poles)

    @property
    def asymptotic_coefficient(self) -> complex:
        """lim x^(n-m) * psi(x): the constant in the algebraic tail."""
        return self.norm_constant * self.phase


@dataclass(frozen=True)
class SpectrumTerm:
    pole: complex
    coeffs: tuple[complex, ...]


@dataclass(frozen=True)
class MomentumSpectrumLine:
    """Momentum wave function for p > 0 as sum_l P_l(p) exp(-i p b_l), hbar = 1.

    terms[l].coeffs[k] multiplies (-i p)^k, k = 0 .. mult-1."""

    terms: tuple[SpectrumTerm, ...]
    decay_order: int


@dataclass(frozen=True)
class BackflowReport:
    """Maximal open regions with k < 0, plus extremal values of k and j.

    Half-infinite regions carry -inf/inf endpoints. `tangencies` lists points
    where k touches zero without changing sign (zero-width backflow); the
    minima locations use inf when the infimum is only approached in the tails.
    """

    intervals: tuple[tuple[float, float], ...]
    min_wavenumber: float
    min_wavenumber_location: float
    min_current: float
    min_current_location: float
    tangencies: tuple[float, ...] = ()


def make_line_wavefunction(spec: RationalSpec, *, tol: float = 1e-10) -> LineWaveFunction:
    """Normalize N = (integral |f|^2 dx)^(-1/2) by adaptive quadrature."""
    validate_line_spec(spec)
    unnormalized = LineWaveFunction(spec, 1.0)
    res = oracle.norm_quadrature(unnormalized, "line", tol)
    total = res.value.real
    if not (total > 0 and math.isfinite(total)):
        raise QuadratureFailure(f"|f|^2 integral came out as {total!r}")
    return LineWaveFunction(spec, 1.0 / math.sqrt(total))


def eval_psi(wf: LineWaveFunction, x):
    """psi at real x (scalar or array); finite everywhere since poles are off-axis."""
    z = x + 0j if np.isscalar(x) else np.asarray(x, float) + 0j
    num, den = wf.spec.products(z)
    return wf.norm_constant * wf.phase * num / den


def momentum_spectrum(wf: LineWaveFunction) -> MomentumSpectrumLine:
    """Close the Fourier contour downward and collect the residue at each pole.

    For a pole b of order n_b the residue needs the first n_b Taylor
    coefficients of f_b(z) = (z-b)^(n_b) f(z) about b, obtained by dividing
    the shifted numerator by the product of the remaining pole factors.
    """
    numerator = poly_from_roots(wf.spec.zeros)
    pref = -1j * wf.norm_constant * wf.phase * _SQRT_2PI
    terms = []
    for l, pole in enumerate(wf.spec.poles):
        b, n_b = pole.position, pole.multiplicity
        num = series_from_poly(numerator, b, n_b)
        den_poly = Poly((1.0 + 0j,))
        for j, other in enumerate(wf.spec.poles):
            if j == l:
                continue
            # (z - b_j)^(n_j) expressed in u = z - b
            den_poly = poly_mul(den_poly, poly_from_roots([(other.position - b, other.multiplicity)]))
        den = series_from_poly(den_poly, 0j, n_b)
        taylor = series_quotient(num, Series(den.coeffs, b), n_b)
        coeffs = tuple(
            pref * taylor.coeffs[n_b - 1 - k] / math.factorial(k) for k in range(n_b)
        )
        terms.append(SpectrumTerm(b, coeffs))
    return MomentumSpectrumLine(tuple(terms), wf.spec.n - wf.spec.m)


def eval_spectrum(sp: MomentumSpectrumLine, p):
    """Momentum wave function at p, a scalar or an array: zero for p < 0; at
    p = 0 the principal-value half-sum applies when the decay exponent is 1,
    otherwise the continuous limit."""
    limit = sum(t.coeffs[0] for t in sp.terms)
    at_zero = 0.5 * limit if sp.decay_order == 1 else limit
    if np.isscalar(p):
        return 0j if p < 0 else at_zero if p == 0 else _residue_sum(sp, p, cmath.exp)
    p = np.asarray(p, float)
    out = np.where(p == 0, at_zero, 0j)
    positive = p > 0
    out[positive] = _residue_sum(sp, p[positive], np.exp)
    return out


def _residue_sum(sp: MomentumSpectrumLine, p, exp):
    total = 0j
    for t in sp.terms:
        total = total + horner(t.coeffs, -1j * p) * exp(-1j * p * t.pole)
    return total


def _defined(d2, x, message):
    """d2 = |x - zero|^2 with the points closer than 1e-12 to a zero of psi
    excluded, since the phase is undefined there: a scalar x raises
    SingularPoint, an array gets NaN (which the caller's sum carries on
    without a division warning)."""
    bad = d2 < 1e-24
    if isinstance(bad, np.ndarray):
        return np.where(bad, np.nan, d2)
    if bad:
        raise SingularPoint(f"{message} x={x}")
    return d2


def _current(psi, k_of, wf, x):
    """j = |psi|^2 k with k = k_of(wf, x); zero where psi vanishes, since the
    vanishing density dominates the phase singularity there."""
    dens = psi.real * psi.real + psi.imag * psi.imag
    if not np.isscalar(x):
        k = k_of(wf, x)
        return np.where((dens == 0.0) | np.isnan(k), 0.0, dens * k)
    if dens == 0.0:
        return 0.0
    try:
        return dens * k_of(wf, x)
    except SingularPoint:
        return 0.0


def _lorentzian_sum(wf: LineWaveFunction, x, slope: bool = False):
    """Sum over roots of +-mult * v / ((x-u)^2 + v^2), zeros counted
    positive and poles negative, or its x-derivative when `slope` is set."""
    if not np.isscalar(x):
        x = np.asarray(x, float)
    total = 0.0
    for sign, roots in ((1, wf.spec.zeros), (-1, wf.spec.poles)):
        for r in roots:
            u, v = r.position.real, r.position.imag
            d2 = (x - u) ** 2 + v * v
            if sign > 0:
                d2 = _defined(d2, x, "local wave number undefined at the real zero")
            w = sign * r.multiplicity * v
            total = total + (w * -2.0 * (x - u) / (d2 * d2) if slope else w / d2)
    return total


def local_wavenumber(wf: LineWaveFunction, x):
    """Signed Lorentzian sum at x, a scalar or an array: zeros contribute
    Im(a)/|x-a|^2 per unit multiplicity, poles the negative of that.
    Undefined on a real zero: SingularPoint for a scalar, NaN in an array."""
    return _lorentzian_sum(wf, x)


def probability_current(wf: LineWaveFunction, x):
    """j(x) = |psi|^2 k(x) at x, a scalar or an array; zero at real zeros of psi."""
    return _current(eval_psi(wf, x), local_wavenumber, wf, x)


def _lorentzian_terms(spec: RationalSpec) -> list[tuple[float, float, float]]:
    terms = []
    for r in spec.zeros:
        if r.position.imag != 0.0:
            terms.append((r.position.real, r.position.imag, r.multiplicity * r.position.imag))
    for r in spec.poles:
        terms.append((r.position.real, r.position.imag, -r.multiplicity * r.position.imag))
    return terms


def _k_numerator(terms) -> tuple[Poly, Poly]:
    """k = T/D over the common positive denominator D = prod((x-u)^2 + v^2)."""
    qs = [Poly((u * u + v * v, -2.0 * u, 1.0)) for u, v, _ in terms]
    D = Poly((1.0 + 0j,))
    for q in qs:
        D = poly_mul(D, q)
    T = Poly(())
    for l, (_, _, w) in enumerate(terms):
        part = Poly((w + 0j,))
        for j, q in enumerate(qs):
            if j != l:
                part = poly_mul(part, q)
        T = poly_add(T, part)
    return T, D


def _safe_k(wf: LineWaveFunction, xs) -> np.ndarray:
    """k at each of xs, nudging points off the real zeros of psi."""
    xs = np.asarray(xs, float)
    for attempt in range(6):
        k = local_wavenumber(wf, xs)
        bad = np.isnan(k)
        if not bad.any():
            return k
        xs = np.where(bad, xs + (1e-7 + attempt * 1e-6) * (1.0 + np.abs(xs)), xs)
    raise SingularPoint(f"could not evaluate k near x={xs[bad]}")


def backflow_intervals(wf: LineWaveFunction) -> BackflowReport:
    """Locate every maximal region with k < 0 by exact polynomial root finding.

    The Lorentzian sum is cleared into a real polynomial whose real roots are
    the candidate endpoints; each is polished by a Newton step on k itself,
    then the sign of k classifies the subintervals. Minima of k come from the
    critical-point polynomial; the current minimum from a refined grid scan.
    """
    terms = _lorentzian_terms(wf.spec)
    T, D = _k_numerator(terms)

    crossings: list[float] = []
    tangencies: list[float] = []
    if T.degree >= 1:
        for root in real_roots(T):
            x = root.value
            # polish on k directly (cheap, and pins |k(endpoint)| near machine zero)
            for _ in range(3):
                try:
                    dk = _lorentzian_sum(wf, x, slope=True)
                    if dk == 0.0:
                        break
                    x -= local_wavenumber(wf, x) / dk
                except SingularPoint:
                    break
            crossings.append(x)
    crossings.sort()

    intervals: list[tuple[float, float]] = []
    if crossings:
        span = max(crossings[-1] - crossings[0], 1.0)
        probes = [crossings[0] - span]
        for a, b in zip(crossings, crossings[1:]):
            probes.append(0.5 * (a + b))
        probes.append(crossings[-1] + span)
        signs = (_safe_k(wf, probes) < 0).tolist()
        bounds = [-math.inf] + crossings + [math.inf]
        for i, neg in enumerate(signs):
            if neg:
                intervals.append((bounds[i], bounds[i + 1]))
        for i, x in enumerate(crossings):
            if not signs[i] and not signs[i + 1]:
                tangencies.append(x)
    else:
        if _safe_k(wf, [0.0])[0] < 0:
            intervals.append((-math.inf, math.inf))

    # global minimum of k from its critical points; the tails approach 0
    min_k, min_k_loc = 0.0, math.inf
    crit = poly_add(poly_mul(poly_derivative(T), D), poly_scale(poly_mul(T, poly_derivative(D)), -1.0))
    if crit.degree >= 1:
        xs = np.array([root.value for root in real_roots(crit)])
        ks = np.nan_to_num(local_wavenumber(wf, xs), nan=0.0)  # skip real zeros
        if xs.size and ks.min() < min_k:
            i = int(np.argmin(ks))
            min_k, min_k_loc = float(ks[i]), float(xs[i])

    # minimum of the current: refined grid scan over the root neighbourhood
    positions = [r.position for r in wf.spec.zeros + wf.spec.poles]
    re_parts = [z.real for z in positions]
    pad = 5.0 * max(1.0, max(abs(z.imag) for z in positions))
    spread = max(re_parts) - min(re_parts)
    lo = min(re_parts) - spread - pad
    hi = max(re_parts) + spread + pad
    xs = np.linspace(lo, hi, 4001)
    js = probability_current(wf, xs)
    i0 = int(np.argmin(js))
    a = xs[max(i0 - 1, 0)]
    b = xs[min(i0 + 1, len(xs) - 1)]
    res = minimize_scalar(lambda t: probability_current(wf, float(t)), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12})
    if res.fun < js[i0]:
        min_j, min_j_loc = float(res.fun), float(res.x)
    else:
        min_j, min_j_loc = float(js[i0]), float(xs[i0])

    return BackflowReport(
        intervals=tuple(intervals),
        min_wavenumber=min_k,
        min_wavenumber_location=min_k_loc,
        min_current=min_j,
        min_current_location=min_j_loc,
        tangencies=tuple(tangencies),
    )


def with_phase(wf: LineWaveFunction, phase: complex) -> LineWaveFunction:
    """Same physical state with a different constant phase (|phase| forced to 1)."""
    mag = abs(phase)
    if mag == 0:
        raise ValueError("phase must be nonzero")
    return replace(wf, phase=phase / mag)
