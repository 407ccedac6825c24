"""Dense complex polynomials and truncated power series.

Everything downstream (residue spectra, Fourier coefficients, Pade
numerators, backflow interval endpoints) reduces to dense polynomial
arithmetic at modest degree plus truncated Taylor-series division, one linear
pole factor at a time (rational_series gives the line's residues and the
ring's Fourier coefficients). rational_series divides each linear factor in
one pass over a list; series_quotient is the general division, for any
denominator, kept as the tests' reference.
Coefficients are plain Python complex numbers in ascending powers; numpy
handles convolutions, FFTs and eigenvalues. Polynomial roots come one way:
companion eigenvalues, each Newton-polished, sorted and clustered;
complex_roots returns them all and real_roots the ones on the real axis.
circle_roots finds the roots on |z| = 1 of a sampled real trigonometric
polynomial in real arithmetic: the eigenvalues of a real diagonal-plus-rank-one
matrix built from its values at 2 d + 1 equispaced nodes (its barycentric
form in t = tan(theta / 2)), not a complex companion matrix. Root data is a
list of Roots, each the (position, multiplicity) pair that poly_from_roots and
rational_series unpack.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DegreeZero, TruncationFailure, ZeroLeadingDenominator

# circle_roots: Fourier coefficients below this share of the size of the
# summed terms are round-off, and roots this close to |z| = 1 lie on it.
CIRCLE_TAIL = 1e-13
CIRCLE_BAND = 0.1
# _newton_polish: the most Newton steps per root
NEWTON_ITERS = 40


def _strip(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    """The coefficients without their exactly-zero top ones: a small leading
    coefficient is still degree (a designed numerator's is 2e-16 of its peak at m = 20)."""
    cs = [complex(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Poly:
    """sum(coeffs[k] * z**k); the zero polynomial has an empty coeff tuple."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class Series:
    """Truncated Taylor expansion sum(coeffs[k] * (z - center)**k)."""

    coeffs: tuple[complex, ...]
    center: complex = 0j

    def __post_init__(self):
        cs = tuple(map(complex, self.coeffs))
        if not cs:
            raise ValueError("a series needs at least one coefficient")
        if not np.isfinite(cs).all():
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "center", complex(self.center))

    @property
    def order(self) -> int:
        return len(self.coeffs)


class Root(NamedTuple):
    """A zero or pole location with its multiplicity: the (position, multiplicity) pair."""

    position: complex
    multiplicity: int = 1


class RealRoot(NamedTuple):
    value: float
    multiplicity: int


def poly_from_roots(roots) -> Poly:
    """Monic polynomial prod (z - a)**mult over Roots, (a, mult) pairs."""
    acc = np.array([1.0 + 0j])
    for pos, mult in roots:
        if mult < 1:
            raise ValueError("root multiplicities must be >= 1")
        factor = np.array([-pos, 1.0 + 0j])
        for _ in range(mult):
            acc = np.convolve(acc, factor)
    return Poly(tuple(acc))


def horner(coeffs: Sequence[complex], z):
    """sum(coeffs[k] * z**k) by Horner's rule; z is a scalar or a numpy array."""
    acc = np.zeros(z.shape, complex) if isinstance(z, np.ndarray) else 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def series_quotient(num: Series, den: Series, order: int) -> Series:
    """First `order` Taylor coefficients of num/den about the shared center, by
    back-substitution over the den coefficients below `order`: O(order len(den)).
    This is the general division, for any denominator; rational_series divides
    its linear factors itself, and the tests use this as their reference.

    Coefficient j equals (num/den)^(j)(center) / j!.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if num.center != den.center:
        raise ValueError("series centers differ")
    d0, tail = den.coeffs[0], den.coeffs[1:order]
    dmax = max(abs(c) for c in den.coeffs)
    if d0 == 0 or abs(d0) < 1e-14 * dmax:
        raise ZeroLeadingDenominator(
            f"denominator constant term {d0!r} is below 1e-14 of its scale"
        )
    q: list[complex] = []
    for s in num.coeffs[:order] + (0j,) * (order - len(num.coeffs)):
        for c, prev in zip(tail, reversed(q)):
            s -= c * prev
        q.append(s / d0)
    return Series(tuple(q), num.center)


def _require_finite(values) -> None:
    if not all(map(cmath.isfinite, values)):
        raise ValueError("series coefficients must be finite")


def rational_series(zeros, poles, center: complex, order: int) -> Series:
    """First `order` Taylor coefficients about `center` of prod (z - a)^m / prod (z - b)^n
    over the Roots, (a, m) and (b, n) pairs, of the zeros and poles. The numerator is
    expanded from the shifted zeros a - center; the poles are divided out one linear
    factor (center - b) + u at a time, so no expanded pole product rounds its small
    coefficients against its large ones.

    Each factor is divided in one pass over a list, q_j = (s_j - 1 * q_(j-1)) / (center - b):
    the operations series_quotient performs for that two-term denominator, in the
    same order, so the coefficients agree with it bit for bit. A non-finite
    coefficient stays non-finite to the end of its pass, so the last one stands
    for the pass."""
    if order < 1:
        raise ValueError("order must be >= 1")
    center = complex(center)
    num = poly_from_roots([(a - center, m) for a, m in zeros]).coeffs[:order]
    _require_finite(num)
    q = list(num) + [0j] * (order - len(num))
    # u's coefficient, complex as series_quotient holds it: 1.0 * prev can differ in a zero's sign
    unit = 1 + 0j
    for b, n in poles:
        d0 = center - b
        _require_finite((d0,))
        if abs(d0) < 1e-14:  # series_quotient's guard, with the factor's scale max(|d0|, 1)
            raise ZeroLeadingDenominator(
                f"denominator constant term {d0!r} is below 1e-14 of its scale"
            )
        for _ in range(n):
            out: list[complex] = []
            prev = 0j
            for s in q:
                prev = (s - unit * prev) / d0
                out.append(prev)
            _require_finite(out[-1:])
            q = out
    return Series(tuple(q), center)


# ---------------------------------------------------------------------------
# root finding


def _rel_residual(coeffs: Sequence[complex], z: complex, top: float) -> float:
    """|p(z)| / (top (1 + |z|)^deg), top = max |coeffs|, computed once per polynomial."""
    scale = max(top * (1.0 + abs(z)) ** (len(coeffs) - 1), 1e-300)
    return abs(horner(coeffs, z)) / scale


def _companion_eigenvalues(coeffs: Sequence[complex]) -> np.ndarray:
    monic = np.asarray(coeffs, complex) / coeffs[-1]
    d = len(coeffs) - 1
    mat = np.zeros((d, d), complex)
    if d > 1:
        mat[1:, :-1] = np.eye(d - 1)
    mat[:, -1] = -monic[:-1]
    return np.linalg.eigvals(mat)


def _newton_polish(coeffs, dcoeffs, z0, top):
    """Newton iteration keeping the best residual seen, to a step below 1e-16 (1 + |z|), which
    round-off seldom allows, or 6 steps without a new best. top = max |coeffs|."""
    z, best, best_r, stall = z0, z0, _rel_residual(coeffs, z0, top), 0
    for _ in range(NEWTON_ITERS):
        dz = horner(dcoeffs, z)
        if dz == 0:
            break
        step = horner(coeffs, z) / dz
        z = z - step
        r = _rel_residual(coeffs, z, top)
        stall = 0 if r < best_r else stall + 1
        if r < best_r:
            best, best_r = z, r
        if abs(step) <= 1e-16 * (1.0 + abs(z)) or stall == 6:
            break
    return best


def _companion_roots(coeffs: Sequence[complex]) -> list[complex]:
    """Every root of sum(coeffs[k] z**k) with multiplicity: the companion eigenvalues, each
    Newton-polished, in eigenvalue order."""
    if len(coeffs) < 2:
        raise DegreeZero("constant polynomial has no root structure")
    dcoeffs = tuple(k * c for k, c in enumerate(coeffs) if k >= 1)
    top = max(abs(c) for c in coeffs)
    return [complex(_newton_polish(coeffs, dcoeffs, complex(lam), top)) for lam in _companion_eigenvalues(coeffs)]


def _cluster(values) -> list[tuple]:
    """(value, count) for sorted values, counting a value within 1e-7 max(1, |value|) of the
    previous entry's as a repeat of it."""
    out: list[tuple] = []
    for v in values:
        if out and abs(v - out[-1][0]) <= 1e-7 * max(1.0, abs(v)):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((v, 1))
    return out


def real_roots(p: Poly) -> list[RealRoot]:
    """All real roots of a real-coefficient polynomial, ascending, with multiplicity: the
    polished roots within 1e-4 max(1, |z|) of the axis whose real part leaves a relative
    residual of at most 1e-12, clustered on the real parts."""
    top = max((abs(c) for c in p.coeffs), default=0.0)
    if any(abs(c.imag) > 1e-12 * top for c in p.coeffs):
        raise ValueError("real_roots requires (numerically) real coefficients")
    coeffs = tuple(c.real for c in p.coeffs)
    xs = sorted(
        z.real
        for z in _companion_roots(coeffs)
        if abs(z.imag) <= 1e-4 * max(1.0, abs(z)) and _rel_residual(coeffs, z.real, top) <= 1e-12
    )
    return [RealRoot(x, mult) for x, mult in _cluster(xs)]


def complex_roots(p: Poly) -> list[Root]:
    """All complex roots with multiplicities (clustered), sorted by real part."""
    return [Root(z, m) for z, m in _cluster(sorted(_companion_roots(p.coeffs), key=lambda z: (z.real, z.imag)))]


@lru_cache(maxsize=None)
def _tan_nodes(d: int) -> tuple[np.ndarray, ...]:
    """At the n = 2 d + 1 nodes, in the order of an inverse real FFT of length n (k = 0..d, then
    -d..-1): tau_k = tan(pi k / n) and w_k tau_k for k != 0, and the barycentric weights
    w_k = (-1)^k / cos(pi k / n). O(d) for each degree."""
    n = 2 * d + 1
    k = np.arange(n)
    k[d + 1 :] -= n
    angle = np.pi * k / n
    tau, weight = np.tan(angle[1:]), np.where(k % 2, -1.0, 1.0) / np.cos(angle)
    nodes = tau, weight[1:] * tau, weight
    for a in nodes:
        a.setflags(write=False)
    return nodes


def circle_roots(samples, degree: int, size) -> np.ndarray:
    """Sorted angles in [-pi, pi) of the roots near |z| = 1, z = e^{i theta}, of the real
    p(theta) = sum_{|n| <= degree} c_n z^n, from samples at theta_j = 2 pi j / N (N > 2
    degree + 1) whose summed terms have magnitudes up to `size`. The c_n come from one
    FFT; those above `degree` must be round-off, at most CIRCLE_TAIL max(size) (else
    TruncationFailure), and top ones that small are cut, to degree d.

    With phi + pi at the sample of largest |p| and t = tan((theta - phi) / 2), p is a real
    polynomial of degree 2 d in t over (1 + t^2)^d. Its trigonometric barycentric form on the
    n = 2 d + 1 nodes phi + 2 pi k / n, |k| <= d (Berrut 1984), from the node values p_k of one
    inverse FFT, puts its roots at the eigenvalues t of the real 2d x 2d matrix diag(tau) - u 1^T
    (Corless 2004): tau_k = tan(pi k / n) and u_k = (-1)^k p_k tau_k / (S cos(pi k / n)) for
    k != 0, with S = sum_k (-1)^k p_k / cos(pi k / n) = n p(phi + pi), never small. Then
    theta = phi + arg((1 + it) / (1 - it)), and roots within CIRCLE_BAND of the circle are
    kept: round-off moves a double root or a flat stretch off it."""
    N = len(samples)
    if N <= 2 * degree + 1:
        raise ValueError(f"{N} samples cannot resolve degree {degree}")
    c = np.fft.rfft(samples) / N
    mags = np.abs(c)
    noise = CIRCLE_TAIL * np.max(size)
    tail = mags[degree + 1 :].max(initial=0.0)
    if tail > noise:
        raise TruncationFailure(
            f"coefficients above degree {degree} are {tail / noise:.2e} times their round-off"
        )
    d = degree
    while d > 0 and mags[d] <= noise:
        d -= 1
    if d == 0:
        return np.empty(0)
    top = int(np.argmax(np.abs(samples)))
    # c_m e^{i m phi}, phi = 2 pi top / N - pi, its phase pi m (2 top - N) / N reduced mod 2 pi exactly
    shift = np.exp((1j * math.pi / N) * (np.arange(d + 1) * (2 * top - N) % (2 * N)))
    p = np.fft.irfft(c[: d + 1] * shift, 2 * d + 1)  # p_k / n
    tau, weight_tau, weight = _tan_nodes(d)
    it = 1j * np.linalg.eigvals(np.diag(tau) - (p[1:] * weight_tau / (weight @ p))[:, None])
    z = (1 + it) / (1 - it)
    phi = 2 * math.pi * top / N - math.pi
    theta = phi + np.angle(z[np.abs(np.abs(z) - 1.0) <= CIRCLE_BAND])
    # theta lies in [phi - pi, phi + pi]; only the angles outside [-pi, pi) are wrapped, so a small
    # one keeps its relative accuracy
    if phi >= 0:
        theta[theta >= math.pi] -= 2 * math.pi
    else:
        theta[theta < -math.pi] += 2 * math.pi
    return np.sort(theta)


def root_residual(p: Poly, z: complex) -> float:
    """Relative residual |p(z)| / sum |c_k||z|^k, for factoring diagnostics."""
    return _rel_residual(p.coeffs, z, max(abs(c) for c in p.coeffs))
