"""Dense complex polynomials and truncated power series.

Everything downstream (residue spectra, Fourier coefficients, Pade
numerators, backflow interval endpoints) reduces to dense polynomial
arithmetic at modest degree plus truncated Taylor-series division.
Coefficients are plain Python complex numbers in ascending powers; numpy
handles convolutions and the companion-matrix eigenvalue step of root
finding, after which roots are polished by Newton/bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import DegreeZero, ZeroLeadingDenominator

# Trailing coefficients below this relative size are round-off, not degree.
STRIP_REL = 1e-14


def _strip(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    cs = [complex(c) for c in coeffs]
    top = max((abs(c) for c in cs), default=0.0)
    if top == 0.0:
        return ()
    while cs and abs(cs[-1]) <= STRIP_REL * top:
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


ONE = Poly((1.0 + 0j,))


@dataclass(frozen=True)
class Series:
    """Truncated Taylor expansion sum(coeffs[k] * (z - center)**k)."""

    coeffs: tuple[complex, ...]
    center: complex = 0j

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a series needs at least one coefficient")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in cs):
            raise ValueError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "center", complex(self.center))

    @property
    def order(self) -> int:
        return len(self.coeffs)


class RealRoot(NamedTuple):
    value: float
    multiplicity: int


def _root_pairs(roots) -> list[tuple[complex, int]]:
    out = []
    for r in roots:
        if hasattr(r, "position"):
            out.append((complex(r.position), int(r.multiplicity)))
        else:
            pos, mult = r
            out.append((complex(pos), int(mult)))
    return out


def poly_from_roots(roots) -> Poly:
    """Monic polynomial prod (z - a)**mult over (a, mult) pairs (or Root objects)."""
    pairs = _root_pairs(roots)
    if any(m < 1 for _, m in pairs):
        raise ValueError("root multiplicities must be >= 1")
    acc = np.array([1.0 + 0j])
    for pos, mult in pairs:
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


def poly_eval(p: Poly, z):
    """p at z, a complex scalar or a numpy array."""
    return horner(p.coeffs, z)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a.coeffs or not b.coeffs:
        return Poly(())
    return Poly(tuple(np.convolve(a.coeffs, b.coeffs)))


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a.coeffs), len(b.coeffs))
    cs = [0j] * n
    for i, c in enumerate(a.coeffs):
        cs[i] += c
    for i, c in enumerate(b.coeffs):
        cs[i] += c
    return Poly(tuple(cs))


def poly_scale(a: Poly, s: complex) -> Poly:
    return Poly(tuple(s * c for c in a.coeffs))


def poly_derivative(p: Poly) -> Poly:
    return Poly(tuple(k * c for k, c in enumerate(p.coeffs) if k >= 1))


def poly_taylor_shift(p: Poly, center: complex) -> Poly:
    """Coefficients of u -> p(center + u), by repeated synthetic division."""
    a = list(p.coeffs)
    n = len(a)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            a[j] += center * a[j + 1]
    return Poly(tuple(a))


def series_from_poly(p: Poly, center: complex, order: int) -> Series:
    shifted = poly_taylor_shift(p, center).coeffs
    cs = list(shifted[:order])
    cs += [0j] * (order - len(cs))
    return Series(tuple(cs), center)


def series_mul(a: Series, b: Series, order: int) -> Series:
    if a.center != b.center:
        raise ValueError("series centers differ")
    full = np.convolve(a.coeffs, b.coeffs)[:order]
    cs = list(full) + [0j] * (order - len(full))
    return Series(tuple(cs), a.center)


def series_quotient(num: Series, den: Series, order: int) -> Series:
    """First `order` Taylor coefficients of num/den about the shared center.

    Coefficient j equals (num/den)^(j)(center) / j!.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if num.center != den.center:
        raise ValueError("series centers differ")
    dmax = max(abs(c) for c in den.coeffs)
    if abs(den.coeffs[0]) < 1e-14 * dmax:
        raise ZeroLeadingDenominator(
            f"denominator constant term {den.coeffs[0]!r} is below 1e-14 of its scale"
        )
    a = np.zeros(order, complex)
    a[: min(order, len(num.coeffs))] = num.coeffs[:order]
    d = np.zeros(order, complex)
    d[: min(order, len(den.coeffs))] = den.coeffs[:order]
    q = np.empty(order, complex)
    d0 = d[0]
    for j in range(order):
        s = a[j]
        if j:
            s = s - np.dot(d[1 : j + 1], q[j - 1 :: -1])
        q[j] = s / d0
    return Series(tuple(q), num.center)


# ---------------------------------------------------------------------------
# root finding


def _eval_scale(coeffs: Sequence[complex], z: complex) -> float:
    top = max(abs(c) for c in coeffs)
    return max(top * (1.0 + abs(z)) ** (len(coeffs) - 1), 1e-300)


def _rel_residual(coeffs: Sequence[complex], z: complex) -> float:
    return abs(horner(coeffs, z)) / _eval_scale(coeffs, z)


def _companion_eigenvalues(coeffs: Sequence[complex]) -> np.ndarray:
    monic = np.asarray(coeffs, complex) / coeffs[-1]
    d = len(coeffs) - 1
    mat = np.zeros((d, d), complex)
    if d > 1:
        mat[1:, :-1] = np.eye(d - 1)
    mat[:, -1] = -monic[:-1]
    return np.linalg.eigvals(mat)


def _newton_polish(coeffs, dcoeffs, z0, iters=60):
    """Newton iteration keeping the best residual seen; works on R or C."""
    z, best, best_r = z0, z0, _rel_residual(coeffs, z0)
    for _ in range(iters):
        dz = horner(dcoeffs, z)
        if dz == 0:
            break
        step = horner(coeffs, z) / dz
        z = z - step
        r = _rel_residual(coeffs, z)
        if r < best_r:
            best, best_r = z, r
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return best, best_r


def real_roots(p: Poly, *, residual_tol: float = 1e-12) -> list[RealRoot]:
    """All real roots of a real-coefficient polynomial, ascending, with multiplicity.

    Companion-matrix eigenvalues seed the candidates; each is polished by
    Newton iteration plus a bracketed bisection step when a sign change is
    available, and accepted when the relative residual drops below
    `residual_tol`.
    """
    top = max((abs(c) for c in p.coeffs), default=0.0)
    if any(abs(c.imag) > 1e-12 * top for c in p.coeffs):
        raise ValueError("real_roots requires (numerically) real coefficients")
    coeffs = tuple(c.real for c in p.coeffs)
    deg = len(coeffs) - 1
    if deg < 1:
        raise DegreeZero("constant polynomial has no root structure")
    dcoeffs = tuple(k * c for k, c in enumerate(coeffs) if k >= 1)

    if deg == 1:
        raw = [-coeffs[0] / coeffs[1] + 0j]
    else:
        raw = list(_companion_eigenvalues(coeffs))

    accepted: list[float] = []
    for lam in raw:
        if abs(lam.imag) > 1e-4 * max(1.0, abs(lam)):
            continue
        x, res = _newton_polish(coeffs, dcoeffs, float(lam.real))
        x = float(x.real) if isinstance(x, complex) else float(x)
        # bisection step when the polynomial changes sign around the estimate
        eps = 1e-7 * max(1.0, abs(x))
        lo, hi = x - eps, x + eps
        flo, fhi = horner(coeffs, lo).real, horner(coeffs, hi).real
        if flo * fhi < 0:
            x = brentq(lambda t: horner(coeffs, t).real, lo, hi, xtol=1e-15, rtol=8.9e-16)
            res = _rel_residual(coeffs, x)
        if res <= residual_tol:
            accepted.append(x)

    accepted.sort()
    out: list[RealRoot] = []
    for x in accepted:
        if out and abs(x - out[-1].value) <= 1e-7 * max(1.0, abs(x)):
            out[-1] = RealRoot(out[-1].value, out[-1].multiplicity + 1)
        else:
            out.append(RealRoot(x, 1))
    return out


def complex_roots(p: Poly) -> list[tuple[complex, int]]:
    """All complex roots with multiplicities (clustered), unordered pairs sorted by real part."""
    coeffs = p.coeffs
    deg = len(coeffs) - 1
    if deg < 1:
        raise DegreeZero("constant polynomial has no root structure")
    dcoeffs = tuple(k * c for k, c in enumerate(coeffs) if k >= 1)
    polished = []
    for lam in _companion_eigenvalues(coeffs):
        z, _ = _newton_polish(coeffs, dcoeffs, complex(lam), iters=40)
        polished.append(complex(z))
    polished.sort(key=lambda z: (z.real, z.imag))
    out: list[tuple[complex, int]] = []
    for z in polished:
        if out and abs(z - out[-1][0]) <= 1e-7 * max(1.0, abs(z)):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((z, 1))
    return out


def root_residual(p: Poly, z: complex) -> float:
    """Relative residual |p(z)| / sum |c_k||z|^k, for factoring diagnostics."""
    return _rel_residual(p.coeffs, z)
