"""Wave functions on the real line built from rational complex functions.

A wave function here is the boundary value psi(x) = N * f(x) of a ratio of
monic polynomials f(z) = prod(z-a_l)^m_l / prod(z-b_l)^n_l whose poles all
sit strictly in the lower half-plane. Closing the Fourier contour downward
then kills the spectrum for p < 0, and everything of interest follows from
the root data alone:

* the momentum spectrum is a sum over poles of (polynomial in p) * exp(-i p b_l),
  with coefficients read off the Taylor series of (z-b_l)^n_l f at each pole
  (polyring.rational_series);
* the local wave number k(x) is a signed sum of Lorentzians, one per root,
  negative bumps coming from zeros placed below the axis;
* backflow regions are the sublevel set k < 0. Under x = c + s tan(theta/2)
  each Lorentzian denominator is a degree-1 trigonometric polynomial, so the
  sign changes and critical points of k and j are the real roots of
  trigonometric polynomials (_circle_report, shared with the ring);
* the critical points of |psi|^2, where the designer reads its amplitude
  price, are the real roots of one more, (log|psi|^2)' prod q prod q0, from
  the same engine (density_critical_points);
* N is a Gauss-Kronrod quadrature in theta on that circle, where |f|^2 dx is
  smooth and periodic (_chart_norm_integral); construction calls no oracle.

Units: hbar = mass = 1; x in units of an arbitrary length scale, momenta in
its inverse, currents in the corresponding frequency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import QuadratureFailure, SingularPoint, SpecViolation
from .polyring import Root, circle_roots, horner, rational_series

MERGE_TOL = 1e-9
# Relative accuracy of the quadrature that normalizes a line state.
NORM_TOL = 1e-10
# Sign changes of k closer than this in theta are one (a tangency), and on the line
# roots this close to theta = pi are x = +-inf; ROUNDOFF_K is the round-off of k.
ROOT_MERGE = 1e-7
ROUNDOFF_K = 1e-12
_SQRT_2PI = math.sqrt(2 * math.pi)
# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK's qk15): nodes x >= 0, Kronrod and Gauss weights
_GK = np.array([[0.99145537112081264, 0.94910791234275853, 0.86486442335976907, 0.74153118559939444,
                 0.58608723546769113, 0.40584515137739717, 0.20778495500789847, 0.0],
                [0.022935322010529225, 0.063092092629978553, 0.10479001032225018, 0.14065325971552592,
                 0.16900472663926790, 0.19035057806478541, 0.20443294007529889, 0.20948214108472783],
                [0, 0.12948496616886969, 0, 0.27970539148927667, 0, 0.38183005050511894, 0, 0.41795918367346939]])
_GK_X, _GK_W, _GK_G = np.concatenate([_GK * [[-1], [1], [1]], _GK[:, -2::-1]], axis=1)


def _integer(value, label: str) -> int:
    """value as an int if it is an integral number (2 or 2.0); a bool, a fraction, inf or NaN is invalid."""
    integral = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    if not integral or isinstance(value, bool):
        raise SpecViolation(f"{label} must be an integer, got {value!r}")
    return int(value)


def _merged(roots: Iterable[Root], label: str) -> tuple[Root, ...]:
    """The roots with finite positions and integer multiplicities >= 1, those within MERGE_TOL
    of an earlier one added to it: every root list that reaches polyring passes here."""
    out: list[Root] = []
    for pos, mult in roots:
        pos, mult = complex(pos), _integer(mult, f"{label} multiplicity")
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

    @cached_property
    def root_columns(self) -> tuple[np.ndarray, ...]:
        """Per root, zeros first, as columns for the leading root axis of k: position, its real and
        imaginary parts, modulus and phase (Python's abs and cmath.phase, which numpy's complex abs
        and angle can miss by an ulp), multiplicity (+ for a zero, - for a pole) and the squared
        distance below which k is undefined (1e-24 at a zero, a real one on the line; none at a pole)."""
        roots = self.zeros + self.poles
        z = [r.position for r in roots]
        zero = np.arange(len(roots)) < len(self.zeros)
        mult = np.array([r.multiplicity for r in roots], float)
        columns = (z, [p.real for p in z], [p.imag for p in z], [abs(p) for p in z], [cmath.phase(p) for p in z],
                   np.where(zero, mult, -mult), np.where(zero, 1e-24, 0.0))
        return tuple(np.array(c)[:, None] for c in columns)

    @property
    def m(self) -> int:
        return sum(r.multiplicity for r in self.zeros)

    @property
    def n(self) -> int:
        return sum(r.multiplicity for r in self.poles)

    def products(self, z):
        """(prod (z - a)^m over the zeros, prod (z - b)^n over the poles) at
        complex z, a scalar or a numpy array. A simple root skips the power:
        numpy's complex ** 1 runs its general power loop."""
        def product(roots):
            acc = 1.0 + 0j
            for r in roots:
                d = z - r.position
                acc = acc * (d if r.multiplicity == 1 else d**r.multiplicity)
            return acc

        return product(self.zeros), product(self.poles)


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
    where k touches zero without changing sign (zero-width backflow). On the
    line a minimum that is not negative is reported as 0 at inf, the value
    that k and j approach in the tails (j is also 0 on a real zero of psi).
    """

    intervals: tuple[tuple[float, float], ...]
    min_wavenumber: float
    min_wavenumber_location: float
    min_current: float
    min_current_location: float
    tangencies: tuple[float, ...] = ()


def make_line_wavefunction(spec: RationalSpec) -> LineWaveFunction:
    """Normalize N = (integral |f|^2 dx)^(-1/2) by the chart quadrature _chart_norm_integral."""
    validate_line_spec(spec)
    total = _chart_norm_integral(spec)
    if not (total > 0 and math.isfinite(total)):
        raise QuadratureFailure(f"|f|^2 integral came out as {total!r}")
    return LineWaveFunction(spec, 1.0 / math.sqrt(total))


def _chart_norm_integral(spec: RationalSpec) -> float:
    """integral |f|^2 dx on the circle x = c + s tan(theta/2) of _line_chart, from its root offsets
    zeta = d + iw, centres theta_r = 2 atan(d) and signed multiplicities, never from x: with
    q = |sin(theta/2) - zeta cos(theta/2)|^2, |f|^2 dx = s^(2(m-n)+1)/2 cos^(2(n-m)-2)(theta/2) prod q^mult
    dtheta. G7/K15 panels break on a 12-panel grid and at each theta_r +- 4^j 2|w|/(1+d^2); rounds bisect
    those over their share of 0.1 NORM_TOL |total|. Nodes are tau about the nearest theta_r: in theta, a
    1e-6 peak loses 1e-11."""
    chart = _line_chart(spec)
    zeta, centre, power, s = chart.zeta, chart.centre, chart.mult[:, None, None], chart.scale
    tail = 2 * (spec.n - spec.m) - 2
    width = 2 * np.abs(zeta[:, 0].imag) / (1 + zeta[:, 0].real**2)
    sin0, cos0 = np.sin(centre / 2), np.cos(centre / 2)
    # sin(theta/2) - zeta cos(theta/2) = cos(tau/2) at0 + sin(tau/2) turn0, per (root, centre)
    at0, turn0 = (sin0 - cos0 * zeta)[..., None], (cos0 + sin0 * zeta)[..., None]
    grades = width[:, None] * 4.0 ** np.arange(32)
    keep = (grades > 0) & (grades < 2 * math.pi)
    points = np.concatenate([np.linspace(-math.pi, math.pi, 12, endpoint=False), centre,
                             (centre[:, None] + grades)[keep], (centre[:, None] - grades)[keep]])
    edges = np.append(np.sort(np.remainder(points + math.pi, 2 * math.pi) - math.pi), math.pi)
    k = np.argmin(np.abs(0.5 * (edges[:-1] + edges[1:]) - centre[:, None]), axis=0)
    lo, hi = edges[:-1] - centre[k], edges[1:] - centre[k]  # in tau about centre k
    done = np.empty((5, 0))  # centre, lo, hi, K15 value and |K15 - G7| of every panel so far
    while lo.size and done.shape[1] + lo.size <= 2000:  # none to split: a NaN
        half = 0.5 * (hi - lo)
        t = 0.5 * (0.5 * (hi + lo))[:, None] + (0.5 * half)[:, None] * _GK_X  # tau/2 at the nodes
        ct, st = np.cos(t), np.sin(t)
        u = ct * at0[:, k] + st * turn0[:, k]
        y = np.prod((u.real**2 + u.imag**2) ** power, axis=0) * (cos0[k, None] * ct - sin0[k, None] * st) ** tail
        done = np.concatenate([done, [k, lo, hi, half * (y @ _GK_W), np.abs(half * (y @ (_GK_W - _GK_G)))]], axis=1)
        total, error = done[3:].sum(axis=1)
        budget = 0.1 * NORM_TOL * abs(total)
        if error <= budget:
            return 0.5 * s ** (2 * (spec.m - spec.n) + 1) * total
        split = done[4] > budget / done.shape[1]
        (k, lo, hi), done = done[:3, split], done[:, ~split]
        k, lo, hi = np.tile(k.astype(int), 2), np.append(lo, 0.5 * (lo + hi)), np.append(0.5 * (lo + hi), hi)
    raise QuadratureFailure(f"|f|^2 chart quadrature did not reach {NORM_TOL:.1e} relative in 2000 panels")


def eval_psi(wf: LineWaveFunction, x):
    """psi at real x, a scalar or an array; finite everywhere since poles are off-axis."""
    num, den = wf.spec.products(np.array(x, float, ndmin=1) + 0j)
    return _as_given(x, wf.norm_constant * wf.phase * num / den)


def momentum_spectrum(wf: LineWaveFunction) -> MomentumSpectrumLine:
    """Close the Fourier contour downward and collect the residue at each pole.

    For a pole b of order n_b the residue needs the first n_b Taylor
    coefficients of f_b(z) = (z-b)^(n_b) f(z) about b: polyring.rational_series
    of the zeros over the other poles, the same engine as the ring's c_k.
    """
    pref = -1j * wf.norm_constant * wf.phase * _SQRT_2PI
    terms = []
    for pole in wf.spec.poles:
        b, n_b = pole.position, pole.multiplicity
        others = [r for r in wf.spec.poles if r is not pole]
        taylor = rational_series(wf.spec.zeros, others, b, n_b).coeffs
        coeffs = tuple(pref * taylor[n_b - 1 - k] / math.factorial(k) for k in range(n_b))
        terms.append(SpectrumTerm(b, coeffs))
    return MomentumSpectrumLine(tuple(terms), wf.spec.n - wf.spec.m)


def eval_spectrum(sp: MomentumSpectrumLine, p):
    """Momentum wave function at p, a scalar or an array: zero for p < 0; at
    p = 0 the principal-value half-sum applies when the decay exponent is 1,
    otherwise the continuous limit."""
    limit = sum(t.coeffs[0] for t in sp.terms)
    ps = np.array(p, float, ndmin=1)
    out = np.where(ps == 0, 0.5 * limit if sp.decay_order == 1 else limit, 0j)
    positive = ps > 0
    p_pos = ps[positive]
    out[positive] = sum((horner(t.coeffs, -1j * p_pos) * np.exp(-1j * p_pos * t.pole) for t in sp.terms), 0j)
    return _as_given(p, out)


def _as_given(x, value, undefined: str | None = None):
    """value, computed on np.array(x, float, ndmin=1), as x came in: an array for an array, else a
    Python float or complex (a NaN, where psi has no phase, raises SingularPoint if `undefined`)."""
    if np.ndim(x):
        return value
    value = value[0].item()
    if undefined and math.isnan(value):
        raise SingularPoint(f"{undefined} x={x}")
    return value


def _current(psi, k):
    """j = |psi|^2 k; zero where psi vanishes or k is NaN (on a zero of psi), since
    the vanishing density dominates the phase singularity there."""
    dens = psi.real * psi.real + psi.imag * psi.imag
    return np.where((dens == 0.0) | np.isnan(k), 0.0, dens * k)


def local_wavenumber(wf: LineWaveFunction, x):
    """Signed Lorentzian sum at x, a scalar or an array: zeros contribute
    Im(a)/|x-a|^2 per unit multiplicity, poles the negative of that.
    Undefined closer than 1e-12 to a real zero: SingularPoint for a scalar,
    NaN in an array (which the sum carries on without a division warning)."""
    _, u, v, _, _, mult, singular = wf.spec.root_columns
    d2 = (np.array(x, float, ndmin=1) - u) ** 2 + v * v
    terms = mult * v / np.where((d2 < singular) & (v == 0), np.nan, d2)
    return _as_given(x, _root_sum(terms), undefined="local wave number undefined at the real zero")


def _root_sum(terms):
    """Sum over the leading root axis, in root order whatever the number of points, so a scalar
    call equals an array call: a reduction adds whole rows in turn, but over one point it would
    sum the column pairwise, so one point is summed as a running sum."""
    return np.add.reduce(terms, axis=0) if terms.shape[1] > 1 else np.add.accumulate(terms)[-1]


def probability_current(wf: LineWaveFunction, x):
    """j(x) = |psi|^2 k(x) at x, a scalar or an array; zero at real zeros of psi."""
    xs = np.array(x, float, ndmin=1)
    return _as_given(x, _current(eval_psi(wf, xs), local_wavenumber(wf, xs)))


class _Chart(NamedTuple):
    """A geometry on the circle theta, x = to_x(theta): k = lam (c0 + sum n/q) and
    dk/dx = lam sum g/q^2 over the first K roots, lam(theta) > 0, and d log|psi|^2 / dx =
    sum f/q over all R roots, the last R - K (zeros on the line or circle) adding
    nothing to k. coef[0..2] hold n, g, f per root as (a, b, c) for a + b cos(theta)
    + c sin(theta); q = |P - zeta Q|^2 with (P, Q, P', Q') = frame(theta) keeps a
    small q exact, and q is least near theta = centre."""

    c0: float
    K: int
    zeta: np.ndarray  # R x 1
    centre: np.ndarray  # R
    mult: np.ndarray  # R, + for a zero, - for a pole
    coef: np.ndarray  # 3 x R x 3
    frame: Callable
    to_x: Callable
    scale: float  # 1 / lam at theta = 0: s on the line, L / (2 pi) on the ring
    period: float | None  # None on the line, whose theta = pi is x = +-inf


def _ratio(a, da, q, dq, power: int):
    """sum_l a_l / q_l^power and its derivative, from values and derivatives."""
    return (a / q**power).sum(0), ((da * q - power * a * dq) / q ** (power + 1)).sum(0)


def _numerators(c0, q, n, g, f, K, kinds):
    """Of k prod q (0), k' prod q^2 (1), (k' + k (log|psi|^2)') prod q^2 prod q0 (2) over lam
    and (log|psi|^2)' prod q prod q0 (3), those in `kinds`, (3,) or (0, 1, 2); q over the
    K roots, q0 over the zeros. From absolute values, the sizes of these sums."""
    prod, prod0, q0 = np.prod(q[:K], axis=0), np.prod(q[K:], axis=0), q[K:]
    others = prod / q[:K]  # q > 0 on the circle
    others0 = np.array([np.prod(np.delete(q0, l, 0), 0) for l in range(len(q0))]).reshape(q0.shape)
    log_slope = prod0 * (f[:K] * others).sum(0) + prod * (f[K:] * others0).sum(0)
    if kinds == (3,):
        return [log_slope]
    k = c0 * prod + (n[:K] * others).sum(0)
    dk = (g[:K] * others**2).sum(0)
    return k, dk, k * log_slope + dk * prod0


def _at(chart: _Chart, theta, slopes: bool = True):
    """q, n, g, f of the chart's roots at theta, the basis (1, cos theta, sin theta) of n, g and f,
    and their theta-derivatives (None without `slopes`)."""
    P, Q, dP, dQ = chart.frame(theta)
    u, cos, sin = P - chart.zeta * Q, np.cos(theta), np.sin(theta)
    q = u.real**2 + u.imag**2
    basis = np.array([np.ones_like(theta), cos, sin])
    n, g, f = chart.coef @ basis
    if not slopes:
        return (q, n, g, f), basis, None
    du = dP - chart.zeta * dQ
    dq = 2 * (u.real * du.real + u.imag * du.imag)
    dn, dg, df = chart.coef @ np.array([0 * theta, -sin, cos])
    return (q, n, g, f), basis, (dq, dn, dg, df)


def _polished_roots(chart: _Chart, kinds):
    """Real roots in theta of the trigonometric polynomials `kinds`, sampled on one grid:
    the _numerators of k, k', j' (0-2; degrees K, 2K, K + R over the chart's K roots of k and
    all R) or of (log|psi|^2)' (3; degree R). Returns them as circle_roots finds them (an
    array per kind) and after three Newton steps, in [-pi, pi), with their kinds (-1:
    x = +-inf on the line). A narrow dip or peak is below the round-off, so the critical
    points (1-3) also start from each q's least."""
    line, K, c0, R = chart.period is None, chart.K, chart.c0, chart.centre.size
    degrees = [(K, 2 * K, K + R, R)[k] for k in kinds]
    size = 4 << max(degrees).bit_length()
    grid = (2 * math.pi / size) * np.arange(size)
    on_grid = np.array(_at(chart, grid, slopes=False)[0])
    # the sums and their sizes in one pass, side by side along the grid axis
    sums = _numerators(np.repeat([c0, abs(c0)], size), *np.concatenate([on_grid, np.abs(on_grid)], -1), K, kinds)
    found = [circle_roots(s[:size], d, s[size:]) for s, d in zip(sums, degrees)]
    if line:  # theta = pi is x = +-inf
        found = [theta[np.abs(theta) < math.pi - ROOT_MERGE] for theta in found]
    else:  # a constant k or j on the ring has no critical points
        found = [theta if theta.size or k == 0 else grid for theta, k in zip(found, kinds)]
    critical = [k for k in kinds if k]
    kind = np.repeat([*kinds, *critical], [*(theta.size for theta in found), *[R] * len(critical)])
    theta = np.concatenate([*found, *[chart.centre] * len(critical)])
    with np.errstate(divide="ignore", invalid="ignore"):  # a start on a zero of psi
        for _ in range(3):
            (q, n, g, f), _, (dq, dn, dg, df) = _at(chart, theta)
            kap, dkap = _ratio(n[:K], dn[:K], q[:K], dq[:K], 1)
            kap = kap + c0
            slope, dslope = _ratio(g[:K], dg[:K], q[:K], dq[:K], 2)
            log, dlog = _ratio(f, df, q, dq, 1)
            value = np.choose(kind, [kap, slope, slope + kap * log, log])
            dvalue = np.choose(kind, [dkap, dslope, dslope + dkap * log + kap * dlog, dlog])
            step = np.isfinite(value) & np.isfinite(dvalue) & (dvalue != 0)
            theta = theta - np.divide(value, dvalue, out=np.zeros_like(value), where=step)
    out = (theta < -math.pi) | (theta >= math.pi)  # wrap only these, so a small theta keeps its digits
    theta[out] = np.remainder(theta[out] + math.pi, 2 * math.pi) - math.pi
    if line:
        kind[np.abs(theta) >= math.pi - ROOT_MERGE] = -1
    return found, theta, kind


def _circle_report(wf, chart: _Chart, k_of, j_of) -> BackflowReport:
    """Backflow regions and extrema of k and j from the real roots of the
    _numerators of k, k' and j' = (|psi|^2 k)' (_polished_roots). A sign change
    is kept when |k| is at round-off of its terms or of theta after the Newton steps. The
    sign of k at their midpoints, finite even on a zero of psi, classifies the
    pieces between sign changes; one with k >= 0 on both sides is a tangency.
    The minima are the lowest k and j over the critical points (line: from 0 at inf)."""
    line, K, c0 = chart.period is None, chart.K, chart.c0
    found, theta, kind = _polished_roots(chart, (0, 1, 2))

    crossing = np.sort(theta[kind == 0])
    # k / lam there, the size of its terms a, b cos, c sin, which bounds its round-off, and d/dtheta
    (q, n, _, _), basis, (dq, dn, _, _) = _at(chart, crossing)
    kap, dkap = _ratio(n[:K], dn[:K], q[:K], dq[:K], 1)
    k_size = abs(c0) + ((np.abs(chart.coef[0, :K]) @ np.abs(basis)) / q[:K]).sum(0)
    # a steep crossing is at the round-off of theta, 32 ulps of pi times dk/dtheta, above that of the terms
    crossing = crossing[np.abs(c0 + kap) <= ROUNDOFF_K * k_size + 2**-46 * np.abs(dkap)]
    wrap = -math.inf if line else crossing[-1:] - 2 * math.pi  # the ring is cyclic
    crossing = crossing[np.diff(crossing, prepend=wrap) > ROOT_MERGE]
    x = chart.to_x(crossing).tolist()
    if not line:  # into [-L/2, L/2)
        x = [t - chart.period if t >= 0.5 * chart.period else t for t in x]

    # cyclic pieces between crossings; theta = pi bounds one on the line and on a ring without any
    bounds = np.append(crossing, [math.pi] if line or not x else [])
    ends = np.append(bounds[1:], bounds[0] + 2 * math.pi)
    (q, n, _, _), _, _ = _at(chart, 0.5 * (bounds + ends), slopes=False)
    negative = (c0 + (n[:K] / q[:K]).sum(0) < 0).tolist()
    tangencies = [x[i] for i in range(len(x)) if not (negative[i - 1] or negative[i])]
    intervals = []
    ends_x = x + [math.inf]
    for i, neg in enumerate(negative):
        if not neg:
            continue
        if line:  # the piece from theta = pi runs from x = -inf
            intervals.append((ends_x[i] if i < len(x) else -math.inf, ends_x[(i + 1) % len(ends_x)]))
        else:
            lo = x[i] if x else -0.5 * chart.period
            intervals.append((lo, lo + float(ends[i] - bounds[i]) * chart.period / (2 * math.pi)))

    def lowest(of, which):  # over the roots as found and as polished
        xs = chart.to_x(np.concatenate([found[which], theta[kind == which]]))
        vals = np.where(np.isnan(v := of(wf, xs)), math.inf, v) if xs.size else xs
        if line and not (xs.size and vals.min() < 0):
            return 0.0, math.inf
        i = int(np.argmin(vals))
        return float(vals[i]), float(xs[i])

    return BackflowReport(tuple(sorted(intervals)), *lowest(k_of, 1), *lowest(j_of, 2), tuple(tangencies))


@lru_cache(maxsize=4)
def _line_chart(spec: RationalSpec) -> _Chart:
    """The line on the circle x = c + s tan(theta/2), c the mean real part of the roots and s their median
    distance from c. For u + iv = c + s(d + iw), (x-u)^2 + v^2 = s^2 q / cos^2(theta/2) with q = |sin(theta/2)
    - (d + iw) cos(theta/2)|^2 = e^2 + w^2 cos^2(theta/2), and lam = cos^2(theta/2) / s. Real zeros add
    nothing to k. The only map of a line state onto the circle: the analysis and the normalizer read it,
    and the last few are kept, so a state's construction and analyses build it once."""
    positions = [r.position for r in spec.zeros + spec.poles]
    c = sum(z.real for z in positions) / len(positions)
    dist = sorted(abs(z - c) for z in positions)
    s = (dist[(len(dist) - 1) // 2] + dist[len(dist) // 2]) / 2
    _, u, v, _, _, m, _ = (column[:, 0] for column in spec.root_columns)
    d, w = (u - c) / s, v / s
    order = np.argsort(w == 0.0, kind="stable")  # real zeros last
    d, w, m = d[order], w[order], m[order]
    zeta = np.empty(d.shape, complex)
    zeta.real, zeta.imag = d, w
    coef = np.zeros((3, d.size, 3))
    coef[2, :, :2], coef[2, :, 2] = (-m * d / s)[:, None], m / s  # f = 2 m cos(theta/2) e / s
    coef[1] = -w[:, None] * coef[2]
    coef[0, :, 0] = m * w

    def half(t):  # (P, Q, P', Q') = (sin, cos, cos / 2, -sin / 2) of t / 2
        sin, cos = np.sin(t / 2), np.cos(t / 2)
        return sin, cos, cos / 2, -sin / 2

    chart = _Chart(0.0, int(np.count_nonzero(w)), zeta[:, None], 2 * np.array([*map(math.atan, d)]), m, coef, half,
                   lambda t: c + s * np.tan(t / 2), s, None)
    for array in chart[2:6]:  # shared by every caller of the cache
        array.setflags(write=False)
    return chart


def backflow_intervals(wf: LineWaveFunction) -> BackflowReport:
    """Every maximal region with k < 0, the tangencies of k with 0 and the minima
    of k and j, exactly, on the circle of _line_chart."""
    return _circle_report(wf, _line_chart(wf.spec), local_wavenumber, probability_current)


def density_critical_points(wf: LineWaveFunction) -> np.ndarray:
    """The x of the critical points of |psi|^2 (some repeated; a real zero of psi,
    a minimum, among them), by the circle-root engine of backflow_intervals."""
    chart = _line_chart(wf.spec)
    _, theta, kind = _polished_roots(chart, (3,))
    return chart.to_x(theta[kind == 3])


def with_phase(wf: LineWaveFunction, phase: complex) -> LineWaveFunction:
    """Same physical state with a different constant phase (|phase| forced to 1)."""
    mag = abs(phase)
    if mag == 0:
        raise ValueError("phase must be nonzero")
    return replace(wf, phase=phase / mag)
