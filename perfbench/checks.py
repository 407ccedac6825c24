"""Independent correctness checks for benchmark operations.

A check never calls the function under test to judge that function's answer.
It uses closed forms (the criterion-04 circle/half-plane rule, the
single-pole ring threshold, the figure-1 endpoints and normalization, the
Pade Taylor condition) or, failing those, the sign of the local wave number
k(x) read pointwise from the public `local_wavenumber` / `ring_wavenumber`.

Every check returns None when the answer is right and a one-line reason
when it is wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np

import backflow as bf

# Criterion 04: example-1 states N(x-a)/(x+i)^2 have no backflow inside the
# circle |a + 5i/4| < 3/4, one finite interval above Im a = -2 and two
# half-infinite ones below it. Points within MARGIN of either boundary are
# left out of the grid, as in the acceptance test.
C04_CENTRE = -1.25j
C04_RADIUS = 0.75
C04_LINE = -2.0
C04_MARGIN = 1e-3

# Figure 1 (a = -i/4): backflow on (-1/sqrt(14), 1/sqrt(14)).
FIG1_EDGE = 1.0 / math.sqrt(14.0)

# Points per tan-mapped grid in the dense sign scan of a line state, and
# per period on the ring.
LINE_GRID = 1200
RING_GRID = 2400


def example_one_norm(a: complex) -> float:
    """N for N(x-a)/(x+i)^2: the integral of |x-a|^2/(x^2+1)^2 is pi(1+|a|^2)/2."""
    return (0.5 * math.pi * (1.0 + abs(a) ** 2)) ** -0.5


def c04_expected(a: complex) -> str:
    """'none', 'finite' or 'half_infinite' by the criterion-04 rule."""
    if abs(a - C04_CENTRE) < C04_RADIUS:
        return "none"
    return "finite" if a.imag > C04_LINE else "half_infinite"


def c04_on_boundary(a: complex) -> bool:
    return abs(abs(a - C04_CENTRE) - C04_RADIUS) < C04_MARGIN or abs(a.imag - C04_LINE) < C04_MARGIN


def ring_has_backflow(a: complex, n: int) -> bool:
    """z/(z-a)^n on the ring flows backwards somewhere iff n > |a| + 1."""
    return n > abs(a) + 1.0


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# line states


def example_one_faults(a: complex, wf, sp, report) -> str | None:
    """Criterion-04 rule with its margin, plus the closed-form N and spectrum."""
    n_ref = example_one_norm(a)
    if not _close(wf.norm_constant, n_ref, 1e-8):
        return f"N = {wf.norm_constant!r}, closed form {n_ref!r}"
    # phi(p) = -i N sqrt(2 pi) (1 + (i a - 1) p) exp(-p) as sum_k c_k (-i p)^k exp(-i p b)
    c0 = -1j * n_ref * math.sqrt(2 * math.pi)
    c1 = n_ref * math.sqrt(2 * math.pi) * (1j * a - 1)
    (term,) = sp.terms
    if abs(term.pole + 1j) > 1e-12 or len(term.coeffs) != 2:
        return f"spectrum term {term!r} is not one order-2 pole at -i"
    if abs(term.coeffs[0] - c0) > 1e-8 * abs(c0) or abs(term.coeffs[1] - c1) > 1e-8 * abs(c0):
        return f"spectrum coefficients {term.coeffs!r}, closed form {(c0, c1)!r}"
    ivs = report.intervals
    want = c04_expected(a)
    if want == "none":
        ok = ivs == ()
    elif want == "finite":
        ok = len(ivs) == 1 and all(math.isfinite(v) for v in ivs[0])
    else:
        ok = len(ivs) == 2 and ivs[0][0] == -math.inf and ivs[1][1] == math.inf
    if not ok:
        return f"criterion-04 rule expects {want} backflow, got {ivs!r}"
    return line_interval_faults(wf, ivs)


def _line_grid(spec) -> np.ndarray:
    """Two tan-mapped grids about the roots: one at unit scale for local
    detail and one at the roots' spread for far sign changes."""
    pos = [r.position for r in spec.zeros + spec.poles]
    centre = float(np.mean([z.real for z in pos]))
    spread = max(abs(z - centre) for z in pos)
    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, LINE_GRID + 2)[1:-1]
    scales = {1.0, max(1.0, spread)}
    return np.sort(np.concatenate([centre + s * np.tan(theta) for s in scales]))


def _k_or_none(k_of, wf, x: float):
    try:
        return k_of(wf, x)
    except bf.SingularPoint:
        return None


def _sign_faults(k_of, wf, intervals, grid, inside) -> str | None:
    """Shared by line and ring: k < 0 at each interval's midpoint, k >= 0 just
    outside its finite endpoints, and on the grid k < 0 exactly where covered."""
    samples = []
    for x in grid:
        k = _k_or_none(k_of, wf, float(x))
        if k is not None:
            samples.append((float(x), k))
    if not samples:
        return "k could not be evaluated on the check grid"
    kscale = max(abs(k) for _, k in samples)
    tiny = 1e-12 * kscale

    for i, (lo, hi) in enumerate(intervals):
        if not lo < hi:
            return f"interval {i} = {(lo, hi)!r} is empty or reversed"
        if math.isfinite(lo) and math.isfinite(hi):
            mid = 0.5 * (lo + hi)
        elif math.isfinite(hi):
            mid = hi - max(1.0, abs(hi))
        else:
            mid = lo + max(1.0, abs(lo))
        k = _k_or_none(k_of, wf, mid)
        if k is not None and not k < 0:
            return f"k({mid!r}) = {k!r} >= 0 at the midpoint of {(lo, hi)!r}"
        width = hi - lo if math.isfinite(hi - lo) else 1.0
        for edge, step in ((lo, -1.0), (hi, 1.0)):
            if not math.isfinite(edge):
                continue
            eps = min(1e-6 * max(1.0, abs(edge)), 0.25 * width)
            x = edge + step * eps
            if inside(x, margin=0.0):
                continue  # touches the neighbouring interval
            k = _k_or_none(k_of, wf, x)
            if k is not None and k < -tiny:
                return f"k({x!r}) = {k!r} < 0 just outside {(lo, hi)!r}"

    for x, k in samples:
        covered = inside(x, margin=1e-9 * (1.0 + abs(x)))
        if k < -tiny and not covered:
            return f"k({x!r}) = {k!r} < 0 is not covered by {intervals!r}"
        if k > tiny and inside(x, margin=-1e-9 * (1.0 + abs(x))):
            return f"k({x!r}) = {k!r} > 0 inside {intervals!r}"
    return None


def line_interval_faults(wf, intervals) -> str | None:
    """Generic sign check of a line backflow report. (-inf, inf) always fails:
    the integral of j over the line is <p> > 0."""
    intervals = tuple(intervals)
    if any(lo == -math.inf and hi == math.inf for lo, hi in intervals):
        return "(-inf, inf) is impossible: the integral of j is <p> > 0"
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        if not hi <= lo:
            return f"intervals {intervals!r} overlap or are unsorted"

    def inside(x, margin):
        return any(lo - margin <= x <= hi + margin for lo, hi in intervals)

    return _sign_faults(bf.local_wavenumber, wf, intervals, _line_grid(wf.spec), inside)


# ---------------------------------------------------------------------------
# ring states


def ring_interval_faults(wf, intervals) -> str | None:
    """Generic sign check of a ring report; arcs may cross the period seam."""
    period = wf.period
    intervals = tuple(intervals)
    if sum(hi - lo for lo, hi in intervals) >= period:
        return f"arcs {intervals!r} cover the whole ring"
    for lo, _ in intervals:
        if not -0.5 * period <= lo < 0.5 * period:
            return f"arc start {lo!r} is outside [-L/2, L/2)"

    def inside(x, margin):
        for lo, hi in intervals:
            if (x - (lo - margin)) % period <= (hi - lo) + 2 * margin:
                return True
        return False

    grid = (np.arange(RING_GRID) + 0.5) * (period / RING_GRID) - 0.5 * period
    return _sign_faults(bf.ring_wavenumber, wf, intervals, grid, inside)


def single_pole_ring_faults(a: complex, n: int, report, wf) -> str | None:
    """Criterion-06 rule: backflow iff n > |a| + 1, as a single arc."""
    want = ring_has_backflow(a, n)
    got = len(report.intervals)
    if got != (1 if want else 0):
        return f"n={n}, |a|={abs(a)!r}: rule expects {int(want)} arc, got {report.intervals!r}"
    return ring_interval_faults(wf, report.intervals)


# ---------------------------------------------------------------------------
# designs


UNIT_ROUNDOFF = 2.0**-53


def taylor_match_faults(numerator, pole: complex, order: int, profile, m: int) -> str | None:
    """Criterion 07: the Taylor coefficients t_k of A/B about 0 match the
    profile's p_k through z^m, with B = (z - pole)^order.

    t = g * A, where g are the Taylor coefficients of 1/B from the binomial
    series. The tolerance is criterion 07's 1e-10 relative plus the a-priori
    bound on the rounding error of forming A_j = sum_l B_l p_(j-l) and then
    t_k in double precision, which no double-precision design can beat."""
    if len(numerator) != m + 1:
        return f"numerator has {len(numerator)} coefficients, expected {m + 1}"
    beta = [math.comb(order, l) * (-pole) ** (order - l) for l in range(order + 1)]
    g = [(-pole) ** -order * math.comb(order + j - 1, j) * pole**-j for j in range(m + 1)]
    size = [sum(abs(beta[l] * profile[j - l]) for l in range(min(j, order) + 1)) for j in range(m + 1)]
    for k in range(m + 1):
        t = sum(g[k - j] * numerator[j] for j in range(k + 1))
        rounding = 2 * (m + 2) * UNIT_ROUNDOFF * sum(abs(g[k - j]) * size[j] for j in range(k + 1))
        if abs(t - profile[k]) > 1e-10 * abs(profile[k]) + rounding:
            return f"Taylor coefficient {k} is {t!r}, profile {profile[k]!r}"
    return None


# ---------------------------------------------------------------------------
# command-line outputs


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def json_intervals(block) -> list[tuple[float, float]]:
    return [(float(lo), float(hi)) for lo, hi in block["intervals"]]


def row_faults(paths, rows: int) -> str | None:
    """Each CSV file holds a header line and `rows` data lines."""
    for path in paths:
        with open(path, "rb") as fh:
            got = fh.read().count(b"\n") - 1
        if got != rows:
            return f"{path} has {got} rows, expected {rows}"
    return None


def figure_one_faults(report: dict) -> str | None:
    """Endpoints +-1/sqrt(14) and the closed-form N of the a = -i/4 state."""
    ivs = json_intervals(report["backflow"])
    if len(ivs) != 1 or abs(ivs[0][0] + FIG1_EDGE) > 1e-9 or abs(ivs[0][1] - FIG1_EDGE) > 1e-9:
        return f"figure-1 intervals {ivs!r}, expected (+-{FIG1_EDGE!r})"
    n_ref = example_one_norm(-0.25j)
    if not _close(report["norm_constant"], n_ref, 1e-9):
        return f"figure-1 N = {report['norm_constant']!r}, closed form {n_ref!r}"
    return None


def ring_arc_faults(report: dict, lo_want: float, hi_want: float) -> str | None:
    ivs = json_intervals(report["backflow"])
    if len(ivs) != 1 or abs(ivs[0][0] - lo_want) > 1e-6 or abs(ivs[0][1] - hi_want) > 1e-6:
        return f"ring arcs {ivs!r}, expected ({lo_want!r}, {hi_want!r})"
    return None
