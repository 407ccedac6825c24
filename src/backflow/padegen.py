"""Constrained Pade-type design of backflowing wave functions.

The classic Pade construction would fit both polynomials of A/B to a target
Taylor series, but offers no control over where the poles land. Here the
denominator is chosen first (poles anywhere in the lower half-plane, which
guarantees a positive momentum spectrum), and only the numerator is solved
for: requiring A/B to share the target's Taylor coefficients through order m
reduces to the convolution alpha_k = sum_l beta_l p_(k-l).

Accuracy on the design interval is bought with pole distance, and paid for
in amplitude outside the interval: for the oscillatory profile exp(-ix) with
an order-(m+1) pole at -ib, the peak-to-interval amplitude ratio grows like
b^m / m!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .contwave import (
    LineWaveFunction,
    RationalSpec,
    Root,
    make_line_wavefunction,
    with_phase,
)
from .errors import RootExtractionFailure, SpecViolation
from .polyring import (
    Poly,
    complex_roots,
    horner,
    poly_eval,
    poly_from_roots,
    root_residual,
)


@dataclass(frozen=True)
class PadeProblem:
    """Target Taylor coefficients, numerator order, chosen poles, interval half-width."""

    profile_coeffs: tuple[complex, ...]
    numerator_degree: int
    poles: tuple[Root, ...]
    half_width: float

    def __post_init__(self):
        object.__setattr__(
            self, "profile_coeffs", tuple(complex(c) for c in self.profile_coeffs)
        )
        object.__setattr__(self, "poles", tuple(self.poles))

    def validate(self) -> None:
        m = self.numerator_degree
        n = sum(p.multiplicity for p in self.poles)
        if m < 0:
            raise SpecViolation("numerator degree must be >= 0")
        if m >= n:
            raise SpecViolation(
                f"square integrability requires numerator degree m={m} < total pole order n={n}"
            )
        if len(self.profile_coeffs) < m + 1:
            raise SpecViolation(
                f"need at least m+1={m + 1} profile coefficients, got {len(self.profile_coeffs)}"
            )
        if not (self.half_width > 0):
            raise SpecViolation("design interval half-width must be positive")
        for p in self.poles:
            if complex(p.position).imag >= 0:
                raise SpecViolation(
                    f"design pole at {p.position} must lie in the lower half-plane"
                )


@dataclass(frozen=True)
class DesignReport:
    """Designed state plus its fidelity/price diagnostics.

    max_error_on_interval is sup |psi - N p| / N over the design interval;
    amplitude_ratio is max |psi| over the whole line divided by its maximum
    on the interval (>= 1: the price of backflow fidelity)."""

    wavefunction: LineWaveFunction
    numerator: Poly
    max_error_on_interval: float
    amplitude_ratio: float


def exp_profile_coeffs(kappa: float, count: int = 48) -> tuple[complex, ...]:
    """Taylor coefficients of exp(i kappa x); kappa = -1 gives the canonical
    backflowing profile with phase gradient -1 everywhere."""
    return tuple((1j * kappa) ** k / math.factorial(k) for k in range(count))


def pade_numerator(problem: PadeProblem) -> Poly:
    """alpha_k = sum_{l<=k} beta_l p_(k-l) for k = 0..m, beta from the pole product."""
    problem.validate()
    beta = poly_from_roots(problem.poles).coeffs
    m = problem.numerator_degree
    p = problem.profile_coeffs
    alpha = []
    for k in range(m + 1):
        alpha.append(sum(beta[l] * p[k - l] for l in range(0, min(k, len(beta) - 1) + 1)))
    return Poly(tuple(alpha))


def _refined_max(fun, xs, ys):
    """Largest local maximum of |psi|-like data, golden-section polished."""
    best = float(np.max(ys))
    best_x = float(xs[int(np.argmax(ys))])
    order = np.argsort(ys)[::-1]
    seen = 0
    for idx in order[:32]:
        i = int(idx)
        if 0 < i < len(xs) - 1 and ys[i] >= ys[i - 1] and ys[i] >= ys[i + 1]:
            seen += 1
            try:
                res = minimize_scalar(
                    lambda t: -fun(t),
                    bracket=(float(xs[i - 1]), float(xs[i]), float(xs[i + 1])),
                    method="golden",
                    options={"xtol": 1e-12},
                )
                if -res.fun > best:
                    best, best_x = float(-res.fun), float(res.x)
            except ValueError:
                pass
            if seen >= 6:
                break
    return best, best_x


def design_wavefunction(problem: PadeProblem) -> DesignReport:
    """Solve the numerator, factor it, and assemble the normalized state.

    The numerator's leading coefficient is split into magnitude (absorbed by
    normalization) and phase (kept on the wave function) so that psi tracks
    N * p(x) on the interval, not just |psi| tracking N |p|.
    """
    numerator = pade_numerator(problem)
    if numerator.degree < 0:
        raise SpecViolation("profile and poles produced an identically zero numerator")

    if numerator.degree == 0:
        zeros: tuple[Root, ...] = ()
    else:
        pairs = complex_roots(numerator)
        for z, _ in pairs:
            res = root_residual(numerator, z)
            if res > 1e-8:
                raise RootExtractionFailure(
                    f"numerator root {z} has relative residual {res:.2e}"
                )
        zeros = tuple(Root(z, mult) for z, mult in pairs)

    spec = RationalSpec(zeros=zeros, poles=problem.poles)
    wf = make_line_wavefunction(spec)
    leading = numerator.coeffs[-1]
    wf = with_phase(wf, leading)

    # fidelity: compare the un-normalized rational to the profile on the interval
    x0 = problem.half_width
    xs = np.linspace(-x0, x0, 2001)
    denom_poly = poly_from_roots(problem.poles)
    rational = poly_eval(numerator, xs + 0j) / poly_eval(denom_poly, xs + 0j)
    profile = horner(problem.profile_coeffs, xs + 0j)
    max_error = float(np.max(np.abs(rational - profile)))

    # amplitude price: global max of |psi| against its max on the interval
    b_max = max(abs(p.position) for p in problem.poles)
    window = 20.0 * max(b_max, x0)
    xs_glob = np.linspace(-window, window, 8001)
    abs_psi = np.abs(wf(xs_glob))
    glob_max, _ = _refined_max(lambda t: abs(complex(wf(t))), xs_glob, abs_psi)
    abs_int = np.abs(wf(xs))
    int_max, _ = _refined_max(lambda t: abs(complex(wf(t))), xs, abs_int)
    ratio = max(glob_max / int_max, 1.0)

    return DesignReport(
        wavefunction=wf,
        numerator=numerator,
        max_error_on_interval=max_error,
        amplitude_ratio=ratio,
    )


def amplitude_scaling_probe(
    m: int, b_values, x0: float
) -> list[tuple[float, float]]:
    """Amplitude ratios of exp(-ix) designs with an order-(m+1) pole at -ib,
    across the given b values; feeds the b^m/m! scaling analysis."""
    out = []
    for b in b_values:
        if not b > x0:
            raise SpecViolation(f"pole distance b={b} must exceed the half-width {x0}")
        problem = PadeProblem(
            profile_coeffs=exp_profile_coeffs(-1.0),
            numerator_degree=m,
            poles=(Root(-1j * b, m + 1),),
            half_width=x0,
        )
        report = design_wavefunction(problem)
        out.append((float(b), report.amplitude_ratio))
    return out
