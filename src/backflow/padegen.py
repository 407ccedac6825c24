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
b^m / m!. That ratio is exact: |psi| is compared at the critical points of
|psi|^2 (contwave.density_critical_points, the circle-root engine of the
backflow analysis), not over a window or a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contwave import (
    LineWaveFunction,
    RationalSpec,
    Root,
    _integer,
    _merged,
    density_critical_points,
    make_line_wavefunction,
    validate_line_spec,
    with_phase,
)
from .errors import BackflowError, RootExtractionFailure, SpecViolation
from .polyring import Poly, complex_roots, horner, poly_from_roots, root_residual

# Taylor terms of an exp profile; a design needs m + 1 of them, so an exp design has m <= 47.
EXP_PROFILE_TERMS = 48


@dataclass(frozen=True)
class PadeProblem:
    """Target Taylor coefficients, numerator order, chosen poles (merged as a RationalSpec's),
    interval half-width; checked on construction, as a RationalSpec is."""

    profile_coeffs: tuple[complex, ...]
    numerator_degree: int
    poles: tuple[Root, ...]
    half_width: float

    def __post_init__(self):
        object.__setattr__(
            self, "profile_coeffs", tuple(complex(c) for c in self.profile_coeffs)
        )
        object.__setattr__(self, "poles", _merged(self.poles, "pole"))
        m = _integer(self.numerator_degree, "numerator degree")
        object.__setattr__(self, "numerator_degree", m)
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
        if not np.isfinite(self.profile_coeffs).all():
            raise SpecViolation("profile coefficients must be finite")
        if not 0 < self.half_width < math.inf:
            raise SpecViolation("design interval half-width must be positive and finite")
        validate_line_spec(RationalSpec(poles=self.poles))


@dataclass(frozen=True)
class DesignReport:
    """Designed state plus its fidelity/price diagnostics.

    max_error_on_interval is max |psi - s p| / s with s = N / |lead(A)| on 2001 points of [-x0, x0]:
    the error of the state as built, from its factored zeros, not of the expanded A/B. amplitude_ratio
    is max |psi| over the whole line divided by its maximum on the interval (>= 1: the price of
    backflow fidelity), exactly: over the critical points of |psi|^2 and the interval's ends, with
    no window."""

    wavefunction: LineWaveFunction
    numerator: Poly
    max_error_on_interval: float
    amplitude_ratio: float


def exp_profile_coeffs(kappa: float) -> tuple[complex, ...]:
    """The first EXP_PROFILE_TERMS Taylor coefficients of exp(i kappa x); kappa = -1 gives the
    canonical backflowing profile with phase gradient -1 everywhere."""
    return tuple((1j * kappa) ** k / math.factorial(k) for k in range(EXP_PROFILE_TERMS))


def exp_design_problem(m: int, b: float, x0: float) -> PadeProblem:
    """The paper's canonical design: exp(-ix) on [-x0, x0] over an order-(m+1) pole at -ib."""
    return PadeProblem(exp_profile_coeffs(-1.0), m, (Root(-1j * b, m + 1),), x0)


def pade_numerator(problem: PadeProblem) -> Poly:
    """alpha_k = sum_{l<=k} beta_l p_(k-l) for k = 0..m, beta from the pole product."""
    m, beta, p = problem.numerator_degree, poly_from_roots(problem.poles).coeffs, problem.profile_coeffs
    alpha = [sum(beta[l] * p[k - l] for l in range(min(k, len(beta) - 1) + 1)) for k in range(m + 1)]
    return Poly(tuple(alpha))


def design_wavefunction(problem: PadeProblem) -> DesignReport:
    """Solve the numerator, factor it, and assemble the normalized state.

    The numerator's leading coefficient is split into magnitude (absorbed by
    normalization) and phase (kept on the wave function) so that psi tracks
    N * p(x) on the interval, not just |psi| tracking N |p|.
    """
    numerator = pade_numerator(problem)
    if numerator.degree < 0:
        raise SpecViolation("profile and poles produced an identically zero numerator")

    zeros = complex_roots(numerator) if numerator.degree > 0 else []
    for z, _ in zeros:
        res = root_residual(numerator, z)
        if res > 1e-8:
            raise RootExtractionFailure(
                f"numerator root {z} has relative residual {res:.2e}"
            )

    spec = RationalSpec(zeros=zeros, poles=problem.poles)
    wf = make_line_wavefunction(spec)
    leading = numerator.coeffs[-1]
    wf = with_phase(wf, leading)

    # an interval too wide for floats overflows both numbers below; that is an error, not a report
    x0 = problem.half_width
    with np.errstate(over="ignore", invalid="ignore"):
        # fidelity: the built state, on the profile's scale, against the profile on the interval
        xs = np.linspace(-x0, x0, 2001)
        rational = wf(xs) * (abs(leading) / wf.norm_constant)
        profile = horner(problem.profile_coeffs, xs + 0j)
        max_error = float(np.max(np.abs(rational - profile)))

        # amplitude price: |psi| at the critical points of |psi|^2 and the interval's ends
        xs_crit = np.append(density_critical_points(wf), [-x0, x0])
        amplitude = np.abs(wf(xs_crit))
        ratio = float(amplitude.max() / amplitude[np.abs(xs_crit) <= x0].max())
    if not (math.isfinite(max_error) and math.isfinite(ratio)):
        raise BackflowError(
            f"design report is not finite (max_error_on_interval {max_error}, amplitude_ratio {ratio})"
        )
    return DesignReport(wf, numerator, max_error, ratio)


def amplitude_scaling_probe(
    m: int, b_values, x0: float
) -> list[tuple[float, float]]:
    """Amplitude ratios of exp(-ix) designs with an order-(m+1) pole at -ib,
    across the given b values; feeds the b^m/m! scaling analysis."""
    out = []
    for b in b_values:
        if not b > x0:
            raise SpecViolation(f"pole distance b={b} must exceed the half-width {x0}")
        out.append((float(b), design_wavefunction(exp_design_problem(m, b, x0)).amplitude_ratio))
    return out
