"""Backflowing quantum wave functions built from rational complex functions.

Construct square-integrable states whose momentum spectrum is strictly
positive yet whose probability current turns negative in controllable
regions: on the real line (poles in the lower half-plane, backflow from
zeros placed below the axis) and on a ring (poles outside the unit circle).
Momentum spectra come out of residue/Taylor calculus in closed form,
backflow regions from exact trigonometric root finding, and every analytic
result can be checked against the brute-force quadrature oracle.
"""

from .contwave import (
    BackflowReport,
    LineWaveFunction,
    MomentumSpectrumLine,
    RationalSpec,
    Root,
    backflow_intervals,
    eval_psi,
    eval_spectrum,
    local_wavenumber,
    make_line_wavefunction,
    momentum_spectrum,
    probability_current,
    with_phase,
)
from .errors import (
    BackflowError,
    DegreeZero,
    QuadratureFailure,
    RootExtractionFailure,
    SingularPoint,
    SpecViolation,
    TruncationFailure,
    ZeroLeadingDenominator,
)
from .oracle import QuadratureResult, fourier_quadrature, norm_quadrature, phase_gradient_fd, single_pole_reference_norm
from .padegen import (
    DesignReport,
    PadeProblem,
    amplitude_scaling_probe,
    design_wavefunction,
    exp_design_problem,
    exp_profile_coeffs,
    pade_numerator,
)
from .ringwave import (
    MomentumSpectrumRing,
    RingWaveFunction,
    make_ring_wavefunction,
    ring_backflow_intervals,
    ring_current,
    ring_spectrum,
    ring_wavenumber,
)

__all__ = [
    "BackflowError",
    "BackflowReport",
    "DegreeZero",
    "DesignReport",
    "LineWaveFunction",
    "MomentumSpectrumLine",
    "MomentumSpectrumRing",
    "PadeProblem",
    "QuadratureFailure",
    "QuadratureResult",
    "RationalSpec",
    "RingWaveFunction",
    "Root",
    "RootExtractionFailure",
    "SingularPoint",
    "SpecViolation",
    "TruncationFailure",
    "ZeroLeadingDenominator",
    "amplitude_scaling_probe",
    "backflow_intervals",
    "design_wavefunction",
    "eval_psi",
    "eval_spectrum",
    "exp_design_problem",
    "exp_profile_coeffs",
    "fourier_quadrature",
    "local_wavenumber",
    "make_line_wavefunction",
    "make_ring_wavefunction",
    "momentum_spectrum",
    "norm_quadrature",
    "pade_numerator",
    "phase_gradient_fd",
    "probability_current",
    "ring_backflow_intervals",
    "ring_current",
    "ring_spectrum",
    "ring_wavenumber",
    "single_pole_reference_norm",
    "with_phase",
]
