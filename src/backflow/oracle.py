"""Numerical ground truth: quadrature, finite differences and the verify suite.

Nothing here knows the residue/Taylor machinery or imports an analytic module.
A line state's psi is evaluated here from its root data (_psi); a ring (a state
with a `period`) or any other callable is called as it is. Fourier integrals
over the real line are split into two semi-axes and handed to QUADPACK's
Fourier-weight routine, which extrapolates over oscillation cycles; that
replaces naive subdivision at the oscillation zeros, which cannot cope with
slowly decaying tails. Only `_quad` calls QUADPACK, importing scipy as it runs,
so analysis never loads scipy. `verify_line` and `verify_ring` hold the library's
values, passed in as functions, against these and return `backflow verify`'s rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure, SingularPoint

_HALF_PI = math.pi / 2
_SQRT_2PI = math.sqrt(2 * math.pi)
# verify holds the quadrature's |psi|^2 integral to 1 this closely, whatever --tol
NORM_BOUND = 1e-8


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    est_error: float
    evaluations: int


def _psi(wf):
    """psi of wf at one float: for a line state N * phase * prod (x-a)^m / prod (x-b)^n in plain Python,
    since the quadratures call it ~10^4 times and numpy costs ~20x per point; else wf as it is."""
    if hasattr(wf, "period") or not hasattr(wf, "spec"):
        return wf
    zeros, poles = wf.spec.zeros, wf.spec.poles
    scale = wf.norm_constant * wf.phase

    def psi(x):
        z, num, den = x + 0j, 1.0 + 0j, 1.0 + 0j
        for a, m in zeros:
            num = num * (z - a) ** m
        for b, n in poles:
            den = den * (z - b) ** n
        return scale * num / den

    return psi


def _quad(f, a, b, **options):
    """QUADPACK's integral of f over [a, b] (scipy.integrate.quad with `options`):
    (value, error estimate, converged, evaluations of f)."""
    from scipy import integrate

    value, error, info, *message = integrate.quad(f, a, b, full_output=1, **options)
    return value, error, not message, info["neval"]


def _semiaxis_fourier(g, omega, epsabs):
    """integral of g(x) * exp(i*omega*x) over [0, inf) for real omega != 0, as _quad returns it."""
    w, s = abs(omega), math.copysign(1.0, omega)
    parts = [
        _quad(h, 0.0, math.inf, weight=kind, wvar=w, epsabs=epsabs, limit=200, limlst=200, maxp1=100)
        for h in (lambda x: g(x).real, lambda x: g(x).imag)
        for kind in ("cos", "sin")
    ]
    (rc, rs, ic, is_), errors, ok, evals = zip(*parts)
    value = (rc - s * is_) + 1j * (ic + s * rs)
    return value, sum(errors), all(ok), sum(evals)


def _tan_mapped_integral(f, real_breakpoints, epsabs, epsrel):
    """integral of real f over the real line via x = tan(theta), split at the breakpoints' images:
    (value, error estimate, converged, evaluations)."""

    def g(t):
        x = math.tan(t)
        return f(x) * (1.0 + x * x)

    pts = sorted({math.atan(b) for b in real_breakpoints})
    return _quad(g, -_HALF_PI, _HALF_PI, points=pts, epsabs=epsabs, epsrel=epsrel, limit=250)


def fourier_quadrature(wf, p: float, tol: float = 1e-8) -> QuadratureResult:
    """(2*pi)^(-1/2) * integral psi(x) exp(-i p x) dx, by brute-force quadrature.

    For decay exponent 1 the transform at p = 0 exists only as a principal
    value; that case subtracts the known odd asymptote x/(x^2+1) (whose
    symmetric integral vanishes) and integrates the absolutely convergent
    remainder.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    psi = _psi(wf)
    tol_raw = tol * _SQRT_2PI
    breaks = [r.position.real for r in wf.spec.zeros + wf.spec.poles]

    if p == 0:
        g = psi
        if wf.spec.n - wf.spec.m == 1:
            asym = wf.norm_constant * wf.phase  # lim x psi(x)
            g = lambda x: psi(x) - asym * x / (x * x + 1.0)
            breaks.append(0.0)
        vr, er, ok1, n1 = _tan_mapped_integral(lambda x: g(x).real, breaks, tol_raw / 4, 1e-11)
        vi, ei, ok2, n2 = _tan_mapped_integral(lambda x: g(x).imag, breaks, tol_raw / 4, 1e-11)
        value, err, ok, evals = vr + 1j * vi, er + ei, ok1 and ok2, n1 + n2
    else:
        # split at the origin; each side is a semi-axis Fourier integral
        right, e1, ok1, n1 = _semiaxis_fourier(psi, -p, tol_raw / 8)
        left, e2, ok2, n2 = _semiaxis_fourier(lambda x: psi(-x), p, tol_raw / 8)
        value, err, ok, evals = right + left, e1 + e2, ok1 and ok2, n1 + n2

    if err > tol_raw and not ok:
        raise QuadratureFailure(
            f"Fourier quadrature at p={p} reached error {err:.3e} (target {tol_raw:.3e})"
        )
    return QuadratureResult(value / _SQRT_2PI, err / _SQRT_2PI, evals)


def phase_gradient_fd(wf, x: float, h: float = 1e-5) -> float:
    """Centered finite difference of arg(psi) with +-pi branch unwrapping.

    Callers must keep |k|*h well below pi/4: a wrapped difference close to
    pi signals a genuine phase jump (a zero between the sample points) and
    raises SingularPoint rather than returning a garbage slope.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    psi = _psi(wf)
    vp = complex(psi(x + h))
    vm = complex(psi(x - h))
    if abs(vp) == 0.0 or abs(vm) == 0.0:
        raise SingularPoint(f"wave function vanishes within h of x={x}")
    d = cmath.phase(vp) - cmath.phase(vm)
    if d > math.pi:
        d -= 2 * math.pi
    elif d < -math.pi:
        d += 2 * math.pi
    if abs(d) > 0.75 * math.pi:
        raise SingularPoint(
            f"phase jump of {d:.3f} rad across x={x}; likely a zero between samples"
        )
    return d / (2 * h)


def norm_quadrature(wf, tol: float = 1e-10) -> QuadratureResult:
    """integral of |psi|^2 over one period of a ring state (trapezoid sums with
    doubling), else over the line (tan-substituted adaptive quadrature)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if hasattr(wf, "period"):
        L = wf.period
        m = 256
        prev = None
        evals = 0
        while m <= (1 << 20):
            x = np.arange(m) * (L / m) - L / 2
            v = wf(x)
            evals += m
            total = float(np.sum(v.real**2 + v.imag**2)) * (L / m)
            if prev is not None and abs(total - prev) < tol * max(1.0, abs(total)):
                return QuadratureResult(complex(total), abs(total - prev), evals)
            prev = total
            m *= 2
        raise QuadratureFailure("period trapezoid did not converge before the cap")

    psi = _psi(wf)

    def density(x):
        v = psi(x)
        return v.real * v.real + v.imag * v.imag

    breaks = [r.position.real for r in wf.spec.zeros + wf.spec.poles]
    val, err, _, evals = _tan_mapped_integral(density, breaks, 0.0, 0.1 * tol)
    if err > tol * abs(val):
        raise QuadratureFailure(
            f"norm quadrature error {err:.3e} exceeds {tol:.1e} relative"
        )
    return QuadratureResult(complex(val), err, evals)


def single_pole_reference_norm(a: float, n: int) -> float:
    """Closed-form normalization for f(z) = z/(z-a)^n with real a > 1:
    N = (a-1)^n sqrt(pi / (2 c I)), c = (a-1)/(a+1),
    I = integral_0^inf (1 + c^2 t^2)^(n-1) / (1 + t^2)^n dt.

    Serves as an independent cross-check of the Parseval normalization."""
    if not (a > 1):
        raise ValueError("requires a > 1")
    c = (a - 1.0) / (a + 1.0)
    val, err, _, _ = _quad(
        lambda t: (1 + c * c * t * t) ** (n - 1) / (1 + t * t) ** n,
        0.0,
        math.inf,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    if err > 1e-9 * abs(val):
        raise QuadratureFailure(f"reference integral error {err:.2e}")
    return (a - 1.0) ** n * math.sqrt(math.pi / (2 * c * val))


def _normalization_check(wf) -> tuple[str, bool, str]:
    total = norm_quadrature(wf, 1e-10).value.real
    return ("normalization", abs(total - 1) <= NORM_BOUND, f"|psi|^2 integral = {total:.12g}")


def verify_line(wf, spectrum, wavenumber, tol: float) -> list[tuple[str, bool, str]]:
    """Rows for a line state: its norm, and its spectrum(p) and k = wavenumber(x), on arrays, against quadrature."""
    checks = [_normalization_check(wf)]

    peak = float(np.max(np.abs(spectrum(np.linspace(0.05, 10, 120)))))
    worst_neg = max(
        abs(fourier_quadrature(wf, p, tol=min(tol, 1e-8)).value)
        for p in (-0.4, -1.1, -2.6, -5.3, -8.7)
    )
    checks.append(
        ("spectrum_vanishes_for_p<0", worst_neg <= tol * peak, f"max |spectrum| = {worst_neg:.3e} vs peak {peak:.3e}")
    )

    ps = (0.3, 0.9, 1.7, 3.1, 6.3)
    refs = [fourier_quadrature(wf, p, tol=min(tol, 1e-8)).value for p in ps]
    worst = float(np.max(np.abs(spectrum(ps) - refs)))
    checks.append(
        ("residue_spectrum_matches_quadrature", worst <= tol * max(1.0, peak), f"max deviation = {worst:.3e}")
    )

    xs = np.random.default_rng(20240901).uniform(-4, 4, 25)
    checks.append(_phase_gradient_check(wf, wavenumber(xs), xs, 1e-5))
    return checks


def _phase_gradient_check(wf, ks, xs, h: float) -> tuple[str, bool, str]:
    """Largest |k - fd| over xs, skipping points where either is undefined."""
    worst = 0.0
    for x, k in zip(xs.tolist(), ks.tolist()):
        if math.isnan(k):
            continue
        try:
            fd = phase_gradient_fd(wf, x, h)
        except SingularPoint:
            continue
        worst = max(worst, abs(k - fd))
    return ("phase_gradient_consistency", worst <= 1e-4, f"max |k - fd| = {worst:.3e} (fd floor 1e-4)")


def verify_ring(wf, coeffs, wavenumber, tol: float) -> list[tuple[str, bool, str]]:
    """Rows for a ring state: its norm, and its coeffs (c_1, c_2, ...) and k = wavenumber(x) against quadrature."""
    checks = [_normalization_check(wf)]

    L = wf.period
    M = 4096
    x = np.arange(M) * (L / M) - L / 2
    vals = wf(x)
    parseval = sum(abs(c) ** 2 for c in coeffs)
    checks.append(("parseval", abs(parseval - 1) <= 1e-10, f"sum |c_k|^2 = {parseval:.12g}"))

    def dft(k):
        return complex(np.sum(vals * np.exp(-2j * np.pi * k * x / L)) * (L / M) / math.sqrt(L))

    worst_neg = max(abs(dft(k)) for k in range(-20, 1))
    checks.append(("spectrum_vanishes_for_k<=0", worst_neg <= tol, f"max |c_k| = {worst_neg:.3e}"))

    worst = max(abs(coeffs[k - 1] - dft(k)) for k in range(1, min(len(coeffs), 50) + 1))
    checks.append(("taylor_coefficients_match_dft", worst <= max(tol, 1e-8), f"max deviation = {worst:.3e}"))

    xs = np.random.default_rng(20240902).uniform(0, L, 25)
    checks.append(_phase_gradient_check(wf, wavenumber(xs), xs, 1e-6 * L))

    # single pole on the positive real axis plus the origin zero: compare the
    # Parseval normalization with the closed-form reference integral, which is
    # at period 1; N scales as 1/sqrt(L)
    if (
        len(wf.spec.poles) == 1
        and abs(wf.spec.poles[0].position.imag) < 1e-12
        and wf.spec.poles[0].position.real > 1
        and len(wf.spec.zeros) == 1
    ):
        a = wf.spec.poles[0].position.real
        n = wf.spec.poles[0].multiplicity
        ref = single_pole_reference_norm(a, n) / math.sqrt(L)
        rel = abs(wf.norm_constant - ref) / ref
        checks.append(
            ("reference_normalization", rel <= max(tol, 1e-6), f"relative deviation = {rel:.3e}")
        )
    return checks
