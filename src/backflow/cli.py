"""Command-line interface: descriptors in, CSV/JSON data out.

Subcommands:
  analyze  sample density / wave number / current plus the momentum spectrum
  design   run the constrained Pade designer from a design descriptor
  figure   emit the datasets behind the four reference figures
  verify   run the oracle cross-check suite against a descriptor

Descriptors are JSON with explicit re/im fields (no complex literals).
CSV output is UTF-8, LF line endings, 17 significant digits, written
atomically (temp file + rename). Exit codes: 0 success, 1 invalid
descriptor/arguments, 2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import contwave as cw
from . import oracle
from . import padegen as pg
from . import ringwave as rw
from .errors import BackflowError, SingularPoint, SpecViolation
from .polyring import horner

DEFAULT_SAMPLES = 2001
DEFAULT_LINE_RANGE = (-5.0, 5.0)
DEFAULT_P_MAX = 10.0


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class WaveFunctionDescriptor:
    kind: str  # "line" | "ring"
    zeros: tuple[cw.Root, ...]
    poles: tuple[cw.Root, ...]
    period: float = 1.0


def _roots_from_json(items, label) -> tuple[cw.Root, ...]:
    roots = []
    for item in items:
        try:
            re, im = float(item["re"]), float(item["im"])
            mult = int(item.get("mult", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecViolation(f"malformed {label} entry {item!r}: {exc}") from exc
        roots.append(cw.Root(complex(re, im), mult))
    return tuple(roots)


def parse_descriptor(obj: dict) -> WaveFunctionDescriptor:
    kind = obj.get("kind")
    if kind not in ("line", "ring"):
        raise SpecViolation(f"descriptor kind must be 'line' or 'ring', got {kind!r}")
    zeros = _roots_from_json(obj.get("zeros", []), "zero")
    poles = _roots_from_json(obj.get("poles", []), "pole")
    period = float(obj.get("period", 1.0))
    return WaveFunctionDescriptor(kind, zeros, poles, period)


def descriptor_to_json(d: WaveFunctionDescriptor) -> dict:
    out = {
        "kind": d.kind,
        "zeros": [
            {"re": r.position.real, "im": r.position.imag, "mult": r.multiplicity}
            for r in d.zeros
        ],
        "poles": [
            {"re": r.position.real, "im": r.position.imag, "mult": r.multiplicity}
            for r in d.poles
        ],
    }
    if d.kind == "ring":
        out["period"] = d.period
    return out


def build_wavefunction(d: WaveFunctionDescriptor):
    spec = cw.RationalSpec(zeros=d.zeros, poles=d.poles)
    if d.kind == "line":
        return cw.make_line_wavefunction(spec)
    return rw.make_ring_wavefunction(spec, d.period)


# ---------------------------------------------------------------------------
# sampling and output plumbing


@dataclass(frozen=True)
class SampledField:
    """Field rows (x, density, wavenumber, current) plus spectrum rows."""

    x: np.ndarray
    density: np.ndarray
    wavenumber: np.ndarray  # NaN at singular points
    current: np.ndarray
    spectrum_axis: np.ndarray  # p values (line) or k indices (ring)
    spectrum_abs: np.ndarray
    spectrum_arg: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.x) > 0):
            raise ValueError("sample grid must be strictly increasing")
        if np.any(self.density < 0):
            raise ValueError("density must be nonnegative")


def _atomic_write(path: str, chunks) -> None:
    """Write an iterable of text chunks to a temp file beside path, then
    rename it over path. Chunks stream to the file, so a large report is
    never held in memory whole."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(col, float).tolist() for col in columns))
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], (row % r for r in rows)))


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else "-inf"
    return v


def write_json(path: str, payload: dict) -> None:
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    _atomic_write(path, itertools.chain(encoder.iterencode(payload), ["\n"]))


def backflow_report_json(report: cw.BackflowReport) -> dict:
    return {
        "intervals": [[_jsonable(lo), _jsonable(hi)] for lo, hi in report.intervals],
        "tangencies": list(report.tangencies),
        "min_wavenumber": report.min_wavenumber,
        "min_wavenumber_location": _jsonable(report.min_wavenumber_location),
        "min_current": report.min_current,
        "min_current_location": _jsonable(report.min_current_location),
    }


def sample_field(wf, lo: float, hi: float, samples: int) -> SampledField:
    xs = np.linspace(lo, hi, samples)
    dens = np.abs(wf(xs)) ** 2
    if isinstance(wf, cw.LineWaveFunction):
        ks, js = cw.local_wavenumber(wf, xs), cw.probability_current(wf, xs)
        axis = np.linspace(0.0, DEFAULT_P_MAX, samples)
        vals = cw.eval_spectrum(cw.momentum_spectrum(wf), axis)
    else:
        ks, js = rw.ring_wavenumber(wf, xs), rw.ring_current(wf, xs)
        vals = np.asarray(rw.ring_spectrum(wf).coeffs)
        axis = np.arange(1, len(vals) + 1, dtype=float)
    return SampledField(xs, dens, ks, js, axis, np.abs(vals), np.angle(vals))


def _spectrum_terms_json(wf) -> list | dict:
    if isinstance(wf, cw.LineWaveFunction):
        sp = cw.momentum_spectrum(wf)
        return [
            {
                "pole": {"re": t.pole.real, "im": t.pole.imag},
                "coeffs": [{"re": c.real, "im": c.imag} for c in t.coeffs],
            }
            for t in sp.terms
        ]
    sp = rw.ring_spectrum(wf)
    return [
        {"k": k + 1, "re": c.real, "im": c.imag} for k, c in enumerate(sp.coeffs)
    ]


# ---------------------------------------------------------------------------
# subcommands


def _analyze(descriptor: WaveFunctionDescriptor, x_range, samples: int):
    """Build, sample and analyse a state: the step analyze and figure share."""
    wf = build_wavefunction(descriptor)
    field = sample_field(wf, x_range[0], x_range[1], samples)
    report = (
        cw.backflow_intervals(wf)
        if descriptor.kind == "line"
        else rw.ring_backflow_intervals(wf)
    )
    return wf, field, report


def cmd_analyze(input_path: str, output_prefix: str, x_range=None, samples: int = DEFAULT_SAMPLES) -> int:
    with open(input_path, encoding="utf-8") as fh:
        descriptor = parse_descriptor(json.load(fh))
    if x_range is None:
        if descriptor.kind == "line":
            x_range = DEFAULT_LINE_RANGE
        else:
            x_range = (-descriptor.period / 2, descriptor.period / 2)
    wf, field, report = _analyze(descriptor, x_range, samples)
    write_csv(
        f"{output_prefix}_field.csv",
        ["x", "density", "wavenumber", "current"],
        [field.x, field.density, field.wavenumber, field.current],
    )
    spec_header = ["p", "abs_spectrum", "arg_spectrum"] if descriptor.kind == "line" else ["k", "abs_ck", "arg_ck"]
    write_csv(
        f"{output_prefix}_spectrum.csv",
        spec_header,
        [field.spectrum_axis, field.spectrum_abs, field.spectrum_arg],
    )
    write_json(
        f"{output_prefix}_report.json",
        {
            "descriptor": descriptor_to_json(descriptor),
            "norm_constant": wf.norm_constant,
            "backflow": backflow_report_json(report),
            "spectrum": _spectrum_terms_json(wf),
        },
    )
    return 0


def _parse_design_descriptor(obj: dict) -> pg.PadeProblem:
    profile = obj.get("profile")
    if isinstance(profile, dict) and profile.get("kind") == "exp":
        kappa = float(profile["kappa"])
        coeffs = pg.exp_profile_coeffs(kappa)
    elif isinstance(profile, dict) and "coeffs" in profile:
        coeffs = tuple(complex(float(c["re"]), float(c["im"])) for c in profile["coeffs"])
    else:
        raise SpecViolation(
            "design profile must be {'kind': 'exp', 'kappa': ...} or {'coeffs': [{re, im}, ...]}"
        )
    try:
        m = int(obj["m"])
        x0 = float(obj["x0"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecViolation(f"design descriptor needs integer m and real x0: {exc}") from exc
    poles = _roots_from_json(obj.get("poles", []), "pole")
    problem = pg.PadeProblem(coeffs, m, poles, x0)
    problem.validate()
    return problem


def cmd_design(input_path: str, output_prefix: str, samples: int = DEFAULT_SAMPLES) -> int:
    with open(input_path, encoding="utf-8") as fh:
        problem = _parse_design_descriptor(json.load(fh))
    report = pg.design_wavefunction(problem)
    wf = report.wavefunction
    x0 = problem.half_width
    xs = np.linspace(-2 * x0, 2 * x0, samples)
    vals = wf(xs)
    scale = wf.norm_constant / abs(report.numerator.coeffs[-1])
    profile_vals = scale * horner(problem.profile_coeffs, xs + 0j)
    write_csv(
        f"{output_prefix}_field.csv",
        ["x", "density", "re_psi", "im_psi", "re_profile", "im_profile"],
        [xs, np.abs(vals) ** 2, vals.real, vals.imag, profile_vals.real, profile_vals.imag],
    )
    write_json(
        f"{output_prefix}_report.json",
        {
            "numerator": [{"re": c.real, "im": c.imag} for c in report.numerator.coeffs],
            "max_error_on_interval": report.max_error_on_interval,
            "amplitude_ratio": report.amplitude_ratio,
            "norm_constant": wf.norm_constant,
            "zeros": [
                {"re": r.position.real, "im": r.position.imag, "mult": r.multiplicity}
                for r in wf.spec.zeros
            ],
        },
    )
    return 0


# figures 1-3: a reference state and the x range it is sampled on
FIGURE_PARAMS = {
    1: (WaveFunctionDescriptor("line", (cw.Root(-0.25j),), (cw.Root(-1j, 2),)), (-5.0, 5.0)),
    2: (WaveFunctionDescriptor("ring", (cw.Root(0j), cw.Root(math.sqrt(2) + 0j)), ()), (-0.5, 0.5)),
    3: (WaveFunctionDescriptor("ring", (cw.Root(0j),), (cw.Root(1.5 + 0j, 3),)), (-0.5, 0.5)),
}
# figure 4: exp(-ix) designs with an order-(m+1) pole at -ib for each b
FIGURE4_M = 8
FIGURE4_BS = (3 * math.pi, 15 * math.pi)
FIGURE4_RANGE = (-2 * math.pi, 2 * math.pi)


def cmd_figure(figure_id: int, output_dir: str, samples: int = DEFAULT_SAMPLES) -> int:
    if figure_id not in (*FIGURE_PARAMS, 4):
        raise SpecViolation(f"unknown figure id {figure_id}; valid ids are 1..4")
    os.makedirs(output_dir, exist_ok=True)
    prefix = os.path.join(output_dir, f"figure{figure_id}")
    if figure_id == 4:
        return _figure_designs(prefix, samples)

    descriptor, x_range = FIGURE_PARAMS[figure_id]
    wf, field, report = _analyze(descriptor, x_range, samples)
    write_csv(f"{prefix}_density.csv", ["x", "density"], [field.x, field.density])
    write_csv(f"{prefix}_wavenumber.csv", ["x", "wavenumber"], [field.x, field.wavenumber])
    write_csv(
        f"{prefix}_current.csv",
        ["x", "current", "abs_current"],
        [field.x, field.current, np.abs(field.current)],
    )
    axis_name = "p" if descriptor.kind == "line" else "k"
    write_csv(
        f"{prefix}_spectrum.csv",
        [axis_name, "abs_spectrum", "arg_spectrum"],
        [field.spectrum_axis, field.spectrum_abs, field.spectrum_arg],
    )
    write_json(
        f"{prefix}_report.json",
        {
            "figure": figure_id,
            "norm_constant": wf.norm_constant,
            "backflow": backflow_report_json(report),
            "spectrum_entries": len(field.spectrum_axis),
        },
    )
    return 0


def _figure_designs(prefix: str, samples: int) -> int:
    xs = np.linspace(*FIGURE4_RANGE, samples)
    designs = []
    for b in FIGURE4_BS:
        problem = pg.PadeProblem(
            profile_coeffs=pg.exp_profile_coeffs(-1.0),
            numerator_degree=FIGURE4_M,
            poles=(cw.Root(-1j * b, FIGURE4_M + 1),),
            half_width=math.pi,
        )
        report = pg.design_wavefunction(problem)
        wf = report.wavefunction
        vals = wf(xs)
        scale = wf.norm_constant / abs(report.numerator.coeffs[-1])
        tag = f"b{b / math.pi:g}pi"
        write_csv(
            f"{prefix}_{tag}_density.csv", ["x", "density"], [xs, np.abs(vals) ** 2]
        )
        write_csv(
            f"{prefix}_{tag}_wave.csv",
            ["x", "re_psi", "im_psi", "re_profile", "im_profile"],
            [xs, vals.real, vals.imag, scale * np.cos(xs), -scale * np.sin(xs)],
        )
        designs.append(
            {
                "b": b,
                "max_error_on_interval": report.max_error_on_interval,
                "amplitude_ratio": report.amplitude_ratio,
                "norm_constant": wf.norm_constant,
            }
        )
    write_json(f"{prefix}_report.json", {"figure": 4, "designs": designs})
    return 0


def _verify_line(wf, tol: float) -> list[tuple[str, bool, str]]:
    checks = []
    total = oracle.norm_quadrature(wf, "line", 1e-10).value.real
    checks.append(("normalization", abs(total - 1) <= max(tol, 1e-8), f"|psi|^2 integral = {total:.12g}"))

    sp = cw.momentum_spectrum(wf)
    peak = float(np.max(np.abs(cw.eval_spectrum(sp, np.linspace(0.05, 10, 120)))))
    worst_neg = max(
        abs(oracle.fourier_quadrature(wf, p, tol=min(tol, 1e-8)).value)
        for p in (-0.4, -1.1, -2.6, -5.3, -8.7)
    )
    checks.append(
        ("spectrum_vanishes_for_p<0", worst_neg <= tol * peak, f"max |spectrum| = {worst_neg:.3e} vs peak {peak:.3e}")
    )

    ps = (0.3, 0.9, 1.7, 3.1, 6.3)
    refs = [oracle.fourier_quadrature(wf, p, tol=min(tol, 1e-8)).value for p in ps]
    worst = float(np.max(np.abs(cw.eval_spectrum(sp, ps) - refs)))
    checks.append(
        ("residue_spectrum_matches_quadrature", worst <= tol * max(1.0, peak), f"max deviation = {worst:.3e}")
    )

    xs = np.random.default_rng(20240901).uniform(-4, 4, 25)
    checks.append(_phase_gradient_check(wf, cw.local_wavenumber(wf, xs), xs, 1e-5))
    return checks


def _phase_gradient_check(wf, ks, xs, h: float) -> tuple[str, bool, str]:
    """Largest |k - fd| over xs, skipping points where either is undefined."""
    worst = 0.0
    for x, k in zip(xs.tolist(), ks.tolist()):
        if math.isnan(k):
            continue
        try:
            fd = oracle.phase_gradient_fd(wf, x, h)
        except SingularPoint:
            continue
        worst = max(worst, abs(k - fd))
    return ("phase_gradient_consistency", worst <= 1e-4, f"max |k - fd| = {worst:.3e} (fd floor 1e-4)")


def _verify_ring(wf, tol: float) -> list[tuple[str, bool, str]]:
    checks = []
    total = oracle.norm_quadrature(wf, "ring", 1e-10).value.real
    checks.append(("normalization", abs(total - 1) <= max(tol, 1e-8), f"|psi|^2 integral = {total:.12g}"))

    sp = rw.ring_spectrum(wf)
    L = wf.period
    M = 4096
    x = np.arange(M) * (L / M) - L / 2
    vals = wf(x)
    parseval = sum(abs(c) ** 2 for c in sp.coeffs)
    checks.append(("parseval", abs(parseval - 1) <= 1e-10, f"sum |c_k|^2 = {parseval:.12g}"))

    def dft(k):
        return complex(np.sum(vals * np.exp(-2j * np.pi * k * x / L)) * (L / M) / math.sqrt(L))

    worst_neg = max(abs(dft(k)) for k in range(-20, 1))
    checks.append(("spectrum_vanishes_for_k<=0", worst_neg <= tol, f"max |c_k| = {worst_neg:.3e}"))

    worst = max(
        abs(sp.coefficient(k) - dft(k)) for k in range(1, min(len(sp.coeffs), 50) + 1)
    )
    checks.append(("taylor_coefficients_match_dft", worst <= max(tol, 1e-8), f"max deviation = {worst:.3e}"))

    xs = np.random.default_rng(20240902).uniform(0, L, 25)
    checks.append(_phase_gradient_check(wf, rw.ring_wavenumber(wf, xs), xs, 1e-6 * L))

    # single pole on the positive real axis plus the origin zero: compare the
    # Parseval normalization with the closed-form reference integral
    if (
        len(wf.spec.poles) == 1
        and abs(wf.spec.poles[0].position.imag) < 1e-12
        and wf.spec.poles[0].position.real > 1
        and len(wf.spec.zeros) == 1
    ):
        a = wf.spec.poles[0].position.real
        n = wf.spec.poles[0].multiplicity
        ref = rw.single_pole_reference_norm(a, n)
        rel = abs(wf.norm_constant - ref) / ref
        checks.append(
            ("reference_normalization", rel <= max(tol, 1e-6), f"relative deviation = {rel:.3e}")
        )
    return checks


def cmd_verify(input_path: str, tol: float = 1e-6) -> int:
    with open(input_path, encoding="utf-8") as fh:
        descriptor = parse_descriptor(json.load(fh))
    wf = build_wavefunction(descriptor)
    checks = _verify_line(wf, tol) if descriptor.kind == "line" else _verify_ring(wf, tol)
    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        print(f"{name:<38} {'PASS' if ok else 'FAIL'}  {detail}")
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------
# argument parsing


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise SpecViolation(f"range must be 'lo:hi', got {text!r}") from exc
    if not lo < hi:
        raise SpecViolation(f"range must satisfy lo < hi, got {text!r}")
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backflow",
        description="Backflowing wave functions from rational complex functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="sample a wave function and its spectrum")
    p_analyze.add_argument("--input", required=True, help="descriptor JSON file")
    p_analyze.add_argument("--output", required=True, help="output path prefix")
    p_analyze.add_argument("--range", default=None, help="x range as lo:hi")
    p_analyze.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    p_design = sub.add_parser("design", help="run the constrained Pade designer")
    p_design.add_argument("--input", required=True, help="design descriptor JSON file")
    p_design.add_argument("--output", required=True, help="output path prefix")
    p_design.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    p_figure = sub.add_parser("figure", help="emit reference figure datasets")
    p_figure.add_argument("--figure", type=int, required=True, help="figure id 1..4")
    p_figure.add_argument("--output", required=True, help="output directory")
    p_figure.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    p_verify = sub.add_parser("verify", help="run the oracle cross-check suite")
    p_verify.add_argument("--input", required=True, help="descriptor JSON file")
    p_verify.add_argument("--tol", type=float, default=1e-6)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "samples", 2) < 2:
            raise SpecViolation(f"need at least 2 samples, got {args.samples}")
        if args.command == "analyze":
            x_range = _parse_range(args.range) if args.range else None
            return cmd_analyze(args.input, args.output, x_range, args.samples)
        if args.command == "design":
            return cmd_design(args.input, args.output, args.samples)
        if args.command == "figure":
            return cmd_figure(args.figure, args.output, args.samples)
        if args.command == "verify":
            return cmd_verify(args.input, args.tol)
        raise AssertionError(f"unhandled command {args.command}")
    except (SpecViolation, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BackflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
