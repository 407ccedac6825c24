"""Command-line interface: descriptors in, CSV/JSON data out.

Subcommands:
  analyze  sample density / wave number / current plus the momentum spectrum
  design   run the constrained Pade designer from a design descriptor
  figure   emit the datasets behind the four reference figures: figures 1-3
           are analyze on built-in states, figure 4 is design on two
           built-in problems
  verify   build a descriptor's state and print the oracle's cross-check rows
           (oracle.verify_line / verify_ring), one PASS or FAIL line each

Descriptors are JSON with explicit re/im fields (no complex literals).
CSV output is UTF-8, LF line endings, 17 significant digits ("%.17g").
A report is exactly json.dumps(payload, indent=2, sort_keys=True) plus a
newline. Both are written atomically (temp file + rename). Exit codes: 0
success, 1 invalid descriptor/arguments, 2 numerical failure, 3
verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from functools import partial

import numpy as np

from . import contwave as cw
from . import oracle
from . import padegen as pg
from . import ringwave as rw
from .errors import BackflowError, SpecViolation
from .polyring import horner

DEFAULT_SAMPLES = 2001
DEFAULT_LINE_RANGE = (-5.0, 5.0)
DEFAULT_P_MAX = 10.0
# CSV rows or JSON list entries formatted per % call: few calls, and a bounded chunk each
BLOCK = 512


# ---------------------------------------------------------------------------
# descriptors


def _read_json_object(path: str) -> dict:
    """The descriptor object in a JSON file; any other JSON value is invalid input."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise SpecViolation(f"descriptor must be a JSON object, got {type(obj).__name__}")
    return obj


def _number(value, label: str) -> float:
    """value as a float if it is an int or a float; a bool, a string or an int past the float range
    is invalid."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise SpecViolation(f"{label} must be a number, got {value!r}")


def _complex_entries(items, label: str) -> list[tuple[complex, dict]]:
    """(re + i im, entry) for each {re, im, ...} object of a JSON list."""
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise SpecViolation(f"{label} entries must be a list of {{re, im}} objects, got {items!r}")
    return [
        (complex(_number(item.get("re"), f"{label} re"), _number(item.get("im"), f"{label} im")), item)
        for item in items
    ]


def _roots_from_json(items, label: str) -> list[dict]:
    """{re, im, mult} with float parts and an int multiplicity, for each entry of a JSON root list."""
    return [
        {"re": z.real, "im": z.imag, "mult": cw._integer(item.get("mult", 1), f"{label} multiplicity")}
        for z, item in _complex_entries(items, label)
    ]


def _root_pairs(roots: list[dict]) -> list[tuple[complex, int]]:
    return [(complex(r["re"], r["im"]), r["mult"]) for r in roots]


def parse_descriptor(obj: dict) -> dict:
    """The checked descriptor that analyze echoes: kind, zeros and poles as {re, im, mult} in input
    order (repeats unmerged), then period for a ring."""
    kind = obj.get("kind")
    if kind not in ("line", "ring"):
        raise SpecViolation(f"descriptor kind must be 'line' or 'ring', got {kind!r}")
    zeros = _roots_from_json(obj.get("zeros", []), "zero")
    poles = _roots_from_json(obj.get("poles", []), "pole")
    period = _number(obj.get("period", 1.0), "period")
    return {"kind": kind, "zeros": zeros, "poles": poles, **({"period": period} if kind == "ring" else {})}


def build_wavefunction(descriptor: dict):
    spec = cw.RationalSpec(zeros=_root_pairs(descriptor["zeros"]), poles=_root_pairs(descriptor["poles"]))
    if descriptor["kind"] == "line":
        return cw.make_line_wavefunction(spec)
    return rw.make_ring_wavefunction(spec, descriptor["period"])


# ---------------------------------------------------------------------------
# sampling and output plumbing


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


def write_csv(path: str, header: list[str], columns: list[np.ndarray] | tuple[np.ndarray, ...]) -> None:
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    table = np.column_stack([np.asarray(col, float) for col in columns])
    blocks = (table[i : i + BLOCK] for i in range(0, len(table), BLOCK))
    lines = (row * len(block) % tuple(block.ravel().tolist()) for block in blocks)
    _atomic_write(path, itertools.chain([",".join(header) + "\n"], lines))


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else "-inf"
    return v


def _flat_records(value) -> tuple[list[str], list] | None:
    """(sorted keys, each entry's values in their order) of a list of dicts with the same str keys and
    only exact ints and finite floats as values, whose %r is the text json writes; else None."""
    keys = sorted(value[0]) if type(value) is list and value and type(value[0]) is dict else []
    if not keys or {*map(type, value)} != {dict} or {*map(len, value)} != {len(keys)}:
        return None
    values = [entry.get(key) for entry in value for key in keys]  # None where a key is missing
    numeric = all(type(v) is int or type(v) is float and math.isfinite(v) for v in values)
    return (keys, values) if numeric and all(type(key) is str for key in keys) else None


def _json_chunks(payload: dict):
    """json.dumps(payload, indent=2, sort_keys=True) in chunks, a str-keyed payload's values one by one:
    one that _flat_records accepts goes out by one % template per BLOCK entries, any other by
    json.dumps, re-indented."""
    for i, name in enumerate(sorted(payload)):
        yield ("," if i else "{") + f"\n  {json.dumps(name)}: "
        records = _flat_records(payload[name])
        if records is None:
            yield json.dumps(payload[name], indent=2, sort_keys=True).replace("\n", "\n  ")
            continue
        keys, values = records
        fields = ",".join(f"\n      {json.dumps(key).replace('%', '%%')}: %r" for key in keys)
        entry = f",\n    {{{fields}\n    }}"
        for start in range(0, len(values), BLOCK * len(keys)):
            block = values[start : start + BLOCK * len(keys)]
            yield ("," if start else "[") + (entry * (len(block) // len(keys)))[1:] % tuple(block)
        yield "\n  ]"
    yield "\n}" if payload else "{}"


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, itertools.chain(_json_chunks(payload), ["\n"]))


def backflow_report_json(report: cw.BackflowReport) -> dict:
    return {
        "intervals": [[_jsonable(lo), _jsonable(hi)] for lo, hi in report.intervals],
        "tangencies": list(report.tangencies),
        "min_wavenumber": report.min_wavenumber,
        "min_wavenumber_location": _jsonable(report.min_wavenumber_location),
        "min_current": report.min_current,
        "min_current_location": _jsonable(report.min_current_location),
    }


def sample_field(wf, lo: float, hi: float, samples: int) -> tuple[np.ndarray, ...]:
    """Field columns (x, density, wavenumber, current) on samples points of [lo, hi]; the
    wavenumber is NaN at singular points."""
    xs = np.linspace(lo, hi, samples)
    with np.errstate(over="ignore", invalid="ignore"):  # far out, psi's products overflow to inf / inf
        k_of = cw.local_wavenumber if isinstance(wf, cw.LineWaveFunction) else rw.ring_wavenumber
        psi, ks = wf(xs), k_of(wf, xs)
        density, js = np.abs(psi) ** 2, cw._current(psi, ks)
    if not np.all(np.isfinite(density)):
        raise BackflowError(f"density is not finite on [{lo!r}, {hi!r}]")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("sample grid must be strictly increasing")
    return xs, density, ks, js


# ---------------------------------------------------------------------------
# subcommands


def _analyze(descriptor: dict, x_range, samples: int):
    """Build and analyse a state once: the step analyze and figure share, and the one place
    they tell the line from the ring. Returns the state, its field on x_range (None: the
    default), its spectrum as CSV (header, [axis, |value|, arg]) and JSON terms, and its report."""
    wf = build_wavefunction(descriptor)
    if descriptor["kind"] == "line":
        x_range = x_range or DEFAULT_LINE_RANGE
        sp = cw.momentum_spectrum(wf)
        header, axis = ["p", "abs_spectrum", "arg_spectrum"], np.linspace(0.0, DEFAULT_P_MAX, samples)
        vals = cw.eval_spectrum(sp, axis)
        terms = [
            {"pole": {"re": t.pole.real, "im": t.pole.imag}, "coeffs": [{"re": c.real, "im": c.imag} for c in t.coeffs]}
            for t in sp.terms
        ]
        report = cw.backflow_intervals(wf)
    else:
        x_range = x_range or (-descriptor["period"] / 2, descriptor["period"] / 2)
        coeffs = rw.ring_spectrum(wf).coeffs
        vals = np.asarray(coeffs)
        header, axis = ["k", "abs_ck", "arg_ck"], np.arange(1, len(vals) + 1, dtype=float)
        terms = [{"k": k, "re": c.real, "im": c.imag} for k, c in enumerate(coeffs, 1)]
        report = rw.ring_backflow_intervals(wf)
    field = sample_field(wf, x_range[0], x_range[1], samples)
    return wf, field, (header, [axis, np.abs(vals), np.angle(vals)]), terms, report


def cmd_analyze(input_path: str, output_prefix: str, x_range=None, samples: int = DEFAULT_SAMPLES) -> int:
    descriptor = parse_descriptor(_read_json_object(input_path))
    wf, field, spectrum, terms, report = _analyze(descriptor, x_range, samples)
    write_csv(f"{output_prefix}_field.csv", ["x", "density", "wavenumber", "current"], field)
    write_csv(f"{output_prefix}_spectrum.csv", *spectrum)
    write_json(
        f"{output_prefix}_report.json",
        {
            "descriptor": descriptor,
            "norm_constant": wf.norm_constant,
            "backflow": backflow_report_json(report),
            "spectrum": terms,
        },
    )
    return 0


def _parse_design_descriptor(obj: dict) -> pg.PadeProblem:
    profile = obj.get("profile")
    if isinstance(profile, dict) and profile.get("kind") == "exp":
        coeffs = pg.exp_profile_coeffs(_number(profile.get("kappa"), "kappa"))
    elif isinstance(profile, dict) and "coeffs" in profile:
        coeffs = tuple(z for z, _ in _complex_entries(profile["coeffs"], "profile coefficient"))
    else:
        raise SpecViolation(
            "design profile must be {'kind': 'exp', 'kappa': ...} or {'coeffs': [{re, im}, ...]}"
        )
    x0 = _number(obj.get("x0"), "design x0")
    poles = _root_pairs(_roots_from_json(obj.get("poles", []), "pole"))
    return pg.PadeProblem(coeffs, obj.get("m"), poles, x0)


def _design(problem: pg.PadeProblem, xs: np.ndarray):
    """Design a state and sample psi on xs, the step design and figure 4 share. Returns the report,
    psi on xs, the scale that puts the profile on psi's normalization, and the three report numbers."""
    report = pg.design_wavefunction(problem)
    wf = report.wavefunction
    numbers = {
        "max_error_on_interval": report.max_error_on_interval,
        "amplitude_ratio": report.amplitude_ratio,
        "norm_constant": wf.norm_constant,
    }
    return report, wf(xs), wf.norm_constant / abs(report.numerator.coeffs[-1]), numbers


def cmd_design(input_path: str, output_prefix: str, samples: int = DEFAULT_SAMPLES) -> int:
    problem = _parse_design_descriptor(_read_json_object(input_path))
    xs = np.linspace(-2 * problem.half_width, 2 * problem.half_width, samples)
    report, vals, scale, numbers = _design(problem, xs)
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
            **numbers,
            "zeros": [{"re": z.real, "im": z.imag, "mult": n} for z, n in report.wavefunction.spec.zeros],
        },
    )
    return 0


# figures 1-3: reference states as --input descriptors, sampled on analyze's default range
FIGURE_STATES = {
    1: {"kind": "line", "zeros": [{"re": 0.0, "im": -0.25, "mult": 1}], "poles": [{"re": 0.0, "im": -1.0, "mult": 2}]},
    2: {"kind": "ring", "zeros": [{"re": 0.0, "im": 0.0, "mult": 1}, {"re": math.sqrt(2), "im": 0.0, "mult": 1}],
        "poles": [], "period": 1.0},
    3: {"kind": "ring", "zeros": [{"re": 0.0, "im": 0.0, "mult": 1}], "poles": [{"re": 1.5, "im": 0.0, "mult": 3}],
        "period": 1.0},
}
# figure 4: exp(-ix) designs with an order-(m+1) pole at -ib for each b
FIGURE4_M = 8
FIGURE4_BS = (3 * math.pi, 15 * math.pi)
FIGURE4_RANGE = (-2 * math.pi, 2 * math.pi)


def cmd_figure(figure_id: int, output_dir: str, samples: int = DEFAULT_SAMPLES) -> int:
    if figure_id not in (*FIGURE_STATES, 4):
        raise SpecViolation(f"unknown figure id {figure_id}; valid ids are 1..4")
    os.makedirs(output_dir, exist_ok=True)
    prefix = os.path.join(output_dir, f"figure{figure_id}")
    if figure_id == 4:
        return _figure_designs(prefix, samples)

    wf, field, (header, spectrum), _, report = _analyze(parse_descriptor(FIGURE_STATES[figure_id]), None, samples)
    xs, density, ks, js = field
    write_csv(f"{prefix}_density.csv", ["x", "density"], [xs, density])
    write_csv(f"{prefix}_wavenumber.csv", ["x", "wavenumber"], [xs, ks])
    write_csv(f"{prefix}_current.csv", ["x", "current", "abs_current"], [xs, js, np.abs(js)])
    write_csv(f"{prefix}_spectrum.csv", [header[0], "abs_spectrum", "arg_spectrum"], spectrum)
    write_json(
        f"{prefix}_report.json",
        {
            "figure": figure_id,
            "norm_constant": wf.norm_constant,
            "backflow": backflow_report_json(report),
            "spectrum_entries": len(spectrum[0]),
        },
    )
    return 0


def _figure_designs(prefix: str, samples: int) -> int:
    xs = np.linspace(*FIGURE4_RANGE, samples)
    designs = []
    for b in FIGURE4_BS:
        _, vals, scale, numbers = _design(pg.exp_design_problem(FIGURE4_M, b, math.pi), xs)
        tag = f"b{b / math.pi:g}pi"
        write_csv(
            f"{prefix}_{tag}_density.csv", ["x", "density"], [xs, np.abs(vals) ** 2]
        )
        write_csv(
            f"{prefix}_{tag}_wave.csv",
            ["x", "re_psi", "im_psi", "re_profile", "im_profile"],
            [xs, vals.real, vals.imag, scale * np.cos(xs), -scale * np.sin(xs)],
        )
        designs.append({"b": b, **numbers})
    write_json(f"{prefix}_report.json", {"figure": 4, "designs": designs})
    return 0


def cmd_verify(input_path: str, tol: float = 1e-6) -> int:
    descriptor = parse_descriptor(_read_json_object(input_path))
    wf = build_wavefunction(descriptor)
    if descriptor["kind"] == "line":
        spectrum = partial(cw.eval_spectrum, cw.momentum_spectrum(wf))
        checks = oracle.verify_line(wf, spectrum, partial(cw.local_wavenumber, wf), tol)
    else:
        checks = oracle.verify_ring(wf, rw.ring_spectrum(wf).coeffs, partial(rw.ring_wavenumber, wf), tol)
    for name, ok, detail in checks:
        print(f"{name:<38} {'PASS' if ok else 'FAIL'}  {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 3


# ---------------------------------------------------------------------------
# argument parsing


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise SpecViolation(f"range must be 'lo:hi', got {text!r}") from exc
    if not lo < hi:
        raise SpecViolation(f"range must satisfy lo < hi, got {text!r}")
    if not math.isfinite(hi - lo):  # an infinite end, or a width past the float range
        raise SpecViolation(f"range must be finite with a finite width, got {text!r}")
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
            if not 0 < args.tol < math.inf:
                raise SpecViolation(f"--tol must be positive and finite, got {args.tol}")
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
