import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from backflow import cli
from backflow import contwave as cw
from backflow import ringwave as rw

EXAMPLE_ONE = {
    "kind": "line",
    "zeros": [{"re": 0.0, "im": -0.25, "mult": 1}],
    "poles": [{"re": 0.0, "im": -1.0, "mult": 2}],
}

EXAMPLE_TWO = {
    "kind": "ring",
    "zeros": [
        {"re": 0.0, "im": 0.0, "mult": 1},
        {"re": math.sqrt(2), "im": 0.0, "mult": 1},
    ],
    "poles": [],
    "period": 1.0,
}

EXAMPLE_THREE = {
    "kind": "ring",
    "zeros": [{"re": 0.0, "im": 0.0, "mult": 1}],
    "poles": [{"re": 1.5, "im": 0.0, "mult": 3}],
    "period": 1.0,
}

DESIGN_M8_B3PI = {
    "profile": {"kind": "exp", "kappa": -1.0},
    "m": 8,
    "x0": math.pi,
    "poles": [{"re": 0.0, "im": -3 * math.pi, "mult": 9}],
}


def write_descriptor(tmp_path, payload, name="descriptor.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [
            [float(v) for v in line.strip().split(",")] for line in fh if line.strip()
        ]
    return header, np.array(rows)


class TestDescriptors:
    def test_round_trip_is_bitwise(self):
        d = cli.parse_descriptor(EXAMPLE_ONE)
        again = cli.parse_descriptor(json.loads(json.dumps(d)))
        assert again == d

    def test_ring_round_trip_keeps_period(self):
        d = cli.parse_descriptor(EXAMPLE_TWO)
        again = cli.parse_descriptor(d)
        assert again["period"] == d["period"]
        assert again == d

    def test_bad_kind_rejected(self):
        with pytest.raises(cli.SpecViolation):
            cli.parse_descriptor({"kind": "surface", "zeros": [], "poles": []})


class TestAnalyze:
    def test_example_one_current_sign_structure(self, tmp_path):
        inp = write_descriptor(tmp_path, EXAMPLE_ONE)
        out = str(tmp_path / "ex1")
        rc = cli.main(["analyze", "--input", inp, "--output", out, "--range=-2:2"])
        assert rc == 0
        header, rows = read_csv(f"{out}_field.csv")
        assert header == ["x", "density", "wavenumber", "current"]
        xs, current = rows[:, 0], rows[:, 3]
        edge = 1 / math.sqrt(14)
        grid_step = xs[1] - xs[0]
        for x, j in zip(xs, current):
            if abs(x) < edge - grid_step:
                assert j < 0
            elif abs(x) > edge + grid_step:
                assert j >= 0

        with open(f"{out}_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        (lo, hi), = report["backflow"]["intervals"]
        assert lo == pytest.approx(-edge, abs=1e-9)
        assert hi == pytest.approx(edge, abs=1e-9)

    def test_report_echoes_repeated_zero_unmerged(self, tmp_path):
        # the echo is the parsed input: a repeated zero stays two entries, mult 2.0 becomes the int 2,
        # while the state itself merges the zeros into one of multiplicity 3
        zero = {"re": 0.0, "im": -0.25}
        payload = {**EXAMPLE_ONE, "zeros": [{**zero, "mult": 2.0}, zero], "poles": [{"re": 0.0, "im": -1.0, "mult": 4}]}
        out = str(tmp_path / "repeat")
        assert cli.main(["analyze", "--input", write_descriptor(tmp_path, payload), "--output", out]) == 0
        with open(f"{out}_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["descriptor"] == {
            "kind": "line", "zeros": [{**zero, "mult": 2}, {**zero, "mult": 1}], "poles": payload["poles"],
        }
        assert type(report["descriptor"]["zeros"][0]["mult"]) is int
        assert cli.build_wavefunction(report["descriptor"]).spec.zeros == (cw.Root(-0.25j, 3),)

    def test_empty_poles_is_invalid_line_descriptor(self, tmp_path):
        inp = write_descriptor(tmp_path, {"kind": "line", "zeros": [], "poles": []})
        rc = cli.main(["analyze", "--input", inp, "--output", str(tmp_path / "bad")])
        assert rc == 1

    def test_ring_spectrum_block_has_two_entries(self, tmp_path):
        inp = write_descriptor(tmp_path, EXAMPLE_TWO)
        out = str(tmp_path / "ex2")
        assert cli.main(["analyze", "--input", inp, "--output", out]) == 0
        with open(f"{out}_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert len(report["spectrum"]) == 2
        header, rows = read_csv(f"{out}_spectrum.csv")
        assert header == ["k", "abs_ck", "arg_ck"]
        assert rows.shape[0] == 2

    def test_slow_coefficient_decay_exits_2(self, tmp_path, capsys):
        # a pole hugging the unit circle: the coefficient tail cannot be truncated;
        # a pole at 1e300: the squares of the Taylor coefficients (mult 1) or the
        # coefficients themselves (mult 2) underflow
        for pole in ({"re": 1.000001, "im": 0.0, "mult": 2}, {"re": 1e300, "im": 0.0, "mult": 1},
                     {"re": 1e300, "im": 0.0, "mult": 2}):
            bad = {"kind": "ring", "zeros": [{"re": 0.0, "im": 0.0, "mult": 1}], "poles": [pole]}
            inp = write_descriptor(tmp_path, bad)
            rc = cli.main(["analyze", "--input", inp, "--output", str(tmp_path / "slow")])
            assert rc == 2
            assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("payload", [EXAMPLE_ONE, EXAMPLE_THREE], ids=["line", "ring"])
    def test_spectrum_built_once(self, tmp_path, monkeypatch, payload):
        calls = {"momentum_spectrum": 0, "ring_spectrum": 0}

        def counted(module, name):
            build = getattr(module, name)

            def wrapper(wf):
                calls[name] += 1
                return build(wf)

            monkeypatch.setattr(module, name, wrapper)

        counted(cw, "momentum_spectrum")
        counted(rw, "ring_spectrum")
        inp = write_descriptor(tmp_path, payload)
        assert cli.main(["analyze", "--input", inp, "--output", str(tmp_path / "once")]) == 0
        line = payload["kind"] == "line"
        assert calls == {"momentum_spectrum": int(line), "ring_spectrum": int(not line)}

    def test_determinism(self, tmp_path):
        inp = write_descriptor(tmp_path, EXAMPLE_ONE)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["analyze", "--input", inp, "--output", out1]) == 0
        assert cli.main(["analyze", "--input", inp, "--output", out2]) == 0
        for suffix in ("_field.csv", "_spectrum.csv", "_report.json"):
            assert Path(f"{out1}{suffix}").read_bytes() == Path(f"{out2}{suffix}").read_bytes()


class TestDesign:
    def test_design_run(self, tmp_path):
        inp = write_descriptor(tmp_path, DESIGN_M8_B3PI, "design.json")
        out = str(tmp_path / "design3pi")
        assert cli.main(["design", "--input", inp, "--output", out]) == 0
        with open(f"{out}_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert len(report["numerator"]) == 9
        assert report["amplitude_ratio"] > 1
        header, rows = read_csv(f"{out}_field.csv")
        assert header == ["x", "density", "re_psi", "im_psi", "re_profile", "im_profile"]
        # inside the interval the state tracks the reference profile closely
        mask = np.abs(rows[:, 0]) < 1.0
        psi = rows[mask, 2] + 1j * rows[mask, 3]
        ref = rows[mask, 4] + 1j * rows[mask, 5]
        assert np.max(np.abs(psi - ref)) < 0.05 * np.max(np.abs(ref))

    def test_overconstrained_degree_exits_1(self, tmp_path):
        design = {
            "profile": {"kind": "exp", "kappa": -1.0},
            "m": 9,
            "x0": math.pi,
            "poles": [{"re": 0.0, "im": -3 * math.pi, "mult": 9}],
        }
        inp = write_descriptor(tmp_path, design, "design.json")
        assert cli.main(["design", "--input", inp, "--output", str(tmp_path / "x")]) == 1

    def test_infinite_pole_exits_1(self, tmp_path, capsys):
        # JSON reads -1e400 as -inf: the descriptor is rejected before any numerics run
        inp = tmp_path / "design.json"
        inp.write_text(
            '{"profile": {"kind": "exp", "kappa": -1.0}, "m": 3, "x0": 1.0,'
            ' "poles": [{"re": 0.0, "im": -1e400, "mult": 4}]}',
            encoding="utf-8",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["design", "--input", str(inp), "--output", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: pole position must be finite")
        assert sorted(os.listdir(tmp_path)) == ["design.json"]

    def test_overflowing_report_exits_2(self, tmp_path, capsys):
        # x0 = 1e200 is finite, but the interval overflows the report numbers to NaN: a numerical
        # failure that writes no report
        inp = write_descriptor(tmp_path, {**DESIGN_M8_B3PI, "x0": 1e200}, "design.json")
        assert cli.main(["design", "--input", inp, "--output", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: design report is not finite")
        assert sorted(os.listdir(tmp_path)) == ["design.json"]


class TestFigure:
    def test_unknown_figure_id(self, tmp_path):
        assert cli.main(["figure", "--figure", "7", "--output", str(tmp_path)]) == 1

    def test_figure_one_files(self, tmp_path):
        outdir = str(tmp_path / "fig1")
        assert cli.main(["figure", "--figure", "1", "--output", outdir, "--samples", "801"]) == 0
        names = sorted(os.listdir(outdir))
        assert names == [
            "figure1_current.csv",
            "figure1_density.csv",
            "figure1_report.json",
            "figure1_spectrum.csv",
            "figure1_wavenumber.csv",
        ]
        header, rows = read_csv(os.path.join(outdir, "figure1_wavenumber.csv"))
        xs, ks = rows[:, 0], rows[:, 1]
        # wavenumber changes sign near +-1/sqrt(14)
        edge = 1 / math.sqrt(14)
        sign_changes = [
            0.5 * (xs[i] + xs[i + 1])
            for i in range(len(xs) - 1)
            if (ks[i] < 0) != (ks[i + 1] < 0)
        ]
        assert len(sign_changes) == 2
        assert sign_changes[0] == pytest.approx(-edge, abs=xs[1] - xs[0])
        assert sign_changes[1] == pytest.approx(edge, abs=xs[1] - xs[0])


@pytest.mark.parametrize(
    "figure_id, x_range", [(1, "-5:5"), (2, "-0.5:0.5"), (3, "-0.5:0.5")], ids=["figure1", "figure2", "figure3"]
)
def test_figure_matches_analyze(tmp_path, figure_id, x_range):
    # a built-in figure state is a descriptor in the --input format, and analyze of that file is the figure
    inp = write_descriptor(tmp_path, cli.FIGURE_STATES[figure_id])
    out = str(tmp_path / "state")
    assert cli.main(["analyze", "--input", inp, "--output", out, f"--range={x_range}"]) == 0
    assert cli.main(["figure", "--figure", str(figure_id), "--output", str(tmp_path)]) == 0
    _, field = read_csv(f"{out}_field.csv")
    prefix = os.path.join(str(tmp_path), f"figure{figure_id}")
    np.testing.assert_array_equal(read_csv(f"{prefix}_density.csv")[1], field[:, [0, 1]])
    np.testing.assert_array_equal(read_csv(f"{prefix}_wavenumber.csv")[1], field[:, [0, 2]])
    np.testing.assert_array_equal(read_csv(f"{prefix}_current.csv")[1][:, :2], field[:, [0, 3]])
    np.testing.assert_array_equal(read_csv(f"{prefix}_spectrum.csv")[1], read_csv(f"{out}_spectrum.csv")[1])


def test_figure_four_matches_design(tmp_path):
    out = str(tmp_path / "design")
    assert cli.main(["design", "--input", write_descriptor(tmp_path, DESIGN_M8_B3PI), "--output", out]) == 0
    assert cli.main(["figure", "--figure", "4", "--output", str(tmp_path)]) == 0
    _, field = read_csv(f"{out}_field.csv")
    prefix = os.path.join(str(tmp_path), "figure4")
    np.testing.assert_array_equal(read_csv(f"{prefix}_b3pi_density.csv")[1], field[:, [0, 1]])
    np.testing.assert_array_equal(read_csv(f"{prefix}_b3pi_wave.csv")[1][:, :3], field[:, [0, 2, 3]])
    with open(f"{out}_report.json", encoding="utf-8") as fh:
        design = json.load(fh)
    with open(f"{prefix}_report.json", encoding="utf-8") as fh:
        figure = next(d for d in json.load(fh)["designs"] if d["b"] == 3 * math.pi)
    for key in ("max_error_on_interval", "amplitude_ratio", "norm_constant"):
        assert figure[key] == design[key]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("analyze", [EXAMPLE_ONE]),
        ("analyze", {**EXAMPLE_ONE, "zeros": 5}),
        ("analyze", {**EXAMPLE_THREE, "period": None}),
        ("design", {**DESIGN_M8_B3PI, "profile": {"coeffs": [1.0]}}),
        ("design", {**DESIGN_M8_B3PI, "profile": {"kind": "exp", "kappa": None}}),
        ("design", {**DESIGN_M8_B3PI, "m": 8.9}),
        ("design", {**DESIGN_M8_B3PI, "m": math.inf}),
        ("analyze", {**EXAMPLE_ONE, "poles": [{"re": 0.0, "im": -1.0, "mult": 2.7}]}),
        ("analyze", {**EXAMPLE_ONE, "zeros": [{"re": 0.0, "im": -0.25, "mult": True}]}),
        ("analyze", {**EXAMPLE_ONE, "poles": [{"re": 0.0, "im": -1.0, "mult": 1e400}]}),
        ("analyze", {**EXAMPLE_THREE, "period": "2.5"}),
        ("analyze", {**EXAMPLE_THREE, "period": True}),
        ("analyze", {**EXAMPLE_THREE, "period": 10**400}),
        ("analyze", {**EXAMPLE_ONE, "zeros": [{"re": 0.0, "im": "-0.25"}]}),
        ("design", {**DESIGN_M8_B3PI, "x0": 10**400}),
        ("design", {**DESIGN_M8_B3PI, "profile": {"kind": "exp", "kappa": False}}),
        ("design", {**DESIGN_M8_B3PI, "x0": math.inf}),
        ("design", {**DESIGN_M8_B3PI, "profile": {"kind": "exp", "kappa": math.nan}}),
    ],
    ids=["array", "zeros-number", "period-null", "coeff-number", "kappa-null",
         "m-fraction", "m-infinite", "mult-fraction", "mult-bool", "mult-overflow",
         "period-string", "period-bool", "period-overflow", "im-string", "x0-overflow", "kappa-bool",
         "x0-infinite", "kappa-nan"],
)
def test_malformed_descriptor_exits_1(tmp_path, capsys, command, payload):
    args = ["--input", write_descriptor(tmp_path, payload), "--output", str(tmp_path / "out")]
    assert cli.main([command, *args]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_integral_float_multiplicity_is_valid(tmp_path):
    as_float = {**EXAMPLE_ONE, "poles": [{"re": 0.0, "im": -1.0, "mult": 2.0}]}
    for name, payload in (("float", as_float), ("int", EXAMPLE_ONE)):
        inp = write_descriptor(tmp_path, payload, f"{name}.json")
        assert cli.main(["analyze", "--input", inp, "--output", str(tmp_path / name)]) == 0
    for suffix in ("_field.csv", "_spectrum.csv", "_report.json"):
        assert (tmp_path / f"float{suffix}").read_bytes() == (tmp_path / f"int{suffix}").read_bytes()


@pytest.mark.parametrize("samples", ["0", "1"])
@pytest.mark.parametrize("command", ["analyze", "design", "figure"])
def test_fewer_than_two_samples_exits_1(tmp_path, command, samples):
    if command == "analyze":
        args = ["--input", write_descriptor(tmp_path, EXAMPLE_ONE), "--output", str(tmp_path / "out")]
    elif command == "design":
        args = ["--input", write_descriptor(tmp_path, DESIGN_M8_B3PI), "--output", str(tmp_path / "out")]
    else:
        args = ["--figure", "1", "--output", str(tmp_path / "figs")]
    before = sorted(os.listdir(tmp_path))
    assert cli.main([command, *args, "--samples", samples]) == 1
    assert sorted(os.listdir(tmp_path)) == before


class TestVerify:
    def test_example_one_passes(self, tmp_path, capsys):
        inp = write_descriptor(tmp_path, EXAMPLE_ONE)
        rc = cli.main(["verify", "--input", inp, "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "normalization" in out

    def test_upper_half_plane_pole_exits_1(self, tmp_path):
        bad = {
            "kind": "line",
            "zeros": [],
            "poles": [{"re": 0.0, "im": 1.0, "mult": 2}],
        }
        inp = write_descriptor(tmp_path, bad)
        assert cli.main(["verify", "--input", inp]) == 1

    def test_example_three_includes_reference_norm(self, tmp_path, capsys):
        inp = write_descriptor(tmp_path, EXAMPLE_THREE)
        rc = cli.main(["verify", "--input", inp, "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reference_normalization" in out
        assert "FAIL" not in out

    def test_reference_norm_follows_the_period(self, tmp_path, capsys):
        # N scales as 1/sqrt(L): at period 2.5 the period-1 reference is 1/sqrt(2.5) off
        inp = write_descriptor(tmp_path, {**EXAMPLE_THREE, "period": 2.5})
        rc = cli.main(["verify", "--input", inp, "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reference_normalization" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("payload", [EXAMPLE_ONE, EXAMPLE_THREE], ids=["line", "ring"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, payload, tol):
        # exit 1 on both geometries, before any check runs: not 3 (a check failing at a tol of 0 or NaN)
        # and not 0 (every tol-relative check passing at inf)
        rc = cli.main(["verify", "--input", write_descriptor(tmp_path, payload), f"--tol={tol}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "" and "--tol" in captured.err

    def test_example_one_runs_without_the_library_psi(self, tmp_path, capsys, monkeypatch):
        # the oracle evaluates a line state's psi from its root data, so a broken library psi
        # cannot hide from the check
        inp = write_descriptor(tmp_path, EXAMPLE_ONE)
        assert cli.main(["verify", "--input", inp]) == 0
        expected = capsys.readouterr().out

        def refuse(self, x):
            raise AssertionError("verify evaluated psi through LineWaveFunction")

        monkeypatch.setattr(cw.LineWaveFunction, "__call__", refuse)
        assert cli.main(["verify", "--input", inp]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("payload", [EXAMPLE_ONE, EXAMPLE_THREE], ids=["line", "ring"])
    def test_normalization_bound_ignores_tol(self, tmp_path, capsys, monkeypatch, payload):
        # N off by 1e-7 puts the |psi|^2 integral 2e-7 from 1: outside 1e-8 even at --tol 1e-6
        build = cli.build_wavefunction

        def scaled(descriptor):
            wf = build(descriptor)
            return dataclasses.replace(wf, norm_constant=wf.norm_constant * (1 + 1e-7))

        monkeypatch.setattr(cli, "build_wavefunction", scaled)
        rc = cli.main(["verify", "--input", write_descriptor(tmp_path, payload), "--tol", "1e-6"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 3
        assert [line.split()[1] for line in out if line.startswith("normalization")] == ["FAIL"]


@pytest.mark.parametrize(
    "text", ["-inf:inf", "0:inf", "-1e308:1.7e308", "a:b", "1:2:3", "2:1", "1:1.0000000000000002"],
    ids=["both-infinite", "hi-infinite", "width-overflow", "not-numbers", "three-parts", "reversed", "no-grid"],
)
def test_bad_range_exits_1(tmp_path, capsys, text):
    # the last has lo < hi, but 2001 samples between neighbouring floats are not increasing
    inp = write_descriptor(tmp_path, EXAMPLE_ONE)
    assert cli.main(["analyze", "--input", inp, "--output", str(tmp_path / "out"), f"--range={text}"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(os.listdir(tmp_path)) == ["descriptor.json"]


def test_unknown_design_profile_exits_1(tmp_path, capsys):
    inp = write_descriptor(tmp_path, {**DESIGN_M8_B3PI, "profile": {"kind": "gauss"}})
    assert cli.main(["design", "--input", inp, "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: design profile must be")
    assert sorted(os.listdir(tmp_path)) == ["descriptor.json"]


@pytest.mark.parametrize("zero_im", [-2.5, -1.25])
def test_report_with_infinite_values(tmp_path, zero_im):
    # N (x - a) / (x + i)^2, a = i zero_im: k < 0 for x^2 > 20 at -2.5; at -1.25 k > 0 everywhere,
    # and both minima are 0 at inf
    state = {**EXAMPLE_ONE, "zeros": [{"re": 0.0, "im": zero_im, "mult": 1}]}
    inp = write_descriptor(tmp_path, state)
    assert cli.main(["analyze", "--input", inp, "--output", str(tmp_path / "out"), "--samples", "11"]) == 0
    text = (tmp_path / "out_report.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    backflow = payload["backflow"]
    if zero_im == -2.5:
        (lo, left), (right, hi) = backflow["intervals"]
        assert (lo, hi) == ("-inf", "inf")
        assert left == pytest.approx(-math.sqrt(20), rel=1e-12) and right == pytest.approx(math.sqrt(20), rel=1e-12)
        assert '"-inf"' in text and '"inf"' in text
    else:
        assert backflow["intervals"] == [] and backflow["min_wavenumber"] == backflow["min_current"] == 0.0
        assert backflow["min_wavenumber_location"] == backflow["min_current_location"] == "inf"


def test_overflowing_field_exits_2(tmp_path, capsys):
    # far out psi's numerator and denominator products overflow to inf / inf, though |psi| ~ N/|x|
    # is finite: a numerical failure that writes no file, not NaN rows
    state = {
        "kind": "line",
        "zeros": [{"re": 0.0, "im": -0.25, "mult": 1}, {"re": 1.0, "im": -0.5, "mult": 1}],
        "poles": [{"re": 0.0, "im": -1.0, "mult": 3}],
    }
    inp = write_descriptor(tmp_path, state)
    argv = ["analyze", "--input", inp, "--output", str(tmp_path / "far"), "--range=-1e160:1e160", "--samples", "5"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("numerical failure: density is not finite")
    assert sorted(os.listdir(tmp_path)) == ["descriptor.json"]


def test_scipy_loads_only_when_the_oracle_integrates(tmp_path):
    """In a fresh interpreter, analyze (a line state and a ring), design and figures 1-4 leave scipy
    unloaded; a following verify imports scipy.integrate for its quadratures."""
    line, ring = write_descriptor(tmp_path, EXAMPLE_ONE, "line.json"), write_descriptor(tmp_path, EXAMPLE_THREE, "ring.json")
    design = write_descriptor(tmp_path, DESIGN_M8_B3PI, "design.json")
    samples = ["--samples", "101"]
    runs = [
        ["analyze", "--input", line, "--output", str(tmp_path / "line"), *samples],
        ["analyze", "--input", ring, "--output", str(tmp_path / "ring"), *samples],
        ["design", "--input", design, "--output", str(tmp_path / "design"), *samples],
        *(["figure", "--figure", str(i), "--output", str(tmp_path / f"figure{i}"), *samples] for i in range(1, 5)),
    ]
    script = (
        "import json, sys\n"
        "import backflow, backflow.cli as cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "before = 'scipy' in sys.modules\n"
        "code = cli.main(['verify', '--input', sys.argv[2]])\n"
        "print(json.dumps([codes, before, code, 'scipy.integrate' in sys.modules]))\n"
    )
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), line], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    codes, before, code, integrate = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert not before, "scipy was loaded before verify"
    assert code == 0 and integrate
