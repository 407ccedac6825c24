import json
import math
import os

import numpy as np
import pytest

from backflow import cli

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
        again = cli.parse_descriptor(json.loads(json.dumps(cli.descriptor_to_json(d))))
        assert again == d

    def test_ring_round_trip_keeps_period(self):
        d = cli.parse_descriptor(EXAMPLE_TWO)
        again = cli.parse_descriptor(cli.descriptor_to_json(d))
        assert again.period == d.period
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

    def test_slow_coefficient_decay_exits_2(self, tmp_path):
        # pole hugging the unit circle: the coefficient tail cannot be truncated
        bad = {
            "kind": "ring",
            "zeros": [{"re": 0.0, "im": 0.0, "mult": 1}],
            "poles": [{"re": 1.000001, "im": 0.0, "mult": 2}],
        }
        inp = write_descriptor(tmp_path, bad)
        rc = cli.main(["analyze", "--input", inp, "--output", str(tmp_path / "slow")])
        assert rc == 2

    def test_determinism(self, tmp_path):
        inp = write_descriptor(tmp_path, EXAMPLE_ONE)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["analyze", "--input", inp, "--output", out1]) == 0
        assert cli.main(["analyze", "--input", inp, "--output", out2]) == 0
        for suffix in ("_field.csv", "_spectrum.csv", "_report.json"):
            b1 = open(f"{out1}{suffix}", "rb").read()
            b2 = open(f"{out2}{suffix}", "rb").read()
            assert b1 == b2


class TestDesign:
    def test_design_run(self, tmp_path):
        design = {
            "profile": {"kind": "exp", "kappa": -1.0},
            "m": 8,
            "x0": math.pi,
            "poles": [{"re": 0.0, "im": -3 * math.pi, "mult": 9}],
        }
        inp = write_descriptor(tmp_path, design, "design.json")
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


@pytest.mark.parametrize("samples", ["0", "1"])
@pytest.mark.parametrize("command", ["analyze", "design", "figure"])
def test_fewer_than_two_samples_exits_1(tmp_path, command, samples):
    if command == "analyze":
        args = ["--input", write_descriptor(tmp_path, EXAMPLE_ONE), "--output", str(tmp_path / "out")]
    elif command == "design":
        design = {
            "profile": {"kind": "exp", "kappa": -1.0},
            "m": 8,
            "x0": math.pi,
            "poles": [{"re": 0.0, "im": -3 * math.pi, "mult": 9}],
        }
        args = ["--input", write_descriptor(tmp_path, design), "--output", str(tmp_path / "out")]
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
