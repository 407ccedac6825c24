"""The writers against their reference formats, in-process.

`write_json` writes exactly json.dumps(payload, indent=2, sort_keys=True) plus a
newline, and `write_csv` exactly the per-row "%.17g" join, whatever the block
boundaries and whichever values fall back from the templates.
"""

import json
import math

import numpy as np
import pytest

from backflow import cli

RING_101 = {
    "kind": "ring",
    "period": 1.0,
    "zeros": [{"re": 0.0, "im": 0.0, "mult": 1}],
    "poles": [{"re": 1.01, "im": 0.0, "mult": 3}],
}
# two poles, one of order 3, and a real zero: nested coeffs lists of lengths 3 and 1
LINE_TWO_POLES = {
    "kind": "line",
    "zeros": [{"re": 1.0, "im": 0.0, "mult": 1}, {"re": 0.3, "im": -0.2, "mult": 1}],
    "poles": [{"re": 0.1, "im": -0.8, "mult": 3}, {"re": -1.2, "im": -1.5, "mult": 1}],
}

DESIGN_M8_B3PI = {
    "profile": {"kind": "exp", "kappa": -1.0},
    "m": 8,
    "x0": math.pi,
    "poles": [{"re": 0.0, "im": -3 * math.pi, "mult": 9}],
}


def write_descriptor(tmp_path, payload) -> str:
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def reference_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def written_json(tmp_path, payload) -> str:
    path = str(tmp_path / "out.json")
    cli.write_json(path, payload)
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def recorded_payloads(tmp_path, monkeypatch, argv) -> list:
    """(path, payload) of every write_json call that cli.main(argv) makes."""
    calls = []
    write = cli.write_json

    def record(path, payload):
        calls.append((path, payload))
        write(path, payload)

    monkeypatch.setattr(cli, "write_json", record)
    assert cli.main(argv) == 0
    assert calls
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["analyze", "--input", write_descriptor(tmp, RING_101), "--output", str(tmp / "ring")],
        lambda tmp: ["analyze", "--input", write_descriptor(tmp, LINE_TWO_POLES), "--output", str(tmp / "line")],
        lambda tmp: ["design", "--input", write_descriptor(tmp, DESIGN_M8_B3PI), "--output", str(tmp / "design")],
        lambda tmp: ["figure", "--figure", "4", "--output", str(tmp), "--samples", "55"],
    ],
    ids=["ring-1.01", "line-two-poles", "design", "figure-4"],
)
def test_reports_match_json_dumps(tmp_path, monkeypatch, argv):
    for path, payload in recorded_payloads(tmp_path, monkeypatch, argv(tmp_path)):
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == reference_json(payload)


def test_line_report_nests_coeffs(tmp_path, monkeypatch):
    argv = ["analyze", "--input", write_descriptor(tmp_path, LINE_TWO_POLES), "--output", str(tmp_path / "l")]
    ((_, payload),) = recorded_payloads(tmp_path, monkeypatch, argv)
    assert [len(term["coeffs"]) for term in payload["spectrum"]] == [3, 1]


ODD_VALUES = {
    "true": True, "false": False, "float64": np.float64(0.5), "nan": math.nan,
    "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0, "5e-324": 5e-324, "1e308": 1e308, "-1e308": -1e308,
    "10**400": 10**400, "null": None, "str": "text", "list": [1.0], "dict": {"a": 1.0},
}


@pytest.mark.parametrize("odd", ODD_VALUES.values(), ids=ODD_VALUES.keys())
@pytest.mark.parametrize("where", [0, cli.BLOCK - 1, cli.BLOCK, cli.BLOCK + 1])
def test_records_holding_odd_values(tmp_path, odd, where):
    records = [{"k": k, "re": 0.1 * k, "im": -1.0 / (k + 1)} for k in range(cli.BLOCK + 2)]
    records[where] = {**records[where], "re": odd}
    payload = {"spectrum": records, "nested": [{"coeffs": records[: where + 1]}]}
    assert written_json(tmp_path, payload) == reference_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"empty_list": [], "empty_dict": {}, "list_of_empty": [{}], "empty_in_list": [[], {}]},
        {"one": [{"re": 1.5, "im": -0.0, "k": 1}]},
        {"one_key": [{"x": 1}, {"x": 2.5}]},
        {"keys": [{'quote"': 1.0, "per%cent": 2.0, "ünï": 3, "%r": 4.0}] * 3},
        {"mixed_keys": [{"a": 1.0}, {"b": 1.0}], "extra_key": [{"a": 1.0}, {"a": 1.0, "b": 2.0}]},
        {"int_keys": {1: 2.0, 0: 3.0}, "tuple": (1.0, 2.0), "ints": [1, 2, 3], "deep": [[[{"a": [1.0]}]]]},
        {"order": [{"b": 1.0, "a": 2.0}, {"a": 3.0, "b": 4.0}]},
        {"big": [{"k": k, "v": k * 1e-300} for k in range(3 * cli.BLOCK + 1)]},
    ],
    ids=["empty", "empties", "one-record", "one-key", "odd-keys", "key-mismatch", "non-records", "key-order", "big"],
)
def test_payload_shapes(tmp_path, payload):
    assert written_json(tmp_path, payload) == reference_json(payload)


def test_unserializable_value_raises_like_json_dumps(tmp_path):
    payload = {"records": [{"k": 1, "re": 0.5}, {"k": np.int64(2), "re": 0.5}]}
    with pytest.raises(TypeError):
        reference_json(payload)
    with pytest.raises(TypeError):
        written_json(tmp_path, payload)
    assert list(tmp_path.iterdir()) == []


def reference_csv(header, columns) -> str:
    rows = zip(*(np.asarray(col, float).tolist() for col in columns))
    return ",".join(header) + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("rows", [0, 1, cli.BLOCK - 1, cli.BLOCK, cli.BLOCK + 1, 2 * cli.BLOCK + 3])
def test_csv_matches_row_by_row_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    specials = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 1 / 3])
    columns = [np.linspace(-1.0, 1.0, rows), rng.normal(size=rows), specials[np.arange(rows) % len(specials)]]
    header = ["x", "y", "z"]
    path = str(tmp_path / "out.csv")
    cli.write_csv(path, header, columns)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == reference_csv(header, columns)
