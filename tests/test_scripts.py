"""Smoke tests of the scripts under scripts/: each runs as a program in an
empty directory and writes what its docstring says."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_amplitude_scaling(tmp_path):
    out = run_script("amplitude_scaling.py", cwd=tmp_path)
    rows = [line.split() for line in out.splitlines()[1:5]]
    assert len(rows) == 4 and all(float(ratio) >= 1 for _, ratio, _ in rows)
    slope = float(out.split("log-log slope:")[1].split()[0])
    assert 0.8 * 8 <= slope <= 1.2 * 8  # the b^m/m! scaling at m = 8
    assert list(tmp_path.iterdir()) == []


def test_backflow_region_map(tmp_path):
    out = run_script("backflow_region_map.py", "--grid", "4", cwd=tmp_path)
    assert "16 points" in out
    with open(tmp_path / "backflow_region_map.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    for row in rows:
        a = complex(float(row["re_a"]), float(row["im_a"]))
        # none inside |a + 5i/4| < 3/4, a half-infinite pair below Im(a) = -2
        want = 0 if abs(a + 1.25j) < 0.75 else 2 if a.imag < -2 else 1
        assert int(row["regime"]) == want
