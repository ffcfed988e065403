"""Smoke runs of the scripts in scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def test_emit_bound_curves(tmp_path):
    out = tmp_path / "curves.csv"
    proc = run_script("emit_bound_curves.py", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {out}: 6 curves, 176 grid points\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "delta,C5[m=4],C6[m=5],C7[m=6],C8[m=7],GV[ce=0],envelope,"
        "external_lower,external_upper"
    )
    assert lines[1] == "0,0.666666666667,0.533333333333,0.714285714286,0.469387755102,1,1,,"
    assert len(lines) == 177


def test_emit_bound_curves_rejects_non_finite_step(tmp_path):
    out = tmp_path / "curves.csv"
    proc = run_script("emit_bound_curves.py", "--out", str(out), "--delta-step", "nan")
    assert proc.returncode != 0
    assert "delta step must be positive and finite" in proc.stderr
    assert not out.exists()


def test_emit_bound_curves_rejects_negative_max(tmp_path):
    out = tmp_path / "curves.csv"
    proc = run_script("emit_bound_curves.py", "--out", str(out), "--delta-max", "-1")
    assert proc.returncode != 0
    assert "delta max must be non-negative and finite" in proc.stderr
    assert not out.exists()


def test_run_ensemble_checks(tmp_path):
    proc = run_script("run_ensemble_checks.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("all identities hold") == 3
    assert "IDENTITY VIOLATION" not in proc.stdout and "FAIL" not in proc.stdout
    assert "ensemble n1=3 k1=2 n2=2 k2=1 (inner matrices=16, outer matrices=16)" in lines
    assert (
        "outer: nonzero info part: 240 vectors, frequencies {1/16} (expected 1/16): PASS"
        in lines
    )
    assert "sweep for n1=4 k1=2 n2=8 k2=4: R_e=0.25 C_e=0.75" in lines
    assert lines[-1] == "phi bound at x=1/2: log2=-1.7360"


def test_worked_example(tmp_path):
    proc = run_script("worked_example.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "inner  [[4,2,2;0]]_2   outer [[25,13,12;12]]_4"
    assert lines[2].startswith("concatenated           [[100,26,>=24;24]]_2   net=2")
    assert "class=52-EAQMDS maximal=no" in lines[2]
    assert lines[3].startswith("extended (+2)          [[102,26,>=24;24]]_2")
    assert lines[4].startswith("expurgated (-3)        [[97,26,>=24;27]]_2    net=-1")


def test_run_ensemble_checks_rejects_bad_input_before_enumerating(tmp_path):
    cases = [
        (["--spec", "4,2,8"], "ensemble spec needs"),
        (["--spec", "4,x,8,4"], "bad ensemble spec"),
        (["--spec", "4,5,8,4"], "need 1 <= k <= n"),
        (["--deltas", "0.1,x"], "could not convert"),
        (["--deltas", "0.1,0.5"], "delta_e must lie in (0, 1/2)"),
        (["--spec", "670,1,10000000000,1"], "beyond binary64"),
    ]
    for args, message in cases:
        proc = run_script("run_ensemble_checks.py", *args, cwd=tmp_path)
        # exit 1 is kept for a failed identity; usage errors are argparse's 2
        assert proc.returncode == 2, (args, proc.stderr)
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
