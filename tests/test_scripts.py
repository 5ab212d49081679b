"""The scripts the README documents run to completion in a fresh
interpreter, with the package on the path as the README sets it up."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_quick_convergence_study_runs_and_stays_accurate():
    proc = run_script("scripts/convergence_study.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    # the table runs to the first blank line: rule, residue rel err,
    # pv rel err, levelset rel err, conv, secs
    header, *rows = proc.stdout.split("\n\n")[0].splitlines()
    assert "pv rel err" in header and "levelset rel err" in header
    assert len(rows) == 2
    for row in rows:
        rule, _, pv_err, set_err, _, _ = row.split()
        assert float(pv_err) < 1e-3, rule
        # the sublevel set |z1| < eps is a cylinder whose level radius
        # eps / cos(eta) meets the support at a kink in eta, which the
        # coarse eta rules here resolve to about 1e-2 (the bound of
        # test_levelset_region_agrees_with_metric_region)
        assert float(set_err) < 1e-2, rule


def test_catalogue_classification_script_runs():
    proc = run_script("scripts/classify_catalogue.py")
    assert proc.returncode == 0, proc.stderr
    assert "closure of two affine-family instances:" in proc.stdout
