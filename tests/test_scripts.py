"""The scripts the README documents run to completion in a fresh
interpreter, with the package on the path as the README sets it up, and
the paired-run summary gives each of its verdicts on small synthetic
runs."""
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

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


PARENT_WALL = [1.00, 1.04, 1.01, 1.06, 1.02, 1.08, 1.03, 1.05, 1.09, 1.07]


def write_runs(path, walls, failed=0):
    """One perfbench result per line, wall_s from walls and every other
    end-to-end metric the same on every line."""
    with open(path, "w") as fh:
        for w in walls:
            metrics = {"setup_s": 0.1, "wall_s": w, "op_p50_ms": 0.2,
                       "peak_rss_mb": 40.0}
            fh.write(json.dumps({
                "attempted": 100, "correct": True, "failed": failed,
                "metrics": {k: {"unit": "", "value": v}
                            for k, v in metrics.items()}}) + "\n")


@pytest.mark.parametrize("parent, change, want, won", [
    (PARENT_WALL, [0.9 * w for w in PARENT_WALL], "gain", 10),
    # ties count for neither side: 8 of 10 won is no gain
    (PARENT_WALL, [0.8 * w for w in PARENT_WALL[:8]] + PARENT_WALL[8:],
     "within bound", 8),
    (PARENT_WALL, [1.3 * w for w in PARENT_WALL], "worse", 0),
    # the parent's quartile distance, 1, is wider than 25 % of its median
    ([1.0, 2.0] * 5, [2.0, 1.0] * 5, "unresolved", 5),
    (PARENT_WALL, [1.05 * w for w in PARENT_WALL], "within bound", 0),
], ids=["gain", "ties", "worse", "unresolved", "within-bound"])
def test_paired_runs_gives_each_verdict(tmp_path, parent, change, want, won):
    write_runs(tmp_path / "parent.jsonl", parent)
    write_runs(tmp_path / "change.jsonl", change, failed=1)
    proc = run_script("scripts/paired_runs.py", str(tmp_path / "parent.jsonl"),
                      str(tmp_path / "change.jsonl"))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    wall = summary["metrics"]["wall_s"]
    assert (wall["verdict"], wall["won"]) == (want, won)
    assert wall["parent_median"] == statistics.median(parent)
    # metrics that read the same on both sides change nothing
    for name in ("setup_s", "op_p50_ms", "peak_rss_mb"):
        assert summary["metrics"][name]["verdict"] == "within bound"
        assert summary["metrics"][name]["won"] == 0
    assert summary["failed"] == {"parent": {"failed": 0, "attempted": 1000},
                                 "change": {"failed": 10, "attempted": 1000}}
    assert "change failed/attempted: 10/1000 (1.000%)" in proc.stdout


def test_paired_runs_reads_the_per_pair_change_through_host_drift(tmp_path):
    # the host slows down pair by pair, 1.0 to 1.9, and each pair is a tie:
    # the per-pair relative change reads 0 while the parent's own quartile
    # distance, 0.45, exceeds 25 % of its median, and the verdict still
    # follows its rules alone
    drift = [1.0 + 0.1 * i for i in range(10)]
    write_runs(tmp_path / "parent.jsonl", drift)
    write_runs(tmp_path / "change.jsonl", drift)
    proc = run_script("scripts/paired_runs.py", str(tmp_path / "parent.jsonl"),
                      str(tmp_path / "change.jsonl"))
    assert proc.returncode == 0, proc.stderr
    wall = json.loads(proc.stdout.splitlines()[-1])["metrics"]["wall_s"]
    assert (wall["paired_median"], wall["paired_q1"],
            wall["paired_q3"]) == (0.0, 0.0, 0.0)
    assert (wall["verdict"], wall["won"]) == ("unresolved", 0)
    assert wall["parent_q3"] - wall["parent_q1"] > 0.25 * wall["parent_median"]
    row = next(line for line in proc.stdout.splitlines()
               if line.startswith("wall_s"))
    assert row.split()[7:11] == ["+0.00%", "[+0.00%,", "+0.00%]", "0/10"]


def test_paired_runs_gives_the_quartiles_of_the_per_pair_change(tmp_path):
    # change_i / parent_i - 1 over the pairs is 0 %, 1 %, ..., 9 %
    write_runs(tmp_path / "parent.jsonl", PARENT_WALL)
    write_runs(tmp_path / "change.jsonl",
               [w * (1 + i / 100) for i, w in enumerate(PARENT_WALL)])
    proc = run_script("scripts/paired_runs.py", str(tmp_path / "parent.jsonl"),
                      str(tmp_path / "change.jsonl"))
    assert proc.returncode == 0, proc.stderr
    wall = json.loads(proc.stdout.splitlines()[-1])["metrics"]["wall_s"]
    assert wall["paired_median"] == pytest.approx(0.045)
    assert wall["paired_q1"] == pytest.approx(0.0225)
    assert wall["paired_q3"] == pytest.approx(0.0675)


def test_paired_runs_refuses_unpaired_files(tmp_path):
    write_runs(tmp_path / "parent.jsonl", PARENT_WALL)
    write_runs(tmp_path / "change.jsonl", PARENT_WALL[:9])
    proc = run_script("scripts/paired_runs.py", str(tmp_path / "parent.jsonl"),
                      str(tmp_path / "change.jsonl"))
    assert proc.returncode == 2
    assert "need two or more pairs" in proc.stderr
