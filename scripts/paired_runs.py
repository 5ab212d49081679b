#!/usr/bin/env python3
"""Summary of a paired benchmark run: the parent commit against a change.

    python scripts/paired_runs.py PARENT.jsonl CHANGE.jsonl

Each file holds one ``perfbench/run.py`` result per line (the JSON object
that ends its stdout), as the loop in README "Tests" writes them; line i
of each file is pair i.  For each end-to-end metric of BENCHMARK.json the
script prints each side's median, the parent's quartiles
(``statistics.quantiles(..., n=4, method="inclusive")``), the relative
change of the medians, the pairs the change won (ties count for neither
side) and a verdict, the first of these that holds:

  gain          the change won at least 9/10 of the pairs, and its median
                is better than the parent's by more than the parent's
                quartile distance
  worse         the change's median is worse than the parent's by more
                than the metric's bound (a fraction of the parent's median)
  unresolved    the parent's quartile distance exceeds the bound, and not
                every change run beats every parent run
  within bound  any other case

Beside the verdict it prints the median and the inclusive quartiles of the
per-pair relative change, change_i / parent_i - 1, which a host that
drifts between pairs moves less than it moves either side's median; they
are a readout only and enter no verdict.  Then it prints each side's
failed/attempted share of operations, and last one JSON line holding all
of it.  Malformed input exits 2.
"""
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def read_runs(path):
    """The results in path, one per non-blank line."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def compare(parent, change, better, bound):
    """The summary of one metric's runs on each side, pair by pair: the
    medians, the parent's quartiles, the relative change, the median and
    quartiles of the per-pair relative change, the pairs won and the
    verdict; better is "lower" or "higher"."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    paired = [c / p - 1.0 for p, c in zip(parent, change)]
    paired_q1, _, paired_q3 = statistics.quantiles(paired, n=4,
                                                   method="inclusive")
    # in the sign where lower reads better
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    gain, spread = sign * (p_med - c_med), q3 - q1
    if 10 * won >= 9 * len(parent) and gain > spread:
        word = "gain"
    elif -gain > bound * abs(p_med):
        word = "worse"
    elif spread > bound * abs(p_med) and not (
            max(sign * v for v in change) < min(sign * v for v in parent)):
        word = "unresolved"
    else:
        word = "within bound"
    return {"parent_median": p_med, "parent_q1": q1, "parent_q3": q3,
            "change_median": c_med, "relative_change": (c_med - p_med) / p_med,
            "paired_median": statistics.median(paired),
            "paired_q1": paired_q1, "paired_q3": paired_q3,
            "won": won, "verdict": word}


def summarize(parent_runs, change_runs, metrics):
    """The summary of paired runs against the end-to-end metrics of
    BENCHMARK.json, as a JSON-ready dict."""
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError(f"need two or more pairs, got {len(parent_runs)} "
                         f"parent and {len(change_runs)} change runs")
    out = {"pairs": len(parent_runs), "metrics": {}, "failed": {}}
    for m in metrics:
        name = m["name"]
        out["metrics"][name] = {"unit": m["unit"], **compare(
            [r["metrics"][name]["value"] for r in parent_runs],
            [r["metrics"][name]["value"] for r in change_runs],
            m["better"], m["bound"])}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        out["failed"][side] = {"failed": sum(r["failed"] for r in runs),
                               "attempted": sum(r["attempted"] for r in runs)}
    return out


def report(summary) -> str:
    """The summary as a table, the failure shares and the JSON line."""
    n = summary["pairs"]
    lines = [f"{'metric':<12} {'unit':<5} {'parent median':>14} "
             f"{'parent q1':>12} {'parent q3':>12} {'change median':>14} "
             f"{'change':>9} {'paired':>9} {'paired q1, q3':>20} {'won':>6}  "
             "verdict"]
    for name, s in summary["metrics"].items():
        quartiles = f"[{s['paired_q1']:+.2%}, {s['paired_q3']:+.2%}]"
        lines.append(
            f"{name:<12} {s['unit']:<5} {s['parent_median']:>14.6g} "
            f"{s['parent_q1']:>12.6g} {s['parent_q3']:>12.6g} "
            f"{s['change_median']:>14.6g} {s['relative_change']:>+9.2%} "
            f"{s['paired_median']:>+9.2%} {quartiles:>20} "
            f"{s['won']:>3}/{n:<2}  {s['verdict']}")
    for side, f in summary["failed"].items():
        share = f["failed"] / f["attempted"] if f["attempted"] else 0.0
        lines.append(f"{side} failed/attempted: {f['failed']}/"
                     f"{f['attempted']} ({share:.3%})")
    lines.append(json.dumps(summary, sort_keys=True))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    try:
        summary = summarize(*map(read_runs, argv), metrics)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"paired_runs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(report(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
