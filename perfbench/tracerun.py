"""The traced run: per-layer metrics from module spans.

Half the time budget runs untraced, half with the tracer installed; the
difference of the two halves' ``wall_s`` (the sum of each op's best
latency) is the tracing overhead.  Per-layer numbers are totals over the
traced passes divided by their count, so they read per pass, like
``wall_s``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .ops import Passes, Tally, run_passes
from .spans import (LEVEL_SOLVE, Tracer, category, check_span_tree,
                    layer_of, require_untraced, self_times)

# per-layer metric -> unit; a run reports every one, zero where a layer
# does no work on that workload
PER_LAYER = {
    "currents.pairings.level_solve_s": "s",
    "currents.pairings.level_rays": "count",
    "currents.pairings.level_evals": "count",
    "currents.pairings.level_active_ratio": "ratio",
    "currents.pairings.self_s": "s",
    "currents.pairings.volume_nodes": "count",
    "currents.chart.self_s": "s",
    "currents.chart.map_s": "s",
    "currents.chart.map_nodes": "count",
    "currents.chart.jacobian_s": "s",
    "currents.chart.det_s": "s",
    "symfun.self_s": "s",
    "symfun.eval_s": "s",
    "symfun.eval_term_nodes": "count",
    "symfun.wirtinger_s": "s",
    "symfun.arith_s": "s",
    "symfun.jet_s": "s",
    "qcore.to_complex": "count",
    "qcore.crat_ops": "count",
    "operators.self_s": "s",
    "operators.classify_calls": "count",
    "parsing.self_s": "s",
    "parsing.calls": "count",
    "catalogue.self_s": "s",
    "currents.forms.self_s": "s",
    "currents.quadrature.self_s": "s",
    "currents.estimate.self_s": "s",
    "currents.oned.self_s": "s",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "checks.max_err_over_tol": "ratio",
    "checks.fail_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, traced: Passes) -> dict:
    """Per-pass self times by layer and sub-stage, and boundary counts."""
    n_pass = len(traced.walls)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    start = np.frombuffer(tracer.start)
    end = np.frombuffer(tracer.end)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    k = len(tracer.names)
    own = self_times(parent, start, end)
    own_by = np.bincount(name_id, weights=own, minlength=k)
    dur_by = np.bincount(name_id, weights=end - start, minlength=k)
    calls_by = np.bincount(name_id, minlength=k)

    m = dict.fromkeys(PER_LAYER, 0.0)
    for i, name in enumerate(tracer.names):
        layer = layer_of(name)
        m[f"{layer}.self_s"] += own_by[i]
        sub = category(name)
        if sub:
            m[sub] += own_by[i]
        if name == LEVEL_SOLVE:
            # inclusive: the solve's own work plus the chart maps and
            # evaluations it drives
            m["currents.pairings.level_solve_s"] = dur_by[i]
        elif name == "operators.classify":
            m["operators.classify_calls"] = calls_by[i]
        if layer == "parsing":
            m["parsing.calls"] += calls_by[i]
    for key, value in tracer.counts.items():
        if key in m:
            m[key] = value
    rays = tracer.counts["currents.pairings.level_rays"]
    m["currents.pairings.level_active_ratio"] = (
        tracer.counts["currents.pairings.level_active"] / rays if rays else 0.0)

    check_span_tree(parent, start, end, own)
    m["trace.spans"] = len(start)
    out = {}
    for key, v in m.items():
        out[key] = v if key == "currents.pairings.level_active_ratio" else v / n_pass
    return out


def traced_run(args, workload, tally: Tally, out_dir: Path):
    half = args.seconds / 2.0
    require_untraced()
    plain = run_passes(workload, half, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, half, tally, tracer)
    finally:
        tracer.restore()
    require_untraced()
    for ops, results in traced.pending:
        tally.add(ops, results)

    values = layer_metrics(tracer, traced)
    values["trace.overhead_s"] = sum(traced.best()) - sum(plain.best())
    values["checks.max_err_over_tol"] = tally.max_err_over_tol
    values["checks.fail_ratio"] = tally.failed_total / tally.attempted

    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.npz"
    tracer.save(spans_path)
    metrics = {k: {"value": float(values[k]), "unit": PER_LAYER[k]}
               for k in PER_LAYER}
    return metrics, spans_path
