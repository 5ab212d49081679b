#!/usr/bin/env python3
"""qres benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload pv --seed 1 --seconds 55 --trace 0

Run from the root of a qres checkout; the package is imported from its
``src`` directory.  Workloads: pv, exact (perfbench/METRICS.md says why
each exists, and why the residue and cli workloads were dropped).  With
``--trace 0`` the run reports the end-to-end metrics with tracing off; with
``--trace 1`` it runs half the time untraced and half traced and reports
the per-layer metrics.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it
describe the run.  Spans and results are also written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("pv", "exact")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# pinned so numpy starts no worker threads in this process or its children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # one set-up, timed, in this process
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def make_workload(name: str, seed: int):
    # imported here, not at the top, so set-up time includes these imports
    from perfbench.workloads import WORKLOADS as IN_PROCESS
    return IN_PROCESS[name](seed)


def probe_setup(name: str, seed: int) -> float:
    """Import the workload's layers, build its inputs, run one warm-up op."""
    t0 = time.perf_counter()
    workload = make_workload(name, seed)
    workload.warmup()
    return time.perf_counter() - t0


def measure_setup(name: str, seed: int) -> list:
    """Set-up times of fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ------------------------------------------------------------ run facts

def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """sha256 of the package sources, for checkouts that are not git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qres").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_facts(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(),
        "source_sha256": _source_digest(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "click": _version("click"),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    }


# ------------------------------------------------------------- reporting

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_times) -> dict:
    from perfbench.stats import median
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = passes.best()
    values = {
        "setup_s": median(setup_times),
        "wall_s": sum(best),
        "op_p50_ms": 1e3 * median(best),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}


def describe_latency(passes) -> str:
    from perfbench.stats import quantile, tail_percentile
    best = passes.best()
    n = len(best)
    tail = tail_percentile(n)
    rule = ("no percentile has ten samples beyond it" if tail is None else
            f"p{100 * tail:g} = {1e3 * quantile(best, tail):.3f} ms")
    return (f"{n} ops, each the best of {len(passes.walls)} passes; "
            f"op_p50_ms rests on {n // 2} samples beyond it; "
            f"highest rule percentile: {rule}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qres" / "__init__.py").is_file():
        print(f"perfbench: no qres package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[0:1] = [str(SRC), str(ROOT)]

    if args.setup_probe:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0

    if not args.trace:
        setup_times = measure_setup(args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    qres = sys.modules.get("qres")
    if qres is not None and Path(qres.__file__).resolve().parent != SRC / "qres":
        print(f"perfbench: qres imported from {qres.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload.warmup()
    workload.oracles()
    from perfbench.ops import Tally, run_passes
    tally = Tally()
    if args.trace:
        from perfbench.tracerun import traced_run
        metrics, spans_path = traced_run(args, workload, tally, OUT_DIR)
        extra = {"spans": str(spans_path.relative_to(ROOT))}
    else:
        from perfbench.spans import require_untraced
        require_untraced()
        passes = run_passes(workload, args.seconds, tally)
        metrics = end_to_end(passes, setup_times)
        extra = {"setup_times_s": setup_times,
                 "latency": describe_latency(passes),
                 "op_best_ms": {k: round(1e3 * min(v), 3)
                                for k, v in passes.by_op.items()}}

    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed_total,
        "metrics": metrics,
    }
    facts = run_facts(args)
    report = {"facts": facts, "result": result, "checks": {
        "fail_ratio": tally.failed_total / tally.attempted,
        "max_err_over_tol": tally.max_err_over_tol,
        "failed_ops": dict(tally.failed),
        "first_error": tally.first_error,
    }, **extra}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print("perfbench facts " + json.dumps(facts, sort_keys=True))
    print("perfbench checks " + json.dumps(report["checks"], sort_keys=True))
    for key, value in extra.items():
        print(f"perfbench {key} {value}")
    for name, m in metrics.items():
        print(f"perfbench metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
