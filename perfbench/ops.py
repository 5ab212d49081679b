"""Closed-loop pass runner and the correctness tally.

A pass runs every op of a workload once, each starting when the previous
one returns.  Passes repeat until the next one would end past the time
budget (at least one always runs).  Checks run outside every timed
region: after each pass, or, in a traced run, after the tracer is removed,
so they add neither time nor spans.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .stats import median

Check = Callable[[object, Dict[str, object]], Tuple[bool, Optional[float]]]

@dataclass
class Op:
    """One call into qres; ``check(result, results_of_the_pass)`` returns
    (ok, error / tolerance or None)."""

    key: str
    run: Callable[[], object]
    check: Check


@dataclass
class Raised:
    """Stands in for the result of an op that raised."""

    exc: BaseException


@dataclass
class Passes:
    """Per-pass wall times and each op's latencies across the passes, plus
    results kept for later checking in a traced run."""

    walls: List[float] = field(default_factory=list)
    by_op: Dict[str, List[float]] = field(default_factory=dict)
    pending: List[Tuple[List[Op], Dict[str, object]]] = field(default_factory=list)

    def best(self) -> List[float]:
        """Each op's fastest latency in the run, in first-run order.  The
        host's speed drifts by up to 1.7x over seconds; the best of a run's
        repeats of one op reads the op at the host's undisturbed speed
        whenever any repeat met it."""
        return [min(v) for v in self.by_op.values()]


def run_passes(workload, budget: float, tally: "Tally", tracer=None) -> Passes:
    """Run whole passes for about ``budget`` seconds.  A pass's wall time is
    the sum of its op latencies, so the harness between ops is excluded.
    Untraced passes are checked as they end and their results dropped, so
    memory does not grow with the number of passes."""
    out = Passes()
    start = time.perf_counter()
    while True:
        ops = workload.ops()
        results: Dict[str, object] = {}
        raw: List[float] = []
        for op in ops:
            sid = tracer.open("harness.op") if tracer else None
            t0 = time.perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # an op that raises fails; the run goes on
                res = Raised(exc)
            raw.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(sid)
            results[op.key] = res
        out.walls.append(sum(raw))
        for op, dt in zip(ops, raw):
            out.by_op.setdefault(op.key, []).append(dt)
        if tracer:
            out.pending.append((ops, results))
        else:
            tally.add(ops, results)
        if time.perf_counter() - start + median(out.walls) > budget:
            return out


@dataclass
class Tally:
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    max_err_over_tol: float = 0.0
    first_error: Dict[str, str] = field(default_factory=dict)

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())

    def add(self, ops: List[Op], results: Dict[str, object]) -> None:
        """Check one pass."""
        for op in ops:
            res = results[op.key]
            self.attempted += 1
            if isinstance(res, Raised):
                ok, err = False, None
                self.first_error.setdefault(op.key, repr(res.exc))
            else:
                try:
                    ok, err = op.check(res, results)
                except Exception as exc:  # unreadable output fails the op
                    ok, err = False, None
                    self.first_error.setdefault(op.key, f"check: {exc!r}")
            if err is not None:
                self.max_err_over_tol = max(self.max_err_over_tol, err)
            if not ok:
                self.failed[op.key] += 1
