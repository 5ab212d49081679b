"""Tests of the benchmark's own logic: order statistics, self times, seeded
inputs, oracles and tracer hygiene.  Run with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, run, seeds, spans, stats, tracerun
from perfbench.ops import Op, Passes, Tally, run_passes
from perfbench.workloads import Exact, PrincipalValue

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------ statistics

@pytest.mark.parametrize("n, want", [
    (0, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9), (999, 0.9),
    (1000, 0.99), (9999, 0.99), (10000, 0.999)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert stats.tail_percentile(n) == want


def test_quantile_is_nearest_rank():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]
    assert stats.quantile(xs, 0.0) == 1.0
    assert stats.quantile(xs, 0.5) == 5.0
    assert stats.quantile(xs, 0.9) == 9.0
    assert stats.quantile(xs, 0.91) == 10.0
    assert stats.quantile(xs, 1.0) == 10.0
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0]) == 1.0


@pytest.mark.parametrize("n", [1, 3, 7, 10])
def test_quantile_does_not_move_with_the_number_of_passes(n):
    rng = np.random.default_rng(n)
    one_pass = list(rng.exponential(size=n))
    for q in (0.1, 0.5, 0.9, 0.99):
        want = stats.quantile(one_pass, q)
        for k in (2, 3, 5):
            assert stats.quantile(one_pass * k, q) == want


# ------------------------------------------------------------ self times

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] with children [1, 4] and [5, 7]; [2, 3] nests in the first
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    own = spans.self_times(parent, start, end)
    assert list(own) == [5.0, 2.0, 1.0, 2.0]
    assert own.sum() == 10.0


def test_traced_calls_nest_and_cover_the_root():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: sum(range(1000)), "symfun.leaf")
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "operators.mid")
    sid = tracer.open("harness.op")
    mid()
    leaf()
    tracer.close(sid)
    parent = list(tracer.parent)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["harness.op", "operators.mid", "symfun.leaf",
                     "symfun.leaf", "symfun.leaf", "symfun.leaf"]
    assert parent == [-1, 0, 1, 1, 1, 0]
    own = spans.self_times(tracer.parent, tracer.start, tracer.end)
    assert own.sum() == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-12)
    assert (own >= 0).all()


def test_span_tree_check_catches_broken_trees():
    parent, start, end = [-1, 0, 0], [0.0, 1.0, 5.0], [10.0, 4.0, 7.0]
    own = spans.self_times(parent, start, end)
    spans.check_span_tree(parent, start, end, own)
    broken = {
        "never closed": ([-1, 0], [0.0, 1.0], [10.0, 0.0]),
        "outside": ([-1, 0], [0.0, 1.0], [10.0, 11.0]),
        "overlap": ([-1, 0, 0], [0.0, 1.0, 2.0], [10.0, 8.0, 9.0]),
    }
    for why, (parent, start, end) in broken.items():
        with pytest.raises(RuntimeError):
            spans.check_span_tree(parent, start, end,
                                  spans.self_times(parent, start, end))


def test_layer_and_category_names():
    assert spans.layer_of("currents.chart.det4") == "currents.chart"
    assert spans.layer_of("cli.main") == "cli"
    assert spans.layer_of("harness.op") == "harness"
    assert spans.category("symfun.ConjPoly.eval_numeric") == "symfun.eval_s"
    assert spans.category("symfun.ConjRational.__mul__") == "symfun.arith_s"
    assert spans.category("currents.chart.pullback_3forms") == "currents.chart.det_s"
    assert spans.category("operators.classify") is None


# ----------------------------------------------------------- pass runner

class _Ops:
    name = "fake"

    def ops(self):
        return [Op(f"sleep.{i}", lambda: time.sleep(0.01),
                   lambda r, rs, i=i: (i != 2, None)) for i in range(3)]


def test_passes_time_every_op_and_check_each_pass():
    tally = Tally()
    passes = run_passes(_Ops(), 0.05, tally)
    n = len(passes.walls)
    assert n >= 1 and tally.attempted == 3 * n
    assert list(passes.by_op) == ["sleep.0", "sleep.1", "sleep.2"]
    assert all(len(v) == n for v in passes.by_op.values())
    assert passes.walls[0] == pytest.approx(sum(v[0] for v in passes.by_op.values()))
    assert min(passes.best()) >= 0.01
    assert tally.failed == {"sleep.2": n}
    assert passes.pending == []


def test_best_takes_each_ops_fastest_repeat():
    passes = Passes(by_op={"a": [3.0, 1.0, 2.0], "b": [5.0, 6.0, 4.0]})
    assert passes.best() == [1.0, 4.0]


# ------------------------------------------------------- tracer hygiene

def test_install_patches_lookups_and_restore_removes_every_wrapper():
    from qres.currents import chart, pairings
    original = chart.sphere_to_complex
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pairings.sphere_to_complex is not original
        assert pairings.sphere_to_complex is chart.sphere_to_complex
        pairings.sphere_to_complex(np.ones(7), np.ones(7), np.zeros(7), np.zeros(7))
    finally:
        tracer.restore()
    assert pairings.sphere_to_complex is original
    assert spans.find_wrappers() == []
    assert tracer.counts["currents.chart.map_nodes"] == 7
    assert tracer.names == ["currents.chart.sphere_to_complex"]


# --------------------------------------------------------- seeded inputs

def _fingerprint(seed):
    pv, ex = PrincipalValue(seed), Exact(seed)
    return ((pv.s, pv.t, tuple(pv.order)),
            [op.key for op in ex.ops()], [str(f) for f in ex._inverse_inputs.values()])


def test_one_seed_gives_identical_inputs():
    assert _fingerprint(7) == _fingerprint(7)
    assert _fingerprint(7) != _fingerprint(8)


def test_exact_mix_follows_its_sources():
    mixes = []
    for seed in (1, 2):
        keys = [op.key for op in Exact(seed).ops()]
        families = [".".join(k.split(".")[:2]) for k in keys]
        assert len(set(keys)) == len(keys)
        for family, count in Exact.CRITERIA.items():
            assert families.count(family) == count
        for key in Exact.README + Exact.ROADMAP:
            assert keys.count(key) == 1
        assert len(keys) == (sum(Exact.CRITERIA.values()) + len(Exact.README)
                             + len(Exact.ROADMAP))
        mixes.append(sorted(keys))
    assert mixes[0] == mixes[1]


def test_literal_text_parses_to_the_polynomial_built_beside_it():
    from qres.parsing import parse_qfunction
    rng = seeds.rng_for("test", 1)
    for _ in range(50):
        text, want = inputs.literal_qfunction(rng)
        got = parse_qfunction(text)
        assert got.f1 == want.f1 and got.f2 == want.f2, text


# -------------------------------------------------------------- oracles

@pytest.mark.parametrize("power", [0, 1, 3])
def test_radial_moment_against_closed_forms(power):
    assert inputs.radial_moment(power, profile=np.ones_like) == \
        pytest.approx(1.0 / (power + 1), rel=1e-9)
    assert inputs.radial_moment(power, profile=lambda r: 1.0 - r * r) == \
        pytest.approx(1.0 / (power + 1) - 1.0 / (power + 3), rel=1e-9)


def test_bump_profile():
    assert inputs.bump(np.array([0.0]))[0] == 1.0
    assert list(inputs.bump(np.array([-1.0, 1.0, 2.0]))) == [0.0, 0.0, 0.0]
    assert inputs.bump(np.array([0.5]))[0] == pytest.approx(math.exp(1 - 1 / 0.75))


def test_ball_oracle_scales_the_radial_moment():
    eight_pi_sq = 8 * math.pi ** 2
    assert inputs.ball_moment() == pytest.approx(-eight_pi_sq * inputs.radial_moment(3))


def test_hamilton_product():
    i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    assert seeds.hamilton_product(i, j) == k
    assert seeds.hamilton_product(j, i) == (0, 0, 0, -1)
    q = tuple(Fraction(x) for x in (1, -2, 3, Fraction(1, 2)))
    n = sum(x * x for x in q)
    q_inv = (q[0] / n, -q[1] / n, -q[2] / n, -q[3] / n)
    assert seeds.hamilton_product(q, q_inv) == (1, 0, 0, 0)


# ----------------------------------------------------- benchmark contract

def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracerun.PER_LAYER
