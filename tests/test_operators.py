"""The first-order operator, inversion, products, and the PDE classifiers."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (hyperholomorphic_sample, rand_point, rand_quat,
                     real_hyperholomorphic_sample, seeded)
from qres import operators
from qres.catalogue import NAMES, builtin
from qres.errors import IdenticallyZero, NotHyperholomorphic, PoleError
from qres.operators import (_SAMPLE_SEED, _apply_D_batch, _sample_points,
                            apply_D, apply_D_at, check_product_rule, classify,
                            corollary_product_rule_residual,
                            hypermero_residuals, inverse_function,
                            is_hyperholomorphic, is_hypermeromorphic,
                            modulus_function, product,
                            product_compat_residuals,
                            real_product_compat_residuals, scale_real)
from qres.parsing import parse_poly, parse_qfunction, parse_rational
from qres.qcore import CRat, Quat
from qres.symfun import ConjPoly, QFunction


def test_operator_annihilates_the_conjugate_pair():
    assert apply_D(builtin("conj").f).is_zero


def test_operator_annihilates_the_order_three_kernel():
    assert apply_D(builtin("cauchy_kernel").f).is_zero


def test_operator_on_the_mixed_pair_is_constant():
    r = apply_D(builtin("F").f)
    assert not r.is_zero
    expected = parse_rational("-1") * CRat(Fraction(1, 2))
    assert (r.d1 - expected).is_zero
    assert r.d2.is_zero


def test_operator_on_holomorphic_entries_vanishes():
    for expr in ("z1", "z2^3", "z1^2*z2 + 1", "(2-3i)*z1*z2"):
        assert apply_D(builtin("holo", expr=expr).f).is_zero


def test_operator_value_on_anti_pair():
    r = apply_D(builtin("q_conj").f)
    assert (r.d1 - parse_rational("1") * CRat(Fraction(1, 2))).is_zero
    assert r.d2.is_zero


def test_pointwise_operator_matches_symbolic():
    rng = seeded(30)
    F = builtin("F").f
    for _ in range(10):
        q = rand_point(rng)
        v = apply_D_at(F, q)
        assert abs(complex(v.z1) + 0.5) < 1e-8
        assert abs(complex(v.z2)) < 1e-8
    H = builtin("cauchy_kernel").f
    for _ in range(10):
        q = rand_point(rng)
        v = apply_D_at(H, q)
        assert v.norm() < 1e-7


def test_inverse_of_conjugate_pair_matches_closed_form():
    g = inverse_function(builtin("conj").f)
    want = parse_qfunction(
        "(z1) / (z1*c1 + z2*c2) ; (0 - c2) / (z1*c1 + z2*c2)")
    assert (g.f1 - want.f1).is_zero
    assert (g.f2 - want.f2).is_zero


def test_inverse_of_constant_one_is_one():
    one = QFunction.const(Quat(CRat(1), CRat(0)))
    g = inverse_function(one)
    assert (g.f1 - one.f1).is_zero
    assert g.f2.is_zero


def test_inverse_is_a_right_inverse_pointwise():
    rng = seeded(31)
    f = builtin("prop34", (0, 0)).f
    g = inverse_function(f)
    hits = 0
    while hits < 20:
        q = rand_point(rng)
        if f.eval(q).norm() < 0.2:
            continue
        v = (f.eval(q) * g.eval(q))
        assert abs(complex(v.z1) - 1) < 1e-10
        assert abs(complex(v.z2)) < 1e-10
        hits += 1


def test_inverse_of_inverse_returns_the_function():
    f = builtin("conj").f
    h = inverse_function(inverse_function(f))
    assert (h.f1 - f.f1).is_zero
    assert (h.f2 - f.f2).is_zero


def test_inverse_rejects_zero_function():
    with pytest.raises(IdenticallyZero):
        inverse_function(parse_qfunction("0 ; 0"))


def test_modulus_function_is_squared_norm_pointwise():
    rng = seeded(32)
    f = builtin("prop34", (1, 2)).f
    m = modulus_function(f)
    for _ in range(10):
        q = rand_quat(rng, 3)
        v = f.eval(q)
        assert m.eval_exact(q.z1, q.z2) == CRat(v.modulus_sq())


def test_product_closed_form_from_the_conjugate_pairs():
    f = parse_qfunction("z1 ; c2")
    g = parse_qfunction("c1 ; 0 - c2")
    p = product(f, g)
    assert (p.f1 - parse_rational("z1*c1 + z2*c2")).is_zero
    assert p.f2.is_zero


def test_product_of_j_with_itself():
    j = QFunction.const(Quat(CRat(0), CRat(1)))
    p = product(j, j)
    assert (p.f1 - parse_rational("-1")).is_zero
    assert p.f2.is_zero


def test_product_evaluation_homomorphism_exact():
    rng = seeded(33)
    for _ in range(100):
        f = hyperholomorphic_sample(rng)
        g = hyperholomorphic_sample(rng)
        q = rand_quat(rng, 2)
        assert product(f, g).eval(q) == f.eval(q) * g.eval(q)


def test_product_rule_residual_zero_for_hyperholomorphic_pairs():
    rng = seeded(34)
    for _ in range(20):
        f = hyperholomorphic_sample(rng)
        g = hyperholomorphic_sample(rng)
        assert is_hyperholomorphic(f)
        assert is_hyperholomorphic(g)
        assert check_product_rule(f, g).is_zero


def test_product_rule_rejects_non_hyperholomorphic_input():
    with pytest.raises(NotHyperholomorphic):
        check_product_rule(builtin("F").f, builtin("conj").f)


def test_product_rule_not_strict_reports_residual():
    r = check_product_rule(builtin("F").f, builtin("conj").f, strict=False)
    assert r is not None


def test_corollary_for_real_component_pairs():
    rng = seeded(35)
    for _ in range(10):
        f = real_hyperholomorphic_sample(rng)
        g = real_hyperholomorphic_sample(rng)
        assert f.f1.is_real and f.f2.is_real
        assert is_hyperholomorphic(f)
        assert corollary_product_rule_residual(f, g).is_zero


def test_corollary_fails_off_the_real_family():
    # same identity written without the conjugate-aware middle term is false
    # for generic non-real hyperholomorphic pairs
    f = builtin("conj").f
    g = builtin("holo", expr="z1").f
    r1 = corollary_product_rule_residual(f, g)
    r2 = corollary_product_rule_residual(g, f)
    assert not (r1.is_zero and r2.is_zero)


def test_hypermero_residuals_for_affine_family():
    for params in ((0, 0), (1, 2), (-3, 5)):
        e3, e4 = hypermero_residuals(builtin("prop34", params).f)
        assert e3.is_zero and e4.is_zero


def test_hypermero_residuals_for_holomorphic_entry():
    e3, e4 = hypermero_residuals(builtin("holo", expr="z1").f)
    assert e3.is_zero and e4.is_zero


def test_hypermero_residuals_for_conjugate_pair():
    e3, e4 = hypermero_residuals(builtin("conj").f)
    assert e4.is_zero
    want = parse_rational("z1 - c1")
    assert (e3 - want).is_zero
    at = e3.eval_exact(CRat(0, 1), CRat(1))
    assert at == CRat(Fraction(0), Fraction(2))


def test_hypermero_flags():
    assert is_hypermeromorphic(builtin("prop34", (1, 2)).f)
    assert not is_hypermeromorphic(builtin("conj").f)
    assert not is_hypermeromorphic(builtin("cauchy_kernel").f)


def test_residuals_scale_quadratically_under_real_scaling():
    f = builtin("conj").f
    e3, _ = hypermero_residuals(f)
    e3s, _ = hypermero_residuals(scale_real(f, 3))
    assert (e3s - e3 * ConjPoly.const(CRat(9))).is_zero


def test_product_compat_residuals_on_affine_pair():
    f = builtin("prop34", (1, 2)).f
    g = builtin("prop34", (-3, 5)).f
    r1, r2 = product_compat_residuals(f, g)
    assert (r1 - parse_rational("4*z2 + 4*c2 - 2")).is_zero
    assert (r2 - parse_rational("4*z1 + 4*c1 - 10")).is_zero
    # the conditions are sufficient, not necessary: this product is
    # hypermeromorphic even though they fail
    e3, e4 = hypermero_residuals(product(f, g))
    assert e3.is_zero and e4.is_zero


def test_product_compat_strict_requires_hypermeromorphic_input():
    with pytest.raises(Exception):
        product_compat_residuals(builtin("conj").f, builtin("conj").f)


def test_real_specialization_agrees_with_general_conditions():
    rng = seeded(36)
    for _ in range(6):
        f = real_hyperholomorphic_sample(rng)
        g = real_hyperholomorphic_sample(rng)
        gen = product_compat_residuals(f, g, strict=False)
        spec = real_product_compat_residuals(f, g)
        assert (gen[0] - spec[0]).is_zero
        assert (gen[1] - spec[1]).is_zero


def test_real_specialization_value_frozen():
    f = parse_qfunction("z1 + c1 ; z2 + c2")
    g = parse_qfunction("1 ; 0")
    r1, r2 = real_product_compat_residuals(f, g)
    assert (r1 - parse_rational("2")).is_zero
    assert r2.is_zero


def test_real_specialization_rejects_non_real_components():
    with pytest.raises(ValueError):
        real_product_compat_residuals(builtin("conj").f, builtin("conj").f)


def test_scale_real_accepts_floats_with_exact_effect():
    f = builtin("conj").f
    h = scale_real(f, 0.5)
    q = Quat(CRat(2), CRat(4))
    v = h.eval(q)
    assert v == Quat(CRat(1), CRat(2))


def test_classification_of_catalogue_entries():
    c = classify(builtin("conj").f)
    assert c.hyperholomorphic and not c.hypermeromorphic
    c2 = classify(builtin("prop34", (1, 2)).f)
    assert c2.hyperholomorphic and c2.hypermeromorphic
    c3 = classify(builtin("F").f)
    assert not c3.hyperholomorphic


def test_classification_is_scale_invariant():
    for name in ("conj", "F", "q_conj"):
        f = builtin(name).f
        base = classify(f)
        for alpha in (2, -1, 0.5):
            c = classify(scale_real(f, alpha))
            assert c.hyperholomorphic == base.hyperholomorphic
            assert c.hypermeromorphic == base.hypermeromorphic


def test_classification_closure_report():
    f = builtin("prop34", (1, 2)).f
    g = builtin("prop34", (-3, 5)).f
    c = classify(f, partners=(g,))
    assert c.closure == ({"sum_hypermeromorphic": True,
                          "product_hypermeromorphic": True},)


def test_classification_residuals_exposed():
    c = classify(builtin("conj").f)
    assert (c.eq3_residual - parse_rational("z1 - c1")).is_zero
    assert c.eq4_residual.is_zero


# -- the numeric D(1/f) cross-check of classify ----------------------------

CROSS_CHECK_INPUTS = {name: builtin(name).f for name in NAMES}
CROSS_CHECK_INPUTS["prop34(1,2)"] = builtin("prop34", (1, 2)).f
CROSS_CHECK_INPUTS["prop34(1/8,-1/8)"] = builtin(
    "prop34", (Fraction(1, 8), Fraction(-1, 8))).f


def _sequential_sample_points(f, count, rng):
    """The one-attempt-at-a-time screen: window, QFunction.eval, |f| finite
    and >= 0.3."""
    pts = []
    attempts = 0
    while len(pts) < count and attempts < 200 * count:
        attempts += 1
        q = Quat(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                 complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        if not 0.25 <= q.norm() <= 2.0:
            continue
        try:
            val = f.eval(q)
        except PoleError:
            continue
        if not (math.isfinite(val.norm()) and val.norm() >= 0.3):
            continue
        pts.append(q)
    return pts


def _pointwise_D(g, q, h=1e-4):
    """D of g at q by the one-point stencil: each of the 17 stencil points
    evaluated on its own, Richardson-combined at h and h/2."""
    z1, z2 = q.z1, q.z2

    def v(a, b):
        w1, w2 = g.eval_numeric(np.array([a]), np.array([b]))
        return np.array([w1[0], w2[0]])

    def partials(s):
        dx1 = (v(z1 + s, z2) - v(z1 - s, z2)) / (2 * s)
        dy1 = (v(z1 + 1j * s, z2) - v(z1 - 1j * s, z2)) / (2 * s)
        dx2 = (v(z1, z2 + s) - v(z1, z2 - s)) / (2 * s)
        dy2 = (v(z1, z2 + 1j * s) - v(z1, z2 - 1j * s)) / (2 * s)
        return {"z1b": (dx1 + 1j * dy1) / 2, "z2b": (dx2 + 1j * dy2) / 2}

    coarse, fine = partials(h), partials(h / 2)
    d = {k: (4 * fine[k] - coarse[k]) / 3 for k in coarse}
    return (0.5 * (d["z1b"][0] - d["z2b"][1].conjugate()),
            0.5 * (d["z2b"][0] + d["z1b"][1].conjugate()))


@pytest.mark.parametrize("name", CROSS_CHECK_INPUTS)
def test_batched_cross_check_matches_pointwise_path(name):
    f = CROSS_CHECK_INPUTS[name]
    pts = _sample_points(f, 8, random.Random(_SAMPLE_SEED))
    assert pts.shape == (8, 2) and pts.dtype == complex
    sequential = _sequential_sample_points(f, 8, random.Random(_SAMPLE_SEED))
    assert len(sequential) == 8
    for (a, b), q in zip(pts, sequential):
        assert (a, b) == (q.z1, q.z2)
    g = inverse_function(f)
    d1, d2 = _apply_D_batch(g, pts)
    for i, q in enumerate(sequential):
        want1, want2 = _pointwise_D(g, q)
        assert abs(d1[i] - want1) <= 1e-12
        assert abs(d2[i] - want2) <= 1e-12
        assert apply_D_at(g, q) == Quat(complex(d1[i]), complex(d2[i]))


def test_classify_evaluates_polynomials_a_bounded_number_of_times(monkeypatch):
    # one block screen and one stencil evaluation each touch the four
    # polynomials of f or 1/f once; a per-point loop would make hundreds
    calls = [0]
    original = ConjPoly.eval_numeric

    def counted(self, Z1, Z2):
        calls[0] += 1
        return original(self, Z1, Z2)

    monkeypatch.setattr(ConjPoly, "eval_numeric", counted)
    for name in NAMES:
        calls[0] = 0
        classify(builtin(name).f)
        assert calls[0] <= 12, (name, calls[0])


@pytest.mark.parametrize("spec", ["z1^100000 ; 0", "z1^2000 ; c2^3"])
def test_cross_check_refuses_samples_where_f_overflows(spec):
    # |f| overflows on part of the window; such samples are refused like
    # poles, and the rest are those of the sequential screen
    f = parse_qfunction(spec)
    pts = _sample_points(f, 8, random.Random(_SAMPLE_SEED))
    with np.errstate(all="ignore"):
        sequential = _sequential_sample_points(
            f, 8, random.Random(_SAMPLE_SEED))
        norms = [f.eval(Quat(complex(a), complex(b))).norm() for a, b in pts]
    assert 1 <= len(pts) == len(sequential)
    for (a, b), q in zip(pts, sequential):
        assert (a, b) == (q.z1, q.z2)
    assert all(math.isfinite(n) and n >= 0.3 for n in norms)


def test_a_non_finite_cross_check_is_stated_in_words(monkeypatch):
    def undefined(g, points):
        nan = np.full(len(points), complex("nan+nanj"))
        return nan, nan

    monkeypatch.setattr(operators, "_apply_D_batch", undefined)
    notes = classify(builtin("conj").f).notes
    assert notes == ("numeric D(1/f) check is inconclusive: D(1/f) "
                     "overflows or is undefined at some of 8 samples",)
    assert not any("nan" in n or "inf" in n for n in notes)


def test_classify_multiplies_no_two_unit_denominators(monkeypatch):
    # a polynomial ConjRational keeps its denominator 1 without the
    # product 1*1 and the checks that follow it
    rng = seeded(14)
    pairs = [(hyperholomorphic_sample(rng), hyperholomorphic_sample(rng))
             for _ in range(10)]
    one = ConjPoly.one()
    both_one = []
    original = ConjPoly.__mul__

    def spy(self, other):
        if self == one and other == one:
            both_one.append((self, other))
        return original(self, other)

    monkeypatch.setattr(ConjPoly, "__mul__", spy)
    monkeypatch.setattr(ConjPoly, "__rmul__", spy)
    for f, g in pairs:
        assert check_product_rule(f, g).is_zero
    for name in ("conj", "F", "prop34", "holo", "q_conj"):
        classify(builtin(name).f)
    assert both_one == []
