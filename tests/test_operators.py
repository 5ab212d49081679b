"""The first-order operator, inversion, products, and the PDE classifiers."""
import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (hyperholomorphic_sample, rand_point, rand_poly,
                     rand_quat, real_hyperholomorphic_sample, ref_jet_passes,
                     seeded)
from qres import operators
from qres.catalogue import NAMES, builtin
from qres.currents.estimate import finalize
from qres.errors import (DomainError, IdenticallyZero, NotHyperholomorphic,
                         PoleError)
from qres.operators import (_SAMPLE_SEED, _inverse_bar_partials,
                            _inverse_values, _norms, _pass_gap,
                            _richardson_D, _sample_points, _worst_ratio,
                            apply_D, apply_D_at,
                            check_product_rule, classify,
                            corollary_product_rule_residual,
                            hypermero_residuals, inverse_function,
                            is_hyperholomorphic, is_hypermeromorphic,
                            modulus_function, product_compat_residuals,
                            real_product_compat_residuals, scale_real)
from qres.parsing import parse_poly, parse_qfunction, parse_rational
from qres.qcore import CRat, Quat
from qres.symfun import (ConjPoly, ConjRational, QFunction, _bar_passes,
                         _jet_stencil, vanishing_order_pair)


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
    p = f * g
    assert (p.f1 - parse_rational("z1*c1 + z2*c2")).is_zero
    assert p.f2.is_zero


def test_product_of_j_with_itself():
    j = QFunction.const(Quat(CRat(0), CRat(1)))
    p = j * j
    assert (p.f1 - parse_rational("-1")).is_zero
    assert p.f2.is_zero


def test_product_evaluation_homomorphism_exact():
    rng = seeded(33)
    for _ in range(100):
        f = hyperholomorphic_sample(rng)
        g = hyperholomorphic_sample(rng)
        q = rand_quat(rng, 2)
        assert (f * g).eval(q) == f.eval(q) * g.eval(q)


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


def same_parts(r, s):
    """The same numerator and denominator terms in the same key order, which
    sets the float summation order of every evaluation."""
    return all(list(a.terms.items()) == list(b.terms.items())
               for a, b in ((r.num, s.num), (r.den, s.den)))


def test_strict_product_rule_forms_no_product_with_a_zero_df(monkeypatch):
    rng = seeded(36)
    pairs = [(hyperholomorphic_sample(rng), hyperholomorphic_sample(rng))
             for _ in range(10)]
    zero_factor = []
    mul = QFunction.__mul__

    def spy(self, other):
        if self.is_zero or other.is_zero:
            zero_factor.append((str(self), str(other)))
        return mul(self, other)

    monkeypatch.setattr(QFunction, "__mul__", spy)
    for f, g in pairs:
        assert check_product_rule(f, g).is_zero
    assert zero_factor == []


@pytest.mark.parametrize("f_name, g_name", [("F", "conj"), ("F", "prop34"),
                                            ("q_conj", "cauchy_kernel")])
def test_soft_product_rule_keeps_the_df_term(f_name, g_name):
    # D(f*g) - (Df*(j*g) + remainder), written out term by term
    f, g = builtin(f_name).f, builtin(g_name).f
    df = apply_D(f)
    assert not df.is_zero
    res = (operators._dhat(f * g)
           - (df.as_qfunction() * operators._j_times(g)
              + operators._leibniz_remainder(f, g)))
    got = check_product_rule(f, g, strict=False)
    assert same_parts(got.d1, res.f1)
    assert same_parts(got.d2, res.f2.conjugate())
    assert not got.is_zero


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
    e3, e4 = hypermero_residuals(f * g)
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


@pytest.mark.parametrize("name", NAMES)
def test_scale_real_multiplies_each_numerator_by_the_constant(name):
    # a * f is f1 * a + (f2 * a) j for real a: each numerator times the
    # constant polynomial, in its key order, over the same denominator
    f = builtin(name).f
    q = Quat(CRat(Fraction(1, 2), 1), CRat(-1, Fraction(1, 3)))
    for alpha in (3, -1, Fraction(-1, 2), Fraction(7, 5), 0.5):
        a = Fraction(alpha)
        h = scale_real(f, alpha)
        for got, r in ((h.f1, f.f1), (h.f2, f.f2)):
            want = r.num * ConjPoly.const(a)
            assert (got.num._num, got.num._den) == (want._num, want._den)
            assert list(got.num._num) == list(want._num)
            assert (got.den._num, got.den._den) == (r.den._num, r.den._den)
            assert str(got) == str(ConjRational._from_parts(want, r.den))
        assert h.eval(q) == f.eval(q) * Quat(CRat(a), CRat(0))


# (call, exception, message) of each library refusal
REFUSALS = {
    "const-float": (lambda: QFunction.const(Quat(1.0, 0.0)), TypeError,
                    "constant functions need exact components"),
    "product-rule-second": (
        lambda: check_product_rule(builtin("conj").f, builtin("F").f),
        NotHyperholomorphic, "second factor is not hyperholomorphic"),
    "scale-complex": (lambda: scale_real(builtin("conj").f, 1j), TypeError,
                      "scale factor must be real"),
    "prop34-str": (lambda: builtin("prop34", ("a", 1)), TypeError,
                   "parameters must be real numbers"),
    "order-float-point": (
        lambda: vanishing_order_pair(builtin("conj").f, Quat(1.0, 0.0)),
        TypeError, "vanishing order needs an exact point"),
    "divide-by-complex": (
        lambda: parse_rational("z1").divide_by_real(parse_rational("z1")),
        DomainError, "can only divide by a real-valued function"),
    "divide-by-zero": (
        lambda: parse_rational("z1").divide_by_real(ConjRational.zero()),
        ZeroDivisionError, "division by the zero function"),
    "float-coefficient": (lambda: ConjPoly({(1, 0, 0, 0): 0.5}), TypeError,
                          "expected an exact coefficient, got float"),
    "inverse-of-zero": (lambda: Quat(0j, 0j).inv(), ZeroDivisionError,
                        "zero quaternion has no inverse"),
    "str-component": (lambda: Quat("x", 0), TypeError,
                      "cannot use str as a quaternion component"),
}

# (call, value) of each fallback
FALLBACKS = {
    "prop34-floats": (lambda: builtin("prop34", (0.5, 0.25)).zero_set,
                      "the real 2-plane x1 = -1/16, x2 = -3/16"),
    "order-of-zero": (lambda: ConjPoly.zero().min_total_degree(), math.inf),
    "float-inverse": (lambda: str(Quat(1j, 0j).inv()), "(-1j) + (-0j)j"),
    "mixed-components": (lambda: Quat(1, 0.5), Quat(1 + 0j, 0.5 + 0j)),
    "float-basis": (lambda: Quat.from_basis(0.5, 0, 0, 0), Quat(0.5 + 0j, 0j)),
    "two-rungs": (lambda: finalize((0.2, 0.1), (Quat(1j, 0j), Quat(2j, 0j))
                                   ).extrapolated, Quat(2j, 0j)),
}


@pytest.mark.parametrize("case", [*REFUSALS, *FALLBACKS])
def test_library_refusals_and_fallbacks(case):
    if case in REFUSALS:
        call, exc, message = REFUSALS[case]
        with pytest.raises(exc) as info:
            call()
        assert str(info.value) == message
    else:
        call, want = FALLBACKS[case]
        got = call()
        assert got == want
        # a float value stays on the float path
        assert not getattr(got, "is_exact", False)


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


def _pointwise_D(ev, q, h=1e-4):
    """D at q of the function ev evaluates, by the one-point stencil: each
    of the 17 stencil points evaluated on its own, Richardson-combined at h
    and h/2."""
    z1, z2 = q.z1, q.z2

    def v(a, b):
        w1, w2 = ev(np.array([a]), np.array([b]))
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
    pts, e = _sample_points(f, 8)
    assert pts.shape == (8, 2) and pts.dtype == complex
    sequential = _sequential_sample_points(f, 8, random.Random(_SAMPLE_SEED))
    assert len(sequential) == 8
    for (a, b), q in zip(pts, sequential):
        assert (a, b) == (q.z1, q.z2)
    # 2^-e brings the largest |f| at the samples into [1/2, 1)
    assert e == math.frexp(max(q.norm() for q in
                               map(f.eval, sequential)))[1]
    inv = functools.partial(_inverse_values, f, -e)
    # the batch as classify's cross-check takes it: one stencil evaluation
    # of f, inverted pointwise
    d1, d2 = _richardson_D(_inverse_bar_partials(f, -e, pts)[0])
    for i, q in enumerate(sequential):
        want1, want2 = _pointwise_D(inv, q)
        assert abs(d1[i] - want1) <= 1e-12
        assert abs(d2[i] - want2) <= 1e-12
        assert apply_D_at(inv, q) == Quat(complex(d1[i]), complex(d2[i]))


def test_classify_evaluates_polynomials_a_bounded_number_of_times(monkeypatch):
    # one block screen touches the numerators of f and a denominator they
    # share (a denominator 1 is not evaluated), and one stencil evaluation,
    # inverted pointwise, the same again; a per-point loop would make
    # hundreds.  Every float evaluation of a polynomial, screened or not,
    # runs ConjPoly._eval
    calls = [0]
    original = ConjPoly._eval

    def counted(self, table):
        calls[0] += 1
        return original(self, table)

    monkeypatch.setattr(ConjPoly, "_eval", counted)
    for name in NAMES:
        calls[0] = 0
        classify(builtin(name).f)
        assert 4 <= calls[0] <= 6, (name, calls[0])


@pytest.mark.parametrize("count", [3, 20])
def test_sample_points_at_other_counts_match_the_sequential_screen(count):
    for name, f in CROSS_CHECK_INPUTS.items():
        sequential = _sequential_sample_points(
            f, count, random.Random(_SAMPLE_SEED))
        pts, _ = _sample_points(f, count)
        assert len(pts) == len(sequential) == count, name
        for (a, b), q in zip(pts, sequential):
            assert (a, b) == (q.z1, q.z2)


def test_sample_points_draw_their_candidates_once(monkeypatch):
    # the candidates never depend on f: after the first call no uniform is
    # drawn again, for any f
    f = builtin("conj").f
    first, _ = _sample_points(f, 8)
    drawn = []
    uniform = random.Random.uniform

    def spy(self, a, b):
        drawn.append((a, b))
        return uniform(self, a, b)

    monkeypatch.setattr(random.Random, "uniform", spy)
    assert np.array_equal(_sample_points(f, 8)[0], first)
    for g in CROSS_CHECK_INPUTS.values():
        classify(g)
        _sample_points(g, 8)
    assert drawn == []


@pytest.mark.parametrize("spec", ["z1^100000 ; 0", "z1^2000 ; c2^3"])
def test_cross_check_refuses_samples_where_f_overflows(spec):
    # |f| overflows on part of the window; such samples are refused like
    # poles, and the rest are those of the sequential screen
    f = parse_qfunction(spec)
    pts, _ = _sample_points(f, 8)
    with np.errstate(all="ignore"):
        sequential = _sequential_sample_points(
            f, 8, random.Random(_SAMPLE_SEED))
        norms = [f.eval(Quat(complex(a), complex(b))).norm() for a, b in pts]
    assert 1 <= len(pts) == len(sequential)
    for (a, b), q in zip(pts, sequential):
        assert (a, b) == (q.z1, q.z2)
    assert all(math.isfinite(n) and n >= 0.3 for n in norms)


# classify of every catalogue entry, unscaled and at three real scalings,
# as recorded in classify_golden.json at commit 04b755f, before the
# cross-check kept its candidate samples and shared denominators; the
# flags, residuals and notes must not move by a byte
GOLDEN_SCALES = (1, Fraction(-5, 4), 10 ** 8, Fraction(1, 10 ** 8))
GOLDEN_PATH = Path(__file__).with_name("classify_golden.json")


def classify_golden():
    out = {}
    for name, f in CROSS_CHECK_INPUTS.items():
        for scale in GOLDEN_SCALES:
            c = classify(scale_real(f, scale))
            out[f"{name}*{scale}"] = {
                "hyperholomorphic": c.hyperholomorphic,
                "hypermeromorphic": c.hypermeromorphic,
                "eq3": str(c.eq3_residual), "eq4": str(c.eq4_residual),
                "notes": list(c.notes)}
    return out


def test_classify_matches_its_recorded_output():
    assert classify_golden() == json.loads(GOLDEN_PATH.read_text())


def test_a_non_finite_cross_check_is_stated_in_words(monkeypatch):
    def undefined(f1_z1b, *partials):
        nan = np.full(f1_z1b.shape, complex("nan+nanj"))
        return nan, nan

    monkeypatch.setattr(operators, "_bar_D", undefined)
    notes = classify(builtin("conj").f).notes
    assert notes == ("numeric D(1/f) check is inconclusive: D(1/f) "
                     "overflows or is undefined at some of 8 samples",)
    assert not any("nan" in n or "inf" in n for n in notes)


@pytest.mark.parametrize("name, scale", [
    ("F", 10 ** 8), ("q_conj", 10 ** 8), ("prop34", Fraction(1, 10 ** 8))])
def test_cross_check_does_not_depend_on_the_scale_of_f(name, scale):
    # D(1/f) and 1/f both scale as 1/c under f -> c f; a bound on |D(1/f)|
    # alone noted a disagreement for 1e8 F and 1e8 q_conj
    f = builtin(name).f
    assert classify(scale_real(f, scale)).notes == classify(f).notes == ()


@pytest.mark.parametrize("name", NAMES)
def test_a_small_f_is_screened_as_a_power_of_two_times_f(monkeypatch, name):
    # at 1e-8 no candidate has |f| >= 0.3.  The screen is then that of 2^k f,
    # the largest |f| off the poles brought into [1, 2), and the jet runs on
    # the pointwise inverse of f itself at its points
    small = scale_real(builtin(name).f, Fraction(1, 10 ** 8))
    z = operators._candidates(200 * 8)
    with np.errstate(all="ignore"):
        v1, v2, pole = small.eval_screened(z[:, 0], z[:, 1])
    assert not (_norms(v1, v2)[~pole] >= 0.3).any()
    size = np.hypot(np.abs(v1), np.abs(v2))[~pole]
    k = 1 - math.frexp(size[np.isfinite(size)].max())[1]
    pts, e = _sample_points(small, 8)
    scaled, e_scaled = _sample_points(scale_real(small, Fraction(2) ** k), 8)
    assert len(pts) and np.array_equal(pts, scaled) and e == e_scaled - k
    runs = []
    stencil = operators._jet_stencil

    def spy(ev, z1, z2):
        runs.append((ev, z1, z2))
        return stencil(ev, z1, z2)

    monkeypatch.setattr(operators, "_jet_stencil", spy)
    classify(small)
    [(ev, z1, z2)] = runs
    assert np.array_equal(z1, pts[:, 0]) and np.array_equal(z2, pts[:, 1])
    assert ev.func is _inverse_values and ev.args == (small, -e)
    with np.errstate(all="ignore"):
        largest = _norms(*small.eval_numeric(z1, z2)).max()
    assert e == math.frexp(largest)[1]


@pytest.mark.parametrize("scale", [1, Fraction(1, 10 ** 8), 10 ** 8])
@pytest.mark.parametrize("name", NAMES)
def test_the_pointwise_inverse_differences_as_the_exact_inverse(name, scale):
    # classify differences 1/f on the float values of f, inverted pointwise;
    # D of the exact inverse_function(f) through the same jet agrees within
    # 1e-9 |1/f| at its samples (5 for cauchy_kernel at 1e-8, else 8)
    f = scale_real(builtin(name).f, scale)
    pts, _ = _sample_points(f, 8)
    assert len(pts) >= 5
    pointwise = _jet_stencil(functools.partial(_inverse_values, f, 0),
                             pts[:, 0], pts[:, 1])
    exact = _jet_stencil(inverse_function(f).eval_numeric,
                         pts[:, 0], pts[:, 1])
    (p1, p2), (e1, e2) = (_richardson_D(_bar_passes(w))
                          for w in (pointwise, exact))
    assert (_norms(p1 - e1, p2 - e2)
            <= 1e-9 * _norms(exact[0, 0], exact[0, 1])).all()


@pytest.mark.parametrize("spec", ["F", "10^160*c1 ; 0", "c1/10^170 ; 0"])
def test_the_cross_check_inverts_f_scaled_by_a_power_of_two(spec):
    # classify differences 1/g for g = 2^-e f, |g| in [1/2, 1) at its
    # largest sample: where |f|^2 is in the float range that is 2^e times
    # the inverse of f, bit for bit; at 1e160 (1e-170) |f|^2 overflows
    # (underflows), and only the inverse of g, 1/g1 here, is finite and
    # nonzero
    f = builtin(spec).f if spec in NAMES else parse_qfunction(spec)
    pts, e = _sample_points(f, 8)
    assert len(pts) == 8
    z1, z2 = pts[:, 0], pts[:, 1]
    scaled = _inverse_values(f, -e, z1, z2)
    with np.errstate(all="ignore"):
        plain = _inverse_values(f, 0, z1, z2)
    if spec == "F":
        for got, want in zip(scaled, plain):
            assert np.array_equal(got, np.ldexp(1.0, e) * want)
        return
    assert not np.all(np.isfinite(plain[0]) & (plain[0] != 0))
    want = 1.0 / (np.ldexp(1.0, -e) * f.f1.eval_numeric(z1, z2))
    assert np.all(np.abs(scaled[0] - want) <= 1e-15 * np.abs(want))
    assert np.all(want != 0) and not np.any(scaled[1])


def test_the_cross_check_reaches_the_smallest_floats():
    # at 1e-315 the float values of f are subnormal, and 2^-e, e = -1045,
    # lies beyond the float range: the scale stops at 2^1023, which still
    # keeps |g|^2 in range, and the check agrees as it does for c1 ; 0
    c1 = parse_qfunction("c1 ; 0")
    tiny = scale_real(c1, Fraction(1, 10 ** 315))
    assert _sample_points(tiny, 8)[1] < -1023
    assert classify(tiny).notes == classify(c1).notes


def test_classify_builds_no_exact_inverse(monkeypatch):
    # the cross-check inverts f's float values; neither 1/f nor |f|^2 is
    # built in exact arithmetic, on any branch of the check
    built = []

    def spy(fn):
        def recorded(f):
            built.append(fn.__name__)
            return fn(f)
        return recorded

    for fn in (inverse_function, modulus_function):
        monkeypatch.setattr(operators, fn.__name__, spy(fn))
    inputs = [scale_real(f, s) for f in CROSS_CHECK_INPUTS.values()
              for s in (1, Fraction(1, 10 ** 8), Fraction(1, 10 ** 400))]
    inputs += [parse_qfunction(spec) for spec in (
        "z1*z2 ; c1*c2", "z1^100000 ; 0", "10^400*c1 ; 0")]
    for f in inputs:
        classify(f, partners=[builtin("conj").f])
    assert built == []


def test_an_f_with_no_usable_sample_says_the_check_was_not_run():
    # at 10^-400 every float value of f underflows to 0
    f = scale_real(builtin("prop34").f, Fraction(1, 10 ** 400))
    pts, e = _sample_points(f, 8)
    assert len(pts) == 0 and e == 0
    assert classify(f).notes == (
        "numeric D(1/f) check was not run: no candidate sample has a "
        "finite, nonzero |f| off the poles",)


def test_a_constant_denominator_classifies_as_its_scaled_numerator():
    # c1/10^400 is the polynomial 10^-400 * c1: its residuals and notes are
    # those of c1 ; 0 scaled by 10^-400
    got = classify(parse_qfunction("c1/10^400 ; 0"))
    want = classify(scale_real(parse_qfunction("c1 ; 0"),
                               Fraction(1, 10 ** 400)))
    assert (str(got.eq3_residual), str(got.eq4_residual), got.notes) == (
        str(want.eq3_residual), str(want.eq4_residual), want.notes)


def test_a_step_that_does_not_resolve_f_is_inconclusive():
    # z1^100000 is hypermeromorphic, but it changes by e^10 over one jet
    # step: D(1/f) at h and h/2 part by 1.8e7 |1/f|, and the 6.0e6 |1/f|
    # the jet reads is no disagreement.  At z1^2000 ; c2^3 the two steps
    # agree to 4e-8 |1/f|, so its D(1/f) of 3e-12 |1/f| against a nonzero
    # eq4 is reported as before
    unresolved = classify(parse_qfunction("z1^100000 ; 0")).notes
    assert unresolved[1:] == (
        "numeric D(1/f) check is inconclusive: the jet step does not "
        "resolve f (max |D(1/f) at h - D(1/f) at h/2|/|1/f| = 1.819e+07 "
        "over 1 samples)",)
    assert classify(parse_qfunction("z1^2000 ; c2^3")).notes == (
        "numeric D(1/f) status disagrees with the residual system "
        "(max |D(1/f)|/|1/f| = 3.083e-12 over 8 samples)",)


def cross_check_bit_inputs():
    """Every catalogue entry at the golden scales, and 20 seeded random f:
    polynomial pairs, some over the real denominator 1 + |z1|^2, and
    hyperholomorphic samples."""
    inputs = {f"{name}*{scale}": scale_real(f, scale)
              for name, f in CROSS_CHECK_INPUTS.items()
              for scale in GOLDEN_SCALES}
    rng = seeded(47)
    den = parse_poly("1 + z1*c1")
    for i in range(20):
        if i % 4 == 3:
            f = hyperholomorphic_sample(rng)
        else:
            p1, p2 = rand_poly(rng, 3, 4), rand_poly(rng, 3, 4)
            f = QFunction(*(ConjRational(p, den) if i % 4 == 2 and
                            not p.is_zero else ConjRational(p)
                            for p in (p1, p2)))
        if not f.is_zero:
            inputs[f"random{i}"] = f
    return inputs


def ref_D(d):
    """D = d1 + d2*j from a reference partials dict, whose entries pair
    the partials of f1 and f2."""
    return (0.5 * (d["z1b"][0] - np.conj(d["z2b"][1])),
            0.5 * (d["z2b"][0] + np.conj(d["z1b"][1])))


def test_the_cross_check_matches_the_reference_jet_bit_for_bit():
    # the check's conj(z)-partials, worst ratio and pass gap are those of
    # the reference jet of 1/g, differenced one real direction at a time,
    # bit for bit
    def same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    inputs = cross_check_bit_inputs()
    checked = 0
    for name, f in inputs.items():
        pts, e = _sample_points(f, 8)
        if not len(pts):
            continue
        with np.errstate(all="ignore"):
            bar, size = _inverse_bar_partials(f, -e, pts)
            f1, f2, *passes = ref_jet_passes(
                functools.partial(_inverse_values, f, -e),
                pts[:, 0], pts[:, 1])
            want = [[[d[var][c] for c in (0, 1)] for var in ("z1b", "z2b")]
                    for d in passes]
            assert same(bar, want), name
            assert same(size, _norms(f1, f2)), name
            coarse, fine = passes
            rich = {k: (4 * fine[k] - coarse[k]) / 3 for k in fine}
            worst = (_norms(*ref_D(rich)) / _norms(f1, f2)).max()
            (c1, c2), (h1, h2) = ref_D(coarse), ref_D(fine)
            gap = (_norms(c1 - h1, c2 - h2) / _norms(f1, f2)).max()
            assert same(_worst_ratio(bar, size), worst), name
            assert same(_pass_gap(bar, size), gap), name
        checked += 1
    # every f has samples
    assert len(inputs) == checked == 4 * len(CROSS_CHECK_INPUTS) + 20


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
    for f, g in pairs:
        assert check_product_rule(f, g).is_zero
    for name in ("conj", "F", "prop34", "holo", "q_conj"):
        classify(builtin(name).f)
    assert both_one == []
