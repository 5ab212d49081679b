"""Acceptance gate.  One test per criterion; each prints a single
[PASS]/[FAIL] verdict line (visible with -s, or in the captured output on
failure).  Tolerances are pinned here and nowhere loosened."""
import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from qres.catalogue import NAMES, builtin
from qres.currents.estimate import EpsilonSchedule
from qres.currents.forms import Profile, TestForm2, TestForm3, bump
from qres.currents.oned import Laurent1D, res_limit_1d
from qres.currents.pairings import pv_pair, residue_pair
from qres.currents.quadrature import build_quadrature, sphere_integral
from qres.operators import (apply_D, apply_D_at, check_product_rule, classify,
                            corollary_product_rule_residual,
                            hypermero_residuals, inverse_function, scale_real)
from qres.parsing import parse_qfunction, parse_rational
from qres.symfun import ConjPoly

from helpers import (hyperholomorphic_sample, rand_point,
                     real_hyperholomorphic_sample, seeded)

TWO_PI_SQ = 2 * math.pi ** 2


def criterion(num: int, desc: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {num}: {desc}")
                raise
            print(f"[PASS] criterion {num}: {desc}")
        return run
    return wrap


@criterion(1, "reciprocal kernel is annihilated exactly")
def test_criterion_01_kernel_annihilated():
    d = apply_D(builtin("cauchy_kernel").f)
    assert d.is_zero
    assert d.d1.is_zero and d.d2.is_zero


@criterion(2, "affine family: derivative, residuals, and inverse jets")
def test_criterion_02_affine_family():
    rng = seeded(202)
    for a, b in ((0, 0), (1, 2), (-3, 5)):
        f = builtin("prop34", (Fraction(a), Fraction(b))).f
        assert apply_D(f).is_zero
        e3, e4 = hypermero_residuals(f)
        assert e3.is_zero and e4.is_zero
        inv = inverse_function(f)
        checked = 0
        while checked < 100:
            q = rand_point(rng, 0.5, 2.0)
            if float(f.eval(q).norm()) < 0.2:
                continue  # too close to the zero plane for the jet
            assert apply_D_at(inv, q).norm() < 1e-8
            checked += 1


@criterion(3, "product rule on 20 pairs, corollary form on 10 real pairs")
def test_criterion_03_product_rule():
    rng = seeded(303)
    for _ in range(20):
        f = hyperholomorphic_sample(rng)
        g = hyperholomorphic_sample(rng)
        assert check_product_rule(f, g).is_zero
    for _ in range(10):
        f = real_hyperholomorphic_sample(rng)
        g = real_hyperholomorphic_sample(rng)
        assert corollary_product_rule_residual(f, g).is_zero


@criterion(4, "conjugation is hyperholomorphic but not hypermeromorphic")
def test_criterion_04_conjugation_counterexample():
    c = classify(builtin("conj").f)
    assert c.hyperholomorphic is True
    assert c.hypermeromorphic is False
    assert (c.eq3_residual - parse_rational("z1 - c1")).is_zero


@criterion(5, "sphere quadrature: area 1e-10, odd moments 1e-12")
def test_criterion_05_quadrature_gate():
    rule = build_quadrature(32, 64)
    area = sphere_integral(rule, lambda eta, x1, x2: 1.0)
    assert abs(complex(area) - TWO_PI_SQ) < 1e-10

    def coords(eta, x1, x2):
        return (np.cos(eta) * np.cos(x1), np.cos(eta) * np.sin(x1),
                np.sin(eta) * np.cos(x2), np.sin(eta) * np.sin(x2))

    for exps in itertools.product(range(5), repeat=4):
        deg = sum(exps)
        if not 1 <= deg <= 4 or not any(e % 2 for e in exps):
            continue

        def mono(eta, x1, x2, exps=exps):
            cs = coords(eta, x1, x2)
            out = 1.0
            for c, e in zip(cs, exps):
                if e:
                    out = out * c ** e
            return out

        assert abs(complex(sphere_integral(rule, mono))) < 1e-12


@criterion(6, "1D circle residues: simple pole 1e-8, double pole 1e-6")
def test_criterion_06_oned_reference():
    simple = Laurent1D(principal=(1,))
    profiles = (
        lambda z: np.exp(-np.abs(z) ** 2),
        lambda z: 1.0 / (1.0 + np.abs(z) ** 2),
        lambda z: bump(np.abs(z) / 0.8),
    )
    sched = EpsilonSchedule(0.2, 0.55, 12)
    for phi in profiles:
        est = res_limit_1d(simple, phi, sched)
        assert est.converged
        want = 2j * math.pi * complex(phi(np.array(0.0 + 0j)))
        assert abs(complex(est.extrapolated.z1) - want) / abs(want) < 1e-8
    double = Laurent1D(principal=(0, 1))
    est = res_limit_1d(double, lambda z: z * bump(np.abs(z)),
                       EpsilonSchedule(0.25, 0.6, 10))
    assert est.converged
    want = 2j * math.pi
    assert abs(complex(est.extrapolated.z1) - want) / abs(want) < 1e-6


@criterion(7, "residue of z1 reduces to the radial plane integral")
def test_criterion_07_residue_reduction():
    t0 = time.perf_counter()
    f = parse_qfunction("z1 ; 0")
    phi = TestForm2(phi22=Profile(ConjPoly.one(), 1.0, radial="z2"))
    est = residue_pair(f, phi, n_xi=16,
                       schedule=EpsilonSchedule(0.4, 0.7, 12))
    elapsed = time.perf_counter() - t0
    r = np.linspace(0.0, 1.0, 400_001)
    radial = float(np.trapezoid(bump(r) * r, r))
    want = 2j * math.pi * (-2j * 2 * math.pi * radial)  # real and positive
    assert est.converged
    got = complex(est.extrapolated.z1)
    assert abs(got - want) / abs(want) < 1e-3
    assert elapsed < 60.0


@criterion(8, "point-supported residue: locality and vanishing forms")
def test_criterion_08_dirac_locality():
    conj = builtin("conj").f
    sched = EpsilonSchedule(0.5, 0.7, 10)

    def limit(phi):
        est = residue_pair(conj, phi, n_xi=16, schedule=sched)
        assert est.converged
        return est.extrapolated

    # coefficient pairs that agree at the origin but differ away from it
    pairs = (
        (TestForm2(phi22=Profile(ConjPoly.one(), 1.0)),
         TestForm2(phi22=Profile(ConjPoly.one() + ConjPoly.var("z2") * ConjPoly.var("c2"), 1.0))),
        (TestForm2(phi11=Profile(ConjPoly.one(), 1.0)),
         TestForm2(phi11=Profile(ConjPoly.one() + ConjPoly.var("z1") * ConjPoly.var("c1"), 1.0))),
    )
    for phi_a, phi_b in pairs:
        va, vb = limit(phi_a), limit(phi_b)
        mag = max(va.norm(), vb.norm())
        assert (va - vb).norm() < 1e-3 * (1.0 + mag)
    # coefficients vanishing at the origin pair to nothing
    for phi in (TestForm2(phi22=Profile(ConjPoly.var("z2") * ConjPoly.var("c2"), 1.0)),
                TestForm2(phi11=Profile(ConjPoly.var("z1") * ConjPoly.var("c1"), 1.0))):
        assert limit(phi).norm() < 1e-3


@criterion(9, "principal values: odd-symmetry zeros and the ball oracle")
def test_criterion_09_pv_existence():
    conj = builtin("conj").f
    rule = build_quadrature(16, 32)
    est = pv_pair(conj, TestForm3(psi2=Profile.bump_only(1.0)), rule=rule)
    assert max(v.norm() for v in est.values) < 1e-6

    z1 = parse_qfunction("z1 ; 0")
    # radial coefficient: every shell vanishes by phase cancellation, and
    # the direct quadrature of the absolutely convergent integral is zero too
    est0 = pv_pair(z1, TestForm3(psi1=Profile.bump_only(1.0)), rule=rule)
    assert est0.converged
    assert max(v.norm() for v in est0.values) < 1e-6

    # z1-weighted coefficient against the independent 4D quadrature
    est1 = pv_pair(z1, TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0)),
                   rule=rule)
    assert est1.converged
    area = complex(sphere_integral(rule, lambda eta, x1, x2: 1.0)).real
    lam = np.linspace(0.0, 1.0, 400_001)
    moment = float(np.trapezoid(lam ** 3 * bump(lam), lam))
    want = -4.0 * area * moment
    got = complex(est1.extrapolated.z1)
    assert abs(got - want) / abs(want) < 1e-3


@criterion(10, "classification is invariant under real scaling")
def test_criterion_10_scaling_invariance():
    for name in NAMES:
        f = builtin(name).f
        base = classify(f)
        for alpha in (2, -1, 0.5):
            scaled = classify(scale_real(f, alpha))
            assert scaled.hyperholomorphic == base.hyperholomorphic
            assert scaled.hypermeromorphic == base.hypermeromorphic
