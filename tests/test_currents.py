"""Epsilon-limit pairings against the currents attached to a reciprocal:
residues over shrinking level sets, principal values over shrinking
excluded regions.  Reference masses come from radial quadrature."""
import dataclasses
import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from helpers import chart_jacobian, det4
from qres.catalogue import NAMES, builtin
from qres.currents.chart import (ORIENTATION_3FORM, ORIENTATION_4FORM,
                                 sphere_to_complex)
from qres.currents.estimate import ZERO_FLOOR, EpsilonSchedule, finalize
from qres.currents.forms import Profile, TestForm2, TestForm3, bump
from qres.currents import pairings
from qres.currents.pairings import (PoleOnDomain, _Nodes, _Plan,
                                    _PvDensity, _RayFunction,
                                    _RayMesh, _RaySplit, _fold,
                                    _pv_kernels, _pv_radial,
                                    _level_crossings, _residue_kernels,
                                    _residue_rung, _solve_level_radius,
                                    _take_rays, pv_pair, residue_pair)
from qres.currents import quadrature
from qres.currents.quadrature import (MAX_RAYS, QuadratureRule,
                                      build_quadrature, graded_eta_panels,
                                      phase_grid, pv_rays, require_rays,
                                      residue_rays)
from qres.errors import DomainError, IdenticallyZero, RuleTooLarge, TooCoarse
from qres.operators import modulus_function
from qres.parsing import parse_poly, parse_qfunction
from qres.qcore import Quat
from qres.symfun import ConjPoly, ConjRational, QFunction

Z1_FN = parse_qfunction("z1 ; 0")
# not homogeneous, so principal values of it evaluate the folded density at
# every node (_PvDensity.radial); z1 ; 0 takes the per-ray split (_RaySplit)
NODE_SUM_FN = parse_qfunction("z1 + z1*z2 ; 0")
PHI_PLANE = TestForm2(phi22=Profile(ConjPoly.one(), 1.0, radial="z2"))


def pv_density(f, products, u1, u2, w=None):
    """The _PvDensity of the products on the rays (u1, u2), on the table of
    f1 and f2 that a pairing builds there, with the ray weights w (1 by
    default)."""
    ray_fn = _RayFunction.build((f.f1, f.f2), u1, u2, _Plan.of(f))
    return _PvDensity.build(f, ray_fn, products,
                            np.ones(len(u1)) if w is None else w)


def plane_mass_oracle() -> float:
    # mass a codimension-one zero plane picks up from a radial bump in the
    # transverse-free coordinate: area of the unit circle family times the
    # radial profile moment
    r = np.linspace(0.0, 1.0, 400_001)
    return 8 * math.pi ** 2 * float(np.trapezoid(bump(r) * r, r))


def ball_moment_oracle() -> float:
    r = np.linspace(0.0, 1.0, 400_001)
    return -8 * math.pi ** 2 * float(np.trapezoid(r ** 3 * bump(r), r))


def test_residue_of_z1_matches_plane_mass():
    est = residue_pair(Z1_FN, PHI_PLANE, n_xi=16,
                       schedule=EpsilonSchedule(0.4, 0.7, 12))
    assert est.converged
    assert est.part == "(1,0)+(0,1)"
    got = complex(est.extrapolated.z1)
    want = plane_mass_oracle()
    assert abs(got - want) / want < 5e-4
    assert abs(got.imag) < 1e-10
    assert abs(complex(est.extrapolated.z2)) < 1e-10


def test_residue_of_conjugation_is_numerically_zero():
    # the zero set is a single point; the level spheres carry mass that
    # cancels in the limit
    conj = builtin("conj").f
    est = residue_pair(conj, PHI_PLANE, n_xi=16,
                       schedule=EpsilonSchedule(0.5, 0.7, 10))
    assert est.converged
    assert est.extrapolated.norm() < 1e-3


def test_residue_is_linear_in_the_test_form():
    sched = EpsilonSchedule(0.4, 0.7, 3)

    def pair(poly):
        phi = TestForm2(phi22=Profile(poly, 1.0, radial="z2"))
        return residue_pair(Z1_FN, phi, n_xi=16, schedule=sched)

    est_a = pair(ConjPoly.one())
    est_b = pair(parse_poly("z2*c2"))
    est_s = pair(parse_poly("1 + z2*c2"))
    for va, vb, vs in zip(est_a.values, est_b.values, est_s.values):
        assert (va + vb - vs).norm() < 1e-10 * max(1.0, vs.norm())


def test_residue_against_coefficient_vanishing_on_zero_set():
    # coefficient proportional to |z1|^2 dies quadratically on the level
    # sets, so the limit is zero even though each rung is positive
    phi = TestForm2(phi22=Profile(parse_poly("z1*c1"), 1.0, radial="z2"))
    est = residue_pair(Z1_FN, phi, n_xi=16,
                       schedule=EpsilonSchedule(0.4, 0.7, 10))
    assert est.converged
    assert est.extrapolated.norm() < 1e-3
    assert est.values[0].norm() > 10 * est.values[-1].norm()


def test_mirror_half_is_inert_for_holomorphic_zero_sets():
    sched = EpsilonSchedule(0.4, 0.7, 4)
    est_on = residue_pair(Z1_FN, PHI_PLANE, n_xi=16, schedule=sched)
    est_off = residue_pair(Z1_FN, PHI_PLANE, n_xi=16, schedule=sched,
                           include_mirror=False)
    # both conjugate-type derivatives of (z1, 0) vanish identically, so the
    # mirror terms contribute exactly nothing
    assert max((u - v).norm()
               for u, v in zip(est_on.values, est_off.values)) == 0.0
    assert est_on.part == "(1,0)+(0,1)"
    assert est_off.part == "(1,0)"


def test_pv_of_z1_reciprocal_matches_ball_moment():
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    est = pv_pair(Z1_FN, psi, rule=build_quadrature(16, 32))
    assert est.converged
    got = complex(est.extrapolated.z1)
    want = ball_moment_oracle()
    assert abs(got - want) / abs(want) < 1e-4
    assert abs(got.imag) < 1e-10
    assert abs(complex(est.extrapolated.z2)) < 1e-10


def test_pv_pure_bump_rungs_vanish():
    # 1/z1 against a radial profile integrates to zero on every shell by
    # phase cancellation, not just in the limit
    psi = TestForm3(psi1=Profile.bump_only(1.0))
    est = pv_pair(Z1_FN, psi, rule=build_quadrature(16, 32))
    assert max(v.norm() for v in est.values) < 1e-10


def test_pv_of_conjugation_reciprocal_against_second_slot_vanishes():
    conj = builtin("conj").f
    psi = TestForm3(psi2=Profile.bump_only(1.0))
    est = pv_pair(conj, psi, rule=build_quadrature(16, 32))
    assert max(v.norm() for v in est.values) < 1e-10


def test_levelset_region_agrees_with_metric_region():
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    rule = build_quadrature(12, 16)
    sched = EpsilonSchedule(0.4, 0.7, 10)
    est_m = pv_pair(Z1_FN, psi, rule=rule, schedule=sched, region="metric")
    est_l = pv_pair(Z1_FN, psi, rule=rule, schedule=sched, region="levelset")
    a = complex(est_m.extrapolated.z1)
    b = complex(est_l.extrapolated.z1)
    assert abs(a - b) / abs(a) < 1e-2
    assert any("level sets" in note for note in est_l.notes)


def test_conjugate_part_is_served_by_formal_conjugation():
    rule = build_quadrature(8, 8)
    sched = EpsilonSchedule(0.3, 0.7, 3)
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    flipped = TestForm3(psi1=Profile(ConjPoly.var("c1"), 1.0))
    base = pv_pair(Z1_FN, flipped, rule=rule, schedule=sched)
    got = pv_pair(Z1_FN, psi, rule=rule, schedule=sched, part="(0,1)")
    assert got.part == "(0,1)"
    assert any("conjugation" in note for note in got.notes)
    for u, v in zip(got.values, base.values):
        mirrored = Quat(complex(v.z1).conjugate(), complex(v.z2).conjugate())
        assert (u - mirrored).norm() == 0.0
    # an untrusted level set: the (1,0) verdict and notes carry over
    f = builtin("prop34", (Fraction(1, 8), Fraction(-1, 8))).f
    base = pv_pair(f, flipped, rule=rule, region="levelset")
    got = pv_pair(f, psi, rule=rule, region="levelset", part="(0,1)")
    assert [(complex(u.z1), complex(u.z2)) for u in got.values] == [
        (complex(v.z1).conjugate(), complex(v.z2).conjugate())
        for v in base.values]
    assert any("not radial graphs" in note for note in base.notes)
    assert got.converged == base.converged
    assert got.notes == base.notes + ("computed from the (1,0) pairing by "
                                      "formal conjugation",)


def test_pole_through_domain_is_reported():
    # a zero of very high order underflows |f|^2 to an exact zero inside
    # the metric region, which must surface as an error, not a warning
    deep = parse_qfunction("z1^200 ; 0")
    psi = TestForm3(psi1=Profile.bump_only(1.0))
    rule = build_quadrature(8, 8)
    sched = EpsilonSchedule(0.35, 0.7, 3)
    with pytest.raises(PoleOnDomain, match="singular inside"):
        pv_pair(deep, psi, rule=rule, schedule=sched)
    # the level-set region excludes the zero set by construction, so the
    # same density integrates cleanly there
    est = pv_pair(deep, psi, rule=rule, schedule=sched, region="levelset")
    assert max(v.norm() for v in est.values) < 1e-20


def test_chart_volume_element_has_closed_form():
    # the pv integrators use 4 lam^3 sin(eta) cos(eta); the cofactor
    # determinant of the full chart Jacobian is its independent oracle
    rng = np.random.default_rng(11)
    n = 1000
    lam = rng.uniform(0.0, 1.0, n)
    eta = rng.uniform(0.0, math.pi / 2, n)
    xi1, xi2 = rng.uniform(0.0, 2 * math.pi, (2, n))
    det = det4(chart_jacobian(lam, eta, xi1, xi2))
    closed = 4.0 * lam ** 3 * np.sin(eta) * np.cos(eta)
    assert np.abs(det - closed).max() < 1e-15


class RayParams(NamedTuple):
    """Per-ray chart parameters and raw weight (without sin*cos) of
    _RayMesh.build(eta_nodes, eta_weights, rule.n_xi), in its eta-major
    order, built from the rule ray by ray."""

    eta: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, eta_nodes, eta_weights, rule) -> "RayParams":
        n, k = rule.n_xi, len(eta_nodes)
        xi, xi_w = phase_grid(n)
        return cls(np.repeat(eta_nodes, n * n),
                   np.tile(np.repeat(xi, n), k),
                   np.tile(xi, k * n),
                   np.repeat(eta_weights, n * n) * xi_w ** 2)

    def take(self, sel) -> "RayParams":
        return RayParams(*(a[sel] for a in self))


@pytest.mark.parametrize("n_eta,n_xi,graded", [
    (16, 32, False), (32, 64, False), (8, 16, True), (32, 64, True)])
def test_chart_mesh_from_its_axes_matches_the_flat_construction(n_eta, n_xi,
                                                               graded):
    # _RayMesh takes the weights, cos, sin and the phases on the axes and
    # broadcasts them; per ray, the same products give the same bits
    rule = build_quadrature(n_eta, n_xi)
    eta_nodes, eta_weights = (graded_eta_panels(0.01, 1.0) if graded
                              else (rule.eta_nodes, rule.eta_weights))
    mesh = _RayMesh.build(eta_nodes, eta_weights, n_xi)
    ref = RayParams.of(eta_nodes, eta_weights, rule)
    u1, u2 = sphere_to_complex(1.0, ref.eta, ref.xi1, ref.xi2)
    w = ref.w * (np.sin(ref.eta) * np.cos(ref.eta))
    for got, want in ((mesh.u1, u1), (mesh.u2, u2), (mesh.w, w),
                      (mesh.eta, ref.eta)):
        assert got.tobytes() == want.tobytes()


def level_rays(kind: str):
    """(eta, xi1, xi2) of seeded random rays, or of a residue rung mesh
    with eta panels graded toward the chart poles."""
    if kind == "random":
        rng = np.random.default_rng(12)
        n = 500
        eta = rng.uniform(0.05, math.pi / 2 - 0.05, n)
        xi1, xi2 = rng.uniform(0.0, 2 * math.pi, (2, n))
        return eta, xi1, xi2
    rays = RayParams.of(*graded_eta_panels(0.3, 1.0), build_quadrature(8, 16))
    return rays.eta, rays.xi1, rays.xi2


LEVEL_CASES = {
    "conj": (builtin("conj").f, "random"),
    "z1": (Z1_FN, "random"),
    "cauchy_kernel": (builtin("cauchy_kernel").f, "graded"),
    "prop34": (builtin("prop34", (Fraction(1, 8), Fraction(-1, 8))).f,
               "graded"),
}


@pytest.mark.parametrize("name", list(LEVEL_CASES))
def test_level_radius_lies_on_the_level_set(name):
    # |f| is evaluated independently of the ray tables: through the chart
    # map and the symbolic evaluator
    f, kind = LEVEL_CASES[name]
    eta, xi1, xi2 = level_rays(kind)
    n = len(eta)
    eps = 0.3
    ray_fn = _RayFunction.build((f.f1, f.f2),
                                *sphere_to_complex(1.0, eta, xi1, xi2),
                                _Plan.of(f))
    radii = _solve_level_radius(ray_fn, np.ones(n), (eps,))
    lam, active, inside = (a[0] for a in radii[:3])

    def mod_sq(radius):
        F1, F2 = f.eval_numeric(*sphere_to_complex(radius, eta, xi1, xi2))
        return np.abs(F1) ** 2 + np.abs(F2) ** 2

    # the masks: below eps just above the origin, at or above it at hi
    want_inside = mod_sq(pairings._LAM_FLOOR_FACTOR * np.ones(n)) < eps ** 2
    assert np.array_equal(inside, want_inside)
    assert np.array_equal(active, want_inside & (mod_sq(np.ones(n)) >= eps ** 2))
    if name == "cauchy_kernel":
        # |f| = |q|^-3 falls along every ray: no ray starts below eps
        assert not active.any()
        return
    assert active.sum() > n // 2
    F1, F2 = f.eval_numeric(*sphere_to_complex(lam[active], eta[active],
                                               xi1[active], xi2[active]))
    g = np.abs(F1) ** 2 + np.abs(F2) ** 2
    assert np.abs(g / eps ** 2 - 1.0).max() < 1e-9


def bisect_level_radius(ray_fn, lam_hi, eps):
    """The level solve as it was before the root solve: 52 bisection steps
    on [0, lam_hi] against |f|^2 from the ray tables, with the masks from
    the same two evaluations as _solve_level_radius.  Kept as its
    reference."""
    target = eps * eps
    hi = np.array(lam_hi, dtype=float)
    lo = np.zeros(hi.shape)
    g_lo = ray_fn.modulus_sq(pairings._LAM_FLOOR_FACTOR * hi)
    g_hi = ray_fn.modulus_sq(hi)
    inside_at_floor = ~(g_lo >= target)
    active = inside_at_floor & (g_hi >= target)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        below = ray_fn.modulus_sq(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi), active, inside_at_floor


# z1 + (z1 - c1) z2 is not homogeneous, and the top row of its f1 table,
# (u1 - conj(u1)) u2, is exactly zero on the rays with xi1 = 0
LEADING_ZERO = "z1 + z1*z2 - c1*z2 ; 0"
ORACLE_FUNCTIONS = {name: builtin(name).f for name in NAMES}
ORACLE_FUNCTIONS.update({
    "prop34(1,2)": builtin("prop34", (1, 2)).f,
    "prop34(-1/2,3/4)": builtin("prop34", (Fraction(-1, 2),
                                           Fraction(3, 4))).f,
    "prop34(1/8,-1/8)": builtin("prop34", (Fraction(1, 8),
                                           Fraction(-1, 8))).f,
    LEADING_ZERO: parse_qfunction(LEADING_ZERO),
})
# components over one shared denominator: |f|^2 in lowest terms is
# (|z1 + 1|^2 + |z2|^2) / (1 + |z1|^2)^2, so its level polynomial has
# degree 4 where D1^2 D2^2 (|f|^2 - eps^2) has degree 8
SHARED_DEN = "(z1 + 1) / (1 + z1*c1) ; (z2) / (1 + z1*c1)"
LEVEL_SOLVE_CASES = {**ORACLE_FUNCTIONS,
                     SHARED_DEN: parse_qfunction(SHARED_DEN)}


PV_RULE = build_quadrature(16, 32)
PV_RAYS = RayParams.of(PV_RULE.eta_nodes, PV_RULE.eta_weights, PV_RULE)


@pytest.fixture(scope="module")
def pv_mesh():
    return _RayMesh.build(PV_RULE.eta_nodes, PV_RULE.eta_weights,
                          PV_RULE.n_xi)


def mod_sq_on_rays(f, lam, rays):
    """|f|^2 at radius lam on the given rays of pv_mesh, through the chart
    map and the symbolic evaluator."""
    F1, F2 = f.eval_numeric(*sphere_to_complex(
        lam, PV_RAYS.eta[rays], PV_RAYS.xi1[rays], PV_RAYS.xi2[rays]))
    return np.abs(F1) ** 2 + np.abs(F2) ** 2


@pytest.mark.parametrize("name", list(LEVEL_SOLVE_CASES))
def test_level_solve_matches_the_bisection(name, pv_mesh):
    f = LEVEL_SOLVE_CASES[name]
    mesh = pv_mesh
    ray_fn = _RayFunction.build((f.f1, f.f2), mesh.u1, mesh.u2,
                                _Plan.of(f))
    n = len(mesh.eta)
    hi = np.ones(n)
    floor = pairings._LAM_FLOOR_FACTOR * hi
    if name == LEADING_ZERO:
        assert ray_fn.plan.degree is None and ray_fn.items[1] is None
        assert (ray_fn.items[0].num.c[-1] == 0).any()
    for eps in EpsilonSchedule.for_radius(1.0).values():
        radii = _solve_level_radius(ray_fn, hi, (eps,))
        lam, active, inside = (a[0] for a in radii[:3])
        ref, ref_active, ref_inside = bisect_level_radius(ray_fn, hi, eps)
        assert np.array_equal(active, ref_active)
        assert np.array_equal(inside, ref_inside)
        if ray_fn.plan.degree is None:
            # every crossing, from the root solve at this eps; its polish
            # runs on the inf padding, as inside the solve
            with np.errstate(all="ignore"):
                crossings, _ = _level_crossings(
                    ray_fn, ray_fn.level_rows(), eps * eps, floor, hi)
            assert np.array_equal(lam, crossings[:, 0])
        else:
            # the closed form: a monotone |f| crosses eps at most once
            crossings = lam[:, None]
            assert radii.untrusted[1] == 0
        count = np.count_nonzero(crossings < np.inf, axis=1)
        assert np.all(count[active] >= 1)
        # on active monotone rays, within the bisection's final bracket
        mono = active & (count == 1)
        tol = 2.0 ** -51 * hi
        if name == LEADING_ZERO:
            # here |f|^2 = eps^2 is resolved only to a few units in the
            # last place of eps^2: near the root the computed |f|^2 flips
            # sign over several ulps of the radius, for both solves alike
            _, slope = ray_fn.modulus_sq_slope(np.where(mono, lam, 1.0)[None])
            tol = tol + 4 * np.spacing(eps ** 2) / np.abs(slope[0])
        assert np.all(np.abs(lam - ref)[mono] <= tol[mono])
        # every crossing lies on the level set
        rays, k = np.nonzero(crossings < np.inf)
        g = mod_sq_on_rays(f, crossings[rays, k], rays)
        assert np.abs(g / eps ** 2 - 1.0).max(initial=0.0) <= 1e-9
        # |f|^2 - eps^2 changes sign at each crossing and nowhere else:
        # sampled at the floor, between consecutive crossings and at lam_hi,
        # it changes sign between every two neighbouring samples (a ray
        # with no crossing has the floor and lam_hi on one side)
        mids = 0.5 * (crossings[:, :-1] + crossings[:, 1:])
        for c in np.unique(count):
            sel = np.flatnonzero(count == c)
            samples = np.concatenate(
                [floor[sel, None], mids[sel, :max(c - 1, 0)], hi[sel, None]],
                axis=1)
            side = mod_sq_on_rays(f, samples,
                                  np.broadcast_to(sel[:, None], samples.shape)
                                  ) < eps ** 2
            changes = np.count_nonzero(side[:, 1:] != side[:, :-1], axis=1)
            assert np.all(changes == c)


def test_level_rows_are_those_of_the_exact_modulus(pv_mesh):
    # the rows (s, q) of the root solve are the ray tables of the numerator
    # and denominator of |f|^2 in lowest terms: for SHARED_DEN,
    # |lam u1 + 1|^2 + lam^2 |u2|^2 and (1 + lam^2 |u1|^2)^2, of degree 4
    f = LEVEL_SOLVE_CASES[SHARED_DEN]
    u1, u2 = pv_mesh.u1, pv_mesh.u2
    ray_fn = _RayFunction.build((f.f1, f.f2), u1, u2, _Plan.of(f))
    assert ray_fn.plan.degree is None
    s, q = ray_fn.level_rows()
    assert s.shape == q.shape == (5, len(u1))
    lam = np.linspace(0.1, 2.0, 7)[:, None]
    s_at, q_at = (sum(row * lam ** k for k, row in enumerate(rows))
                  for rows in (s, q))
    want_s = np.abs(lam * u1 + 1) ** 2 + lam ** 2 * np.abs(u2) ** 2
    want_q = (1 + lam ** 2 * np.abs(u1) ** 2) ** 2
    assert np.allclose(s_at, want_s, rtol=1e-13, atol=0.0)
    assert np.allclose(q_at, want_q, rtol=1e-13, atol=0.0)


def test_closed_form_serves_the_homogeneous_functions():
    # the plan reads the degree from the exponent keys of f; the ray tables
    # of f1 and f2 encode it as rows: one row in every table, and one
    # numerator degree minus denominator degree m for both components
    u1, u2 = unit_rays(15)
    cases = {**ORACLE_FUNCTIONS, **GOLDEN_FUNCTIONS}
    degrees = {}
    for name, f in cases.items():
        ray_fn = _RayFunction.build((f.f1, f.f2), u1, u2, _Plan.of(f))
        degrees[name] = ray_fn.plan.degree
        tables = [t for t in ray_fn.items if t is not None]
        one_row = all(len(t.num.c) == 1 and (t.den is None
                                             or len(t.den.c) == 1)
                      for t in tables)
        lows = {t.num.low - (0 if t.den is None else t.den.low)
                for t in tables}
        assert degrees[name] == (lows.pop() if one_row and len(lows) == 1
                                 else None), name
    assert degrees == {"conj": 1, "cauchy_kernel": -3, "F": 1, "prop34": 1,
                       "holo": 1, "q_conj": 1, "prop34(1,2)": None,
                       "prop34(-1/2,3/4)": None, "prop34(1/8,-1/8)": None,
                       LEADING_ZERO: None, "z1 ; 0": 1,
                       "z1 + z1*z2 ; 0": None, "shared-den": None}


def test_a_zero_component_has_no_table():
    u1, u2 = unit_rays(15)
    lam = np.linspace(0.1, 1.0, len(u1))
    ray_fn = _RayFunction.build((Z1_FN.f1, Z1_FN.f2), u1, u2,
                                _Plan.of(Z1_FN))
    assert ray_fn.items[1] is None and ray_fn.plan.degree == 1
    F1, F2 = ray_fn.values(lam)
    assert F2 == 0
    assert np.array_equal(ray_fn.modulus_sq(lam), F1.real ** 2 + F1.imag ** 2)


def test_level_sets_that_are_not_radial_graphs_are_not_converged():
    # prop34(1/8, -1/8) vanishes on the real 2-plane Re z1 = -1/16,
    # Re z2 = 0, off the origin, where |f| = 0.177: below that eps no ray
    # starts below eps, and rays passing near the plane dip below eps and
    # come back
    f = builtin("prop34", (Fraction(1, 8), Fraction(-1, 8))).f
    rule = build_quadrature(8, 16)
    sched = EpsilonSchedule(0.4, 0.7, 8)
    residue = residue_pair(f, TestForm2(phi22=Profile.bump_only(1.0)),
                           n_xi=rule.n_xi, schedule=sched)
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    levelset = pv_pair(f, psi, rule=rule, schedule=sched, region="levelset")
    for est in (residue, levelset):
        assert not est.converged
        assert sum("not radial graphs" in note for note in est.notes) == 1
    # the residue rungs that lost the level set altogether are exact zeros
    assert residue.values[0].norm() > 1.0 and residue.values[-1].norm() == 0.0
    # the metric region removes a ball and solves no level set
    metric = pv_pair(f, psi, rule=rule, schedule=sched, region="metric")
    assert not any("not radial graphs" in note for note in metric.notes)


def test_level_sets_missed_by_every_ray_start_are_not_converged():
    # |cauchy_kernel| = |q|^-3 falls along every ray: with the support at
    # radius 2, the level sphere |q| = eps^(-1/3) lies inside it for every
    # eps > 1/8, yet no ray starts below eps.  Every rung is an exact zero,
    # which alone would pass as converged
    est = residue_pair(builtin("cauchy_kernel").f,
                       TestForm2(phi22=Profile.bump_only(2.0)), n_xi=16,
                       schedule=EpsilonSchedule(1.0, 0.7, 6))
    assert all(v.norm() == 0.0 for v in est.values)
    assert not est.converged
    note, = [n for n in est.notes if "not radial graphs" in n]
    # each ray crosses the sphere once
    assert "and 0 rays cross" in note


def test_level_sets_of_whole_rays_are_not_converged():
    # f of degree 0 is constant along every ray: here |f| = cos^2(eta), so
    # the level set cos^2(eta) = eps is a cone of whole rays, which no ray
    # crosses.  Every rung is an exact zero, which alone would pass as
    # converged
    phi = TestForm2(phi22=Profile.bump_only(1.0))
    cone = parse_qfunction("(z1*c1) / (z1*c1 + z2*c2) ; 0")
    est = residue_pair(cone, phi, n_xi=8)
    assert all(v.norm() == 0.0 for v in est.values)
    assert not est.converged
    note, = [n for n in est.notes if "cone of whole rays" in n]
    assert f"on {len(est.values)} rungs" in note
    # no level set inside the support, or |f| >= 0.707 above every eps of
    # the ladder: converged zeros
    for text in ("1/100 ; 0", "(z1*c1) / (z1*c1 + z2*c2) ; "
                 "(z2*c2) / (z1*c1 + z2*c2)"):
        est = residue_pair(parse_qfunction(text), phi, n_xi=8)
        assert all(v.norm() == 0.0 for v in est.values)
        assert est.converged and est.notes == ()
    # the sublevel set of the principal value is whole rays, which it
    # integrates: its rungs step as eps passes the |f| of each ray, and the
    # same note leaves it not converged
    levelset = pv_pair(cone, TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0)),
                       rule=build_quadrature(8, 8), region="levelset")
    assert not levelset.converged
    assert levelset.notes == ("excluded region follows the level sets of "
                              "|f|", note)


def test_dropped_nodes_are_noted_but_leave_convergence(monkeypatch):
    # one node per rung reported not transverse: the note counts it in rays
    # of the n_xi rule (64 per ray of conj's one-phase mesh), and the
    # rungs and the verdict stay as they are
    phi = TestForm2(phi22=Profile.bump_only(1.0))
    schedule = EpsilonSchedule(0.4, 0.7, 6)
    clean = residue_pair(builtin("conj").f, phi, n_xi=8, schedule=schedule)
    rung = pairings._residue_rung

    def one_more_dropped(density, lam):
        value, dropped = rung(density, lam)
        return value, dropped + 1

    monkeypatch.setattr(pairings, "_residue_rung", one_more_dropped)
    est = residue_pair(builtin("conj").f, phi, n_xi=8, schedule=schedule)
    assert est.notes == ("384 level-set nodes were not transverse to the "
                         "radial rays and were dropped",)
    assert clean.notes == ()
    assert est.values == clean.values
    assert est.converged and clean.converged


LADDER_SOLVE_CASES = {
    "z1 ; 0": Z1_FN, "conj": builtin("conj").f,
    # degree 0: |f| is constant along every ray
    "1/100 ; 0": parse_qfunction("1/100 ; 0"),
    # not homogeneous: a root solve per rung
    "z1 + z1*z2 ; 0": parse_qfunction("z1 + z1*z2 ; 0"),
    "prop34(1/8,-1/8)": ORACLE_FUNCTIONS["prop34(1/8,-1/8)"],
}


@pytest.mark.parametrize("name", list(LADDER_SOLVE_CASES))
def test_ladder_level_solve_matches_the_solve_at_each_eps(name):
    # one call for the whole ladder gives each rung's radii and masks bit
    # for bit as a one-rung ladder at that eps, and the untrusted counts
    # summed over the rungs.  On every third ray lam_hi = 1e9 puts the
    # floor at 1, so crossings there lie below it (hidden)
    f = LADDER_SOLVE_CASES[name]
    rule = build_quadrature(8, 16)
    mesh = _RayMesh.build(rule.eta_nodes, rule.eta_weights, rule.n_xi)
    ray_fn = _RayFunction.build((f.f1, f.f2), mesh.u1, mesh.u2,
                                _Plan.of(f))
    n = len(mesh.eta)
    hi = np.where(np.arange(n) % 3 == 0, 1e9, 1.0)
    eps_list = EpsilonSchedule.for_radius(1.0).values()
    ladder = _solve_level_radius(ray_fn, hi, eps_list)
    assert all(a.shape == (len(eps_list), n) for a in ladder[:3])
    untrusted = np.zeros(3, dtype=int)
    for k, eps in enumerate(eps_list):
        rung = _solve_level_radius(ray_fn, hi, (eps,))
        for got, want in zip(ladder[:3], rung[:3], strict=True):
            assert want.shape == (1, n) and got.dtype == want.dtype
            assert got[k].tobytes() == want[0].tobytes()
        untrusted += rung.untrusted
    assert np.array_equal(ladder.untrusted, untrusted)
    if name == "1/100 ; 0":
        assert not untrusted.any() and not ladder[1].any()
    else:
        assert untrusted[2] > 0 and ladder[1].any()
    if name == "prop34(1/8,-1/8)":
        assert untrusted[1] > 0


@pytest.mark.parametrize("name", ["conj", LEADING_ZERO, "prop34(1/8,-1/8)"])
def test_crossings_below_the_radius_floor_are_counted(name, pv_mesh):
    # with lam_hi = 1e9 the floor is 1: every crossing the solve finds in
    # (1e-9, 1] with lam_hi = 1 lies below it, in closed form (conj) or
    # among the real roots (the others)
    f = ORACLE_FUNCTIONS[name]
    ray_fn = _RayFunction.build((f.f1, f.f2), pv_mesh.u1, pv_mesh.u2,
                                _Plan.of(f))
    n = len(pv_mesh.eta)
    eps = 0.3
    near_hi, far_hi = np.ones(n), np.full(n, 1e9)
    near = _solve_level_radius(ray_fn, near_hi, (eps,))
    far = _solve_level_radius(ray_fn, far_hi, (eps,))
    if ray_fn.plan.degree is None:
        # the crossing tables of the root solve at this eps
        def tables(hi):
            with np.errstate(all="ignore"):
                return _level_crossings(ray_fn, ray_fn.level_rows(),
                                        eps * eps,
                                        pairings._LAM_FLOOR_FACTOR * hi, hi)
        crossings, near_hidden = tables(near_hi)
        _, far_hidden = tables(far_hi)
        want = (crossings < np.inf).any(axis=1)
        assert np.array_equal(far_hidden, want)
        assert not near_hidden.any()
    else:
        # the closed form crosses at lam_star, or nowhere
        want = near.lam_star[0] < np.inf
    assert want.sum() > n // 4
    assert near.untrusted[2] == 0
    assert far.untrusted[2] == want.sum()


@pytest.mark.parametrize("kind", ["residue", "levelset"])
def test_level_sets_below_the_radius_floor_are_not_converged(kind):
    # the floor is 1e-9 of the support: at support 1e9 (1e12) it lies
    # above every level radius, so every ray seems to start at or above
    # eps.  The residue rungs were all exact zeros and the levelset rungs
    # all equal, either of which passed as converged
    sched = EpsilonSchedule(0.4, 0.7, 8)
    rule = build_quadrature(8, 8)
    if kind == "residue":
        est = residue_pair(builtin("conj").f,
                           TestForm2(phi22=Profile.bump_only(1e9)),
                           n_xi=rule.n_xi, schedule=sched)
        assert all(v.norm() == 0.0 for v in est.values)
    else:
        est = pv_pair(Z1_FN, TestForm3(psi1=Profile(ConjPoly.var("z1"), 1e12)),
                      rule=rule, schedule=sched, region="levelset")
        assert all(v == est.values[0] for v in est.values)
    assert not est.converged
    # every ray of every rung's mesh crosses below the floor
    if kind == "residue":
        rays = sum(len(graded_eta_panels(eps, 1e9)[0]) * 64
                   for eps in sched.values())
    else:
        rays = 8 * pv_rays(8, 8)
    note, = [n for n in est.notes if "below the radius floor" in n]
    assert note.startswith(f"over the ladder, {rays} rays cross")
    assert not any("not radial graphs" in n for n in est.notes)


def seeded_nodes(seed: int, n: int = 200):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, n))
    return z[0] + 1j * z[1], z[2] + 1j * z[3]


def test_levelset_region_with_no_ray_left_is_zero():
    # |f| = 1/100 lies below every eps on the ladder, so the excluded
    # sublevel set swallows the whole support and no ray is kept
    f = parse_qfunction("1/100 ; 0")
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    est = pv_pair(f, psi, rule=build_quadrature(8, 8),
                  schedule=EpsilonSchedule(0.3, 0.7, 3), region="levelset")
    assert all(v.norm() == 0.0 for v in est.values)


def test_levelset_rungs_before_any_open_shell_are_positive_zeros():
    # |f| = 1/100 + |z1|^2 / 10 lies below the first five eps on the whole
    # support, so no shell opens on those rungs: each is the sum of no
    # shell, 0, and prints as 0, not as the integrator's oriented -0
    f = parse_qfunction("0.01 + 0.1*z1*c1 ; 0")
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    est = pv_pair(f, psi, rule=build_quadrature(8, 8), region="levelset")
    zeros = [x for v in est.values[:5] for z in (v.z1, v.z2)
             for x in (z.real, z.imag)]
    assert all(math.copysign(1.0, x) == 1.0 and x == 0.0 for x in zeros)
    assert est.values[5].norm() > 0.0


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("region", ["metric", "levelset"])
def test_pv_rungs_do_not_depend_on_the_node_budget(monkeypatch, rows,
                                                   region):
    # the default budget takes every radial row of this small mesh in one
    # evaluation; one row at a time, or seven (a partial last chunk of a
    # shell's 12 Gauss rows and of the 24 log-spaced rows of the levelset
    # region's first and floor shells), must give the same sums
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    rule = build_quadrature(6, 8)
    sched = EpsilonSchedule(0.4, 0.7, 4)
    ref = pv_pair(NODE_SUM_FN, psi, rule=rule, schedule=sched, region=region)
    n_rays = len(rule.eta_nodes) * rule.n_xi ** 2
    monkeypatch.setattr(pairings, "_NODE_BUDGET", rows * n_rays)
    got = pv_pair(NODE_SUM_FN, psi, rule=rule, schedule=sched, region=region)
    for u, v in zip(got.values, ref.values):
        assert (u - v).norm() <= 1e-13 * v.norm()


def counting_terms(monkeypatch):
    """Record the node count of every evaluation of a folded density."""
    sizes = []
    terms = _PvDensity.terms

    def counted(self, lam, w):
        sizes.append(np.size(w))
        return terms(self, lam, w)

    monkeypatch.setattr(_PvDensity, "terms", counted)
    return sizes


@pytest.mark.parametrize("kind", ["residue", "metric", "levelset"])
def test_rows_wider_than_the_node_budget_go_in_ray_blocks(monkeypatch, kind):
    # a budget of 100 nodes is below one row of every mesh here (384 pv
    # rays, and thousands of active rays on a graded residue mesh), so
    # each row goes through in blocks of rays, the last one partial
    rule = build_quadrature(6, 8)
    sched = EpsilonSchedule(0.4, 0.7, 4)

    def run():
        if kind == "residue":
            return residue_pair(Z1_FN, PHI_PLANE, n_xi=rule.n_xi,
                                schedule=sched)
        psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
        return pv_pair(NODE_SUM_FN, psi, rule=rule, schedule=sched,
                       region=kind)

    ref = run()
    sizes = counting_terms(monkeypatch)
    monkeypatch.setattr(pairings, "_NODE_BUDGET", 100)
    got = run()
    assert max(sizes) == 100 and min(sizes) < 100
    for u, v in zip(got.values, ref.values):
        assert v.norm() > 0.0
        assert (u - v).norm() <= 1e-13 * v.norm()


def test_levelset_rungs_of_z1_match_the_excised_ball_integral():
    # for f = (z1, 0) and psi1 = z1 bump(|q|) the density is bump(|q|),
    # and |z1|^2 is uniform on the unit sphere, so the rung at eps is the
    # bump integrated over {|z1| >= eps} in the unit ball:
    # -8 pi^2 int_eps^1 (rho^3 - eps^2 rho) bump(rho) drho.  Each rung is
    # a sum of radial shells; the shells' quadrature must not add error
    # that grows down the ladder
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    est = pv_pair(Z1_FN, psi, rule=build_quadrature(64, 8), region="levelset")
    assert len(est.values) == 12
    for eps, v in zip(est.epsilons, est.values):
        rho = np.linspace(eps, 1.0, 400_001)
        want = -8 * math.pi ** 2 * float(np.trapezoid(
            (rho ** 3 - eps ** 2 * rho) * bump(rho), rho))
        assert abs(complex(v.z1) - want) <= 2e-5 * abs(want)


def test_levelset_region_evaluates_no_more_nodes_than_the_metric_region(
        monkeypatch):
    # each radial interval of a ray is integrated once, on one rung: the
    # level set costs no more density nodes than the metric shells
    # (2,359,296 on this rule and ladder)
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    rule = build_quadrature(16, 32)
    sizes = counting_terms(monkeypatch)
    pv_pair(NODE_SUM_FN, psi, rule=rule, region="metric")
    metric = sum(sizes)
    sizes.clear()
    pv_pair(NODE_SUM_FN, psi, rule=rule, region="levelset")
    assert metric == 12 * 12 * pv_rays(16, 32)
    assert sum(sizes) <= metric


def unit_rays(seed: int, n: int = 64):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.0, math.pi / 2, n)
    xi1, xi2 = rng.uniform(0.0, 2 * math.pi, (2, n))
    return sphere_to_complex(1.0, eta, xi1, xi2)


WIRT_VARS = ("z1", "z1b", "z2", "z2b")
TABLE_CASES = [(name, ()) for name in NAMES if name != "prop34"] + [
    ("prop34", (1, 2)), ("prop34", (Fraction(-1, 2), Fraction(3, 4)))]


def close(got, want, rtol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and np.abs(got - want).max() <= rtol * np.abs(want).max())


@pytest.mark.parametrize("name,params", TABLE_CASES,
                         ids=[f"{n}{list(p) or ''}" for n, p in TABLE_CASES])
def test_ray_tables_match_the_symbolic_evaluators(name, params):
    f = builtin(name, params).f
    rationals = [f.f1, f.f2] + [g.wirtinger(v) for g in (f.f1, f.f2)
                                for v in WIRT_VARS]
    u1, u2 = unit_rays(15)
    n = len(u1)
    ray_fn = _RayFunction.build(rationals, u1, u2, _Plan.of(f))
    rng = np.random.default_rng(16)
    shared = rng.uniform(0.05, 1.2, (5, 1))
    per_ray = rng.uniform(0.05, 1.2, (5, n))
    sel = np.sort(rng.choice(n, 23, replace=False))
    for fn, lam, rays in ((ray_fn, shared, slice(None)),
                          (ray_fn, per_ray, slice(None)),
                          (_take_rays(ray_fn, sel), per_ray[:, sel], sel)):
        Z1, Z2 = lam * u1[rays], lam * u2[rays]
        got = fn.values(lam)
        want = [r.eval_numeric(Z1, Z2) for r in rationals]
        assert len(got) == len(want) == 10
        for g, w in zip(got, want):
            if np.ndim(g) == 0:
                # a zero rational has no table
                assert g == 0 and not np.any(w)
            else:
                assert close(g, w)
        F1, F2 = want[:2]
        assert close(fn.modulus_sq(lam), np.abs(F1) ** 2 + np.abs(F2) ** 2)


def inverse_times(F1, F2, a, b):
    """Components of (1/f) * (a + b j) for f = F1 + F2 j, pointwise:
    (conj(F1) a + F2 conj(b), conj(F1) b - F2 conj(a)) / |f|^2."""
    r = 1.0 / (np.abs(F1) ** 2 + np.abs(F2) ** 2)
    c1 = np.conj(F1)
    return (c1 * a + F2 * np.conj(b)) * r, (c1 * b - F2 * np.conj(a)) * r


def unfolded_pv_density(f, psi, Z1, Z2):
    """The principal-value density as it was computed before the fold:
    (1/f) (a + b j) with a = f1_z1 psi1 + f1_z2 psi2 and
    b = f2_z2b conj(psi2) - f2_z1b conj(psi1), every factor evaluated
    separately at the nodes (Z1, Z2)."""
    def at(r):
        return np.broadcast_to(r.eval_numeric(Z1, Z2), Z1.shape)

    F1, F2 = at(f.f1), at(f.f2)
    f1_z1, f1_z2 = at(f.f1.wirtinger("z1")), at(f.f1.wirtinger("z2"))
    f2_z1b, f2_z2b = at(f.f2.wirtinger("z1b")), at(f.f2.wirtinger("z2b"))
    ps1, ps2 = (p.eval(Z1, Z2) for p in psi.coefficients)
    p_co = f1_z1 * ps1 + f1_z2 * ps2
    q_co = -(f2_z1b * np.conj(ps1) - f2_z2b * np.conj(ps2))
    return inverse_times(F1, F2, p_co, q_co)


def folded_pv_density(density, lam):
    parts = [0.0, 0.0]
    for part, term in density.terms(lam, 1.0):
        parts[part] = parts[part] + term
    return parts


FOLD_PSI = TestForm3(psi1=Profile(parse_poly("1 + z1*c2 - 2*c1^2"), 0.9),
                     psi2=Profile(parse_poly("3*z2 + c2*z1^2"), 1.3))
FOLD_CASES = TABLE_CASES + [("prop34", (Fraction(1, 8), Fraction(-1, 8)))]


@pytest.mark.parametrize("name,params", FOLD_CASES,
                         ids=[f"{n}{list(p) or ''}" for n, p in FOLD_CASES])
def test_folded_pv_density_matches_the_unfolded_formula(name, params):
    f = builtin(name, params).f
    u1, u2 = unit_rays(15)
    n = len(u1)
    density = pv_density(f, _fold(_pv_kernels(f), FOLD_PSI.coefficients),
                         u1, u2)
    rng = np.random.default_rng(17)
    shared = rng.uniform(0.05, 1.2, (5, 1))
    per_ray = rng.uniform(0.05, 1.2, (5, n))
    sel = np.sort(rng.choice(n, 23, replace=False))
    for dens, lam, rays in ((density, shared, slice(None)),
                            (density, per_ray, slice(None)),
                            (_take_rays(density, sel), per_ray[:, sel],
                             sel)):
        want = unfolded_pv_density(f, FOLD_PSI, lam * u1[rays],
                                   lam * u2[rays])
        got = folded_pv_density(dens, lam)
        scale = max(np.abs(w).max() for w in want)
        for g, w in zip(got, want):
            # a part with no surviving product is the exact zero
            assert np.abs(g - w).max() <= 1e-13 * scale
            assert np.ndim(g) == 0 or np.shape(g) == np.shape(w)
        if not scale:
            assert density.slots == ()


def test_ray_subsets_are_views_for_slices_and_copies_for_index_arrays():
    # _take_rays on a density with denominator tables and a bump of radial
    # z2, whose r is per ray: every per-ray array keeps its rays on the
    # last axis, and what is not per ray comes back unchanged
    f = parse_qfunction("(z1) / (1 + z1*c1) ; z2")
    g = modulus_function(f)
    u1, u2 = unit_rays(18)
    density = pv_density(
        f, _fold(_residue_kernels(f, g, True), PHI_PLANE.coefficients),
        u1, u2, np.linspace(0.5, 1.5, len(u1)))

    def polys(d):
        return ([p for t in d.ray_fn.items if t is not None
                 for p in (t.num, t.den) if p is not None]
                + [p for p in d.sizes if p is not None])

    def arrays(d):
        return ([p.c for p in polys(d)] + list(d.ray_fn.points.z)
                + [r for _, r in d.bumps if r is not None] + [d.w])

    assert any(t.den is not None for t in density.ray_fn.items)
    assert any(r is not None for _, r in density.bumps)
    for sel in (slice(5, 40), np.array([3, 3, 0, 50, 17])):
        sub = _take_rays(density, sel)
        for got, orig in zip(arrays(sub), arrays(density), strict=True):
            assert np.array_equal(got, orig[..., sel])
            assert np.shares_memory(got, orig) == isinstance(sel, slice)
        for p in polys(sub):
            assert all(row.flags.c_contiguous for row in p.c)
        assert [p.low for p in polys(sub)] == [p.low for p in polys(density)]
        assert sub.ray_fn.plan is density.ray_fn.plan
        assert sub.slots == density.slots
        assert all(a is b for (a, _), (b, _) in zip(sub.bumps,
                                                     density.bumps))


def pv_outcome(f, psi, rule, region):
    """pv_pair's estimate, or None where it refuses a pole on the domain."""
    try:
        return pv_pair(f, psi, rule=rule, region=region)
    except PoleOnDomain:
        return None


def node_sum_only(monkeypatch):
    """Make pv_pair evaluate the folded density at every node, whatever f."""
    monkeypatch.setattr(pairings, "_pv_integrand", lambda density: density)


def refused_terms(monkeypatch):
    """Make any evaluation of a folded density at the nodes fail."""
    def refuse(self, lam, w):
        raise AssertionError("the density was evaluated at the nodes")

    monkeypatch.setattr(_PvDensity, "terms", refuse)


SPLIT_CASES = {name: builtin(name).f for name in NAMES}
SPLIT_CASES["z1 ; 0"] = Z1_FN


@pytest.mark.parametrize("region", ["metric", "levelset"])
@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_ray_split_matches_the_node_sum(monkeypatch, name, region):
    # every catalogue entry at its default parameters is homogeneous, with
    # product denominators of one row, so pv_pair takes the split; the
    # node sum is its reference.  The rungs of z1 ; 0 and holo vanish by
    # symmetry and are rounding noise on both sides, so the scale is at
    # least 1, as in the estimate's own zero floor.  The ball keeps chart
    # rays of the zero plane of prop34 inside the metric region, and both
    # refuse them
    f = SPLIT_CASES[name]
    rule = build_quadrature(8, 16)
    with monkeypatch.context() as patch:
        refused_terms(patch)
        got = pv_outcome(f, FOLD_PSI, rule, region)
    node_sum_only(monkeypatch)
    want = pv_outcome(f, FOLD_PSI, rule, region)
    if name == "prop34" and region == "metric":
        assert got is None and want is None
        return
    scale = max(1.0, max(v.norm() for v in want.values))
    for u, v in zip(got.values, want.values):
        assert (u - v).norm() <= 1e-13 * scale
    assert got.converged == want.converged
    assert got.notes == want.notes


@pytest.mark.parametrize("region", ["metric", "levelset"])
@pytest.mark.parametrize("name,psi", [
    ("z1 ; 0", TestForm3(psi1=Profile(ConjPoly.var("z1") * 3, 1.0))),
    ("conj", TestForm3(psi2=Profile(ConjPoly.const(5), 1.0))),
], ids=["z1", "conj"])
def test_homogeneous_principal_values_never_evaluate_nodes(monkeypatch, name,
                                                           psi, region):
    # the functions and forms of the pv benchmark
    f = Z1_FN if name == "z1 ; 0" else builtin(name).f
    refused_terms(monkeypatch)
    est = pv_pair(f, psi, rule=build_quadrature(8, 16), region=region)
    assert all(np.isfinite(v.norm()) for v in est.values)


def one_segment(integrand, nodes) -> Quat:
    """The integrand over a whole node table, as one segment."""
    (z1,), (z2,) = integrand.radial(nodes, 1)
    return Quat(z1, z2)


def levelset_start(radii, end, support):
    """Each ray's start radius on one rung of the levelset region from the
    rung's level solve (a one-rung ladder), clamped to the starts end of
    the rung before, as _levelset_start gave it before one level solve
    served the ladder."""
    lam_star, active, inside = (a[0] for a in radii[:3])
    start = np.where(active, lam_star,
                     np.where(inside, support,
                              pairings._LAM_FLOOR_FACTOR * support))
    return np.minimum(start, end)


def per_rung_levelset_shell(integrand, start, end, support):
    """One rung's levelset shells [start, end], one integrator call per
    node kind, as _levelset_shell summed them."""
    open_ = start < end
    logged = open_ & ((end == support)
                      | (start == pairings._LAM_FLOOR_FACTOR * support))
    parts = []
    for rays, rule, order in (
            (logged, pairings._log_nodes, pairings._LOG_ORDER),
            (open_ & ~logged, pairings._gauss_nodes, pairings._SHELL_ORDER)):
        sel = np.flatnonzero(rays)
        if sel.size:
            nodes = _Nodes.shells(rule, order, start[None], end[None], sel)
            parts.append(one_segment(integrand, nodes))
    return sum(parts[1:], parts[0]) if parts else Quat(0.0, 0.0)


def per_rung_pv_pair(f, psi, rule, region):
    """pv_pair on the default ladder as it was before the ladder went
    through the integrator in one pass: one integrator call per metric
    shell, one per node kind on each rung's levelset shells, and the rungs
    summed down the ladder as Quats.  Kept as its reference."""
    support = psi.support_radius
    eps_list = EpsilonSchedule.for_radius(support).values()
    plan = _Plan.of(f)
    products = plan.fold(_pv_kernels(f), psi.coefficients)
    mesh = _RayMesh.build(rule.eta_nodes, rule.eta_weights,
                          1 if plan.averaged else rule.n_xi)
    density = pv_density(f, products, mesh.u1, mesh.u2, mesh.w)
    integrand = pairings._pv_integrand(density)
    untrusted = np.zeros(3, dtype=int)
    if region == "metric":
        edges = [quadrature.geometric_edges(eps_list[0], support,
                                            eps_list[0])]
        edges += [[a, b] for a, b in zip(eps_list[1:], eps_list)]
        shells = [one_segment(integrand, _Nodes.table(
                      lam[:, None], w[:, None], np.zeros(len(lam), int)))
                  for lam, w in (quadrature.gauss_panels(e, 12)
                                 for e in edges)]
        notes = ()
    else:
        weight = rule.n_xi ** 2 if plan.averaged else 1
        hi = np.full(len(mesh.eta), support)
        shells = []
        end = hi
        for eps in eps_list:
            radii = _solve_level_radius(density.ray_fn, hi, (eps,))
            untrusted += radii.untrusted * weight
            start = levelset_start(radii, end, support)
            shells.append(per_rung_levelset_shell(integrand, start, end,
                                                  support))
            end = start
        notes = (("excluded region follows the level sets of |f|",)
                 + pairings._level_notes(untrusted, 0))
    return finalize(eps_list, list(itertools.accumulate(shells)),
                    notes=notes, trusted=not untrusted.any(),
                    phases_averaged=plan.averaged)


LADDER_CASES = {
    # averaged over the phases
    "z1 ; 0": Z1_FN, "conj": builtin("conj").f,
    "cauchy_kernel": builtin("cauchy_kernel").f,
    # per ray: level sets that are not radial graphs, and chart rays in the
    # zero plane, which the ball refuses
    "prop34(1/8,-1/8)": builtin("prop34", (Fraction(1, 8),
                                           Fraction(-1, 8))).f,
    "prop34": builtin("prop34").f,
}


@pytest.mark.parametrize("split", [True, False], ids=["split", "node-sum"])
@pytest.mark.parametrize("region", ["metric", "levelset"])
@pytest.mark.parametrize("name", list(LADDER_CASES))
def test_one_pass_ladder_matches_the_per_rung_loop(monkeypatch, name, region,
                                                   split):
    # each shell lands on its own rung: every rung, note, verdict and
    # refusal as the per-rung loop gives them, up to the order of the sums
    f = LADDER_CASES[name]
    rule = build_quadrature(8, 16)
    if not split:
        node_sum_only(monkeypatch)
    got = pv_outcome(f, FOLD_PSI, rule, region)
    try:
        want = per_rung_pv_pair(f, FOLD_PSI, rule, region)
    except PoleOnDomain:
        want = None
    if name == "prop34" and region == "metric":
        assert got is None and want is None
        return
    # the rungs of z1 ; 0 vanish by symmetry, as in the estimate's zero floor
    scale = max(1.0, max(v.norm() for v in want.values))
    for u, v in zip(got.values, want.values, strict=True):
        assert (u - v).norm() <= 1e-14 * scale
    assert got.notes == want.notes
    assert got.converged == want.converged
    assert got.phases_averaged == want.phases_averaged
    if name == "prop34(1/8,-1/8)" and region == "levelset":
        assert any("not radial graphs" in n for n in got.notes)


class CountedIntegrand:
    """An integrand that records each of its radial calls."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls

    def radial(self, *args):
        self.calls.append(type(self.inner))
        return self.inner.radial(*args)


@pytest.mark.parametrize("count", [3, 24])
@pytest.mark.parametrize("split", [True, False], ids=["split", "node-sum"])
@pytest.mark.parametrize("region", ["metric", "levelset"])
def test_a_ladder_is_integrated_in_one_pass(monkeypatch, region, split,
                                            count):
    # one integrator call for the ball's shells, and one per node kind (log
    # and Gauss) for the sublevel set's, however long the ladder
    calls = []
    make = pairings._pv_integrand if split else (lambda density: density)
    monkeypatch.setattr(pairings, "_pv_integrand", lambda density:
                        CountedIntegrand(make(density), calls))
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    est = pv_pair(Z1_FN, psi, rule=build_quadrature(8, 16),
                  schedule=EpsilonSchedule(0.5, 0.7, count), region=region)
    assert len(est.values) == count
    assert calls == [_RaySplit if split else _PvDensity] * (
        1 if region == "metric" else 2)


def quat_finalize(epsilons, values):
    """diff_ratios, converged and extrapolated of finalize(epsilons,
    values) through Quat subtraction and Quat.norm, as finalize took them
    before it went to arrays.  Kept as its reference."""
    norms = [v.norm() for v in values]
    floor = ZERO_FLOOR * max(1.0, max(norms))
    diffs = [(values[i + 1] - values[i]).norm()
             for i in range(len(values) - 1)]
    ratios = tuple(None if diffs[i] == 0.0 and diffs[i + 1] != 0.0
                   else diffs[i + 1] / max(diffs[i], 1e-300)
                   for i in range(len(diffs) - 1))
    window = min(4, len(ratios))
    tail_ok = [(ratios[i] is not None and ratios[i] < 0.8)
               or diffs[i + 1] < floor
               for i in range(len(ratios) - window, len(ratios))]
    lost = any(b == 0.0 and a > floor for a, b in zip(norms, norms[1:]))
    converged = len(values) >= 5 and not lost and all(tail_ok)
    m = min(5, len(values))
    t = np.array(epsilons[-m:], dtype=float) / epsilons[-1]
    a = np.stack([np.ones(m), t, t * t], axis=1).astype(complex)
    b = np.array([[complex(v.z1), complex(v.z2)] for v in values[-m:]],
                 dtype=complex)
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return ratios, converged, (complex(coef[0, 0]), complex(coef[0, 1]))


@pytest.mark.parametrize("kind", ["residue", "metric", "levelset",
                                  "prop34", "seeded", "cone"])
def test_finalize_on_arrays_is_bit_identical_to_the_quat_formulas(kind):
    # the README's residue and pv ladders, whose j parts are 0, one with
    # both parts, seeded rungs, where the order in which a norm sums its
    # four squares shows, and rungs that step after flat stretches, whose
    # ratio there is None
    if kind == "seeded":
        z = np.random.default_rng(5).normal(size=(12, 4))
        values = [Quat(complex(a, b), complex(c, d)) for a, b, c, d in z]
        est = finalize(EpsilonSchedule(0.4, 0.7, 12).values(), values)
    elif kind == "residue":
        est = residue_pair(Z1_FN, PHI_PLANE, n_xi=16,
                           schedule=EpsilonSchedule(0.4, 0.7, 12))
    elif kind == "prop34":
        est = pv_pair(LADDER_CASES["prop34(1/8,-1/8)"], FOLD_PSI,
                      rule=build_quadrature(8, 16))
        assert all(complex(v.z2) != 0j for v in est.values)
    elif kind == "cone":
        est = pv_pair(parse_qfunction("(z1*c1) / (z1*c1 + z2*c2) ; 0"),
                      TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0)),
                      rule=build_quadrature(8, 8), region="levelset")
        assert None in est.diff_ratios
    else:
        psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
        est = pv_pair(Z1_FN, psi, rule=build_quadrature(16, 32),
                      region=kind)
    ratios, converged, extrapolated = quat_finalize(est.epsilons, est.values)
    assert ([None if r is None else r.hex() for r in est.diff_ratios]
            == [None if r is None else r.hex() for r in ratios])
    assert est.converged == converged
    assert (complex(est.extrapolated.z1),
            complex(est.extrapolated.z2)) == extrapolated


@pytest.mark.parametrize("split", [True, False], ids=["split", "node-sum"])
def test_a_zero_on_the_mesh_rays_is_a_pole_only_where_it_is_integrated(
        monkeypatch, split):
    # z1 - c1 = 2i Im z1 vanishes exactly on the rays xi1 = 0.  The ball
    # leaves them inside the metric region; the sublevel set |f| < eps
    # swallows them whole, so no levelset shell lies on them
    f = parse_qfunction("z1 - c1 ; 0")
    if not split:
        node_sum_only(monkeypatch)
    psi = TestForm3(psi1=Profile(ConjPoly.var("z1"), 1.0))
    rule = build_quadrature(4, 8)
    with pytest.raises(PoleOnDomain, match="singular inside"):
        pv_pair(f, psi, rule=rule, region="metric")
    est = pv_pair(f, psi, rule=rule, region="levelset")
    assert all(np.isfinite(v.norm()) for v in est.values)
    assert max(v.norm() for v in est.values) > 0.0


@pytest.mark.parametrize("split", [True, False], ids=["split", "node-sum"])
def test_rays_in_the_zero_set_are_refused_or_carry_no_mass(monkeypatch,
                                                           split):
    # the phase grid holds pi/2 and 3 pi/2 when 4 divides n_xi, and so chart
    # rays in the zero plane {Re z1 = Re z2 = 0} of prop34, where |f| is
    # about 1e-16 of its term size and 1/f rounding noise times 1e16: the
    # metric region once summed it into a converged -1.4e13 at n_xi = 32.
    # The pairing vanishes by symmetry; no other rule may give a value
    f = builtin("prop34").f
    if not split:
        node_sum_only(monkeypatch)
    psi = TestForm3(psi1=Profile.bump_only(1.0))
    outcomes = {n_xi: pv_outcome(f, psi, build_quadrature(16, n_xi), "metric")
                for n_xi in (16, 30, 32, 62, 64)}
    assert [n for n, est in outcomes.items() if est is None] == [16, 32, 64]
    for est in outcomes.values():
        if est is not None:
            assert est.converged
            assert max(v.norm() for v in est.values) < 1e-12


def test_residue_builds_no_eta_rule(monkeypatch):
    # each rung grades its own eta panels of 14-node Gauss-Legendre rules
    # (graded_eta_panels); no QuadratureRule is built, and no other order
    # of nodes is computed
    def build(*args):
        raise AssertionError("a quadrature rule or a mesh was built")

    orders = []
    real = quadrature.gauss_legendre
    monkeypatch.setattr(quadrature, "gauss_legendre",
                        lambda n: orders.append(n) or real(n))
    monkeypatch.setattr(quadrature, "build_quadrature", build)
    monkeypatch.setattr(pairings, "build_quadrature", build)
    est = residue_pair(Z1_FN, PHI_PLANE, n_xi=8,
                       schedule=EpsilonSchedule(0.4, 0.7, 3))
    assert len(est.values) == 3 and set(orders) == {14}
    # too coarse a phase rule is refused before any mesh
    monkeypatch.setattr(pairings._RayMesh, "build", classmethod(build))
    with pytest.raises(TooCoarse, match="need n_xi >= 8"):
        residue_pair(Z1_FN, PHI_PLANE, n_xi=4)


def test_a_residue_rung_tabulates_f_once(monkeypatch):
    # the level solve's tables of f1 and f2 serve the density on the active
    # rays: one _RayFunction.build of them per rung, and no mesh is copied
    built, taken = [], []
    build = _RayFunction.__dict__["build"].__func__
    take = pairings._take_rays

    def spy_build(cls, rationals, *args):
        built.append(tuple(rationals))
        return build(cls, rationals, *args)

    def spy_take(tree, sel):
        taken.append(type(tree))
        return take(tree, sel)

    monkeypatch.setattr(_RayFunction, "build", classmethod(spy_build))
    monkeypatch.setattr(pairings, "_take_rays", spy_take)
    residue_pair(NODE_SUM_FN, MIXED_PHI, n_xi=8,
                 schedule=EpsilonSchedule(0.4, 0.7, 4))
    # the other builds tabulate the products alone
    f12 = (NODE_SUM_FN.f1, NODE_SUM_FN.f2)
    assert [r[:2] == f12 for r in built].count(True) == 4
    assert _RayFunction in taken and _RayMesh not in taken


def test_residue_rays_in_the_zero_set_are_inactive():
    # the same rays lie below eps over their whole support, so no residue
    # rung integrates them and the pole test does not see them
    est = residue_pair(builtin("prop34").f, PHI_PLANE, n_xi=16,
                       schedule=EpsilonSchedule(0.4, 0.7, 4))
    assert all(np.isfinite(v.norm()) and 1.0 < v.norm() < 10.0
               for v in est.values)


MIXED_PHI = TestForm2(Profile(parse_poly("1 + z1*c2 - 2*c1^2"), 0.9, "q"),
                      Profile(parse_poly("3*z2 + c2*z1^2"), 1.3, "z1"),
                      Profile(parse_poly("z1 - 2i"), 0.7, "z2"),
                      Profile(parse_poly("c1*z2 - 1"), 1.1, "q"))


def surface_residue_nodes(f, phi, rays, lam, include_mirror):
    """The residue integrand at the level radii lam of the rays as the
    surface route computed it, oriented and weighted, with no transversality
    mask: graph slopes d(lam*)/d(eta, xi1, xi2) by implicit differentiation
    of |f|^2 = eps^2 through the chart Jacobian, the four 3-form monomials
    pulled back as 3x3 determinants of the graph's tangent rows, and the
    density (1/f) (alpha + beta j) from separately evaluated factors.
    Returns both components and d|f|^2/dlam."""
    jac = chart_jacobian(lam, rays.eta, rays.xi1, rays.xi2)
    Z1, Z2 = sphere_to_complex(lam, rays.eta, rays.xi1, rays.xi2)

    def at(r):
        return np.broadcast_to(r.eval_numeric(Z1, Z2), Z1.shape)

    F1, F2 = at(f.f1), at(f.f2)
    D1 = [at(f.f1.wirtinger(v)) for v in WIRT_VARS]
    D2 = [at(f.f2.wirtinger(v)) for v in WIRT_VARS]
    ph11, ph12, ph21, ph22 = (np.zeros(Z1.shape) if p is None
                              else p.eval(Z1, Z2) for p in phi.coefficients)
    dg = [2.0 * (np.conj(F1) * sum(d * jac[w, a] for w, d in enumerate(D1))
                 + np.conj(F2) * sum(d * jac[w, a] for w, d in enumerate(D2))
                 ).real for a in range(4)]
    slopes = -np.stack(dg[1:]) / dg[0]
    rows = jac[:, 1:] + jac[:, :1] * slopes

    def pullback(*triple):
        return np.linalg.det(np.moveaxis(rows[list(triple)], -1, 0))

    px, py = pullback(0, 1, 2), pullback(0, 2, 3)
    pxp, pyp = pullback(0, 1, 3), pullback(1, 2, 3)
    f1_z1, f1_z1b, f1_z2, f1_z2b = D1
    f2_z1, f2_z1b, f2_z2, f2_z2b = D2
    alpha = ((-f1_z1 * ph21 + f1_z2 * ph11) * px
             + (f1_z1 * ph22 - f1_z2 * ph12) * py)
    beta = ((f2_z1b * np.conj(ph21) - f2_z2b * np.conj(ph11)) * np.conj(px)
            + (-f2_z1b * np.conj(ph22) - f2_z2b * np.conj(ph12))
            * np.conj(py))
    if include_mirror:
        alpha = alpha + ((f1_z2b * ph11 - f1_z1b * ph12) * pxp
                         + (f1_z1b * ph22 - f1_z2b * ph21) * pyp)
        beta = beta + ((f2_z1 * np.conj(ph12) - f2_z2 * np.conj(ph11)) * px
                       + (-f2_z1 * np.conj(ph22) + f2_z2 * np.conj(ph21))
                       * py)
    c1, c2 = inverse_times(F1, F2, alpha, beta)
    w = ORIENTATION_3FORM * rays.w
    return w * c1, w * c2, dg[0]


def leray_residue_nodes(density, lam):
    """The residue integrand of the folded density at the level radii lam,
    per node, with the Leray weight 1 / (d|f|^2/dlam) and no mask."""
    _, slope = density.ray_fn.modulus_sq_slope(lam)
    w = 4.0 * lam ** 3 * density.w / slope
    parts = [0.0, 0.0]
    for part, term in density.terms(lam, w):
        parts[part] = parts[part] + term
    return [ORIENTATION_3FORM * p for p in parts]


RESIDUE_ORACLE_PHI = {
    "mixed": MIXED_PHI,
    "z2-cylinder": TestForm2(
        phi11=Profile(parse_poly("z1*c2 + 1"), 1.2, "z2"),
        phi22=Profile(parse_poly("c2"), 0.8, "z2")),
}
ILL_CONDITIONED = ("prop34", (Fraction(1, 8), Fraction(-1, 8)))
RESIDUE_CASES = [(name, ()) for name in NAMES] + [
    case for case in FOLD_CASES if case[0] == "prop34"]


@pytest.mark.parametrize("mirror", [True, False], ids=["mirror", "no-mirror"])
@pytest.mark.parametrize("phi_name", list(RESIDUE_ORACLE_PHI))
@pytest.mark.parametrize("name,params", RESIDUE_CASES,
                         ids=[f"{n}{list(p) or ''}" for n, p in RESIDUE_CASES])
def test_leray_residue_density_matches_the_surface_pullbacks(
        name, params, phi_name, mirror):
    # at the level-set nodes of a graded rung mesh, and summed over a rung
    # with the non-transverse nodes dropped, as residue_pair sums it
    f = builtin(name, params).f
    phi = RESIDUE_ORACLE_PHI[phi_name]
    eps = 0.3
    support = phi.support_radius
    if name == "cauchy_kernel":
        # |f| = |q|^-3 falls along every ray: its level sphere |q| = 1.49
        # lies inside a support of radius 2
        phi = TestForm2(*(None if p is None
                          else Profile(p.poly, 2.0 * p.R, p.radial)
                          for p in phi.coefficients))
        support = phi.support_radius
    eta_nodes, eta_weights = graded_eta_panels(eps, support)
    rule = build_quadrature(6, 8)
    mesh = _RayMesh.build(eta_nodes, eta_weights, rule.n_xi)
    lam_star = _solve_level_radius(
        _RayFunction.build((f.f1, f.f2), mesh.u1, mesh.u2,
                                _Plan.of(f)),
        phi.support_lambda(mesh.eta), (eps,)).lam_star[0]
    sel = np.flatnonzero(lam_star < np.inf)
    assert len(sel) > 100
    rays, lam = _take_rays(mesh, sel), lam_star[sel]
    ref = RayParams.of(eta_nodes, eta_weights, rule).take(sel)
    density = pv_density(
        f, _fold(_residue_kernels(f, modulus_function(f), mirror),
                 phi.coefficients),
        rays.u1, rays.u2, rays.w)
    old1, old2, g_lam = surface_residue_nodes(f, phi, ref, lam, mirror)
    new1, new2 = leray_residue_nodes(density, lam)
    size = np.maximum(np.abs(old1), np.abs(old2))
    # a folded product vanishes to second order on the zero set of f (f
    # and the derivatives of g both vanish there), so its monomials lose
    # (lam / eps)^2 units of roundoff at a node; the surface route's
    # factors vanish to first order.  That term matters only where a level
    # set runs far out inside a z1 or z2 cylinder (the prop34 planes)
    tol = 1e-12 * size.max() + 16 * 2.0 ** -52 * (lam / eps) ** 2 * size
    if (name, params) == ILL_CONDITIONED:
        # near-tangent rays: the surface route's own change when every
        # level radius moves by one ulp
        moved = surface_residue_nodes(f, phi, ref,
                                      np.nextafter(lam, np.inf), mirror)
        tol = tol + np.maximum(np.abs(moved[0] - old1),
                               np.abs(moved[1] - old2))
    for new, old in ((new1, old1), (new2, old2)):
        assert np.all(np.abs(np.broadcast_to(new, old.shape) - old) <= tol)
    # the rung: transverse nodes only, summed
    transverse = g_lam > 0.0
    value, dropped = _residue_rung(density, lam)
    assert dropped == np.count_nonzero(~transverse)
    for got, old in ((value.z1, old1), (value.z2, old2)):
        want = old[transverse].sum()
        assert abs(complex(got) - want) <= tol[transverse].sum()


TORUS_CASES = {name: builtin(name).f for name in NAMES if name != "prop34"}
TORUS_CASES["z1 ; 0"] = Z1_FN
# torus-invariant but not homogeneous: the level solve takes the roots of
# a polynomial, and principal values take the node sum
TORUS_CASES["|z1|^2 - 1/4 + |z2|^4"] = parse_qfunction(
    "z1*c1 - 1/4 + z2*c2*z2*c2 ; 0")
PER_RAY_CASES = {"prop34": builtin("prop34").f,
                 "holo:z1+z2": builtin("holo", expr="z1+z2").f}
COLLAPSE_N_ETA = 8
COLLAPSE_N_XI = 16
COLLAPSE_LADDER = EpsilonSchedule(0.4, 0.7, 8)


def collapse_call(kind, f, n_xi):
    if kind == "residue":
        return residue_pair(f, MIXED_PHI, n_xi=n_xi, schedule=COLLAPSE_LADDER)
    return pv_pair(f, FOLD_PSI, rule=build_quadrature(COLLAPSE_N_ETA, n_xi),
                   region=kind)


def collapse_products(kind, f):
    """The folded density of collapse_call."""
    if kind == "residue":
        return _fold(_residue_kernels(f, modulus_function(f), True),
                     MIXED_PHI.coefficients)
    return _fold(_pv_kernels(f), FOLD_PSI.coefficients)


def phase_degree(products):
    """The largest phase frequency |a - b| or |c - d| of a folded product's
    numerator monomial z1^a conj(z1)^b z2^c conj(z2)^d."""
    return max((max(abs(a - b), abs(c - d)) for _, _, r in products
                for a, b, c, d in r.num.terms), default=0)


def eta_nodes_per_rung(kind):
    """Eta nodes of each rung's mesh of collapse_call."""
    if kind == "residue":
        return [len(graded_eta_panels(eps, MIXED_PHI.support_radius)[0])
                for eps in COLLAPSE_LADDER.values()]
    if kind == "levelset":
        ladder = EpsilonSchedule.for_radius(FOLD_PSI.support_radius)
        return [COLLAPSE_N_ETA] * ladder.count
    return []


def rungs_per_solve(kind):
    """Rungs of each level solve call of collapse_call: the whole ladder in
    one call for the levelset region, one rung per call for the residue."""
    etas = eta_nodes_per_rung(kind)
    return [len(etas)] if kind == "levelset" else [1] * len(etas)


def spied_call(monkeypatch, kind, f, per_ray, n_xi=COLLAPSE_N_XI):
    """collapse_call, with the phase average off when per_ray; also returns
    the rays that each rung's level solve takes, the untrusted counts behind
    the notes and the rungs of each level solve call."""
    rays, counts, solves = [], [], []
    solve, notes = pairings._solve_level_radius, pairings._level_notes
    plan_of = _Plan.of

    def spy_solve(ray_fn, lam_hi, eps):
        solves.append(len(eps))
        rays.extend([np.size(lam_hi)] * len(eps))
        return solve(ray_fn, lam_hi, eps)

    def spy_notes(untrusted, cones):
        counts.append(tuple(untrusted))
        return notes(untrusted, cones)

    with monkeypatch.context() as patch:
        patch.setattr(pairings, "_solve_level_radius", spy_solve)
        patch.setattr(pairings, "_level_notes", spy_notes)
        if per_ray:
            patch.setattr(_Plan, "of", lambda f: dataclasses.replace(
                plan_of(f), averaged=False))
        return collapse_call(kind, f, n_xi), rays, counts, solves


# each case at COLLAPSE_N_XI keeps its plain id, name-kind
TORUS_CALLS = [pytest.param(name, kind, n_xi, id=f"{name}-{kind}" + (
                   "" if n_xi == COLLAPSE_N_XI else f"-n_xi{n_xi}"))
               for name in TORUS_CASES
               for kind in ("metric", "levelset", "residue")
               for n_xi in (COLLAPSE_N_XI, 8)]


@pytest.mark.parametrize("name,kind,n_xi", TORUS_CALLS)
def test_torus_invariant_level_sets_are_solved_once_per_eta_node(
        monkeypatch, name, kind, n_xi):
    # |f| of these depends on |z1| and |z2| only, so the pairing is averaged
    # over the phases on one ray per eta node; the per-ray path is the
    # reference, and its n_xi-node trapezoid rule per phase is exact below
    # phase degree n_xi, so above the density's degree the two agree to
    # rounding
    f = TORUS_CASES[name]
    assert phase_degree(collapse_products(kind, f)) < n_xi
    got, rays, counts, solves = spied_call(monkeypatch, kind, f, False, n_xi)
    want, all_rays, all_counts, all_solves = spied_call(monkeypatch, kind, f,
                                                        True, n_xi)
    assert got.phases_averaged and not want.phases_averaged
    assert len(got.values) == len(want.values)
    scale = max(1.0, max(v.norm() for v in want.values))
    for u, v in zip(got.values, want.values):
        assert (u - v).norm() <= 1e-13 * max(1.0, v.norm())
        assert (u - v).norm() <= 1e-14 * scale
    assert got.converged == want.converged
    assert got.notes == want.notes
    assert counts == all_counts
    etas = eta_nodes_per_rung(kind)
    assert rays == etas
    assert all_rays == [n * n_xi ** 2 for n in etas]
    assert solves == all_solves == rungs_per_solve(kind)


@pytest.mark.parametrize("kind", ["levelset", "residue"])
@pytest.mark.parametrize("name", list(PER_RAY_CASES))
def test_other_level_sets_are_solved_on_every_ray(monkeypatch, kind, name):
    _, rays, _, solves = spied_call(monkeypatch, kind, PER_RAY_CASES[name],
                                    False)
    assert rays == [n * COLLAPSE_N_XI ** 2 for n in eta_nodes_per_rung(kind)]
    assert solves == rungs_per_solve(kind)


def test_metric_meshes_take_one_ray_per_eta_node_when_averaged(monkeypatch):
    # the metric region solves no level set, so count its chart mesh
    sizes = []
    build = _RayMesh.build

    def spy(eta_nodes, eta_weights, n_xi):
        mesh = build(eta_nodes, eta_weights, n_xi)
        sizes.append(len(mesh.eta))
        return mesh

    monkeypatch.setattr(_RayMesh, "build", spy)
    for f in TORUS_CASES.values():
        collapse_call("metric", f, COLLAPSE_N_XI)
    assert sizes == [COLLAPSE_N_ETA] * len(TORUS_CASES)
    sizes.clear()
    for name, f in PER_RAY_CASES.items():
        try:
            collapse_call("metric", f, COLLAPSE_N_XI)
        except PoleOnDomain:
            # prop34 keeps chart rays of its zero plane inside the ball
            assert name == "prop34"
    assert sizes == [COLLAPSE_N_ETA * COLLAPSE_N_XI ** 2] * len(PER_RAY_CASES)


@pytest.mark.parametrize("kind", ["pv", "residue"])
def test_torus_invariant_densities_have_phase_free_denominators(kind):
    # a real denominator with a phase cannot cancel out of |f|^2, so a
    # torus-invariant f reads only denominators in |z1|^2 and |z2|^2, and
    # the phase average of a product is that of its numerator
    cases = dict(TORUS_CASES)
    cases["|z1|^2 / (1 + |z1|^2)^2"] = parse_qfunction(
        "(z1) / (1 + z1*c1) ; 0")
    for f in cases.values():
        assert _Plan.of(f).averaged
        for r in (f.f1, f.f2) + tuple(
                r for _, _, r in collapse_products(kind, f)):
            assert r.den.phase_average() == r.den
    assert not _Plan.of(parse_qfunction("(1) / (1 + z1 + c1) ; 0")).averaged


HOMOGENEOUS_DENOMINATORS = ("(z1*c2) / (z1*c1 + z2*c2) ; "
                            "(z2^2) / (z1*c1 + z2*c2)", "(z1) / (z1*c1) ; 0")


@pytest.mark.parametrize("kind", ["pv", "residue"])
def test_homogeneous_densities_have_homogeneous_denominators(kind):
    # a product denominator is made from those of f1, f2 and |f|^2 by
    # products, conjugation and the cancelling of real monomials, all of
    # which keep a polynomial homogeneous: for an f of a plan degree every
    # folded product has a denominator of one total degree, one row of its
    # ray table, which the split needs.  A shared denominator 1 + |z1|^2
    # gives products of several degrees
    cases = {**ORACLE_FUNCTIONS, **GOLDEN_FUNCTIONS, **TORUS_CASES}
    cases.update((text, parse_qfunction(text))
                 for text in HOMOGENEOUS_DENOMINATORS)
    homogeneous = 0
    for name, f in cases.items():
        degrees = [{sum(key) for key in r.den.terms}
                   for _, _, r in collapse_products(kind, f)]
        if _Plan.of(f).degree is not None:
            homogeneous += 1
            assert all(len(d) == 1 for d in degrees), name
        elif name == "shared-den":
            assert any(len(d) > 1 for d in degrees)
    assert homogeneous == 9


@pytest.mark.parametrize("kind", ["residue", "metric", "levelset", "(0,1)"])
def test_modulus_is_computed_once_per_pairing(kind, monkeypatch):
    # |f|^2 is folded into the kernels, decides the phase average and gives
    # the rows of the root solve (NODE_SUM_FN is not homogeneous), from one
    # exact computation per call
    calls = []

    def spy(f):
        calls.append(f)
        return modulus_function(f)

    monkeypatch.setattr(pairings, "modulus_function", spy)
    schedule = EpsilonSchedule(0.5, 0.7, 4)
    if kind == "residue":
        est = residue_pair(NODE_SUM_FN, MIXED_PHI, n_xi=8, schedule=schedule)
    else:
        est = pv_pair(NODE_SUM_FN, FOLD_PSI, rule=build_quadrature(4, 8),
                      schedule=schedule,
                      region="metric" if kind == "metric" else "levelset",
                      part="(0,1)" if kind == "(0,1)" else "(1,0)")
    assert any(v.norm() > 0.0 for v in est.values)
    assert calls == [NODE_SUM_FN]


@pytest.mark.parametrize("region", ["metric", "levelset"])
def test_odd_pairings_average_to_exact_zeros(monkeypatch, region):
    # every folded product of conj against psi2 = bump carries a phase, so
    # none survives the average, and the rungs are exact zeros rather than
    # rounding noise; the pole test still runs on the rays
    f = builtin("conj").f
    psi = TestForm3(psi2=Profile.bump_only(1.0))
    assert _fold(_pv_kernels(f), psi.coefficients)
    assert _Plan.of(f).fold(_pv_kernels(f), psi.coefficients) == []
    tested = []
    off_zero_set = _PvDensity.off_zero_set
    monkeypatch.setattr(_PvDensity, "off_zero_set", lambda self, lam, g: (
        tested.append(np.size(g)) or off_zero_set(self, lam, g)))
    est = pv_pair(f, psi, rule=build_quadrature(16, 32), region=region)
    assert tested == [16]
    assert est.phases_averaged
    assert all(complex(v.z1) == 0j and complex(v.z2) == 0j
               for v in est.values)


def shared_radial(density, lam):
    """_pv_radial over rows lam of radii shared by every ray, of weight 1,
    as one segment."""
    (z1,), (z2,) = _pv_radial(density,
                              _Nodes.table(lam, np.ones(np.shape(lam)),
                                           np.zeros(len(lam), dtype=int)),
                              1, ORIENTATION_4FORM)
    return Quat(z1, z2)


@pytest.mark.parametrize("kind", ["pv", "residue"])
def test_pole_on_a_ray_node_is_reported(kind):
    # cauchy_kernel has its pole at the origin: a radial row at lam = 0
    # evaluates to nan there and the radial sum refuses it, for either
    # folded density
    f = builtin("cauchy_kernel").f
    if kind == "pv":
        products = _fold(_pv_kernels(f), (Profile(ConjPoly.var("z1"), 1.0),
                                          None))
    else:
        products = _fold(_residue_kernels(f, modulus_function(f), True),
                         MIXED_PHI.coefficients)
    mesh = _RayMesh.build(*graded_eta_panels(0.3, 1.0), 8)
    density = pv_density(f, products, mesh.u1, mesh.u2, mesh.w)
    assert density.slots
    lam = np.array([[0.0], [0.5]])
    F1 = density.ray_fn.values(lam)[0]
    assert np.isnan(F1[0]).all() and np.isfinite(F1[1]).all()
    with pytest.raises(PoleOnDomain, match="singular inside"):
        shared_radial(density, lam)
    assert np.isfinite(complex(shared_radial(density, lam[1:]).z1))


def test_pole_is_reported_when_no_product_survives_the_fold():
    # f = 1/|z1|^2 blows up on the plane z1 = 0; against psi2 alone every
    # kernel product is identically zero, so only the explicit check on
    # |f|^2 can see the pole
    f = QFunction(ConjRational(ConjPoly.one(), parse_poly("z1*c1")),
                  ConjRational.zero())
    psi = TestForm3(psi2=Profile.bump_only(1.0))
    mesh = _RayMesh.build(*graded_eta_panels(0.3, 1.0), 8)
    density = pv_density(f, _fold(_pv_kernels(f), psi.coefficients),
                         mesh.u1, mesh.u2, mesh.w)
    assert density.slots == ()
    # at lam = 0, f = inf + nan j; at lam = 1e-100, f is finite but |f|^2
    # overflows to inf, where 1/|f|^2 = 0 would pass a finiteness check
    for pole in (0.0, 1e-100):
        lam = np.array([[pole], [0.5]])
        with pytest.raises(PoleOnDomain, match="singular inside"):
            shared_radial(density, lam)
    val = shared_radial(density, np.array([[0.5]]))
    assert val.norm() == 0.0


def test_inverse_times_f_is_one():
    F1, F2 = builtin("cauchy_kernel").f.eval_numeric(*seeded_nodes(14))
    c1, c2 = inverse_times(F1, F2, F1, F2)
    assert np.abs(c1 - 1.0).max() < 1e-14
    assert np.abs(c2).max() < 1e-14


def oversized_pv_rule() -> QuadratureRule:
    """A 4 x 2048 rule, 2^24 chart rays, built by hand: build_quadrature
    refuses it itself, so pv_pair's own check is what it reaches."""
    small = build_quadrature(4, 8)
    return QuadratureRule(4, 2048, small.eta_nodes, small.eta_weights)


def faulty_pairing(kind: str, faults):
    """A call of residue_pair or pv_pair with the named faults: "form" (a
    zero test form), "ladder" (one that starts outside the support),
    "mesh" (beyond the ray cap) and "f" (f = 0)."""
    zero = QFunction(ConjRational.zero(), ConjRational.zero())
    f = zero if "f" in faults else Z1_FN
    ladder = EpsilonSchedule(2.0 if "ladder" in faults else 0.3, 0.7, 3)
    if kind == "residue":
        return functools.partial(
            residue_pair, f, TestForm2() if "form" in faults else PHI_PLANE,
            n_xi=4096 if "mesh" in faults else 8, schedule=ladder)
    psi = TestForm3() if "form" in faults else TestForm3(
        psi1=Profile.bump_only(1.0))
    rule = oversized_pv_rule() if "mesh" in faults else build_quadrature(4, 8)
    return functools.partial(pv_pair, f, psi, rule=rule, schedule=ladder)


# in the order the pairings check them
PAIRING_FAULTS = {
    "form": (ValueError, "^test form is identically zero$"),
    "ladder": (ValueError,
               "^schedule must start inside the test-form support$"),
    "mesh": (RuleTooLarge, "chart rays per mesh"),
    "f": (IdenticallyZero, "^f is identically zero"),
}


@pytest.mark.parametrize("kind", ["residue", "pv"])
@pytest.mark.parametrize("faults", [
    ("form",), ("ladder",), ("mesh",), ("f",),
    ("form", "ladder", "mesh", "f"), ("ladder", "mesh", "f"), ("mesh", "f"),
], ids="+".join)
def test_both_pairings_refuse_the_same_inputs_in_one_order(kind, faults):
    # each fault is refused alone, and before every fault later in the
    # order: the form, the ladder, the mesh size, then f
    error, message = PAIRING_FAULTS[faults[0]]
    with pytest.raises(error, match=message):
        faulty_pairing(kind, faults)()


def test_pv_requires_full_modulus_support():
    psi = TestForm3(psi1=Profile(ConjPoly.one(), 1.0, radial="z1"))
    with pytest.raises(ValueError, match="full modulus"):
        pv_pair(Z1_FN, psi)


def test_bad_region_and_part_are_rejected():
    psi = TestForm3(psi1=Profile.bump_only(1.0))
    with pytest.raises(ValueError, match="region"):
        pv_pair(Z1_FN, psi, rule=build_quadrature(8, 8),
                schedule=EpsilonSchedule(0.3, 0.7, 3), region="disc")
    with pytest.raises(ValueError, match="part"):
        pv_pair(Z1_FN, psi, rule=build_quadrature(8, 8),
                schedule=EpsilonSchedule(0.3, 0.7, 3), part="(2,0)")


@pytest.mark.parametrize("fault", ["region", "part", "radial"])
def test_pv_refusals_compute_no_modulus(monkeypatch, fault):
    # pv_pair's own refusals come before the plan, so a bad region, a bad
    # part or a coefficient not radial in |q| costs no exact |f|^2
    calls = []

    def spy(f):
        calls.append(f)
        return modulus_function(f)

    monkeypatch.setattr(pairings, "modulus_function", spy)
    psi = TestForm3(psi1=Profile.bump_only(1.0))
    kwargs = {"region": "disc"} if fault == "region" else (
        {"part": "(2,0)"} if fault == "part" else {})
    if fault == "radial":
        psi = TestForm3(psi1=Profile(ConjPoly.one(), 1.0, radial="z1"))
    match = {"region": "^region must be", "part": "^part must be",
             "radial": "full modulus"}[fault]
    with pytest.raises(ValueError, match=match):
        pv_pair(Z1_FN, psi, rule=build_quadrature(8, 8),
                schedule=EpsilonSchedule(0.3, 0.7, 3), **kwargs)
    assert calls == []


def test_oversized_rules_are_refused_by_their_ray_count():
    # the size is computed, never allocated
    assert pv_rays(4096, 4096) == 4096 ** 3 > MAX_RAYS
    with pytest.raises(RuleTooLarge, match="chart rays"):
        require_rays(pv_rays(4096, 4096))
    sched = EpsilonSchedule.for_radius(1.0)
    assert residue_rays(4096, sched, 1.0) > MAX_RAYS
    with pytest.raises(RuleTooLarge, match="chart rays"):
        build_quadrature(4, 2048)
    with pytest.raises(RuleTooLarge, match="chart rays"):
        pv_pair(Z1_FN, TestForm3(psi1=Profile.bump_only(1.0)),
                rule=oversized_pv_rule())


@pytest.mark.parametrize("call, message", [
    (lambda: Profile(ConjPoly.one(), 1.0, "r"), "^unknown radial kind 'r'$"),
    (lambda: Profile(ConjPoly.one(), 0.0),
     "^support radius must be positive$"),
    (lambda: TestForm2().support_radius,
     "^test form has no nonzero coefficient$"),
    (lambda: quadrature.geometric_edges(1.0, 1.0, 0.1), "^empty interval$"),
    (lambda: finalize((0.1, 0.2), (Quat(1j, 0j),)),
     "^epsilons and values must align$"),
    (lambda: finalize((), ()), "^no values to finalize$"),
], ids=["profile-radial", "profile-radius", "form-support", "edges",
        "finalize-align", "finalize-empty"])
def test_malformed_forms_intervals_and_estimates_are_domain_errors(
        call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_ray_cap_admits_the_rules_in_use():
    # library and CLI defaults, README examples, the benchmark's rule
    default = EpsilonSchedule.for_radius(1.0)
    readme = EpsilonSchedule(0.4, 0.7, 12)
    for rays in (pv_rays(32, 64), pv_rays(16, 32),
                 residue_rays(32, default, 1.0), residue_rays(64, default, 1.0),
                 residue_rays(16, readme, 1.0)):
        require_rays(rays)


# as recorded in pairings_golden.json at commit 80c625a, before f was
# screened once per QFunction and tabulated once per residue rung; every
# rung, ratio and note must stay bit for bit
PAIRINGS_GOLDEN_PATH = Path(__file__).with_name("pairings_golden.json")
GOLDEN_PSI = TestForm3(psi1=Profile(ConjPoly.var("z1") * 3, 1.0),
                       psi2=Profile(ConjPoly.var("c2"), 0.8))
GOLDEN_LADDER = EpsilonSchedule(0.4, 0.7, 6)
GOLDEN_FUNCTIONS = {
    "z1 ; 0": Z1_FN,
    "conj": builtin("conj").f,
    "prop34(1/8,-1/8)": builtin("prop34", (Fraction(1, 8),
                                           Fraction(-1, 8))).f,
    "z1 + z1*z2 ; 0": NODE_SUM_FN,
    "shared-den": parse_qfunction(SHARED_DEN),
}


def golden_pairings():
    """name -> thunk of each recorded pairing."""
    rule = build_quadrature(8, 16)
    cases = {}
    for name, f in GOLDEN_FUNCTIONS.items():
        for region in ("metric", "levelset"):
            cases[f"pv {name} {region}"] = functools.partial(
                pv_pair, f, GOLDEN_PSI, rule=rule, region=region)
    cases["pv prop34(1/8,-1/8) levelset (0,1)"] = functools.partial(
        pv_pair, GOLDEN_FUNCTIONS["prop34(1/8,-1/8)"], GOLDEN_PSI, rule=rule,
        region="levelset", part="(0,1)")
    ball, plane = (TestForm2(phi22=Profile.bump_only(1.0, radial))
                   for radial in ("q", "z2"))
    for name, phi, mirror in (("z1 ; 0", plane, True),
                              ("z1 ; 0", plane, False),
                              ("conj", ball, True),
                              ("prop34(1/8,-1/8)", ball, True),
                              ("z1 + z1*z2 ; 0", MIXED_PHI, True)):
        cases[f"residue {name}" + ("" if mirror else " no-mirror")] = (
            functools.partial(residue_pair, GOLDEN_FUNCTIONS[name], phi,
                              n_xi=8, schedule=GOLDEN_LADDER,
                              include_mirror=mirror))
    return cases


def golden_record(run):
    """The rungs and extrapolated value as float.hex, with the verdict, the
    ratios and the notes, or the class of the error raised."""
    def hexes(q):
        return [x.hex() for z in (complex(q.z1), complex(q.z2))
                for x in (z.real, z.imag)]

    try:
        est = run()
    except Exception as exc:  # the recorded outcome is the class
        return {"error": type(exc).__name__}
    return {"rungs": [hexes(v) for v in est.values],
            "extrapolated": hexes(est.extrapolated),
            "converged": est.converged,
            "diff_ratios": [None if r is None else float(r).hex()
                            for r in est.diff_ratios],
            "notes": list(est.notes)}


def test_pairings_match_their_recorded_output():
    recorded = json.loads(PAIRINGS_GOLDEN_PATH.read_text())
    cases = golden_pairings()
    assert sorted(cases) == sorted(recorded)
    for name, run in cases.items():
        assert golden_record(run) == recorded[name], name
