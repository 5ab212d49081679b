"""Epsilon-limit pairings against the currents attached to a reciprocal:
residues over shrinking level sets, principal values over shrinking
excluded regions.  Reference masses come from radial quadrature."""
import math

import numpy as np
import pytest

from qres.catalogue import builtin
from qres.currents.chart import chart_jacobian, det4, sphere_to_complex
from qres.currents.estimate import EpsilonSchedule
from qres.currents.forms import Profile, TestForm2, TestForm3, bump
from qres.currents.pairings import (PoleOnDomain, _CompiledQFunction,
                                    _masked_sum, _solve_level_radius, pv_pair,
                                    residue_pair)
from qres.currents.quadrature import build_quadrature
from qres.parsing import parse_poly, parse_qfunction
from qres.qcore import Quat
from qres.symfun import ConjPoly

Z1_FN = parse_qfunction("z1 ; 0")
PHI_PLANE = TestForm2(phi22=Profile(ConjPoly.one(), 1.0, radial="z2"))


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
    est = residue_pair(Z1_FN, PHI_PLANE, rule=build_quadrature(16, 16),
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
    est = residue_pair(conj, PHI_PLANE, rule=build_quadrature(16, 16),
                       schedule=EpsilonSchedule(0.5, 0.7, 10))
    assert est.converged
    assert est.extrapolated.norm() < 1e-3


def test_residue_is_linear_in_the_test_form():
    rule = build_quadrature(8, 16)
    sched = EpsilonSchedule(0.4, 0.7, 3)

    def pair(poly):
        phi = TestForm2(phi22=Profile(poly, 1.0, radial="z2"))
        return residue_pair(Z1_FN, phi, rule=rule, schedule=sched)

    est_a = pair(ConjPoly.one())
    est_b = pair(parse_poly("z2*c2"))
    est_s = pair(parse_poly("1 + z2*c2"))
    for va, vb, vs in zip(est_a.values, est_b.values, est_s.values):
        assert (va + vb - vs).norm() < 1e-10 * max(1.0, vs.norm())


def test_residue_against_coefficient_vanishing_on_zero_set():
    # coefficient proportional to |z1|^2 dies quadratically on the level
    # sets, so the limit is zero even though each rung is positive
    phi = TestForm2(phi22=Profile(parse_poly("z1*c1"), 1.0, radial="z2"))
    est = residue_pair(Z1_FN, phi, rule=build_quadrature(8, 16),
                       schedule=EpsilonSchedule(0.4, 0.7, 10))
    assert est.converged
    assert est.extrapolated.norm() < 1e-3
    assert est.values[0].norm() > 10 * est.values[-1].norm()


def test_mirror_half_is_inert_for_holomorphic_zero_sets():
    rule = build_quadrature(8, 16)
    sched = EpsilonSchedule(0.4, 0.7, 4)
    est_on = residue_pair(Z1_FN, PHI_PLANE, rule=rule, schedule=sched)
    est_off = residue_pair(Z1_FN, PHI_PLANE, rule=rule, schedule=sched,
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


def test_masked_sum_flags_singular_nodes():
    c1 = np.array([1.0, np.nan, 2.0], dtype=complex)
    c2 = np.zeros(3, dtype=complex)
    w = np.ones(3)
    with pytest.raises(PoleOnDomain, match=r"1 nodes"):
        _masked_sum(c1, c2, w, np.ones(3, dtype=bool))
    # masked-out nodes may be singular without consequence
    val = _masked_sum(c1, c2, w, np.array([True, False, True]))
    assert complex(val.z1) == 3.0


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


@pytest.mark.parametrize("f", [builtin("conj").f, Z1_FN], ids=["conj", "z1"])
def test_level_radius_lies_on_the_level_set(f):
    comp = _CompiledQFunction(f)
    rng = np.random.default_rng(12)
    n = 500
    eta = rng.uniform(0.05, math.pi / 2 - 0.05, n)
    xi1, xi2 = rng.uniform(0.0, 2 * math.pi, (2, n))
    eps = 0.3
    lam, active, _ = _solve_level_radius(comp, eta, xi1, xi2, eps,
                                         np.ones(n))
    assert active.sum() > n // 2
    F1, F2 = f.eval_numeric(*sphere_to_complex(
        lam[active], eta[active], xi1[active], xi2[active]))
    g = np.abs(F1) ** 2 + np.abs(F2) ** 2
    assert np.abs(g / eps ** 2 - 1.0).max() < 1e-9


def test_zero_test_forms_are_rejected():
    with pytest.raises(ValueError, match="identically zero"):
        residue_pair(Z1_FN, TestForm2())
    with pytest.raises(ValueError, match="identically zero"):
        pv_pair(Z1_FN, TestForm3())


def test_schedule_must_start_inside_support():
    with pytest.raises(ValueError, match="inside the test-form support"):
        residue_pair(Z1_FN, PHI_PLANE, rule=build_quadrature(8, 16),
                     schedule=EpsilonSchedule(2.0, 0.7, 3))
    psi = TestForm3(psi1=Profile.bump_only(1.0))
    with pytest.raises(ValueError, match="inside the test-form support"):
        pv_pair(Z1_FN, psi, rule=build_quadrature(8, 8),
                schedule=EpsilonSchedule(2.0, 0.7, 3))


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
