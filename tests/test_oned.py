"""One-complex-variable reference pairings used to pin orientation and
normalization: circle residues, annulus principal values, and coefficient
recovery."""
import cmath
import math

import numpy as np
import pytest

from qres.currents.estimate import EpsilonSchedule, finalize
from qres.currents.forms import bump
from qres.currents.oned import (Laurent1D, pv_1d, residue_1d,
                                recover_principal_coefficients, res_limit_1d)
from qres.errors import PoleOnDomain
from qres.qcore import Quat

TWO_PI_I = 2j * math.pi


def test_laurent_evaluation_matches_direct_sum():
    g = Laurent1D(principal=(2 + 1j, -1.5), tail=(0.5, 0, 3j))
    for z in (0.3 + 0.1j, -0.2 + 0.7j, 1.1 - 0.4j):
        want = (2 + 1j) / z + (-1.5) / z ** 2 + 0.5 + 0 * z + 3j * z ** 2
        assert g(z) == pytest.approx(want, rel=1e-12)
    assert g.pole_order == 2


def test_simple_pole_residue_is_exact_on_the_circle():
    # trapezoid in the angle integrates e^{ik theta} exactly for |k| < n
    g = Laurent1D(principal=(1,))
    got = residue_1d(g, lambda z: np.ones_like(z), eps=0.3)
    assert got == pytest.approx(TWO_PI_I, abs=1e-12)


def test_residue_limit_is_profile_independent():
    g = Laurent1D(principal=(1,))
    profiles = (
        lambda z: np.exp(-np.abs(z) ** 2),
        lambda z: 1.0 / (1.0 + np.abs(z) ** 2),
        lambda z: bump(np.abs(z) / 0.8),
    )
    sched = EpsilonSchedule(0.2, 0.55, 12)
    for phi in profiles:
        est = res_limit_1d(g, phi, sched)
        assert est.converged
        want = TWO_PI_I * complex(phi(np.array(0.0 + 0j)))
        got = complex(est.extrapolated.z1)
        assert abs(got - want) / abs(want) < 1e-8


def test_double_pole_sees_the_derivative():
    g = Laurent1D(principal=(0, 1))
    est = res_limit_1d(g, lambda z: z * bump(np.abs(z)), EpsilonSchedule(0.25, 0.6, 10))
    assert est.converged
    assert abs(complex(est.extrapolated.z1) - TWO_PI_I) < 1e-6


def test_double_pole_with_flat_profile_has_no_mass():
    g = Laurent1D(principal=(0, 1))
    est = res_limit_1d(g, lambda z: bump(np.abs(z)), EpsilonSchedule(0.25, 0.6, 8))
    # every circle integral vanishes by angular orthogonality
    assert max(v.norm() for v in est.values) < 1e-12


def test_pv_matches_radial_oracle_for_simple_pole():
    # psi = z * b(|z|) cancels the pole's phase, leaving a radial integral
    g = Laurent1D(principal=(1,))
    psi = lambda z: z * bump(np.abs(z))
    est = pv_1d(g, psi, R=1.0)
    assert est.converged
    r = np.linspace(0, 1, 400001)
    want = -4j * math.pi * np.trapezoid(bump(r) * r, r)
    got = complex(est.extrapolated.z1)
    assert abs(got - want) / abs(want) < 1e-5


def test_pv_against_radial_profile_is_zero_every_rung():
    # a rotation-invariant test density cannot couple to the pole's phase
    for g in (Laurent1D(principal=(1,)), Laurent1D(principal=(0, 1))):
        est = pv_1d(g, lambda z: bump(np.abs(z)), R=1.0,
                    schedule=EpsilonSchedule(0.25, 0.55, 6))
        assert max(v.norm() for v in est.values) < 1e-12
        assert est.epsilons[0] == 0.25


def test_pv_diff_ratios_track_the_schedule_square():
    # the excluded-disc error for 1/z against a smooth profile scales like
    # eps^2, so successive differences shrink by ratio^2
    g = Laurent1D(principal=(1,))
    est = pv_1d(g, lambda z: z * bump(np.abs(z)), R=1.0,
                schedule=EpsilonSchedule(0.25, 0.55, 12), n_r=40)
    settled = est.diff_ratios[3:8]
    for rho in settled:
        assert rho == pytest.approx(0.55 ** 2, rel=0.01)


def test_pv_requires_schedule_inside_radius():
    g = Laurent1D(principal=(1,))
    with pytest.raises(ValueError):
        pv_1d(g, lambda z: bump(np.abs(z)), R=0.2,
              schedule=EpsilonSchedule(0.25, 0.55, 6))


def test_overflowing_pole_is_a_domain_error_not_nan():
    # z^-400 overflows on every rung inside eps = 0.25: the pairings must
    # refuse, as the 4D ones do, instead of returning nan values
    g = Laurent1D(principal=(0,) * 399 + (1,))
    sched = EpsilonSchedule(0.25, 0.55, 6)
    with pytest.raises(PoleOnDomain, match="circle"):
        res_limit_1d(g, lambda z: bump(np.abs(z)), sched)
    with pytest.raises(PoleOnDomain, match="annulus"):
        pv_1d(g, lambda z: bump(np.abs(z)), 1.0, sched)


def test_recover_principal_coefficients():
    g = Laurent1D(principal=(2 + 1j, -1.5, 0.25j), tail=(0.3, -2))
    got = recover_principal_coefficients(g, count=4, R=1.0)
    want = (2 + 1j, -1.5, 0.25j, 0)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, abs=2e-6)


def test_callable_input_also_accepted():
    got = recover_principal_coefficients(lambda z: 1.0 / z, count=1, R=1.0)
    assert got[0] == pytest.approx(1.0, abs=1e-8)


def test_finalize_quadratic_data_converges_to_constant():
    eps = tuple(0.4 * 0.7 ** k for k in range(8))
    vals = tuple(Quat(3.0 + 1j * e - 2.0 * e * e, 0.5 + 0j) for e in eps)
    est = finalize(eps, vals)
    assert est.converged
    assert complex(est.extrapolated.z1) == pytest.approx(3.0, abs=1e-10)
    assert complex(est.extrapolated.z2) == pytest.approx(0.5, abs=1e-10)


def test_finalize_oscillating_data_does_not_converge():
    eps = tuple(0.4 * 0.7 ** k for k in range(8))
    vals = tuple(Quat(complex((-1.0) ** k), 0j) for k in range(8))
    est = finalize(eps, vals)
    assert not est.converged


def test_finalize_needs_enough_points():
    eps = (0.4, 0.28, 0.196)
    vals = tuple(Quat(1.0 + 0j, 0j) for _ in eps)
    assert not finalize(eps, vals).converged


def test_finalize_exact_zero_sequence_converges():
    eps = tuple(0.4 * 0.7 ** k for k in range(6))
    vals = tuple(Quat(0j, 0j) for _ in eps)
    est = finalize(eps, vals)
    assert est.converged
    assert est.extrapolated.norm() == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        EpsilonSchedule(-0.1, 0.5, 8)
    with pytest.raises(ValueError):
        EpsilonSchedule(0.1, 1.1, 8)
    with pytest.raises(ValueError):
        EpsilonSchedule(0.1, 0.5, 2)
    s = EpsilonSchedule.for_radius(2.0)
    assert s.eps0 == pytest.approx(1.0)
    assert s.values()[0] == pytest.approx(1.0)
    assert len(s.values()) == s.count


def test_estimate_rows_shape():
    g = Laurent1D(principal=(1,))
    est = res_limit_1d(g, lambda z: np.exp(-np.abs(z) ** 2),
                       EpsilonSchedule(0.3, 0.6, 6))
    rows = est.rows()
    assert len(rows) == 6
    assert len(rows[0]) == 5
    assert rows[0][0] == pytest.approx(0.3)
