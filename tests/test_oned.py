"""One-complex-variable reference pairings used to pin orientation and
normalization: circle residues, annulus principal values, and coefficient
recovery."""
import cmath
import math

import numpy as np
import pytest

from qres.currents.estimate import MAX_RUNGS, EpsilonSchedule, finalize
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


# rungs of `qres residue -f prop34 --params 0.125,-0.125 --phi22 bump
# --schedule 0.4,0.7,8 --n-xi 16` before its level sets were
# checked: three real values, then exact zeros once no ray starts below eps
LOST_RUNGS = tuple(Quat(complex(-v), complex(v)) for v in (
    3.2762320893118355, 3.5678144709137047, 4.5818013904022665)) + (
    Quat(0j, 0j),) * 5


def test_finalize_zero_run_after_real_rungs_is_not_converged():
    eps = tuple(0.4 * 0.7 ** k for k in range(8))
    est = finalize(eps, LOST_RUNGS)
    # the tail of difference ratios alone would pass
    assert est.diff_ratios[2:] == (0.0,) * 4
    assert not est.converged


def test_finalize_zero_after_rounding_noise_still_converges():
    # odd-symmetry zeros come out as ~1e-16 rounding noise, below the zero
    # floor; an exact zero after such a rung is noise too
    eps = tuple(0.4 * 0.7 ** k for k in range(8))
    vals = tuple(Quat(complex(v), 0j)
                 for v in (3e-16, -1e-16, 2e-16, 0.0, 1e-16, 0.0, 0.0, 0.0))
    assert finalize(eps, vals).converged


def test_finalize_of_overflowing_rungs_stays_quiet():
    # the norms and differences of rungs near the float range overflow to
    # inf and their ratios to nan, which the report writer refuses; numpy
    # warned on the way there (an error under pytest)
    eps = tuple(0.25 * 0.55 ** k for k in range(6))
    vals = tuple(Quat(0j, complex(0.0, s * 1e300))
                 for s in (1, -1, 1, -1, 1, -1))
    est = finalize(eps, vals)
    assert not all(math.isfinite(r) for r in est.diff_ratios)


def test_finalize_untrusted_pairing_is_not_converged():
    eps = tuple(0.4 * 0.7 ** k for k in range(8))
    vals = tuple(Quat(3.0 - 2.0 * e * e + 0j, 0j) for e in eps)
    assert finalize(eps, vals).converged
    assert not finalize(eps, vals, trusted=False).converged


def test_schedule_validation():
    with pytest.raises(ValueError):
        EpsilonSchedule(-0.1, 0.5, 8)
    with pytest.raises(ValueError):
        EpsilonSchedule(0.1, 1.1, 8)
    with pytest.raises(ValueError):
        EpsilonSchedule(0.1, 0.5, 2)
    with pytest.raises(ValueError, match="underflows"):
        EpsilonSchedule(0.3, 1e-200, 3)
    # both 4-D pairings compare |f|^2 with eps^2, so a rung whose square
    # is not a normal float is refused too
    with pytest.raises(ValueError, match="underflows"):
        EpsilonSchedule(1e-300, 1e-8, 3)
    assert EpsilonSchedule(1e-150, 0.5, 3).values()[-1] ** 2 > 0
    # the fit squares the rungs, so the first rung's square must be finite
    for eps0 in (1e160, math.inf):
        with pytest.raises(ValueError, match="overflows"):
            EpsilonSchedule(eps0, 0.7, 3)
    with pytest.raises(ValueError, match="overflows"):
        EpsilonSchedule.for_radius(2.7e154)
    assert math.isfinite(EpsilonSchedule.for_radius(2.6e154).eps0 ** 2)
    s = EpsilonSchedule.for_radius(2.0)
    assert s.eps0 == pytest.approx(1.0)
    assert s.values()[0] == pytest.approx(1.0)
    assert len(s.values()) == s.count


@pytest.mark.parametrize("count", [MAX_RUNGS + 1, 10 ** 8])
def test_long_ladders_are_refused_before_any_rung_is_built(monkeypatch,
                                                           count):
    # the constructor builds no rung; values() would build all of them
    def values(self):
        raise AssertionError("a rung was built")

    monkeypatch.setattr(EpsilonSchedule, "values", values)
    with pytest.raises(ValueError, match=f"at most {MAX_RUNGS} "):
        EpsilonSchedule(0.2, 0.9999999, count)
    assert EpsilonSchedule(0.2, 0.9999999, MAX_RUNGS).count == MAX_RUNGS
    # well above the longest default ladder
    assert EpsilonSchedule.for_disc(1.0).count < MAX_RUNGS // 4


def test_estimate_rows_shape():
    g = Laurent1D(principal=(1,))
    est = res_limit_1d(g, lambda z: np.exp(-np.abs(z) ** 2),
                       EpsilonSchedule(0.3, 0.6, 6))
    rows = est.rows()
    assert len(rows) == 6
    assert len(rows[0]) == 5
    assert rows[0][0] == pytest.approx(0.3)
