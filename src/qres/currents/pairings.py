"""Residue and principal-value pairings for quaternion-valued functions.

Both pairings integrate a density built from the reciprocal of the function
and its first Wirtinger derivatives against a compactly supported test form,
on a family of domains indexed by a small radius eps, and report the
extrapolated limit.

The residue pairing integrates a 3-form density over the level set
|f| = eps, realised as a radial graph lam = lam*(direction) over the chart
sphere: per direction the radius is found by bisection and the graph slopes
by implicit differentiation, so the level geometry (round sphere, cylinder,
or anything ray-monotone) is captured without special cases.  The
principal-value pairing integrates a 4-form density over the complement of
the excluded region, which is the metric ball |q| < eps by default or the
sublevel set |f| < eps with region="levelset".  Its volume element is the
chart's closed form 4 lam^3 sin(eta) cos(eta), and every radial node is the
radius times a unit ray direction computed once per mesh.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import PoleOnDomain
from ..qcore import Quat
from ..symfun import QFunction
from .chart import (ORIENTATION_3FORM, ORIENTATION_4FORM, chart_jacobian,
                    graph_rows, pullback_3forms, sphere_to_complex)
from .estimate import CurrentEstimate, EpsilonSchedule, finalize
from .forms import TestForm2, TestForm3
from .quadrature import (QuadratureRule, build_quadrature, gauss_panels,
                         geometric_edges, graded_eta_panels)

# Wirtinger variable order, aligned with the chart coordinate rows
_WIRT_VARS = ("z1", "z1b", "z2", "z2b")

_BISECT_ITERS = 52
_LAM_FLOOR_FACTOR = 1e-9


def _quiet(fn):
    """Poles show up as inf/nan and are caught by explicit finiteness checks;
    numpy need not warn on the way there."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return run


class _CompiledQFunction:
    """Numeric bundle: both components and all eight first Wirtinger
    derivatives, evaluated on arrays."""

    def __init__(self, f: QFunction):
        self.f = f
        self._d1 = [f.f1.wirtinger(v) for v in _WIRT_VARS]
        self._d2 = [f.f2.wirtinger(v) for v in _WIRT_VARS]

    def components(self, Z1, Z2):
        return self.f.f1.eval_numeric(Z1, Z2), self.f.f2.eval_numeric(Z1, Z2)

    def modulus_sq(self, lam, u1, u2):
        """|f|^2 at radius lam along the unit chart directions (u1, u2)."""
        F1, F2 = self.components(lam * u1, lam * u2)
        return np.abs(F1) ** 2 + np.abs(F2) ** 2

    def jets(self, Z1, Z2):
        F1, F2 = self.components(Z1, Z2)
        D1 = [d.eval_numeric(Z1, Z2) for d in self._d1]
        D2 = [d.eval_numeric(Z1, Z2) for d in self._d2]
        return F1, F2, D1, D2


@_quiet
def _solve_level_radius(comp: _CompiledQFunction, eta, xi1, xi2, eps: float,
                        lam_hi) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radius where |f| = eps along each chart ray, by bisection on [0, hi].

    Returns (lam_star, active, inside_at_floor).  A ray is active when
    |f| < eps just above the origin and |f| >= eps at the ray's support end;
    since hi bounds the test-form support, inactive rays with |f| < eps
    throughout carry no pairing mass.  Rays already at or above eps near the
    origin are flagged separately (third array) for the principal-value
    domain, where they are included in full.  The unit ray directions are
    computed once; every step only rescales them.
    """
    target = eps * eps
    u1, u2 = sphere_to_complex(1.0, eta, xi1, xi2)
    lo = np.zeros(np.shape(eta))
    hi = np.array(np.broadcast_to(lam_hi, np.shape(eta)), dtype=float)
    floor = _LAM_FLOOR_FACTOR * hi
    g_lo = comp.modulus_sq(floor, u1, u2)
    g_hi = comp.modulus_sq(hi, u1, u2)
    inside_at_floor = ~(g_lo >= target)
    active = inside_at_floor & (g_hi >= target)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        below = comp.modulus_sq(mid, u1, u2) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi), active, inside_at_floor


def _flat_mesh(eta_nodes, eta_weights, rule: QuadratureRule):
    """Flattened (eta, xi1, xi2) product grid with combined raw weights."""
    ne, nx = len(eta_nodes), len(rule.xi_nodes)
    e = np.repeat(eta_nodes, nx * nx)
    w = np.repeat(eta_weights, nx * nx) * rule.xi_weight ** 2
    x1 = np.tile(np.repeat(rule.xi_nodes, nx), ne)
    x2 = np.tile(rule.xi_nodes, ne * nx)
    return e, x1, x2, w


class _RayMesh(NamedTuple):
    """Flattened chart mesh of the principal-value pairing: ray parameters,
    raw weights, unit ray directions (u1, u2) and the volume factor
    sin(eta)*cos(eta).  The node at radius lam on a ray is lam * (u1, u2)."""

    eta: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    w: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    sin_cos: np.ndarray

    @classmethod
    def build(cls, rule: QuadratureRule) -> "_RayMesh":
        e, x1, x2, w = _flat_mesh(rule.eta_nodes, rule.eta_weights, rule)
        u1, u2 = sphere_to_complex(1.0, e, x1, x2)
        return cls(e, x1, x2, w, u1, u2, np.sin(e) * np.cos(e))


def _level_slopes(jac, F1, F2, D1, D2):
    """Graph slopes d(lam*)/d(eta, xi1, xi2) by implicit differentiation of
    |f|^2 = eps^2.  Returns (slopes, transverse_mask)."""
    dg = []
    for a in range(4):
        df1 = sum(D1[wi] * jac[wi, a] for wi in range(4))
        df2 = sum(D2[wi] * jac[wi, a] for wi in range(4))
        dg.append(2.0 * (np.conj(F1) * df1 + np.conj(F2) * df2).real)
    g_lam = dg[0]
    transverse = g_lam > 0.0
    safe = np.where(transverse, g_lam, 1.0)
    slopes = np.stack([-dg[1] / safe, -dg[2] / safe, -dg[3] / safe])
    return slopes, transverse


def _coeff_arrays(profiles, Z1, Z2):
    out = []
    for p in profiles:
        if p is None:
            out.append(np.zeros(Z1.shape, dtype=complex))
        else:
            out.append(p.eval(Z1, Z2))
    return out


def _masked_sum(c1, c2, w, mask) -> Quat:
    if not mask.any():
        return Quat(0.0, 0.0)
    bad = mask & ~(np.isfinite(c1) & np.isfinite(c2))
    if bad.any():
        raise PoleOnDomain(
            "density is singular on the integration surface "
            f"({int(bad.sum())} nodes)")
    # zero the excluded values too: 0 * nan would poison the sum
    wm = np.where(mask, w, 0.0)
    s1 = (wm * np.where(mask, c1, 0.0)).sum()
    s2 = (wm * np.where(mask, c2, 0.0)).sum()
    return Quat(complex(s1), complex(s2))


@_quiet
def _residue_value(comp: _CompiledQFunction, phi: TestForm2, lam, eta, xi1,
                   xi2, w, include_mirror: bool) -> Tuple[Quat, int]:
    """Oriented integral of the residue density over one level-set graph."""
    jac = chart_jacobian(lam, eta, xi1, xi2)
    Z1, Z2 = sphere_to_complex(lam, eta, xi1, xi2)
    F1, F2, D1, D2 = comp.jets(Z1, Z2)
    G = np.abs(F1) ** 2 + np.abs(F2) ** 2
    slopes, transverse = _level_slopes(jac, F1, F2, D1, D2)
    rows = graph_rows(jac, slopes)
    pb = pullback_3forms(rows)

    ph11, ph12, ph21, ph22 = _coeff_arrays(phi.coefficients, Z1, Z2)
    f1_z1, f1_z1b, f1_z2, f1_z2b = D1
    f2_z1, f2_z1b, f2_z2, f2_z2b = D2

    a_co = -f1_z1 * ph21 + f1_z2 * ph11
    b_co = f2_z1b * np.conj(ph21) - f2_z2b * np.conj(ph11)
    c_co = f1_z1 * ph22 - f1_z2 * ph12
    d_co = -f2_z1b * np.conj(ph22) - f2_z2b * np.conj(ph12)
    alpha = a_co * pb["px"] + c_co * pb["py"]
    beta = b_co * np.conj(pb["px"]) + d_co * np.conj(pb["py"])
    if include_mirror:
        alpha = alpha + ((f1_z2b * ph11 - f1_z1b * ph12) * pb["pxp"]
                         + (f1_z1b * ph22 - f1_z2b * ph21) * pb["pyp"])
        beta = beta + ((f2_z1 * np.conj(ph12) - f2_z2 * np.conj(ph11)) * pb["px"]
                       + (-f2_z1 * np.conj(ph22) + f2_z2 * np.conj(ph21)) * pb["py"])

    u1 = np.conj(F1) / G
    u2 = -F2 / G
    comp1 = u1 * alpha - u2 * np.conj(beta)
    comp2 = u1 * beta + u2 * np.conj(alpha)
    value = _masked_sum(comp1, comp2, w, transverse)
    dropped = int((~transverse).sum())
    return Quat(ORIENTATION_3FORM * complex(value.z1),
                ORIENTATION_3FORM * complex(value.z2)), dropped


def residue_pair(f: QFunction, phi: TestForm2,
                 rule: Optional[QuadratureRule] = None,
                 schedule: Optional[EpsilonSchedule] = None,
                 include_mirror: bool = True,
                 lam_cap: Optional[float] = None,
                 n_eta_panel: int = 14) -> CurrentEstimate:
    """Pair the residue current of f against the 2-form phi.

    For each eps on the schedule the density is integrated over the level
    set |f| = eps (as a radial graph over the chart sphere, with eta panels
    graded toward the poles so cylinder-like level sets stay resolved), and
    the eps -> 0 limit is extrapolated.  The rule fixes the phase resolution;
    include_mirror=False drops the conjugate-type half of the density.
    """
    if phi.is_zero:
        raise ValueError("test form is identically zero")
    if rule is None:
        rule = build_quadrature(32, 32)
    support = phi.support_radius
    if schedule is None:
        schedule = EpsilonSchedule.for_radius(support)
    if not schedule.eps0 < support:
        raise ValueError("schedule must start inside the test-form support")
    comp = _CompiledQFunction(f)
    eps_list = schedule.values()
    values: List[Quat] = []
    dropped_total = 0
    for eps in eps_list:
        eta_nodes, eta_w = graded_eta_panels(eps, support, n_eta_panel)
        e, x1, x2, w = _flat_mesh(eta_nodes, eta_w, rule)
        hi = phi.support_lambda(e)
        if lam_cap is not None:
            hi = np.minimum(hi, lam_cap)
        lam, active, _ = _solve_level_radius(comp, e, x1, x2, eps, hi)
        if not active.any():
            values.append(Quat(0.0, 0.0))
            continue
        sel = np.flatnonzero(active)
        val, dropped = _residue_value(comp, phi, lam[sel], e[sel], x1[sel],
                                      x2[sel], w[sel], include_mirror)
        dropped_total += dropped
        values.append(val)
    notes = []
    if dropped_total:
        notes.append(f"{dropped_total} level-set nodes were not transverse "
                     "to the radial rays and were dropped")
    part = "(1,0)+(0,1)" if include_mirror else "(1,0)"
    return finalize(eps_list, values, part=part, notes=notes)


@_quiet
def _pv_density(comp: _CompiledQFunction, psi: TestForm3, Z1, Z2):
    """Scalar and j components of the principal-value density u * (P + Q j),
    before the chart volume factor."""
    F1, F2, D1, D2 = comp.jets(Z1, Z2)
    G = np.abs(F1) ** 2 + np.abs(F2) ** 2
    ps1, ps2 = _coeff_arrays(psi.coefficients, Z1, Z2)
    f1_z1, _, f1_z2, _ = D1
    _, f2_z1b, _, f2_z2b = D2
    p_co = f1_z1 * ps1 + f1_z2 * ps2
    q_co = -(f2_z1b * np.conj(ps1) - f2_z2b * np.conj(ps2))
    u1 = np.conj(F1) / G
    u2 = -F2 / G
    return u1 * p_co - u2 * np.conj(q_co), u1 * q_co + u2 * np.conj(p_co)


def _volume_sums(comp: _CompiledQFunction, psi: TestForm3, rays: _RayMesh,
                 lam, w):
    """Weighted sums of the pv density times the volume element
    4 lam^3 sin(eta) cos(eta) at the nodes lam * (u1, u2) of the rays."""
    c1, c2 = _pv_density(comp, psi, lam * rays.u1, lam * rays.u2)
    vol = 4.0 * lam ** 3 * rays.sin_cos
    i1 = c1 * vol
    i2 = c2 * vol
    if not (np.isfinite(i1).all() and np.isfinite(i2).all()):
        raise PoleOnDomain("density is singular inside the integration "
                           "region")
    return (w * i1).sum(), (w * i2).sum()


@_quiet
def _pv_shell_integral(comp: _CompiledQFunction, psi: TestForm3,
                       mesh: _RayMesh, lam_nodes, lam_weights,
                       chunk: int = 6) -> Quat:
    """Volume integral of the pv density over given radial shells."""
    total1 = 0.0 + 0.0j
    total2 = 0.0 + 0.0j
    for start in range(0, len(lam_nodes), chunk):
        lam = lam_nodes[start:start + chunk, None]
        w = lam_weights[start:start + chunk, None] * mesh.w
        s1, s2 = _volume_sums(comp, psi, mesh, lam, w)
        total1 += s1
        total2 += s2
    return Quat(ORIENTATION_4FORM * total1, ORIENTATION_4FORM * total2)


@_quiet
def _pv_levelset_value(comp: _CompiledQFunction, psi: TestForm3,
                       mesh: _RayMesh, eps: float, support: float,
                       n_log: int = 24) -> Quat:
    """Integral over {|f| >= eps} within the support ball, radially from the
    per-ray level radius outward (log-spaced Gauss nodes per ray)."""
    hi = np.full(mesh.eta.shape, support)
    lam_star, active, inside = _solve_level_radius(
        comp, mesh.eta, mesh.xi1, mesh.xi2, eps, hi)
    start = np.where(inside, lam_star, _LAM_FLOOR_FACTOR * support)
    keep = active | ~inside
    if not keep.any():
        return Quat(0.0, 0.0)
    sel = np.flatnonzero(keep)
    start = np.minimum(start[sel], support)
    rays = _RayMesh(*(a[sel] for a in mesh))
    s_nodes, s_w = gauss_panels([0.0, 1.0], n_log)
    stretch = np.log(np.maximum(support / start, 1.0))
    total1 = 0.0 + 0.0j
    total2 = 0.0 + 0.0j
    for s, ws in zip(s_nodes, s_w):
        lam = start * np.exp(s * stretch)
        s1, s2 = _volume_sums(comp, psi, rays, lam,
                              rays.w * ws * lam * stretch)
        total1 += s1
        total2 += s2
    return Quat(ORIENTATION_4FORM * total1, ORIENTATION_4FORM * total2)


def pv_pair(f: QFunction, psi: TestForm3,
            rule: Optional[QuadratureRule] = None,
            schedule: Optional[EpsilonSchedule] = None,
            region: str = "metric",
            part: str = "(1,0)") -> CurrentEstimate:
    """Principal-value pairing of 1/f against the 3-form psi.

    region="metric" removes the round ball |q| < eps (radial shells are
    accumulated once and reused across the ladder); region="levelset"
    removes the sublevel set |f| < eps instead, which costs a level-radius
    solve per eps.  part="(0,1)" is served by the formal conjugation
    symmetry of the expansion and marked as such in the result.
    """
    if psi.is_zero:
        raise ValueError("test form is identically zero")
    for p in psi.coefficients:
        if p is not None and p.radial != "q":
            raise ValueError("principal-value pairing needs coefficients "
                             "supported in the full modulus |q|")
    if part == "(0,1)":
        flipped = TestForm3(*(None if p is None else p.conjugated()
                              for p in psi.coefficients))
        base = pv_pair(f, flipped, rule, schedule, region, part="(1,0)")
        vals = [Quat(complex(v.z1).conjugate(), complex(v.z2).conjugate())
                for v in base.values]
        notes = base.notes + ("computed from the (1,0) pairing by formal "
                              "conjugation",)
        return finalize(base.epsilons, vals, part="(0,1)", notes=notes)
    if part != "(1,0)":
        raise ValueError("part must be '(1,0)' or '(0,1)'")
    if rule is None:
        rule = build_quadrature(32, 64)
    support = psi.support_radius
    if schedule is None:
        schedule = EpsilonSchedule.for_radius(support)
    if not schedule.eps0 < support:
        raise ValueError("schedule must start inside the test-form support")
    comp = _CompiledQFunction(f)
    eps_list = schedule.values()
    mesh = _RayMesh.build(rule)
    if region == "metric":
        lam0, w0 = gauss_panels(geometric_edges(eps_list[0], support,
                                                eps_list[0]), 12)
        running = _pv_shell_integral(comp, psi, mesh, lam0, w0)
        values = [running]
        for k in range(1, len(eps_list)):
            lam_k, w_k = gauss_panels([eps_list[k], eps_list[k - 1]], 12)
            running = running + _pv_shell_integral(comp, psi, mesh, lam_k, w_k)
            values.append(running)
    elif region == "levelset":
        values = [_pv_levelset_value(comp, psi, mesh, eps, support)
                  for eps in eps_list]
    else:
        raise ValueError("region must be 'metric' or 'levelset'")
    notes = () if region == "metric" else ("excluded region follows the "
                                           "level sets of |f|",)
    return finalize(eps_list, values, part="(1,0)", notes=notes)
