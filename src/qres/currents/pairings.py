"""Residue and principal-value pairings for quaternion-valued functions.

Both pairings integrate a density built from the reciprocal of the function
and its first Wirtinger derivatives against a compactly supported test form,
on a family of domains indexed by a small radius eps, and report the
extrapolated limit.

The residue pairing integrates a 3-form density over the level set
|f| = eps, realised as a radial graph lam = lam*(direction) over the chart
sphere: per direction the radius is the first real root of a polynomial in
the radius (in closed form when f is homogeneous) and the graph slopes come
by implicit differentiation, so the level geometry (round sphere, cylinder,
or anything ray-monotone) is captured without special cases.  A ray on
which the level set is not such a graph, because |f| dips below eps without
starting below it or crosses eps more than once, is counted, and any such
ray on the ladder leaves the estimate not converged, with a note.  The
principal-value pairing integrates a 4-form density over the complement of
the excluded region, which is the metric ball |q| < eps by default or the
sublevel set |f| < eps with region="levelset".  Both regions reduce to a
table of radial nodes on the chart rays, summed by one integrator under a
fixed node budget.  Its volume element is the chart's closed form
4 lam^3 sin(eta) cos(eta).

The principal-value density is folded once per call, in exact arithmetic:
with the four kernels K11, K12, K21, K22 of f (products of conj(f1), f2 and
first Wirtinger derivatives), it is
(psi1 K11 + psi2 K12, conj(psi1) K21 + conj(psi2) K22) / |f|^2, and since
each coefficient is a polynomial times bump(|q| / R), a node needs |f|^2,
one bump per distinct R and the kernel products that are not identically
zero.

Every node sits at lam * u on a chart ray with unit direction u, so each
rational a pairing reads (f1 and f2; the residue path's Wirtinger
derivatives and test-form coefficients; the principal value's kernel
products) is tabulated once per mesh as p(lam u) = sum_k c_k(u) lam^k for
its numerator and denominator, the terms of total degree k summed at u.  The
level-set graph and the radial nodes then evaluate a Horner polynomial in
the real radius; |f|^2 comes from the f1 and f2 tables, and a coefficient's
bump is bump(lam r(u) / R) with r(u) its radius at u.  The level radii are
real roots of D1^2 D2^2 (|f|^2 - eps^2), whose coefficient rows are
convolutions of the same table rows (fi = Ni / Di).
"""

from __future__ import annotations

import functools
import itertools
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import PoleOnDomain, RuleTooLarge
from ..qcore import Quat
from ..symfun import ConjPoly, ConjRational, QFunction
from .chart import (ORIENTATION_3FORM, ORIENTATION_4FORM, chart_jacobian,
                    graph_rows, pullback_3forms, sphere_to_complex)
from .estimate import CurrentEstimate, EpsilonSchedule, finalize
from .forms import Profile, TestForm2, TestForm3, bump
from .quadrature import (QuadratureRule, build_quadrature, gauss_panels,
                         geometric_edges, graded_eta_panels)

# Wirtinger variable order, aligned with the chart coordinate rows
_WIRT_VARS = ("z1", "z1b", "z2", "z2b")

_LAM_FLOOR_FACTOR = 1e-9
# nodes per density evaluation on the principal-value path, and matrix
# entries per batch of companion matrices in the level solve; bounds memory
_NODE_BUDGET = 1 << 15
# Gauss nodes per radial panel: metric shells, and per-ray log-spaced nodes
# of the levelset region
_SHELL_ORDER = 12
_LOG_ORDER = 24
# chart rays per mesh above which a rule is refused before any mesh is built
MAX_RAYS = 1 << 20
_SINGULAR = "density is singular inside the integration region"


def _quiet(fn):
    """Poles show up as inf/nan and are caught by explicit finiteness checks;
    numpy need not warn on the way there."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return run


def pv_rays(n_eta: int, n_xi: int) -> int:
    """Chart rays of the principal-value mesh of an n_eta x n_xi rule."""
    return n_eta * n_xi * n_xi


def residue_rays(n_xi: int, schedule: EpsilonSchedule, support: float) -> int:
    """Chart rays of the largest graded residue mesh on the ladder."""
    n_eta = max(len(graded_eta_panels(eps, support)[0])
                for eps in schedule.values())
    return n_eta * n_xi * n_xi


def require_rays(rays: int) -> None:
    """Refuse a mesh of more than MAX_RAYS chart rays."""
    if rays > MAX_RAYS:
        raise RuleTooLarge(f"the rule needs {rays} chart rays per mesh; "
                           f"at most {MAX_RAYS} are allowed")


def _paired(lam):
    """Radii for a complex table's real view, where each ray has a real and
    an imaginary column: a shared radius (last axis 1) already fits, a
    per-ray radius is repeated for both columns."""
    return lam if np.shape(lam)[-1] == 1 else np.repeat(lam, 2, axis=-1)


class _RayPoly(NamedTuple):
    """One polynomial along chart rays: p(lam u) = lam^low sum_k c[k] lam^k,
    row k of c holding, per ray, the terms of total degree low + k at the
    unit direction u.  Numerator tables are complex, denominator tables
    (real-valued polynomials) real."""

    low: int
    c: np.ndarray

    @classmethod
    def build(cls, poly: ConjPoly, power, n_rays: int) -> "_RayPoly":
        """Tabulate poly; power(var, e) is the e-th power of the ray
        coordinate var in (u1, conj u1, u2, conj u2)."""
        degrees = [sum(key) for key in poly.terms] or [0]
        low = min(degrees)
        c = np.zeros((max(degrees) - low + 1, n_rays), dtype=complex)
        for (key, coeff), deg in zip(poly.terms.items(), degrees):
            term = complex(coeff)
            for var, e in enumerate(key):
                if e:
                    term = term * power(var, e)
            c[deg - low] += term
        return cls(low, c)

    def at(self, lam):
        """p(lam u), by Horner in the real radius on the real view of the
        table; a complex table takes its radii from _paired."""
        c = self.c.view(float)
        out = c[-1]
        for row in c[-2::-1]:
            out = out * lam + row
        if self.low:
            out = out * lam ** self.low
        elif len(c) == 1:
            # a constant: the same row at every radius
            out = np.broadcast_to(
                out, np.broadcast_shapes(np.shape(lam), out.shape))
        return out.view(self.c.dtype)

    def take(self, sel) -> "_RayPoly":
        return _RayPoly(self.low, self.c.take(sel, axis=1))

    def derivative(self) -> "_RayPoly":
        """The derivative in the radius:
        lam^(low - 1) sum_k (low + k) c[k] lam^k."""
        return _RayPoly(self.low - 1,
                        self.c * (self.low + np.arange(len(self.c)))[:, None])


class _RayRational(NamedTuple):
    """A rational along chart rays: a complex numerator table over a real
    denominator table, or over None for the constant 1, which is not
    divided."""

    num: _RayPoly
    den: Optional[_RayPoly]

    def at(self, lam, lam2):
        v = self.num.at(lam2)
        return v if self.den is None else v / self.den.at(lam)

    def slope_at(self, lam, lam2):
        """The rational and its derivative in the radius, at lam."""
        v, dv = self.num.at(lam2), self.num.derivative().at(lam2)
        if self.den is None:
            return v, dv
        d = self.den.at(lam)
        v = v / d
        return v, (dv - v * self.den.derivative().at(lam)) / d

    def take(self, sel) -> "_RayRational":
        return _RayRational(self.num.take(sel),
                            None if self.den is None else self.den.take(sel))


class _RayProfile(NamedTuple):
    """A test-form coefficient along chart rays: poly(lam u) times
    bump(lam r / R), where r is the profile's radius at the unit direction
    (1, |u1| or |u2| for radial q, z1, z2)."""

    poly: _RayPoly
    r: object
    R: float

    def at(self, lam, lam2):
        return self.poly.at(lam2) * bump(lam * self.r / self.R)

    def take(self, sel) -> "_RayProfile":
        r = self.r[sel] if np.ndim(self.r) else self.r
        return _RayProfile(self.poly.take(sel), r, self.R)


class _RayFunction:
    """Ray tables of what a pairing reads, on one set of chart rays: f1, f2
    and the other rationals it needs, then its test-form coefficients.  A
    rational or coefficient that is identically zero has no table (None)."""

    def __init__(self, items: Tuple[object, ...]):
        self.items = items

    @classmethod
    def build(cls, rationals: Sequence[ConjRational],
              profiles: Sequence[Optional[Profile]], u1, u2) -> "_RayFunction":
        base = (u1, np.conj(u1), u2, np.conj(u2))
        power = functools.lru_cache(maxsize=None)(
            lambda var, e: base[var] ** e)

        def table(poly):
            return _RayPoly.build(poly, power, len(u1))

        def real(poly):
            low, c = table(poly)
            return _RayPoly(low, np.ascontiguousarray(c.real))

        radius = {"q": 1.0, "z1": np.abs(u1), "z2": np.abs(u2)}
        return cls(tuple(
            None if r.is_zero else
            _RayRational(table(r.num),
                         None if r.den == ConjPoly.one() else real(r.den))
            for r in rationals) + tuple(
            None if p is None else
            _RayProfile(table(p.poly), radius[p.radial], p.R)
            for p in profiles))

    def take(self, sel) -> "_RayFunction":
        """The same tables on the rays sel only."""
        return _RayFunction(tuple(None if t is None else t.take(sel)
                                  for t in self.items))

    @_quiet
    def values(self, lam) -> List[object]:
        """Every table at radius lam, of shape (n_rays,), (rows, 1) or
        (rows, n_rays), in build order; 0j where there is no table.  A pole
        comes out as inf or nan."""
        lam2 = _paired(lam)
        return [0j if t is None else t.at(lam, lam2) for t in self.items]

    def modulus_sq(self, lam):
        """|f|^2 at radius lam on every ray."""
        lam2 = _paired(lam)
        g = _abs_sq(*(0j if t is None else t.at(lam, lam2)
                      for t in self.items[:2]))
        # f = 0 has no table to shape the result
        return g if np.ndim(g) else np.zeros(np.shape(lam))

    def modulus_sq_slope(self, lam):
        """|f|^2 and its derivative in the radius, at radius lam on every
        ray; f is not 0."""
        lam2 = _paired(lam)
        g = slope = 0.0
        for t in self.items[:2]:
            if t is not None:
                F, dF = t.slope_at(lam, lam2)
                g = g + (F.real ** 2 + F.imag ** 2)
                slope = slope + 2.0 * (F.real * dF.real + F.imag * dF.imag)
        return g, slope

    @property
    def degree(self) -> Optional[int]:
        """The degree m of a homogeneous f: every table of f1 and f2 has one
        row and both components the same degree, so that
        |f(lam u)|^2 = lam^(2m) a(u) on every ray.  None for any other f;
        0 for f = 0."""
        degrees = set()
        for t in self.items[:2]:
            if t is None:
                continue
            if len(t.num.c) > 1 or (t.den is not None and len(t.den.c) > 1):
                return None
            degrees.add(t.num.low - (0 if t.den is None else t.den.low))
        return None if len(degrees) > 1 else max(degrees, default=0)

    @functools.cached_property
    def level_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Rows (s, q), ascending powers of the radius by ray, of the two
        polynomials free of eps with
        D1^2 D2^2 (|f|^2 - eps^2) = lam^L (s - eps^2 q) along the rays, for
        fi = Ni / Di: s = |N1|^2 D2^2 + |N2|^2 D1^2 and q = D1^2 D2^2, by
        convolving the table rows.  A component with no table drops out.
        Built once per mesh, on first use."""
        squares = [(_square(t.num), _square(t.den))
                   for t in self.items[:2] if t is not None]
        if len(squares) == 1:
            return tuple(_aligned(*squares[0]))
        (n1, d1), (n2, d2) = squares
        a, b, q = _aligned(_times(n1, d2), _times(n2, d1), _times(d1, d2))
        return a + b, q


def _abs_sq(F1, F2):
    """|f|^2 = |F1|^2 + |F2|^2 from real and imaginary squares; a component
    with no table (the scalar 0j) adds nothing."""
    squares = [F.real ** 2 + F.imag ** 2 for F in (F1, F2) if np.ndim(F)]
    if len(squares) == 2:
        return squares[0] + squares[1]
    return squares[0] if squares else 0.0


def _conv(a, b):
    """Rows of the product of two ray polynomials given by their rows."""
    out = np.zeros((len(a) + len(b) - 1,)
                   + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for k, row in enumerate(a):
        out[k:k + len(b)] += row * b
    return out


def _square(p: Optional[_RayPoly]) -> _RayPoly:
    """|p|^2 along the rays as a real _RayPoly; None stands for 1."""
    if p is None:
        return _RayPoly(0, np.ones((1, 1)))
    rows = _conv(p.c.real, p.c.real)
    if np.iscomplexobj(p.c):
        rows += _conv(p.c.imag, p.c.imag)
    return _RayPoly(2 * p.low, rows)


def _times(a: _RayPoly, b: _RayPoly) -> _RayPoly:
    return _RayPoly(a.low + b.low, _conv(a.c, b.c))


def _aligned(*polys: _RayPoly) -> List[np.ndarray]:
    """The rows of each poly on one common range of powers, from the lowest
    power of any of them (dropped as the common factor lam^L)."""
    low = min(p.low for p in polys)
    shape = ((max(p.low + len(p.c) for p in polys) - low,)
             + np.broadcast_shapes(*(p.c.shape[1:] for p in polys)))
    out = []
    for p in polys:
        rows = np.zeros(shape)
        rows[p.low - low:p.low - low + len(p.c)] = p.c
        out.append(rows)
    return out


def _ray_parts(f: QFunction):
    """f1, f2, then the Wirtinger derivatives of f1 and of f2 in _WIRT_VARS
    order."""
    return (f.f1, f.f2) + tuple(g.wirtinger(v) for g in (f.f1, f.f2)
                                for v in _WIRT_VARS)


class _LevelRadii(tuple):
    """A level solve: the triple (lam_star, active, inside_at_floor), and
    crossings, every crossing of |f| = eps above the floor per ray, sorted
    along the ray and padded with inf (shape (n_rays, k), k >= 1)."""

    crossings: np.ndarray

    def __new__(cls, lam_star, active, inside_at_floor, crossings):
        radii = super().__new__(cls, (lam_star, active, inside_at_floor))
        radii.crossings = crossings
        return radii

    @property
    def untrusted(self) -> np.ndarray:
        """Counts of the rays on which the level set is not a radial graph:
        (rays where |f| dips below eps without starting below it, rays that
        cross |f| = eps more than once)."""
        _, _, inside_at_floor = self
        count = np.count_nonzero(self.crossings < np.inf, axis=1)
        return np.array([np.count_nonzero(~inside_at_floor & (count > 0)),
                         np.count_nonzero(count > 1)])


def _untrusted_notes(untrusted) -> Tuple[str, ...]:
    dips, multiple = untrusted
    if not (dips or multiple):
        return ()
    return (f"level sets are not radial graphs: over the ladder, {dips} "
            "rays dip below eps without starting below it and "
            f"{multiple} rays cross |f| = eps more than once; the estimate "
            "is not converged",)


def _level_crossings(ray_fn: _RayFunction, target: float, floor, hi
                     ) -> np.ndarray:
    """Every crossing of |f|^2 = target in (floor, hi] per ray, sorted along
    the ray and padded with inf to shape (n_rays, k), k >= 1.

    The crossings are the real roots of s - target q (ray_fn.level_rows),
    found as eigenvalues of companion matrices batched by degree under
    _NODE_BUDGET entries, and each polished by one Newton step on |f|^2
    from the ray tables.  Terms too small to matter on [0, hi] (below 2^-52
    of the largest term there) are dropped from the top, so a leading
    coefficient that vanishes on some rays lowers their degree."""
    s, q = ray_fn.level_rows
    rows = s - target * q
    size = np.abs(rows) * hi ** np.arange(len(rows))[:, None]
    kept = ((size > 2.0 ** -52 * size.max(axis=0))
            & np.isfinite(size).all(axis=0))
    degree = np.where(kept.any(axis=0),
                      len(rows) - 1 - np.argmax(kept[::-1], axis=0), 0)
    lam = np.full((rows.shape[1], max(1, len(rows) - 1)), np.inf)
    for d in np.unique(degree[degree > 0]):
        rays = np.flatnonzero(degree == d)
        step = max(1, _NODE_BUDGET // (d * d))
        for sel in (rays[i:i + step] for i in range(0, len(rays), step)):
            c = rows[:d + 1, sel]
            companion = np.zeros((len(sel), d, d))
            companion[:, 0, :] = -(c[-2::-1] / c[-1]).T
            companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            roots = np.linalg.eigvals(companion)
            lam[sel, :d] = np.where(roots.imag == 0.0, roots.real, np.inf)
    g, slope = ray_fn.modulus_sq_slope(lam.T)
    polished = lam - ((g - target) / slope).T
    lam = np.where(np.isfinite(polished), polished, lam)
    lam[~((lam > floor[:, None]) & (lam <= hi[:, None]))] = np.inf
    lam.sort(axis=1)
    return lam[:, :max(1, np.count_nonzero(lam < np.inf, axis=1).max())]


@_quiet
def _solve_level_radius(ray_fn: _RayFunction, lam_hi, eps: float
                        ) -> _LevelRadii:
    """Radius where |f| = eps along each chart ray, with one entry of lam_hi
    per ray of ray_fn: the first crossing in (floor, lam_hi], where
    floor = _LAM_FLOOR_FACTOR lam_hi, or inf on a ray with none.

    The crossings are the real roots in (floor, lam_hi] of the ray
    polynomial D1^2 D2^2 (|f|^2 - eps^2) = lam^L (s - eps^2 q), whose rows
    ray_fn.level_rows builds once per mesh (_level_crossings).  A
    homogeneous f of degree m needs no root solve: |f(lam u)|^2 is
    lam^(2m) a(u), monotone along each ray, so it crosses eps exactly when
    the two ends of (floor, lam_hi] lie on either side, at
    lam_star = (eps^2 / a)^(1/2m) = lam_hi (eps^2 / |f(lam_hi u)|^2)^(1/2m).

    Returns (lam_star, active, inside_at_floor), a _LevelRadii that also
    holds every crossing.  A ray is active when |f| < eps at the floor and
    |f| >= eps at the ray's support end; since lam_hi bounds the test-form
    support, inactive rays with |f| < eps throughout carry no pairing mass.
    Rays already at or above eps at the floor are flagged separately (third
    array) for the principal-value domain, where they are included in full.
    """
    target = eps * eps
    hi = np.array(lam_hi, dtype=float)
    floor = _LAM_FLOOR_FACTOR * hi
    g_hi = ray_fn.modulus_sq(hi)
    inside_at_floor = ~(ray_fn.modulus_sq(floor) >= target)
    below_hi = ~(g_hi >= target)
    active = inside_at_floor & ~below_hi
    m = ray_fn.degree
    if m is None:
        crossings = _level_crossings(ray_fn, target, floor, hi)
    elif m:
        lam = hi * (target / g_hi) ** (0.5 / m)
        crossings = np.where(inside_at_floor != below_hi, lam,
                             np.inf)[:, None]
    else:
        # |f| is constant along every ray
        crossings = np.full((hi.size, 1), np.inf)
    return _LevelRadii(crossings[:, 0], active, inside_at_floor, crossings)


class _RayMesh(NamedTuple):
    """Flattened chart mesh: ray parameters (eta, xi1, xi2), raw weights,
    unit ray directions (u1, u2) and the volume factor sin(eta)*cos(eta).
    The node at radius lam on a ray is lam * (u1, u2); the ray tables of a
    _RayFunction are built on (u1, u2)."""

    eta: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    w: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    sin_cos: np.ndarray

    @classmethod
    def build(cls, eta_nodes, eta_weights, rule: QuadratureRule) -> "_RayMesh":
        """Product grid of the eta nodes with the rule's two phase grids."""
        ne, nx = len(eta_nodes), len(rule.xi_nodes)
        e = np.repeat(eta_nodes, nx * nx)
        w = np.repeat(eta_weights, nx * nx) * rule.xi_weight ** 2
        x1 = np.tile(np.repeat(rule.xi_nodes, nx), ne)
        x2 = np.tile(rule.xi_nodes, ne * nx)
        u1, u2 = sphere_to_complex(1.0, e, x1, x2)
        return cls(e, x1, x2, w, u1, u2, np.sin(e) * np.cos(e))

    def take(self, sel) -> "_RayMesh":
        return _RayMesh(*(a[sel] for a in self))


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


def _inverse_times(F1, F2, a, b):
    """Components of (1/f) * (a + b j) for f = F1 + F2 j, pointwise:
    (conj(F1) a + F2 conj(b), conj(F1) b - F2 conj(a)) / |f|^2."""
    r = 1.0 / _abs_sq(F1, F2)
    c1 = np.conj(F1)
    return (c1 * a + F2 * np.conj(b)) * r, (c1 * b - F2 * np.conj(a)) * r


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
def _residue_value(values, rays: _RayMesh, lam,
                   include_mirror: bool) -> Tuple[Quat, int]:
    """Oriented integral of the residue density over one level-set graph,
    lam holding the level radius of each ray and values the ray tables of
    f1, f2, their eight Wirtinger derivatives and the four test-form
    coefficients at lam."""
    jac = chart_jacobian(lam, rays.eta, rays.xi1, rays.xi2)
    F1, F2, *rest = values
    D1, D2, (ph11, ph12, ph21, ph22) = rest[:4], rest[4:8], rest[8:]
    slopes, transverse = _level_slopes(jac, F1, F2, D1, D2)
    rows = graph_rows(jac, slopes)
    pb = pullback_3forms(rows)

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

    comp1, comp2 = _inverse_times(F1, F2, alpha, beta)
    value = _masked_sum(comp1, comp2, rays.w, transverse)
    dropped = int((~transverse).sum())
    return Quat(ORIENTATION_3FORM * complex(value.z1),
                ORIENTATION_3FORM * complex(value.z2)), dropped


def residue_pair(f: QFunction, phi: TestForm2,
                 rule: Optional[QuadratureRule] = None,
                 schedule: Optional[EpsilonSchedule] = None,
                 include_mirror: bool = True) -> CurrentEstimate:
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
    require_rays(residue_rays(rule.n_xi, schedule, support))
    parts = _ray_parts(f)
    eps_list = schedule.values()
    values: List[Quat] = []
    dropped_total = 0
    untrusted = np.zeros(2, dtype=int)
    for eps in eps_list:
        mesh = _RayMesh.build(*graded_eta_panels(eps, support), rule)
        radii = _solve_level_radius(
            _RayFunction.build(parts[:2], (), mesh.u1, mesh.u2),
            phi.support_lambda(mesh.eta), eps)
        lam, active, _ = radii
        untrusted += radii.untrusted
        if not active.any():
            values.append(Quat(0.0, 0.0))
            continue
        # the density tables are built on the active rays only, and
        # dropped once evaluated
        rays = mesh.take(np.flatnonzero(active))
        lam = lam[active]
        values_at = _RayFunction.build(parts, phi.coefficients, rays.u1,
                                       rays.u2).values(lam)
        val, dropped = _residue_value(values_at, rays, lam, include_mirror)
        dropped_total += dropped
        values.append(val)
    notes = list(_untrusted_notes(untrusted))
    if dropped_total:
        notes.append(f"{dropped_total} level-set nodes were not transverse "
                     "to the radial rays and were dropped")
    part = "(1,0)+(0,1)" if include_mirror else "(1,0)"
    return finalize(eps_list, values, part=part, notes=notes,
                    trusted=not untrusted.any())


def _pv_kernels(f: QFunction):
    """Kernels ((K11, K12), (K21, K22)) of the principal-value density,
    exactly: with a = f1_z1 psi1 + f1_z2 psi2 and
    b = f2_z2b conj(psi2) - f2_z1b conj(psi1), the density
    (1/f) (a + b j), which is
    (conj(f1) a + f2 conj(b), conj(f1) b - f2 conj(a)) / |f|^2,
    equals (psi1 K11 + psi2 K12, conj(psi1) K21 + conj(psi2) K22) / |f|^2."""
    f1, f2 = f.f1, f.f2
    f1_z1, f1_z2 = f1.wirtinger("z1"), f1.wirtinger("z2")
    f2_z1b, f2_z2b = f2.wirtinger("z1b"), f2.wirtinger("z2b")
    c1 = f1.conjugate()
    return ((c1 * f1_z1 - f2 * f2_z1b.conjugate(),
             c1 * f1_z2 + f2 * f2_z2b.conjugate()),
            (-(c1 * f2_z1b) - f2 * f1_z1.conjugate(),
             c1 * f2_z2b - f2 * f1_z2.conjugate()))


class _PvDensity(NamedTuple):
    """The principal-value density of f against psi, folded once per call.

    A coefficient psi_i is pi_i bump(|q| / R_i), so the density times |f|^2
    is a sum over the distinct radii R of bump(lam / R) times the products
    sum_i pi_i K1i (scalar part) and sum_i conj(pi_i) K2i (j part) over the
    coefficients of radius R.  ray_fn tabulates f1, f2, then each product
    that is not identically zero; slots holds, per product, its part
    (0 scalar, 1 j) and its R."""

    ray_fn: _RayFunction
    slots: Tuple[Tuple[int, float], ...]

    @classmethod
    def build(cls, f: QFunction, psi: TestForm3, u1, u2) -> "_PvDensity":
        sums = {}
        for p, k1, k2 in zip(psi.coefficients, *_pv_kernels(f)):
            if p is not None:
                acc = sums.setdefault(p.R, [ConjRational.zero()] * 2)
                acc[0] = acc[0] + k1 * p.poly
                acc[1] = acc[1] + k2 * p.poly.conjugate()
        products = [(part, R, r) for R, acc in sums.items()
                    for part, r in enumerate(acc) if not r.is_zero]
        ray_fn = _RayFunction.build(
            (f.f1, f.f2) + tuple(r for _, _, r in products), (), u1, u2)
        return cls(ray_fn, tuple((part, R) for part, R, _ in products))

    def take(self, sel) -> "_PvDensity":
        return _PvDensity(self.ray_fn.take(sel), self.slots)

    @_quiet
    def terms(self, lam, w):
        """The density at radius lam, before the chart volume factor, times
        the real weight w, as one term per surviving product: pairs of its
        part (0 scalar, 1 j) and w bump(lam / R) P / |f|^2.  lam is shaped
        as in _RayFunction.values.  A node where |f|^2 is zero or not finite
        is a pole, whether or not any product survives the fold."""
        F1, F2, *products = self.ray_fn.values(lam)
        g = _abs_sq(F1, F2)
        if not np.all((g > 0.0) & (g < np.inf)):
            raise PoleOnDomain(_SINGULAR)
        w = w / g
        scaled = {R: bump(lam / R) * w for _, R in self.slots}
        return [(part, P * scaled[R])
                for (part, R), P in zip(self.slots, products)]


@_quiet
def _pv_radial(density: _PvDensity, rays: _RayMesh, lam, w_lam) -> Quat:
    """Oriented integral of the pv density times the volume element
    4 lam^3 sin(eta) cos(eta) over a radial node table on the rays.

    Row k of the table holds radii lam[k] and radial weights w_lam[k], of
    shape (1,) for one radius shared by every ray or (n_rays,) for one
    radius per ray; the node is lam * (u1, u2).  As many rows as fit
    _NODE_BUDGET nodes go through one evaluation of the density.
    """
    n_rays = len(rays.w)
    if not n_rays:
        # the levelset region keeps no ray when |f| < eps on all the support
        return Quat(0.0, 0.0)
    rows = max(1, _NODE_BUDGET // n_rays)
    totals = [0.0 + 0.0j, 0.0 + 0.0j]
    for start in range(0, len(lam), rows):
        lam_c = lam[start:start + rows]
        w = ((w_lam[start:start + rows] * 4.0 * lam_c ** 3)
             * (rays.w * rays.sin_cos))
        for part, term in density.terms(lam_c, w):
            totals[part] += term.sum()
    if not np.isfinite(totals).all():
        # a product that is not finite where |f|^2 is
        raise PoleOnDomain(_SINGULAR)
    return Quat(ORIENTATION_4FORM * totals[0], ORIENTATION_4FORM * totals[1])


@_quiet
def _levelset_nodes(density: _PvDensity, mesh: _RayMesh,
                    radii: _LevelRadii, support: float):
    """Rays that meet {|f| >= eps} within the support ball, with log-spaced
    Gauss nodes on each from the level radius of the rung's level solve
    radii (or, for rays that start at or above eps, from near the origin)
    out to the support.  Returns the kept rays' density and mesh, lam and
    w_lam, as arguments of _pv_radial."""
    lam_star, active, inside = radii
    start = np.where(inside, lam_star, _LAM_FLOOR_FACTOR * support)
    sel = np.flatnonzero(active | ~inside)
    start = np.minimum(start[sel], support)
    s_nodes, s_w = gauss_panels([0.0, 1.0], _LOG_ORDER)
    stretch = np.log(np.maximum(support / start, 1.0))
    lam = start * np.exp(s_nodes[:, None] * stretch)
    return (density.take(sel), mesh.take(sel), lam,
            s_w[:, None] * lam * stretch)


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

    The density is folded once per call (_PvDensity): the kernel products
    pi_i K1i and conj(pi_i) K2i of the coefficients pi_i bump(|q| / R_i) are
    summed exactly per distinct R, and only those that are not identically
    zero are tabulated beside f1 and f2.  Each node then costs |f|^2 from
    the f1 and f2 tables, one bump per distinct R and one Horner evaluation
    per surviving product.
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
        # the (1,0) verdict carries over, untrusted level sets included
        return finalize(base.epsilons, vals, part="(0,1)", notes=notes,
                        trusted=base.converged)
    if part != "(1,0)":
        raise ValueError("part must be '(1,0)' or '(0,1)'")
    if rule is None:
        rule = build_quadrature(32, 64)
    support = psi.support_radius
    if schedule is None:
        schedule = EpsilonSchedule.for_radius(support)
    if not schedule.eps0 < support:
        raise ValueError("schedule must start inside the test-form support")
    if region not in ("metric", "levelset"):
        raise ValueError("region must be 'metric' or 'levelset'")
    require_rays(pv_rays(rule.n_eta, rule.n_xi))
    eps_list = schedule.values()
    mesh = _RayMesh.build(rule.eta_nodes, rule.eta_weights, rule)
    density = _PvDensity.build(f, psi, mesh.u1, mesh.u2)
    untrusted = np.zeros(2, dtype=int)
    if region == "metric":
        edges = [geometric_edges(eps_list[0], support, eps_list[0])]
        edges += [[a, b] for a, b in zip(eps_list[1:], eps_list)]
        shells = (gauss_panels(e, _SHELL_ORDER) for e in edges)
        values = list(itertools.accumulate(
            _pv_radial(density, mesh, lam[:, None], w[:, None])
            for lam, w in shells))
        notes = ()
    else:
        hi = np.full(mesh.eta.shape, support)
        values = []
        for eps in eps_list:
            radii = _solve_level_radius(density.ray_fn, hi, eps)
            untrusted += radii.untrusted
            # one rung's node table at a time: it is dropped before the next
            values.append(_pv_radial(*_levelset_nodes(density, mesh, radii,
                                                      support)))
        notes = (("excluded region follows the level sets of |f|",)
                 + _untrusted_notes(untrusted))
    return finalize(eps_list, values, part="(1,0)", notes=notes,
                    trusted=not untrusted.any())
