"""Residue and principal-value pairings for quaternion-valued functions.

Both pairings integrate a density built from the reciprocal of the function
and its first Wirtinger derivatives against a compactly supported test form,
on a family of domains indexed by a small radius eps, and report the
extrapolated limit.  Both reduce to a table of radial nodes on the chart
rays, summed by one integrator under a fixed node budget with the chart's
closed-form volume element 4 lam^3 sin(eta) cos(eta).

The principal-value pairing integrates a 4-form density over the complement
of the excluded region, which is the metric ball |q| < eps by default or the
sublevel set |f| < eps with region="levelset".  Both regions accumulate
shells down the ladder, so each radial interval of a ray is integrated
once: rung k adds to rung k-1 the integral from the ray's start radius on
rung k to its start on rung k-1.  The start is eps for the ball; for the
sublevel set it is the level radius, the support on a ray below eps over
all of it, or the radius floor on a ray that starts at or above eps, and
it never moves out as eps falls, since |f| is continuous along the ray.
The whole ladder goes through the integrator in one pass: a node table
holds the shells of every rung, the integrator returns one sum per segment
of the table, the shells of one rung, and the rungs are the running sums
of the segments down the ladder.  The ball's table is one column of radii
shared by every ray, the first shell's geometric panels and then
[eps_k, eps_(k-1)] for every k, segmented by row.  The sublevel set's
start radii on every rung come from one level solve of the whole ladder
(_solve_level_radius, called by _levelset_bounds): one broadcast over
every rung and ray for a homogeneous f, while for any other f the root
solve still runs rung by rung inside that call.  Its open shells, one per
rung and ray, are the columns of at most two tables, one of log-spaced and
one of Gauss nodes (_levelset_shells): virtual rays, each a flat index into
the (rung, ray) grid, split into its rung, the segment, and its chart ray
one block at a time.  An integrator builds a table one block of columns at
a time (_Nodes) and takes the density on one block's rays at a time, both
under the node budget.

The residue pairing integrates a 3-form density alpha over the level set
g = |f|^2 = eps^2.  Per chart ray the level radius lam* is the first real
root of a polynomial in the radius (in closed form when f is homogeneous),
from the same level solve on a one-rung ladder, as every rung grades its
own mesh.  The pullback of alpha to the level set is its Gelfand-Leray form
(Gelfand and Shilov, Generalized Functions, vol. 1, 1964): with
V = dz1^dz1b^dz2^dz2b, it is
(dg^alpha / V) 4 lam^3 sin(eta) cos(eta) / (dg/dlam) deta dxi1 dxi2 at lam*,
since dg vanishes on the level set's tangents.  So a residue rung is one row
of the radial table, the level radii with radial weight 1 / (dg/dlam), and
no surface geometry is computed: dg^alpha / V turns the 3-form monomials
dz1^dz1b^dz2, dz1^dz2^dz2b, dz1^dz1b^dz2b and dz1b^dz2^dz2b into -g_z2b,
-g_z1b, g_z2 and g_z1.  A node where dg/dlam is not positive (the level set
is not transverse to its ray) is dropped and counted.  A ray on which the
level set is not a radial graph, because |f| dips below eps without
starting below it, crosses eps more than once or crosses it below the
radius floor, is counted, and any such ray on the ladder leaves the
estimate not converged, with a note, as does a rung of an f of degree 0
whose level set is a cone of whole rays, which no ray crosses; the same
rung leaves the levelset principal value not converged.

Both densities are folded once per call, in exact arithmetic.  Each
test-form coefficient pi bump(r / R), with r = |q|, |z1| or |z2|, has a
kernel pair (K1, K2) of rationals in f and first Wirtinger derivatives (of
f, and of g for the residue) such that the density is the sum over the
coefficients of (pi K1 + conj(pi) K2 j) bump(r / R) / |f|^2.  The products
pi K1 and conj(pi) K2 are summed per (R, r), and only those that are not
identically zero are tabulated, so a node needs |f|^2, one bump per
distinct (R, r) and one Horner evaluation per surviving product.  Every
ray table on one set of rays, f1, f2, the products, g and the term sizes
of f, takes its powers of the unit directions from one symfun _PointTable
of them (_RayFunction.points), the table float evaluation uses.

Each call decides once, exactly, how to chart f (_Plan, which each pairing
builds once all its inputs pass): g = |f|^2 in lowest terms
(modulus_function), whether the pairing takes the phase average, and the
degree of f.  f is homogeneous of degree m when f1 and f2 are each a ratio
of homogeneous polynomials of degree m, read from their exponent keys: then
|f(lam u)|^2 = lam^(2m) |f(u)|^2 on every ray, and every denominator a
pairing reads is homogeneous, one row of its ray table.  The level solve
takes its closed form from m, and the principal-value density is split
(_RaySplit): on each ray it is sum_k alpha_k(u) lam^p_k bump(lam / R), with
per-ray angular rows alpha_k built once per call.  A node then costs one
bump per distinct R and its powers of lam, by multiplication, and no table
is evaluated.  The metric region sums alpha over the rays once and weighs
the radial profiles lam^p bump(lam / R) at each node of its shared column;
the levelset region integrates them over each virtual ray's shell and dots
them with alpha on its chart ray.  Any other f is evaluated node by node
(_PvDensity.radial).

When g is exactly a function of |z1|^2 and |z2|^2 (every catalogue entry
but prop34 at its default parameters), so is every denominator a pairing of
f reads, and the plan takes the phase average over the torus
(z1, z2) -> (e^(i t1) z1, e^(i t2) z2).  On a chart ray the monomial
z1^a conj(z1)^b z2^c conj(z2)^d carries the phase
e^(i (a - b) xi1 + i (c - d) xi2), while |f|, the term sizes of f, every
denominator, every bump and so every level radius depend on (lam, eta)
alone.  So the integral over both phases keeps exactly the monomials with
a = b and c = d of each folded product's numerator (_Plan.fold), times
(2 pi)^2, and the pairing runs on the one-phase mesh (_Plan.mesh): one ray
per eta node, at xi1 = xi2 = 0, of weight (2 pi)^2 times the eta weight,
through the same tables, integrands and level solve as the n_xi^2 rays per
eta node of any other f.  The n_xi-point trapezoid rule in each phase is
exact below phase degree n_xi, so the two agree to rounding once n_xi
exceeds the density's phase degree, and the one-phase mesh does not read
n_xi except to count its untrusted and dropped rays in rays of the n_xi
rule, n_xi^2 per ray of the mesh.

A node, or for a split a ray, is a pole when |f| <= POLE_RTOL times the
term size of f there, the sum over f1 and f2 of the term sizes of the
numerator over |den| (_PvDensity.off_zero_set), the rule
ConjRational.eval_screened applies to denominators: such a node lies on the
zero set of f up to rounding, where 1/f is rounding noise times 1e16, and
the pairing raises PoleOnDomain rather than sum it.  A residue rung
integrates only the rays that cross |f| = eps, so chart rays inside the
zero set are never tested there.

Every node sits at lam * u on a chart ray with unit direction u, so each
rational a pairing reads (f1, f2 and the folded products) is tabulated once
per mesh as p(lam u) = sum_k c_k(u) lam^k for its numerator and
denominator, the terms of total degree k summed at u, and a node evaluates
a Horner polynomial in the real radius; a bump is bump(lam r(u) / R) with
r(u) = 1, |u1| or |u2|.  |f|^2 = N / D is computed once per call, exactly
and in lowest terms (modulus_function), and the level radii of an f that
is not homogeneous are real roots of N - eps^2 D, whose coefficient rows
are the ray tables of N and D, built as those of any other rational.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError, IdenticallyZero, PoleOnDomain, TooCoarse
from ..operators import modulus_function
from ..qcore import Quat
from ..symfun import (POLE_RTOL, ConjPoly, ConjRational, QFunction,
                      _PointTable)
from .chart import ORIENTATION_3FORM, ORIENTATION_4FORM, sphere_to_complex
from .estimate import CurrentEstimate, EpsilonSchedule, finalize
from .forms import Profile, TestForm2, TestForm3, bump
from .quadrature import (QuadratureRule, build_quadrature, gauss_panels,
                         geometric_edges, graded_eta_panels, phase_grid,
                         pv_rays, require_rays, residue_rays)

_LAM_FLOOR_FACTOR = 1e-9
# nodes per density evaluation in both pairings, and matrix entries per
# batch of companion matrices in the level solve; bounds memory
_NODE_BUDGET = 1 << 15
# Gauss nodes per radial panel: shells in lam (both regions), and the
# log-spaced shells of the levelset region that end at the support or start
# at the radius floor
_SHELL_ORDER = 12
_LOG_ORDER = 24
_SINGULAR = "density is singular inside the integration region"


def _quiet(fn):
    """Poles show up as inf/nan and are caught by explicit finiteness checks;
    numpy need not warn on the way there."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return run


def _paired(lam):
    """Radii for a complex table's real view, where each ray has a real and
    an imaginary column: a shared radius (last axis 1) already fits, a
    per-ray radius is repeated for both columns."""
    return lam if np.shape(lam)[-1] == 1 else np.repeat(lam, 2, axis=-1)


def _take_rays(tree, sel):
    """A tree of tuples and NamedTuples of per-ray arrays (_RayFunction,
    _PvDensity ...) on the rays sel only.  Every array has its rays on the
    last axis: a slice gives a view, whose rows stay contiguous as a real
    view needs, and an index array gives a copy.  A _PointTable of the rays
    is built afresh on its taken directions.  Anything else (ints, floats,
    ConjRationals, None) passes through unchanged."""
    if isinstance(tree, np.ndarray):
        return (tree[..., sel] if isinstance(sel, slice)
                else tree.take(sel, axis=-1))
    if isinstance(tree, _PointTable):
        return _PointTable(*(_take_rays(v, sel) for v in tree.z))
    if isinstance(tree, tuple):
        items = [_take_rays(t, sel) for t in tree]
        return type(tree)(*items) if hasattr(tree, "_fields") else tuple(items)
    return tree


class _RayPoly(NamedTuple):
    """One polynomial along chart rays: p(lam u) = lam^low sum_k c[k] lam^k,
    row k of c holding, per ray, the terms of total degree low + k at the
    unit direction u.  Numerator tables are complex; denominator tables
    (real-valued polynomials) and term-size tables are real."""

    low: int
    c: np.ndarray

    @classmethod
    def build(cls, terms, power, n_rays: int, dtype) -> "_RayPoly":
        """Tabulate the terms, pairs (exponent key, coefficient as a Python
        number), of a polynomial in a table of dtype; power(var, e) is the
        e-th power of the ray coordinate var, in the order of the key."""
        terms = list(terms)
        degrees = [sum(key) for key, _ in terms] or [0]
        low = min(degrees)
        c = np.zeros((max(degrees) - low + 1, n_rays), dtype=dtype)
        for (key, term), deg in zip(terms, degrees):
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


class _RayFunction(NamedTuple):
    """Ray tables of what a pairing reads, on one set of chart rays: f1, f2
    and the other rationals it needs.  A rational that is identically zero
    has no table (None).  plan is the pairing's _Plan, whose g = |f|^2
    level_rows tabulates on the unit directions u = (u1, u2) of the rays;
    points is the _PointTable of u, whose powers every table here is
    built from."""

    items: Tuple[Optional[_RayRational], ...]
    plan: _Plan
    points: _PointTable

    @classmethod
    def build(cls, rationals: Sequence[ConjRational], u1, u2,
              plan: _Plan) -> "_RayFunction":
        return cls((), plan, _PointTable(u1, u2)).extended(rationals)

    def extended(self, rationals: Sequence[ConjRational]) -> "_RayFunction":
        """self with the tables of more rationals appended, on the same
        powers of u."""
        table = _tables(self.points)
        return self._replace(items=self.items + tuple(
            None if r.is_zero else
            _RayRational(table(r.num),
                         None if r.den == ConjPoly.one() else
                         _real(table(r.den)))
            for r in rationals))

    @_quiet
    def values(self, lam) -> List[object]:
        """Every table at radius lam, of shape (n_rays,), (rows, 1) or
        (rows, n_rays), in build order; 0j where there is no table.  A pole
        comes out as inf or nan."""
        lam2 = _paired(lam)
        return [0j if t is None else t.at(lam, lam2) for t in self.items]

    def modulus_sq(self, lam):
        """|f|^2 at radius lam on every ray; f is not 0."""
        lam2 = _paired(lam)
        return _abs_sq(*(0j if t is None else t.at(lam, lam2)
                         for t in self.items[:2]))

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

    def level_rows(self) -> np.ndarray:
        """Rows (s, q), ascending powers of the radius by ray, of the real
        numerator N and denominator D of |f|^2 = N / D in lowest terms
        (the plan's g), tabulated as any other rational, so that
        D (|f|^2 - eps^2) = lam^L (s - eps^2 q) along the rays."""
        table = _tables(self.points)
        num, den = (_real(table(p))
                    for p in (self.plan.g.num, self.plan.g.den))
        low = min(num.low, den.low)
        rows = np.zeros((2, max(num.low + len(num.c), den.low + len(den.c))
                         - low, self.points.shape[-1]))
        for row, p in zip(rows, (num, den)):
            row[p.low - low:p.low - low + len(p.c)] = p.c
        return rows


def _tables(points: _PointTable):
    """table(poly): the complex _RayPoly of a polynomial on the rays of the
    unit directions of points, a _PointTable."""
    return lambda poly: _RayPoly.build(((key, complex(coeff))
                                        for key, coeff in poly.terms.items()),
                                       points.power, points.shape[-1],
                                       complex)


def _real(p: _RayPoly) -> _RayPoly:
    """The real part of a table of a real-valued polynomial."""
    return _RayPoly(p.low, np.ascontiguousarray(p.c.real))


def _abs_sq(F1, F2):
    """|f|^2 = |F1|^2 + |F2|^2 from real and imaginary squares; a component
    with no table (the scalar 0j) adds nothing, and f is not 0."""
    squares = [F.real ** 2 + F.imag ** 2 for F in (F1, F2) if np.ndim(F)]
    return squares[0] if len(squares) == 1 else squares[0] + squares[1]


class _LevelRadii(NamedTuple):
    """A level solve on a ladder of eps: lam_star, active and
    inside_at_floor of shape (rungs, n_rays), untrusted, the counts of
    the rays on which the level set is not a radial graph above the floor,
    summed over the ladder (_untrusted_counts), and cones, the count of
    rungs whose level set is a cone of whole rays, which no ray crosses:
    f has degree 0 and |f| < eps on some rays but not all."""

    lam_star: np.ndarray
    active: np.ndarray
    inside_at_floor: np.ndarray
    untrusted: np.ndarray
    cones: int


def _untrusted_counts(inside_at_floor, crossings, hidden) -> np.ndarray:
    """Counts, over every ray and rung given, of the rays on which the level
    set is not a radial graph above the floor: (rays where |f| dips below
    eps without starting below it, rays that cross |f| = eps more than
    once, rays that cross it below the floor); crossings has one more axis,
    the crossings of each ray, than the masks."""
    count = np.count_nonzero(crossings < np.inf, axis=-1)
    return np.array([np.count_nonzero(~inside_at_floor & (count > 0)),
                     np.count_nonzero(count > 1),
                     np.count_nonzero(hidden)])


def _level_notes(untrusted, cones: int) -> Tuple[str, ...]:
    """The notes on a ladder's level solves: its untrusted counts
    (_untrusted_counts) and its cone rungs (_LevelRadii)."""
    dips, multiple, hidden = untrusted
    notes = []
    if dips or multiple:
        notes.append(f"level sets are not radial graphs: over the ladder, "
                     f"{dips} rays dip below eps without starting below it "
                     f"and {multiple} rays cross |f| = eps more than once; "
                     "the estimate is not converged")
    if hidden:
        notes.append(f"over the ladder, {hidden} rays cross |f| = eps below "
                     f"the radius floor ({_LAM_FLOOR_FACTOR:g} of the "
                     "support), where the level solve does not look; the "
                     "estimate is not converged")
    if cones:
        notes.append(f"on {cones} rungs the level set is a cone of whole "
                     "rays, which no ray crosses (|f| is constant on rays); "
                     "the estimate is not converged")
    return tuple(notes)


def _level_crossings(ray_fn: _RayFunction, level_rows, target: float,
                     floor, hi) -> Tuple[np.ndarray, np.ndarray]:
    """Every crossing of |f|^2 = target in (floor, hi] per ray, sorted along
    the ray and padded with inf to shape (n_rays, k), k >= 1, and the mask
    of the rays with a crossing in (0, floor].

    The crossings are the real roots of s - target q (ray_fn.level_rows()),
    found as eigenvalues of companion matrices batched by degree under
    _NODE_BUDGET entries, and each polished by one Newton step on |f|^2
    from the f1 and f2 tables.  Terms too small to matter on [0, hi] (below
    2^-52 of the largest term there) are dropped from the top, so a leading
    coefficient that vanishes on some rays lowers their degree."""
    s, q = level_rows
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
    hidden = ((lam > 0.0) & (lam <= floor[:, None])).any(axis=1)
    lam[~((lam > floor[:, None]) & (lam <= hi[:, None]))] = np.inf
    lam.sort(axis=1)
    return (lam[:, :max(1, np.count_nonzero(lam < np.inf, axis=1).max())],
            hidden)


@_quiet
def _solve_level_radius(ray_fn: _RayFunction, lam_hi, eps) -> _LevelRadii:
    """Radius where |f| = eps along each chart ray, for every rung of the
    ladder eps (a 1-D array), with one entry of lam_hi per ray of ray_fn:
    the first crossing in (floor, lam_hi], where
    floor = _LAM_FLOOR_FACTOR lam_hi, or inf on a ray with none.  The rungs
    lead every result's axes; a single eps is the ladder (eps,).

    The crossings are the real roots in (floor, lam_hi] of the ray
    polynomial D (|f|^2 - eps^2) = lam^L (s - eps^2 q) of the exact
    |f|^2 = N / D, whose rows ray_fn.level_rows() builds once per call
    (_level_crossings), one rung at a time.  A homogeneous f of degree m
    (_Plan.degree) needs no root solve: |f(lam u)|^2
    is lam^(2m) a(u), monotone along each ray, so it crosses eps exactly
    when the two ends of (floor, lam_hi] lie on either side, at
    lam_star = (eps^2 / a)^(1/2m) = lam_hi (eps^2 / |f(lam_hi u)|^2)^(1/2m),
    one broadcast over every rung and ray.  |f|^2 at both ends is taken
    once per call, for every rung.

    Returns (lam_star, active, inside_at_floor), the untrusted counts over
    the ladder and the cone rungs of an f of degree 0, as a _LevelRadii; a
    ray that crosses below the floor (for a homogeneous f, one whose
    closed-form radius lies in (0, floor]) is counted there.  A ray is
    active when |f| < eps at the floor and |f| >= eps at the ray's support
    end; since lam_hi bounds the test-form support, inactive rays with
    |f| < eps throughout carry no pairing mass.
    Rays already at or above eps at the floor are flagged separately (third
    array) for the principal-value domain, where they are included in full.
    """
    target = np.square(np.asarray(eps, dtype=float))[:, None]
    hi = np.array(lam_hi, dtype=float)
    floor = _LAM_FLOOR_FACTOR * hi
    g_hi = ray_fn.modulus_sq(hi)
    inside_at_floor = ~(ray_fn.modulus_sq(floor) >= target)
    active = inside_at_floor & (g_hi >= target)
    m = ray_fn.plan.degree
    untrusted, cones = np.zeros(3, dtype=int), 0
    if m is None:
        lam_star = np.empty(active.shape)
        rows = ray_fn.level_rows()
        for k, row in enumerate(target):
            # the rung before's crossings die before this rung's are found
            crossings = hidden = None
            crossings, hidden = _level_crossings(ray_fn, rows, row[0], floor,
                                                 hi)
            lam_star[k] = crossings[:, 0]
            untrusted += _untrusted_counts(inside_at_floor[k], crossings,
                                           hidden)
    elif m:
        lam = hi * (target / g_hi) ** (0.5 / m)
        lam_star = np.where(inside_at_floor != ~(g_hi >= target), lam, np.inf)
        untrusted = _untrusted_counts(inside_at_floor, lam_star[..., None],
                                      (lam > 0.0) & (lam <= floor))
    else:
        # |f| is constant along every ray
        lam_star = np.full(active.shape, np.inf)
        cones = np.count_nonzero(inside_at_floor.any(axis=1)
                                 & ~inside_at_floor.all(axis=1))
    return _LevelRadii(lam_star, active, inside_at_floor, untrusted, cones)


class _RayMesh(NamedTuple):
    """Flattened chart mesh: the eta of each ray, its weight (the eta weight
    times both phase weights times the volume factor sin(eta)*cos(eta)) and
    its unit direction (u1, u2).  The node at radius lam on a ray is
    lam * (u1, u2); the ray tables of a _RayFunction are built on (u1, u2)."""

    eta: np.ndarray
    w: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    @classmethod
    def build(cls, eta_nodes, eta_weights, n_xi: int) -> "_RayMesh":
        """Product grid of the eta nodes with two phase_grid(n_xi) grids,
        eta-major: the n_xi^2 rays of eta node i are rays i n_xi^2 onwards.
        The weights, cos, sin and the phases are taken on the axes and
        broadcast, which gives the same values, bit for bit, as taking them
        per ray.  n_xi = 1 is the one-phase mesh of a pairing that takes
        the phase average (_Plan.mesh): one ray per eta node, at
        xi1 = xi2 = 0, of phase weight 2 pi in each phase."""
        xi, xi_w = phase_grid(n_xi)
        ne, nx = len(eta_nodes), len(xi)
        eta = np.asarray(eta_nodes, dtype=float)
        w = eta_weights * xi_w ** 2 * (np.sin(eta) * np.cos(eta))
        u1, u2 = sphere_to_complex(1.0, eta[:, None, None], xi[:, None], xi)
        shape = (ne, nx, nx)
        return cls(np.repeat(eta, nx * nx), np.repeat(w, nx * nx),
                   np.broadcast_to(u1, shape).ravel(),
                   np.broadcast_to(u2, shape).ravel())


@dataclasses.dataclass(frozen=True)
class _Plan:
    """How a pairing of 1/f charts f, decided once per call, exactly, after
    the call's last refusal; g is |f|^2 in lowest terms (modulus_function).

    averaged: g is exactly a function of |z1|^2 and |z2|^2, every exponent
    key (a, b, c, d) of its numerator and denominator having a == b and
    c == d (sufficient, not necessary), so the pairing takes the phase
    average over the torus (z1, z2) -> (e^(i t1) z1, e^(i t2) z2) (mesh,
    fold).  Every denominator the pairing reads is then a polynomial in
    |z1|^2 and |z2|^2 as well.  Grade polynomials by the phase character
    (a - b, c - d) of their monomials: a product has a single character only
    if each factor has one, and a real factor's character is its own
    negative, so 0.  The denominator of g is D1^2 D2^2 (D^2 for a shared D)
    over such a monomial, so the real denominators D1 of f1 and D2 of f2
    have character 0, and every product denominator is made from D1, D2 and
    the denominator of g by products, conjugation and the cancelling of
    monomials |z1|^2a |z2|^2c, which keep character 0.

    degree: m when f1 and f2, a zero component aside, are each a ratio of
    homogeneous polynomials of degree m, else None.  Every product
    denominator is then homogeneous, one row of its ray table, as products,
    conjugation and the cancelling of monomials keep a polynomial
    homogeneous.  m is read from the keys of f, not of g, because the split
    screens poles only at lam = 1 (_pv_integrand) and so needs the term
    sizes of f to scale like |f|."""

    g: ConjRational
    averaged: bool
    degree: Optional[int]

    @classmethod
    def of(cls, f: QFunction) -> "_Plan":
        g = modulus_function(f)
        degrees = set()
        for r in (f.f1, f.f2):
            if not r.is_zero:
                num, den = ({sum(key) for key in p.terms}
                            for p in (r.num, r.den))
                degrees.add(num.pop() - den.pop()
                            if len(num) == len(den) == 1 else None)
        return cls(g, all(p.phase_average() == p for p in (g.num, g.den)),
                   degrees.pop() if len(degrees) == 1 else None)

    def mesh(self, eta_nodes, eta_weights, n_xi: int
             ) -> Tuple[_RayMesh, int]:
        """The chart mesh of the eta nodes and the n_xi phase rule, and the
        rays of that rule each of its rays stands for: under the phase
        average, one ray per eta node, for n_xi^2."""
        if self.averaged:
            return _RayMesh.build(eta_nodes, eta_weights, 1), n_xi * n_xi
        return _RayMesh.build(eta_nodes, eta_weights, n_xi), 1

    def fold(self, kernels, coefficients):
        """The folded products of a density (_fold), under the phase average
        each with the monomials z1^a conj(z1)^a z2^c conj(z2)^c of its
        numerator, exactly; a product with none averages to 0 and is
        dropped."""
        products = _fold(kernels, coefficients)
        if not self.averaged:
            return products
        return [(part, key, ConjRational(num, r.den))
                for part, key, r in products
                if not (num := r.num.phase_average()).is_zero]


def _ladder(f: QFunction, form, schedule, rays
            ) -> Tuple[EpsilonSchedule, float]:
    """The ladder of a pairing of 1/f against the form (by default
    EpsilonSchedule.for_radius of its support) and that support, once the
    form is not zero, the ladder starts inside the support, the
    rays(ladder, support) chart rays fit require_rays and f is not zero.

    Both pairings refuse in this one order, form, ladder, mesh, f, so a
    ladder that starts outside the support (exit 3) wins over a mesh past
    MAX_RAYS (exit 2).  The CLI's pv is the one exception: it builds its
    rule (build_quadrature) before calling pv_pair, so there the mesh is
    refused first."""
    if form.is_zero:
        raise DomainError("test form is identically zero")
    support = form.support_radius
    if schedule is None:
        schedule = EpsilonSchedule.for_radius(support)
    if not schedule.eps0 < support:
        raise DomainError("schedule must start inside the test-form support")
    require_rays(rays(schedule, support))
    if f.is_zero:
        raise IdenticallyZero("f is identically zero, so 1/f has no "
                              "currents to pair")
    return schedule, support


def _right_inverse_kernels(f: QFunction, a, b):
    """Kernel pairs (K1s, K2s) of (1/f) (alpha + beta j) times |f|^2, for
    alpha = sum a_i pi_i and beta = sum b_i conj(pi_i): the right inverse
    (conj(f1) - f2 j) / |f|^2 gives
    (conj(f1) alpha + f2 conj(beta), conj(f1) beta - f2 conj(alpha)) / |f|^2,
    so K1_i = conj(f1) a_i + f2 conj(b_i) and
    K2_i = conj(f1) b_i - f2 conj(a_i)."""
    c1, f2 = f.f1.conjugate(), f.f2
    return ([c1 * x + f2 * y.conjugate() for x, y in zip(a, b)],
            [c1 * y - f2 * x.conjugate() for x, y in zip(a, b)])


def _residue_kernels(f: QFunction, g: ConjRational, include_mirror: bool):
    """Kernel pairs ((K1 per phi_ij), (K2 per phi_ij)) of the residue
    density, exactly, for phi11, phi12, phi21, phi22 in that order; g is
    |f|^2 (modulus_function).

    The density is (1/f) (alpha + beta j) with
    alpha = (-f1_z1 phi21 + f1_z2 phi11) X + (f1_z1 phi22 - f1_z2 phi12) Y,
    beta = (f2_z1b conj(phi21) - f2_z2b conj(phi11)) conj(X)
           - (f2_z1b conj(phi22) + f2_z2b conj(phi12)) conj(Y),
    X = dz1^dz1b^dz2 and Y = dz1^dz2^dz2b; the mirror half adds
    (f1_z2b phi11 - f1_z1b phi12) X' + (f1_z1b phi22 - f1_z2b phi21) Y' to
    alpha and (f2_z1 conj(phi12) - f2_z2 conj(phi11)) X
    + (f2_z2 conj(phi21) - f2_z1 conj(phi22)) Y to beta, with
    X' = dz1^dz1b^dz2b = -conj(X) and Y' = dz1b^dz2^dz2b = -conj(Y).  On the
    level set of g = |f|^2, X, Y, X' and Y' pull back to -g_z2b, -g_z1b,
    g_z2 and g_z1 times the same real Leray factor, so
    alpha = sum a_ij phi_ij and beta = sum b_ij conj(phi_ij) times that
    factor, and _right_inverse_kernels turns a_ij, b_ij into K1_ij, K2_ij."""
    f1, f2 = f.f1, f.f2
    f1_z1, f1_z1b, f1_z2, f1_z2b = (f1.wirtinger(v)
                                    for v in ("z1", "z1b", "z2", "z2b"))
    f2_z1, f2_z1b, f2_z2, f2_z2b = (f2.wirtinger(v)
                                    for v in ("z1", "z1b", "z2", "z2b"))
    g_z1, g_z2 = g.wirtinger("z1"), g.wirtinger("z2")
    # g is real, so its conjugate-variable derivatives are conjugates
    g_z1b, g_z2b = g_z1.conjugate(), g_z2.conjugate()
    a = [-(f1_z2 * g_z2b), f1_z2 * g_z1b, f1_z1 * g_z2b, -(f1_z1 * g_z1b)]
    b = [f2_z2b * g_z2, f2_z2b * g_z1, -(f2_z1b * g_z2), f2_z1b * g_z1]
    if include_mirror:
        a = [a[0] + f1_z2b * g_z2, a[1] - f1_z1b * g_z2,
             a[2] - f1_z2b * g_z1, a[3] + f1_z1b * g_z1]
        b = [b[0] + f2_z2 * g_z2b, b[1] - f2_z1 * g_z2b,
             b[2] - f2_z2 * g_z1b, b[3] + f2_z1 * g_z1b]
    return _right_inverse_kernels(f, a, b)


def _pv_kernels(f: QFunction):
    """Kernel pairs ((K11, K12), (K21, K22)) of the principal-value density
    against psi1, psi2, exactly: the density is (1/f) (alpha + beta j) with
    alpha = f1_z1 psi1 + f1_z2 psi2 and
    beta = -f2_z1b conj(psi1) + f2_z2b conj(psi2), so the kernels are
    _right_inverse_kernels of a = (f1_z1, f1_z2) and b = (-f2_z1b, f2_z2b)."""
    a = (f.f1.wirtinger("z1"), f.f1.wirtinger("z2"))
    b = (-f.f2.wirtinger("z1b"), f.f2.wirtinger("z2b"))
    return _right_inverse_kernels(f, a, b)


def _fold(kernels, coefficients: Sequence[Optional[Profile]]):
    """The products of a density, exactly: for kernel pairs (K1s, K2s) and
    coefficients pi bump(r / R), the sums of pi K1 (scalar part, 0) and
    conj(pi) K2 (j part, 1) over the coefficients of each (R, radial), as
    triples (part, (R, radial), product) for the sums that are not
    identically zero."""
    sums = {}
    for p, k1, k2 in zip(coefficients, *kernels):
        if p is not None:
            acc = sums.setdefault((p.R, p.radial), [ConjRational.zero()] * 2)
            acc[0] = acc[0] + k1 * p.poly
            acc[1] = acc[1] + k2 * p.poly.conjugate()
    return [(part, key, r) for key, acc in sums.items()
            for part, r in enumerate(acc) if not r.is_zero]


class _PvDensity(NamedTuple):
    """A folded density (_fold) on one set of chart rays: the residue or the
    principal-value density of f against a test form.

    ray_fn tabulates f1, f2, then each product, and carries the plan
    (_Plan) for the level solve and the split; sizes holds, for f1 and
    f2, the real table of the term sizes of its numerator (None for 0):
    the sum of |c| |u1|^(a+b) |u2|^(c+d) over its terms c z1^a conj(z1)^b
    z2^c conj(z2)^d of each degree.  slots holds, per product, its part
    (0 scalar, 1 j) and the index of its bump in bumps, the pairs (R, r) of
    the distinct (R, radial), where r is the radial modulus at the unit
    direction (|u1| or |u2| per ray), or None for |q|.  w holds each ray's
    chart weight times sin(eta) cos(eta) (_RayMesh)."""

    ray_fn: _RayFunction
    sizes: Tuple[Optional[_RayPoly], ...]
    slots: Tuple[Tuple[int, int], ...]
    bumps: Tuple[Tuple[float, Optional[np.ndarray]], ...]
    w: np.ndarray

    @classmethod
    def build(cls, f: QFunction, ray_fn: _RayFunction, products, w
              ) -> "_PvDensity":
        """The density on the rays of ray_fn, a _RayFunction of f1, f2."""
        keys = list(dict.fromkeys(key for _, key, _ in products))
        points = ray_fn.points
        radius = {"q": None, "z1": points.base(4), "z2": points.base(5)}
        # a term's size |c| |u1|^(a+b) |u2|^(c+d), from the powers of |u|
        sizes = tuple(None if r.is_zero else _RayPoly.build(
            ((key, abs(complex(coeff))) for key, coeff in r.num.terms.items()),
            lambda var, e: points.power(4 + var // 2, e),
            points.shape[-1], float) for r in (f.f1, f.f2))
        ray_fn = ray_fn.extended([r for _, _, r in products])
        return cls(ray_fn, sizes,
                   tuple((part, keys.index(key)) for part, key, _ in products),
                   tuple((R, radius[radial]) for R, radial in keys), w)

    def off_zero_set(self, lam, g):
        """Where f, with |f|^2 = g at radius lam, is off its zero set and
        its poles: g is finite and |f| exceeds POLE_RTOL times the term size
        of f there, the sum over f1 and f2 of the term sizes of the
        numerator over |den|.  ConjRational.eval_screened applies the same
        rule to a denominator.  lam is shaped as in _RayFunction.values."""
        size = 0.0
        for table, t in zip(self.sizes, self.ray_fn.items):
            if table is not None:
                s = table.at(lam)
                if t.den is not None:
                    s = s / np.abs(t.den.at(lam))
                size = size + s
        return (g < np.inf) & (g > (POLE_RTOL * size) ** 2)

    @_quiet
    def terms(self, lam, w):
        """The density at radius lam, before the chart volume factor, times
        the real weight w, as one term per surviving product: pairs of its
        part (0 scalar, 1 j) and w bump(lam r / R) P / |f|^2.  lam is
        shaped as in _RayFunction.values.  A node that is not off_zero_set
        is a pole, whether or not any product survives the fold."""
        F1, F2, *products = self.ray_fn.values(lam)
        g = _abs_sq(F1, F2)
        if not np.all(self.off_zero_set(lam, g)):
            raise PoleOnDomain(_SINGULAR)
        w = w / g
        scaled = [bump(lam / R if r is None else lam * r / R) * w
                  for R, r in self.bumps]
        return [(part, P * scaled[k]) for (part, k), P in zip(self.slots,
                                                               products)]

    def radial(self, nodes: _Nodes, n_seg: int) -> np.ndarray:
        """The principal-value integrand of any f: _pv_radial."""
        return _pv_radial(self, nodes, n_seg, ORIENTATION_4FORM)


class _Nodes(NamedTuple):
    """A radial node table of rows by columns, built one block of columns
    at a time, so that an integrator holds no more of it than one block:
    at(block), for a slice block of columns, gives their radii and radial
    weights, their segments and their rays.  A table segmented by row (seg,
    one per row, ascending) gives None for the segments and block for the
    rays, column c lying on ray c of the integrand; such a table of one
    column holds radii shared by every ray.  A table of shells (seg None)
    gives one segment per column, ascending, and virtual rays, an index
    into the integrand's rays per column."""

    at: Callable
    rows: int
    width: int
    seg: Optional[np.ndarray] = None

    @classmethod
    def table(cls, lam, w_lam, seg) -> "_Nodes":
        """The table of radii lam and weights w_lam, of shape (rows, 1) or
        (rows, columns), with the segment seg[r] of row r."""
        shared = np.shape(lam)[-1] == 1
        return cls(lambda block: ((lam, w_lam) if shared
                                  else (lam[:, block], w_lam[:, block]))
                   + (None, block),
                   len(lam), np.shape(lam)[-1], seg)

    @classmethod
    def shells(cls, rule, order: int, start, end, flat) -> "_Nodes":
        """The order nodes of rule (_log_nodes, _gauss_nodes) on the shells
        [start, end] of the arrays start and end, (rung, ray), at the flat
        indices flat into them, ascending: column c is the shell at flat[c],
        of segment its rung on its ray.  The flat index is split into
        (rung, ray) one block at a time."""
        n_rays = np.shape(start)[1]
        start, end = np.ravel(start), np.ravel(end)

        def at(block):
            cell = flat[block]
            rung, ray = np.divmod(cell, n_rays)
            return rule(start[cell], end[cell]) + (rung, ray)
        return cls(at, order, len(flat))


def _segment_sums(values, seg, n_seg: int) -> np.ndarray:
    """Sums of values along its last axis over each run of equal entries of
    seg, which ascend, as n_seg entries along that axis: 0 for a segment
    with no entry."""
    starts = np.flatnonzero(np.diff(seg, prepend=-1))
    out = np.zeros(np.shape(values)[:-1] + (n_seg,), dtype=values.dtype)
    out[..., seg[starts]] = np.add.reduceat(values, starts, axis=-1)
    return out


@_quiet
def _pv_radial(density: _PvDensity, nodes: _Nodes, n_seg: int,
               orientation: float) -> np.ndarray:
    """Oriented integrals of the density times the volume element
    4 lam^3 sin(eta) cos(eta) over the segments of a radial node table
    (_Nodes), as an array (2, n_seg) of the scalar and j parts of each.

    The node at radius lam on a ray is lam * (u1, u2).  As many rows as fit
    _NODE_BUDGET nodes go through one evaluation of the density, and a row
    wider than the budget goes through in blocks of columns; the density is
    taken on one block's rays at a time.
    """
    by_row = nodes.seg is not None
    n = len(density.w) if by_row and nodes.width == 1 else nodes.width
    rows = max(1, _NODE_BUDGET // n)
    step = min(n, _NODE_BUDGET)
    totals = np.zeros((2, n_seg), dtype=complex)
    # the sums of each row over every block, or of each column of a block
    sums = np.zeros((2, nodes.rows), dtype=complex)
    for first in range(0, n, step):
        lam_b, w_lam_b, seg, sel = nodes.at(slice(first, first + step))
        sub = _take_rays(density, sel)
        if not by_row:
            sums = np.zeros((2, lam_b.shape[1]), dtype=complex)
        for start in range(0, len(lam_b), rows):
            chunk = slice(start, start + rows)
            lam_c = lam_b[chunk]
            # lam ** 3 would take pow per node when radii are per ray
            w = (w_lam_b[chunk] * 4.0 * lam_c * lam_c * lam_c) * sub.w
            for part, term in sub.terms(lam_c, w):
                if by_row:
                    sums[part, chunk] += term.sum(axis=1)
                else:
                    sums[part] += term.sum(axis=0)
        if not by_row:
            totals += _segment_sums(sums, seg, n_seg)
    if by_row:
        totals = _segment_sums(sums, nodes.seg, n_seg)
    if not np.isfinite(totals).all():
        # a product that is not finite where |f|^2 is
        raise PoleOnDomain(_SINGULAR)
    return orientation * totals


def _power(lam, p: int):
    """lam^p by multiplication: pow per node, as lam ** p takes on per-ray
    radii, costs several times more."""
    if p < 0:
        return 1.0 / _power(lam, -p)
    out = np.ones(np.shape(lam)) if p == 0 else lam
    for _ in range(p - 1):
        out = out * lam
    return out


class _RaySplit:
    """The principal-value integrand of a homogeneous f whose folded
    products each have a denominator of one row, split on each ray into
    angular rows and powers of the radius.

    With |f(lam u)|^2 = lam^(2m) |f(u)|^2 and a product
    lam^(low - low_den) sum_k c_k(u) lam^k / d(u), the integrand of row k
    at radius lam is alpha_k(u) 4 lam^p_k bump(lam / R), with
    alpha_k = w_ray c_k / (d |f(u)|^2) and p_k = 3 + low + k - low_den - 2m.
    bumps holds, per distinct R, the triple (R, p_lo, alpha): alpha[i] is
    the pair (scalar part, j part) of the rows of exponent p_lo + i, summed,
    per ray.  ok marks the rays that are off the zero set and the poles of
    f (_PvDensity.off_zero_set)."""

    def __init__(self, ok: np.ndarray, bumps):
        self.ok = ok
        self.bumps = bumps

    @functools.cached_property
    def _ray_sums(self) -> "_RaySplit":
        """The split summed over all its rays, for radii shared by every
        ray: alpha summed and ok ANDed over the rays."""
        return _RaySplit(np.all(self.ok, keepdims=True),
                         tuple((R, p_lo, alpha.sum(axis=-1, keepdims=True))
                               for R, p_lo, alpha in self.bumps))

    @_quiet
    def radial(self, nodes: _Nodes, n_seg: int) -> np.ndarray:
        """As _PvDensity.radial: the profile terms
        w_lam 4 lam^p bump(lam / R) of each node, summed over the rows of
        each column and dotted with alpha on its ray, or dotted with alpha
        summed over the rays once for radii shared by every ray, then summed
        per segment, in blocks of columns of at most _NODE_BUDGET nodes.  A
        ray that is not ok is a pole."""
        by_row = nodes.seg is not None
        if by_row and nodes.width == 1 and len(self.ok) > 1:
            return self._ray_sums.radial(nodes, n_seg)
        step = max(1, _NODE_BUDGET // nodes.rows)
        totals = np.zeros((2, n_seg), dtype=complex)
        for first in range(0, nodes.width, step):
            lam_b, w_lam_b, seg, rays = nodes.at(slice(first, first + step))
            if not self.ok[rays].all():
                raise PoleOnDomain(_SINGULAR)
            # per row of a shared column, or per column
            sums = np.zeros((2, lam_b.shape[0 if by_row else 1]), complex)
            for R, p_lo, alpha in self.bumps:
                profile = bump(lam_b / R) * w_lam_b
                power = _power(lam_b, p_lo)
                for pair in alpha[..., rays]:
                    sums += pair * np.einsum("ij,ij->i" if by_row
                                             else "ij,ij->j", profile, power)
                    power = power * lam_b
            totals += _segment_sums(4.0 * sums,
                                    nodes.seg if by_row else seg, n_seg)
        if not np.isfinite(totals).all():
            # a product denominator that is zero on an evaluated ray
            raise PoleOnDomain(_SINGULAR)
        return ORIENTATION_4FORM * totals


@_quiet
def _pv_integrand(density: _PvDensity):
    """The _RaySplit of the density when f is homogeneous (_Plan.degree),
    so that every product's denominator has one row, else the density
    itself."""
    ray_fn = density.ray_fn
    m = ray_fn.plan.degree
    if m is None:
        return density
    one = np.ones(len(density.w))
    a = ray_fn.modulus_sq(one)
    scale = density.w / a
    rows = {}
    for (part, k), t in zip(density.slots, ray_fn.items[2:]):
        low_den, s = ((0, scale) if t.den is None
                      else (t.den.low, scale / t.den.c[0]))
        for i, c in enumerate(t.num.c):
            p = 3 + t.num.low + i - low_den - 2 * m
            pair = rows.setdefault((k, p), np.zeros((2, len(a)), complex))
            pair[part] += c * s
    bumps = []
    for k, (R, _) in enumerate(density.bumps):
        powers = sorted(p for key, p in rows if key == k)
        alpha = np.zeros((powers[-1] - powers[0] + 1, 2, len(a)), complex)
        for p in powers:
            alpha[p - powers[0]] = rows[k, p]
        bumps.append((R, powers[0], alpha))
    return _RaySplit(density.off_zero_set(one, a), tuple(bumps))


@_quiet
def _residue_rung(density: _PvDensity, lam) -> Tuple[Quat, int]:
    """Oriented integral of the residue density over one level set, lam
    holding the level radius of each of the density's rays: one row of the
    radial table with the Leray weight 1 / (d|f|^2/dlam).  A node where that
    slope is not positive is not transverse to its ray and weighs 0.
    Returns the value and the count of those nodes."""
    _, slope = density.ray_fn.modulus_sq_slope(lam)
    transverse = slope > 0.0
    w_lam = np.where(transverse, 1.0 / slope, 0.0)
    (z1,), (z2,) = _pv_radial(density, _Nodes.table(
        lam[None], w_lam[None], np.zeros(1, dtype=int)), 1, ORIENTATION_3FORM)
    return Quat(complex(z1), complex(z2)), int(np.count_nonzero(~transverse))


def _residue_level_set(f: QFunction, plan: _Plan, phi: TestForm2,
                       n_xi: int, eps: float, support: float, products
                       ) -> Tuple[Quat, int, np.ndarray, int]:
    """One residue rung on its graded mesh (_Plan.mesh): the value, the
    count of nodes that are not transverse and the untrusted counts of the
    level solve, both counted in rays of the n_xi rule, so that a ray of a
    one-phase mesh counts n_xi^2 times, and the solve's cone count, 1 when
    the level set is a cone of whole rays (_LevelRadii), else 0.
    products() gives the folded density; it is asked for only when some ray
    is active, and tabulated on the active rays, where it takes the level
    solve's tables of f1 and f2.  The mesh and its tables die with the
    call, so no two rungs' are held at once."""
    mesh, weight = plan.mesh(*graded_eta_panels(eps, support), n_xi)
    level_fn = _RayFunction.build((f.f1, f.f2), mesh.u1, mesh.u2, plan)
    hi = phi.support_lambda(mesh.eta)
    radii = _solve_level_radius(level_fn, hi, (eps,))
    lam, active = radii.lam_star[0], radii.active[0]
    untrusted = radii.untrusted * weight
    if not active.any():
        return Quat(0.0, 0.0), 0, untrusted, radii.cones
    rays = np.flatnonzero(active)
    density = _PvDensity.build(f, _take_rays(level_fn, rays), products(),
                               mesh.w[rays])
    value, dropped = _residue_rung(density, lam[rays])
    return value, dropped * weight, untrusted, radii.cones


def residue_pair(f: QFunction, phi: TestForm2, n_xi: int = 32,
                 schedule: Optional[EpsilonSchedule] = None,
                 include_mirror: bool = True) -> CurrentEstimate:
    """Pair the residue current of f against the 2-form phi.

    For each eps on the schedule the density is integrated over the level
    set |f| = eps (as a radial graph over the chart sphere, with eta panels
    graded toward the poles so cylinder-like level sets stay resolved), and
    the eps -> 0 limit is extrapolated.  n_xi trapezoid nodes per phase
    fix the phase resolution; include_mirror=False drops the
    conjugate-type half of the density.  A mesh coarser than 8 phase nodes
    is refused first; then the inputs are checked as pv_pair's are
    (_ladder), a mesh larger than MAX_RAYS rays before any is built.

    The density is folded once per call (_residue_kernels, _fold), on the
    first rung with an active ray, and its products are tabulated per rung
    on the active rays only, beside the level solve's f1 and f2 tables.
    Where the plan takes the phase average (_Plan), the pairing runs on one
    ray per eta node with the phase averages of the products, so n_xi
    changes none of its values.  A node on the zero set of f, to within
    POLE_RTOL of its term size, raises PoleOnDomain.  A rung
    whose level set is a cone of whole rays (_LevelRadii) reads 0 and
    leaves the estimate not converged, with a note (_level_notes).
    """
    if n_xi < 8:
        raise TooCoarse(f"phase rule n_xi = {n_xi} is too coarse: need "
                        "n_xi >= 8")
    schedule, support = _ladder(f, phi, schedule,
                                functools.partial(residue_rays, n_xi))
    plan = _Plan.of(f)
    eps_list = schedule.values()

    @functools.cache
    def products():
        return plan.fold(_residue_kernels(f, plan.g, include_mirror),
                         phi.coefficients)

    values: List[Quat] = []
    dropped_total = cones = 0
    untrusted = np.zeros(3, dtype=int)
    for eps in eps_list:
        val, dropped, counts, cone = _residue_level_set(
            f, plan, phi, n_xi, eps, support, products)
        values.append(val)
        dropped_total += dropped
        untrusted += counts
        cones += cone
    notes = list(_level_notes(untrusted, cones))
    if dropped_total:
        notes.append(f"{dropped_total} level-set nodes were not transverse "
                     "to the radial rays and were dropped")
    part = "(1,0)+(0,1)" if include_mirror else "(1,0)"
    return finalize(eps_list, values, part=part, notes=notes,
                    trusted=not (untrusted.any() or cones),
                    phases_averaged=plan.averaged)


def _levelset_bounds(ray_fn: _RayFunction, n_rays: int, eps_list,
                     support: float) -> Tuple[np.ndarray, np.ndarray, int]:
    """The start radius of every ray on every rung of the levelset region,
    below a first row of the support, as one array (rungs + 1, n_rays), and
    the untrusted counts and cone rungs of the ladder's level solve, one
    call for every rung.  A start is the level radius on active rays,
    the support on rays below eps over all of it, the radius floor on rays
    that start at or above eps.  As |f| is continuous along a ray and
    starts below the smaller eps, a start never moves out; the running
    minimum down the rungs takes up rounding.  The raw radii die with the
    call."""
    hi = np.full(n_rays, support)
    lam_star, active, inside, untrusted, cones = _solve_level_radius(
        ray_fn, hi, eps_list)
    bounds = np.vstack([hi, np.where(active, lam_star,
                                     np.where(inside, support,
                                              _LAM_FLOOR_FACTOR * support))])
    np.minimum.accumulate(bounds, axis=0, out=bounds)
    return bounds, untrusted, cones


def _log_nodes(a, b):
    """_LOG_ORDER Gauss nodes per ray in log(lam) over [a, b], and their
    weights in lam."""
    s_nodes, s_w = gauss_panels([0.0, 1.0], _LOG_ORDER)
    stretch = np.log(b / a)
    lam = a * np.exp(s_nodes[:, None] * stretch)
    return lam, s_w[:, None] * lam * stretch


def _gauss_nodes(a, b):
    """_SHELL_ORDER Gauss nodes per ray in lam over [a, b], and weights."""
    return gauss_panels([a, b], _SHELL_ORDER)


def _levelset_shells(integrand, bounds, support: float) -> np.ndarray:
    """Integrals of the integrand (_pv_integrand) over the shells of every
    rung, as an array (2, rungs): bounds holds one row of radii per rung
    below a first row, one column per ray (_levelset_bounds), and rung k's
    shell on a ray is [bounds[k + 1], bounds[k]].  The open shells of all
    rungs are the virtual rays of at most two integrator calls: log-spaced
    nodes on shells that end at the support (a ray's first) or start at the
    radius floor, which may span decades, and Gauss nodes in lam on the
    others, which need no exp."""
    start, end = bounds[1:], bounds[:-1]
    open_ = start < end
    logged = open_ & ((end == support)
                      | (start == _LAM_FLOOR_FACTOR * support))
    n_rungs = len(start)
    parts = []
    for shells, rule, order in ((logged, _log_nodes, _LOG_ORDER),
                                (open_ & ~logged, _gauss_nodes, _SHELL_ORDER)):
        # rung-major, so the rungs ascend along the virtual rays
        flat = np.flatnonzero(shells)
        if flat.size:
            parts.append(integrand.radial(
                _Nodes.shells(rule, order, start, end, flat), n_rungs))
    totals = (sum(parts[1:], parts[0]) if parts
              else np.zeros((2, n_rungs), dtype=complex))
    # a rung with no open shell is 0, not the integrator's oriented -0
    totals[:, ~open_.any(axis=1)] = 0.0
    return totals


def pv_pair(f: QFunction, psi: TestForm3,
            rule: Optional[QuadratureRule] = None,
            schedule: Optional[EpsilonSchedule] = None,
            region: str = "metric",
            part: str = "(1,0)") -> CurrentEstimate:
    """Principal-value pairing of 1/f against the 3-form psi.

    The inputs are checked as residue_pair's are (_ladder), a rule of more
    than MAX_RAYS rays before any is built; rule defaults to 32 x 64.

    region="metric" removes the round ball |q| < eps; region="levelset"
    removes the sublevel set |f| < eps instead, which costs a level-radius
    solve, one call for every eps of the ladder (the root solve of an f
    that is not homogeneous still runs rung by rung inside it).  Both
    accumulate radial shells over the ladder, each integrated once:
    [eps_k, eps_(k-1)] on every ray for the ball, and between the ray's
    start radii on rungs k and k - 1 for the sublevel set
    (_levelset_bounds).  The shells of every rung go through the integrator
    in one call, one node table for the ball and one per node kind for the
    sublevel set (_levelset_shells), which returns the sum of each rung's
    shells; a rung is their running sum down the ladder.

    part="(0,1)" is served by formal conjugation in the same pass: the
    (1,0) pairing against the conjugated test form, its rungs conjugated
    and a note added.  Conjugation keeps every norm and difference of the
    rungs, so the verdict is that of the (1,0) pairing.

    The density is folded once per call (_pv_kernels, _fold): the kernel
    products pi_i K1i and conj(pi_i) K2i of the coefficients
    pi_i bump(|q| / R_i) are summed exactly per distinct R, and only those
    that are not identically zero are tabulated beside f1 and f2.  When f
    is homogeneous and every product's denominator has one row, each
    product splits on a ray into angular rows times powers of the radius
    (_pv_integrand, _RaySplit): a node costs one bump per distinct R and
    its powers, and the ball's rungs need the angular rows only summed over
    the rays.  Any other f costs, per node, |f|^2 from the f1 and f2
    tables, one bump per distinct R and one Horner evaluation per surviving
    product (_PvDensity.radial).  Either way every ray, or node, that is
    integrated must lie off the zero set and the poles of f: |f|^2 finite,
    and |f| above POLE_RTOL times the term size of f
    (_PvDensity.off_zero_set), or PoleOnDomain is raised.

    Where the plan takes the phase average (_Plan), both regions run on one
    ray per eta node with the phase averages of the products, so rule.n_xi
    changes none of its values.  A rung whose sublevel set is a cone of
    whole rays (_LevelRadii) leaves the estimate not converged, with the
    residue's note (_level_notes).
    """
    if rule is None:
        rule = build_quadrature(32, 64)
    schedule, support = _ladder(
        f, psi, schedule, lambda *_: pv_rays(rule.n_eta, rule.n_xi))
    for p in psi.coefficients:
        if p is not None and p.radial != "q":
            raise DomainError("principal-value pairing needs coefficients "
                              "supported in the full modulus |q|")
    if part not in ("(1,0)", "(0,1)"):
        raise DomainError("part must be '(1,0)' or '(0,1)'")
    if part == "(0,1)":
        psi = TestForm3(*(None if p is None else p.conjugated()
                          for p in psi.coefficients))
    if region not in ("metric", "levelset"):
        raise DomainError("region must be 'metric' or 'levelset'")
    plan = _Plan.of(f)
    eps_list = schedule.values()
    products = plan.fold(_pv_kernels(f), psi.coefficients)
    mesh, weight = plan.mesh(rule.eta_nodes, rule.eta_weights, rule.n_xi)
    density = _PvDensity.build(f, _RayFunction.build(
        (f.f1, f.f2), mesh.u1, mesh.u2, plan), products, mesh.w)
    integrand = _pv_integrand(density)
    untrusted, cones = np.zeros(3, dtype=int), 0
    n_rungs = len(eps_list)
    if region == "metric":
        # the first shell's panels, then [eps_k, eps_(k-1)] for every k > 0
        eps = np.array(eps_list)
        lam0, w0 = gauss_panels(geometric_edges(eps[0], support, eps[0]),
                                _SHELL_ORDER)
        lam, w = gauss_panels([eps[1:], eps[:-1]], _SHELL_ORDER)
        seg = np.repeat(np.arange(n_rungs),
                        [len(lam0)] + [_SHELL_ORDER] * (n_rungs - 1))
        nodes = _Nodes.table(np.concatenate([lam0, lam.T.ravel()])[:, None],
                             np.concatenate([w0, w.T.ravel()])[:, None], seg)
        shells = integrand.radial(nodes, n_rungs)
        notes = ()
    else:
        bounds, untrusted, cones = _levelset_bounds(
            density.ray_fn, len(mesh.eta), eps_list, support)
        # untrusted rays are counted in rays of the n_xi rule
        untrusted = untrusted * weight
        shells = _levelset_shells(integrand, bounds, support)
        notes = (("excluded region follows the level sets of |f|",)
                 + _level_notes(untrusted, cones))
    rungs = np.cumsum(shells, axis=1)
    if part == "(0,1)":
        rungs = rungs.conj()
        notes += ("computed from the (1,0) pairing by formal conjugation",)
    # Python complexes, which Quat takes as they are
    values = [Quat(z1, z2) for z1, z2 in rungs.T.tolist()]
    return finalize(eps_list, values, part=part, notes=notes,
                    trusted=not (untrusted.any() or cones),
                    phases_averaged=plan.averaged)
