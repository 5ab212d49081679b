"""The hyperholomorphy operator, function inversion, and PDE classification.

The operator D acts on f = f1 + f2*j as one half of (d/d conj(z1) +
j d/d conj(z2)).  Expanding through the j-commutation rule gives the two
scalar components returned by :func:`apply_D`; f is hyperholomorphic exactly
when both are the zero function.

Classification beyond hyperholomorphy is residual-based: each named PDE
system is evaluated as exact rational functions, and a property holds iff
the residual numerators are zero polynomials.  Sampling never certifies an
identity here; it is only used for the documented cross-checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .errors import IdenticallyZero, NotHyperholomorphic, NotHypermeromorphic
from .qcore import CRat, Quat
from .symfun import ConjRational, PairEval, QFunction, numeric_jet

HALF = CRat(Fraction(1, 2))


@dataclass(frozen=True)
class DResult:
    """Value of D as the pair (d1, d2) in the convention Df = d1 + d2*j.

    d2 here is the conjugate of the j-coefficient of the honest
    quaternion-valued derivative; the two vanish together, and
    :meth:`as_qfunction` restores the honest form when algebra on Df is
    needed.
    """

    d1: ConjRational
    d2: ConjRational

    @property
    def is_zero(self) -> bool:
        return self.d1.is_zero and self.d2.is_zero

    def as_qfunction(self) -> QFunction:
        return QFunction(self.d1, self.d2.conjugate())


def apply_D(f: QFunction) -> DResult:
    f2c = f.f2.conjugate()
    d1 = HALF * (f.f1.wirtinger("z1b") - f2c.wirtinger("z2"))
    d2 = HALF * (f.f1.wirtinger("z2b") + f2c.wirtinger("z1"))
    return DResult(d1, d2)


def _dhat(f: QFunction) -> QFunction:
    """D as a quaternion-valued function; the form that obeys a clean
    Leibniz identity under the * product."""
    return apply_D(f).as_qfunction()


def _apply_D_batch(f: Union[QFunction, PairEval], points: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """D by central differences at every row (z1, z2) of the complex (n, 2)
    array points at once: the arrays (d1, d2) of Df = d1 + d2*j, one entry
    per point.  A black-box f is called like QFunction.eval_numeric, on
    arrays (see numeric_jet).  Overflow inside f is left to show as a
    non-finite entry."""
    ev = f.eval_numeric if isinstance(f, QFunction) else f
    with np.errstate(all="ignore"):
        jet = numeric_jet(ev, points[:, 0], points[:, 1])
        d1 = 0.5 * (jet.d1["z1b"] - jet.d2["z2b"].conjugate())
        d2 = 0.5 * (jet.d1["z2b"] + jet.d2["z1b"].conjugate())
    return d1, d2


def apply_D_at(f: Union[QFunction, PairEval], q: Quat) -> Quat:
    """Pointwise D by central differences, for symbolic or black-box f; a
    black-box f is called on arrays, like QFunction.eval_numeric."""
    q = q.to_numeric()
    d1, d2 = _apply_D_batch(f, np.array([[q.z1, q.z2]], dtype=complex))
    return Quat(complex(d1[0]), complex(d2[0]))


def is_hyperholomorphic(f: QFunction) -> bool:
    return apply_D(f).is_zero


def modulus_function(f: QFunction) -> ConjRational:
    """|f|^2 as a real-valued rational function: f1*conj(f1) + f2*conj(f2)."""
    return f.f1 * f.f1.conjugate() + f.f2 * f.f2.conjugate()


def inverse_function(f: QFunction) -> QFunction:
    """Two-sided pointwise inverse: (conj(f1) - f2*j) / |f|^2."""
    if f.is_zero:
        raise IdenticallyZero("cannot invert the zero function")
    m = modulus_function(f)
    return QFunction(f.f1.conjugate() / m, -(f.f2 / m))


def product(f: QFunction, g: QFunction) -> QFunction:
    return f * g


def _j_times(g: QFunction) -> QFunction:
    """Left multiplication by the constant j."""
    return QFunction(-g.f2.conjugate(), g.f1.conjugate())


def _leibniz_remainder(f: QFunction, g: QFunction) -> QFunction:
    """The g-derivative half of D(f*g).

    D(f*g) = Df*g + this, identically in f and g (both sides in the honest
    quaternion-valued convention).  Every term differentiates g only.
    """
    f1, f2 = f.f1, f.f2
    f1c, f2c = f1.conjugate(), f2.conjugate()
    g1 = g.f1
    g1c = g.f1.conjugate()
    g2 = g.f2
    g2c = g.f2.conjugate()
    t1 = HALF * (f1 * g1.wirtinger("z1b") - f2 * g2c.wirtinger("z1b")
                 - f1c * g2c.wirtinger("z2") - f2c * g1.wirtinger("z2"))
    t2 = HALF * (f1 * g2.wirtinger("z1b") + f2 * g1c.wirtinger("z1b")
                 + f1c * g1c.wirtinger("z2") - f2c * g2.wirtinger("z2"))
    return QFunction(t1, t2)


def check_product_rule(f: QFunction, g: QFunction, strict: bool = True) -> DResult:
    """Residual of the hyperholomorphic product rule.

    Computes D(f*g) - (Df*(j*g) + remainder(f, g)) where the remainder
    collects the g-derivative terms of the expansion.  For hyperholomorphic
    f the residual is the zero function for every g, because the first RHS
    term carries the factor Df.  With strict=True non-hyperholomorphic
    inputs are rejected; soft mode computes the (generally nonzero)
    residual anyway.
    """
    df = apply_D(f)
    if strict:
        if not df.is_zero:
            raise NotHyperholomorphic("first factor is not hyperholomorphic")
        if not is_hyperholomorphic(g):
            raise NotHyperholomorphic("second factor is not hyperholomorphic")
    lhs = _dhat(f * g)
    rhs = df.as_qfunction() * _j_times(g) + _leibniz_remainder(f, g)
    res = lhs - rhs
    return DResult(res.f1, res.f2.conjugate())


def corollary_product_rule_residual(f: QFunction, g: QFunction) -> DResult:
    """Residual of the real-component product rule D(f*g) = Df*jg + f*Dg."""
    lhs = _dhat(f * g)
    rhs = _dhat(f) * _j_times(g) + f * _dhat(g)
    res = lhs - rhs
    return DResult(res.f1, res.f2.conjugate())


def hypermero_residuals(f: QFunction) -> Tuple[ConjRational, ConjRational]:
    """Left-hand sides of the two PDEs whose identical vanishing makes the
    inverse of a hyperholomorphic f hyperholomorphic as well."""
    f1, f2 = f.f1, f.f2
    f1c, f2c = f1.conjugate(), f2.conjugate()
    eq3 = ((f1c - f1) * f1c.wirtinger("z1")
           - f2c * f2.wirtinger("z1")
           - f2 * f1c.wirtinger("z2b"))
    eq4 = (f2c * f1.wirtinger("z1")
           + f2c.wirtinger("z1") * (f1c - f1)
           - f2 * f2c.wirtinger("z2b"))
    return eq3, eq4


def is_hypermeromorphic(f: QFunction) -> bool:
    if not is_hyperholomorphic(f):
        return False
    eq3, eq4 = hypermero_residuals(f)
    return eq3.is_zero and eq4.is_zero


def product_compat_residuals(f: QFunction, g: QFunction,
                             strict: bool = True) -> Tuple[ConjRational, ConjRational]:
    """Left-hand sides of the system governing whether f*g stays
    hypermeromorphic."""
    if strict:
        for label, h in (("first factor", f), ("second factor", g)):
            r3, r4 = hypermero_residuals(h)
            if not (r3.is_zero and r4.is_zero):
                raise NotHypermeromorphic(
                    f"{label} fails the inversion-compatibility system")
    f1, f2 = f.f1, f.f2
    f1c, f2c = f1.conjugate(), f2.conjugate()
    g1 = g.f1
    g2c = g.f2.conjugate()
    pc1 = (g1 * (f1.wirtinger("z1b") + f2c.wirtinger("z2"))
           + (f1 - f1c) * g1.wirtinger("z1b")
           + f2c * g1.wirtinger("z2")
           - f2 * g2c.wirtinger("z1b"))
    pc2 = (g1 * (f1.wirtinger("z2b") - f2c.wirtinger("z1"))
           + (f1 - f1c) * g1.wirtinger("z2b")
           - f2c * g1.wirtinger("z1")
           - f2 * g2c.wirtinger("z2b"))
    return pc1, pc2


def real_product_compat_residuals(f: QFunction, g: QFunction
                                  ) -> Tuple[ConjRational, ConjRational]:
    """The product-compatibility system specialized to real components."""
    for h in (f, g):
        if not (h.f1.is_real and h.f2.is_real):
            raise ValueError("real-component system needs real-valued components")
    f1, f2 = f.f1, f.f2
    g1, g2 = g.f1, g.f2
    rc1 = (g1 * (f1.wirtinger("z1b") + f2.wirtinger("z2"))
           + f2 * g1.wirtinger("z2")
           - f2 * g2.wirtinger("z1b"))
    rc2 = (g1 * (f1.wirtinger("z2b") - f2.wirtinger("z1"))
           - f2 * g1.wirtinger("z1")
           - f2 * g2.wirtinger("z2b"))
    return rc1, rc2


def scale_real(f: QFunction, alpha) -> QFunction:
    """alpha*f for real alpha, kept exact (floats are binary-exact rationals)."""
    if isinstance(alpha, float):
        alpha = Fraction(alpha)
    if not isinstance(alpha, (int, Fraction)):
        raise TypeError("scale factor must be real")
    a = CRat(alpha)
    return QFunction(a * f.f1, a * f.f2)


@dataclass(frozen=True)
class Classification:
    hyperholomorphic: bool
    hypermeromorphic: bool
    eq3_residual: ConjRational
    eq4_residual: ConjRational
    notes: Tuple[str, ...]
    closure: Tuple[Dict[str, bool], ...]


_SAMPLE_SEED = 20240811


def _sample_points(f: QFunction, count: int, rng: random.Random
                   ) -> np.ndarray:
    """Float points where |f| is bounded away from 0 and nothing poles out,
    as the rows (z1, z2) of a complex (n, 2) array, n <= count.

    Each attempt draws four uniforms (Re z1, Im z1, Re z2, Im z2); attempts
    are screened in blocks of doubling size, and the first count accepted
    are kept in attempt order, so the points are those of screening one
    attempt at a time: QFunction.eval's pole rule, then f1, f2 and |f|
    finite, then |f| >= 0.3.  Where f overflows, the point is refused like
    a pole.
    """
    limit = 200 * count
    pts = np.empty((0, 2), dtype=complex)
    drawn, block = 0, 4 * count
    while len(pts) < count and drawn < limit:
        n = min(block, limit - drawn)
        drawn += n
        block *= 2
        u = np.array([rng.uniform(-1.5, 1.5) for _ in range(4 * n)])
        z = u.view(complex).reshape(n, 2)
        norm = _norms(z[:, 0], z[:, 1])
        z = z[(0.25 <= norm) & (norm <= 2.0)]
        with np.errstate(all="ignore"):
            v1, pole1 = f.f1.eval_screened(z[:, 0], z[:, 1])
            v2, pole2 = f.f2.eval_screened(z[:, 0], z[:, 1])
            norm = _norms(v1, v2)
        keep = ~(pole1 | pole2) & np.isfinite(norm) & (norm >= 0.3)
        pts = np.concatenate([pts, z[keep]])
    return pts[:count]


def _norms(z1, z2):
    """|z1 + z2*j| over arrays of components, summed as Quat.norm sums."""
    return np.sqrt(z1.real * z1.real + z1.imag * z1.imag
                   + z2.real * z2.real + z2.imag * z2.imag)


def classify(f: QFunction, partners: Sequence[QFunction] = ()) -> Classification:
    """Exact flags plus closure report against optional partner functions.

    The numeric cross-check differentiates 1/f at sampled points and compares
    with what the residual system predicts; the two can in principle part
    ways when a component of f vanishes identically, which the derivation of
    the system assumes away, so any disagreement is surfaced in notes.
    """
    hyperholo = is_hyperholomorphic(f)
    eq3, eq4 = hypermero_residuals(f)
    residuals_zero = eq3.is_zero and eq4.is_zero
    hypermero = hyperholo and residuals_zero
    notes = []
    if (f.f1.is_zero or f.f2.is_zero) and not f.is_zero:
        notes.append("a component vanishes identically; the inversion-"
                     "compatibility system assumes both are nonzero")
    if not f.is_zero:
        g = inverse_function(f)
        rng = random.Random(_SAMPLE_SEED)
        pts = _sample_points(f, 8, rng)
        if len(pts):
            # max propagates nan, so one undefined sample shows
            worst = _norms(*_apply_D_batch(g, pts)).max()
            if not np.isfinite(worst):
                notes.append(
                    "numeric D(1/f) check is inconclusive: D(1/f) overflows "
                    f"or is undefined at some of {len(pts)} samples")
            elif (worst < 1e-6) != residuals_zero:
                notes.append(
                    "numeric D(1/f) status disagrees with the residual system "
                    f"(max |D(1/f)| = {worst:.3e} over {len(pts)} samples)")
    closure = []
    for g in partners:
        closure.append({
            "sum_hypermeromorphic": is_hypermeromorphic(f + g),
            "product_hypermeromorphic": is_hypermeromorphic(f * g),
        })
    return Classification(hyperholomorphic=hyperholo,
                          hypermeromorphic=hypermero,
                          eq3_residual=eq3, eq4_residual=eq4,
                          notes=tuple(notes), closure=tuple(closure))
