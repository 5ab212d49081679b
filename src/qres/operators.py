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

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (DomainError, IdenticallyZero, NotHyperholomorphic,
                     NotHypermeromorphic)
from .qcore import CRat, Quat
from .symfun import (ConjRational, PairEval, QFunction, _bar_passes,
                     _jet_stencil)


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
    d1 = (f.f1.wirtinger("z1b") - f2c.wirtinger("z2")).halved()
    d2 = (f.f1.wirtinger("z2b") + f2c.wirtinger("z1")).halved()
    return DResult(d1, d2)


def _dhat(f: QFunction) -> QFunction:
    """D as a quaternion-valued function; the form that obeys a clean
    Leibniz identity under the * product."""
    return apply_D(f).as_qfunction()


def _bar_D(f1_z1b, f2_z1b, f1_z2b, f2_z2b):
    """The pair (d1, d2) of Df = d1 + d2*j from the conj(z)-partials of f1
    and f2, the only partials D reads; a pass of _bar_passes, indexed
    (coordinate, component, ...), gives them as _bar_D(*bar[0], *bar[1])."""
    return (0.5 * (f1_z1b - f2_z2b.conjugate()),
            0.5 * (f1_z2b + f2_z1b.conjugate()))


def _richardson_D(bar):
    """D from the two passes of _bar_passes: _bar_D of their Richardson
    value (4 pass(h/2) - pass(h)) / 3."""
    g = (4 * bar[1] - bar[0]) / 3
    return _bar_D(*g[0], *g[1])


def apply_D_at(f: Union[QFunction, PairEval], q: Quat) -> Quat:
    """Pointwise D by central differences, for symbolic or black-box f, as
    classify's cross-check takes D(1/f): one evaluation on the jet stencil
    (_jet_stencil), the conj(z)-partials of its two passes (_bar_passes)
    and D of their Richardson value (_richardson_D).  A black-box f is
    called on arrays, like QFunction.eval_numeric, here of shape (17, 1).
    Overflow inside f is left to show as a non-finite component."""
    q = q.to_numeric()
    ev = f.eval_numeric if isinstance(f, QFunction) else f
    with np.errstate(all="ignore"):
        d1, d2 = _richardson_D(_bar_passes(_jet_stencil(ev, [q.z1], [q.z2])))
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
    t1 = (f1 * g1.wirtinger("z1b") - f2 * g2c.wirtinger("z1b")
          - f1c * g2c.wirtinger("z2") - f2c * g1.wirtinger("z2")).halved()
    t2 = (f1 * g2.wirtinger("z1b") + f2 * g1c.wirtinger("z1b")
          + f1c * g1c.wirtinger("z2") - f2c * g2.wirtinger("z2")).halved()
    return QFunction(t1, t2)


def check_product_rule(f: QFunction, g: QFunction, strict: bool = True) -> DResult:
    """Residual of the hyperholomorphic product rule.

    Computes D(f*g) - (Df*(j*g) + remainder(f, g)) where the remainder
    collects the g-derivative terms of the expansion.  For hyperholomorphic
    f the residual is the zero function for every g, because the first RHS
    term carries the factor Df.  With strict=True non-hyperholomorphic
    inputs are rejected, so Df is 0 and the first term is skipped, as it
    adds nothing; soft mode computes the (generally nonzero) residual
    anyway.
    """
    df = apply_D(f)
    if strict:
        if not df.is_zero:
            raise NotHyperholomorphic("first factor is not hyperholomorphic")
        if not is_hyperholomorphic(g):
            raise NotHyperholomorphic("second factor is not hyperholomorphic")
    rhs = _leibniz_remainder(f, g)
    if not strict:
        rhs = df.as_qfunction() * _j_times(g) + rhs
    res = _dhat(f * g) - rhs
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
    """The product-compatibility system of f and g with real components,
    where conj(h) = h; the realness is checked, not hypermeromorphy."""
    for h in (f, g):
        if not (h.f1.is_real and h.f2.is_real):
            raise DomainError("real-component system needs real-valued components")
    return product_compat_residuals(f, g, strict=False)


def scale_real(f: QFunction, alpha) -> QFunction:
    """alpha*f for real alpha, kept exact (floats are binary-exact rationals)."""
    if isinstance(alpha, float):
        alpha = Fraction(alpha)
    if not isinstance(alpha, (int, Fraction)):
        raise TypeError("scale factor must be real")
    a = CRat(alpha)
    return QFunction(f.f1 * a, f.f2 * a)


@dataclass(frozen=True)
class Classification:
    hyperholomorphic: bool
    hypermeromorphic: bool
    eq3_residual: ConjRational
    eq4_residual: ConjRational
    notes: Tuple[str, ...]
    closure: Tuple[Dict[str, bool], ...]


_SAMPLE_SEED = 20240811
# the cross-check's bound on |D(1/f)| / |1/f| at a sample
_CROSS_CHECK_RTOL = 1e-6


@functools.lru_cache(maxsize=None)
def _candidates(limit: int) -> np.ndarray:
    """The first limit attempts of the cross-check's sample stream that land
    in the shell 0.25 <= |q| <= 2, as the read-only rows (z1, z2) of a
    complex array.

    An attempt is four uniforms on [-1.5, 1.5] (Re z1, Im z1, Re z2, Im z2)
    from random.Random(_SAMPLE_SEED).  The stream never depends on f, so it
    is drawn once per process for each limit; classify uses one.
    """
    rng = random.Random(_SAMPLE_SEED)
    u = np.array([rng.uniform(-1.5, 1.5) for _ in range(4 * limit)])
    z = u.view(complex).reshape(limit, 2)
    norm = _norms(z[:, 0], z[:, 1])
    points = z[(0.25 <= norm) & (norm <= 2.0)]
    points.flags.writeable = False
    return points


def _sample_points(f: QFunction, count: int) -> Tuple[np.ndarray, int]:
    """Float points where |f| is bounded away from 0 and nothing poles out,
    as the rows (z1, z2) of a complex (n, 2) array, n <= count, and the
    frexp exponent e of the largest |f| at them (0 if there are none), so
    that 2^-e |f| < 1 there.

    The _candidates of 200 * count attempts, the same for every f, are
    screened in blocks of 4 * count, 8 * count, ... (QFunction.eval_screened)
    and the first count accepted kept, as when QFunction.eval screens one
    attempt at a time: off the poles, f1, f2 and |f| finite (an overflow is
    refused like a pole), and |f| >= 0.3.  If none passes, the points are
    those of 2^k f, whose largest finite |f| off the poles is in [1, 2); the
    cross-check is scale-invariant.  If there is no such |f|, there are none.
    """
    candidates = _candidates(200 * count)
    pts, sizes = [], []
    found, start, block = 0, 0, 4 * count
    while found < count and start < len(candidates):
        z = candidates[start:start + block]
        start += block
        block *= 2
        with np.errstate(all="ignore"):
            v1, v2, pole = f.eval_screened(z[:, 0], z[:, 1])
            norm = _norms(v1, v2)
        kept = ~pole & np.isfinite(norm) & (norm >= 0.3)
        pts.append(z[kept])
        sizes.append(norm[kept])
        found += len(pts[-1])
    if found:
        return (np.concatenate(pts)[:count],
                math.frexp(max(np.concatenate(sizes)[:count].tolist()))[1])
    with np.errstate(all="ignore"):
        v1, v2, pole = f.eval_screened(candidates[:, 0], candidates[:, 1])
        size = np.hypot(np.abs(v1), np.abs(v2))[~pole]
    largest = size[np.isfinite(size)].max(initial=0.0)
    if not largest > 0.0:
        return np.empty((0, 2), dtype=complex), 0
    k = 1 - int(np.frexp(largest)[1])
    pts, e = _sample_points(scale_real(f, Fraction(2) ** k), count)
    return pts, e - k


def _norms_sq(z1, z2):
    """|z1 + z2*j|^2 over arrays of components, summed as Quat.norm sums."""
    return (z1.real * z1.real + z1.imag * z1.imag
            + z2.real * z2.real + z2.imag * z2.imag)


def _norms(z1, z2):
    """|z1 + z2*j| over arrays of components, as Quat.norm gives it."""
    return np.sqrt(_norms_sq(z1, z2))


def _inverse_values(f: QFunction, k: int, Z1, Z2):
    """1/g = (conj g1 - g2*j) / |g|^2 for g = 2^k f, on the float values of
    f at (Z1, Z2) times 2^k: what inverse_function(f) / 2^k evaluates to,
    without building it.  A power of two scales exactly, short of the ends
    of the float range, and keeps |g|^2 in range where |f|^2 is not.  k
    above 1023 is taken as 1023, the largest exponent of a float, which
    already brings the smallest nonzero float to 2^-51."""
    scale = 2.0 ** min(k, 1023)
    v1, v2 = f.eval_numeric(Z1, Z2)
    v1, v2 = v1 * scale, v2 * scale
    m = _norms_sq(v1, v2)
    return np.conj(v1) / m, -v2 / m


def _inverse_bar_partials(f: QFunction, k: int, pts: np.ndarray):
    """The conj(z)-partials of _inverse_values(f, k) at the rows (z1, z2)
    of pts, and |1/g| there, for g = 2^k f: the partials of each pass,
    indexed (pass at h or h/2, coordinate, component, point) as
    _bar_passes gives them, from one evaluation of f on the jet stencil
    (_jet_stencil)."""
    w = _jet_stencil(functools.partial(_inverse_values, f, k),
                     pts[:, 0], pts[:, 1])
    return _bar_passes(w), _norms(w[0, 0], w[0, 1])


def _worst_ratio(bar, size) -> float:
    """max |D(1/g)| / |1/g| over the points, D(1/g) the Richardson value
    of the two passes (_richardson_D), as apply_D_at takes it; max
    propagates nan, so one undefined sample shows."""
    return (_norms(*_richardson_D(bar)) / size).max()


def _pass_gap(bar, size) -> float:
    """max |D(1/g) at h - D(1/g) at h/2| / |1/g| over the points."""
    coarse, fine = (_bar_D(*b[0], *b[1]) for b in bar)
    return (_norms(coarse[0] - fine[0], coarse[1] - fine[1]) / size).max()


def _cross_check_note(f: QFunction, residuals_zero: bool) -> Optional[str]:
    """classify's note on its numeric D(1/f) check of a nonzero f, or None
    where the check agrees with the residual system.  D(1/g) is differenced
    on _inverse_values, one evaluation of f on the jet stencil, for
    g = 2^-e f with e from _sample_points, so that |g| < 1 at the samples:
    the check is scale-invariant, and |g|^2 stays in the float range where
    |f|^2 would overflow or underflow.  Only the conj(z)-partials that D
    reads are taken from the differences (_inverse_bar_partials), and D
    from them as apply_D_at takes it."""
    try:
        pts, e = _sample_points(f, 8)
    except OverflowError:
        return ("numeric D(1/f) check was not run: a coefficient of f lies "
                "beyond the float range")
    if not len(pts):
        return ("numeric D(1/f) check was not run: no candidate sample has "
                "a finite, nonzero |f| off the poles")
    with np.errstate(all="ignore"):
        bar, size = _inverse_bar_partials(f, -e, pts)
        worst = _worst_ratio(bar, size)
    if not np.isfinite(worst):
        return ("numeric D(1/f) check is inconclusive: D(1/f) overflows or "
                f"is undefined at some of {len(pts)} samples")
    if (worst < _CROSS_CHECK_RTOL) == residuals_zero:
        return None
    with np.errstate(all="ignore"):
        gap = _pass_gap(bar, size)
    if not gap <= _CROSS_CHECK_RTOL:
        return ("numeric D(1/f) check is inconclusive: the jet step does not "
                "resolve f (max |D(1/f) at h - D(1/f) at h/2|/|1/f| = "
                f"{gap:.3e} over {len(pts)} samples)")
    return ("numeric D(1/f) status disagrees with the residual system (max "
            f"|D(1/f)|/|1/f| = {worst:.3e} over {len(pts)} samples)")


def classify(f: QFunction, partners: Sequence[QFunction] = ()) -> Classification:
    """Exact flags plus closure report against optional partner functions.

    The numeric cross-check takes D(1/f) at up to 8 points of
    _sample_points (the same candidates for every f; a note says where
    there are none, or where a coefficient of f has no float value) by
    central differences of the pointwise inverse of f's float values,
    (conj v1 - v2*j) / (|v1|^2 + |v2|^2) with 2^-e f = v1 + v2*j on the
    jet stencil (the power of two that brings |f| below 1 at the samples),
    of which it takes only the conj(z)-partials that D reads, with D from
    them as apply_D_at takes it, and compares with what the residual
    system predicts; the two can in principle part ways when a component
    of f vanishes identically, which the derivation of the system assumes
    away, so any disagreement is surfaced in notes.  The check is
    |D(1/f)| < 1e-6 |1/f| at every sample: both scale as 1/c under
    f -> c f, so the verdict does not depend on the scale of f.  A
    disagreement is reported only where the jet's two
    central-difference passes, at steps h and h/2, give D(1/f) within
    1e-6 |1/f| of each other at every sample; where they do not, the step
    does not resolve f, and the note says the check is inconclusive.
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
        note = _cross_check_note(f, residuals_zero)
        if note:
            notes.append(note)
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
