"""Seeded qres inputs and the radial oracles.

Every generator here is a function of its ``random.Random`` alone, so one
seed gives the same inputs on every run.  The oracles use only numpy and
closed forms, never the qres code paths they check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from qres.qcore import CRat, Quat
from qres.symfun import ConjPoly, ConjRational, QFunction

from .seeds import rand_fraction

TWO_PI_SQ = 2.0 * math.pi ** 2  # area of the unit 3-sphere
ORACLE_NODES = 400_001

VAR_NAMES = ("z1", "c1", "z2", "c2")


# ------------------------------------------------------------ radial oracles

def bump(t):
    """exp(1 - 1/(1 - t^2)) on |t| < 1, zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def radial_moment(power: int, profile=bump, nodes: int = ORACLE_NODES) -> float:
    """Trapezoid value of the integral of r^power * profile(r) over [0, 1]."""
    r = np.linspace(0.0, 1.0, nodes)
    return float(np.trapezoid(r ** power * profile(r), r))


def ball_moment() -> float:
    """Principal value of 1/(z1, 0) against z1*bump(|q|): the ball moment
    -4 * |S^3| * int lam^3 bump(lam) dlam."""
    return -4.0 * TWO_PI_SQ * radial_moment(3)


# ------------------------------------------------------- exact generators

def rand_crat(rng: random.Random, span: int = 3) -> CRat:
    return CRat(rand_fraction(rng, span), rand_fraction(rng, span))


def exact_point(rng: random.Random) -> Quat:
    return Quat(rand_crat(rng), rand_crat(rng))


def holomorphic_poly(rng: random.Random, deg: int = 3, n_terms: int = 3) -> ConjPoly:
    z1, z2 = ConjPoly.var("z1"), ConjPoly.var("z2")
    p = ConjPoly.zero()
    for _ in range(n_terms):
        a = rng.randint(0, deg)
        b = rng.randint(0, deg - a)
        p = p + z1 ** a * z2 ** b * rand_crat(rng)
    return p


# part kinds of a kernel sample: conj, holomorphic polynomial, affine family
KERNEL_SHAPES = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2))


def hyperholomorphic_sample(rng: random.Random, kinds) -> QFunction:
    """Sum of the given part kinds, each times a random right scalar; in
    the kernel of D by construction.  The caller fixes the shape, so the
    seed moves coefficients, not the amount of algebra."""
    z1, c1, z2, c2 = (ConjPoly.var(v) for v in VAR_NAMES)
    out = None
    for kind in kinds:
        if kind == 0:
            g = QFunction.from_polys(c1, c2)
        elif kind == 1:
            g = QFunction.from_polys(holomorphic_poly(rng), ConjPoly.zero())
        else:
            A, B = rand_fraction(rng, 3), rand_fraction(rng, 3)
            g = QFunction.from_polys(z1 + c1 + z2 + c2 + CRat(A),
                                     -z1 - c1 + z2 + c2 + CRat(B))
        g = g * QFunction.const(Quat(rand_crat(rng), rand_crat(rng)))
        out = g if out is None else out + g
    return out


def _coeff_text(c: CRat) -> str:
    """Parenthesised 're +/- |im|i'; quarter steps print exactly."""
    sign = "-" if c.im < 0 else "+"
    return f"({float(c.re):g} {sign} {float(abs(c.im)):g}i)"


def literal_poly(rng: random.Random, n_terms: int):
    """(text, ConjPoly) built side by side from the same random terms."""
    parts, poly = [], ConjPoly.zero()
    for _ in range(n_terms):
        c = CRat(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
        if c.is_zero:
            c = CRat(1)
        exps = [rng.randint(0, 2) for _ in VAR_NAMES]
        mono = [f"{v}^{e}" if e > 1 else v for v, e in zip(VAR_NAMES, exps) if e]
        parts.append("*".join([_coeff_text(c)] + mono))
        poly = poly + ConjPoly({tuple(exps): c})
    return " + ".join(parts), poly


def literal_qfunction(rng: random.Random):
    """(text, QFunction) for parse_qfunction: two polynomial components,
    the first sometimes over a real denominator."""
    t1, p1 = literal_poly(rng, rng.randint(1, 4))
    t2, p2 = literal_poly(rng, rng.randint(1, 4))
    f1 = ConjRational(p1)
    if rng.random() < 0.3:
        k = rng.randint(1, 4)
        t1 = f"({t1}) / (z1*c1 + z2*c2 + {k})"
        z1, c1, z2, c2 = (ConjPoly.var(v) for v in VAR_NAMES)
        f1 = ConjRational(p1, z1 * c1 + z2 * c2 + CRat(k))
    return f"{t1} ; {t2}", QFunction(f1, ConjRational(p2))
