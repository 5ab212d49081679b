"""Shared generators and oracles for the test suite.

The oracles here are deliberately independent of the package internals:
quaternion arithmetic is checked against the classical 4x4 real matrix
representation, derivatives against central finite differences, and sphere
integrals against closed forms or seeded Monte Carlo.
"""
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from qres.qcore import CRat, Quat
from qres.symfun import ConjPoly, QFunction

VARS = tuple(ConjPoly.var(v) for v in ("z1", "c1", "z2", "c2"))


# quaternion oracles ------------------------------------------------------

def hamilton_matrix(q: Quat) -> np.ndarray:
    """Left-multiplication matrix in the basis (1, i, j, k)."""
    a, b, c, d = [float(x) for x in q.basis_coeffs()]
    return np.array([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ])


def quat_mul_basis(x, y):
    """Hamilton product on 4-tuples of exact scalars."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


# random exact values -----------------------------------------------------

def rand_fraction(rng, span=6, den=4):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, den + 1))


def rand_crat(rng, span=6) -> CRat:
    return CRat(rand_fraction(rng, span), rand_fraction(rng, span))


def rand_quat(rng, span=6) -> Quat:
    return Quat(rand_crat(rng, span), rand_crat(rng, span))


def rand_point(rng, lo=0.5, hi=2.0) -> Quat:
    """Numeric quaternion with norm in [lo, hi]."""
    v = np.array([rng.gauss(0, 1) for _ in range(4)])
    v *= rng.uniform(lo, hi) / np.linalg.norm(v)
    return Quat(complex(v[0], v[1]), complex(v[2], v[3]))


def rand_poly(rng, deg=2, n_terms=3) -> ConjPoly:
    p = ConjPoly.zero()
    for _ in range(n_terms):
        t = ConjPoly.const(CRat(Fraction(rng.randrange(-3, 4)),
                                Fraction(rng.randrange(-3, 4))))
        for _ in range(rng.randrange(deg + 1)):
            t = t * rng.choice(VARS)
        p = p + t
    return p


# hyperholomorphic sample families ----------------------------------------

def holomorphic_poly(rng, deg=3, n_terms=3) -> ConjPoly:
    """Polynomial in z1, z2 only."""
    z1, _, z2, _ = VARS
    p = ConjPoly.zero()
    for _ in range(n_terms):
        a = rng.randrange(deg + 1)
        b = rng.randrange(deg + 1 - a)
        coef = CRat(Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))
        p = p + z1 ** a * z2 ** b * coef
    return p


def hyperholomorphic_sample(rng) -> QFunction:
    """Random right-scalar combination drawn from the span of the conjugate
    pair, holomorphic polynomials, and the affine two-parameter family."""
    from qres.catalogue import builtin
    parts = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            g = builtin("conj").f
        elif kind == 1:
            g = QFunction.from_polys(holomorphic_poly(rng), ConjPoly.zero())
        else:
            g = builtin("prop34", (rand_fraction(rng, 3),
                                   rand_fraction(rng, 3))).f
        parts.append(g * QFunction.const(rand_quat(rng, 3)))
    out = parts[0]
    for g in parts[1:]:
        out = out + g
    return out


def real_hyperholomorphic_sample(rng) -> QFunction:
    """Real-component hyperholomorphic function: real and imaginary parts of
    a polynomial in the two commuting complex combinations of the real
    coordinates."""
    z1, c1, z2, c2 = VARS
    half = Fraction(1, 2)
    zeta = (z1 + c1) * CRat(half) + (z2 + c2) * CRat(Fraction(0), half)
    mu = (z1 - c1) * CRat(Fraction(0), -half) + (z2 - c2) * CRat(-half)
    P = ConjPoly.zero()
    for _ in range(3):
        t = ConjPoly.const(CRat(Fraction(rng.randrange(-4, 5)),
                                Fraction(rng.randrange(-4, 5))))
        for _ in range(rng.randrange(3)):
            t = t * zeta
        for _ in range(rng.randrange(3)):
            t = t * mu
        P = P + t
    Pb = P.conjugate()
    f1 = (P + Pb) * CRat(half)
    f2 = (P - Pb) * CRat(Fraction(0), -half)
    return QFunction.from_polys(f1, f2)


def seeded(n: int) -> random.Random:
    return random.Random(n)


# bounded runs --------------------------------------------------------------

RUN_SECONDS = 30


def run_bounded(args):
    """Run a fresh interpreter on args (``-m qres.cli ...`` or ``-c ...``)
    with src/ on the path, killed after RUN_SECONDS and capped at 1 GiB of
    address space, so an input that loops while it allocates fails the
    test instead of exhausting the host."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=RUN_SECONDS,
                          preexec_fn=cap)
