"""Shared generators and oracles for the test suite.

The oracles here are deliberately independent of the package internals:
quaternion arithmetic is checked against the classical 4x4 real matrix
representation, derivatives against central finite differences, sphere
integrals against closed forms or seeded Monte Carlo, the closed-form chart
volume against the determinant of the full chart Jacobian, and the int
polynomial kernel against the CRat-dict arithmetic it replaced.
"""
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from qres.errors import PoleError
from qres.qcore import CRat, Quat
from qres.symfun import ConjPoly, ConjRational, QFunction

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


# chart oracles -----------------------------------------------------------

def chart_jacobian(lam, eta, xi1, xi2):
    """Full Jacobian J[w, a] = d(coordinate w)/d(parameter a).

    Returns a complex array of shape (4, 4) + node-shape, coordinates ordered
    (z1, z1bar, z2, z2bar) and parameters (lam, eta, xi1, xi2).
    """
    lam, eta, xi1, xi2 = np.broadcast_arrays(
        np.asarray(lam, dtype=float), np.asarray(eta, dtype=float),
        np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float))
    e1 = np.exp(1j * xi1)
    e2 = np.exp(1j * xi2)
    c = np.cos(eta)
    s = np.sin(eta)
    zeros = np.zeros(lam.shape, dtype=complex)
    row_z1 = np.stack([c * e1, -lam * s * e1, 1j * lam * c * e1, zeros])
    row_z2 = np.stack([s * e2, lam * c * e2, zeros, 1j * lam * s * e2])
    return np.stack([row_z1, row_z1.conj(), row_z2, row_z2.conj()])


def _det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def det4(jac):
    """Determinant of the (4, 4, ...) Jacobian by cofactor expansion; on the
    chart Jacobian it equals 4 * lam^3 * sin(eta)*cos(eta)."""
    total = np.zeros(jac.shape[2:], dtype=complex)
    sign = 1.0
    lower = jac[1:]
    for col in range(4):
        rest = [c for c in range(4) if c != col]
        minor = lower[:, rest]
        total = total + sign * jac[0, col] * _det3(minor[0], minor[1], minor[2])
        sign = -sign
    return total


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


# reference polynomial kernel ---------------------------------------------

class RefPoly:
    """ConjPoly's arithmetic on a plain dict of CRat coefficients, kept as the
    oracle for its int kernel.  Every operation builds its result term by
    term in the same loop order, so results must agree in key order too: a
    sum or product appends a key when its running sum first meets it and
    pops one whose running sum cancels."""

    def __init__(self, terms):
        self.terms = {tuple(k): c for k, c in terms.items() if not c.is_zero}

    @classmethod
    def var(cls, idx):
        key = [0, 0, 0, 0]
        key[idx] = 1
        return cls({tuple(key): CRat(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            s = out.get(key, CRat(0)) + coeff
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return RefPoly(out)

    def __neg__(self):
        return RefPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                s = out.get(key, CRat(0)) + c1 * c2
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return RefPoly(out)

    def __pow__(self, n):
        out = RefPoly({(0, 0, 0, 0): CRat(1)})
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conjugate(self):
        return RefPoly({(b, a, d, c): coeff.conjugate()
                        for (a, b, c, d), coeff in self.terms.items()})

    def wirtinger(self, idx):
        out = {}
        for key, coeff in self.terms.items():
            e = key[idx]
            if e:
                nk = list(key)
                nk[idx] = e - 1
                out[tuple(nk)] = coeff * e
        return RefPoly(out)

    def shifted(self, p1, p2):
        moved = [RefPoly.var(i) + RefPoly({(0, 0, 0, 0): off})
                 for i, off in enumerate((p1, p1.conjugate(), p2,
                                          p2.conjugate()))]
        out = RefPoly({})
        for (a, b, c, d), coeff in self.terms.items():
            out = out + (RefPoly({(0, 0, 0, 0): coeff}) * moved[0] ** a
                         * moved[1] ** b * moved[2] ** c * moved[3] ** d)
        return out


def ref_strip_content(num: RefPoly, den: RefPoly):
    """Cancel the shared real monomial |z1|^2a |z2|^2b of num and den."""
    mins = [min(min(k[i] for k in p.terms) for p in (num, den))
            for i in range(4)]
    s1, s2 = min(mins[0], mins[1]), min(mins[2], mins[3])
    shift = (s1, s1, s2, s2)

    def drop(p):
        return RefPoly({tuple(e - s for e, s in zip(k, shift)): c
                        for k, c in p.terms.items()})

    return drop(num), drop(den)


TERM_DENOMINATORS = (1, 2, 3, 4, 6, 9, 10)


def rand_terms(rng, n_terms=5, max_exp=2):
    """Exact coefficients over several distinct denominators on a small
    exponent box, so sums and products collide and cancel often."""
    terms = {}
    for _ in range(n_terms):
        key = tuple(rng.randrange(max_exp + 1) for _ in range(4))
        re, im = (Fraction(rng.randrange(-4, 5), rng.choice(TERM_DENOMINATORS))
                  for _ in range(2))
        terms[key] = CRat(re, im)
    return terms


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


# reference numeric evaluation --------------------------------------------

def ref_eval_numeric(p: ConjPoly, Z1, Z2):
    """A polynomial summed term by term in key order, each coefficient read
    as complex(CRat) and each power taken afresh."""
    Z1 = np.asarray(Z1, dtype=complex)
    Z2 = np.asarray(Z2, dtype=complex)
    out = np.zeros(np.broadcast(Z1, Z2).shape, dtype=complex)
    vals = (Z1, np.conj(Z1), Z2, np.conj(Z2))
    for (a, b, c, d), coeff in p.terms.items():
        term = complex(coeff)
        if a:
            term = term * vals[0] ** a
        if b:
            term = term * vals[1] ** b
        if c:
            term = term * vals[2] ** c
        if d:
            term = term * vals[3] ** d
        out += term
    return out


def _ref_jet_differences(w, s):
    dx1 = (w[0] - w[1]) / (2 * s)
    dy1 = (w[2] - w[3]) / (2 * s)
    dx2 = (w[4] - w[5]) / (2 * s)
    dy2 = (w[6] - w[7]) / (2 * s)
    return {
        "z1": (dx1 - 1j * dy1) / 2,
        "z1b": (dx1 + 1j * dy1) / 2,
        "z2": (dx2 - 1j * dy2) / 2,
        "z2b": (dx2 + 1j * dy2) / 2,
    }


def ref_jet_passes(ev, z1, z2):
    """The 17-point jet stencil differenced one real direction at a time,
    as (f1, f2, coarse, fine): the values at the points, then the partials
    of the passes at h and h/2, each a dict from "z1", "z1b", "z2", "z2b"
    to the partials of f1 and f2 stacked."""
    h = 1e-4
    steps = (h, h / 2)
    dz1 = np.array([0j] + [m * s for s in steps
                           for m in (1, -1, 1j, -1j, 0, 0, 0, 0)])
    dz2 = np.array([0j] + [m * s for s in steps
                           for m in (0, 0, 0, 0, 1, -1, 1j, -1j)])
    z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=complex),
                                 np.asarray(z2, dtype=complex))
    axes = (slice(None),) + (None,) * z1.ndim
    w1, w2 = ev(z1 + dz1[axes], z2 + dz2[axes])
    w = np.empty((len(dz1), 2) + z1.shape, dtype=complex)
    w[:, 0] = w1
    w[:, 1] = w2
    return (w[0, 0], w[0, 1], _ref_jet_differences(w[1:9], h),
            _ref_jet_differences(w[9:17], h / 2))


def ref_numeric_jet(ev, z1, z2):
    """The jet differenced one real direction at a time: the same 17-point
    stencil and Richardson step, as (f1, f2, d1, d2)."""
    f1, f2, g, g2 = ref_jet_passes(ev, z1, z2)
    g = {k: (4 * g2[k] - g[k]) / 3 for k in g}
    return (f1, f2, {k: v[0] for k, v in g.items()},
            {k: v[1] for k, v in g.items()})


def ref_eval_point(r: ConjRational, z1: complex, z2: complex) -> complex:
    """One component at a float point, screened on its own: its
    eval_screened value, or PoleError at a pole."""
    value, pole = r.eval_screened(z1, z2)
    if pole:
        raise PoleError(f"denominator vanishes near ({z1}, {z2})")
    return complex(value)


def ref_eval_float(f: QFunction, q: Quat) -> Quat:
    """QFunction.eval at a float point as each component screened on its
    own, f1 first.  Kept as its reference."""
    return Quat(ref_eval_point(f.f1, q.z1, q.z2),
                ref_eval_point(f.f2, q.z1, q.z2))
