"""Symbolic functions of a quaternion variable.

The variable q = z1 + z2*j is split into the four commuting complex
coordinates z1, conj(z1), z2, conj(z2).  A :class:`ConjPoly` is a polynomial
in those four with exact complex-rational coefficients, stored as
Gaussian-integer numerators over one positive common denominator in lowest
terms, so its arithmetic is int arithmetic and equality is a plain
comparison.  A :class:`ConjRational` is a quotient whose denominator is
real-valued, which is the shape quaternionic inversion produces and keeps
every later quotient well defined without commutativity worries.  A
:class:`QFunction` pairs two rationals into the component form
f = f1 + f2*j.

Numeric evaluation sums the terms in key order over numpy arrays, each
coefficient read as the float quotient of its int numerator and the common
denominator; exact evaluation stays exact end to end, in int arithmetic
inside a polynomial and in CRat arithmetic at a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Dict, Tuple

import numpy as np

from .errors import PoleError
from .qcore import CRAT_ONE, CRAT_ZERO, CRat, Quat, _frac

# Exponent order: (z1, conj z1, z2, conj z2).  The surface syntax calls the
# conjugated coordinates c1 and c2.
VAR_NAMES = ("z1", "c1", "z2", "c2")
VAR_INDEX = {"z1": 0, "c1": 1, "z1b": 1, "z2": 2, "c2": 3, "z2b": 3}

ExpKey = Tuple[int, int, int, int]
_ZKEY: ExpKey = (0, 0, 0, 0)

# |den| below this, relative to the size of den's terms, counts as a pole
# on the float path.
POLE_RTOL = 1e-12


def _as_crat(x) -> CRat:
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(_frac(x))
    raise TypeError(f"expected an exact coefficient, got {type(x).__name__}")


class ConjPoly:
    """Sparse polynomial over (z1, conj z1, z2, conj z2) with exact
    complex-rational coefficients.

    A polynomial is stored as Gaussian-integer numerators over one common
    denominator: ``_num`` maps each exponent key to a pair of ints (re, im),
    never both 0, and ``_den`` is a positive int.  The pair is kept in lowest
    terms, gcd(den, every re, every im) = 1, and the zero polynomial has
    den = 1, so two polynomials are equal exactly when their denominators
    and numerator dicts are.  Arithmetic runs on ints with at most one gcd
    pass per result.  ``terms`` is the read-only view key -> CRat, built on
    first read and cached, since a polynomial never changes.

    Key order is part of the contract: it sets the float summation order of
    every evaluation.  A sum or product appends keys in the order its
    running sum first meets them, and drops a key whose running sum cancels
    (a later term appends it again).
    """

    __slots__ = ("_num", "_den", "_terms")

    def __init__(self, terms: Dict[ExpKey, CRat] | None = None):
        parts = []
        den = 1
        if terms:
            for key, coeff in terms.items():
                c = _as_crat(coeff)
                if not c.is_zero:
                    parts.append((tuple(key), c.re, c.im))
                    den = math.lcm(den, c.re.denominator, c.im.denominator)
        # den is the lcm of the denominators of fractions in lowest terms,
        # so the scaled numerators share no factor with it
        self._num = {key: (re.numerator * (den // re.denominator),
                           im.numerator * (den // im.denominator))
                     for key, re, im in parts}
        self._den = den
        self._terms = None

    @classmethod
    def _from_parts(cls, num: Dict[ExpKey, Tuple[int, int]],
                    den: int) -> "ConjPoly":
        """Wrap num / den, already in lowest terms."""
        p = cls.__new__(cls)
        p._num = num
        p._den = den
        p._terms = None
        return p

    @classmethod
    def _reduced(cls, num: Dict[ExpKey, Tuple[int, int]],
                 den: int) -> "ConjPoly":
        """num / den put in lowest terms (den = 1 when num is empty)."""
        if den != 1:
            g = den
            for re, im in num.values():
                g = math.gcd(g, re, im)
                if g == 1:
                    break
            if g != 1:
                num = {k: (re // g, im // g) for k, (re, im) in num.items()}
                den //= g
        return cls._from_parts(num, den)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ConjPoly":
        return cls._from_parts({}, 1)

    @classmethod
    def const(cls, c) -> "ConjPoly":
        c = _as_crat(c)
        re, im = c.re, c.im
        if not re and not im:
            return cls.zero()
        den = math.lcm(re.denominator, im.denominator)
        return cls._from_parts(
            {_ZKEY: (re.numerator * (den // re.denominator),
                     im.numerator * (den // im.denominator))}, den)

    @classmethod
    def one(cls) -> "ConjPoly":
        return cls._from_parts({_ZKEY: (1, 0)}, 1)

    @classmethod
    def var(cls, name: str) -> "ConjPoly":
        idx = VAR_INDEX[name]
        key = [0, 0, 0, 0]
        key[idx] = 1
        return cls._from_parts({tuple(key): (1, 0)}, 1)

    # -- structure --------------------------------------------------------

    @property
    def terms(self) -> Dict[ExpKey, CRat]:
        """Exponent key -> CRat coefficient, in key order; shared, not to be
        mutated."""
        t = self._terms
        if t is None:
            den = self._den
            t = self._terms = {
                k: CRat(Fraction(re, den), Fraction(im, den))
                for k, (re, im) in self._num.items()}
        return t

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1 and _ZKEY in self._num)

    @property
    def is_real(self) -> bool:
        # the coefficient at (b, a, d, c) must be the conjugate of the one
        # at (a, b, c, d)
        num = self._num
        for (a, b, c, d), (re, im) in num.items():
            mirror = num.get((b, a, d, c))
            if mirror is None or mirror[0] != re or mirror[1] != -im:
                return False
        return True

    def min_total_degree(self):
        if not self._num:
            return math.inf
        return min(sum(k) for k in self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConjPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    __hash__ = None

    # -- arithmetic -------------------------------------------------------

    def _plus(self, other: "ConjPoly", sign: int) -> "ConjPoly":
        """self + sign * other over the lcm of the two denominators."""
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        if m1 == 1:
            out = dict(self._num)
        else:
            out = {k: (re * m1, im * m1) for k, (re, im) in self._num.items()}
        get = out.get
        for key, (re, im) in other._num.items():
            re *= m2
            im *= m2
            s = get(key)
            if s is not None:
                re += s[0]
                im += s[1]
                if not re and not im:
                    del out[key]
                    continue
            out[key] = (re, im)
        return ConjPoly._reduced(out, d1 * m1)

    def __add__(self, other):
        o = _poly_coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self) -> "ConjPoly":
        return ConjPoly._from_parts(
            {k: (-re, -im) for k, (re, im) in self._num.items()}, self._den)

    def __sub__(self, other):
        o = _poly_coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = _poly_coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __mul__(self, other):
        o = _poly_coerce(other)
        if o is None:
            return NotImplemented
        out: Dict[ExpKey, Tuple[int, int]] = {}
        get = out.get
        right = list(o._num.items())
        for (a1, b1, c1, d1), (x1, y1) in self._num.items():
            for (a2, b2, c2, d2), (x2, y2) in right:
                key = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
                re = x1 * x2 - y1 * y2
                im = x1 * y2 + y1 * x2
                s = get(key)
                if s is not None:
                    re += s[0]
                    im += s[1]
                    if not re and not im:
                        del out[key]
                        continue
                out[key] = (re, im)
        return ConjPoly._reduced(out, self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ConjPoly":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ConjPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conjugate(self) -> "ConjPoly":
        return ConjPoly._from_parts(
            {(b, a, d, c): (re, -im)
             for (a, b, c, d), (re, im) in self._num.items()}, self._den)

    def wirtinger(self, var: str) -> "ConjPoly":
        """Partial derivative treating the four coordinates as independent."""
        idx = VAR_INDEX[var]
        out: Dict[ExpKey, Tuple[int, int]] = {}
        for key, (re, im) in self._num.items():
            e = key[idx]
            if e == 0:
                continue
            nk = list(key)
            nk[idx] = e - 1
            out[tuple(nk)] = (re * e, im * e)
        return ConjPoly._reduced(out, self._den)

    def shifted(self, p1: CRat, p2: CRat) -> "ConjPoly":
        """Recenter at (p1, p2): substitute z1 -> z1 + p1 and so on."""
        moved = [ConjPoly.var(v) + off for v, off in
                 zip(VAR_NAMES, (p1, p1.conjugate(), p2, p2.conjugate()))]
        out = ConjPoly.zero()
        for (a, b, c, d), coeff in self.terms.items():
            out = out + (ConjPoly.const(coeff) * moved[0] ** a * moved[1] ** b
                         * moved[2] ** c * moved[3] ** d)
        return out

    # -- evaluation -------------------------------------------------------

    def eval_exact(self, z1: CRat, z2: CRat) -> CRat:
        vals = (z1, z1.conjugate(), z2, z2.conjugate())
        total = CRAT_ZERO
        for (a, b, c, d), coeff in self.terms.items():
            total = total + coeff * vals[0] ** a * vals[1] ** b * vals[2] ** c * vals[3] ** d
        return total

    def eval_numeric(self, Z1, Z2):
        Z1 = np.asarray(Z1, dtype=complex)
        Z2 = np.asarray(Z2, dtype=complex)
        out = np.zeros(np.broadcast(Z1, Z2).shape, dtype=complex)
        vals = (Z1, np.conj(Z1), Z2, np.conj(Z2))
        den = self._den
        for (a, b, c, d), (re, im) in self._num.items():
            # re / den is correctly rounded, as float(Fraction(re, den)) is
            term = complex(re / den, im / den)
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

    def _abs_scale(self, Z1, Z2):
        """Sum of term magnitudes, the natural yardstick for pole detection."""
        a1, a2 = np.abs(np.asarray(Z1, complex)), np.abs(np.asarray(Z2, complex))
        out = np.zeros(np.broadcast(a1, a2).shape, dtype=float)
        den = self._den
        for (a, b, c, d), (re, im) in self._num.items():
            out += abs(complex(re / den, im / den)) * a1 ** (a + b) * a2 ** (c + d)
        return out

    def __str__(self) -> str:
        if not self._num:
            return "0"
        out = []
        terms = self.terms
        for key in sorted(terms, reverse=True):
            coeff = terms[key]
            # pull an overall minus out of the coefficient so the printed
            # form stays inside the input grammar (no unary minus there)
            negative = coeff.re < 0 or (coeff.re == 0 and coeff.im < 0)
            if negative:
                coeff = -coeff
            mono = "*".join(
                f"{VAR_NAMES[i]}^{key[i]}" if key[i] > 1 else VAR_NAMES[i]
                for i in range(4) if key[i]
            )
            cs = str(coeff)
            if mono:
                if coeff == CRAT_ONE:
                    body = mono
                else:
                    if not (coeff.is_real or coeff.re == 0):
                        cs = f"({cs})"
                    body = f"{cs}*{mono}"
            else:
                body = cs if coeff.is_real or coeff.re == 0 else f"({cs})"
            if not out:
                out.append(f"-{body}" if negative else body)
            else:
                out.append(f" - {body}" if negative else f" + {body}")
        return "".join(out)


_ONE = ConjPoly.one()


def _poly_coerce(x):
    if isinstance(x, ConjPoly):
        return x
    if isinstance(x, (int, Fraction, CRat)):
        return ConjPoly.const(x)
    return None


class ConjRational:
    """Quotient of ConjPoly with a real-valued denominator.

    The real-denominator invariant is enforced at construction and preserved
    by every operation here; it is what lets a component quotient stand in
    for left and right quaternionic division at once.

    A denominator equal to 1 is always the one shared polynomial ``_ONE``,
    so ``den is _ONE`` tells a polynomial apart at the cost of an identity
    test.  Products, sums, differences, derivatives and comparisons of two
    such operands work on the numerators alone: the general path would
    multiply 1 by 1, find 1 real and find no content to strip, which leaves
    the same numerator over the same 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ConjPoly, den: ConjPoly | None = None):
        if den is None:
            self.num = num
            self.den = _ONE
            return
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if not den.is_real:
            raise ValueError("denominator must be real-valued")
        if num.is_zero:
            den = _ONE
        else:
            num, den = _strip_content(num, den)
            if den == _ONE:
                den = _ONE
        self.num = num
        self.den = den

    @classmethod
    def _from_parts(cls, num: ConjPoly, den: ConjPoly) -> "ConjRational":
        """Wrap num / den that already keep the invariants: den real, no
        shared real monomial left to cancel, and den is _ONE if it is 1."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def from_poly(cls, p: ConjPoly) -> "ConjRational":
        return cls(p)

    @classmethod
    def const(cls, c) -> "ConjRational":
        return cls._from_parts(ConjPoly.const(c), _ONE)

    @classmethod
    def zero(cls) -> "ConjRational":
        return cls._from_parts(ConjPoly.zero(), _ONE)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_constant

    @property
    def is_real(self) -> bool:
        return self.num.is_real

    def __eq__(self, other) -> bool:
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return self.num == o.num
        return self.num * o.den == o.num * self.den

    __hash__ = None

    def __neg__(self) -> "ConjRational":
        return ConjRational._from_parts(-self.num, self.den)

    def __add__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return ConjRational._from_parts(self.num + o.num, _ONE)
        if self.den == o.den:
            return ConjRational(self.num + o.num, self.den)
        return ConjRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return ConjRational._from_parts(self.num - o.num, _ONE)
        return self + (-o)

    def __rsub__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return ConjRational._from_parts(self.num * o.num, _ONE)
        return ConjRational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        return self.divide_by_real(o)

    def divide_by_real(self, other: "ConjRational") -> "ConjRational":
        if not other.is_real:
            raise ValueError("can only divide by a real-valued function")
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        # other = N/D with N, D real, so 1/other = D/N keeps the invariant.
        return ConjRational(self.num * other.den, self.den * other.num)

    def conjugate(self) -> "ConjRational":
        # swapping z with conj z keeps min(a, b) and min(c, d) of every key,
        # so nothing new can be cancelled
        return ConjRational._from_parts(self.num.conjugate(), self.den)

    def wirtinger(self, var: str) -> "ConjRational":
        if self.den is _ONE:
            return ConjRational._from_parts(self.num.wirtinger(var), _ONE)
        if self.is_polynomial:
            return ConjRational(self.num.wirtinger(var), self.den)
        n = self.num.wirtinger(var) * self.den - self.num * self.den.wirtinger(var)
        return ConjRational(n, self.den * self.den)

    def eval_exact(self, z1: CRat, z2: CRat) -> CRat:
        d = self.den.eval_exact(z1, z2)
        if d.is_zero:
            raise PoleError(f"denominator vanishes at ({z1}, {z2})")
        return self.num.eval_exact(z1, z2) / d

    def eval_point(self, z1: complex, z2: complex) -> complex:
        value, pole = self.eval_screened(z1, z2)
        if pole:
            raise PoleError(f"denominator vanishes near ({z1}, {z2})")
        return complex(value)

    def eval_screened(self, Z1, Z2):
        """Array evaluation plus the float path's pole rule: a point is a
        pole where |den| <= POLE_RTOL times the sum of den's term sizes.
        Returns (values, pole mask); values at poles are not meaningful."""
        d = self.den.eval_numeric(Z1, Z2)
        scale = self.den._abs_scale(Z1, Z2)
        pole = np.abs(d) <= POLE_RTOL * np.maximum(scale, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.num.eval_numeric(Z1, Z2) / d, pole

    def eval_numeric(self, Z1, Z2):
        """Array evaluation; poles come out as inf/nan for the caller to notice."""
        n = self.num.eval_numeric(Z1, Z2)
        d = self.den.eval_numeric(Z1, Z2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return n / d

    def __str__(self) -> str:
        if self.den is _ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _strip_content(num: ConjPoly, den: ConjPoly) -> Tuple[ConjPoly, ConjPoly]:
    """Cancel a shared monomial factor, but only a real one (|z1|^2a |z2|^2b)
    so the denominator stays real-valued.  Reads the exponent keys only; den
    comes first, since a constant den settles it at its first key."""
    s1 = s2 = math.inf
    for a, b, c, d in chain(den._num, num._num):
        s1 = min(s1, a, b)
        s2 = min(s2, c, d)
        if not s1 and not s2:
            return num, den

    def drop(p: ConjPoly) -> ConjPoly:
        return ConjPoly._from_parts(
            {(k[0] - s1, k[1] - s1, k[2] - s2, k[3] - s2): c
             for k, c in p._num.items()}, p._den)

    return drop(num), drop(den)


def _rat_coerce(x):
    if isinstance(x, ConjRational):
        return x
    if isinstance(x, ConjPoly):
        return ConjRational(x)
    if isinstance(x, (int, Fraction, CRat)):
        return ConjRational.const(x)
    return None


@dataclass(frozen=True)
class QFunction:
    """Quaternion-valued function in component form f = f1 + f2*j."""

    f1: ConjRational
    f2: ConjRational

    @classmethod
    def from_polys(cls, p1: ConjPoly, p2: ConjPoly) -> "QFunction":
        return cls(ConjRational(p1), ConjRational(p2))

    @classmethod
    def const(cls, q: Quat) -> "QFunction":
        if not q.is_exact:
            raise TypeError("constant functions need exact components")
        return cls(ConjRational.const(q.z1), ConjRational.const(q.z2))

    @property
    def is_zero(self) -> bool:
        return self.f1.is_zero and self.f2.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.f1.is_polynomial and self.f2.is_polynomial

    def conj(self) -> "QFunction":
        return QFunction(self.f1.conjugate(), -self.f2)

    def __neg__(self) -> "QFunction":
        return QFunction(-self.f1, -self.f2)

    def __add__(self, other):
        o = _qf_coerce(other)
        if o is None:
            return NotImplemented
        return QFunction(self.f1 + o.f1, self.f2 + o.f2)

    __radd__ = __add__

    def __sub__(self, other):
        o = _qf_coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _qf_coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _qf_coerce(other)
        if o is None:
            return NotImplemented
        # pointwise quaternion product in components
        return QFunction(self.f1 * o.f1 - self.f2 * o.f2.conjugate(),
                         self.f1 * o.f2 + self.f2 * o.f1.conjugate())

    def __rmul__(self, other):
        o = _qf_coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def eval(self, q: Quat) -> Quat:
        if q.is_exact:
            return Quat(self.f1.eval_exact(q.z1, q.z2),
                        self.f2.eval_exact(q.z1, q.z2))
        return Quat(self.f1.eval_point(q.z1, q.z2),
                    self.f2.eval_point(q.z1, q.z2))

    def eval_numeric(self, Z1, Z2):
        return self.f1.eval_numeric(Z1, Z2), self.f2.eval_numeric(Z1, Z2)

    def __str__(self) -> str:
        return f"{self.f1} ; {self.f2}"


def _qf_coerce(x):
    if isinstance(x, QFunction):
        return x
    if isinstance(x, Quat):
        if not x.is_exact:
            return None
        return QFunction.const(x)
    if isinstance(x, (int, Fraction, CRat)):
        return QFunction(ConjRational.const(x), ConjRational.zero())
    if isinstance(x, (ConjPoly, ConjRational)):
        r = _rat_coerce(x)
        return QFunction(r, ConjRational.zero())
    return None


# -- vanishing orders ------------------------------------------------------

def poly_vanishing_order(p: ConjPoly, p1: CRat, p2: CRat):
    """Order of vanishing at (p1, p2); inf for the zero polynomial."""
    return p.shifted(p1, p2).min_total_degree()


def vanishing_order(r: ConjRational, p1: CRat, p2: CRat):
    """num order minus den order; negative means a pole."""
    return poly_vanishing_order(r.num, p1, p2) - poly_vanishing_order(r.den, p1, p2)


def vanishing_order_pair(f: QFunction, point: Quat):
    """Vanishing order of the quaternion value: min over the two components."""
    if not point.is_exact:
        raise TypeError("vanishing order needs an exact point")
    return min(vanishing_order(f.f1, point.z1, point.z2),
               vanishing_order(f.f2, point.z1, point.z2))


# -- numeric jets ----------------------------------------------------------

PairEval = Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass
class WirtingerJet:
    """Values and first Wirtinger partials of both components.

    d1 and d2 map each of "z1", "z1b", "z2", "z2b" to the corresponding
    partial of f1 and f2 respectively.  Every field is a complex number for
    a jet at one point and an array of the points' shape for a jet at an
    array of points.
    """

    f1: complex | np.ndarray
    f2: complex | np.ndarray
    d1: Dict[str, complex | np.ndarray]
    d2: Dict[str, complex | np.ndarray]

    def partial(self, component: int, var: str) -> complex | np.ndarray:
        table = self.d1 if component == 1 else self.d2
        return table[_canon_var(var)]


def _canon_var(var: str) -> str:
    idx = VAR_INDEX[var]
    return ("z1", "z1b", "z2", "z2b")[idx]


# The jet's step h; a second pass at h/2 refines it (see numeric_jet).
_JET_STEP = 1e-4
_JET_STEPS = (_JET_STEP, _JET_STEP / 2)
# Offsets (dz1, dz2) of the jet stencil: the centre, then for each step s
# the eight points +s, -s, +is, -is in z1 and then the same in z2.
_STENCIL_DZ1 = np.array([0j] + [m * s for s in _JET_STEPS
                                for m in (1, -1, 1j, -1j, 0, 0, 0, 0)])
_STENCIL_DZ2 = np.array([0j] + [m * s for s in _JET_STEPS
                                for m in (0, 0, 0, 0, 1, -1, 1j, -1j)])
# The central-difference divisor 2s of each step.
_JET_DIV = np.array([2 * s for s in _JET_STEPS])
# Partial name -> (Wirtinger kind: 0 for d/dz, 1 for d/dz-bar; coordinate).
_JET_PARTIALS = {"z1": (0, 0), "z1b": (1, 0), "z2": (0, 1), "z2b": (1, 1)}


def numeric_jet(ev: PairEval, z1, z2) -> WirtingerJet:
    """First-order jet by central differences at a point or an array of them.

    The whole stencil goes through one call ev(Z1, Z2), on complex arrays of
    shape (stencil size,) + the points' shape; a black-box ev must accept
    such arrays and return the pair of component values in that shape
    (QFunction.eval_numeric does).  The step is fixed at h = 1e-4, and a
    second pass at h/2 always follows: plain central differences carry an
    O(h^2) ~ 1e-8 error at that step, right at the 1e-8 mark the D(1/f)
    checks hold to, and a smaller h trades it for rounding error of order
    1e-16 / h.  Richardson extrapolation of the two passes cancels the h^2
    term and leaves the error near 1e-12.

    Both steps, all four real directions and both components are differenced
    together, each element by the same scalar operations at any batch shape.
    """
    z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=complex),
                                 np.asarray(z2, dtype=complex))
    axes = (slice(None),) + (None,) * z1.ndim
    w1, w2 = ev(z1 + _STENCIL_DZ1[axes], z2 + _STENCIL_DZ2[axes])
    w = np.empty((len(_STENCIL_DZ1), 2) + z1.shape, dtype=complex)
    w[:, 0] = w1
    w[:, 1] = w2
    # stencil rows as (step, direction x1 y1 x2 y2, sign + -, component)
    rows = w[1:].reshape((2, 4, 2, 2) + z1.shape)
    div = _JET_DIV.reshape((2, 1, 1) + (1,) * z1.ndim)
    diff = (rows[:, :, 0] - rows[:, :, 1]) / div
    # Wirtinger combinations of the two real directions per complex
    # coordinate, as (kind, step, coordinate, component)
    dx, jdy = diff[:, 0::2], 1j * diff[:, 1::2]
    wirt = np.stack([dx - jdy, dx + jdy]) / 2
    g = (4 * wirt[:, 1] - wirt[:, 0]) / 3
    out = complex if z1.ndim == 0 else np.asarray
    d1 = {k: out(g[kind, coord, 0]) for k, (kind, coord) in _JET_PARTIALS.items()}
    d2 = {k: out(g[kind, coord, 1]) for k, (kind, coord) in _JET_PARTIALS.items()}
    return WirtingerJet(f1=out(w[0, 0]), f2=out(w[0, 1]), d1=d1, d2=d2)
