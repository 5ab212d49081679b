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
inside a polynomial and in CRat arithmetic at a point.  Every float
evaluation at a set of points runs on one _PointTable of them: z1, conj z1,
z2, conj z2, their broadcast shape and each power a term asks for, computed
once and shared by f1, f2 and their denominators (and by the ray tables of
the pairings), so the values are those of taking each power afresh, bit for
bit.  A sum, product or derivative with a zero operand returns at once,
with the _num, _den and key order the general path gives.

Operand rule: none of these classes defines a reflected operator, so a
scalar goes on the right (``p * 3``, not ``3 * p``).  There ConjPoly takes
a ConjPoly, CRat, int or Fraction, ConjRational those and a ConjRational,
and QFunction a QFunction only; anything else raises TypeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Dict, Tuple

import numpy as np

from .errors import DomainError, PoleError
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


class _PointTable:
    """The coordinates z = (z1, z2) of one set of points, their broadcast
    shape and the powers of z1, conj z1, z2, conj z2 (var 0 to 3) and of
    the term sizes |z1|, |z2| of the pole rule (var 4, 5), each base and
    power computed once, on first use, however many polynomials are
    evaluated there.

    power(var, e) is base(var) ** e; the first power of an array is the
    base itself (numpy's pow gives the same values at the cost of about
    three products), while a 0-d base keeps its pow, a numpy scalar, since
    a term's product with it rounds otherwise than with the 0-d array."""

    __slots__ = ("z", "shape", "_bases", "_powers")

    def __init__(self, Z1, Z2):
        Z1 = np.asarray(Z1, dtype=complex)
        Z2 = np.asarray(Z2, dtype=complex)
        self.z = (Z1, Z2)
        self.shape = (Z1.shape if Z1.shape == Z2.shape
                      else np.broadcast_shapes(Z1.shape, Z2.shape))
        self._bases = [Z1, None, Z2, None, None, None]
        self._powers = {}

    def base(self, var: int):
        b = self._bases[var]
        if b is None:
            b = self._bases[var] = (np.conj(self.z[var // 2]) if var < 4
                                    else np.abs(self.z[var - 4]))
        return b

    def power(self, var: int, e: int):
        p = self._powers.get((var, e))
        if p is None:
            b = self.base(var)
            p = self._powers[var, e] = b if e == 1 and b.ndim else b ** e
        return p


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

    ``+ - *`` take a ConjPoly, CRat, int or Fraction on the right only.
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
        if not num:
            return cls._from_parts(num, 1)
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
        """self + sign * other over the lcm of the two denominators; a zero
        operand leaves the other as it is, or negated."""
        if not other._num:
            return self
        if not self._num:
            return other if sign == 1 else -other
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
        o = other if type(other) is ConjPoly else _poly_coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    def __neg__(self) -> "ConjPoly":
        return ConjPoly._from_parts(
            {k: (-re, -im) for k, (re, im) in self._num.items()}, self._den)

    def __sub__(self, other):
        o = other if type(other) is ConjPoly else _poly_coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __mul__(self, other):
        o = other if type(other) is ConjPoly else _poly_coerce(other)
        if o is None:
            return NotImplemented
        if not self._num or not o._num:
            return ConjPoly.zero()
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

    def halved(self) -> "ConjPoly":
        """self / 2: the denominator doubled, in the same key order, as the
        product with the constant 1/2 gives it."""
        return ConjPoly._reduced(self._num, 2 * self._den)

    def conjugate(self) -> "ConjPoly":
        return ConjPoly._from_parts(
            {(b, a, d, c): (re, -im)
             for (a, b, c, d), (re, im) in self._num.items()}, self._den)

    def wirtinger(self, var: str) -> "ConjPoly":
        """Partial derivative treating the four coordinates as independent."""
        if not self._num:
            return self
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

    def phase_average(self) -> "ConjPoly":
        """The mean over the phase torus (z1, z2) -> (e^(i t1) z1,
        e^(i t2) z2): the terms |z1|^2a |z2|^2c, in key order, since every
        other monomial carries a phase that averages to 0."""
        return ConjPoly._reduced({(a, b, c, d): coeff for (a, b, c, d), coeff
                                  in self._num.items() if a == b and c == d},
                                 self._den)

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
        return self._eval(_PointTable(Z1, Z2))

    def _eval(self, table: _PointTable):
        """The values at the points of the table, every evaluation's one
        loop over the terms."""
        out = np.zeros(table.shape, dtype=complex)
        power = table.power
        den = self._den
        for (a, b, c, d), (re, im) in self._num.items():
            # re / den is correctly rounded, as float(Fraction(re, den)) is
            term = complex(re / den, im / den)
            if a:
                term = term * power(0, a)
            if b:
                term = term * power(1, b)
            if c:
                term = term * power(2, c)
            if d:
                term = term * power(3, d)
            out += term
        return out

    def _screened(self, table: _PointTable):
        """Values at the points of the table plus the float path's pole rule
        for self as a denominator: a point is a pole where |value| <=
        POLE_RTOL times the sum of the term sizes.  Returns (values, pole
        mask)."""
        scale = np.zeros(table.shape, dtype=float)
        power = table.power
        den = self._den
        for (a, b, c, d), (re, im) in self._num.items():
            scale += (abs(complex(re / den, im / den)) * power(4, a + b)
                      * power(5, c + d))
        values = self._eval(table)
        return values, np.abs(values) <= POLE_RTOL * np.maximum(scale, 1e-300)

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
    if isinstance(x, (int, Fraction, CRat)):
        return ConjPoly.const(x)
    return None


class ConjRational:
    """Quotient of ConjPoly with a real-valued denominator.

    The real-denominator invariant is enforced at construction and preserved
    by every operation here; it is what lets a component quotient stand in
    for left and right quaternionic division at once.  Products, sums,
    quotient derivatives and divide_by_real form their denominator as a
    product of real ones (or a real numerator divide_by_real has checked),
    so they build the result through ``_over_real``, which keeps the public
    constructor's reduction but does not prove den real and nonzero again.

    A constant denominator c is folded into the coefficients, num * (1/c)
    over 1 (_lowest_terms), and a denominator 1 is always the one shared
    polynomial ``_ONE``, so ``den is _ONE`` tells a polynomial apart at the
    cost of an identity test.  Products, sums, differences, derivatives and
    comparisons of two such operands work on the numerators alone: the
    general path would multiply 1 by 1, find 1 real and find no content to
    strip, which leaves the same numerator over the same 1.

    ``+ - * /`` and ``==`` take a ConjRational, ConjPoly, CRat, int or
    Fraction on the right only; ``/`` divides by a real-valued one.
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
            raise DomainError("denominator must be real-valued")
        self.num, self.den = _lowest_terms(num, den)

    @classmethod
    def _over_real(cls, num: ConjPoly, den: ConjPoly) -> "ConjRational":
        """num / den for a den known to be real and nonzero: the public
        constructor without its two checks."""
        return cls._from_parts(*_lowest_terms(num, den))

    @classmethod
    def _from_parts(cls, num: ConjPoly, den: ConjPoly) -> "ConjRational":
        """Wrap num / den that already keep the invariants: den real, no
        shared real monomial left to cancel, and den is _ONE if it is
        constant."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

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
        return self.den is _ONE

    @property
    def is_real(self) -> bool:
        return self.num.is_real

    def __eq__(self, other) -> bool:
        o = other if type(other) is ConjRational else _rat_coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return self.num == o.num
        return self.num * o.den == o.num * self.den

    __hash__ = None

    def __neg__(self) -> "ConjRational":
        return ConjRational._from_parts(-self.num, self.den)

    def __add__(self, other):
        o = other if type(other) is ConjRational else _rat_coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            return self
        if self.num.is_zero:
            return o
        if self.den is _ONE and o.den is _ONE:
            return ConjRational._from_parts(self.num + o.num, _ONE)
        if self.den == o.den:
            return ConjRational._over_real(self.num + o.num, self.den)
        n = _times(self.num, o.den) + _times(o.num, self.den)
        if n.is_zero:
            return ConjRational.zero()
        return ConjRational._over_real(n, _times(self.den, o.den))

    def __sub__(self, other):
        o = other if type(other) is ConjRational else _rat_coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            return self
        if self.num.is_zero:
            return -o
        if self.den is _ONE and o.den is _ONE:
            return ConjRational._from_parts(self.num - o.num, _ONE)
        return self + (-o)

    def __mul__(self, other):
        o = other if type(other) is ConjRational else _rat_coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero or o.num.is_zero:
            return ConjRational.zero()
        if self.den is _ONE and o.den is _ONE:
            return ConjRational._from_parts(self.num * o.num, _ONE)
        return ConjRational._over_real(self.num * o.num,
                                       _times(self.den, o.den))

    def __truediv__(self, other):
        o = other if type(other) is ConjRational else _rat_coerce(other)
        if o is None:
            return NotImplemented
        return self.divide_by_real(o)

    def divide_by_real(self, other: "ConjRational") -> "ConjRational":
        if not other.is_real:
            raise DomainError("can only divide by a real-valued function")
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        # other = N/D with N, D real, so 1/other = D/N keeps the invariant
        return ConjRational._over_real(_times(self.num, other.den),
                                       _times(self.den, other.num))

    def halved(self) -> "ConjRational":
        """self / 2, as the product with the constant 1/2 gives it: the
        numerator halved over the same denominator.  Halving keeps every
        key, so there is nothing new to cancel."""
        return ConjRational._from_parts(self.num.halved(), self.den)

    def conjugate(self) -> "ConjRational":
        # swapping z with conj z keeps min(a, b) and min(c, d) of every key,
        # so nothing new can be cancelled
        return ConjRational._from_parts(self.num.conjugate(), self.den)

    def wirtinger(self, var: str) -> "ConjRational":
        if self.den is _ONE:
            return ConjRational._from_parts(self.num.wirtinger(var), _ONE)
        n = self.num.wirtinger(var) * self.den - self.num * self.den.wirtinger(var)
        if n.is_zero:
            return ConjRational.zero()
        return ConjRational._over_real(n, self.den * self.den)

    def eval_exact(self, z1: CRat, z2: CRat) -> CRat:
        d = self.den.eval_exact(z1, z2)
        if d.is_zero:
            raise PoleError(f"denominator vanishes at ({z1}, {z2})")
        return self.num.eval_exact(z1, z2) / d

    def eval_screened(self, Z1, Z2):
        """Array evaluation plus the float path's pole rule (_quotients).
        Returns (values, pole mask); values at poles are not meaningful."""
        return _quotients(Z1, Z2, (self,), screen=True)

    def eval_numeric(self, Z1, Z2):
        """Array evaluation; poles come out as inf/nan for the caller to
        notice."""
        return _quotients(Z1, Z2, (self,), screen=False)[0]

    def __str__(self) -> str:
        if self.den is _ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _times(p: ConjPoly, q: ConjPoly) -> ConjPoly:
    """p * q with a factor 1 skipped: p * 1 is p in the same key order."""
    if q is _ONE:
        return p
    return q if p is _ONE else p * q


def _lowest_terms(num: ConjPoly, den: ConjPoly) -> Tuple[ConjPoly, ConjPoly]:
    """num / den with a shared real monomial cancelled.  A constant
    denominator c left after that is folded into the coefficients, as
    num * (1/c) over _ONE in num's key order; den is _ONE when num is 0,
    too."""
    if num.is_zero:
        return num, _ONE
    num, den = _strip_content(num, den)
    if not den.is_constant:
        return num, den
    c = den.terms[_ZKEY].re
    return (num if c == 1 else num * ConjPoly.const(1 / c)), _ONE


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
    if isinstance(x, ConjPoly):
        return ConjRational(x)
    if isinstance(x, (int, Fraction, CRat)):
        return ConjRational.const(x)
    return None


@dataclass(frozen=True)
class QFunction:
    """Quaternion-valued function in component form f = f1 + f2*j; on
    floats, eval and eval_screened screen for poles, eval_numeric does not.
    ``+ - *`` take a QFunction on the right only: a constant or a component
    is made a QFunction first (QFunction.const, QFunction.from_polys)."""

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
        if not isinstance(other, QFunction):
            return NotImplemented
        return QFunction(self.f1 + other.f1, self.f2 + other.f2)

    def __sub__(self, other):
        if not isinstance(other, QFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QFunction):
            return NotImplemented
        # pointwise quaternion product in components
        return QFunction(self.f1 * other.f1 - self.f2 * other.f2.conjugate(),
                         self.f1 * other.f2 + self.f2 * other.f1.conjugate())

    def eval(self, q: Quat) -> Quat:
        if q.is_exact:
            return Quat(self.f1.eval_exact(q.z1, q.z2),
                        self.f2.eval_exact(q.z1, q.z2))
        v1, v2, pole = self.eval_screened(q.z1, q.z2)
        if pole:
            raise PoleError(f"denominator vanishes near ({q.z1}, {q.z2})")
        return Quat(complex(v1), complex(v2))

    def eval_screened(self, Z1, Z2):
        """(v1, v2, pole): both components, as ConjRational.eval_screened
        gives them, and the OR of their pole masks (_quotients)."""
        return _quotients(Z1, Z2, (self.f1, self.f2), screen=True)

    def eval_numeric(self, Z1, Z2):
        """(v1, v2): both components, as ConjRational.eval_numeric gives
        them (_quotients)."""
        return _quotients(Z1, Z2, (self.f1, self.f2), screen=False)

    def __str__(self) -> str:
        return f"{self.f1} ; {self.f2}"


def _quotients(Z1, Z2, rationals, screen: bool):
    """(v1, ..., pole): the float values of the rationals at the points
    (Z1, Z2), on one _PointTable, and the OR of their pole masks under the
    float path's pole rule, a point being a pole of a rational where |den|
    <= POLE_RTOL times the sum of den's term sizes; (v1, ...) alone
    without screen.

    A denominator 1 has no pole and is neither evaluated nor sized, but it
    is divided by, since that turns the other part of an infinite value
    into nan and -0 into 0, as num / den does; its mask at a single point
    is a numpy bool, as a screened denominator's is.  A denominator equal to the
    one before it, as the inverse_function of an f with two nonzero
    components has, is evaluated, and screened, once."""
    table = _PointTable(Z1, Z2)
    out, pole, seen = [], None, (None, None, None)
    for r in rationals:
        if r.den is _ONE:
            d = 1
            mask = np.zeros(table.shape, dtype=bool)[()] if screen else None
        elif r.den == seen[0]:
            d, mask = seen[1:]
        else:
            d, mask = (r.den._screened(table) if screen
                       else (r.den._eval(table), None))
            seen = r.den, d, mask
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(r.num._eval(table) / d)
        if screen:
            pole = mask if pole is None else pole | mask
    return (*out, pole) if screen else tuple(out)


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

# The jet's step h; a second pass at h/2 refines it (see _jet_stencil).
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


def _jet_stencil(ev: PairEval, z1, z2) -> np.ndarray:
    """ev on the jet stencil around the points: the component values as an
    array indexed (stencil point, component) + the points' shape, the
    centre first.

    The whole stencil goes through one call ev(Z1, Z2), on complex arrays of
    shape (stencil size,) + the points' shape; a black-box ev must accept
    such arrays and return the pair of component values in that shape
    (QFunction.eval_numeric does).  The step is fixed at h = 1e-4, and a
    second pass at h/2 always follows: plain central differences carry an
    O(h^2) ~ 1e-8 error at that step, right at the 1e-8 mark the D(1/f)
    checks hold to, and a smaller h trades it for rounding error of order
    1e-16 / h.  Richardson extrapolation of the two passes cancels the h^2
    term and leaves the error near 1e-12."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if z1.shape != z2.shape:
        z1, z2 = np.broadcast_arrays(z1, z2)
    axes = (slice(None),) + (None,) * z1.ndim
    w1, w2 = ev(z1 + _STENCIL_DZ1[axes], z2 + _STENCIL_DZ2[axes])
    w = np.empty((len(_STENCIL_DZ1), 2) + z1.shape, dtype=complex)
    w[:, 0] = w1
    w[:, 1] = w2
    return w


def _bar_passes(w: np.ndarray) -> np.ndarray:
    """The central-difference conj(z)-partials, the only ones D reads, of
    each pass from the stencil values w (_jet_stencil), indexed (pass at
    step h or h/2, coordinate, component) + the points' shape.  Every
    element takes the same scalar operations at any batch shape."""
    shape = w.shape[2:]
    # stencil rows as (step, direction x1 y1 x2 y2, sign + -, component)
    rows = w[1:].reshape((2, 4, 2, 2) + shape)
    div = _JET_DIV.reshape((2, 1, 1) + (1,) * len(shape))
    diff = (rows[:, :, 0] - rows[:, :, 1]) / div
    # d/d conj(z) = (d/dx + i d/dy) / 2 for each complex coordinate
    return (diff[:, 0::2] + 1j * diff[:, 1::2]) / 2
