"""Symbolic functions of a quaternion variable.

The variable q = z1 + z2*j is split into the four commuting complex
coordinates z1, conj(z1), z2, conj(z2).  A :class:`ConjPoly` is a polynomial
in those four with exact complex-rational coefficients; a
:class:`ConjRational` is a quotient whose denominator is real-valued, which
is the shape quaternionic inversion produces and keeps every later quotient
well defined without commutativity worries.  A :class:`QFunction` pairs two
rationals into the component form f = f1 + f2*j.

Numeric evaluation compiles terms to numpy expressions; exact evaluation
stays in CRat arithmetic end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple, Union

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
    """Sparse polynomial over (z1, conj z1, z2, conj z2) with CRat coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[ExpKey, CRat] | None = None):
        clean: Dict[ExpKey, CRat] = {}
        if terms:
            for key, coeff in terms.items():
                c = _as_crat(coeff)
                if not c.is_zero:
                    clean[tuple(key)] = c
        self._terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ConjPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "ConjPoly":
        return cls({_ZKEY: _as_crat(c)})

    @classmethod
    def one(cls) -> "ConjPoly":
        return cls.const(1)

    @classmethod
    def var(cls, name: str) -> "ConjPoly":
        idx = VAR_INDEX[name]
        key = [0, 0, 0, 0]
        key[idx] = 1
        return cls({tuple(key): CRAT_ONE})

    # -- structure --------------------------------------------------------

    @property
    def terms(self) -> Dict[ExpKey, CRat]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _ZKEY in self._terms)

    @property
    def is_real(self) -> bool:
        return self == self.conjugate()

    def min_total_degree(self):
        if not self._terms:
            return math.inf
        return min(sum(k) for k in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConjPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _poly_coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in o._terms.items():
            s = out.get(key, CRAT_ZERO) + coeff
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        p = ConjPoly.__new__(ConjPoly)
        p._terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "ConjPoly":
        p = ConjPoly.__new__(ConjPoly)
        p._terms = {k: -c for k, c in self._terms.items()}
        return p

    def __sub__(self, other):
        o = _poly_coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _poly_coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _poly_coerce(other)
        if o is None:
            return NotImplemented
        out: Dict[ExpKey, CRat] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in o._terms.items():
                key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])
                s = out.get(key, CRAT_ZERO) + c1 * c2
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        p = ConjPoly.__new__(ConjPoly)
        p._terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ConjPoly":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ConjPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ConjPoly":
        out = {}
        for (a, b, c, d), coeff in self._terms.items():
            out[(b, a, d, c)] = coeff.conjugate()
        p = ConjPoly.__new__(ConjPoly)
        p._terms = out
        return p

    def wirtinger(self, var: str) -> "ConjPoly":
        """Partial derivative treating the four coordinates as independent."""
        idx = VAR_INDEX[var]
        out: Dict[ExpKey, CRat] = {}
        for key, coeff in self._terms.items():
            e = key[idx]
            if e == 0:
                continue
            nk = list(key)
            nk[idx] = e - 1
            out[tuple(nk)] = coeff * e
        p = ConjPoly.__new__(ConjPoly)
        p._terms = out
        return p

    def shifted(self, p1: CRat, p2: CRat) -> "ConjPoly":
        """Recenter at (p1, p2): substitute z1 -> z1 + p1 and so on."""
        offs = (p1, p1.conjugate(), p2, p2.conjugate())
        out = ConjPoly.zero()
        for key, coeff in self._terms.items():
            expansion = ConjPoly.const(coeff)
            for idx in range(4):
                e = key[idx]
                if e == 0:
                    continue
                vk = [0, 0, 0, 0]
                vk[idx] = 1
                base: Dict[ExpKey, CRat] = {}
                for m in range(e + 1):
                    vkey = [0, 0, 0, 0]
                    vkey[idx] = m
                    base[tuple(vkey)] = CRat(math.comb(e, m)) * offs[idx] ** (e - m)
                expansion = expansion * ConjPoly(base)
            out = out + expansion
        return out

    # -- evaluation -------------------------------------------------------

    def eval_exact(self, z1: CRat, z2: CRat) -> CRat:
        vals = (z1, z1.conjugate(), z2, z2.conjugate())
        total = CRAT_ZERO
        for (a, b, c, d), coeff in self._terms.items():
            total = total + coeff * vals[0] ** a * vals[1] ** b * vals[2] ** c * vals[3] ** d
        return total

    def to_numeric(self):
        """(exponent array (n,4), coefficient array (n,)) for numpy evaluation."""
        if not self._terms:
            return np.zeros((0, 4), dtype=int), np.zeros(0, dtype=complex)
        keys = sorted(self._terms)
        exps = np.array(keys, dtype=int)
        coeffs = np.array([complex(self._terms[k]) for k in keys], dtype=complex)
        return exps, coeffs

    def eval_numeric(self, Z1, Z2):
        Z1 = np.asarray(Z1, dtype=complex)
        Z2 = np.asarray(Z2, dtype=complex)
        out = np.zeros(np.broadcast(Z1, Z2).shape, dtype=complex)
        vals = (Z1, np.conj(Z1), Z2, np.conj(Z2))
        for (a, b, c, d), coeff in self._terms.items():
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

    def _abs_scale(self, Z1, Z2):
        """Sum of term magnitudes, the natural yardstick for pole detection."""
        a1, a2 = np.abs(np.asarray(Z1, complex)), np.abs(np.asarray(Z2, complex))
        out = np.zeros(np.broadcast(a1, a2).shape, dtype=float)
        for (a, b, c, d), coeff in self._terms.items():
            out += abs(complex(coeff)) * a1 ** (a + b) * a2 ** (c + d)
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        out = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
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
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ConjPoly, den: ConjPoly | None = None):
        if den is None:
            den = ConjPoly.one()
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if not den.is_real:
            raise ValueError("denominator must be real-valued")
        if num.is_zero:
            den = ConjPoly.one()
        else:
            num, den = _strip_content(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: ConjPoly) -> "ConjRational":
        return cls(p)

    @classmethod
    def const(cls, c) -> "ConjRational":
        return cls(ConjPoly.const(c))

    @classmethod
    def zero(cls) -> "ConjRational":
        return cls(ConjPoly.zero())

    @classmethod
    def var(cls, name: str) -> "ConjRational":
        return cls(ConjPoly.var(name))

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
        return self.num * o.den == o.num * self.den

    __hash__ = None

    def __neg__(self) -> "ConjRational":
        return ConjRational(-self.num, self.den)

    def __add__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return ConjRational(self.num + o.num, self.den)
        return ConjRational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _rat_coerce(other)
        if o is None:
            return NotImplemented
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
        return ConjRational(self.num.conjugate(), self.den)

    def wirtinger(self, var: str) -> "ConjRational":
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
        d = complex(self.den.eval_numeric(z1, z2))
        scale = float(self.den._abs_scale(z1, z2))
        if abs(d) <= POLE_RTOL * max(scale, 1e-300):
            raise PoleError(f"denominator vanishes near ({z1}, {z2})")
        return complex(self.num.eval_numeric(z1, z2)) / d

    def eval_numeric(self, Z1, Z2):
        """Array evaluation; poles come out as inf/nan for the caller to notice."""
        n = self.num.eval_numeric(Z1, Z2)
        d = self.den.eval_numeric(Z1, Z2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return n / d

    def __str__(self) -> str:
        if self.is_polynomial and self.den == ConjPoly.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _strip_content(num: ConjPoly, den: ConjPoly) -> Tuple[ConjPoly, ConjPoly]:
    """Cancel a shared monomial factor, but only a real one (|z1|^2a |z2|^2b)
    so the denominator stays real-valued."""
    mins = [min(min(k[i] for k in p.terms) for p in (num, den)) for i in range(4)]
    s1 = min(mins[0], mins[1])
    s2 = min(mins[2], mins[3])
    if s1 == 0 and s2 == 0:
        return num, den
    shift = (s1, s1, s2, s2)

    def drop(p: ConjPoly) -> ConjPoly:
        q = ConjPoly.__new__(ConjPoly)
        q._terms = {
            (k[0] - shift[0], k[1] - shift[1], k[2] - shift[2], k[3] - shift[3]): c
            for k, c in p.terms.items()
        }
        return q

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

    def as_callable(self) -> Callable[[complex, complex], Tuple[complex, complex]]:
        def ev(z1: complex, z2: complex):
            return (complex(self.f1.eval_numeric(z1, z2)),
                    complex(self.f2.eval_numeric(z1, z2)))
        return ev

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

PairEval = Callable[[complex, complex], Tuple[complex, complex]]


@dataclass
class WirtingerJet:
    """Values and first Wirtinger partials of both components at one point.

    d1 and d2 map each of "z1", "z1b", "z2", "z2b" to the corresponding
    partial of f1 and f2 respectively.
    """

    f1: complex
    f2: complex
    d1: Dict[str, complex]
    d2: Dict[str, complex]

    def partial(self, component: int, var: str) -> complex:
        table = self.d1 if component == 1 else self.d2
        return table[_canon_var(var)]


def _canon_var(var: str) -> str:
    idx = VAR_INDEX[var]
    return ("z1", "z1b", "z2", "z2b")[idx]


def _jet_differences(ev: PairEval, z1: complex, z2: complex, h: float):
    def v(a, b):
        w1, w2 = ev(a, b)
        return np.array([w1, w2], dtype=complex)

    dx1 = (v(z1 + h, z2) - v(z1 - h, z2)) / (2 * h)
    dy1 = (v(z1 + 1j * h, z2) - v(z1 - 1j * h, z2)) / (2 * h)
    dx2 = (v(z1, z2 + h) - v(z1, z2 - h)) / (2 * h)
    dy2 = (v(z1, z2 + 1j * h) - v(z1, z2 - 1j * h)) / (2 * h)
    # Wirtinger combinations of the two real directions per complex coordinate
    return {
        "z1": (dx1 - 1j * dy1) / 2,
        "z1b": (dx1 + 1j * dy1) / 2,
        "z2": (dx2 - 1j * dy2) / 2,
        "z2b": (dx2 + 1j * dy2) / 2,
    }


def numeric_jet(ev: PairEval, z1: complex, z2: complex,
                h: float = 1e-4, richardson: bool = True) -> WirtingerJet:
    """First-order jet by central differences.

    With richardson=True a second pass at h/2 cancels the leading O(h^2)
    error term, which is what pushes plain differences past the 1e-8 mark
    on smooth rational inputs.
    """
    g = _jet_differences(ev, z1, z2, h)
    if richardson:
        g2 = _jet_differences(ev, z1, z2, h / 2)
        g = {k: (4 * g2[k] - g[k]) / 3 for k in g}
    w1, w2 = ev(z1, z2)
    d1 = {k: complex(v[0]) for k, v in g.items()}
    d2 = {k: complex(v[1]) for k, v in g.items()}
    return WirtingerJet(f1=complex(w1), f2=complex(w2), d1=d1, d2=d2)
