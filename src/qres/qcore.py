"""Quaternions as pairs of complex numbers.

A quaternion is stored as ``(z1, z2)`` meaning ``z1 + z2*j``, where the only
structural rule is ``j*w = conj(w)*j`` for complex ``w``.  Products,
conjugates and inverses all follow from it.  Components live on one of two
paths: exact complex rationals (:class:`CRat`) or machine ``complex``; an
exact quaternion meeting a float one demotes both to floats.

Operand rule: a :class:`Quat` operator takes a Quat on the right and nothing
else, so ``q + 1`` and ``2 * q`` raise TypeError.  CRat alone mixes with int
and Fraction on either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


def _frac(x) -> Fraction:
    # Fraction(float) is binary-exact, Fraction("0.1") decimal-exact; both
    # are deliberate entry points, the caller picks which by the input type.
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, slots=True)
class CRat:
    """Complex number with rational real and imaginary parts.

    Arithmetic is exact and closed; division by zero raises the builtin
    ZeroDivisionError.  Only int and Fraction mix in via operators, floats
    must be converted explicitly so the exact path stays exact.
    """

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "CRat":
        return CRat(self.re, -self.im)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def __add__(self, other):
        o = _crat_coerce(other)
        if o is None:
            return NotImplemented
        return CRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _crat_coerce(other)
        if o is None:
            return NotImplemented
        return CRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _crat_coerce(other)
        if o is None:
            return NotImplemented
        return CRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _crat_coerce(other)
        if o is None:
            return NotImplemented
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _crat_coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero complex rational")
        return CRat((self.re * o.re + self.im * o.im) / n,
                    (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = _crat_coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "CRat":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = CRAT_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.is_real:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _crat_coerce(x):
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(_frac(x))
    return None


CRAT_ZERO = CRat(Fraction(0))
CRAT_ONE = CRat(Fraction(1))
CRAT_I = CRat(Fraction(0), Fraction(1))

Component = Union[CRat, complex]


def _as_component(x) -> Component:
    if isinstance(x, CRat):
        return x
    if isinstance(x, (int, Fraction)):
        return CRat(_frac(x))
    if isinstance(x, float):
        return complex(x)
    if isinstance(x, complex):
        return x
    raise TypeError(f"cannot use {type(x).__name__} as a quaternion component")


@dataclass(frozen=True, slots=True)
class Quat:
    """Quaternion ``z1 + z2*j`` over exact or float complex components.

    ``+ - * /`` take a Quat on the right only; there are no reflected
    operators, so a scalar must be made a Quat first."""

    z1: Component
    z2: Component

    def __post_init__(self):
        # two Python complexes are already float components
        if type(self.z1) is complex and type(self.z2) is complex:
            return
        a = _as_component(self.z1)
        b = _as_component(self.z2)
        # One exact and one float component: demote to the float path.
        if isinstance(a, CRat) != isinstance(b, CRat):
            if isinstance(a, CRat):
                a = complex(a)
            else:
                b = complex(b)
        object.__setattr__(self, "z1", a)
        object.__setattr__(self, "z2", b)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.z1, CRat)

    def to_numeric(self) -> "Quat":
        if self.is_exact:
            return Quat(complex(self.z1), complex(self.z2))
        return self

    def conj(self) -> "Quat":
        return Quat(self.z1.conjugate(), -self.z2)

    def modulus_sq(self):
        """|z1|^2 + |z2|^2 as Fraction (exact path) or float."""
        if self.is_exact:
            return (self.z1.re * self.z1.re + self.z1.im * self.z1.im
                    + self.z2.re * self.z2.re + self.z2.im * self.z2.im)
        a, b = self.z1, self.z2
        return a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag

    def norm(self) -> float:
        return math.sqrt(float(self.modulus_sq()))

    def inv(self) -> "Quat":
        n = self.modulus_sq()
        if not n:
            raise ZeroDivisionError("zero quaternion has no inverse")
        c = self.conj()
        if self.is_exact:
            s = CRat(1 / n)
            return Quat(c.z1 * s, c.z2 * s)
        s = 1.0 / n
        return Quat(c.z1 * s, c.z2 * s)

    def basis_coeffs(self):
        """Coefficients along (1, i, j, k)."""
        if self.is_exact:
            return (self.z1.re, self.z1.im, self.z2.re, self.z2.im)
        return (self.z1.real, self.z1.imag, self.z2.real, self.z2.imag)

    @classmethod
    def from_basis(cls, a, b, c, d) -> "Quat":
        if all(isinstance(t, (int, Fraction)) for t in (a, b, c, d)):
            return cls(CRat(_frac(a), _frac(b)), CRat(_frac(c), _frac(d)))
        return cls(complex(a, b), complex(c, d))

    def __neg__(self) -> "Quat":
        return Quat(-self.z1, -self.z2)

    def __add__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        a, b = _join(self, other)
        return Quat(a.z1 + b.z1, a.z2 + b.z2)

    def __sub__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        a, b = _join(self, other)
        return Quat(a.z1 - b.z1, a.z2 - b.z2)

    def __mul__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        a, b = _join(self, other)
        # (z1 + z2 j)(w1 + w2 j) with j w = conj(w) j:
        return Quat(a.z1 * b.z1 - a.z2 * b.z2.conjugate(),
                    a.z1 * b.z2 + a.z2 * b.z1.conjugate())

    def __truediv__(self, other):
        """Right division: q / p means q * p.inv()."""
        if not isinstance(other, Quat):
            return NotImplemented
        return self * other.inv()

    def __str__(self) -> str:
        return f"({self.z1}) + ({self.z2})j"


def _join(a: Quat, b: Quat):
    if a.is_exact and not b.is_exact:
        return a.to_numeric(), b
    if b.is_exact and not a.is_exact:
        return a, b.to_numeric()
    return a, b

