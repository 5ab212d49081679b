"""Compactly supported test forms for current pairings.

A coefficient profile is a polynomial in (z1, z1bar, z2, z2bar) times a smooth
cutoff bump in one of three radii: the full modulus |q|, or |z1| or |z2|
alone.  Every profile vanishes identically outside a known radius, which the
integrators use to truncate their domains exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DomainError, ParseError
from ..parsing import parse_poly
from ..symfun import ConjPoly

RADIAL_KINDS = ("q", "z1", "z2")


def bump(t):
    """Standard smooth bump: exp(1 - 1/(1 - t^2)) for |t| < 1, else 0.

    Normalised so bump(0) == 1.  Vectorised; the argument may be any real
    array.  No mask: t^2 is capped at 1, where 1 / 0 = inf gives exp(-inf)
    = 0, and fmin maps nan to 1 as well."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.exp(1.0 - 1.0 / (1.0 - np.fmin(t * t, 1.0)))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Profile:
    """One test-form coefficient: poly(z1, z1bar, z2, z2bar) * bump(r / R)."""

    poly: ConjPoly
    R: float
    radial: str = "q"

    def __post_init__(self):
        if self.radial not in RADIAL_KINDS:
            raise DomainError(f"unknown radial kind {self.radial!r}")
        if not self.R > 0:
            raise DomainError("support radius must be positive")

    @classmethod
    def bump_only(cls, R: float, radial: str = "q") -> "Profile":
        return cls(ConjPoly.one(), float(R), radial)

    def _radius(self, Z1, Z2):
        if self.radial == "q":
            return np.sqrt(np.abs(Z1) ** 2 + np.abs(Z2) ** 2)
        if self.radial == "z1":
            return np.abs(Z1)
        return np.abs(Z2)

    def eval(self, Z1, Z2):
        Z1 = np.asarray(Z1, dtype=complex)
        Z2 = np.asarray(Z2, dtype=complex)
        return self.poly.eval_numeric(Z1, Z2) * bump(self._radius(Z1, Z2) / self.R)

    def conjugated(self) -> "Profile":
        return Profile(self.poly.conjugate(), self.R, self.radial)

    def support_lambda(self, eta):
        """Radial extent of the support along the chart ray at angle eta."""
        eta = np.asarray(eta, dtype=float)
        if self.radial == "q":
            return np.full(eta.shape, self.R)
        # an extent beyond the float range is inf, the unbounded support
        # it stands for
        with np.errstate(over="ignore"):
            if self.radial == "z1":
                return self.R / np.maximum(np.cos(eta), 1e-12)
            return self.R / np.maximum(np.sin(eta), 1e-12)


class _TestForm:
    """Support queries shared by the test forms, over their coefficients;
    None means the coefficient is zero."""

    __test__ = False  # pytest: data class, not a test case

    @property
    def is_zero(self) -> bool:
        return all(p is None for p in self.coefficients)

    @property
    def support_radius(self) -> float:
        rs = [p.R for p in self.coefficients if p is not None]
        if not rs:
            raise DomainError("test form has no nonzero coefficient")
        return max(rs)

    def support_lambda(self, eta):
        """Radial extent of the union of the supports along the chart ray
        at angle eta."""
        out = np.zeros(np.asarray(eta, dtype=float).shape)
        for p in self.coefficients:
            if p is not None:
                out = np.maximum(out, p.support_lambda(eta))
        return out


@dataclass(frozen=True)
class TestForm2(_TestForm):
    """2-form test data: coefficients of dz1^dz1bar, dz1^dz2bar, dz2^dz1bar,
    dz2^dz2bar in that order.  None means the coefficient is zero."""

    phi11: Optional[Profile] = None
    phi12: Optional[Profile] = None
    phi21: Optional[Profile] = None
    phi22: Optional[Profile] = None

    @property
    def coefficients(self):
        return (self.phi11, self.phi12, self.phi21, self.phi22)


@dataclass(frozen=True)
class TestForm3(_TestForm):
    """3-form test data: psi1 rides dz1bar^dz2^dz2bar, psi2 rides
    dz1^dz1bar^dz2bar."""

    psi1: Optional[Profile] = None
    psi2: Optional[Profile] = None

    @property
    def coefficients(self):
        return (self.psi1, self.psi2)


def parse_profile(text: str, R: float, radial: str = "q") -> Optional[Profile]:
    """Parse a coefficient spec: '0', 'bump', or 'POLY*bump'."""
    s = text.strip()
    if s in ("", "0"):
        return None
    if s == "bump":
        return Profile.bump_only(R, radial)
    if s.endswith("*bump"):
        return Profile(parse_poly(s[: -len("*bump")]), float(R), radial)
    raise ParseError("expected '0', 'bump', or 'POLY*bump'", 0)
