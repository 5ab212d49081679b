"""One-complex-variable reference machinery.

Circle pairings around an isolated pole and annulus principal values, built
with the same epsilon-ladder estimates as the quaternionic pairings.  These
serve two purposes: a sanity oracle for the limit/extrapolation pipeline, and
a way to recover principal-part coefficients of a 1D Laurent function from
pairings alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import PoleOnDomain
from ..qcore import Quat
from .estimate import CurrentEstimate, EpsilonSchedule, finalize
from .forms import bump
from .quadrature import gauss_panels, geometric_edges

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Laurent1D:
    """Finite Laurent expansion around 0.

    ``principal`` holds (a_{-1}, a_{-2}, ...) and ``tail`` holds the
    nonnegative powers in ascending order."""

    principal: Tuple[complex, ...]
    tail: Tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "principal",
                           tuple(complex(a) for a in self.principal))
        object.__setattr__(self, "tail", tuple(complex(a) for a in self.tail))

    @property
    def pole_order(self) -> int:
        order = 0
        for k, a in enumerate(self.principal, start=1):
            if a != 0:
                order = k
        return order

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for k, a in enumerate(self.principal, start=1):
            if a != 0:
                out = out + a / z ** k
        for m, a in enumerate(self.tail):
            if a != 0:
                out = out + a * z ** m
        return out


def _finite(value: complex, where: str, eps: float) -> complex:
    """Pass a pairing value through, unless a pole too strong for floating
    point overflowed it; then raise PoleOnDomain, as the 4D pairings do."""
    if not cmath.isfinite(value):
        raise PoleOnDomain(f"pairing overflows on the {where} at eps = {eps:g}")
    return value


def _as_callable_1d(g) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(g, Laurent1D):
        return g
    if callable(g):
        return g
    raise TypeError("expected a Laurent1D or a callable of z")


def residue_1d(g, phi: Callable[[np.ndarray], np.ndarray], eps: float,
               n_theta: int = 256) -> complex:
    """Circle pairing at one radius: integral over |z| = eps of g * phi dz.

    The trapezoid rule in the angle is exact for any integrand band-limited
    below n_theta harmonics, which covers Laurent data of moderate order."""
    gf = _as_callable_1d(g)
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    z = eps * np.exp(1j * theta)
    with np.errstate(all="ignore"):
        vals = gf(z) * np.asarray(phi(z), dtype=complex) * (1j * z)
        value = complex(vals.sum() * (TWO_PI / n_theta))
    return _finite(value, "circle", eps)


def res_limit_1d(g, phi: Callable[[np.ndarray], np.ndarray],
                 schedule: EpsilonSchedule,
                 n_theta: int = 256) -> CurrentEstimate:
    """Epsilon limit of the circle pairing, with convergence diagnostics."""
    eps_list = schedule.values()
    values = [Quat(residue_1d(g, phi, eps, n_theta), 0.0) for eps in eps_list]
    return finalize(eps_list, values, part="1d-circle")


def pv_1d(g, psi0: Callable[[np.ndarray], np.ndarray], R: float,
          schedule: Optional[EpsilonSchedule] = None,
          n_theta: int = 128, n_r: int = 10) -> CurrentEstimate:
    """Principal value over the annulus eps <= |z| <= R, eps -> 0.

    Pairs g against psi0 dz ^ dzbar; the area element is -2i r dr dtheta.
    psi0 must vanish at |z| = R so the outer edge carries nothing."""
    gf = _as_callable_1d(g)
    if schedule is None:
        schedule = EpsilonSchedule(0.25 * R, 0.55, 14)
    if not schedule.eps0 < R:
        raise ValueError("schedule starts outside the support radius")
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    phase = np.exp(1j * theta)
    eps_list = schedule.values()
    values = []
    for eps in eps_list:
        edges = geometric_edges(eps, R, eps)
        r, wr = gauss_panels(edges, n_r)
        z = r[:, None] * phase[None, :]
        with np.errstate(all="ignore"):
            vals = gf(z) * np.asarray(psi0(z), dtype=complex)
            radial = (vals * r[:, None]).sum(axis=1) * (TWO_PI / n_theta)
            value = complex(-2j * (radial * wr).sum())
        values.append(Quat(_finite(value, "annulus", eps), 0.0))
    return finalize(eps_list, values, part="1d-annulus")


def recover_principal_coefficients(g, count: int, R: float,
                                   schedule: Optional[EpsilonSchedule] = None,
                                   n_theta: int = 256) -> Tuple[complex, ...]:
    """Recover (a_{-1}, ..., a_{-count}) of g from circle pairings.

    Pairing against z^j * bump(|z|/R) isolates a_{-(j+1)} times 2*pi*i; every
    other Laurent term integrates to zero on each circle."""
    if schedule is None:
        schedule = EpsilonSchedule(0.25 * R, 0.55, 14)
    out = []
    for j in range(count):
        def phi(z, _j=j):
            return z ** _j * bump(np.abs(z) / R)
        est = res_limit_1d(g, phi, schedule, n_theta)
        out.append(complex(est.extrapolated.z1) / (2j * math.pi))
    return tuple(out)
