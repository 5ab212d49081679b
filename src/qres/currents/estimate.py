"""Epsilon schedules and limit extrapolation for current pairings.

Every pairing is computed on a decreasing geometric ladder of radii.  The
estimate keeps the full ladder (for convergence diagnostics and CSV export),
a quadratic-in-epsilon least-squares extrapolation to zero, and a convergence
verdict based on the decay of successive differences.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError
from ..operators import _norms
from ..qcore import Quat

# a difference below this times the value scale counts as converged noise
ZERO_FLOOR = 1e-12
# rungs per ladder above which a schedule is refused before any is built
MAX_RUNGS = 100


@dataclass(frozen=True)
class EpsilonSchedule:
    """Geometric ladder eps0 * ratio^k, k = 0 .. count-1."""

    eps0: float
    ratio: float = 0.7
    count: int = 12

    def __post_init__(self):
        if not self.eps0 > 0:
            raise DomainError("eps0 must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise DomainError("ratio must lie in (0, 1)")
        if self.count < 3:
            raise DomainError("need at least 3 rungs")
        if self.count > MAX_RUNGS:
            raise DomainError(f"the ladder has {self.count} rungs; at most "
                              f"{MAX_RUNGS} are allowed")
        # the first rung is the largest: both 4-D pairings compare |f|^2
        # with eps^2 and the fit squares the rungs, so its square must be
        # finite
        if not self.eps0 * self.eps0 < math.inf:
            raise DomainError(f"the ladder overflows: its first rung "
                              f"{self.eps0:g} squared is not finite")
        # the last rung is the smallest; a ladder reaching 0 has no limit
        # left to extrapolate and hands the integrators a zero radius
        last = self.eps0 * self.ratio ** (self.count - 1)
        if not last > 0:
            raise DomainError("the ladder underflows: its last rung rounds "
                              "to 0")
        # both 4-D pairings compare |f|^2 with eps^2; a square below the
        # smallest normal float loses its digits or rounds to 0, and then
        # no ray crosses the level set
        if last * last < sys.float_info.min:
            raise DomainError(f"the ladder underflows: its last rung {last:g} "
                              "squared is below the smallest normal float")

    @classmethod
    def for_radius(cls, R: float) -> "EpsilonSchedule":
        """Default ladder for a test form supported in radius R."""
        return cls(0.5 * float(R))

    @classmethod
    def for_disc(cls, R: float) -> "EpsilonSchedule":
        """Default ladder of the one-variable pairings, for a test function
        supported in the disc of radius R."""
        return cls(0.25 * R, 0.55, 14)

    def values(self) -> Tuple[float, ...]:
        return tuple(self.eps0 * self.ratio ** k for k in range(self.count))


@dataclass(frozen=True)
class CurrentEstimate:
    """Result of an epsilon-limit computation."""

    epsilons: Tuple[float, ...]
    values: Tuple[Quat, ...]
    extrapolated: Quat
    converged: bool
    # None where the difference before is exactly 0 and this one is not
    diff_ratios: Tuple[Optional[float], ...]
    part: str = "(1,0)"
    notes: Tuple[str, ...] = ()
    # the 4-D pairings: whether the phases were averaged exactly, so that
    # the phase rule changed no value
    phases_averaged: bool = False

    def rows(self):
        """(epsilon, re1, im1, re_j, im_j) per rung, for tabular export."""
        return [(eps, *v.to_numeric().basis_coeffs())
                for eps, v in zip(self.epsilons, self.values)]


def _extrapolate(epsilons: Sequence[float], values: Sequence[Quat],
                 z: np.ndarray) -> Quat:
    m = min(5, len(values))
    if m < 3:
        return values[-1]
    # in units of the last rung, so lstsq's cutoff keeps the constant column
    t = np.array(epsilons[-m:], dtype=float) / epsilons[-1]
    a = np.stack([np.ones(m), t, t * t], axis=1).astype(complex)
    coef, *_ = np.linalg.lstsq(a, z[-m:], rcond=None)
    return Quat(complex(coef[0, 0]), complex(coef[0, 1]))


def finalize(epsilons: Sequence[float], values: Sequence[Quat],
             part: str = "(1,0)", notes: Sequence[str] = (),
             trusted: bool = True,
             phases_averaged: bool = False) -> CurrentEstimate:
    """Assemble the estimate: extrapolate and judge convergence.

    Converged means the last few successive differences decay with ratio
    below 0.8, or have hit the zero floor relative to the value scale.  A
    rung that is exactly zero after a rung above the zero floor is a lost
    rung, not a converged one, and rules convergence out; so does
    trusted=False, for a pairing that counted rays it cannot resolve (its
    notes say which).  A ratio is None where the difference before it is
    exactly 0 and its own is not, and None is not below 0.8.
    phases_averaged is carried to the estimate.  The norms and differences
    are taken on one complex array of the rungs' (z1, z2), with the
    arithmetic of Quat subtraction and Quat.norm.
    """
    if len(epsilons) != len(values):
        raise DomainError("epsilons and values must align")
    if not values:
        raise DomainError("no values to finalize")
    z = np.array([(complex(v.z1), complex(v.z2)) for v in values])
    # rungs that overflow here come out as inf or nan, which the report
    # writer refuses; numpy need not warn on the way there
    with np.errstate(all="ignore"):
        norms = _norms(*z.T).tolist()
        diffs = _norms(*(z[1:] - z[:-1]).T)
        ratios = (diffs[1:] / np.maximum(diffs[:-1], 1e-300)).tolist()
    scale = max(1.0, max(norms))
    floor = ZERO_FLOOR * scale
    diffs = diffs.tolist()
    # a nonzero difference after an exactly zero one has no ratio (over the
    # 1e-300 floor it would read near 1e300); a 0 / 0 ratio stays 0.0
    ratios = tuple(None if a == 0.0 and b != 0.0 else r
                   for a, b, r in zip(diffs, diffs[1:], ratios))
    window = min(4, len(ratios))
    if len(values) >= 5 and window > 0:
        tail_ok = []
        for i in range(len(ratios) - window, len(ratios)):
            r = ratios[i]
            tail_ok.append((r is not None and r < 0.8) or diffs[i + 1] < floor)
        lost = any(b == 0.0 and a > floor for a, b in zip(norms, norms[1:]))
        converged = trusted and not lost and all(tail_ok)
    else:
        converged = False
    return CurrentEstimate(
        epsilons=tuple(float(e) for e in epsilons),
        values=tuple(values),
        extrapolated=_extrapolate(epsilons, values, z),
        converged=converged,
        diff_ratios=ratios,
        part=part,
        notes=tuple(notes),
        phases_averaged=phases_averaged,
    )
