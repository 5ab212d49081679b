"""Quadrature rules on the unit sphere chart.

Gauss-Legendre in the colatitude-like angle eta, uniform trapezoid in the two
phases (spectrally accurate for periodic integrands).  Weights are stored raw,
without the sin*cos chart density: the pairings apply it through the
closed-form volume element 4*lam^3*sin*cos, which both the volume integrals
and, through their Gelfand-Leray form, the level-set integrals use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from ..errors import DomainError, RuleTooLarge, TooCoarse
from .estimate import EpsilonSchedule

HALF_PI = math.pi / 2.0
# Gauss-Legendre orders above which an eta rule is refused: numpy's leggauss
# costs O(n^3) time and O(n^2) memory (order 2048: 1.1 s and 33 MB traced on
# a 2-core x86_64 host; 4096: 5.4 s and 129 MB)
MAX_ETA_ORDER = 2048
# chart rays per mesh above which a mesh is refused before it is built
MAX_RAYS = 1 << 20


@dataclass(frozen=True)
class QuadratureRule:
    """Product rule: GL nodes in eta on [0, pi/2], and in xi1 and xi2 the
    n_xi-point trapezoid, phase_grid(n_xi), built by whoever reads it."""

    n_eta: int
    n_xi: int
    eta_nodes: np.ndarray
    eta_weights: np.ndarray


def pv_rays(n_eta: int, n_xi: int) -> int:
    """Chart rays of the principal-value mesh of an n_eta x n_xi rule."""
    return n_eta * n_xi * n_xi


def residue_rays(n_xi: int, schedule: EpsilonSchedule, support: float) -> int:
    """Chart rays of the largest graded residue mesh on the ladder: n_xi^2
    per eta node, the rays of the n_xi rule, even where a pairing takes the
    phase average on one ray per eta node."""
    n_eta = max(len(graded_eta_panels(eps, support)[0])
                for eps in schedule.values())
    return n_eta * n_xi * n_xi


def require_rays(rays: int) -> None:
    """Refuse a mesh of more than MAX_RAYS chart rays."""
    if rays > MAX_RAYS:
        raise RuleTooLarge(f"the rule needs {rays} chart rays per mesh; "
                           f"at most {MAX_RAYS} are allowed")


def phase_grid(n_xi: int) -> Tuple[np.ndarray, float]:
    """Trapezoid nodes on [0, 2 pi) in one phase, and their common weight."""
    step = 2.0 * math.pi / n_xi
    return np.arange(int(n_xi)) * step, step


def build_quadrature(n_eta: int = 32, n_xi: int = 64) -> QuadratureRule:
    """The n_eta x n_xi rule.  A mesh of more than MAX_RAYS rays, a coarse
    rule and more than MAX_ETA_ORDER eta nodes are refused, in that order,
    before any node is computed."""
    require_rays(pv_rays(n_eta, n_xi))
    if n_eta < 4 or n_xi < 8:
        raise TooCoarse(
            f"rule {n_eta}x{n_xi} is too coarse: need n_eta >= 4 and n_xi >= 8")
    if n_eta > MAX_ETA_ORDER:
        raise RuleTooLarge(f"the rule needs {n_eta} Gauss-Legendre nodes in "
                           f"eta; at most {MAX_ETA_ORDER} are allowed")
    x, w = gauss_legendre(int(n_eta))
    eta = 0.5 * HALF_PI * (x + 1.0)
    eta_w = 0.5 * HALF_PI * w
    return QuadratureRule(int(n_eta), int(n_xi), eta, eta_w)


def sphere_integral(rule: QuadratureRule,
                    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> complex:
    """Integrate fn(eta, xi1, xi2) over the unit sphere.

    The sin(eta)*cos(eta) chart density is applied here; fn receives
    broadcast-ready mesh axes: eta nodes along axis 0, phase_grid nodes in
    xi1 along axis 1 and in xi2 along axis 2."""
    xi, xi_w = phase_grid(rule.n_xi)
    eta = rule.eta_nodes[:, None, None]
    xi1 = xi[None, :, None]
    xi2 = xi[None, None, :]
    full = (rule.n_eta, rule.n_xi, rule.n_xi)
    vals = np.broadcast_to(np.asarray(fn(eta, xi1, xi2)), full)
    dens = (rule.eta_weights * np.sin(rule.eta_nodes)
            * np.cos(rule.eta_nodes))[:, None, None]
    return complex((vals * dens).sum() * xi_w ** 2)


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and shared as read-only arrays."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def gauss_panels(edges: Sequence, n_per: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over consecutive panels.

    The edges may be arrays of one shape, one interval per entry: nodes and
    weights then have that shape after the leading node axis."""
    x, w = gauss_legendre(int(n_per))
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        axis = (-1,) + (1,) * np.ndim(half)
        # the product first: numpy then adds the midpoints in place
        nodes.append(half * x.reshape(axis) + 0.5 * (a + b))
        weights.append(half * w.reshape(axis))
    if len(nodes) == 1:
        return nodes[0], weights[0]
    return np.concatenate(nodes), np.concatenate(weights)


def geometric_edges(lo: float, hi: float, first: float) -> list:
    """Panel edges from lo to hi whose first panel has width ``first`` and
    whose widths double.  Used to resolve integrands that vary on a scale
    much smaller than the interval."""
    if not lo < hi:
        raise DomainError("empty interval")
    if not first > 0:
        raise DomainError(f"first panel width {first!r} is not positive")
    edges = [lo]
    width = first
    while edges[-1] + width < hi:
        edges.append(edges[-1] + width)
        width *= 2.0
    edges.append(hi)
    return edges


def graded_eta_panels(eps: float, support: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Eta nodes and weights on 14-node Gauss panels refined geometrically
    toward both chart poles.

    Level sets of functions vanishing on a coordinate plane hug eta = 0 or
    eta = pi/2 at scale eps/support, so a fixed grid cannot resolve them; the
    first panel width tracks that scale.  Panels double from that width, so
    a width that underflows to 0 would need unboundedly many: it raises
    RuleTooLarge before anything is allocated.
    """
    delta = HALF_PI * min(0.05, 0.2 * eps / support)
    if not delta > 0:
        raise RuleTooLarge(f"the first eta panel at eps = {eps:g} and "
                           f"support {support:g} is not positive")
    mid = HALF_PI / 2.0
    left = [0.0]
    e = delta
    while e < mid:
        left.append(e)
        e *= 2.0
    edges = sorted(set(left + [mid] + [HALF_PI - t for t in left]))
    return gauss_panels(edges, 14)
