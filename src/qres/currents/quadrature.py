"""Quadrature rules on the unit sphere chart.

Gauss-Legendre in the colatitude-like angle eta, uniform trapezoid in the two
phases (spectrally accurate for periodic integrands).  Weights are stored raw,
without the sin*cos chart density: surface integrals pick up that factor
through the pullback determinants of the level-set graph, and volume
integrals through the closed-form volume element 4*lam^3*sin*cos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from ..errors import TooCoarse

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class QuadratureRule:
    """Product rule: GL nodes in eta on [0, pi/2], trapezoid in xi1 and xi2."""

    n_eta: int
    n_xi: int
    eta_nodes: np.ndarray
    eta_weights: np.ndarray
    xi_nodes: np.ndarray
    xi_weight: float


def build_quadrature(n_eta: int = 32, n_xi: int = 64) -> QuadratureRule:
    if n_eta < 4 or n_xi < 8:
        raise TooCoarse(
            f"rule {n_eta}x{n_xi} is too coarse: need n_eta >= 4 and n_xi >= 8")
    x, w = np.polynomial.legendre.leggauss(int(n_eta))
    eta = 0.5 * HALF_PI * (x + 1.0)
    eta_w = 0.5 * HALF_PI * w
    xi = np.arange(int(n_xi)) * (2.0 * math.pi / n_xi)
    return QuadratureRule(int(n_eta), int(n_xi), eta, eta_w, xi,
                          2.0 * math.pi / n_xi)


def sphere_integral(rule: QuadratureRule,
                    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> complex:
    """Integrate fn(eta, xi1, xi2) over the unit sphere.

    The sin(eta)*cos(eta) chart density is applied here; fn receives
    broadcast-ready mesh axes (eta varies along axis 0, xi1 axis 1, xi2 axis 2).
    """
    eta = rule.eta_nodes[:, None, None]
    xi1 = rule.xi_nodes[None, :, None]
    xi2 = rule.xi_nodes[None, None, :]
    full = (rule.n_eta, rule.n_xi, rule.n_xi)
    vals = np.broadcast_to(np.asarray(fn(eta, xi1, xi2)), full)
    dens = (rule.eta_weights * np.sin(rule.eta_nodes)
            * np.cos(rule.eta_nodes))[:, None, None]
    return complex((vals * dens).sum() * rule.xi_weight ** 2)


def gauss_panels(edges: Sequence[float], n_per: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights over consecutive panels."""
    x, w = np.polynomial.legendre.leggauss(int(n_per))
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def geometric_edges(lo: float, hi: float, first: float, ratio: float = 2.0) -> list:
    """Panel edges from lo to hi whose first panel has width ``first`` and
    whose widths grow geometrically.  Used to resolve integrands that vary on
    a scale much smaller than the interval."""
    if not lo < hi:
        raise ValueError("empty interval")
    edges = [lo]
    width = first
    while edges[-1] + width < hi:
        edges.append(edges[-1] + width)
        width *= ratio
    edges.append(hi)
    return edges


def graded_eta_panels(eps: float, support: float,
                      n_per: int = 14) -> Tuple[np.ndarray, np.ndarray]:
    """Eta nodes and weights refined geometrically toward both chart poles.

    Level sets of functions vanishing on a coordinate plane hug eta = 0 or
    eta = pi/2 at scale eps/support, so a fixed grid cannot resolve them; the
    first panel width tracks that scale.
    """
    delta = HALF_PI * min(0.05, 0.2 * eps / support)
    mid = HALF_PI / 2.0
    left = [0.0]
    e = delta
    while e < mid:
        left.append(e)
        e *= 2.0
    edges = sorted(set(left + [mid] + [HALF_PI - t for t in left]))
    return gauss_panels(edges, n_per)
