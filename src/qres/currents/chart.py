"""Spherical chart on C^2 and pullback determinants for form integration.

The chart used everywhere in this package is

    z1 = lam * cos(eta) * exp(i*xi1),   z2 = lam * sin(eta) * exp(i*xi2),

with eta in (0, pi/2) and xi1, xi2 in [0, 2*pi).  For fixed lam it covers the
round sphere of radius lam up to a measure-zero set; the induced area element
is lam^3 * sin(eta)*cos(eta) d(eta) d(xi1) d(xi2).  Surfaces that are radial
graphs lam = lam*(eta, xi1, xi2) are handled by the same chart with the graph
slope folded into the tangent rows.

Pullbacks of 3-form monomials in (dz1, dz1bar, dz2, dz2bar) onto such graphs
are computed as cofactor determinants of the tangent rows, never transcribed
by hand.  The 4-form volume element needs no determinant at run time: the
full Jacobian has determinant 4 * lam^3 * sin(eta)*cos(eta), and det4 is kept
as the independent check of that closed form.  Coordinate index order is
fixed as (z1, z1bar, z2, z2bar) and parameter order as (lam, eta, xi1, xi2).
"""

from __future__ import annotations

import numpy as np

# Orientation factors relating the raw chart determinants to the oriented
# integrals used by the pairings.  Both are pinned by calibration: the 4-form
# factor makes the volume pairing agree with integrating against -4 dV, and
# the 3-form factor makes the model one-variable residue come out as +2*pi*i.
ORIENTATION_3FORM = -1.0
ORIENTATION_4FORM = -1.0

# index of each complex coordinate in tangent-row stacks
IDX_Z1, IDX_Z1B, IDX_Z2, IDX_Z2B = 0, 1, 2, 3

# row triples selecting the pullback of each 3-form monomial
TRIPLE_PX = (IDX_Z1, IDX_Z1B, IDX_Z2)    # dz1 ^ dz1bar ^ dz2
TRIPLE_PY = (IDX_Z1, IDX_Z2, IDX_Z2B)    # dz1 ^ dz2 ^ dz2bar
TRIPLE_PXP = (IDX_Z1, IDX_Z1B, IDX_Z2B)  # dz1 ^ dz1bar ^ dz2bar
TRIPLE_PYP = (IDX_Z1B, IDX_Z2, IDX_Z2B)  # dz1bar ^ dz2 ^ dz2bar


def sphere_to_complex(lam, eta, xi1, xi2):
    """Map chart parameters to the pair (z1, z2) as complex arrays."""
    lam = np.asarray(lam, dtype=float)
    eta = np.asarray(eta, dtype=float)
    z1 = lam * np.cos(eta) * np.exp(1j * np.asarray(xi1, dtype=float))
    z2 = lam * np.sin(eta) * np.exp(1j * np.asarray(xi2, dtype=float))
    return z1, z2


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


def graph_rows(jac, dlam):
    """Tangent rows of the radial graph lam = lam*(eta, xi1, xi2).

    ``jac`` is the full (4, 4, ...) chart Jacobian evaluated at lam = lam*;
    ``dlam`` is a (3, ...) array of graph slopes d(lam*)/d(eta, xi1, xi2).
    Result has shape (4, 3, ...): one row per coordinate, one column per
    surface parameter.
    """
    return jac[:, 1:] + jac[:, :1] * dlam[np.newaxis]


def _det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def det3(rows, triple):
    """Determinant of the 3x3 submatrix picking coordinate rows ``triple``."""
    i, j, k = triple
    return _det3(rows[i], rows[j], rows[k])


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


def pullback_3forms(rows):
    """All four 3-form monomial pullbacks of a graph, keyed by short name."""
    return {
        "px": det3(rows, TRIPLE_PX),
        "py": det3(rows, TRIPLE_PY),
        "pxp": det3(rows, TRIPLE_PXP),
        "pyp": det3(rows, TRIPLE_PYP),
    }
