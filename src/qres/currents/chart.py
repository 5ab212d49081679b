"""Spherical chart on C^2 for form integration.

The chart used everywhere in this package is

    z1 = lam * cos(eta) * exp(i*xi1),   z2 = lam * sin(eta) * exp(i*xi2),

with eta in (0, pi/2) and xi1, xi2 in [0, 2*pi).  For fixed lam it covers the
round sphere of radius lam up to a measure-zero set; the induced area element
is lam^3 * sin(eta)*cos(eta) d(eta) d(xi1) d(xi2).

No determinant is computed at run time.  The volume form
dz1^dz1bar^dz2^dz2bar pulls back to 4 * lam^3 * sin(eta)*cos(eta) times
d(lam) d(eta) d(xi1) d(xi2), and a 3-form alpha on a level set g = const that
is a radial graph lam = lam*(eta, xi1, xi2) pulls back to its Gelfand-Leray
form, (dg^alpha / dz1^dz1bar^dz2^dz2bar) * 4 * lam^3 * sin(eta)*cos(eta)
/ (dg/dlam) at lam* (Gelfand and Shilov, Generalized Functions, vol. 1,
1964), with no graph slope.  The test suite checks the closed form against
the determinant of the full chart Jacobian.  Coordinate index order is fixed
as (z1, z1bar, z2, z2bar) and parameter order as (lam, eta, xi1, xi2).
"""

from __future__ import annotations

import numpy as np

# Orientation factors relating the raw chart determinants to the oriented
# integrals used by the pairings.  Both are pinned by calibration: the 4-form
# factor makes the volume pairing agree with integrating against -4 dV, and
# the 3-form factor makes the model one-variable residue come out as +2*pi*i.
ORIENTATION_3FORM = -1.0
ORIENTATION_4FORM = -1.0


def sphere_to_complex(lam, eta, xi1, xi2):
    """Map chart parameters to the pair (z1, z2) as complex arrays."""
    lam = np.asarray(lam, dtype=float)
    eta = np.asarray(eta, dtype=float)
    z1 = lam * np.cos(eta) * np.exp(1j * np.asarray(xi1, dtype=float))
    z2 = lam * np.sin(eta) * np.exp(1j * np.asarray(xi2, dtype=float))
    return z1, z2
