"""Numerical current evaluation: sphere charts, quadrature, test forms,
epsilon-limit estimates, the one-complex-variable reference theory, and the
quaternionic residue / principal-value pairings."""

from .chart import ORIENTATION_3FORM, ORIENTATION_4FORM, sphere_to_complex
from .quadrature import (MAX_RAYS, QuadratureRule, build_quadrature, pv_rays,
                         require_rays, residue_rays, sphere_integral)
from .forms import Profile, TestForm2, TestForm3, bump, parse_profile
from .estimate import CurrentEstimate, EpsilonSchedule, finalize
from .oned import (Laurent1D, pv_1d, recover_principal_coefficients,
                   res_limit_1d, residue_1d)
from .pairings import pv_pair, residue_pair

__all__ = [
    "ORIENTATION_3FORM", "ORIENTATION_4FORM", "sphere_to_complex",
    "QuadratureRule", "build_quadrature", "sphere_integral",
    "Profile", "TestForm2", "TestForm3", "bump", "parse_profile",
    "CurrentEstimate", "EpsilonSchedule", "finalize",
    "Laurent1D", "pv_1d", "recover_principal_coefficients",
    "res_limit_1d", "residue_1d",
    "MAX_RAYS", "pv_pair", "pv_rays", "require_rays", "residue_pair",
    "residue_rays",
]
