"""Computational tools for quaternion-valued functions of two complex
variables: exact Cauchy-Riemann-type operators, a catalogue of model
functions, and numerical residue / principal-value pairings."""

from .qcore import CRat, Quat
from .symfun import ConjPoly, ConjRational, QFunction
from .parsing import parse_point, parse_poly, parse_qfunction, parse_rational
from .operators import (Classification, DResult, apply_D, apply_D_at,
                        check_product_rule, classify,
                        corollary_product_rule_residual, hypermero_residuals,
                        inverse_function, is_hyperholomorphic,
                        is_hypermeromorphic, modulus_function, product,
                        product_compat_residuals,
                        real_product_compat_residuals, scale_real)
from .catalogue import NAMES, CatalogueEntry, KnownFlags, builtin, resolve
from . import errors
from .currents import (CurrentEstimate, EpsilonSchedule, Laurent1D, Profile,
                       QuadratureRule, TestForm2, TestForm3, build_quadrature,
                       bump, finalize, parse_profile, pv_1d, pv_pair,
                       recover_principal_coefficients, res_limit_1d,
                       residue_1d, residue_pair, sphere_integral)

__version__ = "0.1.0"

__all__ = [
    "CRat", "Quat",
    "ConjPoly", "ConjRational", "QFunction",
    "parse_point", "parse_poly", "parse_qfunction", "parse_rational",
    "Classification", "DResult", "apply_D", "apply_D_at",
    "check_product_rule", "classify", "corollary_product_rule_residual",
    "hypermero_residuals", "inverse_function", "is_hyperholomorphic",
    "is_hypermeromorphic", "modulus_function", "product",
    "product_compat_residuals", "real_product_compat_residuals", "scale_real",
    "NAMES", "CatalogueEntry", "KnownFlags", "builtin", "resolve",
    "errors",
    "CurrentEstimate", "EpsilonSchedule", "Laurent1D", "Profile",
    "QuadratureRule", "TestForm2", "TestForm3", "build_quadrature", "bump",
    "finalize", "parse_profile", "pv_1d", "pv_pair",
    "recover_principal_coefficients", "res_limit_1d", "residue_1d",
    "residue_pair", "sphere_integral",
    "__version__",
]
