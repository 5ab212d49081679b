"""Numerical current evaluation, one module per layer: sphere charts
(chart), quadrature rules (quadrature), test forms (forms), epsilon-limit
estimates (estimate), the one-complex-variable reference theory (oned),
and the quaternionic residue / principal-value pairings (pairings).

The package re-exports nothing; import each name from its module
(``from qres.currents.pairings import residue_pair``)."""

__all__ = []
