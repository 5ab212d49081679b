"""Computational tools for quaternion-valued functions of two complex
variables: exact Cauchy-Riemann-type operators, a catalogue of model
functions, and numerical residue / principal-value pairings.

The package re-exports nothing: each public name is imported from the
module that defines it (``from qres.operators import classify``), so
``import qres`` loads none of the layers and no numpy."""

__version__ = "0.1.0"

__all__ = ["__version__"]
