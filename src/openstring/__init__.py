"""Exact operator algebra for the covariant free open bosonic string.

The package builds the oscillator Fock space over rational scalars and
polynomial sections in the momentum, realises the Virasoro and DDF operator
constructions on momentum fibers, verifies the indefinite-metric spectrum
structure (no-ghost signatures at the critical dimension), and ends in an
analytic layer: compactly supported constrained test functions whose
smeared string fields commute at spacelike separation.

Everything algebraic is exact; floating point appears only in the quadrature
layer (support verification, commutator kernels, locality scans).
"""

from .exactnum import sqrt_fraction
from .fock import (
    FockVector,
    InvalidDirectionError,
    ModelParams,
    apply_oscillator,
    basis_dimension,
    inner_indefinite,
    inner_positive,
    iter_level_basis,
    j_involution,
    level_basis,
)

__version__ = "0.1.0"

__all__ = [
    "FockVector",
    "InvalidDirectionError",
    "ModelParams",
    "apply_oscillator",
    "basis_dimension",
    "inner_indefinite",
    "inner_positive",
    "iter_level_basis",
    "j_involution",
    "level_basis",
    "sqrt_fraction",
    "__version__",
]
