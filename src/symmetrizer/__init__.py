"""Exact-arithmetic analysis of symmetrizer algebras of symmetric forms.

A homogeneous polynomial of degree d in n variables over the rationals
determines a symmetric d-linear form F. The matrices g with F(gx, y, ..., z)
symmetric in the first two slots make up a commutative algebra; this package
computes that algebra exactly, splits it into its diagonalizable and
nilpotent parts, decides whether the polynomial is a sum of forms in
disjoint variable blocks, finds the singular points forced by square-zero
elements, and transports elements between polynomials sharing a Jacobian
row space. Every value is an exact rational: matrices hold integer rows
over one denominator, and every other value is a fractions.Fraction;
no floats anywhere.
"""

from .algebra import (
    CheckResult,
    FiberInvarianceReport,
    FiberMismatchError,
    NilpotentReport,
    STBlock,
    STDecomposition,
    SquareZeroClass,
    SymmetrizerAlgebra,
    algebra_closure_check,
    check_identities,
    constraint_matrix,
    fiber_invariance_check,
    kernel_image_vanishing,
    nilpotent_report,
    recover_symmetrizer,
    sample_invertible_symmetrizers,
    st_decompose,
    symmetrizer_algebra,
)
from .corpus import GeneratorError, GeneratorSpec, census, generate, nilpotent_form_space
from .forms import (
    DegenerateFormError,
    GrassmannPoint,
    NotASymmetrizerError,
    ProjectivePoint,
    SymForm,
    compose_linear,
    enumerate_monomials,
    grassmann_point,
    is_nondegenerate,
    is_symmetrizer,
    jacobian_kernel,
    jacobian_matrix,
    twist,
    vanishing_order,
)
from .linalg import InvariantError, Matrix, jordan_chevalley, nilpotency_index
from .polys import Poly, factor_rational, squarefree_part
from .polytext import ParseError, format_poly, parse_poly
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DegenerateFormError",
    "FiberInvarianceReport",
    "FiberMismatchError",
    "GeneratorError",
    "GeneratorSpec",
    "GrassmannPoint",
    "InvariantError",
    "Matrix",
    "NilpotentReport",
    "NotASymmetrizerError",
    "ParseError",
    "Poly",
    "ProjectivePoint",
    "STBlock",
    "STDecomposition",
    "SplitMix64",
    "SquareZeroClass",
    "SymForm",
    "SymmetrizerAlgebra",
    "algebra_closure_check",
    "census",
    "check_identities",
    "compose_linear",
    "constraint_matrix",
    "enumerate_monomials",
    "factor_rational",
    "fiber_invariance_check",
    "format_poly",
    "generate",
    "grassmann_point",
    "is_nondegenerate",
    "is_symmetrizer",
    "jacobian_kernel",
    "jacobian_matrix",
    "jordan_chevalley",
    "kernel_image_vanishing",
    "nilpotency_index",
    "nilpotent_form_space",
    "nilpotent_report",
    "parse_poly",
    "recover_symmetrizer",
    "sample_invertible_symmetrizers",
    "squarefree_part",
    "st_decompose",
    "symmetrizer_algebra",
    "twist",
    "vanishing_order",
]
