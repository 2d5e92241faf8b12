"""Exact homology of balanced complexes over finite abelian groups.

Everything is computed in exact integer or cyclotomic-integer arithmetic:
cyclotomic polynomials, Smith/Hermite normal forms, character sums, the
complexes built from joins of finite abelian groups, and the verification
sweeps tying their integral (co)homology to cyclotomic coefficient data.
"""

from .cyclotomic import CycInt, IntPoly, cyclotomic, eval_at_root, euler_phi, root_power
from .groups import (
    FiniteAbelianGroup,
    GroupFunction,
    fourier_transform,
    positive_dual_block,
    product_group,
)
from .intlinalg import (
    AbelianGroupStructure,
    HermiteForm,
    IntMatrix,
    SmithForm,
    cokernel_structure,
    determinant,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
    solve_in_lattice,
)
from .complexes import (
    BalancedComplex,
    boundary_matrix,
    build_complex,
    coboundary_matches_fourier,
    coboundary_top_matrix,
    reduced_cohomology,
    reduced_homology,
)
from .cyclo_family import (
    CycloComplexData,
    build_family_complex,
    coefficient_vector_is_coboundary,
    crt_split,
    crt_unit,
    predicted_cohomology,
    predicted_homology,
    pullback_matches_root_kernel,
    quotient_presentation,
    root_relation_lattice,
    transform_pullback_check,
    verify_homology_tables,
)

__all__ = [
    "AbelianGroupStructure",
    "BalancedComplex",
    "CycInt",
    "CycloComplexData",
    "FiniteAbelianGroup",
    "GroupFunction",
    "HermiteForm",
    "IntMatrix",
    "IntPoly",
    "SmithForm",
    "boundary_matrix",
    "build_complex",
    "build_family_complex",
    "coboundary_matches_fourier",
    "coboundary_top_matrix",
    "coefficient_vector_is_coboundary",
    "cokernel_structure",
    "crt_split",
    "crt_unit",
    "cyclotomic",
    "determinant",
    "eval_at_root",
    "euler_phi",
    "fourier_transform",
    "hermite_normal_form",
    "kernel_basis",
    "positive_dual_block",
    "predicted_cohomology",
    "predicted_homology",
    "product_group",
    "pullback_matches_root_kernel",
    "quotient_presentation",
    "reduced_cohomology",
    "reduced_homology",
    "root_power",
    "root_relation_lattice",
    "smith_normal_form",
    "solve_in_lattice",
    "transform_pullback_check",
    "verify_homology_tables",
]

__version__ = "0.1.0"
