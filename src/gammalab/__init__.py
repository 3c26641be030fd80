"""
gammalab: exact-arithmetic tools for two-sided descent statistics.

The package computes joint (des, ides) distributions over permutation
families, builds substitution decomposition trees, expands palindromic
polynomials in the gamma basis, and derives the simple-permutation
polynomials from the compositional inverse of the Eulerian generating
function; every quantity is cross-checkable by at least two independent
routes, with integer arithmetic throughout.
"""

from .errors import (
    DistributionError,
    ExpansionError,
    GammalabError,
    InversionError,
    ParseError,
    ResourceBoundError,
    StructureError,
)
from .permutations import (
    JointDistribution,
    complement,
    des,
    des_ides,
    descent_set,
    direct_sum,
    enumerate_permutations,
    enumerate_simple,
    eulerian_distribution,
    format_permutation,
    ides,
    inflate,
    inverse,
    is_block,
    is_simple,
    is_skew_indecomposable,
    is_sum_indecomposable,
    joint_distribution,
    parse_permutation,
    simple_distribution,
    skew_sum,
    standardize,
)
from .polys import (
    BivarGammaExpansion,
    BivarPoly,
    UniGammaExpansion,
    UniPoly,
    gamma_basis_bivariate,
    gamma_basis_univariate,
    gamma_expand_bivariate,
    gamma_expand_univariate,
    is_palindromic_bivariate,
    is_palindromic_univariate,
)
from .trees import (
    LEAF,
    ChainPartition,
    DecompTree,
    binary_right_chains,
    decompose,
    in_closure,
    is_canonical,
    max_skeleton_length,
    reconstruct,
    simplified_text,
    tree_text,
)
from .orbits import (
    ClassSignature,
    EquivClass,
    class_polynomial,
    closure_class_report,
    closure_class_reports,
    closure_distribution,
    closure_permutations,
    equivalence_class,
    flip_odd_chain,
    minimal_representative,
    simplified_class_polynomial,
    swap_length4_label,
    verify_reduction,
)
from .series import (
    PowerSeries,
    eulerian_series,
    functional_inverse,
    indecomposable_series,
    rsk_two_sided_eulerian,
    simple_series,
    verify_system_identities,
)

__version__ = "0.1.0"
