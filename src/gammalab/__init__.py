"""
gammalab: exact-arithmetic tools for two-sided descent statistics.

The package computes joint (des, ides) distributions over permutation
families, builds substitution decomposition trees, expands palindromic
polynomials in the gamma basis, and derives the simple-permutation
polynomials from the compositional inverse of the Eulerian generating
function; every quantity is cross-checkable by at least two independent
routes, with integer arithmetic throughout.

Each public name loads on first use: importing the package loads no
submodule, and ``gammalab.<name>`` imports the module that defines the name
(`_EXPORTS`) and reads the name from it on every access, so a one-shot
command compiles only the modules it runs.
"""

# Every public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in (
    ("errors", (
        "DistributionError", "ExpansionError", "GammalabError", "InversionError",
        "ParseError", "ResourceBoundError", "StructureError",
    )),
    ("permutations", (
        "JointDistribution", "complement", "des", "des_ides", "descent_set", "direct_sum",
        "enumerate_permutations", "enumerate_simple", "eulerian_distribution",
        "format_permutation", "ides", "inflate", "inverse", "is_block", "is_simple",
        "is_skew_indecomposable", "is_sum_indecomposable", "joint_distribution",
        "parse_permutation", "simple_distribution", "skew_sum", "standardize",
    )),
    ("polys", (
        "BivarGammaExpansion", "BivarPoly", "UniGammaExpansion", "UniPoly",
        "gamma_basis_bivariate", "gamma_basis_univariate", "gamma_expand_bivariate",
        "gamma_expand_univariate", "is_palindromic_bivariate", "is_palindromic_univariate",
    )),
    ("trees", (
        "LEAF", "ChainPartition", "DecompTree", "binary_right_chains", "decompose",
        "in_closure", "is_canonical", "max_skeleton_length", "reconstruct",
        "simplified_text", "tree_text",
    )),
    ("orbits", (
        "ClassSignature", "EquivClass", "class_polynomial", "closure_class_report",
        "closure_class_reports", "closure_distribution", "closure_permutations",
        "equivalence_class", "flip_odd_chain", "minimal_representative",
        "simplified_class_polynomial", "swap_length4_label", "verify_reduction",
    )),
    ("series", (
        "PowerSeries", "eulerian_series", "functional_inverse", "indecomposable_series",
        "rsk_two_sided_eulerian", "simple_series", "verify_system_identities",
    )),
) for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The public ``name`` as its defining module holds it now; nothing is
    bound here, so a wrapper installed on that module is what this returns.
    Any other name is an `AttributeError`, which is what lets ``from gammalab
    import orbits`` go on to import the submodule."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
