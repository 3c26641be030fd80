"""The package namespace: every public name resolves, on first use, to the
object its defining module holds."""
import importlib
import sys

import pytest

import gammalab

# The public names of the package, by defining module.
EXPORTS = {
    "errors": """DistributionError ExpansionError GammalabError InversionError ParseError
        ResourceBoundError StructureError""",
    "permutations": """JointDistribution complement des des_ides descent_set direct_sum
        enumerate_permutations enumerate_simple eulerian_distribution format_permutation ides
        inflate inverse is_block is_simple is_skew_indecomposable is_sum_indecomposable
        joint_distribution parse_permutation simple_distribution skew_sum standardize""",
    "polys": """BivarGammaExpansion BivarPoly UniGammaExpansion UniPoly gamma_basis_bivariate
        gamma_basis_univariate gamma_expand_bivariate gamma_expand_univariate
        is_palindromic_bivariate is_palindromic_univariate""",
    "trees": """LEAF ChainPartition DecompTree binary_right_chains decompose in_closure
        is_canonical max_skeleton_length reconstruct simplified_text tree_text""",
    "orbits": """ClassSignature EquivClass class_polynomial closure_class_report
        closure_class_reports closure_distribution closure_permutations equivalence_class
        flip_odd_chain minimal_representative simplified_class_polynomial swap_length4_label
        verify_reduction""",
    "series": """PowerSeries eulerian_series functional_inverse indecomposable_series
        rsk_two_sided_eulerian simple_series verify_system_identities""",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def test_the_package_exports_seventy_names():
    assert len(NAMES) == 70
    assert sorted(gammalab.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES)
def test_every_package_name_is_its_modules_object(module, name):
    defining = importlib.import_module(f"gammalab.{module}")
    assert getattr(gammalab, name) is getattr(defining, name)
    assert name in dir(gammalab)


def test_a_name_is_read_from_its_module_on_every_access(monkeypatch):
    from gammalab import trees

    def wrapper(p):
        return trees.decompose(p)

    monkeypatch.setattr(trees, "decompose", wrapper)
    assert gammalab.decompose is wrapper
    monkeypatch.undo()
    assert gammalab.decompose is trees.decompose is not wrapper


def test_an_unknown_name_is_an_attribute_error_and_a_submodule_still_imports():
    with pytest.raises(AttributeError, match="no_such_name"):
        gammalab.no_such_name  # noqa: B018
    from gammalab import orbits
    assert orbits is sys.modules["gammalab.orbits"]
