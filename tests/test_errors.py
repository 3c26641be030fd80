"""The one size guard, `errors.check_size`, at every library entry point
that takes a size."""
import re
import time

import pytest

from gammalab import errors, orbits, permutations, series
from gammalab.errors import ResourceBoundError

ENTRY_POINTS = [
    (permutations.enumerate_permutations, errors.MAX_ENUMERATION_N),
    (permutations.eulerian_distribution, errors.MAX_ENUMERATION_N),
    (permutations.simple_distribution, errors.MAX_ENUMERATION_N),
    (orbits.verify_reduction, errors.MAX_REDUCTION_N),
    (lambda n: orbits.closure_trees(n, 5), errors.MAX_CLOSURE_TREE_N),
    (orbits.closure_class_report, errors.MAX_CLOSURE_TREE_N),
    (lambda n: next(orbits.closure_class_reports(n)), errors.MAX_CLOSURE_TREE_N),
    (lambda n: orbits.closure_distribution(n, 5), errors.MAX_CLOSURE_SERIES_N),
    (series.rsk_two_sided_eulerian, errors.MAX_RSK_N),
    (series.eulerian_series, errors.MAX_RSK_N),
    (lambda n: series.simple_series(n, method="enumerate"), errors.MAX_ENUMERATION_N),
]
IDS = ["enumerate_permutations", "eulerian_distribution", "simple_distribution",
       "verify_reduction", "closure_trees", "closure_class_report", "closure_class_reports",
       "closure_distribution", "rsk_two_sided_eulerian", "eulerian_series", "simple_series"]


@pytest.mark.parametrize("call, cap", ENTRY_POINTS, ids=IDS)
def test_every_size_is_refused_below_1_and_past_its_cap(call, cap):
    with pytest.raises(ValueError):
        call(0)
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError) as exc:
        call(cap + 1)
    assert time.perf_counter() - start < 1.0
    numbers = re.findall(r"\d+", str(exc.value))
    assert str(cap + 1) in numbers and str(cap) in numbers

