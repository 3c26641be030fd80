"""Exception types shared across the package, the four size bounds past
which the library raises `ResourceBoundError`, and `check_size`, the one
guard that refuses a size against its bound.

The CLI maps these onto exit codes, so library code should prefer them over
bare ValueError whenever the failure mode is one a caller may want to
distinguish (bad input text, a blown enumeration budget, an impossible
expansion).  The bounds live here, beside the error they raise, so that
`cli.ROUTES` can name them without loading the modules they bound;
`permutations`, `series` and `orbits` refuse a size past them with
`check_size`.  This module imports nothing.
"""

# The one enumeration budget (12! is ~479M permutations).  Every S_n route
# refuses lengths above it (`enumerate_permutations`, the Eulerian and simple
# DPs, `orbits.verify_reduction`); `cli.ROUTES` and
# `series.simple_series(method="enumerate")` check it before they start.  The
# class DP and `closure_trees` are capped lower, by `MAX_CLOSURE_TREE_N`.
MAX_ENUMERATION_N = 12

# The tableau route (`series.rsk_two_sided_eulerian`) is one growth-chain walk
# over (shape, row of the last box) states, each with its descent tally packed
# as in `permutations._tally_packing(N)`, whose states after m boxes serve
# order m, so one walk to N gives every order up to N.  It never lists
# tableaux, so its cost follows the number of partitions, not n! or the
# tableau count.  The cap is the largest order any benchmark
# workload runs; raising it waits for a benchmark change that adds a workload
# past 14.
MAX_RSK_N = 14

# The size cap of the class DP and of `orbits.closure_trees`.  On a 2-vCPU
# host (fresh processes, three runs each, peak RSS from `wait4`)
# `verify --suite lemma39 --max-n 10 --format json` takes 0.44-0.77 s and
# peaks at 88 MB, and `--max-n 11`, which needs no flag, 2.4-3.0 s and 410 MB
# (`closure_class_report(11)` alone: 2.3-2.4 s, 331 MB, 424330 classes).  With
# the cap lifted, `--max-n 12` took 27 s and 2.6 GB (the checks
# alone 20 s and 1.9 GB, for 2136070 classes), so n = 12 is refused before
# anything is built; `closure_trees(11, 5)` already returns 5.75M trees.
MAX_CLOSURE_TREE_N = 11

# The order cap of `orbits.closure_distribution`, which enumerates nothing:
# its cost is one series inversion to order n, nearly all of it big-int
# multiplies.  On a 2-vCPU host (Python 3.11.7) a fresh `poly --target h5 --n
# 56 --format json` took 50-58 s with a VmHWM of 44 MB, and n = 57 took
# 57-77 s and 45 MB.
MAX_CLOSURE_SERIES_N = 56


def check_size(n: int, cap: int, what: str) -> None:
    """Refuse a size ``n`` of ``what`` below 1, or past its bound ``cap``.

    >>> check_size(13, MAX_ENUMERATION_N, "full enumeration of S_n")
    Traceback (most recent call last):
    ...
    gammalab.errors.ResourceBoundError: full enumeration of S_n: n = 13 is past the bound 12
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > cap:
        raise ResourceBoundError(f"{what}: n = {n} is past the bound {cap}")


class GammalabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GammalabError, ValueError):
    """Malformed input text (permutation strings, etc.)."""


class ResourceBoundError(GammalabError, RuntimeError):
    """An enumeration or series order exceeds the configured bound."""


class StructureError(GammalabError, ValueError):
    """A tree value violates its structural invariants."""


class ExpansionError(GammalabError, ValueError):
    """A polynomial is not in the span of the requested gamma basis."""


class InversionError(GammalabError, ValueError):
    """A power series does not admit a compositional inverse."""


class DistributionError(GammalabError, ValueError):
    """A joint distribution disagrees with its own permutation count."""
