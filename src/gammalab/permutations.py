"""
Permutations in one-line notation and their descent statistics.

A permutation of length n is a tuple of the integers 1..n, e.g. ``(2, 4, 1, 3)``
for the permutation usually written 2413.  Positions are 1-based throughout,
matching the classical combinatorics conventions for descents, blocks and
inflation.

The functions here are pure and operate on plain tuples; nothing is ever
mutated, so everything is safe to call from worker processes or threads.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DistributionError, ParseError, ResourceBoundError
from .polys import BivarPoly

Permutation = tuple[int, ...]

# Full S_n enumeration beyond this length is refused unless the caller raises
# the bound explicitly (12! is ~479M permutations).
MAX_ENUMERATION_N = 12


def check_permutation(p: Sequence[int]) -> Permutation:
    """Validate that ``p`` is a permutation of 1..n and return it as a tuple.

    >>> check_permutation([2, 4, 1, 3])
    (2, 4, 1, 3)
    """
    t = tuple(p)
    n = len(t)
    if n < 1:
        raise ValueError("permutations have length at least 1")
    if sorted(t) != list(range(1, n + 1)):
        raise ValueError(f"{t} is not a permutation of 1..{n}")
    return t


def parse_permutation(text: str) -> Permutation:
    """Parse permutation text.

    Accepts comma- or space-separated values ("4 5 2 3 9 8 1 6 7"), and for
    n <= 9 also a compact digit string ("452398167").

    >>> parse_permutation("2 4 1 3")
    (2, 4, 1, 3)
    >>> parse_permutation("2413")
    (2, 4, 1, 3)
    """
    text = text.strip()
    if not text:
        raise ParseError("empty permutation text")
    if "," in text or " " in text or "\t" in text:
        parts = text.replace(",", " ").split()
        values_list = []
        for idx, token in enumerate(parts, start=1):
            try:
                values_list.append(int(token))
            except ValueError:
                raise ParseError(
                    f"bad permutation entry {token!r} at position {idx}"
                ) from None
        values = tuple(values_list)
    else:
        if not text.isdigit():
            raise ParseError(f"bad permutation text {text!r} (position {_first_bad(text)})")
        values = tuple(int(ch) for ch in text)
    try:
        return check_permutation(values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _first_bad(text: str) -> int:
    for i, ch in enumerate(text):
        if not ch.isdigit():
            return i + 1
    return len(text)


def format_permutation(p: Permutation) -> str:
    """Emit the canonical space-separated form, e.g. "4 5 2 3 9 8 1 6 7"."""
    return " ".join(str(v) for v in p)


# ---------------------------------------------------------------------------
# descent statistics
# ---------------------------------------------------------------------------

def descent_set(p: Permutation) -> set[int]:
    """The set of positions i (1-based, i < n) with p(i) > p(i+1).

    >>> sorted(descent_set((2, 4, 6, 1, 3, 5)))
    [3]
    >>> sorted(descent_set((3, 2, 1)))
    [1, 2]
    """
    return {i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]}


def des(p: Permutation) -> int:
    """Number of descents of ``p``."""
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation q, with q[p[i]] = i.

    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v - 1] = i + 1
    return tuple(q)


def ides(p: Permutation) -> int:
    """Number of descents of the inverse of ``p``."""
    return des_ides(p)[1]


def des_ides(p: Permutation) -> tuple[int, int]:
    """Both descent numbers in one pass; the hot path for enumerations.

    >>> des_ides((2, 4, 6, 1, 3, 5))
    (1, 3)
    """
    n = len(p)
    pos = [0] * (n + 1)
    d = 0
    prev = p[0]
    pos[prev] = 0
    for i in range(1, n):
        v = p[i]
        if prev > v:
            d += 1
        prev = v
        pos[v] = i
    e = 0
    prev = pos[1]
    for v in range(2, n + 1):
        q = pos[v]
        if prev > q:
            e += 1
        prev = q
    return d, e


def complement(p: Permutation) -> Permutation:
    """The value-flip q[i] = n+1-p[i].

    Satisfies des(q) = n-1-des(p) and ides(q) = n-1-ides(p), and preserves
    simplicity.

    >>> complement((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    n1 = len(p) + 1
    return tuple(n1 - v for v in p)


# ---------------------------------------------------------------------------
# blocks, simplicity, indecomposability
# ---------------------------------------------------------------------------

def is_block(p: Permutation, i: int, j: int) -> bool:
    """True iff positions i..j (1-based, inclusive) carry an interval of values.

    >>> is_block((2, 6, 4, 7, 5, 1, 3), 2, 5)
    True
    >>> is_block((2, 6, 4, 7, 5, 1, 3), 2, 6)
    False
    """
    n = len(p)
    if not (1 <= i <= j <= n):
        raise ValueError(f"invalid range {i}..{j} for length {n}")
    seg = p[i - 1:j]
    return max(seg) - min(seg) == j - i


def is_simple(p: Permutation) -> bool:
    """True iff ``p`` has no proper blocks (only singletons and the whole line).

    >>> is_simple((3, 5, 1, 7, 2, 4, 6))
    True
    >>> is_simple((2, 4, 1, 3)), is_simple((1, 2, 3))
    (True, False)
    """
    n = len(p)
    if n <= 2:
        return True
    # Adjacent values form a length-2 block; this catches most inputs cheaply.
    prev = p[0]
    for i in range(1, n):
        v = p[i]
        if v - prev == 1 or prev - v == 1:
            return False
        prev = v
    for i in range(n - 2):
        lo = hi = p[i]
        for j in range(i + 1, n):
            v = p[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if hi - lo == j - i and j > i + 1 and not (i == 0 and j == n - 1):
                return False
    return True


def is_sum_indecomposable(p: Permutation) -> bool:
    """True iff ``p`` is not a direct sum, i.e. no proper prefix holds 1..i."""
    mx = 0
    for i in range(len(p) - 1):
        v = p[i]
        if v > mx:
            mx = v
        if mx == i + 1:
            return False
    return True


def is_skew_indecomposable(p: Permutation) -> bool:
    """True iff ``p`` is not a skew sum, i.e. no proper prefix holds the top i values."""
    n = len(p)
    mn = n + 1
    for i in range(n - 1):
        v = p[i]
        if v < mn:
            mn = v
        if mn == n - i:
            return False
    return True


# ---------------------------------------------------------------------------
# inflation and sums
# ---------------------------------------------------------------------------

def standardize(seg: Sequence[int]) -> Permutation:
    """The pattern of a sequence of distinct integers, as a permutation.

    >>> standardize((4, 5, 2, 3))
    (3, 4, 1, 2)
    """
    rank = {v: i + 1 for i, v in enumerate(sorted(seg))}
    return tuple(rank[v] for v in seg)


def inflate(skeleton: Permutation, parts: Sequence[Permutation]) -> Permutation:
    """Replace entry i of ``skeleton`` by a block order-isomorphic to parts[i].

    Block i occupies consecutive positions and receives the window of values
    whose rank among the windows matches skeleton[i].

    >>> inflate((2, 4, 1, 3), [(2, 1, 3), (2, 1), (1, 3, 2), (1,)])
    (5, 4, 6, 9, 8, 1, 3, 2, 7)
    """
    k = len(skeleton)
    if len(parts) != k:
        raise ValueError(f"skeleton of length {k} needs {k} parts, got {len(parts)}")
    sizes = [len(a) for a in parts]
    offsets = [0] * k
    for i in range(k):
        si = skeleton[i]
        offsets[i] = sum(sizes[j] for j in range(k) if skeleton[j] < si)
    out: list[int] = []
    for i in range(k):
        off = offsets[i]
        out.extend(v + off for v in parts[i])
    return tuple(out)


def direct_sum(p: Permutation, q: Permutation) -> Permutation:
    """p followed by q shifted up by len(p); equals inflate(12, [p, q]).

    >>> direct_sum((1, 3, 2), (4, 2, 3, 1))
    (1, 3, 2, 7, 5, 6, 4)
    """
    m = len(p)
    return p + tuple(v + m for v in q)


def skew_sum(p: Permutation, q: Permutation) -> Permutation:
    """p shifted up by len(q), followed by q; equals inflate(21, [p, q]).

    >>> skew_sum((1, 3, 2), (4, 2, 3, 1))
    (5, 7, 6, 4, 2, 3, 1)
    """
    n = len(q)
    return tuple(v + n for v in p) + q


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_permutations(n: int, max_n: int = MAX_ENUMERATION_N) -> Iterator[Permutation]:
    """All of S_n in lexicographic order.

    The order is deterministic, so runs are reproducible and contiguous rank
    ranges can be handed to independent workers.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > max_n:
        raise ResourceBoundError(
            f"full enumeration of S_{n} exceeds the configured bound {max_n}"
        )
    return itertools.permutations(range(1, n + 1))


def enumerate_simple(n: int, max_n: int = MAX_ENUMERATION_N) -> Iterator[Permutation]:
    """All simple permutations of length n, in lexicographic order."""
    return (p for p in enumerate_permutations(n, max_n) if is_simple(p))


# ---------------------------------------------------------------------------
# joint distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointDistribution:
    """The polynomial sum of s^des t^ides over a set of permutations of length n."""
    poly: BivarPoly
    n: int
    count: int

    def check(self) -> None:
        total = self.poly.evaluate_at_one()
        if total != self.count:
            raise DistributionError(
                f"coefficients sum to {total}, but {self.count} permutations were tallied"
            )
        if any(c <= 0 for _, c in self.poly.items()):
            raise DistributionError("a joint distribution has a non-positive coefficient")


def joint_distribution(perms: Iterable[Permutation], n: int | None = None) -> JointDistribution:
    """Tally s^des t^ides over a stream of same-length permutations.

    ``n`` is only required when the stream may be empty (e.g. the simple
    permutations of length 3).
    """
    counts: Counter = Counter()
    for p in perms:
        if n is None:
            n = len(p)
        elif len(p) != n:
            raise ValueError(f"mixed lengths in stream: expected {n}, got {len(p)}")
        counts[des_ides(p)] += 1
    if n is None:
        raise ValueError("empty stream needs an explicit length n")
    return JointDistribution(BivarPoly(counts), n, counts.total())


def _shard_prefixes(n: int) -> list[Permutation]:
    """Length-1 (or length-2 for large n) prefixes; each is a contiguous rank range."""
    values = range(1, n + 1)
    if n >= 11:
        return [(a, b) for a in values for b in values if a != b]
    return [(a,) for a in values]


def _tally_shard(args: tuple[int, Permutation, bool]) -> Counter:
    n, prefix, simple_only = args
    rest = [v for v in range(1, n + 1) if v not in prefix]
    perms = (prefix + suffix for suffix in itertools.permutations(rest))
    if simple_only:
        perms = filter(is_simple, perms)
    return Counter(map(des_ides, perms))


def _distribution(n: int, simple_only: bool, threads: int, max_n: int) -> JointDistribution:
    if n > max_n:
        raise ResourceBoundError(
            f"full enumeration of S_{n} exceeds the configured bound {max_n}"
        )
    if n <= 2 or threads == 1:
        perms = enumerate_simple(n, max_n) if simple_only else enumerate_permutations(n, max_n)
        return joint_distribution(perms, n)
    shards = [(n, prefix, simple_only) for prefix in _shard_prefixes(n)]
    if threads == 0:
        import os
        threads = min(os.cpu_count() or 1, len(shards))
    if threads > 1:
        import multiprocessing
        with multiprocessing.Pool(threads) as pool:
            shard_counts = pool.map(_tally_shard, shards)
    else:
        shard_counts = [_tally_shard(s) for s in shards]
    # Coefficientwise integer addition, merged in shard (rank) order, is
    # bit-identical to the sequential tally.
    counts = sum(shard_counts, Counter())
    return JointDistribution(BivarPoly(counts), n, counts.total())


def eulerian_distribution(n: int, threads: int = 1, max_n: int = MAX_ENUMERATION_N) -> JointDistribution:
    """The two-sided Eulerian polynomial of S_n, by full enumeration."""
    return _distribution(n, False, threads, max_n)


def simple_distribution(n: int, threads: int = 1, max_n: int = MAX_ENUMERATION_N) -> JointDistribution:
    """The joint (des, ides) distribution over the simple permutations of length n."""
    return _distribution(n, True, threads, max_n)
