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
import math
import operator
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import MAX_ENUMERATION_N, DistributionError, ParseError, check_size
from .polys import BivarPoly, Packing

Permutation = tuple[int, ...]


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
        raise ValueError(_not_a_permutation(t))
    return t


def _not_a_permutation(t: Permutation) -> str:
    """Name the first value out of range or repeated, never the whole tuple.

    >>> _not_a_permutation((1, 4, 4))
    'value 4 is not in 1..3'
    >>> _not_a_permutation((2, 1, 2))
    'value 2 is repeated in a permutation of 1..3'
    """
    n = len(t)
    seen = set()
    for v in t:
        if not 1 <= v <= n:
            text = repr(v)
            return f"value {text if len(text) <= 20 else text[:20] + '...'} is not in 1..{n}"
        if v in seen:
            return f"value {v} is repeated in a permutation of 1..{n}"
        seen.add(v)
    return f"the values are not a permutation of 1..{n}"


def parse_permutation(text: str) -> Permutation:
    """Parse permutation text.

    Accepts comma- or space-separated values ("4 5 2 3 9 8 1 6 7"), and for
    n <= 9 also a compact digit string ("452398167").  Values are written in
    ASCII digits 0-9 only; anything else (signs, "1_0", superscript or other
    Unicode digits) is a ParseError.

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
            if not _is_ascii_digits(token):
                raise ParseError(f"bad permutation entry {token!r} at position {idx}")
            try:
                values_list.append(int(token))
            except ValueError:  # more digits than int() will convert
                raise ParseError(
                    f"bad permutation entry {token[:20]!r}... at position {idx}"
                ) from None
        values = tuple(values_list)
    else:
        if not _is_ascii_digits(text):
            raise ParseError(f"bad permutation text {text!r} (position {_first_bad(text)})")
        values = tuple(int(ch) for ch in text)
    try:
        return check_permutation(values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _is_ascii_digits(text: str) -> bool:
    # str.isdigit() alone also accepts superscripts and other Unicode digits.
    return text.isascii() and text.isdigit()


def _first_bad(text: str) -> int:
    for i, ch in enumerate(text):
        if not _is_ascii_digits(ch):
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
    rank = dict(zip(sorted(seg), range(1, len(seg) + 1)))
    return tuple(map(rank.__getitem__, seg))


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

def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order.

    The order is deterministic, so runs are reproducible and contiguous rank
    ranges can be handed to independent workers.
    """
    check_size(n, MAX_ENUMERATION_N, "full enumeration of S_n")
    return itertools.permutations(range(1, n + 1))


def enumerate_simple(n: int) -> Iterator[Permutation]:
    """All simple permutations of length n, in lexicographic order."""
    return (p for p in enumerate_permutations(n) if is_simple(p))


# ---------------------------------------------------------------------------
# joint distributions
# ---------------------------------------------------------------------------

class JointDistribution(NamedTuple):
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


def _tally_packing(n: int) -> Packing:
    """The one layout of a (des, ides) tally over permutations of length <= n.

    Slot d*n + e counts the members with (des, ides) = (d, e): the `Packing`
    with stride n and width (n!).bit_length() + 1.  A tally is kept either as
    a flat list of the n*n slot counts or packed in one int.  As ides < n,
    the product of two packed tallies is the packed tally of the product set,
    and as no tally holds more than n! < 2**(width-1) members, no slot
    carries and the tally's digit sum, ``size``, is its number of members.  On S_n,
    complement maps (d, e) to (n-1-d, n-1-e), which is the slot reversal
    k -> n*n - 1 - k.

    >>> pack = _tally_packing(3)  # width 4
    >>> tally = pack.pack({(0, 1): 2, (2, 0): 5})
    >>> slots = [tally >> 4 * k & 15 for k in range(9)]
    >>> slots
    [0, 2, 0, 0, 0, 0, 5, 0, 0]
    >>> pack.from_slots(slots[::-1]).text()  # the complements: (d, e) -> (2-d, 2-e)
    '5*t^2 + 2*s^2*t'
    """
    return Packing(math.factorial(n).bit_length() + 1, n)


def _eulerian_counts(n: int) -> int:
    """The (des, ides) tally of S_n, packed as in `_tally_packing(n)`, by a DP
    over prefixes.

    Appending v after ``last`` adds [last > v] to des and [v - 1 not yet
    placed] to ides (v now stands left of v - 1).  Both increments depend only
    on the placed set and the last value, so each layer maps the state
    (placed bitmask, last value), keyed ``placed << 4 | last`` (last <= 12),
    to the packed tally of its prefixes, and a step is one ``tally << shift``
    add.  No permutation is built, and the whole of S_n is counted: nothing
    is mirrored.
    """
    pack = _tally_packing(n)
    step_d, step_e = pack.shift(1, 0), pack.shift(0, 1)
    full = (1 << n) - 1
    layer = {1 << (v + 3) | v: 1 << (step_e if v > 1 else 0) for v in range(1, n + 1)}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, tally in layer.items():
            placed, last = key >> 4, key & 15
            free = full ^ placed
            while free:
                bit = free & -free
                free ^= bit
                v = bit.bit_length()
                # v - 1 unplaced: bit >> 1 is a free value's bit, or 0 for v = 1
                shift = (step_d if last > v else 0) + (step_e if (bit >> 1) & ~placed else 0)
                target = (placed | bit) << 4 | v
                nxt[target] = get(target, 0) + (tally << shift)
        layer = nxt
    return sum(layer.values())


def _shard_prefixes(n: int) -> list[Permutation]:
    """Length-1 (or length-2 for large n) prefixes; each is a contiguous rank range."""
    values = range(1, n + 1)
    if n >= 11:
        return [(a, b) for a in values for b in values if a != b]
    return [(a,) for a in values]


def _tally_simple_shard(args: tuple[int, Permutation]) -> list[int]:
    """The (des, ides) tally of the simple permutations of length n that start
    with ``prefix``, as a flat list of `_tally_packing` slot counts (slot
    d*n + e), by a depth-first walk over block-free prefixes.

    A proper block stays a block in every extension, so a prefix holding one
    is never grown.  The unplaced values are the bitmask ``rest`` (bit v for
    value v), and each node does its block work once, not once per candidate:

    1. One forbidden value per segment.  Placing v at position i after the
       block-free prefix ``p[0..i-1]`` closes a block ``p[j..i]`` in exactly
       two cases: j = i-1 and v = p[i-1] +- 1; or j < i-1, ``p[j..i-1]``
       spans hi - lo = i - j, and v is its one gap,
       (lo + hi)(hi - lo + 1)/2 - sum.  (A longer span leaves more than one
       gap, and a shorter one is a block already.)  One backward pass sets
       these bits in ``forbid``; the children are the bits of
       ``rest & ~forbid``.
    2. Suffix blocks.  If after placing position i <= n-3 the unplaced
       values form an interval, positions i+1..n-1 will be a proper block,
       so that prefix is refused at once (the shards (1,) and (n,) end at
       their first step).
    3. The last value is free.  By 2, every segment that ends at position
       n-1 and is not the whole of p is a suffix already refused, so the
       last value, ``rest.bit_length() - 1``, is counted with no scan.

    des and ides grow by the same step rule as in `_eulerian_counts`, on one
    slot index: a descent adds n, and an inverse descent adds 1 (v - 1 is
    unplaced iff bit v - 1 of ``rest`` is set; bit 0 never is).
    """
    n, prefix = args
    counts = [0] * (n * n)
    if n == 1:
        counts[0] = 1
        return counts
    line: list[int] = []
    fixed = len(prefix)

    def extend(i: int, rest: int, last: int, slot: int) -> None:
        # The prefix of length i is ``line`` followed by ``last``; it is
        # block-free and has (des, ides) in ``slot``, and ``rest`` holds the
        # values not yet placed.
        if i:
            lo = hi = total = last
            forbid = (2 << last) | (1 << (last - 1))
            span = 1
            for x in reversed(line):
                span += 1
                total += x
                if x < lo:
                    lo = x
                elif x > hi:
                    hi = x
                if hi - lo == span:
                    forbid |= 1 << ((lo + hi) * (hi - lo + 1) // 2 - total)
            todo = rest & ~forbid
        else:
            todo = rest
        if i < fixed:
            todo &= 1 << prefix[i]
        while todo:
            bit = todo & -todo
            todo ^= bit
            v = bit.bit_length() - 1
            step = slot + (n if last > v else 0) + (rest >> (v - 1) & 1)
            left = rest ^ bit
            if i == n - 2:
                counts[step + n if v > left.bit_length() - 1 else step] += 1
            elif (left + (left & -left)) & left:
                if i:
                    line.append(last)
                extend(i + 1, left, v, step)
                if i:
                    line.pop()

    extend(0, ((1 << n) - 1) << 1, 0, 0)  # no value before the first: 0 exceeds none
    return counts


# The simple walk starts worker processes only from this length on; below it
# the pool costs more to start than the shards save.  On a 2-vCPU VM, one
# process against two (import included, medians of 15 alternated fresh
# processes, two rounds, with the slot-indexed walk): n = 9 took 0.18 s
# against 0.21-0.23 s, n = 10 took 0.51-0.57 s against 0.42-0.44 s, and
# n = 11 (5 pairs) took 5.0 s against 2.7 s.
POOL_MIN_N = 10


def _simple_counts(n: int, threads: int) -> list[int]:
    """The (des, ides) tally of the simple permutations of length n, as a
    flat list of `_tally_packing` slot counts.

    Complement maps the simple permutations that start with a prefix q onto
    those that start with complement(q), and (d, e) to (n-1-d, n-1-e), the
    slot reversal.  So only the shards with q <= complement(q), the first
    half of S_n, are walked: one strictly below its mirror is counted twice,
    the second time reversed, and a self-complementary one (the middle value,
    odd n) once.
    """
    n1 = n + 1
    shards: list[tuple[int, Permutation]] = []
    mirrored: list[bool] = []
    for q in _shard_prefixes(n):
        mirror = tuple(n1 - v for v in q)
        if q <= mirror:
            shards.append((n, q))
            mirrored.append(q != mirror)
    if threads == 0:
        import os
        threads = min(os.cpu_count() or 1, len(shards))
    if threads > 1:
        import multiprocessing
        with multiprocessing.Pool(threads) as pool:
            shard_counts = pool.map(_tally_simple_shard, shards)
    else:
        shard_counts = [_tally_simple_shard(s) for s in shards]
    # Slotwise integer addition is independent of the merge order.
    counts = [0] * (n * n)
    for shard, twice in zip(shard_counts, mirrored):
        counts = list(map(operator.add, counts, shard))
        if twice:
            counts = list(map(operator.add, counts, reversed(shard)))
    return counts


def eulerian_distribution(n: int, threads: int = 1) -> JointDistribution:
    """The two-sided Eulerian polynomial of S_n, by the prefix DP.

    The DP runs in this process; ``threads`` is accepted and not read.  The
    result is checked: a slot that carried would lower the coefficients' sum
    below n!.
    """
    check_size(n, MAX_ENUMERATION_N, "full enumeration of S_n")
    dist = JointDistribution(
        _tally_packing(n).unpack(_eulerian_counts(n)), n, math.factorial(n))
    dist.check()
    return dist


def simple_distribution(n: int, threads: int = 1) -> JointDistribution:
    """The joint (des, ides) distribution over the simple permutations of length n.

    ``threads`` workers (0 = one per core) share the prefix shards of the walk
    from n = POOL_MIN_N on; shorter lengths run in this process.
    """
    check_size(n, MAX_ENUMERATION_N, "full enumeration of S_n")
    counts = _simple_counts(n, threads if n >= POOL_MIN_N else 1)
    return JointDistribution(_tally_packing(n).from_slots(counts), n, sum(counts))
