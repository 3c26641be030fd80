"""
Permutations in one-line notation and their descent statistics.

A permutation of length n is a tuple of the integers 1..n, e.g. ``(2, 4, 1, 3)``
for the permutation usually written 2413.  Positions are 1-based throughout,
matching the classical combinatorics conventions for descents, blocks and
inflation.

The functions here are pure and operate on plain tuples; nothing is ever
mutated, and every tally runs in the calling process.
"""
from __future__ import annotations

import itertools
import math
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

    Accepts values separated by commas or any whitespace ("4 5 2 3 9 8 1 6 7",
    newlines too), and for n <= 9 a compact digit string ("452398167").  A
    comma stands between two values, so "2,,1,3" and "2,1," are ParseErrors.
    Values are written in ASCII digits 0-9 only; anything else (signs, "1_0",
    superscript or other Unicode digits) is a ParseError.

    >>> parse_permutation("2 4 1 3")
    (2, 4, 1, 3)
    >>> parse_permutation("2413")
    (2, 4, 1, 3)
    """
    text = text.strip()
    if not text:
        raise ParseError("empty permutation text")
    if " " in text or "," in text or len(text.split(maxsplit=1)) == 2:
        if "," in text:
            for idx, field in enumerate(text.split(","), start=1):
                if not field.strip():
                    raise ParseError(f"empty permutation entry at position {idx}")
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
# `_split` is the one block finder: the root parts of the decomposition tree.
# ``p`` is simple iff they are its n entries, and a sum (skew sum) iff they
# are two parts whose values rise (fall).

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
    """True iff ``p`` has no proper blocks (only singletons and the whole line),
    i.e. its root split has one part per entry.

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
    return len(_split(p, 0, n, 0)) == n


def is_sum_indecomposable(p: Permutation) -> bool:
    """True iff ``p`` is not a direct sum: its root parts are not two with rising values."""
    parts = _split(p, 0, len(p), 0) if len(p) > 1 else ()
    return len(parts) != 2 or parts[0][2] > parts[1][2]


def is_skew_indecomposable(p: Permutation) -> bool:
    """True iff ``p`` is not a skew sum: its root parts are not two with falling values."""
    parts = _split(p, 0, len(p), 0) if len(p) > 1 else ()
    return len(parts) != 2 or parts[0][2] < parts[1][2]


Part = tuple[int, int, int]  # (start, stop, base) of a segment holding an interval


def _split(p: Permutation, start: int, stop: int, base: int) -> list[Part]:
    """The root parts of the tree of p[start:stop] (length >= 2, values
    base+1..base+n), as (start, stop, base).

    Every part holds an interval of values, so it is passed on as its
    positions and value offset.  The root's skeleton is the standardized
    list of the parts' bases; it is left to the caller.  `trees.decompose`
    builds it, the reduction's shape index never reads it, and the three
    predicates above need only the parts' count and the order of two bases.
    ``p`` may be any sequence of ints, bytes included.

    >>> _split((2, 1, 3, 5, 4), 0, 5, 0)
    [(0, 3, 0), (3, 5, 3)]
    >>> _split((3, 4, 1, 2), 0, 4, 0)
    [(0, 2, 2), (2, 4, 0)]
    >>> _split((4, 5, 2, 3, 9, 8, 1, 6, 7), 0, 9, 0)
    [(0, 4, 1), (4, 6, 7), (6, 7, 0), (7, 9, 5)]

    One right-to-left pass looks at every proper suffix that is an interval.
    It stops at the shortest one holding the top values (a sum: its lowest
    value is base + i - start + 1) or the bottom values (a skew sum: its
    highest is base + stop - i).  That suffix is the last sum or skew
    component, so the left part is as long as possible, repeated sums chain
    through left children, and a binary node costs the length of its last
    component.  No segment is both a sum and a skew sum.

    Otherwise the root is a simple quotient of length >= 4 whose children
    are the maximal proper blocks.  They are disjoint here, so each is the
    longest interval ending where the block to its right begins: the pass
    has found the last one, and a scan leftwards finds each of the others.
    The scan for the block ending at position j stops once the value range
    of p[i..j] reaches into the block to its right: that block's values are
    an interval without p[j], and the range only grows as i falls, so no
    longer p[i'..j] is an interval.  A range holding p[j] meets that block
    exactly when it passes the block's lowest value: from above when the
    block lies below p[j] (``below``), from below when it lies above
    (``above``).
    """
    last = stop - 1
    top = base - start + 1  # a suffix from i holds the top values iff its lowest is top + i
    bottom = base + stop    # ... and the bottom values iff its highest is bottom - i
    lo = hi = p[last]
    for i in range(last, start, -1):
        v = p[i]
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
        if hi - lo + i == last:
            if lo == top + i:
                return [(start, i, base), (i, stop, base + i - start)]
            if hi == bottom - i:
                return [(start, i, base + stop - i), (i, stop, base)]
            first, low = i, lo
    parts = [(first, stop, low - 1)]
    ceiling = base + stop - start + 1  # above every value
    j = first - 1
    while j >= start:
        x = p[j]
        if low < x:
            below, above = low, ceiling
        else:
            below, above = 0, low
        lo = hi = low = x
        first = j
        for i in range(j - 1, start - 1, -1):
            v = p[i]
            if v < lo:
                if v < below:
                    break
                lo = v
            elif v > hi:
                if v > above:
                    break
                hi = v
            if hi - lo == j - i:
                first, low = i, lo
        parts.append((first, j + 1, low - 1))
        j = first - 1
    parts.reverse()
    return parts


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
    out: list[int] = []
    for i, si in enumerate(skeleton):
        off = 0
        for j in range(k):
            if skeleton[j] < si:
                off += len(parts[j])
        out += [v + off for v in parts[i]]
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

    The order is deterministic, so runs are reproducible and each first value
    is a contiguous rank range.
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
    k -> n*n - 1 - k.  `series.eulerian_series` tallies tableaux by descents in
    the t-row of this layout and multiplies out each A_m(s,t), m <= n, in it.

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
    (placed bitmask, last value) to the packed tally of its prefixes, and a
    step is one ``tally << shift`` add.  No permutation is built, and the
    whole of S_n is counted: nothing is mirrored.
    """
    pack = _tally_packing(n)
    step_d, step_e = pack.shift(1, 0), pack.shift(0, 1)
    full = (1 << n) - 1
    layer = {(1 << (v - 1), v): 1 << (step_e if v > 1 else 0) for v in range(1, n + 1)}
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], int] = {}
        get = nxt.get
        for (placed, last), tally in layer.items():
            free = full ^ placed
            while free:
                bit = free & -free
                free ^= bit
                v = bit.bit_length()
                # v - 1 unplaced: bit >> 1 is a free value's bit, or 0 for v = 1
                shift = (step_d if last > v else 0) + (step_e if (bit >> 1) & ~placed else 0)
                target = (placed | bit, v)
                nxt[target] = get(target, 0) + (tally << shift)
        layer = nxt
    return sum(layer.values())


def _simple_counts(n: int, firsts: Iterable[int]) -> int:
    """The (des, ides) tally of the simple permutations of length n that start
    with a value in ``firsts``, packed as in `_tally_packing(n)`, by a DP over
    block-free prefixes.

    A proper block stays a block in every extension, so no prefix holding one
    is grown.  A block is an interval of values, so whether a suffix
    p[j..i-1] can end one depends on its hull, the bitmask of the values from
    its least to its greatest.  The suffix is *live* while no other placed
    value lies in its hull; one that is not never fills its hull again, as
    the hull only grows.  A state is the placed bitmask with the hulls of the
    live suffixes, innermost (the last value) first.  Placing v:

    - is refused if a live suffix and v fill their new hull and are not the
      whole of 1..n: a proper block (v = last +- 1 is one);
    - keeps a suffix live if no other placed value lies in its new hull.

    A state whose unplaced values form an interval of length >= 2 is not
    grown: they would end the permutation as a proper block (for n >= 3 this
    drops the first values 1 and n).  So no block can end at the last
    position, and the layer before it keys on the placed set and the last
    value only.  des and ides grow as in `_eulerian_counts`, with value v at
    bit v - 1.
    """
    pack = _tally_packing(n)
    step_d, step_e = pack.shift(1, 0), pack.shift(0, 1)
    full = (1 << n) - 1
    layer = {(1 << a - 1, (1 << a - 1,)): 1 << (step_e if a > 1 else 0) for a in firsts}
    for length in range(2, n + 1):
        nxt: dict[tuple[int, tuple[int, ...]], int] = {}
        get = nxt.get
        for (placed, hulls), tally in layer.items():
            free = full ^ placed
            if free & (free - 1) and not (free + (free & -free)) & free:
                continue  # an interval of length >= 2 is left
            last = hulls[0]
            todo = free
            while todo:
                bit = todo & -todo
                todo ^= bit
                now = placed | bit
                live = [bit]
                for hull in hulls:
                    vals = now & hull | bit
                    span = (1 << vals.bit_length()) - (vals & -vals)
                    if span == vals != full:
                        break
                    if now & span == vals:
                        live.append(span)
                else:
                    key = now, tuple(live) if length < n - 1 else (bit,)
                    shift = (step_d if last > bit else 0) + (step_e if bit >> 1 & ~placed else 0)
                    nxt[key] = get(key, 0) + (tally << shift)
        layer = nxt
    return sum(layer.values())


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
    """The joint (des, ides) distribution over the simple permutations of length n,
    by the prefix DP of `_simple_counts`.

    Complement maps the simple permutations that start with a onto those that
    start with n+1-a, and (d, e) to (n-1-d, n-1-e).  So only the first values
    a < n+1-a are tallied, once as they are and once mirrored, and the middle
    value of odd n, its own mirror, once.  The DP runs in this process;
    ``threads`` is accepted and not read.
    """
    check_size(n, MAX_ENUMERATION_N, "full enumeration of S_n")
    pack = _tally_packing(n)
    half = pack.unpack(_simple_counts(n, range(1, n // 2 + 1)))
    poly = half + BivarPoly({(n - 1 - d, n - 1 - e): c for (d, e), c in half.items()})
    if n % 2:
        poly += pack.unpack(_simple_counts(n, (n // 2 + 1,)))
    return JointDistribution(poly, n, poly.evaluate_at_one())
