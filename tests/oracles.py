"""Reference forms of decomposition trees that the tests build and compare
against: a node constructor, a path lookup, a leaf count and the JSON form
that the CLI writes as text; seeded random separable permutations; and the
depth of the caller's stack, for tests run under a tight recursion limit."""
import sys

from gammalab.permutations import direct_sum, skew_sum
from gammalab.trees import DecompTree, Path, iter_nodes


def node(skeleton: tuple[int, ...], *children: DecompTree) -> DecompTree:
    return DecompTree(tuple(skeleton), tuple(children))


def subtree_at(t: DecompTree, path: Path) -> DecompTree:
    for i in path:
        t = t.children[i]
    return t


def leaf_count(t: DecompTree) -> int:
    return sum(1 for _, sub in iter_nodes(t) if sub.skeleton is None)


def tree_json(t: DecompTree) -> dict:
    """JSON form {skeleton: [...] | null, children: [...]}: the reference of
    ``cli._tree_json``, whose two values the CLI writes as text.  One level
    of recursion per tree level."""
    return {
        "skeleton": list(t.skeleton) if t.skeleton is not None else None,
        "children": [tree_json(c) for c in t.children],
    }


def random_separable(rng, n: int) -> tuple[int, ...]:
    """Join random neighbours by direct or skew sums until one part is left."""
    parts = [(1,)] * n
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        join = direct_sum if rng.random() < 0.5 else skew_sum
        parts[i:i + 2] = [join(parts[i], parts[i + 1])]
    return parts[0]


def stack_depth() -> int:
    """The number of frames on the caller's stack."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth
