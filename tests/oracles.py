"""Reference forms of decomposition trees that the tests build and compare
against: a node constructor, a path lookup, a leaf count and the JSON form
that the CLI writes as text."""
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
    ``cli._tree_json_text``.  One level of recursion per tree level."""
    return {
        "skeleton": list(t.skeleton) if t.skeleton is not None else None,
        "children": [tree_json(c) for c in t.children],
    }
