"""Blocks, simple permutations, and substitution decomposition trees.

Every permutation inflates uniquely from a simple skeleton; recursing yields
a canonical tree.  This script decomposes a worked example, shows the chain
structure used by the orbit machinery, prints its shape, and round-trips
the bijection.
"""
import itertools

from gammalab import (
    binary_right_chains,
    decompose,
    in_closure,
    is_simple,
    reconstruct,
    simplified_text,
    tree_text,
)
from gammalab.permutations import inflate

sigma = (4, 5, 2, 3, 9, 8, 1, 6, 7)
print(f"sigma = {sigma}")
print(f"simple? {is_simple(sigma)}")
print(f"sigma = 2413[3412, 21, 1, 12] -> {inflate((2,4,1,3), [(3,4,1,2),(2,1),(1,),(1,2)])}")

tree = decompose(sigma)
print(f"tree          = {tree_text(tree)}")
print(f"reconstructed = {reconstruct(tree)}")
# The shape keeps each label's length only, written as its child count;
# `verify --suite reduction` groups S_n by this text.
print(f"simplified    = {simplified_text(tree)}")
print()

# Maximal chains of 12/21 nodes along rightmost-child links.  Labels must
# alternate inside a chain; odd chains matter for the orbit involutions.
part = binary_right_chains(tree)
for idx, (chain, skeletons) in enumerate(zip(part.chains, part.skeletons)):
    labels = ["".join(map(str, skeleton)) for skeleton in skeletons]
    parity = "odd" if len(chain) % 2 else "even"
    print(f"chain {idx}: length {len(chain)} ({parity})  labels {labels}")
print(f"odd chains: {part.odd_chain_count}")
print()

# The decomposition is a bijection onto canonical trees.
n = 6
trees = {decompose(p) for p in itertools.permutations(range(1, n + 1))}
print(f"S_{n}: {len(trees)} distinct trees for {720} permutations")

# Separable permutations are the closure of the two binary skeletons.
separable = [p for p in itertools.permutations(range(1, 5)) if in_closure(p, 2)]
print(f"separable members of S_4: {len(separable)} of 24")
