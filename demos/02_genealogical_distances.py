"""Walking the ancestry DAG: adist, common ancestors, and gdist.

Builds a small family history by hand and prints every distance the
genealogy module offers, then shows the same queries on a randomly grown
history together with the undirected reference distance (edist).
"""

import numpy as np

from genediv import GenealogyGraph

# ----------------------------------------------------------------------
# a hand-built family
# ----------------------------------------------------------------------
#
#        0 (genesis)      4 (genesis immigrant)
#       / \
#      1   2   (mutations of 0)
#       \ / \
#        3   5  (3 recombines 1+2, 5 mutates 2)
#
graph = GenealogyGraph()
graph.record_birth((), 0)      # 0
graph.record_birth((0,), 1)    # 1
graph.record_birth((0,), 1)    # 2
graph.record_birth((1, 2), 2)  # 3
graph.record_birth((), 2)      # 4
graph.record_birth((2,), 2)    # 5

print("hand-built history (6 nodes):")
print(f"  adist(0 -> 3) = {graph.adist(0, 3)}   two variation steps down")
print(f"  adist(3 -> 0) = {graph.adist(3, 0)}   children never lead to parents")
print(f"  latest common ancestor of 1 and 2: {graph.latest_common_ancestor(1, 2)}")
print(f"  latest common ancestor of 3 and 5: {graph.latest_common_ancestor(3, 5)}")
print(f"  latest common ancestor of 3 and 4: {graph.latest_common_ancestor(3, 4)}")
print(f"  earliest ancestor of 3: {graph.earliest_ancestor(3)}")
print()
print("  gdist -- 0 means 'same lineage', 1 means 'nothing in common':")
print(f"    siblings 1,2:            {graph.gdist(1, 2):.3f}")
print(f"    parent/child 2,5:        {graph.gdist(2, 5):.3f}")
print(f"    cousins-ish 3,5:         {graph.gdist(3, 5):.3f}")
print(f"    unrelated 3,4:           {graph.gdist(3, 4):.3f}")
print()

# ----------------------------------------------------------------------
# a random history, compared against the undirected oracle
# ----------------------------------------------------------------------
rng = np.random.default_rng(42)
big = GenealogyGraph()
for i in range(300):
    roll = rng.random()
    if i == 0 or roll < 0.1:
        big.record_birth((), i)
    elif i == 1 or roll < 0.6:
        big.record_birth((int(rng.integers(i)),), i)
    else:
        a = int(rng.integers(i))
        b = int(rng.integers(i))
        while b == a:
            b = int(rng.integers(i))
        big.record_birth((a, b), i)

print("random history (300 nodes): gdist vs. undirected path length")
print(f"  {'pair':>12s} {'gdist':>7s} {'edist':>6s}")
for _ in range(8):
    a = int(rng.integers(300))
    b = int(rng.integers(300))
    print(f"  ({a:4d},{b:4d}) {big.gdist(a, b):7.3f} {big.edist_oracle(a, b):6}")
print("\nRelated pairs score low on both; the two scales track each other.")
