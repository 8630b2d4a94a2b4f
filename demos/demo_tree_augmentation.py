"""Augmenting a spanning tree to 2-vertex-connectivity from a link stream.

Per vertex and weight class, the state remembers the incident link whose
tree anchor sits closest to the root, plus a contracted spanning forest over
each vertex's child subtrees; that is all the post-stream solver ever needs.
"""

from fractions import Fraction

from streamnd import (
    BucketScheme,
    Cap1State,
    ConnectivityMode,
    Family,
    Graph,
    InstanceGenerator,
    RequirementMap,
    brute_optimal,
    generate,
    is_k_connected,
)

inst = generate(
    InstanceGenerator(seed=12, family=Family.TREE, n=9, link_count=4, max_links=12)
)
print(f"tree edges: {[(u, v) for u, v, _ in inst.base.edges]}")
print(f"candidate links: {list(inst.links)}")

scheme = BucketScheme(Fraction(1, 2))
state = Cap1State.from_base(inst.base, scheme)
for link in inst.links:
    state.process_link(*link)

result = state.finalize()
kept = [r.triple() for r in result.stored]
print(f"stream retained {len(kept)} links (ceiling {state.space_bound()}): {kept}")
print(f"chosen augmentation: {[r.triple() for r in result.solution]} weight {result.weight}")

augmented = Graph.build(
    inst.base.n, list(inst.base.edges) + [r.triple() for r in result.solution]
)
print("2-vertex-connected now:", is_k_connected(augmented, 2, ConnectivityMode.VERTEX))

_, opt = brute_optimal(
    inst.base, inst.links, RequirementMap.uniform(inst.base.n, 2), ConnectivityMode.VERTEX
)
print(f"optimum over all links: {opt}  (ratio {result.weight / opt:.3f})")
