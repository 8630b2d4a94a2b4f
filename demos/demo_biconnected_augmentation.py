"""Augmenting a 2-connected graph to 3-vertex-connectivity from a link stream.

The base is thinned to an edge-minimal 2-connected core (discarded edges
re-enter the stream as free links), decomposed into an SPQR tree, and the
stream keeps a constant number of links per tree structure and weight class:
best-anchor links per node, a contracted spanning forest per dipole node,
and extreme links per cycle position, with dummy positions standing in for
whole subtrees hanging off virtual edges.
"""

from fractions import Fraction

from streamnd import (
    BucketScheme,
    Cap2State,
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
    InstanceGenerator(
        seed=3, family=Family.TWO_CONNECTED, n=8, chords=2, link_count=4, max_links=10
    )
)
print(f"base: {len(inst.base.edges)} edges on {inst.base.n} vertices")
print(f"candidate links: {list(inst.links)}")

scheme = BucketScheme(Fraction(1, 2))
state = Cap2State.from_base(inst.base, scheme)
print(f"edge-minimal core keeps {len(state.base.edges)} edges")
print("skeleton kinds:", [node.kind for node in state.tree.nodes])

for link in inst.links:
    state.process_link(*link)

result = state.finalize()
print(f"stream retained {len(result.stored)} links (ceiling {state.space_bound()})")
print(f"chosen augmentation: {[r.triple() for r in result.solution]} weight {result.weight}")

augmented = Graph.build(
    inst.base.n, list(inst.base.edges) + [r.triple() for r in result.solution]
)
print("3-vertex-connected now:", is_k_connected(augmented, 3, ConnectivityMode.VERTEX))

_, opt = brute_optimal(
    inst.base, inst.links, RequirementMap.uniform(inst.base.n, 3), ConnectivityMode.VERTEX
)
print(f"optimum over all links: {opt}  (ratio {result.weight / opt:.3f})")
