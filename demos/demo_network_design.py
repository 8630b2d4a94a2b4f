"""One-pass survivable network design.

The pipeline keeps a fault-tolerant spanner sized for the connectivity
requirements while the edges stream by, then solves the instance exactly on
the kept edges.  The brute-force oracle provides the true optimum so we see
the actual ratio next to the certified ceiling.
"""

from streamnd import (
    Analysis,
    ConnectivityMode,
    EdgeStream,
    Family,
    FrameworkConfig,
    Graph,
    InstanceGenerator,
    RequirementMap,
    brute_optimal,
    generate,
    run_framework,
)

inst = generate(
    InstanceGenerator(seed=5, family=Family.CYCLE_PLUS_CHORDS, n=9, chords=4)
)
g = inst.base
req = RequirementMap.from_pairs([(0, 4, 2), (1, 7, 2), (2, 8, 1)])
print(f"instance: {len(g.edges)} weighted edges, requirements {list(req.pairs())}")

cfg = FrameworkConfig(t=2, mode=ConnectivityMode.VERTEX, analysis=Analysis.INTEGRAL)
print(f"derived parameters: f={cfg.fault_budget(req.k)}, eps={cfg.eps}")

stream = EdgeStream.from_edges(g.n, g.edges)
result = run_framework(stream, req, cfg)
print(f"kept {result.stored_edges} of {len(g.edges)} edges in the stream")
print(f"solution weight on the kept edges: {result.weight}")

empty = Graph.build(g.n, ())
_, opt = brute_optimal(empty, g.edges, req, ConnectivityMode.VERTEX)
print(f"true optimum: {opt}")
print(f"measured ratio {result.weight / opt:.3f} vs certified ceiling {cfg.factor_bound(req.k)}")
