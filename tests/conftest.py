import hashlib
import random

from hypothesis import HealthCheck, settings

from streamnd import Graph
from streamnd.spqr import REAL, VIRTUAL

settings.register_profile(
    "suite",
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def short_digest(value):
    """First 16 hex digits of the sha256 of repr(value), for pinning outputs."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def seeded_graph(seed, n, p=0.45, wmax=1, allow_empty=False):
    """Deterministic G(n, p) with integer weights in [1, wmax] (or all 1)."""
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = 1 if wmax <= 1 else rng.randint(1, wmax)
                edges.append((u, v, w))
    if not edges and not allow_empty:
        edges = [(0, n - 1, 1)]
    return Graph.build(n, edges)


def random_two_connected(seed, n):
    """Random cycle plus chords, redrawn until certified 2-vertex-connected."""
    from streamnd import ConnectivityMode, is_k_connected

    rng = random.Random(seed)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
        for _ in range(rng.randint(0, n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        g = Graph.build(n, sorted(edges))
        if is_k_connected(g, 2, ConnectivityMode.VERTEX):
            return g


def connected_after_removal(g, removed_vertices):
    keep = [x for x in range(g.n) if x not in removed_vertices]
    if not keep:
        return True
    adj = {x: set() for x in keep}
    for u, v, _ in g.edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(keep)


def seeded_two_connected(seed, n):
    """Simple 2-vertex-connected graph on n >= 4 vertices in shuffled edge
    order, one of three shapes by seed: cycle plus chords (mostly S and P
    nodes), dense G(n, 0.7) (mostly one R node), or a wheel-like hub with
    spokes to part of a chorded rim (R nodes with S and P nodes around)."""
    from streamnd import ConnectivityMode, is_k_connected

    rng = random.Random(seed)
    shape = seed % 3
    while True:
        if shape == 0:
            g = random_two_connected(rng.randrange(10**6), n)
            edges = {(u, v) for u, v, _ in g.edges}
        elif shape == 1:
            edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7}
        else:
            rim = list(range(1, n))
            rng.shuffle(rim)
            edges = {(min(a, b), max(a, b)) for a, b in zip(rim, rim[1:] + rim[:1])}
            edges |= {(0, x) for x in rng.sample(rim, rng.randint(2, n - 1))}
            for _ in range(rng.randint(0, 2)):
                a, b = rng.sample(rim, 2)
                edges.add((min(a, b), max(a, b)))
        edges = sorted(edges)
        rng.shuffle(edges)
        g = Graph.build(n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges])
        if is_k_connected(g, 2, ConnectivityMode.VERTEX):
            return g


def ear_graph(seed, n, window=None):
    """Simple 2-vertex-connected graph on n >= 4 vertices: a 4-cycle plus
    seeded ears, each a path through 1-4 new vertices between two distinct
    existing ones.  With a `window`, both ends come from the `window` newest
    vertices, so the ears nest and the SPQR tree runs deep."""
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    m = 4
    while m < n:
        size = min(rng.randint(1, 4), n - m)
        lo = 0 if window is None else max(0, m - window)
        a, b = rng.sample(range(lo, m), 2)
        path = [a, *range(m, m + size), b]
        edges += zip(path, path[1:])
        m += size
    return Graph.build(n, edges)


def remerged_edges(tree):
    """Undo every split bottom-up; returns the reconstructed multiset of
    (u, v) pairs, which must match the input graph's edges exactly."""
    rep = {node.nid: node.nid for node in tree.nodes}

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    skeletons = {node.nid: list(node.edges) for node in tree.nodes}
    deepest_first = sorted(
        tree.tree_edges, key=lambda t: (-max(tree.depth[t[0]], tree.depth[t[1]]), t[2])
    )
    for x, y, vid in deepest_first:
        rx, ry = find(x), find(y)
        if rx == ry:
            raise AssertionError("tree edges must join distinct components")
        merged = [e for e in skeletons[rx] if not (e.kind == VIRTUAL and e.ref == vid)]
        merged += [e for e in skeletons[ry] if not (e.kind == VIRTUAL and e.ref == vid)]
        target, gone = min(rx, ry), max(rx, ry)
        rep[gone] = target
        skeletons[target] = merged
        del skeletons[gone]
    (final,) = skeletons.values()
    if any(e.kind != REAL for e in final):
        raise AssertionError("a full remerge must eliminate every virtual edge")
    return sorted(e.pair() for e in final)


def canonical_form(tree):
    """Serialization that is stable under node renumbering, for tree equality
    up to isomorphism in tests."""

    def describe(node):
        verts = ",".join(map(str, sorted(node.vertices)))
        reals = ",".join(f"{u}-{v}" for u, v in sorted(e.pair() for e in node.real_edges()))
        virts = ",".join(f"{u}-{v}" for u, v in sorted(e.pair() for e in node.virtual_edges()))
        return f"{node.kind}[{verts}|{reals}|{virts}]"

    descs = {node.nid: describe(node) for node in tree.nodes}
    node_part = sorted(descs.values())
    edge_part = sorted(
        "--".join(sorted((descs[x], descs[y]))) for x, y, _ in tree.tree_edges
    )
    return ";".join(node_part) + "//" + ";".join(edge_part)


class RecordingStream:
    """A single-pass edge stream that logs ("read", i) as it hands out item i,
    so a test can check how reads interleave with processing."""

    def __init__(self, n, items, log):
        self.n = n
        self._items = list(items)
        self.log = log

    def __iter__(self):
        for i, item in enumerate(self._items):
            self.log.append(("read", i))
            yield item


def record_process_edge(monkeypatch, log):
    """Make FtSpannerState.process_edge log ("process", w) before it runs."""
    from streamnd.spanner import FtSpannerState

    process_edge = FtSpannerState.process_edge

    def logged(self, u, v, w):
        log.append(("process", w))
        return process_edge(self, u, v, w)

    monkeypatch.setattr(FtSpannerState, "process_edge", logged)
