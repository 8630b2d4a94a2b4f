import hashlib
import random

from hypothesis import HealthCheck, settings

from streamnd import Graph

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
