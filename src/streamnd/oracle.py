"""Independent brute-force ground truth and seeded instance generators.

Everything here trades speed for trustworthiness: subset enumeration for
optimal solutions, backtracking search for disjoint-path packings, and plain
Kruskal for offline MST weights.  Guards turn oversized inputs into errors
rather than silent approximations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .errors import InfeasibleError, ResourceLimitError
from .graph import ConnectivityMode, Graph, _flows_meet, is_k_connected

# unused here; perfbench/test_tracer.py checks that the tracer patches this binding
from .graph import check_feasible  # noqa: F401


# ---------------------------------------------------------------------------
# disjoint-path packing


def _path_elements(mode, reliable, verts, eids):
    """The set of objects a path consumes under the given disjointness mode."""
    if mode is ConnectivityMode.EDGE:
        return {("e", i) for i in eids}
    if mode is ConnectivityMode.VERTEX:
        used = {("v", x) for x in verts[1:-1]}
        used.update(("e", i) for i in eids)
        return used
    used = {("v", x) for x in verts[1:-1] if not reliable[x]}
    used.update(("e", i) for i in eids)
    return used


def max_disjoint_paths(g, u, v, mode):
    """Maximum number of pairwise disjoint u-v paths by backtracking search.

    Paths are keyed by (length, edge-id sequence) and packings are built in
    strictly increasing key order, so every path set is explored exactly
    once.  Short paths come first, which makes large packings appear early
    and the degree bound prune hard.
    """
    if u == v:
        raise ValueError("packing needs two distinct endpoints")
    adj = g.adjacency()
    reliable = g.reliable

    def avail_degree(x, used):
        free = 0
        for y, eid in adj[x]:
            if ("e", eid) in used:
                continue
            if y != v and y != u and ("v", y) in used:
                continue
            free += 1
        return free

    def all_paths(used):
        """Simple u-v paths avoiding `used`, sorted by (length, edge ids)."""
        out = []

        def walk(x, verts, eids, vset):
            for y, eid in adj[x]:
                if ("e", eid) in used:
                    continue
                if y == v:
                    pv = verts + [y]
                    pe = eids + [eid]
                    key = (len(pe), tuple(pe))
                    out.append((key, _path_elements(mode, reliable, pv, pe)))
                    continue
                if y in vset or ("v", y) in used:
                    continue
                walk(y, verts + [y], eids + [eid], vset | {y})

        walk(u, [u], [], {u})
        out.sort(key=lambda t: t[0])
        return out

    best = 0
    hard_cap = min(avail_degree(u, frozenset()), avail_degree(v, frozenset()))

    def search(used, min_key, count):
        nonlocal best
        if count > best:
            best = count
        if best == hard_cap:
            return
        if count + min(avail_degree(u, used), avail_degree(v, used)) <= best:
            return
        for key, elems in all_paths(used):
            if key <= min_key:
                continue
            search(used | elems, key, count + 1)
            if best == hard_cap:
                return

    search(frozenset(), (0, ()), 0)
    return best


# ---------------------------------------------------------------------------
# optimal solutions by enumeration


def _flow_feasible(g, req, mode):
    """One max-flow per required pair (`_flows_meet`), with none of
    `check_feasible`'s shortcuts, so that the oracle stays independent of the
    solvers it checks."""
    for u, v, _ in req.pairs():
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"requirement on ({u},{v}) names a vertex outside 0..{g.n - 1}")
    needed = [(u, v, r) for u, v, r in req.pairs() if r > 0]
    for u, v, _ in needed:
        if mode is ConnectivityMode.ELEMENT and not (g.reliable[u] and g.reliable[v]):
            raise ValueError(
                f"element-connectivity requirement on non-reliable pair ({u},{v})"
            )
    return _flows_meet(g, needed, mode)


MAX_ORACLE_LINKS = 22  # the oracle guard, read at call time


def brute_optimal(base, links, req, mode):
    """Globally minimum-weight feasible link subset by subset enumeration.

    `base` edges are free and always present; `links` are (u, v, w) triples.
    Enumeration recurses in input order, pruning a branch only when it is
    already feasible (supersets cannot weigh less) or when even taking every
    remaining link cannot make it feasible.
    """
    links = list(links)
    if len(links) > MAX_ORACLE_LINKS:
        raise ResourceLimitError(f"{len(links)} links exceeds the oracle guard {MAX_ORACLE_LINKS}")

    # feasibility is monotone in the link set: remember minimal feasible and
    # maximal infeasible sets to spare repeated flow computations
    known_good = []
    known_bad = []

    def feasible(chosen_ids):
        fs = frozenset(chosen_ids)
        if any(good <= fs for good in known_good):
            return True
        if any(fs <= bad for bad in known_bad):
            return False
        edges = list(base.edges) + [links[i] for i in fs]
        ok = _flow_feasible(Graph.build(base.n, edges, base.reliable), req, mode)
        if ok:
            known_good[:] = [g_ for g_ in known_good if not fs <= g_]
            known_good.append(fs)
        else:
            known_bad[:] = [b_ for b_ in known_bad if not b_ <= fs]
            known_bad.append(fs)
        return ok

    best = [None, None]  # weight, ids

    def record(chosen, weight):
        if best[0] is None or weight < best[0]:
            best[0] = weight
            best[1] = tuple(chosen)

    def rec(i, chosen, weight):
        if feasible(chosen):
            record(chosen, weight)
            return
        if i == len(links):
            return
        if not feasible(chosen + list(range(i, len(links)))):
            return
        rec(i + 1, chosen + [i], weight + links[i][2])
        rec(i + 1, chosen, weight)

    rec(0, [], 0)
    if best[0] is None:
        raise InfeasibleError("no link subset meets the requirements")
    return best[1], best[0]


def offline_mst_weight(nodes, links):
    """Kruskal over (a, b, w) links; weight of a minimum spanning forest."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0
    for a, b, w in sorted(links, key=lambda t: t[2]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            total += w
    return total


# ---------------------------------------------------------------------------
# seeded instance generation


class Family(Enum):
    TREE = "tree"
    TWO_CONNECTED = "two_connected"
    GNP = "gnp"
    CYCLE_PLUS_CHORDS = "cycle_plus_chords"


@dataclass(frozen=True)
class InstanceGenerator:
    seed: int
    family: Family
    n: int
    weight_lo: int = 1
    weight_hi: int = 8
    link_count: int = 0
    edge_prob: float = 0.4
    chords: int = 3
    ensure_augmentable: bool = True
    max_links: int | None = None  # redraw until the link set fits the oracle guard


@dataclass(frozen=True)
class Instance:
    base: Graph
    links: tuple  # (u, v, w)


def _rand_weight(rng, gen):
    return rng.randint(gen.weight_lo, gen.weight_hi)


def _random_tree(rng, n):
    return [(rng.randrange(v), v, 1) for v in range(1, n)]


def _theta(rng, gen):
    """Two poles joined by 3-4 vertex-disjoint paths, every path with at
    least one interior vertex: edge-minimal 2-connected, so its dipole node
    survives the thinning done by augmentation preprocessing."""
    n = gen.n
    if n < 5:
        raise ValueError("theta shapes need at least 5 vertices")
    paths = 4 if n >= 7 and rng.random() < 0.4 else 3
    interior = n - 2
    cuts = sorted(rng.sample(range(1, interior), paths - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [interior])]
    verts = list(range(2, n))
    rng.shuffle(verts)
    edges = []
    idx = 0
    for size in sizes:
        prev = 0
        for x in verts[idx : idx + size]:
            edges.append((prev, x, _rand_weight(rng, gen)))
            prev = x
        edges.append((prev, 1, _rand_weight(rng, gen)))
        idx += size
    return edges


def _cycle_plus_chords(rng, gen):
    n = gen.n
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    present = set()
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        edges.append((u, v, _rand_weight(rng, gen)))
        present.add((min(u, v), max(u, v)))
    added = 0
    attempts = 0
    while added < gen.chords and attempts < 20 * gen.chords:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in present:
            continue
        present.add(key)
        edges.append((u, v, _rand_weight(rng, gen)))
        added += 1
    return edges


def _draw_links(rng, gen, base, target_k, mode):
    n = gen.n
    links = []
    present = set()

    def draw():
        for _ in range(200):
            u, v = rng.randrange(n), rng.randrange(n)
            key = (min(u, v), max(u, v))
            if u != v and key not in present:
                present.add(key)
                return (u, v, _rand_weight(rng, gen))
        return None

    for _ in range(gen.link_count):
        link = draw()
        if link is not None:
            links.append(link)
    if gen.ensure_augmentable:
        for _ in range(n * n):
            g = Graph.build(n, list(base.edges) + links, base.reliable)
            if is_k_connected(g, target_k, mode):
                break
            link = draw()
            if link is None:
                break
            links.append(link)
        else:
            raise RuntimeError("could not draw an augmentable link set")
    return tuple(links)


def _links_until(rng, gen, base, target_k, mode):
    """Sample candidate links, topped up until the full set reaches target_k;
    the whole draw is retried when it exceeds the configured link bound."""
    links = _draw_links(rng, gen, base, target_k, mode)
    salt = 1
    while gen.max_links is not None and len(links) > gen.max_links:
        if salt > 50:
            raise RuntimeError("could not draw a small augmentable link set")
        retry = random.Random((gen.seed + 1) * 10_007 + salt)
        links = _draw_links(retry, gen, base, target_k, mode)
        salt += 1
    return links


def generate(gen):
    """Deterministic instance for the given generator parameters."""
    rng = random.Random(gen.seed)
    if gen.family is Family.TREE:
        base = Graph.build(gen.n, _random_tree(rng, gen.n))
        links = _links_until(rng, gen, base, 2, ConnectivityMode.VERTEX)
        return Instance(base, links)
    if gen.family is Family.TWO_CONNECTED:
        # a Hamiltonian cycle plus chords and a theta are 2-connected from n = 3 on
        if gen.n < 3:
            raise RuntimeError("could not certify a 2-connected base")
        edges = _theta(rng, gen) if gen.n >= 5 and gen.seed % 2 else _cycle_plus_chords(rng, gen)
        base = Graph.build(gen.n, edges)
        return Instance(base, _links_until(rng, gen, base, 3, ConnectivityMode.VERTEX))
    if gen.family is Family.GNP:
        edges = []
        for u in range(gen.n):
            for v in range(u + 1, gen.n):
                if rng.random() < gen.edge_prob:
                    edges.append((u, v, _rand_weight(rng, gen)))
        return Instance(Graph.build(gen.n, edges), ())
    if gen.family is Family.CYCLE_PLUS_CHORDS:
        return Instance(Graph.build(gen.n, _cycle_plus_chords(rng, gen)), ())
    raise ValueError(f"unknown family {gen.family!r}")
