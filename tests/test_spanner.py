import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from streamnd import (
    EdgeStream,
    FaultMode,
    FtConfig,
    FtSpannerState,
    Graph,
    TestKind,
    build_spanner,
    extract_disjoint_paths,
    ft_test_exact,
    ft_test_peeling_eft,
    verify_ft_spanner,
)
from streamnd.errors import ContractViolationError, ResourceLimitError
from streamnd.spanner import (
    HopGraph,
    KeptEdge,
    _cut_exists,
    _greedy_disjoint_short_paths,
    _three_hop_cut_fits,
)

from conftest import RecordingStream, record_process_edge, seeded_graph, short_digest

VF, EF = FaultMode.VERTEX, FaultMode.EDGE
THIRD = Fraction(1, 3)


def _naive_exact(g, u, v, f, threshold, mode):
    """Independent re-implementation: all fault subsets up to size f, checked
    in a different enumeration order with a plain BFS."""
    adj = [[] for _ in range(g.n)]
    for eid, (a, b, _) in enumerate(g.edges):
        adj[a].append((b, eid))
        adj[b].append((a, eid))

    def dist_ok(banned_v, banned_e):
        frontier, seen = {u}, {u}
        for _ in range(threshold):
            frontier = {
                y
                for x in frontier
                for y, eid in adj[x]
                if eid not in banned_e and y not in banned_v and y not in seen
            }
            if v in frontier:
                return True
            seen |= frontier
        return False

    if mode is VF:
        pool = [x for x in range(g.n) if x not in (u, v)]
    else:
        pool = list(range(len(g.edges)))
    for size in range(min(f, len(pool)), -1, -1):
        for fault in itertools.combinations(pool, size):
            banned_v = set(fault) if mode is VF else set()
            banned_e = set(fault) if mode is EF else set()
            if not dist_ok(banned_v, banned_e):
                return True
    return False


def _hop(edges, n):
    h = HopGraph(n)
    for u, v in edges:
        h.add_edge(u, v)
    return h


def test_exact_path_with_cut_vertex():
    h = _hop([(0, 2), (2, 1)], 3)
    assert ft_test_exact(h, 0, 1, 1, 1, VF)


def test_exact_pigeonhole_refutation():
    # f+1 = 3 vertex-disjoint 2-hop paths: no 2-vertex fault can stretch 0-1
    edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
    h = _hop(edges, 5)
    assert not ft_test_exact(h, 0, 1, 2, 2, VF)
    assert not ft_test_peeling_eft(h, 0, 1, 2, 2, VF)


def test_exact_agrees_with_independent_enumeration():
    for seed in range(25):
        g = seeded_graph(seed, 5 + seed % 4, p=0.5)
        h = _hop([(a, b) for a, b, _ in g.edges], g.n)
        plain = Graph.build(g.n, [(u, v) for u, v, _ in g.edges])
        for mode in (VF, EF):
            for f in (0, 1, 2):
                for threshold in (1, 3):
                    got = ft_test_exact(h, 0, g.n - 1, f, threshold, mode)
                    want = _naive_exact(plain, 0, g.n - 1, f, threshold, mode)
                    assert got == want, (seed, mode, f, threshold)


def test_zero_hop_pair_is_never_cut():
    # u = 1 has degree 2: an unguarded max-flow at threshold 3 would cut u
    # from itself by its two edges once f >= 2
    h = _hop([(0, 1), (1, 2), (2, 3)], 4)
    for mode in (VF, EF):
        for threshold in (1, 3, 5):
            for f in range(5):
                assert not ft_test_exact(h, 1, 1, f, threshold, mode), (mode, threshold, f)


def test_peeling_trivial_cases():
    h = _hop([], 2)
    for mode in (VF, EF):
        assert ft_test_peeling_eft(h, 0, 1, 2, 3, mode)


def test_peeling_builders_always_verify():
    for seed in range(30):
        g = seeded_graph(seed + 50, 8, p=0.6)
        for mode in (VF, EF):
            for t in (2, 3):
                cfg = FtConfig(f=2, t=t, mode=mode, eps=THIRD, test_kind=TestKind.PEELING_EFT)
                state = FtSpannerState(g.n, cfg, 1)
                for u, v, w in g.edges:
                    state.process_edge(u, v, w)
                assert verify_ft_spanner(g, state.kept_ids(), cfg), (seed, mode, t)


def test_config_validation():
    with pytest.raises(ValueError):
        FtConfig(f=-1, t=2, mode=VF)
    with pytest.raises(ValueError):
        FtConfig(f=1, t=0, mode=VF)
    # a fraction would give fractional flow capacities or hop thresholds, and
    # a string would fail its comparison with TypeError
    for f, t in ((1.5, 2), ("1", 2), (1, 2.5), (1, "2"), (None, 2)):
        with pytest.raises(ValueError, match="integer"):
            FtConfig(f=f, t=t, mode=VF)
    # past the exact test's polynomial cases the automatic choice is peeling
    state = FtSpannerState(40, FtConfig(f=5, t=3, mode=VF), 1)
    assert state.config.test_kind is TestKind.PEELING_EFT
    # at t <= 2 the exact test is polynomial, so it is picked for any f and n
    for t in (1, 2):
        state = FtSpannerState(40, FtConfig(f=9, t=t, mode=VF), 1)
        assert state.config.test_kind is TestKind.EXACT


def test_build_spanner_reads_each_edge_after_the_previous_one_is_processed(monkeypatch):
    log = []
    record_process_edge(monkeypatch, log)
    # weight i marks item i; no maximum weight is given anywhere
    items = [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 0, 3), (0, 2, 4)]
    state = build_spanner(RecordingStream(4, items, log), FtConfig(f=1, t=2, mode=VF))
    assert log == [event for i in range(5) for event in (("read", i), ("process", i))]
    assert state.stored_edge_count == 5  # one edge per weight bucket


def test_process_edge_threshold_one_is_plain_adjacency():
    cfg = FtConfig(f=0, t=1, mode=VF, eps=1, test_kind=TestKind.EXACT)
    state = FtSpannerState(3, cfg, 5)
    assert state.process_edge(0, 1, 1)
    assert not state.process_edge(0, 1, 1)  # same bucket, already adjacent
    assert state.process_edge(0, 1, 4)  # different bucket keeps its own copy


def test_process_edge_cycle_cases():
    cfg = FtConfig(f=0, t=2, mode=VF, eps=THIRD, test_kind=TestKind.EXACT)
    state = FtSpannerState(4, cfg, 1)
    kept = [state.process_edge(*e) for e in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]]
    assert kept == [True, True, True, False]

    cfg = FtConfig(f=1, t=2, mode=VF, eps=THIRD, test_kind=TestKind.EXACT)
    state = FtSpannerState(4, cfg, 1)
    kept = [state.process_edge(*e) for e in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]]
    assert kept == [True, True, True, True]


def test_extraction_single_path():
    h = _hop([(0, 1), (1, 2), (2, 3)], 4)
    paths = extract_disjoint_paths(h, 0, 3, 1, 3)
    assert paths == [[0, 1, 2, 3]]
    with pytest.raises(ContractViolationError):
        extract_disjoint_paths(h, 0, 3, 2, 3)


def test_extraction_after_rejection():
    cfg = FtConfig(f=0, t=2, mode=VF, eps=THIRD, test_kind=TestKind.EXACT)
    state = FtSpannerState(4, cfg, 1)
    for e in [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]:
        state.process_edge(*e)
    rec = state.rejected[0]
    paths = extract_disjoint_paths(state.buckets[rec.bucket], rec.u, rec.v, 1, 3)
    assert len(paths) == 1 and len(paths[0]) - 1 <= 3


def test_rejections_certify_disjoint_paths():
    # per-bucket soundness: every rejection leaves floor(f/(2t-2))+1 disjoint
    # short paths in its bucket
    for seed in range(10):
        g = seeded_graph(seed + 500, 9, p=0.85)
        for f in (1, 2):
            cfg = FtConfig(f=f, t=2, mode=VF, eps=THIRD, test_kind=TestKind.EXACT)
            state = FtSpannerState(g.n, cfg, 1)
            for u, v, w in g.edges:
                state.process_edge(u, v, w)
            want = f // 2 + 1
            for rec in state.rejected:
                paths = extract_disjoint_paths(
                    state.buckets[rec.bucket], rec.u, rec.v, want, 3
                )
                assert all(len(p) - 1 <= 3 for p in paths)


def test_verify_identity_and_broken_spanner():
    g = Graph.build(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 9)])
    cfg = FtConfig(f=1, t=2, mode=VF, eps=THIRD)
    assert verify_ft_spanner(g, range(4), cfg)
    # dropping the bridge-ish heavy edge breaks stretch for f=0 already
    bridge = Graph.build(2, [(0, 1, 1)])
    cfg0 = FtConfig(f=0, t=2, mode=VF, eps=THIRD)
    assert not verify_ft_spanner(bridge, [], cfg0)


def test_verify_rejects_edge_ids_outside_the_graph():
    # -1 must not read as the triangle's last edge, nor 5 raise IndexError
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    cfg = FtConfig(f=0, t=1, mode=EF)
    assert not verify_ft_spanner(g, [0, 1], cfg)
    for bad in (-1, 5, 2.5):
        with pytest.raises(ValueError, match="kept edge ids"):
            verify_ft_spanner(g, [0, 1, bad], cfg)


def test_verify_guard():
    g = seeded_graph(1, 30, p=0.3)
    cfg = FtConfig(f=4, t=2, mode=VF, eps=THIRD)
    with pytest.raises(ResourceLimitError):
        verify_ft_spanner(g, range(len(g.edges)), cfg)


def test_exact_built_spanners_always_verify():
    for seed in range(15):
        g = seeded_graph(seed + 900, 8, p=0.7, wmax=6)
        for mode in (VF, EF):
            cfg = FtConfig(f=2, t=2, mode=mode, eps=THIRD, test_kind=TestKind.EXACT)
            state = FtSpannerState(g.n, cfg, 6)
            for u, v, w in g.edges:
                state.process_edge(u, v, w)
            assert verify_ft_spanner(g, state.kept_ids(), cfg), (seed, mode)
            # bookkeeping: the counter equals the bucket contents, and every
            # bucket holds only edges of its own weight class
            assert state.stored_edge_count == sum(
                len(h.edges) for h in state.buckets.values()
            )
            for rec in state.kept:
                assert state.scheme.bucket_of(rec.w) == rec.bucket


def test_process_edge_rejects_bad_endpoints_before_indexing():
    for test_kind, mode in (
        (TestKind.EXACT, VF),
        (TestKind.PEELING_EFT, EF),
    ):
        state = FtSpannerState(3, FtConfig(f=1, t=2, mode=mode, test_kind=test_kind), 1)
        assert state.process_edge(0, 1, 1)
        for u, v in ((0, 7), (3, 1), (-1, 2), (1, 1), (0, 1.5)):
            with pytest.raises(ValueError):
                state.process_edge(u, v, 1)
        assert state.kept_ids() == (0,) and not state.rejected
        # the stream position did not advance on the refused edges
        assert state.process_edge(1, 2, 1)
        assert state.kept_ids() == (0, 1)


def test_process_edge_rejects_bad_weights_before_indexing():
    state = FtSpannerState(3, FtConfig(f=1, t=2, mode=VF, test_kind=TestKind.EXACT), 4)
    for w in (9, -1, 2.5, Fraction(3, 2)):
        with pytest.raises(ValueError):
            state.process_edge(0, 1, w)
    # the stream position did not advance on the refused edges
    assert state.process_edge(0, 1, 4)
    assert state.kept_ids() == (0,) and not state.rejected


def test_process_edge_bucket_guard_trips_before_indexing():
    cfg = FtConfig(f=1, t=2, mode=VF, eps=Fraction(1, 10000), test_kind=TestKind.EXACT)
    state = FtSpannerState(3, cfg)
    with pytest.raises(ResourceLimitError):
        state.process_edge(0, 1, 10**6)
    assert state.process_edge(0, 1, 1)
    assert state.kept_ids() == (0,) and not state.rejected


def test_self_query_is_a_zero_hop_path():
    h = _hop([(0, 1), (1, 2)], 3)
    assert h.short_path(1, 1, 0) == ([1], [])
    assert h.within_hops(1, 1, 0)
    assert h.short_path(1, 1, 3, banned_vertices=[1]) is None
    assert not h.within_hops(1, 1, 3, banned_vertices=[1])


def _pin_graph(seed):
    return seeded_graph(seed + 300, 9 + seed % 4, p=0.85)


def _pin_multigraph(seed):
    """Seeded G(n, 0.85) on 16-19 vertices with weights 1..3, three buckets
    at eps 1/3, and about a third of its edges doubled with their own weight."""
    rng = random.Random(seed + 900)
    n = 16 + seed % 4
    edges = []
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.85:
            edges.append((a, b, rng.randint(1, 3)))
            if rng.random() < 0.35:
                edges.append((b, a, rng.randint(1, 3)))
    return Graph.build(n, edges)


# Kept stream positions of small seeded builds: the first three recorded
# before the exact test was reordered (shortcut first, bounded candidate BFS,
# stamped hop BFS), the next three before the hop BFS stamped v's neighbours,
# the last two when path peeling was opened to vertex faults.  On a simple
# graph at threshold 3 the two peels coincide (a 2-hop path's inner vertex has
# no other edge to u or v, and a shorter path through a 3-hop path's inner
# vertex would have been peeled first), so the t = 2 one runs on multigraphs.
KEPT_PINS = {
    "exact-vft": ("5c185a7f67cb4784", FtConfig(f=2, t=2, mode=VF, eps=THIRD, test_kind=TestKind.EXACT), _pin_graph),
    "exact-eft": ("4b7cbae1a85fd72c", FtConfig(f=4, t=2, mode=EF, eps=THIRD, test_kind=TestKind.EXACT), _pin_graph),
    "peeling-eft": (
        "427a0fb857d5a301",
        FtConfig(f=4, t=2, mode=EF, eps=THIRD, test_kind=TestKind.PEELING_EFT),
        _pin_graph,
    ),
    "exact-vft-t3": ("25432a34debb6d23", FtConfig(f=2, t=3, mode=VF, eps=THIRD, test_kind=TestKind.EXACT), _pin_graph),
    "exact-eft-t3": ("00ff961683118a36", FtConfig(f=2, t=3, mode=EF, eps=THIRD, test_kind=TestKind.EXACT), _pin_graph),
    "peeling-eft-multi": (
        "47f1e967d1a4ba24",
        FtConfig(f=2, t=2, mode=EF, eps=THIRD, test_kind=TestKind.PEELING_EFT),
        _pin_multigraph,
    ),
    "peeling-vft": (
        "f93c8d306eb5f9b6",
        FtConfig(f=2, t=2, mode=VF, eps=THIRD, test_kind=TestKind.PEELING_EFT),
        _pin_multigraph,
    ),
    "peeling-vft-t3": (
        "035651bc686659b8",
        FtConfig(f=2, t=3, mode=VF, eps=THIRD, test_kind=TestKind.PEELING_EFT),
        _pin_graph,
    ),
}


@pytest.mark.parametrize("name", sorted(KEPT_PINS))
def test_kept_ids_pinned(name):
    pin, cfg, graph = KEPT_PINS[name]
    kept, buckets = [], set()
    for seed in range(12):
        g = graph(seed)
        stream = EdgeStream.from_edges(g.n, g.edges, shuffle_seed=seed)
        state = build_spanner(stream, cfg)
        kept.append(state.kept_ids())
        buckets.update(e.bucket for e in state.kept)
    assert len(buckets) >= (3 if graph is _pin_multigraph else 1)
    assert short_digest(kept) == pin


def _stream_records(state, items):
    """(kept, rejected) KeptEdge lists recomputed from the streamed items
    and the state's kept stream positions."""
    kept_ids = set(state.kept_ids())
    recs = [
        KeptEdge(i, u, v, w, state.scheme.bucket_of(w)) for i, (u, v, w) in enumerate(items)
    ]
    return (
        [r for r in recs if r.stream_index in kept_ids],
        [r for r in recs if r.stream_index not in kept_ids],
    )


@pytest.mark.parametrize("name", sorted(KEPT_PINS))
def test_packed_rejected_records_match_the_stream(name):
    _, cfg, graph = KEPT_PINS[name]
    for seed in range(12):
        g = graph(seed)
        items = list(EdgeStream.from_edges(g.n, g.edges, shuffle_seed=seed))
        state = build_spanner(EdgeStream(g.n, items), cfg)
        kept, rejected = _stream_records(state, items)
        assert state.kept == kept
        assert state.rejected == rejected
        assert len(kept) + len(rejected) == len(items)


def test_huge_weight_round_trips_in_kept_and_rejected():
    w = 2**80
    state = FtSpannerState(2, FtConfig(f=0, t=2, mode=VF, eps=1, test_kind=TestKind.EXACT))
    assert state.process_edge(0, 1, w)
    assert not state.process_edge(1, 0, w)  # same bucket, already adjacent
    j = state.scheme.bucket_of(w)
    assert state.kept == [KeptEdge(0, 0, 1, w, j)]
    assert state.rejected == [KeptEdge(1, 1, 0, w, j)]
    assert state.rejected[0].w == w


def test_rejected_edges_are_packed():
    # K6 at f=0: after the first round of its 15 pairs every item is rejected;
    # a KeptEdge record per rejected edge costs about 127 traced bytes, the
    # packed store about 42
    pairs = list(itertools.combinations(range(6), 2))
    state = FtSpannerState(6, FtConfig(f=0, t=2, mode=VF, eps=THIRD, test_kind=TestKind.EXACT))
    for u, v in pairs:
        state.process_edge(u, v, 1)
    items = 5000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(items):
            assert not state.process_edge(*pairs[i % len(pairs)], 1)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 64 * items, grown / items


# ---------------------------------------------------------------------------
# The addition test as it was before the shortcut-first order, the stamped
# hop BFS and the branching on one short path: the reference for the current
# code.


class _RefHopGraph:
    def __init__(self, n):
        self.n = n
        self.edges = []
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v):
        eid = len(self.edges)
        self.edges.append((u, v))
        self.adj[u].append((v, eid))
        self.adj[v].append((u, eid))
        return eid

    def within_hops(self, u, v, limit, banned_vertices=(), banned_edges=()):
        bv = set(banned_vertices)
        be = set(banned_edges)
        if u in bv or v in bv:
            return False
        if u == v:
            return True
        frontier = {u}
        seen = {u}
        for _ in range(limit):
            nxt = set()
            for x in frontier:
                for y, eid in self.adj[x]:
                    if eid in be or y in bv or y in seen:
                        continue
                    if y == v:
                        return True
                    nxt.add(y)
            seen |= nxt
            frontier = nxt
            if not frontier:
                return False
        return False

    def short_path(self, u, v, limit, banned_vertices=(), banned_edges=()):
        bv = set(banned_vertices)
        be = set(banned_edges)
        if u in bv or v in bv:
            return None
        parent = {u: None}
        frontier = [u]
        for _ in range(limit):
            nxt = []
            for x in frontier:
                for y, eid in self.adj[x]:
                    if eid in be or y in bv or y in parent:
                        continue
                    parent[y] = (x, eid)
                    if y == v:
                        verts, eids = [v], []
                        z = v
                        while parent[z] is not None:
                            pz, peid = parent[z]
                            eids.append(peid)
                            verts.append(pz)
                            z = pz
                        return verts[::-1], eids[::-1]
                    nxt.append(y)
            frontier = nxt
            if not frontier:
                return None
        return None


def _ref_bfs_hops(h, src):
    dist = [None] * h.n
    dist[src] = 0
    queue = [src]
    while queue:
        nxt = []
        for x in queue:
            for y, _ in h.adj[x]:
                if dist[y] is None:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        queue = nxt
    return dist


def _ref_useful_candidates(h, u, v, threshold, mode):
    du = _ref_bfs_hops(h, u)
    dv = _ref_bfs_hops(h, v)
    if mode is VF:
        return [
            x
            for x in range(h.n)
            if x not in (u, v)
            and du[x] is not None
            and dv[x] is not None
            and du[x] + dv[x] <= threshold
        ]
    out = []
    for eid, (a, b) in enumerate(h.edges):
        if du[a] is None or du[b] is None or dv[a] is None or dv[b] is None:
            continue
        if min(du[a] + 1 + dv[b], du[b] + 1 + dv[a]) <= threshold:
            out.append(eid)
    return out


def _ref_greedy_disjoint_short_paths(h, u, v, threshold, mode, want):
    banned_v = set()
    banned_e = set()
    found = 0
    while found < want:
        hit = h.short_path(u, v, threshold, banned_vertices=banned_v, banned_edges=banned_e)
        if hit is None:
            return found
        verts, eids = hit
        found += 1
        if mode is VF:
            banned_v.update(verts[1:-1])
        banned_e.update(eids)
    return found


def _ref_ft_test_exact(h, u, v, f, t_threshold, mode):
    if not h.within_hops(u, v, t_threshold):
        return True
    if f == 0:
        return False
    candidates = _ref_useful_candidates(h, u, v, t_threshold, mode)
    f_eff = min(f, len(candidates))
    if f_eff == 0:
        return False
    if _ref_greedy_disjoint_short_paths(h, u, v, t_threshold, mode, f_eff + 1) > f_eff:
        return False
    for fault in itertools.combinations(candidates, f_eff):
        if mode is VF:
            if not h.within_hops(u, v, t_threshold, banned_vertices=fault):
                return True
        elif not h.within_hops(u, v, t_threshold, banned_edges=fault):
            return True
    return False


def _both_graphs(n, edges):
    ref, new = _RefHopGraph(n), HopGraph(n)
    for a, b in edges:
        ref.add_edge(a, b)
        new.add_edge(a, b)
    return ref, new


def _random_multigraph(rng, n, u, v):
    """Random edges with some doubled, plus 0-2 extra parallel u-v edges."""
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        edges.append((a, b))
        if rng.random() < 0.2:
            edges.append((b, a))
    edges += [(u, v)] * rng.randint(0, 2)
    rng.shuffle(edges)
    return edges


def test_exact_matches_reference_on_edge_mode_boundary():
    # edge candidates need all four end distances within `threshold` hops;
    # a BFS cut at threshold - 1 drops (1, 0) copies here and flips the verdict
    edges = [(5, 4), (0, 3), (1, 0), (1, 0), (2, 3), (1, 3), (4, 0), (4, 1), (0, 1), (3, 2), (1, 3)]
    ref, new = _both_graphs(6, edges)
    want = _ref_ft_test_exact(ref, 1, 0, 3, 1, EF)
    assert ft_test_exact(new, 1, 0, 3, 1, EF) == want
    assert want


def test_exact_matches_reference_on_seeded_multigraphs():
    rng = random.Random(4)
    verdicts = set()
    for _ in range(3000):
        n = rng.randint(2, 9)
        u, v = rng.sample(range(n), 2)
        ref, new = _both_graphs(n, _random_multigraph(rng, n, u, v))
        mode = rng.choice((VF, EF))
        f = rng.randint(0, 5)
        threshold = rng.choice((1, 3, 5))
        want = _ref_ft_test_exact(ref, u, v, f, threshold, mode)
        assert ft_test_exact(new, u, v, f, threshold, mode) == want, (ref.edges, u, v, mode, f, threshold)
        verdicts.add((mode, f, threshold, want))
    # every (mode, f, threshold) occurs with both verdicts
    assert len(verdicts) == 2 * 6 * 3 * 2, sorted(verdicts)
    # f from one below the smaller endpoint degree up: in edge mode, from the
    # degree on, faulting that endpoint's edges is a cut with no search
    for _ in range(1000):
        n = rng.randint(2, 9)
        u, v = rng.sample(range(n), 2)
        ref, new = _both_graphs(n, _random_multigraph(rng, n, u, v))
        mode = rng.choice((VF, EF))
        f = max(0, min(len(new.adj[u]), len(new.adj[v])) + rng.randint(-1, 2))
        threshold = rng.choice((1, 3, 5))
        want = _ref_ft_test_exact(ref, u, v, f, threshold, mode)
        assert ft_test_exact(new, u, v, f, threshold, mode) == want, (ref.edges, u, v, mode, f, threshold)


class _CountingHopGraph(HopGraph):
    """Counts hop queries; `within_hops` goes through `short_path`."""

    def __init__(self, n):
        super().__init__(n)
        self.queries = 0

    def short_path(self, *args):
        self.queries += 1
        return super().short_path(*args)


def test_exact_hop_queries_are_bounded_by_path_branching():
    # none at threshold 3, where the max-flow decides alone; elsewhere f+1
    # peeling queries, then one query per node of a search tree that
    # branches on the L elements of one short path: L = threshold edges in
    # edge mode, threshold - 1 inner vertices in vertex mode
    rng = random.Random(6)
    for _ in range(3000):
        n = rng.randint(4, 12)
        u, v = rng.sample(range(n), 2)
        h = _CountingHopGraph(n)
        for a, b in _random_multigraph(rng, n, u, v):
            h.add_edge(a, b)
        mode = rng.choice((VF, EF))
        f = rng.randint(0, 4)
        threshold = rng.choice((1, 3, 5))
        branch = threshold if mode is EF else threshold - 1
        ft_test_exact(h, u, v, f, threshold, mode)
        if threshold == 3:  # the max-flow makes no hop query
            bound = 0
        else:
            bound = (f + 1) + sum(branch**i for i in range(f + 1))
        assert h.queries <= bound, (h.edges, u, v, mode, f, threshold, h.queries)


def test_short_path_matches_reference_under_bans():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(2, 9)
        u, v = rng.sample(range(n), 2)
        ref, new = _both_graphs(n, _random_multigraph(rng, n, u, v))
        for _ in range(6):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                ref.add_edge(a, b)
                new.add_edge(a, b)
            for _ in range(4):
                x, y = rng.sample(range(n), 2)
                limit = rng.randint(0, 6)
                bv = rng.sample(range(n), rng.randint(0, 2))
                be = set(rng.sample(range(len(ref.edges)), min(len(ref.edges), rng.randint(0, 3))))
                near = [(z, eid) for z, eid in ref.adj[y] if z not in (x, y)]
                shape = rng.randrange(5)
                if shape < 2:  # a self-loop at x or at y
                    z = (x, y)[shape]
                    ref.add_edge(z, z)
                    new.add_edge(z, z)
                elif shape == 2 and near:  # a second z-y copy, the first banned
                    z, eid = rng.choice(near)
                    ref.add_edge(z, y)
                    new.add_edge(z, y)
                    be.add(min(e for w, e in ref.adj[y] if w == z))
                elif shape == 3 and near:  # a banned neighbour of y
                    bv.append(rng.choice(near)[0])
                want = ref.short_path(x, y, limit, bv, be)
                assert new.short_path(x, y, limit, bv, be) == want
                assert new.within_hops(x, y, limit, bv, be) == ref.within_hops(x, y, limit, bv, be)
                assert new.within_hops(x, y, limit, bv, be) == (want is not None)


def test_short_path_on_hop_graph_of_graph():
    for seed in range(20):
        g = seeded_graph(seed + 700, 8, p=0.5)
        ref, new = _both_graphs(g.n, [(a, b) for a, b, _ in g.edges])
        h = _hop([(a, b) for a, b, _ in g.edges], g.n)
        for x, y in itertools.combinations(range(g.n), 2):
            for limit in (1, 2, 4):
                assert h.short_path(x, y, limit) == ref.short_path(x, y, limit)
                assert h.short_path(x, y, limit, [1], {0}) == ref.short_path(x, y, limit, [1], {0})


def _last_layer_shapes(d):
    """u-v graphs for the hop BFS's last layer, with u = 0 and v = 1: (name,
    edges, banned vertices, banned edge ids, hop distance or None).  The
    base is a path of d >= 1 edges whose last inner vertex is x."""
    path = [0, *range(2, d + 1), 1]
    walk = list(zip(path, path[1:]))
    x, w = path[-2], d + 1
    shapes = [
        ("exact", walk, (), (), d),
        # w, a neighbour of v at v's depth, is found from x before v is
        ("neighbour-first", walk[:-1] + [(x, w), (x, 1), (w, 1)], (), (), d),
        # the first of two parallel x-v edges is banned
        ("parallel", walk + [(x, 1)], (), {d - 1}, d),
        ("parallel-both-banned", walk + [(x, 1)], (), {d - 1, d}, None),
        # the first unbanned of three parallel x-v copies is the second
        ("parallel-three", walk + [(x, 1), (x, 1)], (), {d - 1}, d),
        ("parallel-three-two-banned", walk + [(x, 1), (x, 1)], (), {d - 1, d}, d),
        ("self-loops", [(0, 0), *walk, (1, 1)], (), (), d),
        ("self-loops-adjacent", [(1, 1), *walk, (0, 0), (0, 1)], (), (), 1),
        # w, a banned neighbour of v, is found from x before v is
        ("banned-neighbour-of-v", walk[:-1] + [(x, w), (w, 1), walk[-1]], {w}, (), d),
        ("adjacent", walk + [(0, 1)], (), (), 1),
        ("adjacent-banned", walk + [(0, 1)], (), {d}, d),
    ]
    if d >= 2:
        # a second u-v path of d edges, found after the first
        other = [0, *range(d + 2, 2 * d + 1), 1]
        both = walk + list(zip(other, other[1:]))
        shapes += [
            ("banned-neighbour", both, {x}, (), d),
            ("all-neighbours-banned", both, {x, other[-2]}, (), None),
        ]
    return shapes


def test_short_path_last_layer_matches_reference():
    rng = random.Random(16)
    for _ in range(30):
        for d in (1, 2, 3):
            for name, edges, bv, be, dist in _last_layer_shapes(d):
                # noise: extra vertices hung off u, interleaved with the shape,
                # which widen every layer but lie on no u-v path
                n = 2 * d + 1 + rng.randint(0, 4)
                noise = [
                    (rng.choice([0, *range(2 * d + 1, k)]), k) for k in range(2 * d + 1, n)
                ]
                noise += [tuple(rng.sample(range(2 * d + 1, n), 2)) for _ in range(n - 2 * d - 2)]
                order = [(edges, i) for i in range(len(edges))]
                order += [(noise, i) for i in range(len(noise))]
                rng.shuffle(order)
                label = list(range(n))
                rng.shuffle(label)
                all_edges, eid_of = [], {}
                for part, i in order:
                    if part is edges:
                        eid_of[i] = len(all_edges)
                    a, b = part[i]
                    all_edges.append((label[a], label[b]))
                ref, new = _both_graphs(n, all_edges)
                u, v = label[0], label[1]
                bans = ([label[y] for y in bv], {eid_of[i] for i in be})
                for limit in range(6):
                    want = ref.short_path(u, v, limit, *bans)
                    assert new.short_path(u, v, limit, *bans) == want, (name, d, limit, all_edges)
                    # each shape is what its name says: v lies dist hops away
                    hops = None if want is None else len(want[1])
                    assert hops == (dist if dist is not None and dist <= limit else None)


# ---------------------------------------------------------------------------
# Threshold 3: the max-flow against the fault branching it replaced there
# (still the test at every other threshold) and the independent enumeration.


def _branching_exact(h, u, v, f, threshold, mode):
    found = len(_greedy_disjoint_short_paths(h, u, v, threshold, mode, f + 1))
    if found == 0:
        return True
    if f == 0 or found > f:
        return False
    return _cut_exists(h, u, v, f, threshold, mode, (), ())


def _three_hop_multigraph(rng, n, u, v):
    """Middle vertices joined to u and to v at random, random middle edges,
    many doubled, sometimes a self-loop, at most 14 of them, then 0-2
    parallel u-v edges."""
    mid = [x for x in range(n) if x not in (u, v)]
    edges = [(x, end) for x in mid for end in (u, v) if rng.random() < 0.5]
    if len(mid) > 1:
        edges += [tuple(rng.sample(mid, 2)) for _ in range(rng.randint(0, n))]
    edges += [e[::-1] for e in edges if rng.random() < 0.4]
    if rng.random() < 0.3:
        x = rng.choice((u, v, rng.randrange(n)))
        edges.append((x, x))
    rng.shuffle(edges)
    return edges[:14] + [(u, v)] * rng.choice((0, 0, 1, 2))


def test_three_hop_flow_matches_branching_and_enumeration():
    # the flow alone decides every case, including those the disjoint-path
    # shortcut settles before it in `ft_test_exact`
    rng = random.Random(9)
    verdicts = set()
    for _ in range(500):
        n = rng.randint(3, 8)
        u, v = rng.sample(range(n), 2)
        edges = _three_hop_multigraph(rng, n, u, v)
        h = _hop(edges, n)
        g = Graph.build(n, edges)
        mode = rng.choice((VF, EF))
        for f in range(10):
            want = _naive_exact(g, u, v, f, 3, mode)
            case = (edges, u, v, mode, f)
            assert ft_test_exact(h, u, v, f, 3, mode) == want, case
            assert _branching_exact(h, u, v, f, 3, mode) == want, case
            assert _three_hop_cut_fits(h, u, v, f, mode) == want, case
            verdicts.add((mode, want))
    assert verdicts == {(m, k) for m in (VF, EF) for k in (True, False)}


def test_three_hop_flow_counts_an_edge_between_common_neighbours_once():
    # u=0, v=1, common neighbours a=2, b=3 joined by an edge: the network has
    # both 2 -> 3 and 3 -> 2 arcs for it, yet the smallest edge cut is 2
    edges = [(0, 2), (0, 3), (2, 1), (3, 1), (2, 3)]
    h = _hop(edges, 4)
    assert not _three_hop_cut_fits(h, 0, 1, 1, EF)
    assert _three_hop_cut_fits(h, 0, 1, 2, EF)
    for f in (1, 2):
        want = _naive_exact(Graph.build(4, edges), 0, 1, f, 3, EF)
        assert ft_test_exact(h, 0, 1, f, 3, EF) == want == (f == 2)
