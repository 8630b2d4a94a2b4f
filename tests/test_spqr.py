import itertools
import random
from collections import Counter

import pytest

from streamnd import (
    ConnectivityMode,
    Graph,
    build_spqr,
    enumerate_two_cuts,
    to_debug_lines,
)
from streamnd import spqr
from streamnd.cap2 import _needed_edges
from streamnd.spqr import REAL, VIRTUAL, SkelEdge

from conftest import (
    canonical_form,
    connected_after_removal,
    ear_graph,
    random_two_connected,
    remerged_edges,
    seeded_two_connected,
    short_digest,
)

V = ConnectivityMode.VERTEX


def cycle(n):
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


K4 = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

# the worked SPQR figure: a dipole hub {0,1} carrying two short cycles and a
# longer cycle whose far side opens into a 3-connected block (K33 minus an edge)
FIG_EDGES = [
    (0, 2), (2, 1),
    (0, 3), (3, 1),
    (0, 4), (5, 1),
    (4, 7), (4, 9), (6, 5), (6, 7), (6, 9), (8, 5), (8, 7), (8, 9),
]
FIG = Graph.build(10, FIG_EDGES)


def brute_two_cuts(g):
    cuts = set()
    for a, b in itertools.combinations(range(g.n), 2):
        if not connected_after_removal(g, {a, b}):
            cuts.add(frozenset((a, b)))
    return cuts


def _find_pair_of(g):
    """spqr._find_pair on the vertices and edge endpoints of g."""
    pairs = [(u, v) for u, v, _ in g.edges]
    return spqr._find_pair(sorted({x for p in pairs for x in p}), pairs)


def test_separation_pair_none_for_k4():
    assert _find_pair_of(K4) is None


def test_separation_pair_two_triangles():
    g = Graph.build(4, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 1)])
    a, b, classes, ab = _find_pair_of(g)
    assert (a, b) == (0, 1)
    assert sorted(sorted(c) for c in classes) == [[0, 1], [2, 3]]
    assert ab == [4]


def test_separation_pair_classes_partition_random():
    for seed in range(10):
        g = random_two_connected(seed, 6 + seed % 3)
        hit = _find_pair_of(g)
        if hit is None:
            continue
        a, b, classes, ab = hit
        ids = sorted(i for cls in [*classes, ab] for i in cls)
        assert ids == list(range(len(g.edges)))  # exact partition
        # only a pair whose removal separates the graph qualifies
        assert len(classes) >= 2 and not connected_after_removal(g, {a, b})
        assert all({g.edges[i][0], g.edges[i][1]} == {a, b} for i in ab)


def _components_without(vertices, endpoint_pairs, banned):
    """Vertex sets of the components of G - banned, by least vertex."""
    nbrs = {x: set() for x in vertices if x not in banned}
    for u, v in endpoint_pairs:
        if u not in banned and v not in banned:
            nbrs[u].add(v)
            nbrs[v].add(u)
    comps = []
    for start in sorted(nbrs):
        if any(start in c for c in comps):
            continue
        comp, todo = {start}, [start]
        while todo:
            new = nbrs[todo.pop()] - comp
            comp |= new
            todo += new
        comps.append(comp)
    return comps


def _find_pair_by_scan(vertices, endpoint_pairs):
    """Reference for spqr._find_pair: the components of G - {a, b}
    recomputed for every pair in lexicographic order."""
    verts = sorted(vertices)
    for ia, a in enumerate(verts):
        for b in verts[ia + 1 :]:
            comps = _components_without(verts, endpoint_pairs, {a, b})
            ab = [i for i, (u, v) in enumerate(endpoint_pairs) if {u, v} == {a, b}]
            if len(comps) >= 2:
                classes = [
                    [i for i, (u, v) in enumerate(endpoint_pairs) if u in c or v in c]
                    for c in comps
                ]
                return a, b, classes, ab
    return None


def test_find_pair_matches_pairwise_scan(monkeypatch):
    # every skeleton the SPQR construction searches, plus raw multigraphs
    # that need not be connected
    corpus = []
    real_find_pair = spqr._find_pair

    def recording(vertices, endpoint_pairs, clear=frozenset()):
        corpus.append((list(vertices), list(endpoint_pairs)))
        return real_find_pair(vertices, endpoint_pairs, clear)

    with monkeypatch.context() as patch:
        patch.setattr(spqr, "_find_pair", recording)
        for seed in range(80):
            build_spqr(random_two_connected(seed + 500, 3 + seed % 9))
        build_spqr(FIG)
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 7)
        pairs = []
        for _ in range(rng.randint(1, 2 * n)):
            u, v = rng.sample(range(n), 2)
            pairs += [(u, v)] * rng.choice((1, 1, 2))
        corpus.append((sorted({x for p in pairs for x in p}), pairs))
    assert len(corpus) > 400
    for verts, pairs in corpus:
        assert spqr._find_pair(verts, pairs) == _find_pair_by_scan(verts, pairs), pairs


def test_separation_pair_needs_two_parallel_edges_on_two_vertices():
    assert _find_pair_of(Graph.build(3, [(0, 1), (1, 0)])) is None


def test_cycle_collapses_to_single_s_node(monkeypatch):
    searched = []
    real_find_pair = spqr._find_pair
    monkeypatch.setattr(
        spqr, "_find_pair", lambda *args: searched.append(args) or real_find_pair(*args)
    )
    for n in (3, 4, 6, 9):
        tree = build_spqr(cycle(n))
        assert [node.kind for node in tree.nodes] == ["S"]
        assert len(tree.nodes[0].vertices) == n
    # a cycle skeleton is final without a split search
    assert searched == []


def _split_recursively(edges, split):
    """Split depth-first with `split(edges, virtual)`, which returns the
    skeletons one split of `edges` gives (making each new virtual edge with
    `virtual(a, b)`), or None for a final skeleton.  Skeletons and virtual
    edges are numbered like spqr._split_components numbers them."""
    vid_counter = itertools.count()
    next_nid = itertools.count()
    skeletons, vmap = {}, {}

    def virtual(a, b):
        return SkelEdge(a, b, VIRTUAL, next(vid_counter))

    def recurse(edges):
        parts = split(edges, virtual)
        if parts is None:
            nid = next(next_nid)
            skeletons[nid] = list(edges)
            for e in edges:
                if e.kind == VIRTUAL:
                    vmap.setdefault(e.ref, []).append(nid)
            return
        for part in parts:
            recurse(part)

    recurse(edges)
    return skeletons, vmap


def _split_all_classes(edges, virtual):
    """spqr._split_components' split rule, but searching cycles too, so
    every cycle is split down to triangles for the merge phase to glue back
    together: the recursion before cycle skeletons were kept whole."""
    pairs = [(e.u, e.v) for e in edges]
    hit = spqr._find_pair(sorted({x for p in pairs for x in p}), pairs)
    if hit is None:
        return None
    a, b, classes, ab = hit
    if len(classes) == 2 and not ab:
        virts = [virtual(a, b)] * 2
        dipole = []
    else:
        virts = [virtual(a, b) for _ in classes]
        dipole = [[edges[i] for i in ab] + virts]
    return dipole + [[edges[i] for i in cls] + [virt] for cls, virt in zip(classes, virts)]


def _assemble_classified(skeletons, vmap):
    """spqr._assemble with each skeleton's kind read off its degrees."""
    kinds = {nid: _classify_by_degrees(edges) for nid, edges in skeletons.items()}
    return spqr._assemble(skeletons, vmap, kinds)


def _reference_spqr(g):
    edges = [SkelEdge(u, v, REAL, eid) for eid, (u, v, _) in enumerate(g.edges)]
    return _assemble_classified(*_split_recursively(edges, _split_all_classes))


def _vid_ranked(tree):
    """Nodes, tree edges and parent edges with each virtual-edge id replaced
    by its rank among the tree's virtual-edge ids."""
    rank = {vid: i for i, vid in enumerate(sorted(vid for _, _, vid in tree.tree_edges))}

    def edge(e):
        return (e.u, e.v, e.kind, rank[e.ref] if e.kind == VIRTUAL else e.ref)

    nodes = [
        (node.nid, node.kind, node.vertices, [edge(e) for e in node.edges])
        for node in tree.nodes
    ]
    tree_edges = [(x, y, rank[vid]) for x, y, vid in tree.tree_edges]
    parent_vid = [None if vid is None else rank[vid] for vid in tree.parent_vid]
    return nodes, tree_edges, parent_vid


def test_whole_cycles_give_the_reference_tree():
    kinds = set()
    for seed in range(150):
        g = seeded_two_connected(seed, 4 + seed % 10)
        want = _reference_spqr(g)
        got = build_spqr(g)
        assert to_debug_lines(got) == to_debug_lines(want), seed
        for attr in ("root", "parent", "depth", "children", "h_map", "l_map", "nodes_of_vertex"):
            assert getattr(got, attr) == getattr(want, attr), (seed, attr)
        assert _vid_ranked(got) == _vid_ranked(want), seed
        kinds.add(tuple(sorted({node.kind for node in got.nodes})))
    # the corpus has lone R nodes, lone cycles, and trees mixing all three kinds
    assert {("R",), ("S",), ("P", "R", "S"), ("P", "S")} <= kinds


def _classify_by_degrees(edges):
    """Reference for the kind spqr._split_components gives a skeleton: a
    dipole on two vertices, a cycle when every vertex has degree 2, else
    3-connected."""
    deg = Counter(x for e in edges for x in (e.u, e.v))
    if len(deg) == 2:
        return "P"
    return "S" if set(deg.values()) == {2} else "R"


def _merge_to_fixed_point(skeletons, vmap, merges):
    """Reference for the merge pass of spqr._assemble: merge the lowest
    virtual edge joining two dipoles or two cycles into the lower nid and
    rescan every virtual edge, until none is left.  Counts the merges by
    kind into `merges`.  Also the dipole merging of the one-class-at-a-time
    splitter, which spqr._assemble no longer does."""
    while True:
        candidate = None
        for vid in sorted(vmap):
            x, y = vmap[vid]
            kx, ky = _classify_by_degrees(skeletons[x]), _classify_by_degrees(skeletons[y])
            if kx == ky and kx in "SP":
                candidate = (vid, min(x, y), max(x, y), kx)
                break
        if candidate is None:
            return skeletons, vmap
        vid, keep, drop, kind = candidate
        merges[kind] += 1
        merged = [e for e in skeletons[keep] if not (e.kind == VIRTUAL and e.ref == vid)]
        merged += [e for e in skeletons[drop] if not (e.kind == VIRTUAL and e.ref == vid)]
        skeletons[keep] = merged
        del skeletons[drop]
        del vmap[vid]
        for other, members in vmap.items():
            vmap[other] = [keep if nid == drop else nid for nid in members]


def theta_graph(seed, n):
    """Poles 0 and 1 joined by paths of 1-3 inner vertices (plus, by seed,
    the edge 0-1); once two paths join the poles and n/2 vertices are used,
    each new path instead runs parallel to a seeded existing edge, so thetas
    nest inside thetas."""
    rng = random.Random(seed)
    edges = [(0, 1)] if rng.random() < 0.5 else []
    poles_joined = len(edges)
    m = 2
    while m < n:
        if poles_joined < 2 or m < n // 2:
            a, b = 0, 1
            poles_joined += 1
        else:
            a, b = rng.choice(edges)
        size = min(rng.randint(1, 3), n - m)
        path = [a, *range(m, m + size), b]
        edges += zip(path, path[1:])
        m += size
    if poles_joined < 2:
        edges.append((0, 1))
    return Graph.build(n, edges)


def _merge_corpus():
    for seed in range(60):
        yield ear_graph(seed, 6 + seed)
        yield ear_graph(seed, 12 + seed, window=5)
        yield theta_graph(seed, 5 + seed)
        yield random_two_connected(seed + 900, 5 + seed % 12)


def test_one_merge_pass_matches_the_fixed_point_loop():
    merges = Counter()
    for g in _merge_corpus():
        edges = [SkelEdge(u, v, REAL, eid) for eid, (u, v, _) in enumerate(g.edges)]
        skeletons, vmap, _ = spqr._split_components(edges)
        want = _assemble_classified(*_merge_to_fixed_point(skeletons, vmap, merges))
        got = build_spqr(g)
        assert to_debug_lines(got) == to_debug_lines(want), g.edges
        for attr in ("tree_edges", "root", "parent", "parent_vid", "depth", "children",
                     "h_map", "l_map", "nodes_of_vertex"):
            assert getattr(got, attr) == getattr(want, attr), (g.edges, attr)
        assert got.nodes == want.nodes
        for node in got.nodes:
            assert node.kind == _classify_by_degrees(node.edges)
    # the corpus glues cycles to cycles, and the split never makes two
    # dipoles adjacent
    assert merges["S"] >= 500 and merges["P"] == 0, merges


def _find_pair_or_bundle(vertices, endpoint_pairs):
    """The pair search of the one-class-at-a-time splitter: the first pair
    in lexicographic order whose removal leaves two or more components (its
    a-b edges, if any, as one more class), or that carries two or more
    parallel edges on three or more vertices (the bundle against the rest);
    a cut pair wins over a bundle on the same pair."""
    hit = spqr._find_pair(vertices, endpoint_pairs)
    mult = Counter(tuple(sorted(p)) for p in endpoint_pairs)
    bundle = min((pair for pair, k in mult.items() if k >= 2), default=None)
    if bundle is not None and len(vertices) > 2 and (hit is None or bundle < hit[:2]):
        parallel = [i for i, p in enumerate(endpoint_pairs) if tuple(sorted(p)) == bundle]
        rest = [i for i in range(len(endpoint_pairs)) if i not in parallel]
        return (*bundle, [parallel, rest])
    if hit is None:
        return None
    a, b, classes, ab = hit
    return a, b, classes + ([ab] if ab else [])


def _choose_side(classes):
    """Isolate the smallest class of size >= 2 against everything else."""
    eligible = sorted(
        (cls for cls in classes if len(cls) >= 2), key=lambda c: (len(c), min(c))
    )
    if not eligible:
        raise AssertionError("a separation pair always yields a class of >= 2 edges")
    return set(eligible[0])


def _split_one_class(edges, virtual):
    """The split rule before every class of a pair was split at once: one
    class against the rest of the skeleton, which gets one virtual edge, so a
    wide dipole is built up over many splits, each searching the rest again,
    and adjacent dipoles are merged afterwards."""
    pairs = [(e.u, e.v) for e in edges]
    hit = _find_pair_or_bundle(sorted({x for p in pairs for x in p}), pairs)
    if hit is None:
        return None
    a, b, classes = hit
    side = _choose_side(classes)
    virt = virtual(a, b)
    return [
        [e for i, e in enumerate(edges) if i in side] + [virt],
        [e for i, e in enumerate(edges) if i not in side] + [virt],
    ]


def k2_graph(k, pole_edge):
    """K_{2,k}: poles 0 and 1 joined by k paths through one vertex each,
    plus the edge 0-1 when `pole_edge` is set."""
    edges = [(0, 1)] if pole_edge else []
    for x in range(2, k + 2):
        edges += [(0, x), (x, 1)]
    return Graph.build(k + 2, edges)


def _split_corpus():
    for seed in range(400):
        yield ear_graph(seed, 5 + seed % 16)
        yield ear_graph(seed, 8 + seed % 14, window=4)
        yield theta_graph(seed, 5 + seed % 14)
        yield random_two_connected(seed + 2000, 4 + seed % 9)
        yield seeded_two_connected(seed + 2000, 4 + seed % 9)
    for k in range(2, 40):
        yield k2_graph(k, True)
        if k >= 3:
            yield k2_graph(k, False)


def test_all_classes_at_once_matches_the_one_class_splitter(monkeypatch):
    graphs = list(_split_corpus())
    assert len(graphs) >= 2000
    want = []
    for g in graphs:
        edges = [SkelEdge(u, v, REAL, eid) for eid, (u, v, _) in enumerate(g.edges)]
        skeletons, vmap = _split_recursively(edges, _split_one_class)
        want.append(_assemble_classified(*_merge_to_fixed_point(skeletons, vmap, Counter())))
    searched = []
    real_find_pair = spqr._find_pair
    with monkeypatch.context() as patch:
        patch.setattr(
            spqr,
            "_find_pair",
            lambda verts, pairs, clear=frozenset(): searched.append(pairs)
            or real_find_pair(verts, pairs, clear),
        )
        got = [build_spqr(g) for g in graphs]
    for g, tree, ref in zip(graphs, got, want):
        assert canonical_form(tree) == canonical_form(ref), g.edges
    # no skeleton the search sees has parallel edges
    assert len(searched) > 1000
    for pairs in searched:
        assert len({frozenset(p) for p in pairs}) == len(pairs), pairs


def test_wide_dipole_is_one_p_node_from_one_search(monkeypatch):
    for k, pole_edge in [(2, True), *itertools.product((3, 4, 40), (False, True))]:
        searched = []
        real_find_pair = spqr._find_pair
        with monkeypatch.context() as patch:
            patch.setattr(
                spqr, "_find_pair", lambda *args: searched.append(1) or real_find_pair(*args)
            )
            tree = build_spqr(k2_graph(k, pole_edge))
        assert len(searched) == 1, (k, pole_edge)
        assert sorted(node.kind for node in tree.nodes) == ["P"] + ["S"] * k
        (dipole,) = (node for node in tree.nodes if node.kind == "P")
        assert dipole.vertices == {0, 1}
        assert len(dipole.real_edges()) == pole_edge and len(dipole.virtual_edges()) == k
        assert all(len(node.vertices) == 3 for node in tree.nodes if node.kind == "S")


def test_pair_search_skips_vertices_in_no_pair(monkeypatch):
    # thinning leaves cycles of ears, so most vertices lie in no pair
    g = ear_graph(1, 400)
    thinned = g.subgraph(eid for eid, keep in enumerate(_needed_edges(g)) if keep)
    corpus = [thinned, ear_graph(3, 120, window=6), *itertools.islice(_merge_corpus(), 80)]
    real_find_pair, real_cut_gains = spqr._find_pair, spqr._cut_gains
    runs = []
    with monkeypatch.context() as patch:
        patch.setattr(
            spqr, "_find_pair", lambda verts, pairs, clear=frozenset(): real_find_pair(verts, pairs)
        )
        want = [build_spqr(h) for h in corpus]
    with monkeypatch.context() as patch:
        patch.setattr(spqr, "_cut_gains", lambda *args: runs.append(1) or real_cut_gains(*args))
        assert build_spqr(thinned) == want[0]
    assert len(runs) <= 300  # 3291 without the pruning
    for h, tree in zip(corpus, want):
        assert build_spqr(h) == tree


def _cycle_order_by_adjacency(node, anchor_ref=None):
    """Reference for SpqrNode.cycle_order: the walk that scans a neighbour
    list per vertex for the first edge it did not arrive on."""
    adj = {x: [] for x in node.vertices}
    for e in node.edges:
        adj[e.u].append((e.v, e))
        adj[e.v].append((e.u, e))
    if anchor_ref is not None:
        anchor = next(e for e in node.virtual_edges() if e.ref == anchor_ref)
        start = min(anchor.u, anchor.v)
        first = next(y for y, e in adj[start] if e is not anchor)
    else:
        anchor = None
        start = min(node.vertices)
        first = min(y for y, _ in adj[start])
    order, edges = [start], []
    cur = first
    edge = next(e for y, e in adj[start] if y == first and e is not anchor)
    while cur != start:
        order.append(cur)
        edges.append(edge)
        cur, edge = next((y, e) for y, e in adj[cur] if e is not edge)
    edges.append(edge)
    return order, edges


def test_cycle_walk_matches_the_adjacency_scan():
    walks = 0
    for g in _merge_corpus():
        for node in build_spqr(g).nodes:
            if node.kind != "S":
                continue
            for ref in (None, *(e.ref for e in node.virtual_edges())):
                assert node.cycle_order(ref) == _cycle_order_by_adjacency(node, ref), g.edges
                walks += 1
    assert walks >= 5000


def test_cycle_order_rejects_an_anchor_the_node_does_not_hold():
    tree = build_spqr(FIG)
    s_node = next(node for node in tree.nodes if node.kind == "S" and node.virtual_edges())
    vid = s_node.virtual_edges()[0].ref
    order, edges = s_node.cycle_order(vid)
    assert edges[-1].ref == vid and order[0] == min(edges[-1].pair())
    foreign = max(ref for _, _, ref in tree.tree_edges) + 1
    with pytest.raises(ValueError, match=f"node {s_node.nid} holds no virtual edge {foreign}"):
        s_node.cycle_order(foreign)


def test_k4_is_single_r_node():
    tree = build_spqr(K4)
    assert [node.kind for node in tree.nodes] == ["R"]


def test_figure_graph_node_kinds_and_skeletons():
    tree = build_spqr(FIG)
    assert sorted(node.kind for node in tree.nodes) == ["P", "R", "S", "S", "S"]
    by_kind = {}
    for node in tree.nodes:
        by_kind.setdefault(node.kind, []).append(node)
    assert by_kind["P"][0].vertices == frozenset({0, 1})
    assert by_kind["R"][0].vertices == frozenset({4, 5, 6, 7, 8, 9})
    s_vertex_sets = sorted(sorted(node.vertices) for node in by_kind["S"])
    assert s_vertex_sets == [[0, 1, 2], [0, 1, 3], [0, 1, 4, 5]]
    # every copy set of a vertex spans a connected piece of the tree with a
    # unique highest node
    assert tree.h_map[0] == tree.h_map[1]
    assert tree.nodes[tree.h_map[4]].kind in "SR"


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_spqr(Graph.build(3, [(0, 1), (1, 2)]))
    with pytest.raises(ValueError):
        build_spqr(Graph.build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)]))


def test_two_cuts_examples():
    assert enumerate_two_cuts(build_spqr(cycle(5))) == {
        frozenset(p) for p in ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))
    }
    assert enumerate_two_cuts(build_spqr(K4)) == set()


def test_two_cuts_match_brute_force():
    for seed in range(40):
        g = random_two_connected(seed, 5 + seed % 5)
        tree = build_spqr(g)
        assert enumerate_two_cuts(tree) == brute_two_cuts(g), seed


def test_structure_invariants_on_random_graphs():
    for seed in range(25):
        g = random_two_connected(seed + 200, 5 + seed % 5)
        tree = build_spqr(g)
        # real edges: each input edge in exactly one skeleton
        real_refs = [e.ref for node in tree.nodes for e in node.edges if e.kind == REAL]
        assert sorted(real_refs) == list(range(len(g.edges)))
        # virtual edges: each in exactly two skeletons, tied to one tree edge
        virt_refs = [e.ref for node in tree.nodes for e in node.edges if e.kind == VIRTUAL]
        assert sorted(set(virt_refs)) == sorted(vid for _, _, vid in tree.tree_edges)
        assert all(virt_refs.count(vid) == 2 for vid in set(virt_refs))
        # size bound and remerge identity
        assert tree.skeleton_edge_total() <= 3 * len(g.edges) - 6
        assert remerged_edges(tree) == sorted(
            (min(u, v), max(u, v)) for u, v, _ in g.edges
        )
        # no adjacent S-S or P-P survived postprocessing
        for x, y, _ in tree.tree_edges:
            kx, ky = tree.nodes[x].kind, tree.nodes[y].kind
            assert not (kx == ky and kx in "SP")
        # node classification law
        for node in tree.nodes:
            if node.kind == "P":
                assert len(node.vertices) == 2 and len(node.edges) >= 3
            elif node.kind == "S":
                order, edges = node.cycle_order()
                assert len(order) == len(node.vertices) == len(edges)
            else:
                skel = Graph.build(
                    g.n, [(e.u, e.v) for e in node.edges]
                )
                touched = sorted(node.vertices)
                assert len(touched) >= 4
                from streamnd.graph import pair_connectivity

                for a, b in itertools.combinations(touched, 2):
                    assert pair_connectivity(skel, a, b, V) >= 3
        # copies of a vertex form a connected subtree with a unique top
        for x, nids in tree.nodes_of_vertex.items():
            tops = [nid for nid in nids if tree.parent[nid] not in nids or nid == tree.root]
            assert len(tops) == 1
            assert tops[0] == tree.h_map[x]
        # two adjacent nodes share exactly their virtual edge's endpoints
        pair_of = {e.ref: set(e.pair()) for node in tree.nodes for e in node.virtual_edges()}
        for x, y, vid in tree.tree_edges:
            assert tree.nodes[x].vertices & tree.nodes[y].vertices == pair_of[vid]
        # so a vertex of a node x lies on x's parent pair iff x is not its h_map node
        for node in tree.nodes:
            parent_pair = pair_of.get(tree.parent_vid[node.nid], set())
            for z in node.vertices:
                assert (z in parent_pair) == (tree.h_map[z] != node.nid)


def test_canonical_form_is_order_insensitive():
    g = random_two_connected(7, 8)
    shuffled = list(g.edges)
    random.Random(1).shuffle(shuffled)
    other = Graph.build(g.n, shuffled)
    assert canonical_form(build_spqr(g)) == canonical_form(build_spqr(other))


def test_debug_serializer_shape():
    lines = to_debug_lines(build_spqr(FIG))
    assert len(lines) == 5
    for line in lines:
        head, reals, virts = line.split(" | ")
        nid, kind, verts = head.split(" ")
        assert kind in "SPR"
        assert all("-" in item for item in reals.split(",") if item)


@pytest.mark.parametrize(
    "seed, window, digest",
    [(1, None, "7ad42d9740719869"), (2, None, "f8456753fe1eb813"), (1, 6, "096b5b30caa593e1")],
)
def test_long_split_chains_keep_their_numbering(seed, window, digest):
    # trees of 139-217 nodes from long chains of splits: every node number,
    # class order and virtual-edge id is pinned, not just the tree's shape
    tree = build_spqr(ear_graph(seed, 400, window=window))
    assert len(tree.nodes) >= 50
    assert short_digest(to_debug_lines(tree)) == digest
