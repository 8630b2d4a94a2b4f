import random
from fractions import Fraction
from itertools import chain

import pytest

from streamnd import (
    BucketScheme,
    Cap1State,
    Cap2State,
    ConnectivityMode,
    Family,
    Graph,
    InstanceGenerator,
    LinkRec,
    RequirementMap,
    RootedTree,
    brute_optimal,
    build_spqr,
    generate,
    is_k_connected,
)
from streamnd import cap2, spqr
from streamnd.cap1 import contracted_mst_links, opt_buckets, unique_links
from streamnd.spqr import REAL, VIRTUAL, SkelEdge
from streamnd.streams import StreamingMst
from streamnd.errors import InfeasibleError, ResourceLimitError

from conftest import canonical_form, ear_graph, seeded_two_connected, short_digest

V = ConnectivityMode.VERTEX
HALF = Fraction(1, 2)


def cycle(n):
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def scheme(w=4):
    return BucketScheme(HALF, w)


def test_preprocess_cycle_base():
    state = Cap2State.from_base(cycle(5), scheme())
    assert [n.kind for n in state.tree.nodes] == ["S"]
    assert len(state.base.edges) == 5
    pos = cap2._cycle_positions(state.tree, state.tree.nodes[0])
    assert len(pos) == 5  # no virtual edges, no dummies
    assert all(pt[0] == "v" for pt in pos)
    # the lone S node holds every vertex, so each side map has its one entry
    assert state._sides == {z: {0: pos[("v", z)]} for z in range(5)}


def test_preprocess_removes_chord_and_matches_minimal_tree():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    state = Cap2State.from_base(g, scheme())
    assert len(state.base.edges) == 4
    stored = state.stored_links()
    assert [(r.u, r.v, r.w, r.synthetic) for r in stored] == [(0, 2, 0, True)]
    assert canonical_form(state.tree) == canonical_form(build_spqr(state.base))


def test_preprocess_minimality_bound():
    for seed in range(10):
        gen = InstanceGenerator(
            seed=seed, family=Family.TWO_CONNECTED, n=8, chords=4, link_count=0,
            ensure_augmentable=False,
        )
        inst = generate(gen)
        state = Cap2State.from_base(inst.base, scheme(8))
        assert len(state.base.edges) <= 2 * inst.base.n - 2
        assert is_k_connected(state.base, 2, V)


def _thin_by_subgraphs(g):
    """Reference for cap2._needed_edges: the thinning loop before it ran on
    one adjacency list, with a new subgraph per trial."""
    keep = list(range(len(g.edges)))
    for eid in sorted(keep, reverse=True):
        trial = [i for i in keep if i != eid]
        if is_k_connected(g.subgraph(trial), 2, V):
            keep = trial
    removed = [g.edges[i] for i in range(len(g.edges)) if i not in set(keep)]
    return keep, removed


def _thinning_corpus():
    rng = random.Random(11)
    for seed in range(120):
        g = seeded_two_connected(seed + 1000, 4 + seed % 9)
        # parallel copies, sometimes reversed, at random positions
        edges = list(g.edges)
        for u, v, w in rng.sample(edges, rng.randint(0, 3)):
            edges.insert(rng.randint(0, len(edges)), (v, u, w + 1))
        yield Graph.build(g.n, edges)
    for seed in range(40):
        yield generate(
            InstanceGenerator(
                seed=seed, family=Family.TWO_CONNECTED, n=8 + seed % 5, chords=3,
                link_count=0, ensure_augmentable=False,
            )
        ).base


def test_thinning_matches_subgraph_loop():
    for g in _thinning_corpus():
        keep, removed = _thin_by_subgraphs(g)
        needed = cap2._needed_edges(g)
        assert [eid for eid, k in enumerate(needed) if k] == keep, g.edges
        assert [e for e, k in zip(g.edges, needed) if not k] == removed, g.edges
        state = Cap2State.from_base(g, scheme())
        assert state.base == g.subgraph(keep)


def _is_simple(g):
    return len({frozenset((u, v)) for u, v, _ in g.edges}) == len(g.edges)


def test_thinned_base_is_simple_and_decomposes_alone():
    # from_base checks g once while thinning; the thinned base must be simple
    # (the parallel copies gone) and decompose to the same tree on its own
    multigraphs = 0
    for g in chain(_thinning_corpus(), _side_map_corpus()):
        multigraphs += not _is_simple(g)
        state = Cap2State.from_base(g, scheme())
        assert _is_simple(state.base), g.edges
        assert state.tree == build_spqr(state.base), g.edges
    assert multigraphs >= 60


def test_preprocess_rejects_bad_base():
    with pytest.raises(ValueError):
        Cap2State.from_base(Graph.build(4, [(0, 1), (1, 2), (2, 3)]), scheme())
    with pytest.raises(ValueError):
        Cap2State.from_base(cycle(3), scheme())


def test_dummy_positions_cover_virtual_edges():
    # C4 with a pendant triangle forces a split and dummies on both sides
    g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 2)])
    state = Cap2State.from_base(g, scheme())
    tree = state.tree
    for node in tree.nodes:
        if node.kind != "S":
            continue
        pos = cap2._cycle_positions(tree, node)
        dummies = {pt[1] for pt in pos if pt[0] == "d"}
        assert dummies == {e.ref for e in node.virtual_edges()}
        assert sorted(pos.values()) == list(range(len(pos)))
        # the parent dummy is the default position 0
        if node.nid != tree.root:
            assert pos[("d", tree.parent_vid[node.nid])] == 0
    # one side map per base vertex
    assert set(state._sides) == set(range(g.n))


def _reference_side_maps(tree):
    """Reference for the S-node side maps and P-node supernode maps: vertex
    sets per subtree, each child found through `tree_edges`, and the parent
    side filled with the parent dummy.  Returns the dense maps (per S node,
    every vertex's cycle position), the per-vertex side maps (the same
    positions without the parent-dummy entries) and the supernode maps."""
    subtree = {}

    def below(x):
        if x not in subtree:
            verts = set(tree.nodes[x].vertices)
            for c in tree.children[x]:
                verts |= below(c)
            subtree[x] = frozenset(verts)
        return subtree[x]

    dense, sides, smaps = {}, {z: {} for z in tree.h_map}, {}
    for node in tree.nodes:
        nid = node.nid
        if node.kind == "P":
            smaps[nid] = {
                z: child for child in tree.children[nid] for z in below(child) - node.vertices
            }
        if node.kind != "S":
            continue
        fmap = {z: ("v", z) for z in node.vertices}
        parent_vid = tree.parent_vid[nid]
        for e in node.virtual_edges():
            if e.ref == parent_vid:
                continue
            x, y = next((x, y) for x, y, vid in tree.tree_edges if vid == e.ref)
            for z in below(y if x == nid else x) - node.vertices:
                assert fmap.get(z, ("d", e.ref)) == ("d", e.ref), "claimed twice"
                fmap[z] = ("d", e.ref)
        pos = cap2._cycle_positions(tree, node)
        for z, pt in fmap.items():
            sides[z][nid] = pos[pt]
        if parent_vid is not None:
            for z in set(tree.h_map) - below(nid):
                fmap[z] = ("d", parent_vid)
        assert set(fmap) == set(tree.h_map)
        dense[nid] = {z: pos[pt] for z, pt in fmap.items()}
    return dense, sides, smaps


def _side_map_corpus():
    for seed in range(40):
        yield generate(
            InstanceGenerator(
                seed=seed, family=Family.TWO_CONNECTED, n=8 + seed, chords=1 + seed % 6,
                link_count=0, ensure_augmentable=False,
            )
        ).base
    for seed in range(40):
        yield ear_graph(seed, 10 + 2 * seed)
    for seed in range(40):
        yield ear_graph(seed, 30 + 2 * seed, window=6)


def test_side_maps_match_subtree_vertex_sets():
    nodes = depth = 0
    for g in _side_map_corpus():
        state = Cap2State.from_base(g, scheme())
        dense, sides, _ = _reference_side_maps(state.tree)
        assert state._sides == sides
        nodes += len(dense)
        depth = max(depth, *state.tree.depth)
    # the corpus reaches deep trees with many S nodes
    assert nodes >= 1000 and depth >= 20


def _numbered_backwards(skeletons, vmap, kinds):
    """The output of spqr._split_components with node and virtual-edge ids
    both reversed."""
    top_nid, top_vid = max(skeletons), max(vmap, default=0)

    def flip(e):
        return e._replace(ref=top_vid - e.ref) if e.kind == VIRTUAL else e

    return (
        {top_nid - nid: [flip(e) for e in edges] for nid, edges in skeletons.items()},
        {top_vid - vid: [top_nid - x for x in pair] for vid, pair in vmap.items()},
        {top_nid - nid: kind for nid, kind in kinds.items()},
    )


def test_side_maps_read_no_construction_numbers():
    # the deepest-copy tie and the root cycle's anchor are structural: with
    # nodes and virtual edges numbered backwards, every vertex keeps its
    # deepest copy and its cycle positions
    ties = 0
    for g in _side_map_corpus():
        g = g.subgraph(eid for eid, keep in enumerate(cap2._needed_edges(g)) if keep)
        edges = [SkelEdge(u, v, REAL, eid) for eid, (u, v, _) in enumerate(g.edges)]
        views = []
        for renumber in (lambda *split: split, _numbered_backwards):
            tree = spqr._assemble(*renumber(*spqr._split_components(edges)))
            name = {node.nid: (node.kind, node.vertices) for node in tree.nodes}
            sides = cap2._sides(tree)
            views.append((
                {z: name[x] for z, x in tree.l_map.items()},
                {z: {name[x]: pos for x, pos in side.items()} for z, side in sides.items()},
            ))
            for z, x in tree.l_map.items():
                ties += sum(tree.depth[y] == tree.depth[x] for y in tree.nodes_of_vertex[z]) > 1
        assert views[0] == views[1]
    assert ties >= 100


def _minmax_by_scan(dense, links):
    """Reference for the S-node Min/Max slots: every link visits every S
    node and reads both endpoints' positions from the dense reference maps.
    `links` holds (u, v, w, bucket, synthetic) in arrival order."""
    minmax = {}
    for lid, (u, v, w, j, synthetic) in enumerate(links):
        rec = LinkRec(u, v, w, lid, synthetic)
        for nid, fmap in dense.items():
            pu, pv = fmap[u], fmap[v]
            if pu == pv:  # a self-loop too
                continue
            for pos, other in ((pu, pv), (pv, pu)):
                slot = minmax.get((nid, pos, j))
                if slot is None:
                    minmax[(nid, pos, j)] = [(rec, other), (rec, other)]
                    continue
                if other < slot[0][1]:
                    slot[0] = (rec, other)
                if other > slot[1][1]:
                    slot[1] = (rec, other)
    return minmax


def test_side_map_links_match_the_scan_of_every_s_node():
    slots = entries = dense_entries = 0
    for seed, g in enumerate(_side_map_corpus()):
        rng = random.Random(seed)
        state = Cap2State.from_base(g, BucketScheme(HALF))
        needed = cap2._needed_edges(g)
        links = [(u, v, 0, 0, True) for (u, v, _), keep in zip(g.edges, needed) if not keep]
        links += _random_stream(rng, state, g.n, per_vertex=3)
        tree = state.tree
        dense, _, _ = _reference_side_maps(tree)
        assert state._minmax == _minmax_by_scan(dense, links), seed
        slots += len(state._minmax)
        # per vertex: its S holders, and at most one entry per strict ancestor
        held = sum(
            sum(tree.nodes[x].kind == "S" for x in tree.nodes_of_vertex[z])
            + tree.depth[tree.h_map[z]]
            for z in tree.h_map
        )
        size = sum(map(len, state._sides.values()))
        assert size <= held
        entries += size
        dense_entries += sum(map(len, dense.values()))
    # tens of thousands of slots, from far fewer side-map entries than the
    # n * (#S nodes) dense positions
    assert slots >= 40000 and 20000 <= entries <= dense_entries // 3


def _child_below(tree, x, z):
    while tree.parent[z] != x:
        z = tree.parent[z]
    return z


def _cap1_reference(tree, links):
    """cap1's per-vertex rules before `LinkCore`: the dictionary recomputes
    the incumbent's LCA, and the MST sits at the link's LCA anchor.  `links`
    holds (u, v, w, bucket, synthetic) in arrival order."""
    slots, msts = {}, {}
    for lid, (u, v, w, j, synthetic) in enumerate(links):
        rec = LinkRec(u, v, w, lid, synthetic)
        if u == v:
            continue
        anchor = tree.lca(u, v)
        for x in (u, v):
            cur = slots.get((x, j))
            if cur is None:
                slots[(x, j)] = rec
            else:
                other = cur.v if cur.u == x else cur.u
                if tree.depth[anchor] < tree.depth[tree.lca(x, other)]:
                    slots[(x, j)] = rec
        if u != anchor and v != anchor:
            a, b = _child_below(tree, anchor, u), _child_below(tree, anchor, v)
            if a != b:
                if anchor not in msts:
                    msts[anchor] = StreamingMst(tree.children[anchor])
                msts[anchor].insert(a, b, w, payload=rec)
    return slots, msts


def _cap2_reference(tree, links):
    """cap2's dictionary rule, with the LCA taken on both sides, and an MST
    insert at every P node whose supernode map (subtree vertex sets) puts
    the endpoints below two different children."""
    _, _, smaps = _reference_side_maps(tree)
    slots = {}
    msts = {nid: StreamingMst(tree.children[nid]) for nid in smaps}
    for lid, (u, v, w, j, synthetic) in enumerate(links):
        rec = LinkRec(u, v, w, lid, synthetic)
        if u == v:
            continue
        for a, b in ((u, v), (v, u)):
            x = tree.h_map[a]
            key = tree.depth[tree.lca(x, tree.l_map[b])]
            cur = slots.get((x, j))
            if cur is None or key < cur[1]:
                slots[(x, j)] = (rec, key)
        for nid, smap in smaps.items():
            su, sv = smap.get(u), smap.get(v)
            if su is not None and sv is not None and su != sv:
                msts[nid].insert(su, sv, w, payload=rec)
    return slots, msts


def _reference_picks(tree, h, l, slots, msts, opt):
    """The dictionary and MST picks of the old `sol_from_opt`s."""
    picked = [slots[(h[a], j)][0] for u, v, j in opt for a in (u, v)]
    for x, mst in msts.items():
        good = {
            c
            for c in tree.children[x]
            if any(
                tree.lca(h[a], c) == c and tree.lca(l[b], x) != x
                for u, v, _ in opt
                for a, b in ((u, v), (v, u))
            )
        }
        picked.extend(contracted_mst_links(mst, good))
    return unique_links(picked)


def _random_stream(rng, state, n, per_vertex=2):
    """Feed per_vertex * n seeded links, a few self-loops among them, to the
    state; returns them as (u, v, w, bucket, synthetic)."""
    links = []
    for _ in range(per_vertex * n):
        u, v, w = rng.randrange(n), rng.randrange(n), rng.randint(1, 40)
        state.process_link(u, v, w)
        links.append((u, v, w, state.scheme.bucket_of(w), False))
    return links


def _check_core(rng, state, h, l, ref_slots, ref_msts, links, others=()):
    """Every dictionary slot, every MST's stored edges, `stored_links()`
    (with the state's `others` records) and the core's `sol_from_opt` picks
    on seeded subsets of the stream must equal the reference's."""
    core = state._core
    assert core._dict == ref_slots
    assert {x: m.edges() for x, m in core._msts.items()} == {
        x: m.edges() for x, m in ref_msts.items() if m.edges()
    }
    assert state.stored_links() == unique_links(
        chain(
            (rec for rec, _ in ref_slots.values()),
            (e.payload for m in ref_msts.values() for e in m.edges()),
            others,
        )
    )
    streamed = [(u, v, w) for u, v, w, _, synthetic in links if u != v and not synthetic]
    for _ in range(4):
        opt = rng.sample(streamed, rng.randint(1, min(6, len(streamed))))
        bucketed = [(u, v, state.scheme.bucket_of(w)) for u, v, w in opt]
        picks = _reference_picks(state.tree, h, l, ref_slots, ref_msts, bucketed)
        assert unique_links(core.sol_from_opt(bucketed)) == picks
        if isinstance(state, Cap1State):
            assert state.sol_from_opt(opt) == picks
    return len(core._msts)


def test_link_core_matches_the_per_node_rules():
    msts = [0, 0]  # cap1, cap2
    depth = 0
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(3, 60)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))]
        # trees root at vertex 0: swap a random vertex into that place
        root = rng.randrange(n)
        swap = {0: root, root: 0}
        g = Graph.build(n, [(swap.get(u, u), swap.get(v, v)) for u, v in edges])
        state = Cap1State.from_base(g, BucketScheme(HALF))
        tree, extras = RootedTree.spanning(g)
        links = [(*g.edges[eid][:2], 0, 0, True) for eid in extras]
        links += _random_stream(rng, state, n)
        slots, ref_msts = _cap1_reference(tree, links)
        # the old dictionary kept no depth: it is the LCA depth of the record
        ref_slots = {
            key: (rec, tree.depth[tree.lca(rec.u, rec.v)]) for key, rec in slots.items()
        }
        ids = range(n)
        msts[0] += _check_core(rng, state, ids, ids, ref_slots, ref_msts, links)
    for seed in range(80):
        rng = random.Random(seed)
        g = ear_graph(seed, 10 + seed, window=6 if seed % 2 else None)
        state = Cap2State.from_base(g, BucketScheme(HALF))
        needed = cap2._needed_edges(g)
        links = [(u, v, 0, 0, True) for (u, v, _), keep in zip(g.edges, needed) if not keep]
        links += _random_stream(rng, state, g.n)
        tree = state.tree
        ref_slots, ref_msts = _cap2_reference(tree, links)
        minmax = [rec for lo_hi in state._minmax.values() for rec, _ in lo_hi]
        msts[1] += _check_core(
            rng, state, tree.h_map, tree.l_map, ref_slots, ref_msts, links, minmax
        )
        depth = max(depth, *tree.depth)
    # hundreds of vertex and P-node MSTs, on SPQR trees that run deep
    assert msts[0] >= 600 and msts[1] >= 150 and depth >= 20


def test_single_s_node_minmax_updates():
    state = Cap2State.from_base(cycle(5), scheme())
    state.process_link(1, 3, 1)
    j = state.scheme.bucket_of(1)
    lo, hi = state._minmax[(0, state._sides[1][0], j)]
    assert lo[0].triple() == (1, 3, 1) and hi[0].triple() == (1, 3, 1)
    lo, hi = state._minmax[(0, state._sides[3][0], j)]
    assert lo[0].triple() == (1, 3, 1)


def test_minmax_tie_keeps_incumbent():
    state = Cap2State.from_base(cycle(5), scheme())
    state.process_link(1, 3, 1)
    state.process_link(3, 1, 1)  # same positions on the cycle, later arrival
    j = state.scheme.bucket_of(1)
    lo, hi = state._minmax[(0, state._sides[1][0], j)]
    assert lo[0].lid == hi[0].lid == 0


def test_dict_tie_keeps_incumbent():
    state = Cap2State.from_base(cycle(5), scheme())
    state.process_link(0, 2, 1)
    state.process_link(0, 3, 1)  # same tree node, same lca depth
    j = state.scheme.bucket_of(1)
    assert state._core._dict[(0, j)][0].lid == 0


def test_finalize_c4_needs_both_diagonals():
    state = Cap2State.from_base(cycle(4), scheme())
    state.process_link(0, 2, 1)
    state.process_link(1, 3, 1)
    res = state.finalize()
    assert sorted(r.triple() for r in res.solution) == [(0, 2, 1), (1, 3, 1)]
    assert res.weight == 2


@pytest.mark.parametrize(
    "link",
    [(-1, 2, 1), (0, 99, 1), (0, 4, 1), (1.0, 3, 1)]  # n = 4
    + [(0, 2, 9), (0, 2, -1), (0, 2, 2.5)],  # max_weight 4
    ids=str,
)
def test_process_link_rejects_bad_links_before_the_stream_moves(link):
    state = Cap2State.from_base(cycle(4), scheme())
    with pytest.raises(ValueError):
        state.process_link(*link)
    assert state._core._next_lid == 0 and state.stored_links() == ()
    state.process_link(0, 2, 1)
    state.process_link(1, 3, 1)
    assert [r.lid for r in state.finalize().solution] == [0, 1]


def test_bucket_guard_trips_before_the_stream_moves():
    state = Cap2State.from_base(cycle(4), BucketScheme(Fraction(1, 10000)))
    with pytest.raises(ResourceLimitError):
        state.process_link(0, 2, 10**6)
    assert state._core._next_lid == 0 and state.stored_links() == ()
    state.process_link(0, 2, 1)
    state.process_link(1, 3, 1)
    assert [r.lid for r in state.finalize().solution] == [0, 1]


def test_finalize_k4_base_is_free():
    k4 = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    res = Cap2State.from_base(k4, scheme()).finalize()
    assert res.solution == () and res.weight == 0


def test_finalize_infeasible_reports():
    state = Cap2State.from_base(cycle(4), scheme())
    state.process_link(0, 2, 1)
    with pytest.raises(InfeasibleError):
        state.finalize()


def test_sol_from_opt_trivial():
    k4 = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    state = Cap2State.from_base(k4, scheme())
    assert state.sol_from_opt([]) == ()


def test_sol_from_opt_c4_diagonals():
    state = Cap2State.from_base(cycle(4), scheme())
    opt = [(0, 2, 1), (1, 3, 1)]
    for link in opt:
        state.process_link(*link)
    sol = state.sol_from_opt(opt)
    aug = Graph.build(4, list(cycle(4).edges) + [r.triple() for r in sol])
    assert is_k_connected(aug, 3, V)


def test_sol_from_opt_leaves_the_bucket_table_alone():
    state = Cap2State.from_base(cycle(4), BucketScheme(1))
    state.process_link(0, 2, 3)
    state.process_link(1, 3, 3)
    before = state.scheme.bucket_count(), state.space_bound()
    for link in ((1, 3, 100), LinkRec(1, 3, 100, 1), (1, 3, -1), (1, 3, 2.5)):
        with pytest.raises(ValueError):
            state.sol_from_opt([(0, 2, 3), link])
    with pytest.raises(ValueError, match="the optimum must be part of the processed stream"):
        state.sol_from_opt([(0, 2, 3), (1, 3, 100)])
    assert (state.scheme.bucket_count(), state.space_bound()) == before
    assert len(state.sol_from_opt([(0, 2, 3), (1, 3, 3)])) == 2


def test_sol_from_opt_reads_records_and_triples_alike():
    # a LinkRec is a tuple too; it must be read by field, not unpacked
    for seed in range(6):
        inst = generate(
            InstanceGenerator(
                seed=seed, family=Family.TWO_CONNECTED, n=8, chords=2, link_count=3,
                max_links=10,
            )
        )
        scheme = BucketScheme(HALF, max(w for _, _, w in inst.links))
        state = Cap2State.from_base(inst.base, scheme)
        for link in inst.links:
            state.process_link(*link)
        opt_ids, _ = brute_optimal(
            inst.base, inst.links, RequirementMap.uniform(inst.base.n, 3), V
        )
        triples = [inst.links[i] for i in opt_ids]
        recs = [LinkRec(u, v, w, i) for i, (u, v, w) in zip(opt_ids, triples)]
        picks = state.sol_from_opt(triples)
        assert picks and state.sol_from_opt(recs) == picks


def _sol_from_opt_by_scan(state, opt, dense):
    """Reference for Cap2State.sol_from_opt: the Min pick for an endpoint a
    found by scanning every S node for one that holds a off its parent pair,
    with the pair read from the node's parent virtual edge, and positions
    read from the dense reference maps."""
    tree = state.tree
    picked = []

    def lookup_minmax(nid, pos, j, which):
        slot = state._minmax.get((nid, pos, j))
        if slot is None:
            raise ValueError("no stored extreme link")
        return slot[0][0] if which == "min" else slot[1][0]

    def parent_pair(nid):
        vid = tree.parent_vid[nid]
        return next((e.pair() for e in tree.nodes[nid].edges if e.ref == vid
                     and e.kind == VIRTUAL), None)

    opt = opt_buckets(state.scheme, opt)
    for u, v, j in opt:
        for a in (u, v):
            picked.append(state._core._dict[(tree.h_map[a], j)][0])
        meet = tree.lca(tree.l_map[u], tree.l_map[v])
        if tree.nodes[meet].kind == "S":
            fmap = dense[meet]
            if fmap[u] != fmap[v]:
                lo, hi = (u, v) if fmap[u] < fmap[v] else (v, u)
                picked.append(lookup_minmax(meet, fmap[hi], j, "min"))
                picked.append(lookup_minmax(meet, fmap[lo], j, "max"))
        for a, b in ((u, v), (v, u)):
            for nid in dense:
                if a not in tree.nodes[nid].vertices:
                    continue
                ppair = parent_pair(nid)
                if ppair is not None and a in ppair:
                    continue
                if tree.lca(tree.l_map[b], nid) == nid:
                    continue
                picked.append(lookup_minmax(nid, dense[nid][a], j, "min"))
    for nid, mst in state._core._msts.items():
        good = {
            child
            for child in tree.children[nid]
            if any(
                tree.lca(tree.h_map[a], child) == child
                and tree.lca(tree.l_map[b], nid) != nid
                for u, v, _ in opt
                for a, b in ((u, v), (v, u))
            )
        }
        picked.extend(contracted_mst_links(mst, good))
    return unique_links(picked)


def test_sol_from_opt_matches_the_s_node_scan():
    calls = 0
    for seed in range(60):
        g = ear_graph(seed, 12 + seed % 30, window=None if seed % 2 else 6)
        rng = random.Random(seed)
        state = Cap2State.from_base(g, BucketScheme(HALF))
        dense, _, _ = _reference_side_maps(state.tree)
        links = []
        for _ in range(3 * g.n):
            u, v = rng.sample(range(g.n), 2)
            links.append((u, v, rng.randint(1, 50)))
            state.process_link(*links[-1])
        for _ in range(8):
            opt = rng.sample(links, rng.randint(1, 6))
            assert state.sol_from_opt(opt) == _sol_from_opt_by_scan(state, opt, dense), seed
            calls += 1
    assert calls == 480


def test_corpus_bounds_and_mirror():
    eps = HALF
    outputs, mirrors = [], []
    for seed in range(25):
        gen = InstanceGenerator(
            seed=seed, family=Family.TWO_CONNECTED, n=8, chords=2, link_count=3,
            max_links=10,
        )
        inst = generate(gen)
        sch = BucketScheme(eps, max(w for _, _, w in inst.links))
        state = Cap2State.from_base(inst.base, sch)
        for link in inst.links:
            state.process_link(*link)
        res = state.finalize()
        # retention chain: slot count, skeleton size, minimal-base sparsity
        B = sch.bucket_count()
        skel = state.tree.skeleton_edge_total()
        assert len(res.stored) <= 7 * B * skel
        assert skel <= 3 * len(state.base.edges) - 6
        assert len(state.base.edges) <= 2 * inst.base.n - 2
        aug = Graph.build(
            inst.base.n, list(inst.base.edges) + [r.triple() for r in res.solution]
        )
        assert is_k_connected(aug, 3, V)
        opt_ids, opt = brute_optimal(
            inst.base, inst.links, RequirementMap.uniform(inst.base.n, 3), V
        )
        assert res.weight <= (7 + eps) * opt
        sol = state.sol_from_opt([inst.links[i] for i in opt_ids])
        aug = Graph.build(
            inst.base.n, list(inst.base.edges) + [r.triple() for r in sol]
        )
        assert is_k_connected(aug, 3, V)
        # chained ratio: exact solve on the store never loses to the mirror
        assert res.weight <= sum(r.w for r in sol) <= (7 + 6 * eps) * opt
        outputs.append(
            ([r.lid for r in res.stored], [r.lid for r in res.solution], res.weight)
        )
        mirrors.append([r.lid for r in sol])
    # pins which links are kept, chosen and mirrored, not only their bounds;
    # the mirror reads `l_map`, so it has a pin of its own
    assert short_digest(outputs) == "bafb30b4af3007f8"
    assert short_digest(mirrors) == "6a1f5e5968eb3640"


def test_stored_within_space_bound_without_ceiling():
    # the table grows with the links seen, yet bounds what was stored, and
    # the run keeps and chooses what a scheme built to the ceiling would
    for seed in range(12):
        inst = generate(
            InstanceGenerator(
                seed=seed, family=Family.TWO_CONNECTED, n=8, chords=2, link_count=3,
                max_links=10, weight_hi=1000
            )
        )
        runs = []
        ceiling = max(w for _, _, w in inst.links)
        for scheme in (BucketScheme(HALF), BucketScheme(HALF, ceiling)):
            state = Cap2State.from_base(inst.base, scheme)
            for link in inst.links:
                state.process_link(*link)
            res = state.finalize()
            assert len(res.stored) <= state.space_bound()
            count = scheme.bucket_count()
            assert all(scheme.bucket_of(r.w) < count for r in res.stored)
            runs.append(
                ([r.lid for r in res.stored], [r.lid for r in res.solution], res.weight)
            )
        assert runs[0] == runs[1]
