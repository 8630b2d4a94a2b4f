import random
from fractions import Fraction

import pytest

from streamnd import (
    BucketScheme,
    Cap1State,
    ConnectivityMode,
    Family,
    Graph,
    InstanceGenerator,
    LinkRec,
    RequirementMap,
    RootedTree,
    brute_optimal,
    generate,
    is_k_connected,
)
from streamnd.errors import InfeasibleError, ResourceLimitError

from conftest import short_digest

V = ConnectivityMode.VERTEX
HALF = Fraction(1, 2)


def _tree(edges, n):
    tree, extras = RootedTree.spanning(Graph.build(n, edges))
    assert extras == ()
    return tree


def test_lca_examples():
    chain = _tree([(0, 1), (1, 2)], 3)
    assert chain.lca(1, 2) == 1
    assert chain.lca(2, 2) == 2
    assert chain.lca(0, 2) == 0


def test_lca_matches_ancestor_intersection():
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(2, 50)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        tree = _tree(edges, n)

        def ancestors(x):
            out = [x]
            while x != tree.root:
                x = tree.parent[x]
                out.append(x)
            return out

        for _ in range(20):
            u, v = rng.randrange(n), rng.randrange(n)
            au = ancestors(u)
            common = [a for a in au if a in set(ancestors(v))]
            assert tree.lca(u, v) == common[0]


def test_rooted_tree_validation():
    tree, extras = RootedTree.spanning(Graph.build(3, [(0, 1), (1, 2), (2, 0)]))
    assert tree.parent == (0, 0, 0) and extras == (1,)
    with pytest.raises(ValueError):
        RootedTree.spanning(Graph.build(3, [(0, 1)]))


def test_from_base_needs_three_vertices():
    # an edge or a lone vertex has no 2-vertex-connected augmentation
    for g in (Graph.build(2, [(0, 1)]), Graph.build(1, [])):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            Cap1State.from_base(g, BucketScheme(HALF, 4))
    state = Cap1State.from_base(Graph.build(3, [(0, 1), (1, 2)]), BucketScheme(HALF, 4))
    state.process_link(0, 2, 1)
    assert state.finalize().weight == 1


def test_star_link_updates_dicts_and_mst():
    star = Graph.build(3, [(0, 1), (0, 2)])
    state = Cap1State.from_base(star, BucketScheme(HALF, 4))
    state.process_link(1, 2, 1)
    j = state.scheme.bucket_of(1)
    assert state._core._dict[(1, j)][0].triple() == (1, 2, 1)
    assert state._core._dict[(2, j)][0].triple() == (1, 2, 1)
    assert [(e.a, e.b) for e in state._core._msts[0].edges()] == [(1, 2)]


def test_chain_dictionary_prefers_shallower_lca():
    chain = Graph.build(3, [(0, 1), (1, 2)])
    state = Cap1State.from_base(chain, BucketScheme(HALF, 4))
    state.process_link(2, 0, 1)  # lca 0, depth 0
    state.process_link(2, 1, 1)  # lca 1, depth 1: loses
    j = state.scheme.bucket_of(1)
    assert state._core._dict[(2, j)][0].triple() == (2, 0, 1)


def test_equal_lca_depth_keeps_first_stored():
    star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
    state = Cap1State.from_base(star, BucketScheme(HALF, 4))
    state.process_link(1, 2, 1)
    state.process_link(1, 3, 1)  # same lca depth for vertex 1: incumbent stays
    j = state.scheme.bucket_of(1)
    assert state._core._dict[(1, j)][0].triple() == (1, 2, 1)


BAD_LINKS = (
    (-1, 2, 1),  # negative endpoint, not vertex n-1
    (0, 99, 1),
    (0, 3, 1),  # n = 3
    (1.0, 2, 1),
    (0, 2, 9),  # max_weight 4
    (0, 2, -1),
    (0, 2, 2.5),
    (0, 2, Fraction(3, 2)),
)


@pytest.mark.parametrize("link", BAD_LINKS, ids=str)
def test_process_link_rejects_bad_links_before_the_stream_moves(link):
    chain = Graph.build(3, [(0, 1), (1, 2)])
    state = Cap1State.from_base(chain, BucketScheme(HALF, 4))
    with pytest.raises(ValueError):
        state.process_link(*link)
    core = state._core
    assert core._next_lid == 0 and not core._dict and not core._msts
    state.process_link(0, 2, 3)
    assert [r.lid for r in state.stored_links()] == [0]


def test_bucket_guard_trips_before_the_stream_moves():
    chain = Graph.build(3, [(0, 1), (1, 2)])
    state = Cap1State.from_base(chain, BucketScheme(Fraction(1, 10000)))
    with pytest.raises(ResourceLimitError):
        state.process_link(0, 2, 10**6)
    core = state._core
    assert core._next_lid == 0 and not core._dict and not core._msts
    state.process_link(0, 2, 1)
    assert [r.lid for r in state.stored_links()] == [0]


def test_chain_single_link_solution():
    chain = Graph.build(3, [(0, 1), (1, 2)])
    state = Cap1State.from_base(chain, BucketScheme(HALF, 4))
    state.process_link(0, 2, 3)
    res = state.finalize()
    assert [r.triple() for r in res.solution] == [(0, 2, 3)]
    assert res.weight == 3


def test_star_leaf_cycle_matches_oracle():
    star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
    links = [(1, 2, 1), (2, 3, 1), (3, 1, 1)]
    state = Cap1State.from_base(star, BucketScheme(HALF, 4))
    for link in links:
        state.process_link(*link)
    res = state.finalize()
    _, opt = brute_optimal(star, links, RequirementMap.uniform(4, 2), V)
    assert res.weight == opt


def test_infeasible_link_set_reports():
    chain = Graph.build(3, [(0, 1), (1, 2)])
    state = Cap1State.from_base(chain, BucketScheme(HALF, 4))
    state.process_link(0, 1, 2)  # parallel to a tree edge; cannot help
    with pytest.raises(InfeasibleError):
        state.finalize()


def test_finalize_enforces_solver_guard():
    inst = generate(InstanceGenerator(seed=1, family=Family.TREE, n=18, link_count=4))
    scheme = BucketScheme(HALF, max(w for _, _, w in inst.links))
    state = Cap1State.from_base(inst.base, scheme)
    for link in inst.links:
        state.process_link(*link)
    assert len(state.stored_links()) == 41  # one past exact_solve's default guard
    with pytest.raises(ResourceLimitError):
        state.finalize()


def test_non_tree_base_re_enters_extras_as_zero_weight_links():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    state = Cap1State.from_base(g, BucketScheme(HALF, 4))
    stored = state.stored_links()
    assert any(rec.synthetic and rec.w == 0 for rec in stored)
    res = state.finalize()
    # the cycle edge closes the tree into a ring at zero extra weight
    assert res.weight == 0 and res.solution == ()


def test_sol_from_opt_trivial_and_chain():
    chain = Graph.build(3, [(0, 1), (1, 2)])
    state = Cap1State.from_base(chain, BucketScheme(HALF, 4))
    state.process_link(0, 2, 3)
    assert state.sol_from_opt([]) == ()
    sol = state.sol_from_opt([(0, 2, 3)])
    j = state.scheme.bucket_of(3)
    assert state._core._dict[(0, j)][0] in sol and state._core._dict[(2, j)][0] in sol


def test_sol_from_opt_leaves_the_bucket_table_alone():
    state = Cap1State.from_base(Graph.build(3, [(0, 1), (1, 2)]), BucketScheme(1))
    state.process_link(0, 2, 3)
    before = state.scheme.bucket_count(), state.space_bound()
    for link in ((0, 2, 100), LinkRec(0, 2, 100, 0), (0, 2, -1), (0, 2, 2.5)):
        with pytest.raises(ValueError):
            state.sol_from_opt([link])
    with pytest.raises(ValueError, match="the optimum must be part of the processed stream"):
        state.sol_from_opt([(0, 2, 100)])
    assert (state.scheme.bucket_count(), state.space_bound()) == before
    assert [r.triple() for r in state.sol_from_opt([(0, 2, 3)])] == [(0, 2, 3)]


def test_sol_from_opt_reads_records_and_triples_alike():
    # a LinkRec is a tuple too; it must be read by field, not unpacked
    for seed in range(6):
        inst = generate(
            InstanceGenerator(seed=seed, family=Family.TREE, n=8, link_count=4, max_links=12)
        )
        scheme = BucketScheme(HALF, max(w for _, _, w in inst.links))
        state = Cap1State.from_base(inst.base, scheme)
        for link in inst.links:
            state.process_link(*link)
        opt_ids, _ = brute_optimal(
            inst.base, inst.links, RequirementMap.uniform(inst.base.n, 2), V
        )
        triples = [inst.links[i] for i in opt_ids]
        recs = [LinkRec(u, v, w, i) for i, (u, v, w) in zip(opt_ids, triples)]
        picks = state.sol_from_opt(triples)
        assert picks and state.sol_from_opt(recs) == picks


def test_corpus_bounds_and_mirror():
    eps = HALF
    outputs = []
    for seed in range(25):
        gen = InstanceGenerator(
            seed=seed, family=Family.TREE, n=8, link_count=4, max_links=12
        )
        inst = generate(gen)
        scheme = BucketScheme(eps, max(w for _, _, w in inst.links))
        state = Cap1State.from_base(inst.base, scheme)
        for link in inst.links:
            state.process_link(*link)
        res = state.finalize()
        assert len(res.stored) <= state.space_bound()
        aug = Graph.build(
            inst.base.n, list(inst.base.edges) + [r.triple() for r in res.solution]
        )
        assert is_k_connected(aug, 2, V)
        opt_ids, opt = brute_optimal(
            inst.base, inst.links, RequirementMap.uniform(inst.base.n, 2), V
        )
        assert res.weight <= (3 + eps) * opt
        sol = state.sol_from_opt([inst.links[i] for i in opt_ids])
        aug = Graph.build(
            inst.base.n, list(inst.base.edges) + [r.triple() for r in sol]
        )
        assert is_k_connected(aug, 2, V)
        # chained ratio: exact solve on the store never loses to the mirror
        assert res.weight <= sum(r.w for r in sol) <= (3 + 2 * eps) * opt
        outputs.append(
            (
                [r.lid for r in res.stored],
                [r.lid for r in res.solution],
                res.weight,
                [r.lid for r in sol],
            )
        )
    # pins which links are kept, chosen and mirrored, not only their bounds
    assert short_digest(outputs) == "6567798c2c824103"


def test_stored_within_space_bound_without_ceiling():
    # the table grows with the links seen, yet bounds what was stored, and
    # the run keeps and chooses what a scheme built to the ceiling would
    for seed in range(12):
        inst = generate(
            InstanceGenerator(
                seed=seed, family=Family.TREE, n=8, link_count=4, max_links=12, weight_hi=1000
            )
        )
        runs = []
        ceiling = max(w for _, _, w in inst.links)
        for scheme in (BucketScheme(HALF), BucketScheme(HALF, ceiling)):
            state = Cap1State.from_base(inst.base, scheme)
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


@pytest.mark.parametrize(
    "shape, count, digest",
    [("star", 734, "4185d557bc384994"), ("path", 723, "b0c80b4eabe0d4da")],
)
def test_stored_ids_pinned_on_wide_and_deep_trees(shape, count, digest):
    # on a star every link between two leaves enters the one wide MST at the
    # root; on a path every link meets at an endpoint and only the
    # dictionaries keep it.  The ids were recorded with the DFS-based MST.
    n = 400
    pairs = [(0, i) for i in range(1, n)] if shape == "star" else [(i, i + 1) for i in range(n - 1)]
    state = Cap1State.from_base(Graph.build(n, pairs), BucketScheme(HALF))
    rng = random.Random(1)
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        state.process_link(u, v, rng.randint(1, 8))
    lids = [r.lid for r in state.stored_links()]
    assert len(lids) == count and short_digest(lids) == digest
