import pytest

from streamnd import (
    ConnectivityMode,
    Family,
    Graph,
    InstanceGenerator,
    RequirementMap,
    brute_optimal,
    exact_solve,
    generate,
    is_k_connected,
    max_disjoint_paths,
    offline_mst_weight,
)
from streamnd.errors import InfeasibleError, ResourceLimitError

from conftest import seeded_graph

V, E = ConnectivityMode.VERTEX, ConnectivityMode.EDGE


def test_brute_optimal_c4_diagonals():
    base = Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    links = [(0, 2, 1), (1, 3, 1)]
    ids, weight = brute_optimal(base, links, RequirementMap.uniform(4, 3), V)
    assert weight == 2 and set(ids) == {0, 1}


def test_brute_optimal_already_feasible():
    base = Graph.build(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    ids, weight = brute_optimal(base, [(0, 1, 9)], RequirementMap.uniform(3, 2), V)
    assert ids == () and weight == 0


def test_brute_optimal_infeasible_and_guard():
    base = Graph.build(3, [(0, 1, 1)])
    with pytest.raises(InfeasibleError):
        brute_optimal(base, [], RequirementMap.from_pairs([(0, 2, 1)]), V)
    with pytest.raises(ResourceLimitError):
        brute_optimal(base, [(0, 1, 1)] * 23, RequirementMap.uniform(3, 1), V)


def test_brute_optimal_rejects_requirement_vertex_outside_graph():
    base = Graph.build(3, [])
    for mode in (V, E, ConnectivityMode.ELEMENT):
        with pytest.raises(ValueError):
            brute_optimal(base, [(0, 1, 1)], RequirementMap.from_pairs([(0, 9, 1)]), mode)
        # a zero requirement adds no need, but its vertices are checked too,
        # as exact_solve checks them
        zero = RequirementMap.from_pairs([(0, 1, 1), (0, 9, 0)])
        with pytest.raises(ValueError):
            brute_optimal(base, [(0, 1, 1)], zero, mode)
        with pytest.raises(ValueError):
            exact_solve(Graph.build(3, [(0, 1, 1)]), zero, mode)
        ids, weight = brute_optimal(
            base, [(0, 1, 1)], RequirementMap.from_pairs([(0, 1, 1), (0, 2, 0)]), mode
        )
        assert ids == (0,) and weight == 1


def test_brute_optimal_agrees_with_exact_solve():
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        g = seeded_graph(seed, 6, p=0.5, wmax=7)
        if len(g.edges) > 12:
            continue
        req = RequirementMap.from_pairs([(0, 1, 1), (2, 5, 2)])
        empty = Graph.build(g.n, ())
        mode = (V, E)[seed % 2]
        try:
            _, opt = brute_optimal(empty, g.edges, req, mode)
            _, got = exact_solve(g, req, mode)
            assert got == opt, seed
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                exact_solve(g, req, mode)
        done += 1


def test_max_disjoint_paths_basics():
    tri = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    assert max_disjoint_paths(tri, 0, 1, V) == 2
    chain = Graph.build(3, [(0, 1), (1, 2)])
    assert max_disjoint_paths(chain, 0, 2, E) == 1
    parallel = Graph.build(2, [(0, 1), (0, 1), (0, 1)])
    assert max_disjoint_paths(parallel, 0, 1, V) == 3


def test_generator_determinism():
    gen = InstanceGenerator(seed=1, family=Family.TREE, n=5, link_count=3)
    a, b = generate(gen), generate(gen)
    assert a.base.edges == b.base.edges and len(a.base.edges) == 4
    assert a.links == b.links


def test_generator_two_connected_is_certified():
    # the generator draws each base once, with no recheck: odd seeds from
    # n = 5 on draw a theta, every other case a cycle plus chords
    for seed in range(201):
        for n in range(3, 13):
            for chords in (2, 3):
                gen = InstanceGenerator(
                    seed=seed, family=Family.TWO_CONNECTED, n=n, chords=chords,
                    ensure_augmentable=False,
                )
                assert is_k_connected(generate(gen).base, 2, V), (seed, n, chords)


@pytest.mark.parametrize("n", [1, 2])
def test_generator_two_connected_needs_three_vertices(n):
    gen = InstanceGenerator(seed=1, family=Family.TWO_CONNECTED, n=n)
    with pytest.raises(RuntimeError, match="could not certify a 2-connected base"):
        generate(gen)


def test_generator_weight_range():
    gen = InstanceGenerator(
        seed=4, family=Family.TREE, n=6, link_count=5, weight_lo=3, weight_hi=5
    )
    inst = generate(gen)
    assert all(3 <= w <= 5 for _, _, w in inst.links)


def test_generator_link_bound():
    gen = InstanceGenerator(
        seed=21, family=Family.TREE, n=8, link_count=4, max_links=12
    )
    assert len(generate(gen).links) <= 12


def test_offline_mst_weight():
    links = [(0, 1, 4), (1, 2, 1), (0, 2, 2)]
    assert offline_mst_weight(range(3), links) == 3
