import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamnd import (
    ConnectivityMode,
    Graph,
    RequirementMap,
    RootedTree,
    build_spqr,
    check_feasible,
    is_k_connected,
    load_graph,
    load_requirements,
    pair_connectivity,
)
from streamnd import graph
from streamnd.errors import ParseError
from streamnd.oracle import max_disjoint_paths

from conftest import connected_after_removal, ear_graph, seeded_graph

V, E, EL = ConnectivityMode.VERTEX, ConnectivityMode.EDGE, ConnectivityMode.ELEMENT


def test_triangle_vertex_connectivity():
    g = Graph.build(3, [(0, 1), (0, 2), (2, 1)])
    assert pair_connectivity(g, 0, 1, V) == 2


def test_path_cut_vertex():
    g = Graph.build(3, [(0, 2), (2, 1)])
    assert pair_connectivity(g, 0, 1, V) == 1


def test_pair_connectivity_argument_errors():
    g = Graph.build(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        pair_connectivity(g, 1, 1, V)
    with pytest.raises(ValueError):
        pair_connectivity(g, 0, 3, E)


def test_pair_connectivity_matches_packing_oracle():
    for seed in range(20):
        g = seeded_graph(seed, 4 + seed % 5, p=0.5)
        pairs = list(itertools.combinations(range(g.n), 2))[:5]
        flags = list(g.reliable)
        flags[g.n // 2] = False
        g = Graph.build(g.n, g.edges, flags)
        for mode in ConnectivityMode:
            for u, v in pairs:
                assert pair_connectivity(g, u, v, mode) == max_disjoint_paths(
                    g, u, v, mode
                )


def test_check_feasible_cycle():
    c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert check_feasible(c4, RequirementMap.uniform(4, 2), E)
    assert not check_feasible(c4, RequirementMap.from_pairs([(0, 2, 3)]), E)


def test_check_feasible_matches_per_pair_oracle():
    for seed in range(8):
        g = seeded_graph(seed + 100, 6, p=0.55)
        req = RequirementMap.from_pairs([(0, 1, 2), (2, 3, 1), (4, 5, 2)])
        for mode in (E, V):
            want = all(
                max_disjoint_paths(g, u, v, mode) >= r for u, v, r in req.pairs()
            )
            assert check_feasible(g, req, mode) == want


def test_element_requirement_on_non_reliable_vertex_rejected():
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)], reliable=[True, False, True])
    with pytest.raises(ValueError):
        check_feasible(g, RequirementMap.from_pairs([(0, 1, 1)]), EL)


def test_requirement_vertex_out_of_range_rejected_in_every_mode():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    for mode in ConnectivityMode:
        with pytest.raises(ValueError, match="vertex out of range"):
            check_feasible(g, RequirementMap.from_pairs([(0, 9, 1)]), mode)
        # a zero requirement is checked as well, not skipped
        with pytest.raises(ValueError, match="vertex out of range"):
            check_feasible(g, RequirementMap.from_pairs([(0, 1, 1), (0, 9, 0)]), mode)


def test_is_k_connected_basics():
    k4 = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert is_k_connected(k4, 3, V)
    c5 = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_k_connected(c5, 2, V)
    assert not is_k_connected(c5, 3, V)


def test_is_k_connected_matches_fault_enumeration():
    for seed in range(12):
        g = seeded_graph(seed + 7, 6, p=0.6)
        for k in (1, 2, 3):
            brute = g.n >= k + 1 and all(
                connected_after_removal(g, set(faults))
                for faults in itertools.combinations(range(g.n), k - 1)
            )
            assert is_k_connected(g, k, V) == brute, (seed, k)


def _flow_k_connected(g, k):
    """Reference: every vertex pair has k disjoint paths by unit max-flow."""
    return all(
        pair_connectivity(g, u, v, V) >= k
        for u, v in itertools.combinations(range(g.n), 2)
    )


def _multigraph(seed):
    """Seeded multigraph on 1..8 vertices: random edges with doubled copies,
    a theta, or two disjoint pieces, with isolated vertices sometimes left."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    shape = seed % 3
    edges = []
    if shape == 0 or n < 4:
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            edges += [(u, v)] * rng.choice((1, 1, 2, 3))
    elif shape == 1:
        # theta: poles 0 and 1 joined by paths through the other vertices
        inner = list(range(2, n - rng.randint(0, 1)))
        rng.shuffle(inner)
        while inner:
            step = rng.randint(1, 3)
            path = [0] + inner[:step] + [1]
            inner = inner[step:]
            edges += list(zip(path, path[1:]))
        edges += [(0, 1)] * rng.randint(0, 2)
    else:
        # two disjoint dense pieces
        cut = rng.randint(1, n - 1)
        for lo, hi in ((0, cut), (cut, n)):
            edges += [(u, v) for u in range(lo, hi) for v in range(u + 1, hi)]
    return Graph.build(n, edges)


def test_dfs_connectivity_matches_pairwise_flows():
    seen = set()
    for seed in range(2000):
        g = _multigraph(seed)
        for k in (1, 2, 3):
            want = _flow_k_connected(g, k)
            assert check_feasible(g, RequirementMap.uniform(g.n, k), V) == want, (seed, k)
            assert is_k_connected(g, k, V) == (want and g.n >= k + 1), (seed, k)
            seen.add((k, want))
    assert seen == {(k, ok) for k in (1, 2, 3) for ok in (True, False)}


def test_flow_connectivity_matches_pair_connectivity():
    # k >= 4 in vertex mode, and every k in edge and element mode, run pair
    # flows on one network reset between pairs
    rng = random.Random(3)
    seen = set()
    for seed in range(600):
        g = _multigraph(seed)
        edges = list(g.edges)
        if seed % 4 == 3:
            # near-complete multigraphs, for the higher levels
            edges = [
                (u, v) for u in range(g.n) for v in range(u + 1, g.n) if rng.random() < 0.9
            ] * rng.choice((1, 2))
        flags = [rng.random() < 0.7 for _ in range(g.n)]
        g = Graph.build(g.n, edges, flags)
        for mode in ConnectivityMode:
            for k in range(1, 6):
                want = all(
                    pair_connectivity(g, u, v, mode) >= k
                    for u, v in itertools.combinations(range(g.n), 2)
                )
                if mode is V:
                    want = want and g.n >= k + 1
                assert is_k_connected(g, k, mode) == want, (seed, mode, k)
                seen.add((mode, k, want))
    assert seen == {
        (mode, k, ok) for mode in ConnectivityMode for k in range(1, 6) for ok in (True, False)
    }


def test_dfs_connectivity_fixed_cases(monkeypatch):
    dipole = Graph.build(2, [(0, 1)] * 3)
    # below n = k + 1 the flow count differs from vertex k-connectivity
    assert check_feasible(dipole, RequirementMap.uniform(2, 3), V)
    assert not is_k_connected(dipole, 3, V)
    k4_minus = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_k_connected(k4_minus, 2, V)
    assert not is_k_connected(k4_minus, 3, V)
    assert not check_feasible(k4_minus, RequirementMap.uniform(4, 3), V)

    calls = []
    real = graph._dfs_k_connected
    monkeypatch.setattr(
        graph, "_dfs_k_connected", lambda adj, k: calls.append(k) or real(adj, k)
    )
    k4 = Graph.build(4, list(k4_minus.edges) + [(2, 3)])
    assert check_feasible(k4, RequirementMap.uniform(4, 3), V)
    assert calls == [3]
    # one pair off the uniform value: flows decide, and agree
    for g in (k4, k4_minus):
        for r in (2, 4):
            pairs = [(u, v, 3) for u, v in itertools.combinations(range(4), 2)]
            pairs[-1] = (2, 3, r)
            req = RequirementMap.from_pairs(pairs)
            want = all(pair_connectivity(g, u, v, V) >= r for u, v, r in req.pairs())
            assert check_feasible(g, req, V) == want
    # one value on only some pairs is not uniform either
    partial = RequirementMap.from_pairs([(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    assert check_feasible(Graph.build(4, [(0, 1), (1, 2), (2, 0)]), partial, V)
    assert calls == [3]


def test_monotone_under_edge_addition():
    for seed in range(6):
        g = seeded_graph(seed + 40, 6, p=0.4)
        extra = Graph.build(g.n, list(g.edges) + [(0, g.n - 1, 1)])
        for mode in ConnectivityMode:
            for u, v in itertools.combinations(range(g.n), 2):
                assert pair_connectivity(extra, u, v, mode) >= pair_connectivity(
                    g, u, v, mode
                )


@given(st.integers(0, 10_000))
def test_mode_ordering(seed):
    g = seeded_graph(seed, 6, p=0.5)
    flags = list(g.reliable)
    flags[2] = False
    flags[4] = False
    g = Graph.build(g.n, g.edges, flags)
    for u, v in ((0, 1), (0, 5), (1, 3)):
        kv = pair_connectivity(g, u, v, V)
        ke = pair_connectivity(g, u, v, EL)
        kc = pair_connectivity(g, u, v, E)
        assert kv <= ke <= kc


def _biset_value(g, inner, outer):
    """Edges from the inner set to outside the outer set, plus the vertices
    between the two sets (inner is a subset of outer)."""
    crossing = sum(
        1
        for a, b, _ in g.edges
        if (a in inner and b not in outer) or (b in inner and a not in outer)
    )
    return crossing + len(outer - inner)


def _biset_minimum(g, u, v):
    others = [x for x in range(g.n) if x not in (u, v)]
    best = None
    for assign in itertools.product((0, 1, 2), repeat=len(others)):
        inner = {u} | {x for x, a in zip(others, assign) if a == 0}
        outer = inner | {x for x, a in zip(others, assign) if a == 1}
        value = _biset_value(g, inner, outer)
        if best is None or value < best:
            best = value
    return best


def test_vertex_menger_matches_biset_enumeration():
    for seed in range(6):
        g = seeded_graph(seed + 300, 6, p=0.5)
        for u, v in ((0, 1), (2, 5)):
            assert pair_connectivity(g, u, v, V) == _biset_minimum(g, u, v)


def test_graph_normalization():
    g = Graph.build(3, [(0, 0, 5), (0, 1), (0, 1, 2)])
    assert g.edges == ((0, 1, 1), (0, 1, 2))  # self-loop dropped, parallel kept
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 1, -1)])
    # subgraph ids must be ints naming edges: -1 would pick the last one first
    for bad in ([-1, 0], [0, 2], [2], [0, 1.5], [1.0], ["a"], [0, "a"], [None]):
        with pytest.raises(ValueError, match="edge ids"):
            g.subgraph(bad)


def test_graph_build_rejects_non_int_endpoints():
    for e in ((0, 1.5, 1), (1.0, 2), ("0", 1)):
        with pytest.raises(ValueError):
            Graph.build(3, [e])


def test_requirement_map_rules():
    with pytest.raises(ValueError):
        RequirementMap.from_pairs([(1, 1, 2)])
    with pytest.raises(ValueError):
        RequirementMap.from_pairs([(0, 1, 1), (1, 0, 2)])
    req = RequirementMap.from_pairs([(0, 1, 1), (2, 1, 3)])
    assert req.k == 3
    assert dict(req.entries) == {(0, 1): 1, (1, 2): 3}  # (0, 2) unset
    assert RequirementMap.uniform(3, 0).k == 0


@pytest.mark.parametrize("pair", [(0, 1.5), (0, "a"), (1.0, 2), (None, 1)])
def test_requirement_vertices_must_be_ints(pair):
    # rejected before they are compared or used as indices, so a float or a
    # string raises ValueError, not TypeError
    with pytest.raises(ValueError):
        RequirementMap.from_pairs([(*pair, 1)])


@pytest.mark.parametrize("r", ["2", 1.5, None, -1])
def test_requirement_values_must_be_nonnegative_ints(r):
    # a non-int is rejected before it is compared with 0, so "2" and None
    # raise ValueError, not TypeError
    with pytest.raises(ValueError):
        RequirementMap.from_pairs([(0, 1, r)])
    with pytest.raises(ValueError):
        RequirementMap.uniform(4, r)


def test_graph_file_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4 4\n0 1\n1 2 3\n2 3\n3 0 2\n")
    g = load_graph(path)
    assert g.n == 4
    assert g.edges == ((0, 1, 1), (1, 2, 3), (2, 3, 1), (3, 0, 2))


def test_graph_file_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n0 x\n")
    with pytest.raises(ParseError) as err:
        load_graph(path)
    assert err.value.lineno == 3

    path.write_text("3 1\n0 1\n1 2\n")
    with pytest.raises(ParseError):
        load_graph(path)


def test_reliability_and_requirements_files(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("3 3\n0 1\n1 2\n2 0\n")
    rpath = tmp_path / "rel.txt"
    rpath.write_text("1\n")
    g = load_graph(gpath, rpath)
    assert g.reliable == (True, False, True)

    qpath = tmp_path / "req.txt"
    qpath.write_text("0 2 2\n")
    req = load_requirements(qpath, 3)
    assert dict(req.entries) == {(0, 2): 2}
    qpath.write_text("0 2 2\n2 0 2\n")
    with pytest.raises(ParseError):
        load_requirements(qpath, 3)
    qpath.write_text("0 2 -1\n")
    with pytest.raises(ParseError, match="nonnegative") as err:
        load_requirements(qpath, 3)
    assert err.value.lineno == 1


def test_tree_child_toward_needs_a_node_strictly_below():
    path, _ = RootedTree.spanning(Graph.build(3, [(0, 1), (1, 2)]))
    assert path.child_toward(0, 1) == 1
    assert path.child_toward(0, 2) == 1
    assert path.child_toward(1, 2) == 2
    for x, z in ((0, 0), (1, 1), (2, 2), (2, 0), (1, 0)):
        with pytest.raises(ValueError, match="is not below"):
            path.child_toward(x, z)
    # an SPQR tree binds the same helper; check every node pair against a
    # walk up the parent pointers
    tree = build_spqr(ear_graph(3, 60, window=6))
    assert max(tree.depth) >= 3
    for x in range(len(tree.nodes)):
        for z in range(len(tree.nodes)):
            y = z
            while y != tree.root and tree.parent[y] != x:
                y = tree.parent[y]
            if z != x and tree.parent[y] == x:
                assert tree.child_toward(x, z) == y
            else:
                with pytest.raises(ValueError):
                    tree.child_toward(x, z)
