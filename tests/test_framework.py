import gc
import io
import random
from bisect import bisect_left
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from streamnd import (
    Analysis,
    BucketScheme,
    Cap1State,
    Cap2State,
    ConnectivityMode,
    EdgeStream,
    Family,
    FaultMode,
    FrameworkConfig,
    FtConfig,
    Graph,
    InstanceGenerator,
    RequirementMap,
    brute_optimal,
    build_spqr,
    cap1,
    check_feasible,
    exact_solve,
    framework,
    generate,
    oracle,
    pair_connectivity,
    run_framework,
    spanner,
    verify_ft_spanner,
)
from streamnd import cli
from streamnd.cap1 import LinkRec, solve_retained
from streamnd.errors import InfeasibleError, ResourceLimitError

from conftest import (
    RecordingStream,
    record_process_edge,
    seeded_graph,
    seeded_two_connected,
    short_digest,
)

V, E, EL = ConnectivityMode.VERTEX, ConnectivityMode.EDGE, ConnectivityMode.ELEMENT


def test_config_derivations():
    cfg = FrameworkConfig(t=2, mode=V, analysis=Analysis.INTEGRAL)
    assert cfg.eps == Fraction(1, 3)
    assert cfg.fault_budget(2) == 2  # (2t-2)(k-1)
    assert cfg.fault_budget(1) == 0
    cfg = FrameworkConfig(t=2, mode=V, analysis=Analysis.FRACTIONAL)
    assert cfg.fault_budget(2) == 6  # (2t-2)(2k-1)
    cfg = FrameworkConfig(t=2, mode=EL)
    assert cfg.fault_budget(2) == 6
    cfg = FrameworkConfig(t=2, mode=E)
    assert cfg.fault_budget(2) == 9  # (2t-1)(2k-1)
    assert cfg.factor_bound(2) == 16
    # t = 1.5 would give the fault budget 6.0
    for t in (0, 1.5, "2", None):
        with pytest.raises(ValueError):
            FrameworkConfig(t=t, mode=V)


def test_exact_solve_triangle_edge_mode():
    g = Graph.build(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    ids, weight = exact_solve(g, RequirementMap.uniform(3, 2), E)
    assert ids == (0, 1, 2) and weight == 3


def test_exact_solve_path_endpoints():
    g = Graph.build(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    ids, weight = exact_solve(g, RequirementMap.from_pairs([(0, 3, 1)]), E)
    assert ids == (0, 1, 2) and weight == 9


def _naive_minimum(g, req, mode):
    best = None
    m = len(g.edges)
    for mask in range(1 << m):
        ids = [i for i in range(m) if mask >> i & 1]
        if check_feasible(g.subgraph(ids), req, mode):
            w = sum(g.edges[i][2] for i in ids)
            if best is None or w < best:
                best = w
    return best


def test_exact_solve_matches_naive_enumeration():
    rng = random.Random(0)
    done = 0
    seed = 0
    while done < 30:
        seed += 1
        g = seeded_graph(seed, 5, p=0.55, wmax=9)
        if not (2 <= len(g.edges) <= 10):
            continue
        pairs = [(0, 1, rng.randint(1, 2)), (2, 3, rng.randint(0, 2))]
        req = RequirementMap.from_pairs(pairs)
        mode = (V, E)[seed % 2]
        want = _naive_minimum(g, req, mode)
        if want is None:
            with pytest.raises(InfeasibleError):
                exact_solve(g, req, mode)
        else:
            _, got = exact_solve(g, req, mode)
            assert got == want, seed
        done += 1


def test_exact_solve_guard_and_fixed_edges(monkeypatch):
    g = seeded_graph(3, 8, p=0.9)
    monkeypatch.setattr(framework, "MAX_BRANCH_EDGES", 5)
    with pytest.raises(ResourceLimitError):
        exact_solve(g, RequirementMap.uniform(8, 1), E)
    # fixed edges are always part of the solution and their weight counts
    g = Graph.build(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])
    ids, weight = exact_solve(g, RequirementMap.from_pairs([(0, 1, 1)]), E, fixed=[1])
    assert 1 in ids and weight == 10


def _branching(count):
    # `count` parallel edges, none fixed: each one branches
    exact_solve(Graph.build(2, [(0, 1, 1)] * count), RequirementMap.from_pairs([(0, 1, 1)]), E)


def _retained(count):
    # the path 0-1-2 and `count` stored links 0-2, each a branching edge
    solve_retained(3, [(0, 1), (1, 2)], [LinkRec(0, 2, 1, i) for i in range(count)], 2)


def _links(count):
    req = RequirementMap.from_pairs([(0, 1, 1)])
    brute_optimal(Graph.build(2, []), [(0, 1, 1)] * count, req, E)


def _checks(count):
    # count - 1 parallel edges and one edge fault: count fault sets x 1 pair
    g = Graph.build(2, [(0, 1, 1)] * (count - 1))
    verify_ft_spanner(g, range(count - 1), FtConfig(f=1, t=1, mode=FaultMode.EDGE, eps=1))


@pytest.mark.parametrize(
    "module, name, run",
    [
        (framework, "MAX_BRANCH_EDGES", _branching),
        (framework, "MAX_BRANCH_EDGES", _retained),
        (oracle, "MAX_ORACLE_LINKS", _links),
        (spanner, "MAX_VERIFY_CHECKS", _checks),
    ],
    ids=["exact_solve", "solve_retained", "brute_optimal", "verify_ft_spanner"],
)
def test_size_guards_admit_their_limit_and_refuse_one_more(monkeypatch, module, name, run):
    # each guard is read when it is called, so a patched limit holds
    monkeypatch.setattr(module, name, 4)
    run(4)
    maps = []
    real = cap1.RequirementMap.uniform
    monkeypatch.setattr(
        cap1.RequirementMap, "uniform", staticmethod(lambda *a: maps.append(a) or real(*a))
    )
    with pytest.raises(ResourceLimitError):
        run(5)
    assert maps == []  # solve_retained refuses before it builds the solve


def solver_corpus(count):
    """Seeded exact_solve instances: every mode, fixed edges, weight-0 and
    parallel edges, uniform and pair maps (some r = 0), infeasible cases,
    and up to 26 branching edges."""
    for seed in range(count):
        rng = random.Random(seed)
        mode = (V, E, EL)[seed % 3]
        n = rng.randint(3, 10)
        m = rng.randint(n + 1, min(26, 3 * n))
        edges = [
            (u, v, rng.choice((0, rng.randint(1, 9), rng.randint(1, 9))))
            for u, v in (rng.sample(range(n), 2) for _ in range(m))
        ]
        reliable = [rng.random() < 0.7 for _ in range(n)] if mode is EL else None
        g = Graph.build(n, edges, reliable)
        fixed = rng.sample(range(m), rng.randint(0, m // 4)) if seed % 2 else ()
        ends = [x for x in range(n) if g.reliable[x]]
        if seed % 5 == 0 and len(ends) == n:
            req = RequirementMap.uniform(n, rng.randint(1, 2))
        else:
            pairs = {}
            for _ in range(rng.randint(1, 4)):
                if len(ends) < 2:
                    break
                u, v = rng.sample(ends, 2)
                pairs[(min(u, v), max(u, v))] = rng.choice((0, 1, 2, 2, 3))
            req = RequirementMap.from_pairs([(u, v, r) for (u, v), r in pairs.items()])
        yield g, req, mode, fixed


def test_exact_solve_corpus_is_pinned():
    # (ids, weight) per instance, digest recorded before the degree bound:
    # pruning must change the work, never the answer or its tie-breaking
    corpus = list(solver_corpus(300))
    results = []
    for g, req, mode, fixed in corpus:
        try:
            results.append(exact_solve(g, req, mode, fixed))
        except InfeasibleError:
            results.append("infeasible")
    assert short_digest(results) == "c0b89fa35693dea2"
    # the corpus reaches what the pin is meant to cover
    solved = [r for r in results if r != "infeasible"]
    assert 50 <= len(results) - len(solved) <= 150
    assert any(len(set(g.edges)) < len(g.edges) for g, *_ in corpus)
    assert any(w == 0 for g, *_ in corpus for _, _, w in g.edges)
    assert max(len(g.edges) - len(set(fixed)) for g, _, _, fixed in corpus) >= 24


def _ref_exact_solve(g, req, mode, fixed=(), max_branch_edges=40):
    """`exact_solve` as it was before it skipped degree-short sets: every
    node not cut by the bound asks `framework.check_feasible` about its
    chosen set."""
    fixed = frozenset(fixed)
    free = [i for i in range(len(g.edges)) if i not in fixed]
    if len(free) > max_branch_edges:
        raise ResourceLimitError(
            f"{len(free)} branching edges exceeds the solver guard {max_branch_edges}"
        )
    free.sort(key=lambda i: (-g.edges[i][2], i))
    weights = [g.edges[i][2] for i in free]
    fixed_weight = sum(g.edges[i][2] for i in fixed)
    known_good = []
    known_bad = []

    def feasible(ids):
        fs = frozenset(ids)
        if any(good <= fs for good in known_good):
            return True
        if any(fs <= bad for bad in known_bad):
            return False
        ok = framework.check_feasible(g.subgraph(fs), req, mode)
        if ok:
            known_good[:] = [g_ for g_ in known_good if not fs <= g_]
            known_good.append(fs)
        else:
            known_bad[:] = [b_ for b_ in known_bad if not b_ <= fs]
            known_bad.append(fs)
        return ok

    base_ids = sorted(fixed)
    if not feasible(base_ids + free):
        raise InfeasibleError("no feasible edge subset exists in this graph")
    short = [0] * g.n
    for u, v, r in req.pairs():
        if r:
            short[u] = max(short[u], r)
            short[v] = max(short[v], r)
    for i in fixed:
        u, v, _ = g.edges[i]
        short[u] -= 1
        short[v] -= 1
    needy = [x for x in range(g.n) if short[x] > 0]
    pos_at = {x: [] for x in needy}
    for p, i in enumerate(free):
        u, v, _ = g.edges[i]
        if u in pos_at:
            pos_at[u].append(p)
        if v in pos_at:
            pos_at[v].append(p)
    cheapest_at = {}
    for x, pos in pos_at.items():
        sums = [0]
        for p in reversed(pos):
            sums.append(sums[-1] + weights[p])
        cheapest_at[x] = sums

    def completion_bound(i, chosen):
        left = short[:]
        for e in chosen:
            u, v, _ = g.edges[e]
            left[u] -= 1
            left[v] -= 1
        total = 0
        for x in needy:
            d = left[x]
            if d > 0:
                pos = pos_at[x]
                if len(pos) - bisect_left(pos, i) < d:
                    return None
                total += cheapest_at[x][d]
        return (total + 1) // 2

    best_weight, best_ids = None, None
    stack = [(0, [], fixed_weight, True)]
    while stack:
        i, chosen, weight, rest_known_good = stack.pop()
        if best_weight is not None and weight >= best_weight:
            continue
        extra = completion_bound(i, chosen)
        if extra is None or (best_weight is not None and weight + extra >= best_weight):
            continue
        if feasible(base_ids + chosen):
            best_weight, best_ids = weight, sorted(base_ids + chosen)
            continue
        if i == len(free):
            continue
        if not rest_known_good and not feasible(base_ids + chosen + free[i:]):
            continue
        stack.append((i + 1, chosen + [free[i]], weight + weights[i], True))
        stack.append((i + 1, chosen, weight, False))

    if best_weight is None:
        raise InfeasibleError("no feasible edge subset exists in this graph")
    return tuple(best_ids), best_weight


def _degree_short(g, req, edges):
    """True iff some vertex has fewer incident `edges` than its largest
    requirement."""
    deg = [0] * g.n
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    return any(r > min(deg[u], deg[v]) for u, v, r in req.pairs())


def test_exact_solve_skips_only_degree_short_feasibility_calls(monkeypatch):
    # each solver's `check_feasible` calls, as the edge tuples it was asked
    # about: the screen drops exactly the reference's degree-short sets after
    # the first, map-validating call, and leaves every answer as it was
    real = framework.check_feasible
    calls = []

    def recording(sub, req, mode):
        calls.append(sub.edges)
        return real(sub, req, mode)

    monkeypatch.setattr(framework, "check_feasible", recording)
    skipped = 0
    for g, req, mode, fixed in solver_corpus(300):
        runs = []
        for solve in (_ref_exact_solve, exact_solve):
            calls.clear()
            try:
                result = solve(g, req, mode, fixed)
            except InfeasibleError:
                result = "infeasible"
            runs.append((result, list(calls)))
        (ref_result, ref_calls), (result, new_calls) = runs
        assert result == ref_result
        kept = ref_calls[:1] + [s for s in ref_calls[1:] if not _degree_short(g, req, s)]
        assert new_calls == kept
        skipped += len(ref_calls) - len(new_calls)
    assert skipped > 0


def test_feasibility_queries_after_the_first_meet_every_need(monkeypatch):
    # `check_feasible` has no degree screen: after a solve's first, map-
    # validating call, each graph `exact_solve` asks about gives every vertex
    # x at least need(x) = max_y r(x, y) edges, over the bench's cap1, cap2
    # and sndp solves and over the solver corpus
    real_check, real_solve = framework.check_feasible, framework.exact_solve
    first = [True]
    checked = []

    def solve(*args, **kwargs):
        first[0] = True
        return real_solve(*args, **kwargs)

    def check(sub, req, mode):
        if first[0]:
            first[0] = False
        else:
            need, deg = [0] * sub.n, [0] * sub.n
            for u, v, r in req.pairs():
                need[u], need[v] = max(need[u], r), max(need[v], r)
            for u, v, _ in sub.edges:
                deg[u] += 1
                deg[v] += 1
            assert all(d >= nd for d, nd in zip(deg, need)), (sub.edges, req)
            checked.append(1)
        return real_check(sub, req, mode)

    monkeypatch.setattr(framework, "check_feasible", check)
    monkeypatch.setattr(framework, "exact_solve", solve)
    monkeypatch.setattr(cap1, "exact_solve", solve)
    for suite in ("cap1", "cap2", "sndp"):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["bench", "--suite", suite, "--seeds", "1..10"]) == 0
    assert checked
    checked.clear()
    for g, req, mode, fixed in solver_corpus(300):
        try:
            framework.exact_solve(g, req, mode, fixed)
        except InfeasibleError:
            pass
    assert checked


def test_exact_solve_rejects_bad_maps_with_value_error():
    g = Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], [True, False, True, True])
    for mode in (V, E, EL):
        with pytest.raises(ValueError):
            exact_solve(g, RequirementMap.from_pairs([(0, 9, 1)]), mode)
    with pytest.raises(ValueError):
        exact_solve(g, RequirementMap.from_pairs([(0, 1, 1)]), EL)
    with pytest.raises(ValueError):
        exact_solve(g, RequirementMap.from_pairs([(0, 9, 1)]), E, fixed=[0])
    # a zero requirement adds no need, but its vertices are checked too
    for mode in (V, E):
        with pytest.raises(ValueError, match="vertex out of range"):
            exact_solve(g, RequirementMap.from_pairs([(0, 1, 1), (0, 9, 0)]), mode)
    assert exact_solve(g, RequirementMap.from_pairs([(0, 1, 1), (0, 2, 0)]), E) == ((0,), 1)
    # fixed edge ids must be ints naming an edge: -1 would silently fix the
    # last edge, 3 would index past the end
    tri = Graph.build(3, [(0, 1, 5), (1, 2, 5), (0, 2, 4)])
    for bad in ([-1], [3], [1.0], ["0"]):
        with pytest.raises(ValueError, match="fixed edge ids"):
            exact_solve(tri, RequirementMap.from_pairs([(0, 1, 1)]), E, fixed=bad)


def test_framework_single_edge():
    stream = EdgeStream.from_edges(2, [(0, 1, 5)])
    cfg = FrameworkConfig(t=2, mode=V)
    res = run_framework(stream, RequirementMap.from_pairs([(0, 1, 1)]), cfg)
    assert res.solution == ((0, 1, 5),) and res.weight == 5


def test_framework_reads_each_edge_after_the_previous_one_is_processed(monkeypatch):
    log = []
    record_process_edge(monkeypatch, log)
    # weight i + 1 marks item i
    items = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]
    stream = RecordingStream(4, items, log)
    res = run_framework(stream, RequirementMap.uniform(4, 2), FrameworkConfig(t=1, mode=E))
    assert log == [event for i in range(4) for event in (("read", i), ("process", i + 1))]
    assert res.weight == 10


def test_framework_cycle_edge_mode_keeps_whole_cycle():
    stream = EdgeStream.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    cfg = FrameworkConfig(t=1, mode=E)
    res = run_framework(stream, RequirementMap.uniform(4, 2), cfg)
    assert res.weight == 4


def test_framework_infeasible_report():
    stream = EdgeStream.from_edges(3, [(0, 1, 1)])
    cfg = FrameworkConfig(t=2, mode=V)
    with pytest.raises(InfeasibleError):
        run_framework(stream, RequirementMap.from_pairs([(0, 2, 1)]), cfg)


def test_framework_feasibility_transfer():
    # whenever the instance is feasible on the input, the spanner restriction
    # stays feasible and the solver returns a solution
    for seed in range(12):
        g = seeded_graph(seed + 20, 7, p=0.6, wmax=5)
        rng = random.Random(seed)
        pairs = []
        for _ in range(3):
            u, v = rng.randrange(7), rng.randrange(7)
            if u == v or any({u, v} == {a, b} for a, b, _ in pairs):
                continue
            cap = pair_connectivity(g, u, v, V)
            if cap:
                pairs.append((u, v, min(2, cap)))
        if not pairs:
            continue
        req = RequirementMap.from_pairs(pairs)
        cfg = FrameworkConfig(t=2, mode=V, analysis=Analysis.INTEGRAL)
        stream = EdgeStream.from_edges(g.n, g.edges)
        res = run_framework(stream, req, cfg)
        sol = Graph.build(g.n, res.solution)
        assert check_feasible(sol, req, V)
        assert res.stored_edges <= len(g.edges)


def test_solves_leave_no_reference_cycles():
    """Each solve's graph, requirement map and memo sets are freed by
    reference counting alone, with nothing left for the cyclic collector."""
    g = seeded_graph(3, 8, p=0.6, wmax=5)
    spqr_base = seeded_two_connected(2, 10)
    cap_ops = []
    for state_cls, family in (
        (Cap1State, Family.TREE),
        (Cap2State, Family.TWO_CONNECTED),
    ):
        gen = InstanceGenerator(
            seed=1, family=family, n=8, chords=2, link_count=4, max_links=12
        )
        cap_ops.append((state_cls, generate(gen)))
    gc.collect()
    gc.disable()
    try:
        exact_solve(g, RequirementMap.uniform(8, 2), V)
        build_spqr(spqr_base)
        for state_cls, inst in cap_ops:
            state = state_cls.from_base(inst.base, BucketScheme(Fraction(1, 2), 8))
            for link in inst.links:
                state.process_link(*link)
            state.finalize()
        assert gc.collect() == 0
    finally:
        gc.enable()
