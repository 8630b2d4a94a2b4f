"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its wall time and asserting its tolerance and time budget."""

import itertools
import random
import time
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
    FtSpannerState,
    Graph,
    InstanceGenerator,
    RequirementMap,
    StreamingMst,
    TestKind,
    brute_optimal,
    build_spqr,
    enumerate_two_cuts,
    extract_disjoint_paths,
    generate,
    is_k_connected,
    max_disjoint_paths,
    offline_mst_weight,
    pair_connectivity,
    run_framework,
    verify_ft_spanner,
)
from streamnd.spqr import REAL

from conftest import (
    connected_after_removal,
    random_two_connected,
    remerged_edges,
    seeded_graph,
)

V, E, EL = ConnectivityMode.VERTEX, ConnectivityMode.EDGE, ConnectivityMode.ELEMENT


def report(capsys, name, ok, elapsed, budget):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s of {budget}s budget)"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_01_menger_oracle_equivalence(capsys):
    t0 = time.monotonic()
    violations = []
    for seed in range(200):
        g = seeded_graph(seed, 4 + seed % 5, p=0.45)
        flags = list(g.reliable)
        flags[seed % g.n] = False
        g = Graph.build(g.n, g.edges, flags)
        rng = random.Random(seed)
        pairs = set()
        while len(pairs) < min(6, g.n * (g.n - 1) // 2):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        for mode in ConnectivityMode:
            for u, v in sorted(pairs):
                if pair_connectivity(g, u, v, mode) != max_disjoint_paths(g, u, v, mode):
                    violations.append((seed, mode, u, v))
    elapsed = time.monotonic() - t0
    report(capsys, "1 menger-oracle-equivalence", not violations and elapsed < 30, elapsed, 30)
    assert not violations
    assert elapsed < 30


def _stretch_corpus():
    """100 seeded weighted builds at f <= 2, t <= 2, eps = 1/(2t-1)."""
    runs = []
    for seed in range(100):
        n = 6 + seed % 4
        f = seed % 3
        t = 2 if seed % 2 else 1
        mode = FaultMode.VERTEX if (seed // 2) % 2 else FaultMode.EDGE
        wmax = (1, 1, 4, 1, 7)[seed % 5]
        rng = random.Random(1000 + seed)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.55:
                    w = 0 if rng.random() < 0.08 else rng.randint(1, wmax)
                    edges.append((u, v, w))
        if not edges:
            edges = [(0, 1, 1)]
        g = Graph.build(n, edges)
        cfg = FtConfig(
            f=f, t=t, mode=mode, eps=Fraction(1, 2 * t - 1), test_kind=TestKind.EXACT
        )
        state = FtSpannerState(n, cfg, wmax)
        for u, v, w in g.edges:
            state.process_edge(u, v, w)
        runs.append((seed, g, cfg, state))
    return runs


@pytest.fixture(scope="module")
def stretch_corpus():
    return _stretch_corpus()


def test_criterion_02_ft_spanner_stretch_contract(capsys, stretch_corpus):
    t0 = time.monotonic()
    violations = [
        seed
        for seed, g, cfg, state in stretch_corpus
        if not verify_ft_spanner(g, state.kept_ids(), cfg)
    ]
    elapsed = time.monotonic() - t0
    report(capsys, "2 ft-spanner-stretch", not violations and elapsed < 300, elapsed, 300)
    assert not violations
    assert elapsed < 300


def test_criterion_03_rejections_yield_disjoint_paths(capsys, stretch_corpus):
    t0 = time.monotonic()
    failures = []
    checked = 0
    for seed, g, cfg, state in stretch_corpus:
        if cfg.t != 2:
            continue
        want = cfg.f // (2 * cfg.t - 2) + 1
        for rec in state.rejected:
            checked += 1
            try:
                paths = extract_disjoint_paths(
                    state.buckets[rec.bucket], rec.u, rec.v, want, 2 * cfg.t - 1
                )
            except Exception:
                failures.append((seed, rec))
                continue
            if any(len(p) - 1 > 2 * cfg.t - 1 for p in paths):
                failures.append((seed, rec))
    elapsed = time.monotonic() - t0
    ok = not failures and checked > 0
    report(capsys, "3 disjoint-path-extraction", ok, elapsed, 300)
    assert checked > 0
    assert not failures
    assert elapsed < 300


def test_criterion_04_framework_ratios(capsys):
    t0 = time.monotonic()
    violations = []
    for seed in range(50):
        mode = (V, E, EL)[seed % 3]
        t = 1 + (seed // 3) % 2
        n = 7 + seed % 4
        gen = InstanceGenerator(seed=seed, family=Family.CYCLE_PLUS_CHORDS, n=n, chords=3)
        inst = generate(gen)
        rng = random.Random(40_000 + seed)
        reliable = None
        if mode is EL:
            flags = [True] * n
            for x in rng.sample(range(n), 2):
                flags[x] = False
            reliable = tuple(flags)
        g = Graph.build(n, inst.base.edges, reliable)
        pairs, tries = [], 0
        while len(pairs) < 3 and tries < 40:
            tries += 1
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or any({u, v} == {a, b} for a, b, _ in pairs):
                continue
            if mode is EL and not (g.reliable[u] and g.reliable[v]):
                continue
            cap = pair_connectivity(g, u, v, mode)
            if cap:
                pairs.append((u, v, min(2, cap)))
        if not pairs:
            continue
        req = RequirementMap.from_pairs(pairs)
        analysis = Analysis.INTEGRAL if mode is V else Analysis.FRACTIONAL
        cfg = FrameworkConfig(t=t, mode=mode, analysis=analysis)
        stream = EdgeStream.from_edges(n, g.edges)
        res = run_framework(stream, req, cfg, reliable=reliable)
        empty = Graph.build(n, (), g.reliable)
        _, opt = brute_optimal(empty, g.edges, req, mode)
        ratio = res.weight / opt if opt else 1.0
        bound = 2 * t * req.k if mode is V else 8 * t
        if ratio > bound:
            violations.append((seed, ratio, bound))
    elapsed = time.monotonic() - t0
    report(capsys, "4 framework-ratios", not violations and elapsed < 600, elapsed, 600)
    assert not violations
    assert elapsed < 600


def test_criterion_05_sparsification_at_scale(capsys):
    t0 = time.monotonic()
    rng = random.Random(64)
    n = 64
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    stored = []
    for f in (0, 1, 2):
        cfg = FtConfig(f=f, t=2, mode=FaultMode.VERTEX, eps=Fraction(1, 3), test_kind=TestKind.EXACT)
        state = FtSpannerState(n, cfg, 1)
        for u, v, w in edges:
            state.process_edge(u, v, w)
        stored.append(state.stored_edge_count)
    elapsed = time.monotonic() - t0
    ok = stored[2] < len(edges) and stored[0] <= stored[1] <= stored[2] and elapsed < 60
    report(capsys, "5 sparsification-sanity", ok, elapsed, 60)
    assert stored[2] < len(edges)
    assert stored[0] <= stored[1] <= stored[2]
    assert elapsed < 60


def test_criterion_06_tree_augmentation(capsys):
    t0 = time.monotonic()
    eps = Fraction(1, 2)
    violations = []
    for seed in range(100):
        n = 5 + seed % 6
        gen = InstanceGenerator(seed=seed, family=Family.TREE, n=n, link_count=3, max_links=12)
        inst = generate(gen)
        scheme = BucketScheme(eps, max(w for _, _, w in inst.links))
        state = Cap1State.from_base(inst.base, scheme)
        for link in inst.links:
            state.process_link(*link)
        res = state.finalize()
        aug = Graph.build(n, list(inst.base.edges) + [r.triple() for r in res.solution])
        opt_ids, opt = brute_optimal(inst.base, inst.links, RequirementMap.uniform(n, 2), V)
        sol = state.sol_from_opt([inst.links[i] for i in opt_ids])
        aug_mirror = Graph.build(n, list(inst.base.edges) + [r.triple() for r in sol])
        checks = [
            is_k_connected(aug, 2, V),
            res.weight <= (3 + eps) * opt,
            len(res.stored) <= n * scheme.bucket_count() + 2 * (n - 1),
            is_k_connected(aug_mirror, 2, V),
            sum(r.w for r in sol) <= (3 + 2 * eps) * opt,
        ]
        if not all(checks):
            violations.append((seed, checks))
    elapsed = time.monotonic() - t0
    report(capsys, "6 tree-augmentation", not violations and elapsed < 300, elapsed, 300)
    assert not violations
    assert elapsed < 300


def test_criterion_07_spqr_decomposition(capsys):
    t0 = time.monotonic()
    violations = []
    for seed in range(100):
        g = random_two_connected(seed, 5 + seed % 5)
        tree = build_spqr(g)
        cuts = enumerate_two_cuts(tree)
        brute = {
            frozenset((a, b))
            for a, b in itertools.combinations(range(g.n), 2)
            if not connected_after_removal(g, {a, b})
        }
        reals = sorted(
            e.ref for node in tree.nodes for e in node.edges if e.kind == REAL
        )
        checks = [
            cuts == brute,
            tree.skeleton_edge_total() <= 3 * len(g.edges) - 6,
            reals == list(range(len(g.edges))),
            remerged_edges(tree)
            == sorted((min(u, v), max(u, v)) for u, v, _ in g.edges),
        ]
        if not all(checks):
            violations.append((seed, checks))
    # the worked figure reproduces its published node-kind multiset
    fig = Graph.build(
        10,
        [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (5, 1),
         (4, 7), (4, 9), (6, 5), (6, 7), (6, 9), (8, 5), (8, 7), (8, 9)],
    )
    if sorted(n.kind for n in build_spqr(fig).nodes) != ["P", "R", "S", "S", "S"]:
        violations.append(("figure", None))
    elapsed = time.monotonic() - t0
    report(capsys, "7 spqr-decomposition", not violations and elapsed < 300, elapsed, 300)
    assert not violations
    assert elapsed < 300


def test_criterion_08_biconnected_augmentation(capsys):
    t0 = time.monotonic()
    eps = Fraction(1, 2)
    violations = []
    for seed in range(100):
        n = 5 + seed % 5
        gen = InstanceGenerator(
            seed=seed, family=Family.TWO_CONNECTED, n=n, chords=2, link_count=3,
            max_links=10,
        )
        inst = generate(gen)
        scheme = BucketScheme(eps, max(w for _, _, w in inst.links))
        state = Cap2State.from_base(inst.base, scheme)
        for link in inst.links:
            state.process_link(*link)
        res = state.finalize()
        aug = Graph.build(n, list(inst.base.edges) + [r.triple() for r in res.solution])
        opt_ids, opt = brute_optimal(inst.base, inst.links, RequirementMap.uniform(n, 3), V)
        sol = state.sol_from_opt([inst.links[i] for i in opt_ids])
        aug_mirror = Graph.build(n, list(inst.base.edges) + [r.triple() for r in sol])
        B = scheme.bucket_count()
        skel = state.tree.skeleton_edge_total()
        checks = [
            is_k_connected(aug, 3, V),
            res.weight <= (7 + eps) * opt,
            len(res.stored) <= 7 * B * skel,
            skel <= 3 * len(state.base.edges) - 6,
            len(state.base.edges) <= 2 * n - 2,
            is_k_connected(aug_mirror, 3, V),
            sum(r.w for r in sol) <= (7 + 6 * eps) * opt,
        ]
        if not all(checks):
            violations.append((seed, checks))
    elapsed = time.monotonic() - t0
    report(capsys, "8 biconnected-augmentation", not violations and elapsed < 900, elapsed, 900)
    assert not violations
    assert elapsed < 900


def test_criterion_09_streaming_mst_prefixes(capsys):
    t0 = time.monotonic()
    violations = []
    for seed in range(50):
        rng = random.Random(seed)
        n = 4 + seed % 7
        mst = StreamingMst(range(n))
        prefix = []
        for _ in range(rng.randint(3, 20)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            w = rng.randint(1, 15)
            prefix.append((u, v, w))
            mst.insert(u, v, w)
            if mst.total_weight() != offline_mst_weight(range(n), prefix):
                violations.append((seed, len(prefix)))
    elapsed = time.monotonic() - t0
    report(capsys, "9 streaming-mst-prefixes", not violations and elapsed < 30, elapsed, 30)
    assert not violations
    assert elapsed < 30


def test_criterion_10_bench_determinism(capsys):
    import io
    from contextlib import redirect_stdout

    from streamnd.cli import main

    t0 = time.monotonic()
    mismatches = []
    suites = [
        ("mst", "1..5"),
        ("menger", "1..3"),
        ("spanner", "1..3"),
        ("cap1", "1..3"),
        ("cap2", "1..3"),
        ("sndp", "1..3"),
    ]
    for suite, seeds in suites:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(["bench", "--suite", suite, "--seeds", seeds])
            assert code == 0
            outs.append(buf.getvalue())
        if outs[0] != outs[1] or not outs[0]:
            mismatches.append(suite)
    elapsed = time.monotonic() - t0
    report(capsys, "10 bench-determinism", not mismatches, elapsed, 300)
    assert not mismatches
