"""Command-line front end: stream algorithms, oracles, and JSON reports.

Exit codes: 0 success, 1 usage, parse or input-validation error, 2 infeasible
instance, 3 a size guard was exceeded.  Reports are single JSON objects (one
per line for bench); stored-edge counts are exactly the edges a streaming
algorithm retains, never process memory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from functools import partial

from .cap1 import Cap1State
from .cap2 import Cap2State
from .errors import InfeasibleError, ParseError, ResourceLimitError
from .framework import Analysis, FrameworkConfig, run_framework
from .graph import (
    ConnectivityMode,
    Graph,
    RequirementMap,
    load_graph,
    load_reliability,
    load_requirements,
    pair_connectivity,
    parse_graph_file,
    save_graph,
)
from .oracle import (
    Family,
    InstanceGenerator,
    brute_optimal,
    generate,
    max_disjoint_paths,
    offline_mst_weight,
)
from .spanner import FaultMode, FtConfig, TestKind, build_spanner, verify_ft_spanner
from .streams import BucketScheme, EdgeStream, StreamingMst, open_stream

MODES = {
    "ec": ConnectivityMode.EDGE,
    "vc": ConnectivityMode.VERTEX,
    "elc": ConnectivityMode.ELEMENT,
}
FAULT_MODES = {"vft": FaultMode.VERTEX, "eft": FaultMode.EDGE}
TESTS = {"exact": TestKind.EXACT, "peeling": TestKind.PEELING_EFT}
_BENCH_EPS = Fraction(1, 2)  # bucket ratio of the spanner, cap1 and cap2 bench suites


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _ratio(sol_weight, opt_weight):
    if opt_weight == 0:
        return 1.0 if sol_weight == 0 else None
    return sol_weight / opt_weight


def _emit(report, pretty):
    print(json.dumps(report, sort_keys=True, indent=2 if pretty else None))


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.ms = int((time.monotonic() - self.t0) * 1000)
        return False


# augmentation commands: state class, target vertex connectivity, help
# summary, and the generator settings of their bench suite
_CAPS = {
    "cap1": (Cap1State, 2, "augment a tree to 2-vertex-connectivity",
             dict(family=Family.TREE, n=8, link_count=4)),
    "cap2": (Cap2State, 3, "augment a 2-connected base to 3-connectivity",
             dict(family=Family.TWO_CONNECTED, n=7, link_count=3, chords=2)),
}


def _build_parser():
    top = argparse.ArgumentParser(prog="streamnd", allow_abbrev=False)
    top.add_argument("--json-pretty", action="store_true")
    # the global flag is also accepted after the subcommand name
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--json-pretty", action="store_true", default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, summary):
        # no option-prefix matching: `--seed` must not pass for `--seeds`
        return sub.add_parser(name, help=summary, parents=[common], allow_abbrev=False)

    p = command("spanner", "build a fault-tolerant spanner from a stream")
    p.add_argument("--mode", choices=FAULT_MODES, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument(
        "--test", choices=TESTS, help="default: exact if t <= 2, f <= 3 or n <= 12, else peeling"
    )
    p.add_argument("--shuffle-seed", type=int, default=None)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)

    p = command("sndp", "spanner-then-exact-solve for a requirement map")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--analysis", choices=[a.value for a in Analysis], default="fractional")
    p.add_argument("--graph", required=True)
    p.add_argument("--req", required=True)
    p.add_argument("--reliability", default=None)
    p.add_argument("--shuffle-seed", type=int, default=None)
    p.add_argument("--oracle", action="store_true")

    for name, (_, _, summary, _) in _CAPS.items():
        p = command(name, summary)
        p.add_argument("--base", required=True)
        p.add_argument("--links", required=True)
        p.add_argument("--eps", type=_fraction, required=True)
        p.add_argument("--shuffle-seed", type=int, default=None)
        p.add_argument("--oracle", action="store_true")

    p = command("oracle", "optimal solution by brute-force enumeration")
    p.add_argument("--base", required=True)
    p.add_argument("--links", required=True)
    p.add_argument("--req", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--reliability", default=None)

    p = command("verify-spanner", "exhaustive fault-tolerance check")
    p.add_argument("--graph", required=True)
    p.add_argument("--spanner", required=True)
    p.add_argument("--mode", choices=FAULT_MODES, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--eps", type=_fraction, required=True)

    p = command("bench", "seeded suite runs, one JSON line per seed")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 1..100")
    return top


def _cmd_spanner(args):
    stream = open_stream(args.input, shuffle_seed=args.shuffle_seed)
    config = FtConfig(
        f=args.f,
        t=args.t,
        mode=FAULT_MODES[args.mode],
        eps=args.eps,
        test_kind=TESTS[args.test] if args.test else None,
    )
    opened = []
    try:
        for path in (args.output, args.output + ".json"):
            open(path, "w").close()  # an unusable -o fails before any edge is read
            opened.append(path)
        with _Timer() as timer:
            state = build_spanner(stream, config)
    except BaseException:
        for path in opened:  # a failed run leaves no empty outputs behind
            os.remove(path)
        raise
    save_graph(state.spanner_graph(), args.output)
    sidecar = {
        "stored_edges": state.stored_edge_count,
        "buckets": sorted(state.buckets),
        "params": {
            "mode": args.mode,
            "f": args.f,
            "t": args.t,
            "eps": str(config.eps),
            "test": state.config.test_kind.value,
        },
    }
    with open(args.output + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")
    report = dict(sidecar, wall_time_ms=timer.ms)
    _emit(report, args.json_pretty)
    return 0


def _run_sndp(n, edges, req, cfg, reliable=None, shuffle_seed=None, oracle=True):
    """One pass of the edges through the framework, its solve and, on
    request, the brute-force optimum: (report, test kind, ms of the run)."""
    stream = EdgeStream.from_edges(n, edges, shuffle_seed=shuffle_seed)
    with _Timer() as timer:
        result = run_framework(stream, req, cfg, reliable=reliable)
    report = {
        "stored_edges": result.stored_edges,
        "sol_weight": result.weight,
        "factor_bound": cfg.factor_bound(req.k),
    }
    if oracle:
        _, opt = brute_optimal(Graph.build(n, (), reliable), edges, req, cfg.mode)
        report.update(opt_weight=opt, ratio=_ratio(result.weight, opt))
    return report, result.test_kind, timer.ms


def _cmd_sndp(args):
    n, edges = parse_graph_file(args.graph)
    req = load_requirements(args.req, n)
    reliable = load_reliability(args.reliability, n) if args.reliability else None
    cfg = FrameworkConfig(t=args.t, mode=MODES[args.mode], analysis=Analysis(args.analysis))
    report, test, ms = _run_sndp(n, edges, req, cfg, reliable, args.shuffle_seed, args.oracle)
    report["params"] = {
        "mode": args.mode,
        "t": args.t,
        "analysis": args.analysis,
        "f": cfg.fault_budget(req.k),
        "eps": str(cfg.eps),
        "k": req.k,
        "test": test.value,
    }
    report["wall_time_ms"] = ms
    _emit(report, args.json_pretty)
    return 0


def _run_cap(name, base, links, eps, shuffle_seed=None, oracle=True):
    """One pass of the links through a fresh cap1/cap2 state, its solve and,
    on request, the brute-force optimum: (report, ms of the streamed part)."""
    state_cls, augment_k, _, _ = _CAPS[name]
    stream = EdgeStream.from_edges(base.n, links, shuffle_seed=shuffle_seed)
    with _Timer() as timer:
        state = state_cls.from_base(base, BucketScheme(eps))
        for u, v, w in stream:
            state.process_link(u, v, w)
        result = state.finalize()
    report = {"stored_links": len(result.stored), "sol_weight": result.weight}
    if state_cls is Cap2State:
        report["spqr_nodes"] = len(state.tree.nodes)
    if oracle:
        req = RequirementMap.uniform(base.n, augment_k)
        _, opt = brute_optimal(base, links, req, ConnectivityMode.VERTEX)
        report.update(opt_weight=opt, ratio=_ratio(result.weight, opt))
    return report, timer.ms


def _load_links(path, base):
    """The links of a graph file, which must declare the base's vertex count."""
    n, links = parse_graph_file(path)
    if n != base.n:
        raise ParseError(path, 1, f"links declare n={n}, base has n={base.n}")
    return links


def _cmd_cap(args):
    base = load_graph(args.base)
    links = _load_links(args.links, base)
    report, ms = _run_cap(args.command, base, links, args.eps, args.shuffle_seed, args.oracle)
    report.update(params={"eps": str(args.eps), "n": base.n}, wall_time_ms=ms)
    _emit(report, args.json_pretty)
    return 0


def _cmd_oracle(args):
    base = load_graph(args.base, args.reliability)
    links = _load_links(args.links, base)
    req = load_requirements(args.req, base.n)
    with _Timer() as timer:
        ids, weight = brute_optimal(base, links, req, MODES[args.mode])
    report = {
        "opt_weight": weight,
        "opt_links": [list(links[i]) for i in ids],
        "wall_time_ms": timer.ms,
    }
    _emit(report, args.json_pretty)
    return 0


def _cmd_verify_spanner(args):
    g = load_graph(args.graph)
    h = load_graph(args.spanner)
    # map spanner edges onto g edge ids by value
    pool = {}
    for eid, (u, v, w) in enumerate(g.edges):
        pool.setdefault((min(u, v), max(u, v), w), []).append(eid)
    kept = []
    for u, v, w in h.edges:
        bucket = pool.get((min(u, v), max(u, v), w))
        if not bucket:
            raise ParseError(args.spanner, 0, f"edge ({u},{v},{w}) is not in the graph")
        kept.append(bucket.pop())
    config = FtConfig(f=args.f, t=args.t, mode=FAULT_MODES[args.mode], eps=args.eps)
    with _Timer() as timer:
        ok = verify_ft_spanner(g, kept, config)
    _emit({"ok": ok, "wall_time_ms": timer.ms}, args.json_pretty)
    return 0 if ok else 2


# -- bench suites; every line is deterministic for a fixed seed


def _bench_cap(suite, seed):
    inst = generate(InstanceGenerator(seed=seed, **_CAPS[suite][3]))
    report, _ = _run_cap(suite, inst.base, inst.links, _BENCH_EPS)
    return dict(report, seed=seed)


def _bench_sndp(seed):
    gen = InstanceGenerator(seed=seed, family=Family.CYCLE_PLUS_CHORDS, n=8, chords=3)
    inst = generate(gen)
    rng = random.Random(seed * 7_919 + 1)
    chosen = {}
    for _ in range(3):
        u = rng.randrange(inst.base.n)
        v = rng.randrange(inst.base.n)
        if u == v or (min(u, v), max(u, v)) in chosen:
            continue
        cap = pair_connectivity(inst.base, u, v, ConnectivityMode.VERTEX)
        if cap == 0:
            continue
        chosen[(min(u, v), max(u, v))] = min(2, cap)
    if not chosen:
        chosen[(0, 1)] = 1
    req = RequirementMap.from_pairs([(u, v, r) for (u, v), r in chosen.items()])
    cfg = FrameworkConfig(t=2, mode=ConnectivityMode.VERTEX, analysis=Analysis.INTEGRAL)
    report, _, _ = _run_sndp(inst.base.n, inst.base.edges, req, cfg)
    return dict(report, seed=seed)


def _bench_spanner(seed):
    gen = InstanceGenerator(seed=seed, family=Family.GNP, n=16, edge_prob=0.3)
    inst = generate(gen)
    config = FtConfig(f=1, t=2, mode=FaultMode.VERTEX, eps=_BENCH_EPS, test_kind=TestKind.EXACT)
    stream = EdgeStream.from_edges(inst.base.n, inst.base.edges)
    state = build_spanner(stream, config)
    return {
        "seed": seed,
        "input_edges": len(inst.base.edges),
        "stored_edges": state.stored_edge_count,
    }


def _bench_mst(seed):
    rng = random.Random(seed)
    n = 9
    links = [
        (rng.randrange(n), rng.randrange(n), rng.randint(1, 20)) for _ in range(16)
    ]
    links = [(u, v, w) for u, v, w in links if u != v]
    mst = StreamingMst(range(n))
    for u, v, w in links:
        mst.insert(u, v, w)
    stored = mst.total_weight()
    offline = offline_mst_weight(range(n), links)
    return {"seed": seed, "stored_weight": stored, "offline_weight": offline, "ratio": _ratio(stored, offline)}


def _bench_menger(seed):
    gen = InstanceGenerator(seed=seed, family=Family.GNP, n=6, edge_prob=0.5)
    inst = generate(gen)
    agree = 0
    total = 0
    for mode in ConnectivityMode:
        for u, v in ((0, 1), (0, inst.base.n - 1)):
            total += 1
            flow = pair_connectivity(inst.base, u, v, mode)
            if flow == max_disjoint_paths(inst.base, u, v, mode):
                agree += 1
    return {"seed": seed, "checked": total, "agree": agree}


_SUITES = {
    "spanner": _bench_spanner,
    "sndp": _bench_sndp,
    "cap1": partial(_bench_cap, "cap1"),
    "cap2": partial(_bench_cap, "cap2"),
    "mst": _bench_mst,
    "menger": _bench_menger,
}


def _cmd_bench(args):
    try:
        lo, hi = args.seeds.split("..")
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range {args.seeds!r}") from None
    runner = _SUITES[args.suite]
    max_ratio = None
    for seed in range(lo, hi + 1):
        report = runner(seed)
        ratio = report.get("ratio")
        if ratio is not None:
            max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
        _emit(report, args.json_pretty)
    _emit({"suite": args.suite, "seeds": args.seeds, "max_ratio": max_ratio}, args.json_pretty)
    return 0


_COMMANDS = {
    "spanner": _cmd_spanner,
    "sndp": _cmd_sndp,
    "cap1": _cmd_cap,
    "cap2": _cmd_cap,
    "oracle": _cmd_oracle,
    "verify-spanner": _cmd_verify_spanner,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
