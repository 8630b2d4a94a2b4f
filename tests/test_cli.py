import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import streamnd.cap1
import streamnd.cli
import streamnd.spanner
from streamnd import Family, Graph, InstanceGenerator, framework, generate, save_graph
from streamnd.cli import main
from streamnd.graph import parse_graph_file

from conftest import short_digest


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    return write(tmp_path / "c4.txt", "4 4\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")


def test_spanner_writes_output_and_sidecar(tmp_path, c4_file):
    out_path = tmp_path / "h.txt"
    code, out, _ = run_cli(
        ["spanner", "--mode", "vft", "--f", "1", "--t", "2", "--eps", "1/3",
         "--test", "exact", "-i", c4_file, "-o", str(out_path)]
    )
    assert code == 0
    report = json.loads(out)
    assert report["stored_edges"] == 4
    assert out_path.exists()
    sidecar = json.loads((tmp_path / "h.txt.json").read_text())
    assert sidecar["params"]["test"] == "exact"


def test_missing_file_exits_one(tmp_path):
    code, _, err = run_cli(
        ["spanner", "--mode", "vft", "--f", "0", "--t", "1", "--eps", "1",
         "-i", str(tmp_path / "absent.txt"), "-o", str(tmp_path / "o.txt")]
    )
    assert code == 1
    assert "absent.txt" in err


@pytest.mark.parametrize("side", ["input", "output"])
def test_directory_path_exits_one(tmp_path, c4_file, side, monkeypatch):
    # both paths are opened before the build, so no edge is processed
    builds = []
    monkeypatch.setattr(streamnd.cli, "build_spanner", lambda *a: builds.append(a))
    paths = {"input": c4_file, "output": str(tmp_path / "o.txt")}
    paths[side] = str(tmp_path)
    code, out, err = run_cli(
        ["spanner", "--mode", "vft", "--f", "0", "--t", "1", "--eps", "1",
         "-i", paths["input"], "-o", paths["output"]]
    )
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert str(tmp_path) in err and "Traceback" not in err
    assert builds == []


@pytest.mark.parametrize(
    "argv",
    [
        ["spanner", "--mode", "vft", "--f", "1", "--t", "2", "--eps", "1/3",
         "-i", "{huge}", "-o", "{out}"],
        ["sndp", "--mode", "vc", "--t", "2", "--graph", "{huge}", "--req", "{req}"],
        ["cap1", "--base", "{huge}", "--links", "{links}", "--eps", "1/2"],
    ],
    ids=["spanner", "sndp", "cap1"],
)
def test_vertex_count_guard_exits_three(tmp_path, argv):
    # a header past graph.MAX_VERTICES is refused before any per-vertex list
    # is built; the bound itself is accepted
    paths = {
        "huge": write(tmp_path / "huge.txt", "1048577 1\n0 1 1\n"),
        "req": write(tmp_path / "req.txt", "0 1 1\n"),
        "links": write(tmp_path / "links.txt", "4 0\n"),
        "out": str(tmp_path / "h.txt"),
    }
    code, out, err = run_cli([arg.format(**paths) for arg in argv])
    assert code == 3
    assert out == "" and err.startswith("resource guard: ") and "Traceback" not in err
    assert not (tmp_path / "h.txt").exists()
    bound = write(tmp_path / "bound.txt", "1048576 0\n")
    assert parse_graph_file(bound) == (1048576, [])


def test_usage_error_exits_one():
    code, _, _ = run_cli(["spanner", "--bogus"])
    assert code == 1


def test_removed_test_kind_is_a_usage_error(tmp_path, c4_file):
    code, _, err = run_cli(
        ["spanner", "--mode", "vft", "--f", "1", "--t", "2", "--eps", "1/3",
         "--test", "sampled", "-i", c4_file, "-o", str(tmp_path / "h.txt")]
    )
    assert code == 1
    assert "invalid choice: 'sampled'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--seed", "3", "cap1", "--base", "{base}", "--links", "{links}", "--eps", "1/2"],
            "invalid choice: '3'",
        ),
        (
            ["cap1", "--base", "{base}", "--links", "{links}", "--eps", "1/2", "--seed", "3"],
            "unrecognized arguments: --seed 3",
        ),
    ],
    ids=["before-command", "after-command"],
)
def test_seed_flag_is_gone(tmp_path, argv, message):
    paths = {
        "base": write(tmp_path / "t.txt", "3 2\n0 1 1\n1 2 1\n"),
        "links": write(tmp_path / "l.txt", "3 1\n0 2 3\n"),
    }
    code, out, err = run_cli([arg.format(**paths) for arg in argv])
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--suite", "mst", "--seed", "1..2"], "required: --seeds"),
        (["spanner", "--mode", "vft", "--f", "1", "--t", "2", "-i", "g.txt", "-o", "h.txt",
          "--eps", "1/3", "--ep", "1/3"], "unrecognized arguments: --ep 1/3"),
    ],
    ids=["seed-for-seeds", "ep-for-eps"],
)
def test_option_prefixes_are_not_expanded(argv, message):
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("seeds", ["3..1", "1-3", "a..b"])
def test_bad_seed_range_is_a_usage_error(seeds):
    code, out, err = run_cli(["bench", "--suite", "mst", "--seeds", seeds])
    assert code == 1
    assert out == ""
    assert f"bad seed range {seeds!r}" in err


def test_exact_edge_test_on_many_parallel_edges(tmp_path):
    # n <= 12 picks the exact test; a budget past an endpoint's degree is a
    # cut of that endpoint's edges, not one branching level per parallel copy
    lines = "0 1 1\n" * 1200 + "1 2 1\n2 3 1\n"
    graph = write(tmp_path / "multi.txt", f"4 1202\n{lines}")
    code, out, err = run_cli(
        ["spanner", "--mode", "eft", "--f", "5000", "--t", "3", "--eps", "1/3",
         "-i", graph, "-o", str(tmp_path / "h.txt")]
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["params"]["test"] == "exact"
    assert report["stored_edges"] == 1202


def test_large_vertex_fault_budget_picks_peeling(tmp_path):
    ring = "".join(f"{i} {(i + 1) % 13} 1\n" for i in range(13))
    graph = write(tmp_path / "ring.txt", f"13 13\n{ring}")
    out_path = tmp_path / "h.txt"
    code, out, err = run_cli(
        ["spanner", "--mode", "vft", "--f", "4", "--t", "3", "--eps", "1/3",
         "-i", graph, "-o", str(out_path)]
    )
    assert code == 0, err
    sidecar = json.loads((tmp_path / "h.txt.json").read_text())
    assert sidecar["params"]["test"] == "peeling"
    code, out, err = run_cli(
        ["verify-spanner", "--graph", graph, "--spanner", str(out_path),
         "--mode", "vft", "--f", "4", "--t", "3", "--eps", "1/3"]
    )
    assert code == 0, err


def test_large_fault_budget_at_t2_picks_the_exact_test(tmp_path):
    graph = tmp_path / "g24.txt"
    gen = InstanceGenerator(seed=1, family=Family.GNP, n=24, edge_prob=0.5, weight_lo=1, weight_hi=1)
    save_graph(generate(gen).base, graph)
    out_path = tmp_path / "h.txt"
    code, out, err = run_cli(
        ["spanner", "--mode", "eft", "--f", "5", "--t", "2", "--eps", "1/3",
         "--shuffle-seed", "1", "-i", str(graph), "-o", str(out_path)]
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["params"]["test"] == "exact"
    assert out_path.exists()


def test_sndp_with_oracle(tmp_path, c4_file):
    req = write(tmp_path / "req.txt", "0 2 2\n")
    code, out, _ = run_cli(
        ["sndp", "--mode", "ec", "--t", "2", "--graph", c4_file, "--req", req, "--oracle"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] is not None and report["ratio"] <= 8 * 2
    assert report["factor_bound"] == 16


def test_sndp_reports_the_test_that_ran(tmp_path, c4_file):
    ring = "".join(f"{i} {(i + 1) % 13} 1\n" for i in range(13))
    graph = write(tmp_path / "ring.txt", f"13 13\n{ring}")
    req = write(tmp_path / "req.txt", "0 1 1\n")
    # f = 3 at t = 2 on C4; f = 5 at t = 3 on the 13-ring, past the exact cases
    for path, t, test in ((c4_file, "2", "exact"), (graph, "3", "peeling")):
        code, out, err = run_cli(["sndp", "--mode", "ec", "--t", t, "--graph", path, "--req", req])
        assert code == 0, err
        assert json.loads(out)["params"]["test"] == test


def test_ec_sndp_at_t3_never_branches(tmp_path, monkeypatch):
    # f = 15 on G(24, 0.5): the exact test would branch over fault sets of
    # up to 15 edges; peeling keeps more edges than the solver guard allows
    def branch(*args):
        raise AssertionError("the exact test branched")

    monkeypatch.setattr(streamnd.spanner, "_cut_exists", branch)
    graph = tmp_path / "g24.txt"
    gen = InstanceGenerator(seed=1, family=Family.GNP, n=24, edge_prob=0.5, weight_lo=1, weight_hi=1)
    save_graph(generate(gen).base, graph)
    req = write(tmp_path / "req.txt", "0 1 2\n")
    code, out, err = run_cli(["sndp", "--mode", "ec", "--t", "3", "--graph", str(graph), "--req", req])
    assert code == 3 and out == ""
    assert err.startswith("resource guard: ")


def test_sndp_infeasible_exits_two(tmp_path):
    g = write(tmp_path / "g.txt", "3 1\n0 1 1\n")
    req = write(tmp_path / "req.txt", "0 2 1\n")
    code, _, err = run_cli(["sndp", "--mode", "vc", "--t", "1", "--graph", g, "--req", req])
    assert code == 2


def test_cap1_run(tmp_path):
    base = write(tmp_path / "t.txt", "3 2\n0 1 1\n1 2 1\n")
    links = write(tmp_path / "l.txt", "3 1\n0 2 3\n")
    code, out, _ = run_cli(["cap1", "--base", base, "--links", links, "--eps", "1/2", "--oracle"])
    assert code == 0
    report = json.loads(out)
    assert report["sol_weight"] == 3 and report["ratio"] == 1.0


def test_cap1_infeasible(tmp_path):
    base = write(tmp_path / "t.txt", "3 2\n0 1 1\n1 2 1\n")
    links = write(tmp_path / "l.txt", "3 0\n")
    code, _, _ = run_cli(["cap1", "--base", base, "--links", links, "--eps", "1/2"])
    assert code == 2


def test_cap1_solver_guard_exits_three(tmp_path):
    # the instance whose 41 retained links trip the guard in test_cap1.py
    inst = generate(InstanceGenerator(seed=1, family=Family.TREE, n=18, link_count=4))
    base, links = str(tmp_path / "t.txt"), str(tmp_path / "l.txt")
    save_graph(inst.base, base)
    save_graph(Graph.build(inst.base.n, inst.links), links)
    code, _, err = run_cli(["cap1", "--base", base, "--links", links, "--eps", "1/2"])
    assert code == 3
    assert "resource guard:" in err


def test_cap1_solver_guard_fires_before_the_solve_is_built(tmp_path, monkeypatch):
    # a star of 1600 vertices with 3200 links keeps ~2960 of them; the guard
    # must fire before the n(n-1)/2-pair requirement map and the graph exist
    n = 1600
    rng = random.Random(1)
    base, links = str(tmp_path / "t.txt"), str(tmp_path / "l.txt")
    save_graph(Graph.build(n, [(0, i, 1) for i in range(1, n)]), base)
    save_graph(
        Graph.build(n, [(*rng.sample(range(n), 2), rng.randint(1, 100)) for _ in range(2 * n)]),
        links,
    )
    maps = []
    monkeypatch.setattr(streamnd.cap1.RequirementMap, "uniform", staticmethod(maps.append))
    start = time.perf_counter()
    code, out, err = run_cli(["cap1", "--base", base, "--links", links, "--eps", "1/2"])
    assert code == 3 and out == ""
    assert err.startswith("resource guard: ") and "exceeds the solver guard 40" in err
    assert maps == []
    assert time.perf_counter() - start < 5


PATH4 = "4 3\n0 1 1\n1 2 1\n2 3 1\n"
C4 = "4 4\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n"


@pytest.mark.parametrize(
    "files, argv",
    [
        (
            {"base": "4 2\n0 1 1\n2 3 1\n", "links": "4 1\n0 2 1\n"},
            ["cap1", "--base", "{base}", "--links", "{links}", "--eps", "1/2"],
        ),
        (
            {"base": PATH4, "links": "4 1\n0 3 1\n"},
            ["cap2", "--base", "{base}", "--links", "{links}", "--eps", "1/2"],
        ),
        (
            {"base": "2 1\n0 1 1\n", "links": "2 1\n0 1 5\n"},
            ["cap1", "--base", "{base}", "--links", "{links}", "--eps", "1/2", "--oracle"],
        ),
        (
            {"base": "1 0\n", "links": "1 0\n"},
            ["cap1", "--base", "{base}", "--links", "{links}", "--eps", "1/2", "--oracle"],
        ),
        (
            {"base": PATH4, "links": "4 1\n0 3 1\n"},
            ["cap1", "--base", "{base}", "--links", "{links}", "--eps", "0"],
        ),
        (
            {"graph": PATH4, "req": "0 3 1\n"},
            ["sndp", "--mode", "vc", "--t", "0", "--graph", "{graph}", "--req", "{req}"],
        ),
        (
            {"graph": PATH4, "req": "0 9 1\n"},
            ["sndp", "--mode", "vc", "--t", "1", "--graph", "{graph}", "--req", "{req}"],
        ),
        (
            {"graph": PATH4, "req": "0 9 1\n"},
            ["sndp", "--mode", "elc", "--t", "1", "--graph", "{graph}", "--req", "{req}"],
        ),
        (
            {"graph": C4, "req": "0 2 1\n0 9 0\n"},
            ["sndp", "--mode", "vc", "--t", "2", "--graph", "{graph}", "--req", "{req}"],
        ),
        (
            {"base": C4, "links": "4 1\n0 2 1\n", "req": "0 2 1\n0 9 0\n"},
            ["oracle", "--base", "{base}", "--links", "{links}", "--req", "{req}", "--mode", "vc"],
        ),
        (
            {"base": C4, "links": "9 1\n0 8 5\n", "req": "0 2 2\n"},
            ["oracle", "--base", "{base}", "--links", "{links}", "--req", "{req}", "--mode", "vc"],
        ),
        (
            {"base": C4, "links": "2 1\n0 1 5\n", "req": "0 2 2\n"},
            ["oracle", "--base", "{base}", "--links", "{links}", "--req", "{req}", "--mode", "vc"],
        ),
        (
            {"graph": "3 2\n0 1 1\n0 7 1\n"},
            ["spanner", "--mode", "vft", "--f", "1", "--t", "2", "--eps", "1/3", "--test", "exact",
             "-i", "{graph}", "-o", "{graph}.out"],
        ),
    ],
    ids=[
        "cap1-disconnected-base",
        "cap2-base-not-2-connected",
        "cap1-base-on-2-vertices",
        "cap1-base-on-1-vertex",
        "cap1-eps-0",
        "sndp-t-0",
        "sndp-req-vertex-outside-graph",
        "sndp-elc-req-vertex-outside-graph",
        "sndp-zero-req-vertex-outside-graph",
        "oracle-zero-req-vertex-outside-graph",
        "oracle-links-on-more-vertices",
        "oracle-links-on-fewer-vertices",
        "spanner-edge-outside-graph",
    ],
)
def test_invalid_input_exits_one_without_traceback(tmp_path, files, argv):
    paths = {name: write(tmp_path / f"{name}.txt", text) for name, text in files.items()}
    code, _, err = run_cli([arg.format(**paths) for arg in argv])
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cap1", "--base", "{base}", "--links", "{links}", "--eps", "1/10000"],
        ["cap2", "--base", "{cycle}", "--links", "{links}", "--eps", "1/10000"],
        ["spanner", "--mode", "vft", "--f", "1", "--t", "2", "--eps", "1/10000",
         "-i", "{links}", "-o", "{links}.out"],
    ],
    ids=["cap1", "cap2", "spanner"],
)
def test_bucket_guard_exits_three(tmp_path, argv):
    # one heavy link would need ~138k weight classes at this eps
    paths = {
        "base": write(tmp_path / "tree.txt", "4 3\n0 1 1\n1 2 1\n2 3 1\n"),
        "cycle": write(tmp_path / "cycle.txt", C4),
        "links": write(tmp_path / "links.txt", "4 1\n0 2 1000000\n"),
    }
    code, out, err = run_cli([arg.format(**paths) for arg in argv])
    assert code == 3
    assert out == "" and err.startswith("resource guard: ")
    # the spanner's outputs, opened before the build, are removed with it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cycle.txt", "links.txt", "tree.txt"]


def test_cap2_run(tmp_path, c4_file):
    links = write(tmp_path / "l.txt", "4 2\n0 2 1\n1 3 1\n")
    code, out, _ = run_cli(["cap2", "--base", c4_file, "--links", links, "--eps", "1/2", "--oracle"])
    assert code == 0
    report = json.loads(out)
    assert report["sol_weight"] == 2 and report["spqr_nodes"] == 1


def test_oracle_subcommand(tmp_path, c4_file):
    links = write(tmp_path / "l.txt", "4 2\n0 2 1\n1 3 1\n")
    req = write(tmp_path / "req.txt", "\n".join(f"{u} {v} 3" for u in range(4) for v in range(u + 1, 4)) + "\n")
    code, out, _ = run_cli(["oracle", "--base", c4_file, "--links", links, "--req", req, "--mode", "vc"])
    assert code == 0
    report = json.loads(out)
    assert report["opt_weight"] == 2 and len(report["opt_links"]) == 2


def test_oracle_guard_exits_three(tmp_path, c4_file):
    lines = "\n".join("0 2 1" for _ in range(23))
    links = write(tmp_path / "l.txt", f"4 23\n{lines}\n")
    req = write(tmp_path / "req.txt", "0 2 1\n")
    code, _, _ = run_cli(["oracle", "--base", c4_file, "--links", links, "--req", req, "--mode", "vc"])
    assert code == 3


def test_verify_spanner_roundtrip(tmp_path, c4_file):
    out_path = tmp_path / "h.txt"
    run_cli(
        ["spanner", "--mode", "vft", "--f", "1", "--t", "2", "--eps", "1/3",
         "--test", "exact", "-i", c4_file, "-o", str(out_path)]
    )
    code, out, _ = run_cli(
        ["verify-spanner", "--graph", c4_file, "--spanner", str(out_path),
         "--mode", "vft", "--f", "1", "--t", "2", "--eps", "1/3"]
    )
    assert code == 0 and json.loads(out)["ok"] is True
    # a deliberately broken spanner fails verification
    broken = write(tmp_path / "b.txt", "4 1\n0 1 1\n")
    code, out, _ = run_cli(
        ["verify-spanner", "--graph", c4_file, "--spanner", broken,
         "--mode", "vft", "--f", "0", "--t", "1", "--eps", "1/3"]
    )
    assert code == 2 and json.loads(out)["ok"] is False


def test_bench_lines_are_json_and_deterministic():
    code1, out1, _ = run_cli(["bench", "--suite", "mst", "--seeds", "1..5"])
    code2, out2, _ = run_cli(["bench", "--suite", "mst", "--seeds", "1..5"])
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 6  # five seeds plus the summary
    for line in lines:
        json.loads(line)
    assert json.loads(lines[-1])["max_ratio"] == 1.0


# digests of the default `bench --seeds 1..10` output per suite; a speed change
# must leave every line byte-identical
BENCH_PINS = {
    "spanner": "d4af68a7693b8b92",
    "sndp": "f410f9055c594e2c",
    "cap1": "0f593e597fcd9322",
    "cap2": "6bbdca6981a0b259",
    "mst": "e1280e26c54c5adc",
    "menger": "86298fc60b884342",
}


@pytest.mark.parametrize("suite", BENCH_PINS)
def test_default_bench_output_is_pinned(suite):
    code, out, err = run_cli(["bench", "--suite", suite, "--seeds", "1..10"])
    assert code == 0 and err == ""
    assert short_digest(out) == BENCH_PINS[suite]


# `check_feasible` calls made by `exact_solve` over `bench --seeds 1..10`.
# Before the degree bound: cap1 260, cap2 210; with it: cap1 147, cap2 134,
# sndp 209.  Skipping the sets the bound's table finds short in degree leaves
# these; a change may only lower them, and then must re-pin them.
FEASIBLE_CALLS = {"cap1": 88, "cap2": 88, "sndp": 101}


def test_exact_solve_bound_saves_feasibility_calls(monkeypatch):
    real = framework.check_feasible
    calls = []

    def counting(g, req, mode):
        calls.append(1)
        return real(g, req, mode)

    monkeypatch.setattr(framework, "check_feasible", counting)
    counts = {}
    for suite in FEASIBLE_CALLS:
        calls.clear()
        code, out, _ = run_cli(["bench", "--suite", suite, "--seeds", "1..10"])
        assert code == 0 and short_digest(out) == BENCH_PINS[suite]
        counts[suite] = len(calls)
    assert counts == FEASIBLE_CALLS
