"""Tests for the benchmark's tracer and checkers.

    python -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _p in (HERE.parent / "src", HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import pytest  # noqa: E402

import streamnd  # noqa: E402
from streamnd import cap1, cap2, framework, graph, oracle, spanner, spqr, streams  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, vertex_k_connected  # noqa: E402

# spans each workload must fire; every other target must stay at zero calls
PRESENT = {
    "spanner-vft": {
        "spanner.FtSpannerState.process_edge",
        "spanner.ft_test_exact",
        "spanner.HopGraph.within_hops",
        "spanner.HopGraph.short_path",
        "streams.BucketScheme.bucket_of",
    },
    "spanner-eft": {
        "spanner.FtSpannerState.process_edge",
        "spanner.ft_test_peeling_eft",
        "spanner.HopGraph.short_path",
        "streams.BucketScheme.bucket_of",
    },
    "cap1": {
        "cap1.Cap1State.from_base",
        "cap1.Cap1State.process_link",
        "cap1.Cap1State.finalize",
        "cap1.RootedTree.lca",
        "streams.StreamingMst.insert",
        "streams.BucketScheme.bucket_of",
        "framework.exact_solve",
        "graph.check_feasible",
        "graph.Graph.subgraph",
    },
    "cap2": {
        "cap2.Cap2State.from_base",
        "cap2.Cap2State.process_link",
        "cap2.Cap2State.finalize",
        "graph.is_k_connected",
        "spqr.build_spqr",
        "streams.StreamingMst.insert",
        "streams.BucketScheme.bucket_of",
        "framework.exact_solve",
        "graph.check_feasible",
        "graph.Graph.subgraph",
    },
}

SMALL = {
    "spanner-vft": {"n": 48},
    "spanner-eft": {"n": 48},
    "cap1": {"instances": 12},
    "cap2": {"instances": 12},
}


def self_times_from_spans(tracer):
    """Self seconds per span name, recomputed from the stored spans alone."""
    child = [0.0] * len(tracer.span_name)
    for sid, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            child[parent] += tracer.span_end[sid] - tracer.span_start[sid]
    out = dict.fromkeys(tracer.names, 0.0)
    for sid, idx in enumerate(tracer.span_name):
        out[tracer.names[idx]] += tracer.span_end[sid] - tracer.span_start[sid] - child[sid]
    return out


def small(name):
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, spec=dataclasses.replace(wl.spec, **SMALL[name]))


def test_install_patches_every_resolvable_binding_and_uninstall_restores():
    originals = {
        (graph, "check_feasible"): graph.check_feasible,
        (framework, "check_feasible"): framework.check_feasible,
        (oracle, "check_feasible"): oracle.check_feasible,
        (streamnd, "check_feasible"): streamnd.check_feasible,
        (graph, "is_k_connected"): graph.is_k_connected,
        (cap2, "is_k_connected"): cap2.is_k_connected,
        (spqr, "is_k_connected"): spqr.is_k_connected,
        (framework, "exact_solve"): framework.exact_solve,
        (cap1, "exact_solve"): cap1.exact_solve,
        (cap2, "exact_solve"): cap2.exact_solve,
        (spqr, "build_spqr"): spqr.build_spqr,
        (cap2, "build_spqr"): cap2.build_spqr,
        (spanner, "ft_test_exact"): spanner.ft_test_exact,
    }
    methods = {
        (cls, attr): cls.__dict__[attr]
        for cls, attr in (
            (cap1.Cap1State, "from_base"),
            (cap2.Cap2State, "from_base"),
            (cap1.Cap1State, "process_link"),
            (spanner.HopGraph, "within_hops"),
            (streams.BucketScheme, "bucket_of"),
            (graph.Graph, "subgraph"),
        )
    }
    tracer = Tracer()
    with tracer.installed():
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr).__wrapped__ is fn, f"{mod.__name__}.{attr}"
        for (cls, attr), raw in methods.items():
            now = cls.__dict__[attr]
            assert type(now) is type(raw)
            inner = now.__func__ if isinstance(now, staticmethod) else now
            expect = raw.__func__ if isinstance(raw, staticmethod) else raw
            assert inner.__wrapped__ is expect
        # no streamnd module may still hold an unwrapped target function
        wrapped_fns = list(originals.values())
        for name, mod in sys.modules.items():
            if name == "streamnd" or name.startswith("streamnd."):
                for key, value in vars(mod).items():
                    assert not any(value is fn for fn in wrapped_fns), f"{name}.{key} left unpatched"
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    for (cls, attr), raw in methods.items():
        assert cls.__dict__[attr] is raw


@pytest.mark.parametrize("name", sorted(PRESENT))
def test_spans_fire_where_predicted_and_nowhere_else(name):
    wl = small(name)
    inputs = wl.generate(7)
    plain = wl.run_pass(inputs)
    tracer = Tracer()

    def bump():
        tracer.op += 1

    with tracer.installed():
        traced = wl.run_pass(inputs, on_op=bump)
    assert all(rec.ok for rec in traced.ops), [rec.error for rec in traced.ops]
    assert traced.digest() == plain.digest(), "tracing changed the outputs"

    totals = tracer.totals()
    assert set(totals) == set(TARGETS)
    fired = {span for span, (calls, _) in totals.items() if calls}
    assert fired == PRESENT[name], (
        f"missing {sorted(PRESENT[name] - fired)}, unexpected {sorted(fired - PRESENT[name])}"
    )
    assert set(tracer.span_op) == set(range(1, len(inputs) + 1))

    # self times partition the time covered by root spans
    roots = sum(
        tracer.span_end[i] - tracer.span_start[i]
        for i, parent in enumerate(tracer.span_parent)
        if parent < 0
    )
    self_total = sum(s for _, s in totals.values())
    assert self_total == pytest.approx(roots, rel=1e-9, abs=1e-9)
    recomputed = self_times_from_spans(tracer)
    for span, (_, self_s) in totals.items():
        assert recomputed[span] == pytest.approx(self_s, rel=1e-9, abs=1e-9)
        assert self_s >= 0


def test_written_spans_parse_back(tmp_path):
    wl = small("cap2")
    inputs = wl.generate(3)[:2]
    tracer = Tracer()
    with tracer.installed():
        wl.run_pass(inputs)
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["names"] == list(TARGETS)
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == len(tracer.span_name) > 0
    for name, start, end, parent, _op in rows:
        assert 0 <= name < len(TARGETS) and start <= end and parent < len(rows)


def test_vertex_k_connected_agrees_with_flow_connectivity():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(2, 8)
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = streamnd.Graph.build(n, edges)
        for k in (2, 3):
            expect = streamnd.is_k_connected(g, k, streamnd.ConnectivityMode.VERTEX)
            assert vertex_k_connected(n, edges, k) == expect, (n, edges, k)
