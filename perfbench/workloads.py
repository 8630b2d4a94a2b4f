"""The four benchmark workloads: seeded input generation, one timed pass over
the inputs, and the correctness checks run on a pass's outputs.

Everything here calls streamnd through its public API only.  Inputs are
generated before any timing starts; the library only ever sees the generated
edges and links.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from time import perf_counter

import streamnd as snd


@dataclass
class OpRecord:
    """Outputs of one operation, kept for the checks and the digest."""

    ok: bool = True
    error: str = ""
    stored: int = 0
    bound: int = 0  # space_bound() for cap ops, streamed edges for spanner ops
    weight: int = 0
    ident: tuple = ()  # kept edge ids, or (stored link ids, chosen link ids)
    state: object = None  # the finished state; kept on checked passes only
    result: object = None

    def key(self):
        """What must repeat exactly whenever the op is run on the same input."""
        return (self.ok, self.stored, self.weight, self.ident)


@dataclass
class PassResult:
    """Timings and outputs of one pass over a workload's inputs."""

    wall_s: float = 0.0
    setup_s: array = field(default_factory=lambda: array("d"))  # per op
    op_s: array = field(default_factory=lambda: array("d"))
    item_s: array = field(default_factory=lambda: array("d"))
    ops: list = field(default_factory=list)

    def digest(self):
        h = hashlib.sha256()
        for rec in self.ops:
            h.update(repr(rec.key()).encode())
        return h.hexdigest()[:16]


def _failed(res, rec, exc, items_end):
    """Record an op that raised; its unmeasured times read as infinite so
    that timings of every pass stay aligned op by op and item by item."""
    rec.ok, rec.error = False, f"{type(exc).__name__}: {exc}"
    res.ops.append(rec)
    res.setup_s.append(math.inf)
    res.op_s.append(math.inf)
    res.item_s.extend([math.inf] * (items_end - len(res.item_s)))


# ---------------------------------------------------------------------------
# spanner workloads


@dataclass(frozen=True)
class SpannerSpec:
    n: int
    p: float
    f: int
    mode: snd.FaultMode
    test_kind: snd.TestKind


@dataclass
class SpannerInputs:
    n: int
    edges: list  # (u, v, 1) in stream order
    config: snd.FtConfig


def spanner_generate(spec, seed):
    """One unit-weight G(n, p) drawn by the library's instance generator,
    streamed in the library's seeded shuffle order."""
    config = snd.FtConfig(
        f=spec.f, t=2, mode=spec.mode, eps=Fraction(1, 3), test_kind=spec.test_kind
    )
    gen = snd.InstanceGenerator(
        seed=seed, family=snd.Family.GNP, n=spec.n, edge_prob=spec.p, weight_lo=1, weight_hi=1
    )
    edges = snd.generate(gen).base.edges
    stream = snd.EdgeStream.from_edges(spec.n, edges, shuffle_seed=seed)
    return [SpannerInputs(spec.n, list(stream), config)]


SETUP_BLOCK = 500  # spanner state constructions timed together for setup_s


def spanner_pass(inputs, keep_state, on_op=None):
    res = PassResult()
    w0 = perf_counter()
    for inp in inputs:
        if on_op is not None:
            on_op()
        rec = OpRecord()
        item_s = res.item_s
        first_item = len(item_s)
        try:
            # one construction takes microseconds: time a block of them
            t0 = perf_counter()
            for _ in range(SETUP_BLOCK):
                snd.FtSpannerState(inp.n, inp.config, 1)
            setup = (perf_counter() - t0) / SETUP_BLOCK
            t0 = perf_counter()
            state = snd.FtSpannerState(inp.n, inp.config, 1)
            process = state.process_edge
            for u, v, w in inp.edges:
                a = perf_counter()
                process(u, v, w)
                item_s.append(perf_counter() - a)
            kept = state.kept_ids()
            t2 = perf_counter()
        except Exception as exc:  # an op that raises is a failed op
            _failed(res, rec, exc, first_item + len(inp.edges))
            continue
        res.setup_s.append(setup)
        res.op_s.append(t2 - t0)
        rec.stored = state.stored_edge_count
        rec.bound = len(inp.edges)
        rec.weight = sum(e.w for e in state.kept)
        rec.ident = kept
        if keep_state:
            rec.state = state
        res.ops.append(rec)
    res.wall_s = perf_counter() - w0
    return res


def _peel_edge_disjoint(adj, u, v, want, hop_bound):
    """Greedily peel up to `want` edge-disjoint u-v paths of at most
    `hop_bound` hops by repeated BFS; returns how many were found."""
    banned = set()
    found = 0
    while found < want:
        parent = {u: None}
        frontier = [u]
        hit = False
        for _ in range(hop_bound):
            nxt = []
            for x in frontier:
                for y, eid in adj[x]:
                    if eid in banned or y in parent:
                        continue
                    parent[y] = (x, eid)
                    if y == v:
                        hit = True
                        break
                    nxt.append(y)
                if hit:
                    break
            if hit or not nxt:
                break
            frontier = nxt
        if not hit:
            return found
        z = v
        while parent[z] is not None:
            z, eid = parent[z]
            banned.add(eid)
        found += 1
    return found


def spanner_check(inputs, res):
    """Every rejected edge must be certified by disjoint short paths in its
    final bucket graph: f//2+1 internally vertex-disjoint ones for vertex
    faults (peeled by the library's extractor), f+1 edge-disjoint ones for
    edge faults (peeled by this harness's own BFS)."""
    for inp, rec in zip(inputs, res.ops):
        if not rec.ok:
            continue
        state = rec.state
        cfg = inp.config
        hop = cfg.threshold
        if cfg.mode is snd.FaultMode.VERTEX:
            for e in state.rejected:
                try:
                    snd.extract_disjoint_paths(
                        state.buckets[e.bucket], e.u, e.v, cfg.f // 2 + 1, hop
                    )
                except snd.ContractViolationError as exc:
                    rec.ok, rec.error = False, f"edge {e.stream_index}: {exc}"
                    break
        else:
            adj = {}
            for j, h in state.buckets.items():
                adj[j] = [[] for _ in range(h.n)]
                for eid, (a, b) in enumerate(h.edges):
                    adj[j][a].append((b, eid))
                    adj[j][b].append((a, eid))
            for e in state.rejected:
                got = _peel_edge_disjoint(adj[e.bucket], e.u, e.v, cfg.f + 1, hop)
                if got < cfg.f + 1:
                    rec.ok = False
                    rec.error = f"edge {e.stream_index}: only {got} of {cfg.f + 1} short paths"
                    break
        if rec.stored != len(state.kept) or rec.stored + len(state.rejected) != len(inp.edges):
            rec.ok, rec.error = False, "kept and rejected counts do not cover the stream"


# ---------------------------------------------------------------------------
# augmentation workloads


SOLVER_GUARD = 40  # branching edges accepted by exact_solve (README)
BRUTE_LINKS = 12  # brute_optimal accepts 22 links, but past 12 one call can take seconds
BRUTE_SAMPLE = 6  # instances per run checked against brute_optimal


@dataclass(frozen=True)
class CapSpec:
    state_cls: str  # "Cap1State" or "Cap2State"
    family: snd.Family
    target_k: int
    factor: int  # approximation ceiling is (factor + eps) * opt
    instances: int
    n_lo: int
    n_hi: int
    link_count: int
    max_links: int
    chords: int = 3
    eps: Fraction = Fraction(1, 2)
    weight_hi: int = 8


@dataclass
class CapInputs:
    index: int
    base: snd.Graph
    links: tuple


def _stored_ceiling(spec, base, links):
    """Most links a state can retain: every stream link plus every base edge
    that is replayed as a weight-0 link (cap1 keeps n-1 tree edges, cap2 at
    least n edges of its 2-connected base)."""
    kept_base = base.n - 1 if spec.target_k == 2 else base.n
    return len(links) + len(base.edges) - kept_base


def cap_generate(spec, seed):
    """Seeded instances, redrawn (by the harness, not the ops) until the
    generator succeeds and the retained set provably fits the solver guard.
    Sizes cycle through n_lo..n_hi, so every seed has the same size mix."""
    out = []
    for i in range(spec.instances):
        rng = random.Random(f"{spec.state_cls}:{seed}:{i}")
        n = spec.n_lo + i % (spec.n_hi - spec.n_lo + 1)
        while True:
            gen = snd.InstanceGenerator(
                seed=rng.randrange(2**31),
                family=spec.family,
                n=n,
                weight_hi=spec.weight_hi,
                link_count=spec.link_count,
                chords=spec.chords,
                max_links=spec.max_links,
            )
            try:
                inst = snd.generate(gen)
            except RuntimeError:
                continue
            if _stored_ceiling(spec, inst.base, inst.links) <= SOLVER_GUARD:
                break
        out.append(CapInputs(i, inst.base, inst.links))
    return out


def cap_pass(spec, inputs, keep_state, on_op=None):
    state_cls = getattr(snd, spec.state_cls)
    res = PassResult()
    item_s = res.item_s
    w0 = perf_counter()
    for inp in inputs:
        if on_op is not None:
            on_op()
        rec = OpRecord()
        scheme = snd.BucketScheme(spec.eps, spec.weight_hi)
        first_item = len(item_s)
        t0 = perf_counter()
        try:
            state = state_cls.from_base(inp.base, scheme)
            t1 = perf_counter()
            process = state.process_link
            for u, v, w in inp.links:
                a = perf_counter()
                process(u, v, w)
                item_s.append(perf_counter() - a)
            result = state.finalize()
            t2 = perf_counter()
        except Exception as exc:  # an op that raises is a failed op
            _failed(res, rec, exc, first_item + len(inp.links))
            continue
        res.setup_s.append(t1 - t0)
        res.op_s.append(t2 - t0)
        rec.stored = len(result.stored)
        rec.bound = state.space_bound()
        rec.weight = result.weight
        rec.ident = (
            tuple(r.lid for r in result.stored),
            tuple(r.lid for r in result.solution),
        )
        if keep_state:
            rec.state, rec.result = state, result
        res.ops.append(rec)
    res.wall_s = perf_counter() - w0
    return res


def vertex_k_connected(n, edges, k):
    """True iff the simple graph underlying `edges` is k-vertex-connected:
    n >= k+1 and no k-1 vertices disconnect it.  Independent of streamnd's
    flow code, which the solver under test relies on."""
    if n < k + 1:
        return False
    adj = [set() for _ in range(n)]
    for u, v, *_ in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for cut in combinations(range(n), k - 1):
        gone = set(cut)
        start = next(x for x in range(n) if x not in gone)
        seen = {start} | gone
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < n:
            return False
    return True


def cap_check(spec, inputs, res, seed):
    """Per instance: the base plus the reported solution reaches the target
    connectivity, the solution is drawn from the retained links and weighs
    what finalize reports, and the retained count respects space_bound() and
    the solver guard.  A seeded sample is also compared with brute_optimal."""
    small = [inp.index for inp in inputs if len(inp.links) <= BRUTE_LINKS]
    sample = set(random.Random(f"brute:{seed}").sample(small, min(BRUTE_SAMPLE, len(small))))
    for inp, rec in zip(inputs, res.ops):
        if not rec.ok:
            continue
        result = rec.result
        problem = ""
        stored_lids = {r.lid for r in result.stored}
        if not vertex_k_connected(
            inp.base.n, list(inp.base.edges) + [r.triple() for r in result.solution], spec.target_k
        ):
            problem = f"base plus solution is not {spec.target_k}-connected"
        elif any(r.lid not in stored_lids for r in result.solution):
            problem = "solution uses a link that was not retained"
        elif sum(r.w for r in result.solution) != result.weight:
            problem = "reported weight differs from the solution's weight"
        elif rec.stored > rec.bound:
            problem = f"{rec.stored} retained links exceed space_bound() = {rec.bound}"
        elif rec.stored > SOLVER_GUARD:
            problem = f"{rec.stored} retained links exceed the solver guard {SOLVER_GUARD}"
        elif inp.index in sample:
            req = snd.RequirementMap.uniform(inp.base.n, spec.target_k)
            _, opt = snd.brute_optimal(inp.base, inp.links, req, snd.ConnectivityMode.VERTEX)
            if not opt <= result.weight <= (spec.factor + spec.eps) * opt:
                problem = f"weight {result.weight} against optimum {opt}"
        if problem:
            rec.ok, rec.error = False, f"instance {inp.index}: {problem}"


# ---------------------------------------------------------------------------
# registry; BENCHMARK.json and README.md give the reason for each workload


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "spanner" or "cap"
    spec: object
    ratio_metric: str  # per-layer name of stored over its base (see README)

    def generate(self, seed):
        if self.kind == "spanner":
            return spanner_generate(self.spec, seed)
        return cap_generate(self.spec, seed)

    def run_pass(self, inputs, keep_state=False, on_op=None):
        if self.kind == "spanner":
            return spanner_pass(inputs, keep_state, on_op)
        return cap_pass(self.spec, inputs, keep_state, on_op)

    def check(self, inputs, res, seed):
        if self.kind == "spanner":
            spanner_check(inputs, res)
        else:
            cap_check(self.spec, inputs, res, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spanner-vft",
            "spanner",
            SpannerSpec(n=224, p=0.3, f=2, mode=snd.FaultMode.VERTEX, test_kind=snd.TestKind.EXACT),
            "spanner.keep_ratio",
        ),
        Workload(
            "spanner-eft",
            "spanner",
            SpannerSpec(
                n=256, p=0.3, f=4, mode=snd.FaultMode.EDGE, test_kind=snd.TestKind.PEELING_EFT
            ),
            "spanner.keep_ratio",
        ),
        Workload(
            "cap1",
            "cap",
            CapSpec(
                "Cap1State", snd.Family.TREE, target_k=2, factor=3, instances=300,
                n_lo=8, n_hi=16, link_count=6, max_links=14,
            ),
            "cap1.stored_over_bound",
        ),
        Workload(
            "cap2",
            "cap",
            CapSpec(
                "Cap2State", snd.Family.TWO_CONNECTED, target_k=3, factor=7, instances=200,
                n_lo=8, n_hi=12, link_count=4, max_links=16,
            ),
            "cap2.stored_over_bound",
        ),
    )
}

RATIO_METRICS = tuple(dict.fromkeys(w.ratio_metric for w in WORKLOADS.values()))
