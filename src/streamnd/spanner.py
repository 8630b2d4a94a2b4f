"""Greedy fault-tolerant spanners built one edge at a time.

Each weight bucket holds an independent unweighted spanner: an arriving edge
is kept iff removing some small set of vertices (or edges) from the bucket
spanner would push its endpoints further apart than the hop threshold 2t-1.
Two addition tests are provided for either fault mode: an exact one, and a
path-peeling one that keeps an edge iff fewer than f+1 disjoint short paths
peel (Dinitz-Robelle, PODC 2020).  At threshold 3 (t = 2) the exact one
computes the smallest cut of the u-v paths of at most 3 hops as one max-flow
stopped at f+1, with no peeling first.  At any other threshold it peels
disjoint short paths first, and when that does not decide it branches on the
vertices or edges of one surviving short path at a time.  Every hop query is
one bounded `HopGraph.short_path`: a BFS that stamps the target's neighbours
first, checks each layer for one and never expands its last layer.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import ContractViolationError, ResourceLimitError
from .graph import Graph, _FlowNet
from .streams import BucketScheme, item_bucket


class FaultMode(Enum):
    VERTEX = "vertex"
    EDGE = "edge"


class TestKind(Enum):
    __test__ = False  # not a pytest collection target

    EXACT = "exact"
    PEELING_EFT = "peeling"


@dataclass(frozen=True)
class FtConfig:
    """Parameters of a fault-tolerant spanner build.

    The per-bucket hop threshold is 2t-1; with bucketing eps the whole
    spanner has weighted stretch (1+eps)(2t-1).  test_kind None lets the
    builder pick the exact test for t <= 2, where it is polynomial (one
    max-flow at t = 2, a single branch per fault at t = 1), and for t >= 3
    when f <= 3 or n <= 12; beyond that it picks path peeling, which is
    polynomial in either fault mode, so the automatic choice never refuses.
    """

    f: int
    t: int
    mode: FaultMode
    eps: object = Fraction(1, 3)
    test_kind: TestKind | None = None

    def __post_init__(self):
        if not isinstance(self.f, int) or self.f < 0:
            raise ValueError(f"fault budget f={self.f!r} must be a nonnegative integer")
        if not isinstance(self.t, int) or self.t < 1:
            raise ValueError(f"stretch parameter t={self.t!r} must be a positive integer")
        if Fraction(self.eps) <= 0:
            raise ValueError("eps must be positive")

    @property
    def threshold(self):
        return 2 * self.t - 1


class HopGraph:
    """Unweighted multigraph used for hop-distance queries inside buckets.

    Queries mark visited vertices with a fresh stamp in `_mark`, stamp the
    target's neighbours in `_near` with their first edge to it in `_neid`,
    and keep BFS parents in `_pv` / `_pe`, arrays reused across queries."""

    def __init__(self, n):
        self.n = n
        self.edges = []
        self.adj = [[] for _ in range(n)]
        self._stamp = 0
        self._mark = [0] * n
        self._near = [0] * n
        self._neid = [0] * n
        self._pv = [0] * n
        self._pe = [0] * n

    def add_edge(self, u, v):
        eid = len(self.edges)
        self.edges.append((u, v))
        self.adj[u].append((v, eid))
        self.adj[v].append((u, eid))
        return eid

    def within_hops(self, u, v, limit, banned_vertices=(), banned_edges=()):
        """True iff a u-v path of at most `limit` edges avoids the bans."""
        return self.short_path(u, v, limit, banned_vertices, banned_edges) is not None

    def short_path(self, u, v, limit, banned_vertices=(), banned_edges=()):
        """A shortest u-v path within the hop limit, as (vertices, edge ids);
        ([u], []) when u == v, None when there is none or u or v is banned.
        Banned vertices are stamped as visited before the BFS starts, and
        every vertex v reaches by an unbanned edge is stamped as near, with
        its first such edge.  Each layer is checked for a near vertex before
        it is expanded, so the last layer is never expanded; the first near
        vertex of a layer is the BFS's first hit, through the same edge."""
        self._stamp = s = self._stamp + 1
        mark, near, pv, pe, adj = self._mark, self._near, self._pv, self._pe, self.adj
        for x in banned_vertices:
            mark[x] = s
        if mark[u] == s or mark[v] == s:
            return None
        if u == v:
            return [u], []
        if limit < 1:
            return None
        mark[u] = s
        be = banned_edges
        neid = self._neid
        for y, eid in adj[v]:  # in eid order, as in adj[y]
            if near[y] != s and not (be and eid in be):
                near[y] = s
                neid[y] = eid
        frontier = [u]
        while frontier:
            for x in frontier:
                if near[x] == s:
                    return self._trace(u, v, x, neid[x])
            limit -= 1
            if not limit:
                return None
            nxt = []
            for x in frontier:
                for y, eid in adj[x]:
                    if mark[y] == s or (be and eid in be):
                        continue
                    mark[y] = s
                    pv[y] = x
                    pe[y] = eid
                    nxt.append(y)
            frontier = nxt
        return None

    def _trace(self, u, v, x, eid):
        """The path u ... x, v of the current query, x reached by BFS
        parents and v through edge eid."""
        pv, pe = self._pv, self._pe
        verts, eids = [v, x], [eid]
        while x != u:
            eids.append(pe[x])
            x = pv[x]
            verts.append(x)
        return verts[::-1], eids[::-1]


def _greedy_disjoint_short_paths(h, u, v, threshold, mode, want):
    """Peel up to `want` mutually disjoint u-v paths of at most `threshold`
    hops, each a shortest one avoiding the paths before it; returns their
    vertex lists.  Vertex mode bans inner vertices and the used edges (which
    blocks reuse of a parallel u-v edge), edge mode the used edges only."""
    banned_v = set()
    banned_e = set()
    paths = []
    while len(paths) < want:
        hit = h.short_path(u, v, threshold, banned_v, banned_e)
        if hit is None:
            break
        verts, eids = hit
        paths.append(verts)
        if mode is FaultMode.VERTEX:
            banned_v.update(verts[1:-1])
        banned_e.update(eids)
    return paths


def ft_test_exact(h, u, v, f, t_threshold, mode):
    """Exact addition test: is there a fault set of size at most f whose
    removal pushes u and v more than t_threshold hops apart?

    At threshold 3, one max-flow stopped at f+1 gives the smallest cut
    (`_three_hop_cut_fits`), with no peeling first and no hop queries; u == v
    is a zero-hop path that no fault set cuts.  At any other threshold, peel
    up to f+1 disjoint short paths first (none: u and v are far, keep; more
    than f: no fault set cuts them all, reject), then branch on the elements
    of one surviving short path: every cutting fault set hits it, so at most
    sum_{i<=f} L^i further hop queries settle the verdict, where a path has
    L <= t_threshold - 1 inner vertices (vertex mode) or L <= t_threshold
    edges (edge mode); length-bounded cuts are NP-hard from 4 hops (edge
    faults) and 5 hops (vertex faults).  `h` is the bucket's `HopGraph`.
    In edge mode, f at least an endpoint's degree cuts every path at once:
    fault all of that endpoint's edges, with no search over parallel copies."""
    if t_threshold == 3:
        return u != v and _three_hop_cut_fits(h, u, v, f, mode)
    if mode is FaultMode.EDGE and u != v and f >= min(len(h.adj[u]), len(h.adj[v])):
        return True
    found = len(_greedy_disjoint_short_paths(h, u, v, t_threshold, mode, f + 1))
    if found == 0:
        return True
    if found > f:
        return False
    return _cut_exists(h, u, v, f, t_threshold, mode, (), ())


def _three_hop_cut_fits(h, u, v, f, mode):
    """True iff at most f faults leave no u-v path of at most 3 hops.

    Such paths are u-v, u-x-v and u-a-b-v, so the smallest cut is a max-flow
    (Baier et al., "Length-bounded cuts and flows", TALG 2010) on a network
    s -> x1 -> y2 -> t over the neighbours x of u and y of v.  Capacities
    count edges: s -> x1 the u-x edges, y2 -> t the y-v edges, a1 -> b2 the
    a-b edges, s -> t the u-v edges; x1 -> x2 for a common neighbour x is
    uncuttable (f+1).  An edge a-b between two common neighbours yields
    both a1 -> b2 and b1 -> a2, but a cut of u-a-v leaves a1 unreachable or
    a2 a dead end, so the cut never pays for it twice.
    In vertex mode a u-v edge cannot be cut and every common neighbour must
    be; what remains is a bipartite vertex cover between the private
    neighbours of u and of v, which is the same network with unit arcs
    (Koenig)."""
    adj = h.adj
    cu = Counter(x for x, _ in adj[u])
    cv = Counter(y for y, _ in adj[v])
    direct = cu.pop(v, 0)
    cv.pop(u, 0)
    cu.pop(u, 0)  # self-loops lie on no path
    cv.pop(v, 0)
    common = cu.keys() & cv.keys()
    if mode is FaultMode.VERTEX:
        if direct or len(common) > f:
            return False
        f -= len(common)
        cu = dict.fromkeys(cu.keys() - common, 1)
        cv = dict.fromkeys(cv.keys() - common, 1)
        common = ()
    first = {x: 2 + i for i, x in enumerate(cu)}
    second = {y: 2 + len(cu) + i for i, y in enumerate(cv)}
    net = _FlowNet(2 + len(cu) + len(cv))
    if direct:
        net.add_arc(0, 1, direct)
    for x, i in first.items():
        net.add_arc(0, i, cu[x])
    for y, i in second.items():
        net.add_arc(i, 1, cv[y])
    for x in common:
        net.add_arc(first[x], second[x], f + 1)
    for a, i in first.items():
        for b, _ in adj[a]:
            if b in second:
                net.add_arc(i, second[b], 1)
    return net.max_flow(0, 1, f + 1) <= f


def _cut_exists(h, u, v, budget, threshold, mode, bv, be):
    """True iff at most `budget` more faults, on top of the bans `bv` / `be`,
    push u and v more than `threshold` hops apart."""
    if budget == 0:
        return not h.within_hops(u, v, threshold, bv, be)
    hit = h.short_path(u, v, threshold, bv, be)
    if hit is None:
        return True
    verts, eids = hit
    if mode is FaultMode.VERTEX:
        return any(
            _cut_exists(h, u, v, budget - 1, threshold, mode, bv + (x,), be)
            for x in verts[1:-1]
        )
    return any(
        _cut_exists(h, u, v, budget - 1, threshold, mode, bv, be + (e,))
        for e in eids
    )


def ft_test_peeling_eft(h, u, v, f, t_threshold, mode):
    """Path-peeling test on the bucket's `HopGraph` h, for either fault mode:
    repeatedly find a short u-v path and ban its inner vertices (vertex mode)
    or its edges; keep the edge iff some attempt (out of f+1) finds none."""
    return len(_greedy_disjoint_short_paths(h, u, v, t_threshold, mode, f + 1)) <= f


class KeptEdge(NamedTuple):
    """One streamed edge with its position and bucket; an immutable NamedTuple
    because one is built per kept edge."""

    stream_index: int
    u: int
    v: int
    w: int
    bucket: int


class FtSpannerState:
    """Per-bucket partial spanners fed by a single pass over weighted edges.

    Only kept edges get a `KeptEdge` record.  Rejected edges are packed: their
    stream index, endpoints and bucket go into one int64 array, four slots per
    edge, and their weights (unbounded ints) into a plain list; `rejected`
    rebuilds the records on each access."""

    def __init__(self, n, config, max_weight=None):
        if config.test_kind is None:
            exact = config.t <= 2 or config.f <= 3 or n <= 12
            kind = TestKind.EXACT if exact else TestKind.PEELING_EFT
            config = replace(config, test_kind=kind)
        self.n = n
        self.config = config
        self.scheme = BucketScheme(config.eps, max_weight)
        self.buckets = {}
        self.kept = []
        self._rejected = array("q")  # stream index, u, v, bucket per rejected edge
        self._rejected_w = []

    def bucket(self, j):
        h = self.buckets.get(j)
        if h is None:
            h = self.buckets[j] = HopGraph(self.n)
        return h

    def process_edge(self, u, v, w):
        """Run the configured addition test; keep and return True iff it passes."""
        j = item_bucket(self.n, self.scheme, u, v, w)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} cannot be a spanner edge")
        cfg = self.config
        idx = len(self.kept) + len(self._rejected_w)
        h = self.bucket(j)
        if cfg.test_kind is TestKind.EXACT:
            keep = ft_test_exact(h, u, v, cfg.f, cfg.threshold, cfg.mode)
        else:
            keep = ft_test_peeling_eft(h, u, v, cfg.f, cfg.threshold, cfg.mode)
        if keep:
            h.add_edge(u, v)
            self.kept.append(KeptEdge(idx, u, v, w, j))
        else:
            self._rejected.extend((idx, u, v, j))
            self._rejected_w.append(w)
        return keep

    @property
    def stored_edge_count(self):
        """The number of kept edges, the space the pass is charged for."""
        return len(self.kept)

    @property
    def rejected(self):
        """The rejected edges as `KeptEdge` records, in stream order; a new
        list on each access."""
        p = self._rejected
        return [
            KeptEdge(p[i], p[i + 1], p[i + 2], w, p[i + 3])
            for i, w in zip(range(0, len(p), 4), self._rejected_w)
        ]

    def spanner_graph(self, reliable=None):
        """The union of all bucket spanners as a weighted graph."""
        return Graph.build(self.n, [(e.u, e.v, e.w) for e in self.kept], reliable)

    def kept_ids(self):
        """Stream positions of the kept edges (ids into the streamed graph)."""
        return tuple(e.stream_index for e in self.kept)


def build_spanner(stream, config):
    """Feed a whole edge stream through a fresh spanner state, reading each
    edge once and only after the previous one was processed."""
    state = FtSpannerState(stream.n, config)
    for u, v, w in stream:
        state.process_edge(u, v, w)
    return state


def extract_disjoint_paths(h, u, v, count, hop_bound):
    """Peel `count` internally-vertex-disjoint u-v paths of at most
    `hop_bound` hops each from the bucket's `HopGraph` h; raises
    ContractViolationError when peeling fails, which signals a broken
    spanner."""
    paths = _greedy_disjoint_short_paths(h, u, v, hop_bound, FaultMode.VERTEX, count)
    if len(paths) < count:
        raise ContractViolationError(
            f"only {len(paths)} of {count} disjoint paths of <= {hop_bound} hops "
            f"exist between {u} and {v}"
        )
    return paths


# ---------------------------------------------------------------------------
# brute-force verification


def _dijkstra(adj, src, banned_vertices, banned_edges):
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for y, w, eid in adj[x]:
            if eid in banned_edges or y in banned_vertices:
                continue
            nd = d + w
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return dist


def _weighted_adj(g, edge_ids):
    adj = [[] for _ in range(g.n)]
    for eid in edge_ids:
        u, v, w = g.edges[eid]
        adj[u].append((v, w, eid))
        adj[v].append((u, w, eid))
    return adj


MAX_VERIFY_CHECKS = 10_000_000  # fault sets x pairs, read at call time


def verify_ft_spanner(g, kept_ids, config):
    """Exhaustively check the fault-tolerant stretch contract.

    For every fault set of size at most f and every surviving pair, the
    spanner distance must be at most (2t-1)(1+eps) times the distance in the
    faulted input graph (weighted distances).  `kept_ids` are edge ids of g;
    an id that is not an int in 0..len(g.edges)-1 raises ValueError.
    """
    n = g.n
    f = config.f
    kept = set(kept_ids)
    if not all(isinstance(i, int) and 0 <= i < len(g.edges) for i in kept):
        raise ValueError(f"kept edge ids must be ints in 0..{len(g.edges) - 1}")
    if config.mode is FaultMode.VERTEX:
        universe = list(range(n))
    else:
        universe = list(range(len(g.edges)))
    max_size = min(f, len(universe))
    pairs = n * (n - 1) // 2
    total = sum(comb(len(universe), s) for s in range(max_size + 1))
    if total * pairs > MAX_VERIFY_CHECKS:
        raise ResourceLimitError(
            f"fault-set enumeration too large: {total} sets x {pairs} pairs"
        )
    stretch = (2 * config.t - 1) * (1 + Fraction(config.eps))
    g_adj = _weighted_adj(g, range(len(g.edges)))
    h_adj = _weighted_adj(g, sorted(kept))

    for size in range(max_size + 1):
        for fault in combinations(universe, size):
            if config.mode is FaultMode.VERTEX:
                bv, be = set(fault), frozenset()
                survivors = [x for x in range(n) if x not in bv]
            else:
                bv, be = set(), frozenset(fault)
                survivors = list(range(n))
            for i, u in enumerate(survivors):
                dg = _dijkstra(g_adj, u, bv, be)
                dh = _dijkstra(h_adj, u, bv, be)
                for v in survivors[i + 1 :]:
                    if v not in dg:
                        continue
                    if v not in dh:
                        return False
                    if dh[v] > stretch * dg[v]:
                        return False
    return True
