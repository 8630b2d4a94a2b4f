"""Undirected multigraphs with integer weights plus Menger-style connectivity queries.

Connectivity between a vertex pair is the maximum number of pairwise disjoint
paths: edge-disjoint, internally-vertex-disjoint, or element-disjoint (paths
may share reliable vertices but not edges or non-reliable vertices).  All
three are computed as unit-capacity max-flow after the appropriate vertex
splitting, so they agree with the cut-side statements of Menger's theorem.

Whole-graph vertex questions with k <= 3 ("is every pair k-connected", as
asked by `is_k_connected` and by `check_feasible` with a uniform requirement
map) skip the flows when n >= k + 1: an iterative lowpoint DFS (Hopcroft and
Tarjan) finds cut vertices, once on G for k <= 2 and once on G - a for every
vertex a when k = 3.  For n >= k + 1, "every pair has k internally disjoint
paths, parallel edges counted" is the same as "no k - 1 vertices disconnect
G": Menger's theorem for non-adjacent pairs, kappa(G - e) >= kappa(G) - 1 for
adjacent ones.  Below n = k + 1 the two differ, so those graphs take flows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import ParseError, ResourceLimitError

# Most vertices a graph file may declare.  Every state machine allocates
# per-vertex lists up front, so a header of 10^9 vertices would ask for tens
# of GB before the first edge is read.
MAX_VERTICES = 1 << 20


class ConnectivityMode(Enum):
    """Which objects disjoint paths must not share."""

    EDGE = "edge"
    VERTEX = "vertex"
    ELEMENT = "element"


@dataclass(frozen=True)
class Graph:
    """Immutable multigraph on vertices 0..n-1.

    ``edges`` is an ordered tuple of (u, v, w) with integer w >= 0; parallel
    edges are allowed and keep their position (the position is the edge id).
    ``reliable`` marks vertices for element connectivity; all True by default.
    """

    n: int
    edges: tuple
    reliable: tuple

    @staticmethod
    def build(n, edges, reliable=None):
        """Normalize and validate edge data; self-loops are dropped."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = []
        for e in edges:
            if len(e) == 2:
                u, v, w = e[0], e[1], 1
            else:
                u, v, w = e
            if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u!r},{v!r}) out of range for n={n}")
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"edge ({u},{v}) has invalid weight {w!r}")
            if u == v:
                continue
            norm.append((u, v, w))
        if reliable is None:
            rel = (True,) * n
        else:
            rel = tuple(bool(b) for b in reliable)
            if len(rel) != n:
                raise ValueError("reliability flags must cover every vertex")
        return Graph(n, tuple(norm), rel)

    def adjacency(self):
        """List of (neighbour, edge id) per vertex, in edge order."""
        adj = [[] for _ in range(self.n)]
        for eid, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return adj

    def subgraph(self, edge_ids):
        """Same vertex set, edges restricted to the given ids (order kept);
        an id that is not an int in 0..len(edges)-1 raises ValueError."""
        ids = set(edge_ids)
        try:
            keep = sorted(ids)
            edges = tuple(self.edges[i] for i in keep) if not keep or keep[0] >= 0 else None
        except (TypeError, IndexError):  # a non-int id, or one past the last edge
            edges = None
        if edges is None:
            raise ValueError(f"edge ids must be ints in 0..{len(self.edges) - 1}")
        return Graph(self.n, edges, self.reliable)


@dataclass(frozen=True)
class RequirementMap:
    """Symmetric integer connectivity requirements on unordered vertex pairs."""

    entries: tuple  # ((u, v), r) with u < v, r >= 0

    @staticmethod
    def from_pairs(pairs):
        seen = {}
        for u, v, r in pairs:
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"requirement pair ({u!r},{v!r}) needs int vertex ids")
            if u == v:
                raise ValueError(f"requirement on a single vertex {u} is undefined")
            if not isinstance(r, int) or r < 0:
                raise ValueError(f"requirement r({u},{v})={r!r} must be a nonnegative integer")
            key = (min(u, v), max(u, v))
            if key in seen and seen[key] != r:
                raise ValueError(f"conflicting requirements for pair {key}")
            seen[key] = r
        return RequirementMap(tuple(sorted(seen.items())))

    @staticmethod
    def uniform(n, r):
        """r(uv) = r for every pair of distinct vertices."""
        if not isinstance(r, int) or r < 0:
            raise ValueError(f"uniform requirement {r!r} must be a nonnegative integer")
        return RequirementMap(
            tuple(((u, v), r) for u in range(n) for v in range(u + 1, n))
        )

    @property
    def k(self):
        """Maximum requirement."""
        return max((r for _, r in self.entries), default=0)

    def pairs(self):
        for (u, v), r in self.entries:
            yield u, v, r


# ---------------------------------------------------------------------------
# rooted trees given by parent pointers; `tree` needs `parent` and `depth`
# sequences with the root as its own parent


def tree_lca(tree, u, v):
    """Deepest node whose subtree contains both u and v (naive walk)."""
    parent, depth = tree.parent, tree.depth
    while depth[u] > depth[v]:
        u = parent[u]
    while depth[v] > depth[u]:
        v = parent[v]
    while u != v:
        u = parent[u]
        v = parent[v]
    return u


def tree_child_toward(tree, x, z):
    """The child of node x whose subtree holds node z; ValueError unless z
    lies strictly below x."""
    parent, depth = tree.parent, tree.depth
    y = z
    if depth[y] > depth[x]:
        while depth[y] > depth[x] + 1:
            y = parent[y]
        if parent[y] == x:
            return y
    raise ValueError(f"{z} is not below {x}")


def root_tree(adj, root):
    """BFS tree of a connected graph from `root`, scanning each list of
    (neighbour, edge label) pairs in `adj` in order.  Returns parent (the
    root is its own parent), parent-edge label (None at the root), depth and
    children in increasing order, each as a tuple; ValueError if a vertex is
    unreachable."""
    n = len(adj)
    parent = [None] * n
    label = [None] * n
    depth = [0] * n
    parent[root] = root
    order = [root]
    for x in order:  # the list grows while it is scanned
        for y, lab in adj[x]:
            if parent[y] is None:
                parent[y] = x
                label[y] = lab
                depth[y] = depth[x] + 1
                order.append(y)
    if len(order) < n:
        raise ValueError("graph must be connected")
    children = [[] for _ in range(n)]
    for x in range(n):
        if x != root:
            children[parent[x]].append(x)
    return tuple(parent), tuple(label), tuple(depth), tuple(map(tuple, children))


# ---------------------------------------------------------------------------
# cut vertices by lowpoint DFS


def _cut_gains(adj, removed=()):
    """Components of the graph minus `removed`, and per vertex how many
    components its own removal would add to them.

    `adj` has the shape of `Graph.adjacency()`.  One iterative DFS computes
    lowpoints; a non-root x gains one component per DFS child c with
    low[c] >= disc[x], and a DFS root gains its child count minus one (so an
    isolated vertex gains -1).  Removed vertices keep gain 0.
    """
    n = len(adj)
    disc = [0] * n  # 0 = unvisited, -1 = removed, else discovery time
    low = [0] * n
    gain = [0] * n
    for x in removed:
        disc[x] = -1
    comps = 0
    clock = 0
    for root in range(n):
        if disc[root]:
            continue
        comps += 1
        clock += 1
        disc[root] = low[root] = clock
        gain[root] = -1
        stack = [(root, iter(adj[root]))]
        while stack:
            x, it = stack[-1]
            for y, _ in it:
                d = disc[y]
                if d == 0:
                    clock += 1
                    disc[y] = low[y] = clock
                    stack.append((y, iter(adj[y])))
                    break
                if 0 < d < low[x]:
                    low[x] = d
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[x] < low[p]:
                        low[p] = low[x]
                    if low[x] >= disc[p]:
                        gain[p] += 1
    return comps, gain


def _biconnected(adj, removed=()):
    """True iff the vertices outside `removed` are connected and none of them
    is a cut vertex of the graph they induce."""
    comps, gain = _cut_gains(adj, removed)
    return comps == 1 and max(gain) <= 0


def _dfs_k_connected(adj, k):
    """Vertex k-connectivity for 1 <= k <= 3 on at least k + 1 vertices: no
    k - 1 vertices disconnect the graph."""
    if k == 1:
        return _cut_gains(adj)[0] == 1
    if k == 2:
        return _biconnected(adj)
    return all(_biconnected(adj, (a,)) for a in range(len(adj)))


def _uniform_level(n, needed):
    """The requirement r when `needed` asks r <= 3 of every vertex pair and
    n >= r + 1, the range where `_dfs_k_connected` answers it; else None."""
    r = needed[0][2]
    if r > 3 or n < r + 1 or any(t[2] != r for t in needed):
        return None
    pairs = {(min(u, v), max(u, v)) for u, v, _ in needed}
    return r if len(pairs) == n * (n - 1) // 2 else None


# ---------------------------------------------------------------------------
# unit-capacity max-flow


class _FlowNet:
    """Flat-array residual network with integer capacities, augmented one
    unit per BFS path; reverse arcs pair up at index ^1, and capacities can
    be reset for repeated pair queries."""

    def __init__(self, size):
        self.to = []
        self.cap = []
        self.adj = [[] for _ in range(size)]
        self._cap0 = None

    def add_arc(self, a, b, cap):
        self.adj[a].append(len(self.to))
        self.to.append(b)
        self.cap.append(cap)
        self.adj[b].append(len(self.to))
        self.to.append(a)
        self.cap.append(0)

    def freeze(self):
        self._cap0 = self.cap[:]

    def reset(self):
        self.cap[:] = self._cap0

    def max_flow(self, s, t, limit=None):
        to, cap, adj = self.to, self.cap, self.adj
        size = len(adj)
        flow = 0
        while limit is None or flow < limit:
            parent = [-2] * size
            parent[s] = -1
            queue = deque([s])
            while queue:
                x = queue.popleft()
                for ai in adj[x]:
                    if cap[ai] > 0:
                        y = to[ai]
                        if parent[y] == -2:
                            parent[y] = ai
                            if y == t:
                                queue.clear()
                                break
                            queue.append(y)
            if parent[t] == -2:
                break
            ai = parent[t]
            while ai != -1:
                cap[ai] -= 1
                cap[ai ^ 1] += 1
                ai = parent[to[ai ^ 1]]
            flow += 1
        return flow


def _check_pair(g, u, v):
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertex out of range: ({u},{v}) with n={g.n}")
    if u == v:
        raise ValueError("pair connectivity needs two distinct vertices")


def _build_net(g, mode):
    """Residual network reusable for every pair query of the given mode.

    Split vertices carry an internal unit arc in(x) -> out(x); a query for
    the pair (u, v) runs flow from out(u) to in(v), which bypasses the
    endpoints' own internal arcs, so one network serves all pairs.
    """
    if mode is ConnectivityMode.EDGE:
        split = ()
    elif mode is ConnectivityMode.VERTEX:
        split = tuple(range(g.n))
    else:
        split = tuple(x for x in range(g.n) if not g.reliable[x])
    out_id = list(range(g.n))
    size = g.n
    for x in split:
        out_id[x] = size
        size += 1
    net = _FlowNet(size)
    for x in split:
        net.add_arc(x, out_id[x], 1)
    for a, b, _ in g.edges:
        net.add_arc(out_id[a], b, 1)
        net.add_arc(out_id[b], a, 1)
    net.freeze()
    return net, out_id


def pair_connectivity(g, u, v, mode):
    """Maximum number of pairwise disjoint u-v paths under the given mode."""
    _check_pair(g, u, v)
    net, out_id = _build_net(g, mode)
    return net.max_flow(out_id[u], v)


def _flows_meet(g, needed, mode):
    """True iff every (u, v, r) in `needed` has r disjoint u-v paths: one
    network, reset before each pair, and one flow stopped at r per pair, in
    the given order and with no shortcut, as the oracle relies on."""
    net, out_id = _build_net(g, mode)
    for u, v, r in needed:
        net.reset()
        if net.max_flow(out_id[u], v, limit=r) < r:
            return False
    return True


def check_feasible(g, req, mode):
    """True iff every required pair reaches its requirement in this graph;
    every entry is validated, zero ones too.  No degree screen: `exact_solve`'s
    need table keeps sets short of degree away after its first call."""
    needed = []
    for u, v, r in req.pairs():
        _check_pair(g, u, v)
        if r == 0:
            continue
        if mode is ConnectivityMode.ELEMENT and not (g.reliable[u] and g.reliable[v]):
            raise ValueError(
                f"element-connectivity requirement on non-reliable pair ({u},{v})"
            )
        needed.append((u, v, r))
    if not needed:
        return True
    if mode is ConnectivityMode.VERTEX:
        level = _uniform_level(g.n, needed)
        if level is not None:
            return _dfs_k_connected(g.adjacency(), level)
    return _flows_meet(g, needed, mode)


def is_k_connected(g, k, mode):
    """True iff every vertex pair is at least k-connected under the mode.

    Vertex mode additionally requires n >= k + 1; there, k <= 3 is decided
    by lowpoint DFS.  Otherwise every pair runs a flow on one network that is
    reset between pairs.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"connectivity k={k!r} must be a nonnegative integer")
    if k == 0:
        return True
    if mode is ConnectivityMode.VERTEX:
        if g.n < k + 1:
            return False
        if k <= 3:
            return _dfs_k_connected(g.adjacency(), k)
    pairs = ((u, v, k) for u in range(g.n) for v in range(u + 1, g.n))
    return _flows_meet(g, pairs, mode)


# ---------------------------------------------------------------------------
# file formats
#
# Graph file: first line "n m", then m lines "u v w" (w optional, default 1),
# 0-indexed.  Reliability file: one vertex id per line marking it non-reliable.
# Requirements file: lines "u v r".


def _data_lines(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def parse_graph_file(path):
    """Return (n, edges-in-file-order); self-loops are dropped.  A header
    declaring more than MAX_VERTICES vertices raises ResourceLimitError."""
    lines = _data_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(path, 1, "missing 'n m' header line") from None
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(path, lineno, f"expected 'n m' header, got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(path, lineno, f"non-integer header {header!r}") from None
    if n < 1 or m < 0:
        raise ParseError(path, lineno, f"invalid sizes n={n} m={m}")
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"{path}:{lineno}: n={n} exceeds {MAX_VERTICES} vertices")
    edges = []
    count = 0
    for lineno, line in lines:
        if count == m:
            raise ParseError(path, lineno, f"more than the declared {m} edge lines")
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(path, lineno, f"expected 'u v [w]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ParseError(path, lineno, f"non-integer edge line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(path, lineno, f"edge ({u},{v}) out of range for n={n}")
        if w < 0:
            raise ParseError(path, lineno, f"negative weight {w}")
        count += 1
        if u == v:
            continue
        edges.append((u, v, w))
    if count != m:
        raise ParseError(path, 0, f"declared {m} edges but found {count}")
    return n, edges


def load_graph(path, reliability_path=None):
    n, edges = parse_graph_file(path)
    reliable = None
    if reliability_path is not None:
        reliable = load_reliability(reliability_path, n)
    return Graph.build(n, edges, reliable)


def save_graph(g, path):
    with open(path, "w") as fh:
        fh.write(f"{g.n} {len(g.edges)}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w}\n")


def load_reliability(path, n):
    """Reliability flags from a file listing the non-reliable vertex ids."""
    flags = [True] * n
    for lineno, line in _data_lines(path):
        try:
            x = int(line)
        except ValueError:
            raise ParseError(path, lineno, f"expected a vertex id, got {line!r}") from None
        if not 0 <= x < n:
            raise ParseError(path, lineno, f"vertex {x} out of range for n={n}")
        flags[x] = False
    return tuple(flags)


def load_requirements(path, n):
    """Requirement map from 'u v r' lines on the vertices 0..n-1."""
    pairs = []
    seen = set()
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 'u v r', got {line!r}")
        try:
            u, v, r = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(path, lineno, f"pair ({u},{v}) out of range for n={n}")
        if u == v:
            raise ParseError(path, lineno, f"requirement on a single vertex {u}")
        if r < 0:
            raise ParseError(path, lineno, f"requirement r({u},{v})={r} must be nonnegative")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(path, lineno, f"duplicate requirement for pair {key}")
        seen.add(key)
        pairs.append((u, v, r))
    return RequirementMap.from_pairs(pairs)
