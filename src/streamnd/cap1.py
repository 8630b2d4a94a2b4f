"""Augmenting a spanning tree to a 2-vertex-connected graph from a link stream.

Per vertex and weight bucket the stream keeps the incident link whose lowest
common ancestor sits closest to the root, plus, per vertex, a streaming MST
over its child subtrees (contracted to supernodes).  After the stream, an
exact solver picks the cheapest feasible subset of the retained links.

That summary is `LinkCore`, which cap2 keeps on its SPQR tree as well: per
node and bucket the link meeting closest to the root, and an MST at the one
node where a link's endpoints meet below two different children.  The
post-stream steps the two share live here too: `unique_links` (the retained
set), `solve_retained` (the exact solve with the base forced in), and for
`sol_from_opt` `opt_buckets` (the optimum's buckets) and
`contracted_mst_links` (its Kruskal).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .errors import InfeasibleError
from .framework import check_branch_guard, exact_solve
from .graph import (
    ConnectivityMode,
    Graph,
    RequirementMap,
    root_tree,
    tree_child_toward,
    tree_lca,
)
from .streams import StreamingMst, item_bucket


@dataclass(frozen=True)
class RootedTree:
    """Rooted spanning tree given by parent pointers (root is self-parented)."""

    n: int
    root: int
    parent: tuple
    depth: tuple
    children: tuple

    @staticmethod
    def spanning(g):
        """BFS spanning tree rooted at vertex 0, plus the non-tree edge ids."""
        parent, parent_eid, depth, children = root_tree(g.adjacency(), 0)
        extras = ()
        if len(g.edges) >= g.n:  # n - 1 edges that connect g are all tree edges
            tree_eids = set(parent_eid)
            extras = tuple(i for i in range(len(g.edges)) if i not in tree_eids)
        return RootedTree(g.n, 0, parent, depth, children), extras

    def edges(self):
        return tuple(
            (self.parent[x], x) for x in range(self.n) if x != self.root
        )

    lca = tree_lca
    child_toward = tree_child_toward


class LinkRec(NamedTuple):
    """One streamed link with its arrival id; an immutable NamedTuple because
    one is built per link."""

    u: int
    v: int
    w: int
    lid: int
    synthetic: bool = False  # a base edge re-entering as a weight-0 link

    def triple(self):
        return (self.u, self.v, self.w)


@dataclass(frozen=True)
class AugmentResult:
    """Outcome of cap1's or cap2's post-stream solve."""

    stored: tuple  # every retained link
    solution: tuple  # chosen links, base re-entries filtered out
    weight: int


def unique_links(recs):
    """Link records deduplicated by id, in arrival order."""
    by_lid = {rec.lid: rec for rec in recs}
    return tuple(by_lid[lid] for lid in sorted(by_lid))


def solve_retained(n, base_pairs, stored, k):
    """Cheapest subset of the stored links that makes the base k-vertex-
    connected, by exact search with the base edges forced in at weight 0.
    Base re-entries (synthetic links) are free and left out of the reported
    solution.  Raises ResourceLimitError past the solver's branching guard,
    before the graph and the requirement map are built."""
    check_branch_guard(len(stored))
    base_edges = [(u, v, 0) for u, v in base_pairs]
    g = Graph.build(n, base_edges + [rec.triple() for rec in stored])
    req = RequirementMap.uniform(n, k)
    try:
        ids, weight = exact_solve(
            g, req, ConnectivityMode.VERTEX, fixed=range(len(base_edges))
        )
    except InfeasibleError:
        raise InfeasibleError(
            f"the retained links cannot {k}-connect the base"
        ) from None
    chosen = (stored[i - len(base_edges)] for i in ids if i >= len(base_edges))
    solution = tuple(rec for rec in chosen if not rec.synthetic)
    return AugmentResult(stored, solution, weight)


def opt_buckets(scheme, opt):
    """`sol_from_opt`'s links as (u, v, bucket), each read from a LinkRec
    or a (u, v, w) triple.  A weight past the bucket table cannot have been
    processed, so it raises ValueError instead of growing the table."""
    out = []
    for link in opt:
        u, v, w = link.triple() if isinstance(link, LinkRec) else link
        j = scheme.bucket_in_table(w)
        if j is None:
            raise ValueError(
                f"weight {w} is past every bucket; "
                "the optimum must be part of the processed stream"
            )
        out.append((u, v, j))
    return out


def contracted_mst_links(mst, good):
    """Link payloads a Kruskal pass keeps over the stored supernode edges of
    `mst` once every supernode in `good` is contracted into a single node."""
    parent = {}

    def find(z):
        z = "good" if z in good else z
        while parent.setdefault(z, z) != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    kept = []
    for edge in sorted(mst.edges(), key=lambda e: (e.w, e.seq)):
        ra, rb = find(edge.a), find(edge.b)
        if ra != rb:
            parent[ra] = rb
            kept.append(edge.payload)
    return kept


class LinkCore:
    """The link summary cap1 and cap2 keep on a rooted tree.  A vertex z has
    copies on the tree nodes from its top copy h[z] down to its deepest copy
    l[z], and a link (u, v) meets at lca(h[u], h[v]).

    - Per node x and bucket, among the links with an endpoint a topped at x,
      the one whose other endpoint b reaches closest to the root: least depth
      of lca(x, l[b]), the earliest link on ties.
    - Per node x with `flag[x]`, a streaming MST over x's children, made on
      first use.  A link enters at most the MST at its meeting node, when
      neither endpoint is topped there, as an edge between the children
      toward h[u] and h[v]."""

    def __init__(self, tree, h, l, flag):
        self.tree = tree
        self.h = h
        self.l = l
        self.flag = flag
        self._dict = {}  # (node, bucket) -> (LinkRec, meeting depth)
        self._msts = {}  # node -> StreamingMst over its children
        self._next_lid = 0

    def add(self, u, v, w, j, synthetic):
        """Give the link the next id and update both structures; returns its
        record, or None for a self-loop, which takes an id but is not kept."""
        rec = LinkRec(u, v, w, self._next_lid, synthetic)
        self._next_lid += 1
        if u == v:
            return None
        tree, l, slots = self.tree, self.l, self._dict
        depth = tree.depth
        hu, hv = self.h[u], self.h[v]
        meet = tree.lca(hu, hv)
        # the depths where v's deepest copy meets hu, and u's meets hv
        du = dv = depth[meet]
        if l[v] != hv:
            du = depth[tree.lca(hu, l[v])]
        if l[u] != hu:
            dv = depth[tree.lca(hv, l[u])]
        cur = slots.get((hu, j))
        if cur is None or du < cur[1]:
            slots[hu, j] = (rec, du)
        cur = slots.get((hv, j))
        if cur is None or dv < cur[1]:
            slots[hv, j] = (rec, dv)
        if meet != hu and meet != hv and self.flag[meet]:
            mst = self._msts.get(meet)
            if mst is None:
                mst = self._msts[meet] = StreamingMst(tree.children[meet])
            a, b = tree.child_toward(meet, hu), tree.child_toward(meet, hv)
            mst.insert(a, b, w, payload=rec)
        return rec

    def kept(self):
        """Every record the dictionary and the MSTs hold, repeats included."""
        return chain(
            (rec for rec, _ in self._dict.values()),
            (e.payload for mst in self._msts.values() for e in mst.edges()),
        )

    def sol_from_opt(self, opt):
        """The records mirroring the optimum's (u, v, bucket) triples: each
        endpoint's dictionary pick at its top copy, and per MST the Kruskal
        with the children the optimum already ties to the outside of its node
        contracted together.  Repeats included."""
        tree, h, l = self.tree, self.h, self.l
        picked = []
        for u, v, j in opt:
            for a in (u, v):
                got = self._dict.get((h[a], j))
                if got is None:
                    raise ValueError(
                        f"dictionary has no entry for node {h[a]} bucket {j}; "
                        "the optimum must be part of the processed stream"
                    )
                picked.append(got[0])
        for x, mst in self._msts.items():
            good = {
                c
                for c in tree.children[x]
                if any(
                    tree.lca(h[a], c) == c and tree.lca(l[b], x) != x
                    for u, v, _ in opt
                    for a, b in ((u, v), (v, u))
                )
            }
            picked.extend(contracted_mst_links(mst, good))
        return picked


class Cap1State:
    """Stream state for tree augmentation: a `LinkCore` on the spanning tree,
    where every vertex is its own top and deepest copy and every vertex with
    children keeps an MST."""

    def __init__(self, tree, scheme):
        self.tree = tree
        self.scheme = scheme
        ids = tuple(range(tree.n))
        self._core = LinkCore(tree, ids, ids, tree.children)

    @staticmethod
    def from_base(g, scheme):
        """Accept any connected base on at least 3 vertices: fix a spanning
        tree, then replay the remaining base edges as weight-0 links ahead of
        the stream."""
        if g.n < 3:
            raise ValueError("need at least 3 vertices to aim for 2-connectivity")
        tree, extras = RootedTree.spanning(g)
        state = Cap1State(tree, scheme)
        for eid in extras:
            u, v, _ = g.edges[eid]
            state._core.add(u, v, 0, 0, synthetic=True)
        return state

    def process_link(self, u, v, w):
        j = item_bucket(self.tree.n, self.scheme, u, v, w)
        self._core.add(u, v, w, j, synthetic=False)

    def stored_links(self):
        """The retained link set F, deduplicated, in arrival order."""
        return unique_links(self._core.kept())

    def space_bound(self):
        """Retention ceiling: one dictionary slot per vertex and bucket plus
        two MST slots per tree edge."""
        n = self.tree.n
        return n * self.scheme.bucket_count() + 2 * (n - 1)

    def finalize(self):
        """Solve exactly on the retained links; base re-entries are free and
        filtered from the reported solution."""
        return solve_retained(self.tree.n, self.tree.edges(), self.stored_links(), 2)

    def sol_from_opt(self, opt):
        """Mirror an optimal solution inside the retained set: dictionary
        picks per optimal link plus per-vertex MSTs with the subtrees already
        covered by the optimum contracted together.  Test oracle only."""
        return unique_links(self._core.sol_from_opt(opt_buckets(self.scheme, opt)))
