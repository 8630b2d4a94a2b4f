"""Augmenting a spanning tree to a 2-vertex-connected graph from a link stream.

Per vertex and weight bucket the stream keeps the incident link whose lowest
common ancestor sits closest to the root, plus, per vertex, a streaming MST
over its child subtrees (contracted to supernodes).  After the stream, an
exact solver picks the cheapest feasible subset of the retained links.

The post-stream steps that cap1 and cap2 share live here as module functions:
`unique_links` (the retained set), `solve_retained` (the exact solve with the
base forced in), and for `sol_from_opt` `opt_buckets` (the optimum's buckets)
and `contracted_mst_links` (its Kruskal).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .errors import InfeasibleError
from .framework import exact_solve
from .graph import (
    ConnectivityMode,
    Graph,
    RequirementMap,
    root_tree,
    tree_in_subtree,
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
    def spanning(g, root=0):
        """BFS spanning tree plus the ids of the non-tree edges."""
        if not 0 <= root < g.n:
            raise ValueError("root out of range")
        parent, parent_eid, depth, children = root_tree(g.adjacency(), root)
        tree_eids = set(parent_eid)
        extras = tuple(i for i in range(len(g.edges)) if i not in tree_eids)
        return RootedTree(g.n, root, parent, depth, children), extras

    def edges(self):
        return tuple(
            (self.parent[x], x) for x in range(self.n) if x != self.root
        )

    lca = tree_lca
    in_subtree = tree_in_subtree

    def child_toward(self, x, u):
        """The child of x whose subtree contains u; u must be below x."""
        while self.depth[u] > self.depth[x] + 1:
            u = self.parent[u]
        if self.parent[u] != x:
            raise ValueError(f"{u} is not below {x}")
        return u


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
    solution.  Raises ResourceLimitError past the solver's branching guard."""
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


class Cap1State:
    """Stream state for tree augmentation: per-vertex link dictionaries plus
    per-vertex contracted-children MSTs."""

    def __init__(self, tree, scheme):
        self.tree = tree
        self.scheme = scheme
        self._dict = {}  # (vertex, bucket) -> LinkRec
        self._msts = {}  # vertex -> StreamingMst over its children
        self._next_lid = 0

    @staticmethod
    def from_base(g, scheme, root=0):
        """Accept any connected base: fix a spanning tree, then replay the
        remaining base edges as weight-0 links ahead of the stream."""
        tree, extras = RootedTree.spanning(g, root)
        state = Cap1State(tree, scheme)
        for eid in extras:
            u, v, _ = g.edges[eid]
            state._ingest(u, v, 0, 0, synthetic=True)
        return state

    def _mst_for(self, x):
        mst = self._msts.get(x)
        if mst is None:
            mst = self._msts[x] = StreamingMst(self.tree.children[x])
        return mst

    def _ingest(self, u, v, w, j, synthetic):
        rec = LinkRec(u, v, w, self._next_lid, synthetic)
        self._next_lid += 1
        if u == v:
            return
        tree = self.tree
        anchor = tree.lca(u, v)
        for x in (u, v):
            key = (x, j)
            cur = self._dict.get(key)
            if cur is None:
                self._dict[key] = rec
            else:
                other = cur.v if cur.u == x else cur.u
                if tree.depth[anchor] < tree.depth[tree.lca(x, other)]:
                    self._dict[key] = rec
        if u != anchor and v != anchor:
            a = tree.child_toward(anchor, u)
            b = tree.child_toward(anchor, v)
            if a != b:
                self._mst_for(anchor).insert(a, b, w, payload=rec)

    def process_link(self, u, v, w):
        j = item_bucket(self.tree.n, self.scheme, u, v, w)
        self._ingest(u, v, w, j, synthetic=False)

    def stored_links(self):
        """The retained link set F, deduplicated, in arrival order."""
        return unique_links(
            chain(
                self._dict.values(),
                (e.payload for mst in self._msts.values() for e in mst.edges()),
            )
        )

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
        tree = self.tree
        picked = []
        opt = opt_buckets(self.scheme, opt)
        for u, v, j in opt:
            for x in (u, v):
                rec = self._dict.get((x, j))
                if rec is None:
                    raise ValueError(
                        f"dictionary has no entry for vertex {x} bucket {j}; "
                        "the optimum must be part of the processed stream"
                    )
                picked.append(rec)

        for x in range(tree.n):
            mst = self._msts.get(x)
            if mst is None:
                continue
            good = {
                c
                for c in tree.children[x]
                if any(
                    tree.in_subtree(a, c) and not tree.in_subtree(b, x)
                    for u, v, _ in opt
                    for a, b in ((u, v), (v, u))
                )
            }
            picked.extend(contracted_mst_links(mst, good))
        return unique_links(picked)
