"""Augmenting a 2-vertex-connected base to 3-connectivity from a link stream.

The base is checked to be 2-connected on the adjacency that thins it to an
edge-minimal 2-connected subgraph (removed edges re-enter the stream as
weight-0 links), which is then decomposed into an SPQR tree.  The stream
keeps cap1's `LinkCore` on that tree, with each vertex's topmost and deepest copies (`h_map`, `l_map`) as its ends: per tree node and
weight bucket, the link whose tree-LCA sits closest to the root, and per P
node a streaming MST over its child subtrees, which a link enters only at the
P node where its endpoints' top copies meet below two different children.
Per S node it also keeps the extreme links seen from every cycle position,
with dummy positions standing for whole subtrees hanging off virtual edges.
Each vertex keeps a side map of its positions at the S nodes that hold it and
at the S nodes above its `h_map` node (one walk to the root); at every other
S node it sits at the parent dummy, position 0.  So a link visits only the S
nodes in its endpoints' side maps, and the state holds O(n * depth)
positions.  An exact solver then picks the cheapest feasible subset of what
was kept; that solve, the retained-set union, and `sol_from_opt`'s bucket
lookup are shared with `cap1`.
"""

from __future__ import annotations

from itertools import chain

from .cap1 import LinkCore, opt_buckets, solve_retained, unique_links
# exact_solve and is_k_connected are unused here; perfbench/test_tracer.py
# checks that tracing wraps these bindings
from .framework import exact_solve  # noqa: F401
from .graph import _biconnected, is_k_connected  # noqa: F401
from .spqr import VIRTUAL, build_spqr
from .streams import item_bucket


def _cycle_positions(tree, node):
    """Cycle positions of an S node: original vertices ("v", z) interleaved
    with one dummy ("d", ref) per virtual edge; the anchor dummy (parent
    edge, or on the root cycle the virtual edge with the least endpoint
    pair) takes position 0."""
    anchor_ref = tree.parent_vid[node.nid]
    virtual = node.virtual_edges()
    if anchor_ref is None and virtual:
        anchor_ref = min(virtual, key=lambda e: e.pair()).ref
    order, edges = node.cycle_order(anchor_ref)
    pts = [] if anchor_ref is None else [("d", anchor_ref)]
    for i, vert in enumerate(order):
        pts.append(("v", vert))
        if i < len(order) - 1 and edges[i].kind == VIRTUAL:
            pts.append(("d", edges[i].ref))
    return {pt: i for i, pt in enumerate(pts)}


def _sides(tree):
    """Per vertex z, its cycle position at each S node where that need not
    be the parent dummy: its own position at every S node holding it, and at
    every S node above its `h_map` node the dummy toward its copies.  The
    copies form a subtree topped by that node, so those are exactly its
    strict ancestors: one walk to the root per vertex.  Any other S node
    sees z at its parent dummy, position 0; the root needs no default, as
    every vertex has a copy in it or below it."""
    pos = {node.nid: _cycle_positions(tree, node) for node in tree.nodes if node.kind == "S"}
    parent, root, vid = tree.parent, tree.root, tree.parent_vid
    sides = {}
    for z, x in tree.h_map.items():
        side = sides[z] = {
            nid: pos[nid][("v", z)] for nid in tree.nodes_of_vertex[z] if nid in pos
        }
        while x != root:
            x, child = parent[x], x
            if x in pos:
                side[x] = pos[x][("d", vid[child])]
    return sides


def _needed_edges(g):
    """Per edge id, whether an edge-minimal 2-connected subgraph of g keeps
    it; a g that is not 2-connected raises ValueError.  Edges are tried from
    the highest id down on one adjacency list: each is unlinked, and linked
    back only if the rest is no longer 2-connected (one lowpoint DFS).  An
    edge at a vertex of degree 2 stays untried, since without it that vertex
    would hang off a cut vertex."""
    adj = g.adjacency()
    if not _biconnected(adj):
        raise ValueError("base graph must be 2-vertex-connected")
    needed = [False] * len(g.edges)
    for eid in range(len(g.edges) - 1, -1, -1):
        u, v, _ = g.edges[eid]
        if len(adj[u]) == 2 or len(adj[v]) == 2:
            needed[eid] = True
            continue
        adj[u].remove((v, eid))
        adj[v].remove((u, eid))
        if not _biconnected(adj):
            needed[eid] = True
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    return needed


class Cap2State:
    """Stream state for 2-to-3 connectivity augmentation."""

    def __init__(self, minimal_base, removed, tree, scheme):
        self.base = minimal_base
        self.tree = tree
        self.scheme = scheme
        is_p = tuple(node.kind == "P" for node in tree.nodes)
        self._core = LinkCore(tree, tree.h_map, tree.l_map, is_p)
        self._minmax = {}  # (nid, position, bucket) -> [min (rec,pos), max (rec,pos)]
        self._sides = _sides(tree)
        for u, v, _ in removed:
            self._ingest(u, v, 0, 0, synthetic=True)

    @staticmethod
    def from_base(g, scheme):
        """Validate, thin to an edge-minimal 2-connected subgraph, decompose,
        and replay the removed base edges as weight-0 links.

        Thinning (`_needed_edges`) tries each edge once, highest id first,
        on one adjacency list, which first checks that g is 2-connected; the
        decomposition keeps cycle skeletons whole.  `build_spqr` checks the
        thinned graph again, and it always passes: it stays 2-connected, and
        it is simple, as the later of two parallel copies is tried while the
        earlier is still there, so both endpoints then have degree 3 or more
        (each vertex of a 2-connected graph on 4 or more vertices has a
        second neighbour), and the copy goes, since its twin keeps every
        connection."""
        if g.n < 4:
            raise ValueError("need at least 4 vertices to aim for 3-connectivity")
        needed = _needed_edges(g)
        minimal = g.subgraph(eid for eid, keep in enumerate(needed) if keep)
        removed = [e for e, keep in zip(g.edges, needed) if not keep]
        tree = build_spqr(minimal)
        return Cap2State(minimal, removed, tree, scheme)

    # -- stream phase

    def _update_minmax(self, nid, pos, j, rec, other_pos):
        slot = self._minmax.get((nid, pos, j))
        if slot is None:
            self._minmax[(nid, pos, j)] = [(rec, other_pos), (rec, other_pos)]
            return
        if other_pos < slot[0][1]:
            slot[0] = (rec, other_pos)
        if other_pos > slot[1][1]:
            slot[1] = (rec, other_pos)

    def _ingest(self, u, v, w, j, synthetic):
        rec = self._core.add(u, v, w, j, synthetic)
        if rec is None:
            return
        # an S node in neither side map sees both endpoints at its parent dummy
        su, sv = self._sides[u], self._sides[v]
        for nid in su.keys() | sv.keys():
            pu, pv = su.get(nid, 0), sv.get(nid, 0)
            if pu == pv:
                continue
            self._update_minmax(nid, pu, j, rec, pv)
            self._update_minmax(nid, pv, j, rec, pu)

    def process_link(self, u, v, w):
        j = item_bucket(self.base.n, self.scheme, u, v, w)
        self._ingest(u, v, w, j, synthetic=False)

    # -- accounting

    def stored_links(self):
        return unique_links(
            chain(
                self._core.kept(),
                (rec for lo_hi in self._minmax.values() for rec, _ in lo_hi),
            )
        )

    def space_bound(self):
        """Retention ceiling from the per-structure slot counts."""
        return 7 * self.scheme.bucket_count() * self.tree.skeleton_edge_total()

    # -- postprocessing

    def finalize(self):
        base_pairs = [(u, v) for u, v, _ in self.base.edges]
        return solve_retained(self.base.n, base_pairs, self.stored_links(), 3)

    def sol_from_opt(self, opt):
        """Mirror an optimal solution inside the retained set; test oracle.

        The core's picks (per optimal link, the two tree-node dictionary
        picks; per P node, the stored MST with the supernodes the optimum
        already ties to the outside contracted), plus per optimal link the
        Min/Max picks on the S node where the link's deepest copies meet,
        and, per endpoint, the Min pick on its `h_map` node (the one node
        holding it off its parent pair) if that is an S node whose subtree
        the other endpoint leaves.  Cycle positions are read from the side
        maps, position 0 (the parent dummy) where a vertex has no entry.
        """
        tree = self.tree

        def lookup_minmax(nid, pos, j, which):
            slot = self._minmax.get((nid, pos, j))
            if slot is None:
                raise ValueError(
                    f"no stored extreme link at node {nid} position {pos} bucket {j}; "
                    "the optimum must be part of the processed stream"
                )
            return slot[0][0] if which == "min" else slot[1][0]

        opt = opt_buckets(self.scheme, opt)
        picked = self._core.sol_from_opt(opt)
        for u, v, j in opt:
            meet = tree.lca(tree.l_map[u], tree.l_map[v])
            if tree.nodes[meet].kind == "S":
                pu, pv = self._sides[u].get(meet, 0), self._sides[v].get(meet, 0)
                if pu != pv:
                    picked.append(lookup_minmax(meet, max(pu, pv), j, "min"))
                    picked.append(lookup_minmax(meet, min(pu, pv), j, "max"))
            for a, b in ((u, v), (v, u)):
                x = tree.h_map[a]
                if tree.nodes[x].kind == "S" and not tree.in_subtree(tree.l_map[b], x):
                    picked.append(lookup_minmax(x, self._sides[a][x], j, "min"))
        return unique_links(picked)
