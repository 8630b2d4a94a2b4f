"""Augmenting a 2-vertex-connected base to 3-connectivity from a link stream.

The base is first thinned to an edge-minimal 2-connected subgraph (removed
edges re-enter the stream as weight-0 links) and decomposed into an SPQR
tree.  The stream keeps cap1's `LinkCore` on that tree, with each vertex's
topmost and deepest copies (`h_map`, `l_map`) as its ends: per tree node and
weight bucket, the link whose tree-LCA sits closest to the root, and per P
node a streaming MST over its child subtrees, which a link enters only at the
P node where its endpoints' top copies meet below two different children.
Per S node it also keeps the extreme links seen from every cycle position,
with dummy positions standing for whole subtrees hanging off virtual edges.
Which cycle position each vertex falls on is read from the tree: one walk per
vertex from its `h_map` node to the root.  An exact solver then picks the
cheapest feasible subset of what was kept; that solve, the retained-set
union, and `sol_from_opt`'s bucket lookup are shared with `cap1`.
"""

from __future__ import annotations

from itertools import chain

from .cap1 import LinkCore, opt_buckets, solve_retained, unique_links
# unused here; perfbench/test_tracer.py checks that tracing wraps this binding
from .framework import exact_solve  # noqa: F401
from .graph import ConnectivityMode, _biconnected, is_k_connected
from .spqr import VIRTUAL, build_spqr
from .streams import item_bucket


def _child_sides(tree):
    """Per S node x, the vertices with no copy in x but copies below it, each
    mapped to the child of x that holds them.  A vertex's copies form a
    subtree topped by its h_map node, so the nodes that hold it below are
    exactly that node's strict ancestors: one walk to the root per vertex,
    O(n * depth) in all."""
    parent, root = tree.parent, tree.root
    below = {node.nid: {} for node in tree.nodes if node.kind == "S"}
    for z, x in tree.h_map.items():
        while x != root:
            x, child = parent[x], x
            if x in below:
                below[x][z] = child
    return below


class _SNodeData:
    """Cycle positions of one S node: original vertices interleaved with one
    dummy per virtual edge; the anchor dummy (parent edge, or the lowest
    virtual edge on the root cycle) takes position 0.  `fmap` sends every
    vertex to its own point or to the dummy of the tree edge toward its
    copies, read from the node's `_child_sides` map."""

    def __init__(self, tree, node, below):
        anchor_ref = tree.parent_vid[node.nid]
        if anchor_ref is None:
            virts = node.virtual_edges()
            anchor_ref = min((e.ref for e in virts), default=None)
        order, edges = node.cycle_order(anchor_ref)
        pts = []
        if anchor_ref is not None:
            pts.append(("d", anchor_ref))
        for i, vert in enumerate(order):
            pts.append(("v", vert))
            if i < len(order) - 1 and edges[i].kind == VIRTUAL:
                pts.append(("d", edges[i].ref))
        self.points = pts
        self.pos = {pt: i for i, pt in enumerate(pts)}
        # parent side for every vertex, then the sides below, then the node's own
        vid = tree.parent_vid
        self.fmap = dict.fromkeys(tree.h_map, ("d", vid[node.nid]))
        self.fmap.update((z, ("d", vid[child])) for z, child in below.items())
        self.fmap.update((z, ("v", z)) for z in node.vertices)


def _needed_edges(g):
    """Per edge id, whether an edge-minimal 2-connected subgraph of the
    2-connected g keeps it.  Edges are tried from the highest id down on one
    adjacency list: each is unlinked, and linked back only if the rest is no
    longer 2-connected (one lowpoint DFS).  An edge at a vertex of degree 2
    stays untried, since without it that vertex would hang off a cut vertex."""
    adj = g.adjacency()
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
        self._minmax = {}  # (nid, point, bucket) -> [min (rec,pos), max (rec,pos)]
        self._snodes = {
            nid: _SNodeData(tree, tree.nodes[nid], below)
            for nid, below in _child_sides(tree).items()
        }
        for u, v, _ in removed:
            self._ingest(u, v, 0, 0, synthetic=True)

    @staticmethod
    def from_base(g, scheme):
        """Validate, thin to an edge-minimal 2-connected subgraph, decompose,
        and replay the removed base edges as weight-0 links.

        Thinning (`_needed_edges`) tries each edge once, highest id first,
        on one adjacency list; the decomposition keeps cycle skeletons whole.
        Only the two validations run `is_k_connected`: the one here and the
        one inside `build_spqr`."""
        if g.n < 4:
            raise ValueError("need at least 4 vertices to aim for 3-connectivity")
        if not is_k_connected(g, 2, ConnectivityMode.VERTEX):
            raise ValueError("base graph must be 2-vertex-connected")
        needed = _needed_edges(g)
        minimal = g.subgraph(eid for eid, keep in enumerate(needed) if keep)
        removed = [e for e, keep in zip(g.edges, needed) if not keep]
        tree = build_spqr(minimal)
        return Cap2State(minimal, removed, tree, scheme)

    # -- stream phase

    def _update_minmax(self, nid, pt, j, rec, other_pos):
        slot = self._minmax.get((nid, pt, j))
        if slot is None:
            self._minmax[(nid, pt, j)] = [(rec, other_pos), (rec, other_pos)]
            return
        if other_pos < slot[0][1]:
            slot[0] = (rec, other_pos)
        if other_pos > slot[1][1]:
            slot[1] = (rec, other_pos)

    def _ingest(self, u, v, w, j, synthetic):
        rec = self._core.add(u, v, w, j, synthetic)
        if rec is None:
            return
        for nid, data in self._snodes.items():
            pu, pv = data.fmap[u], data.fmap[v]
            if pu == pv:
                continue
            self._update_minmax(nid, pu, j, rec, data.pos[pv])
            self._update_minmax(nid, pv, j, rec, data.pos[pu])

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
        the other endpoint leaves.
        """
        tree = self.tree

        def lookup_minmax(nid, pt, j, which):
            slot = self._minmax.get((nid, pt, j))
            if slot is None:
                raise ValueError(
                    f"no stored extreme link at node {nid} point {pt} bucket {j}; "
                    "the optimum must be part of the processed stream"
                )
            return slot[0][0] if which == "min" else slot[1][0]

        opt = opt_buckets(self.scheme, opt)
        picked = self._core.sol_from_opt(opt)
        for u, v, j in opt:
            meet = tree.lca(tree.l_map[u], tree.l_map[v])
            if tree.nodes[meet].kind == "S":
                data = self._snodes[meet]
                pu, pv = data.pos[data.fmap[u]], data.pos[data.fmap[v]]
                if pu < pv:
                    picked.append(lookup_minmax(meet, data.fmap[v], j, "min"))
                    picked.append(lookup_minmax(meet, data.fmap[u], j, "max"))
                elif pv < pu:
                    picked.append(lookup_minmax(meet, data.fmap[u], j, "min"))
                    picked.append(lookup_minmax(meet, data.fmap[v], j, "max"))
            for a, b in ((u, v), (v, u)):
                x = tree.h_map[a]
                if x in self._snodes and not tree.in_subtree(tree.l_map[b], x):
                    picked.append(lookup_minmax(x, ("v", a), j, "min"))
        return unique_links(picked)
