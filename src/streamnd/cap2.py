"""Augmenting a 2-vertex-connected base to 3-connectivity from a link stream.

The base is first thinned to an edge-minimal 2-connected subgraph (removed
edges re-enter the stream as weight-0 links) and decomposed into an SPQR
tree.  The stream keeps, per tree node and weight bucket, the link whose
tree-LCA sits closest to the root; per P node, a streaming MST over its child
subtrees; and per S node, the extreme links seen from every cycle position,
with dummy positions standing for whole subtrees hanging off virtual edges.
An exact solver then picks the cheapest feasible subset of what was kept;
that solve, the retained-set union and the contracted Kruskal of
`sol_from_opt` are the augmentation core shared with `cap1`.
"""

from __future__ import annotations

from itertools import chain

from .cap1 import LinkRec, contracted_mst_links, solve_retained, unique_links
# unused here; perfbench/test_tracer.py checks that tracing wraps this binding
from .framework import exact_solve  # noqa: F401
from .graph import ConnectivityMode, _biconnected, is_k_connected
from .spqr import VIRTUAL, build_spqr
from .streams import StreamingMst, item_bucket


class _SNodeData:
    """Cycle positions of one S node: original vertices interleaved with one
    dummy per virtual edge; the anchor dummy (parent edge, or the lowest
    virtual edge on the root cycle) takes position 0."""

    def __init__(self, tree, node):
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
        self.fmap = self._build_fmap(tree, node)

    def _build_fmap(self, tree, node):
        fmap = {x: ("v", x) for x in node.vertices}
        parent_vid = tree.parent_vid[node.nid]
        for e in node.virtual_edges():
            if e.ref == parent_vid:
                continue
            x, y = tree.virtual_nodes(e.ref)
            child = y if x == node.nid else x
            for vert in tree.subtree_vertices(child) - node.vertices:
                if vert in fmap and fmap[vert] != ("d", e.ref):
                    raise AssertionError("vertex claimed by two child subtrees")
                fmap[vert] = ("d", e.ref)
        if parent_vid is not None:
            below = tree.subtree_vertices(node.nid)
            for vert in tree.h_map:
                if vert not in below and vert not in fmap:
                    fmap[vert] = ("d", parent_vid)
        if set(fmap) != set(tree.h_map):
            raise AssertionError("cycle position map must cover every vertex")
        return fmap


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
        self._dict = {}  # (nid, bucket) -> (LinkRec, lca depth)
        self._minmax = {}  # (nid, point, bucket) -> [min (rec,pos), max (rec,pos)]
        self._snodes = {}
        self._pnodes = {}  # nid -> (supernode map, StreamingMst)
        self._next_lid = 0
        for node in tree.nodes:
            if node.kind == "S":
                self._snodes[node.nid] = _SNodeData(tree, node)
            elif node.kind == "P":
                smap = {}
                for child in tree.children[node.nid]:
                    for vert in tree.subtree_vertices(child) - node.vertices:
                        smap[vert] = child
                self._pnodes[node.nid] = (smap, StreamingMst(tree.children[node.nid]))
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

    def _update_dict(self, nid, j, rec, key):
        cur = self._dict.get((nid, j))
        if cur is None or key < cur[1]:
            self._dict[(nid, j)] = (rec, key)

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
        rec = LinkRec(u, v, w, self._next_lid, synthetic)
        self._next_lid += 1
        if u == v:
            return
        tree = self.tree
        for a, b in ((u, v), (v, u)):
            x = tree.h_map[a]
            key = tree.depth[tree.lca(x, tree.l_map[b])]
            self._update_dict(x, j, rec, key)
        for nid, (smap, mst) in self._pnodes.items():
            su, sv = smap.get(u), smap.get(v)
            if su is not None and sv is not None and su != sv:
                mst.insert(su, sv, w, payload=rec)
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
                (rec for rec, _ in self._dict.values()),
                (e.payload for _, mst in self._pnodes.values() for e in mst.edges()),
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

        Per optimal link: the two tree-node dictionary picks, the Min/Max
        picks on the S node where the link's deepest copies meet, and the Min
        pick on the (at most one) S node holding an endpoint off its parent
        edge while the other endpoint leaves its subtree.  Per P node, the
        stored MST restricted to supernodes the optimum does not already tie
        to the outside.
        """
        tree = self.tree
        picked = []

        def lookup_minmax(nid, pt, j, which):
            slot = self._minmax.get((nid, pt, j))
            if slot is None:
                raise ValueError(
                    f"no stored extreme link at node {nid} point {pt} bucket {j}; "
                    "the optimum must be part of the processed stream"
                )
            return slot[0][0] if which == "min" else slot[1][0]

        opt = [link.triple() if isinstance(link, LinkRec) else link for link in opt]
        for u, v, w in opt:
            j = self.scheme.bucket_of(w)
            for a, b in ((u, v), (v, u)):
                x = tree.h_map[a]
                got = self._dict.get((x, j))
                if got is None:
                    raise ValueError(
                        f"dictionary has no entry for node {x} bucket {j}; "
                        "the optimum must be part of the processed stream"
                    )
                picked.append(got[0])
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
                for nid, data in self._snodes.items():
                    node = tree.nodes[nid]
                    if a not in node.vertices:
                        continue
                    ppair = tree.parent_pair(nid)
                    if ppair is not None and a in ppair:
                        continue
                    if tree.in_subtree(tree.l_map[b], nid):
                        continue
                    picked.append(lookup_minmax(nid, ("v", a), j, "min"))

        for nid, (smap, mst) in self._pnodes.items():
            good = {
                child
                for child in tree.children[nid]
                if any(
                    tree.in_subtree(tree.h_map[a], child)
                    and not tree.in_subtree(tree.l_map[b], nid)
                    for u, v, _ in opt
                    for a, b in ((u, v), (v, u))
                )
            }
            picked.extend(contracted_mst_links(mst, good))
        return unique_links(picked)
