"""SPQR trees: a 2-connected graph decomposed into cycle (S), dipole (P) and
3-connected (R) skeletons joined by shared virtual edges.

Construction splits recursively on separation pairs until no skeleton has
one, splitting every separation class of a pair at once (Hopcroft and
Tarjan; Gutwenger and Mutzel): two classes and no edge between the pair are
joined by one virtual edge, and otherwise a dipole holds the pair's edges
plus one virtual edge per class, and each class gets its own.  So no split
skeleton has parallel edges and no two dipoles are adjacent, and one pass
then merges every two adjacent cycles (gluing two cycles gives a cycle).
A skeleton that is a cycle or a dipole is final as it stands, so it costs
no split search.
Correctness is the contract here, not linear time: each split search runs
one cut-vertex DFS of G - a per skeleton vertex a, O(n (n + m)), and a
skeleton can be split up to O(n) times.  Each split search labels the
pair's separation classes on its own adjacency of the skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

from .graph import (
    ConnectivityMode,
    _cut_gains,
    is_k_connected,
    root_tree,
    tree_child_toward,
    tree_lca,
)

REAL = "real"
VIRTUAL = "virtual"


class SkelEdge(NamedTuple):
    """One skeleton edge; an immutable NamedTuple because one is built per
    graph edge and per split."""

    u: int
    v: int
    kind: str  # REAL or VIRTUAL
    ref: int  # original edge id for REAL, virtual-edge id for VIRTUAL

    def pair(self):
        return (min(self.u, self.v), max(self.u, self.v))


@dataclass(frozen=True)
class SpqrNode:
    nid: int
    kind: str  # 'S', 'P' or 'R'
    vertices: frozenset
    edges: tuple  # SkelEdge

    def real_edges(self):
        return tuple(e for e in self.edges if e.kind == REAL)

    def virtual_edges(self):
        return tuple(e for e in self.edges if e.kind == VIRTUAL)

    def cycle_order(self, anchor_ref=None):
        """For an S node: vertices in cycle order and the edge between each
        consecutive pair; the edge closing the cycle (last vertex back to the
        first) comes last.  With an anchor edge given, the walk starts at its
        smaller endpoint and the anchor is the closing edge; a virtual-edge
        id the node does not hold raises ValueError.  The skeleton is a simple
        cycle, so the walk leaves each vertex by the edge it did not arrive on."""
        if self.kind != "S":
            raise ValueError("cycle order is defined for S nodes only")
        incident = {x: [] for x in self.vertices}
        for e in self.edges:
            incident[e.u].append(e)
            incident[e.v].append(e)
        if anchor_ref is not None:
            anchor = next((e for e in self.virtual_edges() if e.ref == anchor_ref), None)
            if anchor is None:
                raise ValueError(f"node {self.nid} holds no virtual edge {anchor_ref}")
            start = min(anchor.u, anchor.v)
            e1, e2 = incident[start]
            edge = e2 if e1 is anchor else e1
        else:
            anchor = None
            start = min(self.vertices)
            edge = min(incident[start], key=lambda e: e.u + e.v)  # to the smaller neighbour
        order = [start]
        edges = []
        cur = edge.v if edge.u == start else edge.u
        while cur != start:
            order.append(cur)
            edges.append(edge)
            e1, e2 = incident[cur]
            edge = e2 if e1 is edge else e1
            cur = edge.v if edge.u == cur else edge.u
        edges.append(edge)
        if anchor is not None and (order[-1] != max(anchor.u, anchor.v) or edges[-1] is not anchor):
            raise AssertionError("anchored cycle walk must close on the anchor edge")
        return order, edges


@dataclass(frozen=True)
class SpqrTree:
    """Rooted SPQR tree.  The copies of a vertex form a subtree whose top is
    its `h_map` node, and two adjacent nodes share exactly the endpoints of
    their virtual edge.  So a vertex lies on the pair a node x shares with
    its parent iff x holds it and is not its `h_map` node, and which side of
    x a vertex lies on is one walk up from its `h_map` node."""

    nodes: tuple  # SpqrNode, indexed by nid
    tree_edges: tuple  # (x, y, vid) with x < y
    root: int
    parent: tuple  # parent nid per node; root maps to itself
    parent_vid: tuple  # virtual edge toward the root; None for the root
    depth: tuple
    children: tuple
    h_map: dict  # vertex -> nid of its copy closest to the root
    l_map: dict  # vertex -> nid of its copy furthest from the root
    nodes_of_vertex: dict  # vertex -> tuple of nids containing a copy

    lca = tree_lca
    child_toward = tree_child_toward

    def skeleton_edge_total(self):
        return sum(len(node.edges) for node in self.nodes)


# ---------------------------------------------------------------------------
# separation pairs


def _find_pair(vertices, endpoint_pairs, clear=frozenset()):
    """First separation pair (a, b) in lexicographic order whose removal
    leaves two or more components, as (a, b, classes, ab), or None.
    `classes` holds, per component of G - {a, b}, the indices into
    endpoint_pairs of the edges touching it, and `ab` the a-b edges.

    One cut-vertex pass over G - a counts the components of G - {a, b} for
    every b at once.  The caller vouches that no vertex in `clear` lies in a
    pair, so none of them gets a pass of its own.
    """
    verts = sorted(vertices)
    index = {x: i for i, x in enumerate(verts)}
    adj = [[] for _ in verts]
    for eid, (u, v) in enumerate(endpoint_pairs):
        adj[index[u]].append((index[v], eid))
        adj[index[v]].append((index[u], eid))
    for ia, a in enumerate(verts):
        if a in clear:
            continue
        comps, gain = _cut_gains(adj, (ia,))
        for ib in range(ia + 1, len(verts)):
            if comps + gain[ib] >= 2:
                # label the components of G - {a, b} by least vertex
                label = [None] * len(verts)
                label[ia] = label[ib] = -1
                nparts = 0
                for start in range(len(verts)):
                    if label[start] is not None:
                        continue
                    label[start] = nparts
                    stack = [start]
                    while stack:
                        for y, _ in adj[stack.pop()]:
                            if label[y] is None:
                                label[y] = nparts
                                stack.append(y)
                    nparts += 1
                classes = [[] for _ in range(nparts)]
                ab = []
                for i, (u, v) in enumerate(endpoint_pairs):
                    # a and b carry -1, so this is an off-pair endpoint's class
                    k = max(label[index[u]], label[index[v]])
                    (ab if k < 0 else classes[k]).append(i)
                return a, verts[ib], classes, ab
    return None


# ---------------------------------------------------------------------------
# construction


def build_spqr(g):
    """SPQR tree of a simple 2-connected graph on at least 3 vertices.

    The root is the node holding the lowest-id real edge; h/l maps give, per
    vertex, its copy closest to and furthest from the root (the highest copy
    is unique; deepest copies at equal depth go to the node with the least
    sorted vertex list, so no tie reads a node id).
    """
    if g.n < 3:
        raise ValueError("SPQR trees need at least 3 vertices")
    seen_pairs = set()
    for u, v, _ in g.edges:
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            raise ValueError("input graph must be simple")
        seen_pairs.add(key)
    if not is_k_connected(g, 2, ConnectivityMode.VERTEX):
        raise ValueError("graph is not 2-vertex-connected")
    edges = [SkelEdge(u, v, REAL, eid) for eid, (u, v, _) in enumerate(g.edges)]
    return _assemble(*_split_components(edges))


def _split_components(edges):
    """Split on separation pairs until no skeleton has one, keeping cycles
    and dipoles whole.  Returns the skeletons by working nid, numbered in the
    order they become final, the two working nids sharing each virtual edge,
    and each skeleton's kind."""
    vid_counter = count()
    skeletons = {}  # working nid -> list of SkelEdge
    vmap = {}  # vid -> [nid, nid]
    kinds = {}  # working nid -> 'S', 'P' or 'R'
    next_nid = count()

    # depth-first: a pair's dipole, then its classes in the order found.
    # Each entry carries the vertices known to lie in no separation pair:
    # the scan found none below the first pair's a, and a pair of a split
    # component (with its virtual edge) also separates the skeleton it came
    # from, so those vertices lie in no pair of any later skeleton either.
    stack = [(edges, frozenset())]
    while stack:
        edges, clear = stack.pop()
        # a skeleton is 2-connected, so no degree is below 2 and, off two
        # vertices (a dipole), it is a cycle iff it has as many edges as vertices
        verts = {x for e in edges for x in (e.u, e.v)}
        kind = "P" if len(verts) == 2 else "S" if len(edges) == len(verts) else "R"
        hit = _find_pair(verts, [(e.u, e.v) for e in edges], clear) if kind == "R" else None
        if hit is None:
            nid = next(next_nid)
            skeletons[nid] = list(edges)
            kinds[nid] = kind
            for e in edges:
                if e.kind == VIRTUAL:
                    vmap.setdefault(e.ref, []).append(nid)
            continue
        a, b, classes, ab = hit
        clear = clear.union(x for x in verts if x < a)
        if len(classes) == 2 and not ab:
            virts = [SkelEdge(a, b, VIRTUAL, next(vid_counter))] * 2
            dipole = []
        else:
            virts = [SkelEdge(a, b, VIRTUAL, next(vid_counter)) for _ in classes]
            dipole = [([edges[i] for i in ab] + virts, clear)]
        parts = [([edges[i] for i in cls] + [virt], clear) for cls, virt in zip(classes, virts)]
        stack += reversed(dipole + parts)
    return skeletons, vmap, kinds


def _assemble(skeletons, vmap, kinds):
    """Merge the skeletons across every tree edge joining two cycles, then
    freeze and root the tree; consumes the output of `_split_components`,
    which never makes two dipoles adjacent.

    Gluing two cycles along their virtual edge gives a cycle, so one pass
    over the virtual edges reaches the fixed point, and a merged node keeps
    kind 'S'.  Each merge goes into the lower working nid, so a merged node
    keeps the lowest nid of its parts."""
    merged_into = {}

    def find(nid):
        while nid in merged_into:
            nid = merged_into[nid]
        return nid

    for vid in sorted(vmap):
        keep, drop = sorted(map(find, vmap[vid]))
        if kinds[keep] == kinds[drop] == "S":
            merged_into[drop] = keep
            skeletons[keep] += skeletons.pop(drop)
            del vmap[vid]

    # freeze nodes with compacted ids in construction order
    order = sorted(skeletons)
    remap = {old: new for new, old in enumerate(order)}
    nodes = []
    for old in order:
        edges = tuple(
            sorted(
                (e for e in skeletons[old] if e.kind == REAL or e.ref in vmap),
                key=lambda e: (e.kind != REAL, e.ref),
            )
        )
        verts = frozenset(x for e in edges for x in (e.u, e.v))
        nodes.append(SpqrNode(remap[old], kinds[old], verts, edges))
    tree_edges = tuple(
        sorted((*sorted(remap[find(x)] for x in pair), vid) for vid, pair in vmap.items())
    )

    # root at the node holding the lowest-id real edge; real edges come first
    # in a node, so only each node's first edge is read
    root = min((node.edges[0].ref, node.nid) for node in nodes if node.edges[0].kind == REAL)[1]
    adj = [[] for _ in nodes]
    for x, y, vid in tree_edges:
        adj[x].append((y, vid))
        adj[y].append((x, vid))
    parent, parent_vid, depth, children = root_tree(adj, root)

    # nids are appended in increasing order, so each list is already sorted
    nodes_of_vertex = {}
    for node in nodes:
        for x in node.vertices:
            nodes_of_vertex.setdefault(x, []).append(node.nid)
    h_map, l_map = {}, {}
    ranks = [sorted(node.vertices) for node in nodes]  # deepest-copy tie-break
    for x, nids in nodes_of_vertex.items():
        nodes_of_vertex[x] = tuple(nids)
        if len(nids) == 1:
            h_map[x] = l_map[x] = nids[0]
            continue
        top = sorted(nids, key=depth.__getitem__)
        h_map[x] = top[0]
        if depth[top[0]] == depth[top[1]]:
            raise AssertionError("copies of a vertex must have a unique highest node")
        l_map[x] = min(nids, key=lambda nid: (-depth[nid], ranks[nid]))

    return SpqrTree(
        nodes=tuple(nodes),
        tree_edges=tree_edges,
        root=root,
        parent=parent,
        parent_vid=parent_vid,
        depth=depth,
        children=children,
        h_map=h_map,
        l_map=l_map,
        nodes_of_vertex=nodes_of_vertex,
    )


# ---------------------------------------------------------------------------
# queries and serialization


def enumerate_two_cuts(tree):
    """The exact 2-vertex-cut set of the decomposed graph, assembled from
    P-node poles, virtual edges on R-R or R-S tree edges, and non-adjacent
    vertex pairs on each S-node cycle."""
    cuts = set()
    for node in tree.nodes:
        if node.kind == "P":
            cuts.add(frozenset(node.vertices))
    for x, y, _ in tree.tree_edges:
        kinds = {tree.nodes[x].kind, tree.nodes[y].kind}
        if "R" in kinds and kinds <= {"R", "S"}:
            cuts.add(tree.nodes[x].vertices & tree.nodes[y].vertices)
    for node in tree.nodes:
        if node.kind != "S":
            continue
        order, _ = node.cycle_order()
        k = len(order)
        for i in range(k):
            for j in range(i + 2, k):
                if i == 0 and j == k - 1:
                    continue  # adjacent around the wrap
                cuts.add(frozenset((order[i], order[j])))
    return cuts


def to_debug_lines(tree):
    """One node per line: 'id kind vertices | real-edges | virtual-edges(peer-id)'."""
    peer = {}
    for x, y, vid in tree.tree_edges:
        peer[(x, vid)] = y
        peer[(y, vid)] = x
    lines = []
    for node in tree.nodes:
        verts = ",".join(str(x) for x in sorted(node.vertices))
        reals = ",".join(f"{u}-{v}" for u, v in sorted(e.pair() for e in node.real_edges()))
        virts = ",".join(
            f"{e.pair()[0]}-{e.pair()[1]}({peer[(node.nid, e.ref)]})"
            for e in sorted(node.virtual_edges(), key=lambda e: e.ref)
        )
        lines.append(f"{node.nid} {node.kind} {verts} | {reals} | {virts}")
    return lines
