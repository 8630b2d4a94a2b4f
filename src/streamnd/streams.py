"""Single-pass edge streams, geometric weight bucketing, and streaming MSTs."""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .errors import ResourceLimitError
from .graph import parse_graph_file


# Most weight classes a BucketScheme holds.  Building a table of n classes
# takes time quadratic in n: ~0.5 s at 4096 for any eps, ~25 s at 16384.
MAX_BUCKETS = 4096


class BucketScheme:
    """Geometric weight classes: bucket 0 holds weight 0, bucket i >= 1 holds
    weights in [(1+eps)^(i-1), (1+eps)^i).

    Weights are integers, so the classes are kept as an integer cut table:
    `_cuts[i] = ceil((1+eps)^i)`, computed as (p+q)^i / q^i rounded up for
    eps = p/q.  An integer w is below (1+eps)^i exactly when it is below
    that ceiling, so `bucket_of` is one bisection with no rounding anywhere.
    `_cuts[0] = 1` is where bucket 1 starts, which leaves weight 0 in bucket
    0.  The table grows to the first cut past the heaviest weight looked up,
    one step of the running power per cut, so no stream needs its maximum
    weight in advance; a given `max_weight` fills it at once and rejects
    heavier weights.  A weight past MAX_BUCKETS classes raises
    ResourceLimitError, a negative or non-int one ValueError.
    """

    def __init__(self, eps, max_weight=None):
        self.eps = eps if type(eps) is Fraction else Fraction(eps)
        p, q = self.eps.numerator, self.eps.denominator
        if p <= 0:
            raise ValueError("eps must be positive")
        self._step, self._power = (p + q, q), (1, 1)  # power: (p+q)^i, q^i
        self._cuts = [1]  # lower ends of buckets 1, 2, ...
        self._limit = 1  # lighter weights need no growth
        self.max_weight = max_weight
        if max_weight is not None:
            if max_weight < 0:
                raise ValueError("max weight must be nonnegative")
            self.max_weight = int(max_weight)
            self._grow(self.max_weight)
            self._limit = self.max_weight + 1

    def bucket_of(self, w):
        if not isinstance(w, int):
            raise ValueError(f"weight {w!r} is not an integer")
        if w < 0 or w >= self._limit:
            self._grow(w)
        return bisect_right(self._cuts, w)

    def bucket_in_table(self, w):
        """Bucket of w if the table already reaches it, else None; checks w as
        bucket_of does but never grows the table."""
        if isinstance(w, int) and w >= self._limit:
            return None
        return self.bucket_of(w)

    def _grow(self, w):
        """Extend the table to the first cut past w, or raise and keep it as is."""
        if w < 0:
            raise ValueError(f"weight {w} is negative")
        if self.max_weight is not None and w > self.max_weight:
            raise ValueError(f"weight {w} outside [0, {self.max_weight}]")
        cuts, start = self._cuts, len(self._cuts)
        (step_num, step_den), (num, den) = self._step, self._power
        while cuts[-1] <= w:
            if len(cuts) == MAX_BUCKETS:
                del cuts[start:]
                raise ResourceLimitError(f"weight {w} needs over {MAX_BUCKETS} buckets; raise eps")
            num *= step_num
            den *= step_den
            cuts.append(-(-num // den))
        self._power = (num, den)
        if self.max_weight is None:
            self._limit = cuts[-1]

    def bucket_count(self):
        """Buckets for weights up to max_weight or, without one, the heaviest
        weight looked up: bucket 0 plus one per cut at or below that weight."""
        return len(self._cuts)


def item_bucket(n, scheme, u, v, w):
    """Weight bucket of a stream item (u, v, w), or ValueError for an
    endpoint that is not an int in 0..n-1 or a weight `scheme` does not
    cover.  The state machines check each item this way before it takes a
    stream position."""
    if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u!r},{v!r}) out of range for n={n}")
    return scheme.bucket_of(w)


class EdgeStream:
    """Ordered sequence of weighted edges, consumable exactly once."""

    def __init__(self, n, items):
        self.n = n
        self._items = list(items)
        self._consumed = False

    def __iter__(self):
        if self._consumed:
            raise RuntimeError("single-pass stream cannot be replayed")
        self._consumed = True
        yield from self._items

    @staticmethod
    def from_edges(n, edges, shuffle_seed=None):
        stream = EdgeStream(n, edges)
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(stream._items)
        return stream


def open_stream(path, shuffle_seed=None):
    """Stream a graph file's edges in file order, or a seeded permutation.

    Materializing the permutation is a harness convenience and is not part of
    any streaming-space accounting.
    """
    n, edges = parse_graph_file(path)
    return EdgeStream.from_edges(n, edges, shuffle_seed=shuffle_seed)


class MstEdge(NamedTuple):
    """One stored forest link; an immutable NamedTuple because one is built
    per inserted link."""

    a: object
    b: object
    w: int
    seq: int
    payload: object = None


class StreamingMst:
    """Minimum spanning forest of links inserted one at a time.

    Nodes may be any hashable ids, fixed at construction.  Inserting an edge
    that closes a cycle evicts the maximum-weight cycle edge; among equal
    weights the most recently inserted edge is evicted, so the stored forest
    is deterministic in the arrival order.

    The forest is kept as parent pointers: `_up[x]` is (parent, record of
    the edge to it), or None at a root.  The cycle an insert closes is the
    forest path a..b, found by walking up from a to its root and then from b
    to the first node of a's walk.  An eviction clears the pointer on the
    evicted edge's child end; a link everts a (reverses its root chain) and
    hangs it under b.  An insert so costs O(depth of its tree), not
    O(size of its component).
    """

    def __init__(self, nodes):
        self._up = dict.fromkeys(nodes)
        self._seq = 0

    def edges(self):
        return sorted((link[1] for link in self._up.values() if link), key=lambda r: r.seq)

    def total_weight(self):
        return sum(rec.w for rec in self.edges())

    def _path(self, a, b):
        """Forest path a..b as a list of records, or None if disconnected."""
        up, a_recs, x = self._up, [], a
        pos = {a: 0}  # node of a's walk -> records from a to it
        while up[x] is not None:
            x, rec = up[x]
            a_recs.append(rec)
            pos[x] = len(a_recs)
        b_recs, x = [], b
        while x not in pos:
            if up[x] is None:
                return None
            x, rec = up[x]
            b_recs.append(rec)
        return a_recs[: pos[x]] + b_recs

    def insert(self, a, b, w, payload=None):
        """Insert a link; returns the evicted record, or None if none."""
        up = self._up
        if a not in up or b not in up:
            raise ValueError(f"link endpoint outside the node universe: ({a!r},{b!r})")
        if a == b:
            raise ValueError("self-loops cannot join a spanning forest")
        rec = MstEdge(a, b, w, self._seq, payload)
        self._seq += 1
        cycle, worst = self._path(a, b), None
        if cycle is not None:
            worst = max(cycle + [rec], key=lambda r: (r.w, r.seq))
            if worst is rec:
                return rec
            child = worst.a if up[worst.a] and up[worst.a][1] is worst else worst.b
            up[child] = None
        x, link = a, up[a]  # evert a: reverse the pointers on its root chain
        while link is not None:
            parent, edge = link
            link = up[parent]
            up[parent] = (x, edge)
            x = parent
        up[a] = (b, rec)
        return worst
