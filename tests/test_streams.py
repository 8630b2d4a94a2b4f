import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamnd import BucketScheme, EdgeStream, StreamingMst, open_stream
from streamnd.errors import ParseError, ResourceLimitError
from streamnd.streams import MAX_BUCKETS, MstEdge
from streamnd.oracle import offline_mst_weight


def test_bucket_zero_weight_class():
    scheme = BucketScheme(Fraction(1, 2), 100)
    assert scheme.bucket_of(0) == 0


def test_bucket_examples_eps_one():
    scheme = BucketScheme(1, 100)
    assert scheme.bucket_of(1) == 1  # [1, 2)
    assert scheme.bucket_of(5) == 3  # [4, 8)


def test_bucket_range_errors():
    scheme = BucketScheme(1, 10)
    with pytest.raises(ValueError):
        scheme.bucket_of(-1)
    with pytest.raises(ValueError):
        scheme.bucket_of(11)
    # without a ceiling only a negative weight is out of range
    scheme = BucketScheme(1)
    with pytest.raises(ValueError):
        scheme.bucket_of(-1)
    assert scheme.bucket_of(10**6) == 20  # [2^19, 2^20)


@given(st.integers(1, 500), st.integers(1, 500), st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, 2]))
def test_bucket_order_embedding(w1, w2, eps):
    scheme = BucketScheme(eps, 500)
    if w1 <= w2:
        assert scheme.bucket_of(w1) <= scheme.bucket_of(w2)


@given(st.integers(1, 500), st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1]))
def test_bucket_width_factor(w, eps):
    scheme = BucketScheme(eps, 500)
    j = scheme.bucket_of(w)
    assert (1 + Fraction(eps)) ** (j - 1) <= w < (1 + Fraction(eps)) ** j


def test_every_weight_maps_to_one_bucket():
    scheme = BucketScheme(Fraction(1, 3), 64)
    count = scheme.bucket_count()
    for w in range(65):
        assert 0 <= scheme.bucket_of(w) < count


class FractionScanBuckets:
    """The bucket lookup the integer cut table replaced, kept as its
    reference: a linear scan over exact Fraction upper boundaries."""

    def __init__(self, eps, max_weight):
        self.eps = Fraction(eps)
        self.max_weight = int(max_weight)
        self._uppers = []
        hi = 1 + self.eps
        while self.max_weight >= 1 and hi <= self.max_weight:
            self._uppers.append(hi)
            hi *= 1 + self.eps
        self._uppers.append(hi)

    def bucket_of(self, w):
        if w == 0:
            return 0
        for i, hi in enumerate(self._uppers, start=1):
            if w < hi:
                return i
        raise AssertionError("bucket table does not cover the weight range")

    def bucket_count(self):
        if self.max_weight == 0:
            return 1
        return self.bucket_of(self.max_weight) + 1


DIFF_EPS = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 7),
    Fraction(1, 10),
    1,
    2,
    0.1,
    0.25,
    Fraction(5, 3),
    Fraction(1, 100),
)


@pytest.mark.parametrize("eps", DIFF_EPS, ids=str)
def test_cut_table_matches_fraction_scan(eps):
    ref = FractionScanBuckets(eps, 5000)
    expected = [ref.bucket_of(w) for w in range(5001)]
    scheme = BucketScheme(eps, 5000)
    assert [scheme.bucket_of(w) for w in range(5001)] == expected
    # the old table for a smaller max_weight was a prefix of this one, so
    # its bucket_count was expected[max_weight] + 1
    for max_weight in range(5001):
        small = BucketScheme(eps, max_weight)
        assert small.bucket_of(max_weight) == expected[max_weight], max_weight
        assert small.bucket_count() == expected[max_weight] + 1, max_weight
    assert FractionScanBuckets(eps, 0).bucket_count() == 1
    # without a ceiling the table grows with the heaviest weight seen so far
    weights = list(range(5001))
    random.Random(5000).shuffle(weights)
    lazy = BucketScheme(eps)
    assert lazy.bucket_count() == 1
    heaviest = 0
    for w in weights:
        assert lazy.bucket_of(w) == expected[w], w
        heaviest = max(heaviest, w)
        assert lazy.bucket_count() == expected[heaviest] + 1, w


@pytest.mark.parametrize("w", [2.5, Fraction(3, 2), "3", 3.0, None], ids=repr)
def test_bucket_rejects_non_int_weight(w):
    with pytest.raises(ValueError):
        BucketScheme(Fraction(1, 2), 8).bucket_of(w)
    with pytest.raises(ValueError):
        BucketScheme(Fraction(1, 2)).bucket_of(w)


def test_bucket_table_guard_at_the_cap():
    # at eps = 1 the cuts are 1, 2, 4, ...: a table of MAX_BUCKETS classes
    # ends at the cut 2^(MAX_BUCKETS - 1)
    scheme = BucketScheme(1)
    top = 2 ** (MAX_BUCKETS - 1)
    assert scheme.bucket_of(top - 1) == MAX_BUCKETS - 1
    assert scheme.bucket_count() == MAX_BUCKETS
    with pytest.raises(ResourceLimitError):
        scheme.bucket_of(top)
    assert scheme.bucket_count() == MAX_BUCKETS
    assert BucketScheme(1, top - 1).bucket_count() == MAX_BUCKETS
    with pytest.raises(ResourceLimitError):
        BucketScheme(1, top)


def test_bucket_table_guard_is_fast_for_tiny_eps():
    # a table to 10^6 at eps = 1/10000 would need ~138k classes, which took
    # most of a minute to build before the guard
    scheme = BucketScheme(Fraction(1, 10000))
    t0 = time.monotonic()
    with pytest.raises(ResourceLimitError):
        scheme.bucket_of(10**6)
    with pytest.raises(ResourceLimitError):
        BucketScheme(Fraction(1, 10000), 10**6)
    assert time.monotonic() - t0 < 5
    # the failed lookup left the table as it was
    assert scheme.bucket_count() == 1
    assert scheme.bucket_of(1) == 1


def test_mst_triangle_any_order():
    for order in ((1, 2, 3), (3, 2, 1), (2, 3, 1)):
        mst = StreamingMst(range(3))
        pairs = {1: (0, 1), 2: (1, 2), 3: (2, 0)}
        for w in order:
            mst.insert(*pairs[w], w)
        assert sorted(e.w for e in mst.edges()) == [1, 2]


def test_mst_single_edge_no_eviction():
    mst = StreamingMst(range(2))
    assert mst.insert(0, 1, 7) is None


def test_mst_eviction_rules():
    mst = StreamingMst(range(3))
    mst.insert(0, 1, 9)
    mst.insert(1, 2, 5)
    out = mst.insert(0, 2, 5)  # cycle 9,5,5: evict the heaviest
    assert (out.a, out.b, out.w) == (0, 1, 9)

    mst = StreamingMst(range(3))
    mst.insert(0, 1, 5)
    mst.insert(1, 2, 5)
    out = mst.insert(0, 2, 3)  # tie at 5: evict the most recent of the ties
    assert (out.a, out.b) == (1, 2)

    mst = StreamingMst(range(3))
    mst.insert(0, 1, 5)
    mst.insert(1, 2, 5)
    out = mst.insert(0, 2, 5)  # new edge ties the max: it is the newest
    assert (out.a, out.b) == (0, 2)


def test_mst_rejects_bad_endpoints():
    mst = StreamingMst(range(3))
    with pytest.raises(ValueError):
        mst.insert(0, 5, 1)
    with pytest.raises(ValueError):
        mst.insert(1, 1, 1)


def test_mst_matches_offline_kruskal():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        links = []
        mst = StreamingMst(range(n))
        for _ in range(rng.randint(1, 18)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            w = rng.randint(1, 12)
            links.append((u, v, w))
            mst.insert(u, v, w)
            # prefix invariant: stored forest weight equals offline optimum
            assert mst.total_weight() == offline_mst_weight(range(n), links)
        assert len(mst.edges()) <= n - 1


class _RefStreamingMst:
    """The DFS-based StreamingMst the parent-pointer forest replaced: an
    adjacency list per node and a search of the whole component per insert.
    Kept as the reference for the differential test."""

    def __init__(self, nodes):
        self.nodes = set(nodes)
        self._adj = {x: [] for x in self.nodes}
        self._seq = 0

    def edges(self):
        seen = {}
        for recs in self._adj.values():
            for rec in recs:
                seen[rec.seq] = rec
        return [seen[s] for s in sorted(seen)]

    def _path(self, a, b):
        parent = {a: None}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                break
            for rec in self._adj[x]:
                y = rec.b if rec.a == x else rec.a
                if y not in parent:
                    parent[y] = (x, rec)
                    stack.append(y)
        if b not in parent:
            return None
        path = []
        x = b
        while parent[x] is not None:
            px, rec = parent[x]
            path.append(rec)
            x = px
        return path

    def insert(self, a, b, w, payload=None):
        rec = MstEdge(a, b, w, self._seq, payload)
        self._seq += 1
        cycle = self._path(a, b)
        if cycle is None:
            self._adj[a].append(rec)
            self._adj[b].append(rec)
            return None
        worst = max(cycle + [rec], key=lambda r: (r.w, r.seq))
        if worst is rec:
            return rec
        self._adj[worst.a].remove(worst)
        self._adj[worst.b].remove(worst)
        self._adj[a].append(rec)
        self._adj[b].append(rec)
        return worst


def test_mst_matches_dfs_reference():
    # every eviction and the final forest equal the DFS class's, with ties
    # common (weights from ranges as narrow as 1..1) and tuple node ids
    for seed in range(2400):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        nodes = [(i, "x") for i in range(n)] if seed % 2 else list(range(n))
        wmax = rng.choice((1, 2, 3, 8, 100))
        mst, ref = StreamingMst(nodes), _RefStreamingMst(nodes)
        for step in range(rng.randint(1, 4 * n)):
            a, b = rng.sample(nodes, 2)
            w, payload = rng.randint(1, wmax), ("p", step)
            assert mst.insert(a, b, w, payload) == ref.insert(a, b, w, payload)
        assert mst.edges() == ref.edges()
        assert mst.total_weight() == sum(rec.w for rec in ref.edges())


def test_stream_is_single_pass(tmp_path):
    stream = EdgeStream.from_edges(3, [(0, 1, 1)])
    list(stream)
    with pytest.raises(RuntimeError):
        list(stream)


def test_open_stream_preserves_file_order(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("4 3\n0 1 5\n1 2 4\n2 3 9\n")
    assert list(open_stream(path)) == [(0, 1, 5), (1, 2, 4), (2, 3, 9)]


def test_open_stream_shuffle_determinism(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("5 4\n0 1 1\n1 2 2\n2 3 3\n3 4 4\n")
    once = list(open_stream(path, shuffle_seed=9))
    again = list(open_stream(path, shuffle_seed=9))
    other = list(open_stream(path, shuffle_seed=10))
    assert once == again
    assert sorted(once) == sorted(other)


def test_open_stream_parse_error(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("3 2\n0 1\nnope\n")
    with pytest.raises(ParseError) as err:
        open_stream(path)
    assert err.value.lineno == 3
