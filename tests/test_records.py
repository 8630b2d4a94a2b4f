"""The per-item records: immutable, with a pinned repr, their defaults, and
equality and hashing by field values."""

import pytest

from streamnd.cap1 import LinkRec
from streamnd.spanner import KeptEdge
from streamnd.spqr import REAL, VIRTUAL, SkelEdge
from streamnd.streams import MstEdge

RECORDS = [
    (KeptEdge(0, 1, 2, 3, 4), "KeptEdge(stream_index=0, u=1, v=2, w=3, bucket=4)"),
    (LinkRec(0, 1, 2, 3), "LinkRec(u=0, v=1, w=2, lid=3, synthetic=False)"),
    (LinkRec(0, 1, 0, 3, True), "LinkRec(u=0, v=1, w=0, lid=3, synthetic=True)"),
    (MstEdge(0, 1, 2, 3), "MstEdge(a=0, b=1, w=2, seq=3, payload=None)"),
    (
        MstEdge("a", "b", 2, 3, LinkRec(0, 1, 2, 3)),
        "MstEdge(a='a', b='b', w=2, seq=3, "
        "payload=LinkRec(u=0, v=1, w=2, lid=3, synthetic=False))",
    ),
    (SkelEdge(0, 1, REAL, 2), "SkelEdge(u=0, v=1, kind='real', ref=2)"),
    (SkelEdge(1, 0, VIRTUAL, 5), "SkelEdge(u=1, v=0, kind='virtual', ref=5)"),
]


@pytest.mark.parametrize("rec, text", RECORDS, ids=lambda x: type(x).__name__)
def test_repr_is_pinned(rec, text):
    assert repr(rec) == text


@pytest.mark.parametrize("rec", [rec for rec, _ in RECORDS], ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned(rec):
    for name in type(rec)._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 7)
    with pytest.raises(AttributeError):
        rec.extra = 7


@pytest.mark.parametrize("rec", [rec for rec, _ in RECORDS], ids=lambda x: type(x).__name__)
def test_equal_fields_compare_and_hash_equal(rec):
    twin = type(rec)(*rec)
    assert twin is not rec
    assert twin == rec and hash(twin) == hash(rec)
    assert len({rec, twin}) == 1
    first = type(rec)._fields[0]
    other = rec._replace(**{first: -1})
    assert other != rec


def test_defaults_are_kept():
    assert LinkRec(0, 1, 2, 3).synthetic is False
    assert LinkRec(0, 1, 2, 3) == LinkRec(0, 1, 2, 3, False)
    assert MstEdge(0, 1, 2, 3).payload is None
    assert MstEdge(0, 1, 2, 3) == MstEdge(0, 1, 2, 3, None)


def test_methods():
    assert LinkRec(4, 1, 9, 0, True).triple() == (4, 1, 9)
    assert SkelEdge(5, 2, REAL, 0).pair() == (2, 5)
