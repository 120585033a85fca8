"""Shape extremes and awkward symbol sets."""

from __future__ import annotations

import sys
from contextlib import contextmanager

from ppheap.augment import augment
from ppheap.coding import make_alphabet, parse_pstring, prev_encode
from ppheap.heap import Builder, audit_index, build_index
from ppheap.dot import to_dot
from ppheap.matching import match_pattern, segment_walk
from ppheap.oracle import naive_match, naive_pph, trees_equal
from ppheap.storage import IndexBundle, dumps, loads


class TestPathShapedHeap:
    """A single repeated parameter produces a maximally deep, chain-like tree."""

    def test_deep_chain_build_and_match(self):
        alpha = make_alphabet([], ["x"])
        n = 5000
        idx = build_index(parse_pstring("x" * n, alpha))
        assert idx.stats().max_depth > 1000  # no recursion anywhere on the way
        aug = augment(idx)
        pattern = parse_pstring("x" * 100, alpha)
        assert match_pattern(idx, aug, pattern) == list(range(1, n - 100 + 2))

    def test_deep_chain_round_trip_and_dot(self):
        alpha = make_alphabet([], ["x"])
        idx = build_index(parse_pstring("x" * 2000, alpha))
        blob = dumps(IndexBundle(idx, None, "char"))
        assert dumps(loads(blob)) == blob
        assert to_dot(idx).startswith("digraph")

    def test_deep_chain_audit(self):
        alpha = make_alphabet([], ["x"])
        idx = build_index(parse_pstring("x" * 400, alpha))
        audit_index(idx)
        assert trees_equal(idx, naive_pph(idx.text))


@contextmanager
def shallow_stack(headroom: int = 40):
    """Fail with RecursionError if the body nests more than headroom frames."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestDeepHeapQueries:
    """Whole-encoding queries over heaps thousands of nodes deep."""

    def check_query(self, idx, aug, pattern, expected, whole=True):
        m = len(pattern)
        assert (segment_walk(idx, prev_encode(pattern), 1).consumed_through == m) == whole
        with shallow_stack():
            got = match_pattern(idx, aug, pattern)
            bare = match_pattern(idx, None, pattern)
        assert got == bare == expected

    def test_period_seven_text(self):
        alpha = make_alphabet(["a", "b"], ["x", "y", "z"])
        text = parse_pstring("xaybzxb" * 500, alpha)
        idx = build_index(text)
        assert idx.stats().max_depth > 400
        aug = augment(idx)
        for start, m in [(1, 1), (3, 4), (5, 16), (2, 64), (7, 250)]:
            pattern = text[start - 1:start - 1 + m]
            self.check_query(idx, aug, pattern, naive_match(text, pattern))

    def test_single_parameter_power(self):
        alpha = make_alphabet([], ["x"])
        n = 3000
        idx = build_index(parse_pstring("x" * n, alpha))
        depth = idx.stats().max_depth
        assert depth == n // 2
        aug = augment(idx)
        # up to the depth the whole encoding is a node; beyond it, segments
        for m in (1, 2, 50, depth - 1, depth, depth + 1, n):
            pattern = parse_pstring("x" * m, alpha)
            self.check_query(idx, aug, pattern, list(range(1, n - m + 2)), m <= depth)
        assert match_pattern(idx, aug, parse_pstring("x" * (n + 1), alpha)) == []


class TestTokenSymbols:
    def test_multibyte_tokens_end_to_end(self):
        alpha = make_alphabet(["für", "while"], ["ω", "変数", "i"])
        raw = ["ω", "für", "変数", "ω", "while", "i", "変数", "ω"]
        text = parse_pstring(raw, alpha)
        idx = build_index(text)
        audit_index(idx)
        assert trees_equal(idx, naive_pph(text))
        aug = augment(idx)
        pattern = parse_pstring(["i", "für", "ω"], alpha)
        assert match_pattern(idx, aug, pattern) == naive_match(text, pattern) == [1]
        blob = dumps(IndexBundle(idx, aug, "token"))
        assert dumps(loads(blob)) == blob


class TestMidStreamQueries:
    def test_snapshot_is_queryable(self, ab_uvxy):
        b = Builder(ab_uvxy)
        stream = parse_pstring("uvaubuavbvuvau", ab_uvxy)
        for cut, s in enumerate(stream, start=1):
            b.extend((s,))
            if cut in (5, 10, 14):
                snap = b.snapshot()
                aug = augment(snap)
                pattern = parse_pstring("xay", ab_uvxy)
                assert (match_pattern(snap, aug, pattern)
                        == naive_match(snap.text, pattern))
        b.finalize()
