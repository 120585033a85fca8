"""Tests for pattern matching, from the bare heap and over the augmented index."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppheap import matching
from ppheap.augment import augment
from ppheap.coding import make_alphabet, parse_pstring, prev_encode
from ppheap.errors import EmptyPattern
from ppheap.heap import ROOT, build_index
from ppheap.matching import _direct_hits, _filtered_hits, match_pattern, segment_walk
from ppheap.oracle import naive_match

from conftest import build_augmented, random_text, walk


class TestSegmentWalk:
    def test_first_segment_of_partial_pattern(self, a_xy):
        idx, _ = build_augmented("xaxyxyxyyaxyxy", a_xy)
        prev_p = prev_encode(parse_pstring("axyx", a_xy))
        assert prev_p == ("a", 0, 0, 2)
        seg = segment_walk(idx, prev_p, 1)
        assert seg.start == 1
        assert seg.end_node == walk(idx, ("a", 0))
        assert seg.consumed_through == 2

    def test_second_segment_renormalizes(self, a_xy):
        idx, _ = build_augmented("xaxyxyxyyaxyxy", a_xy)
        prev_p = prev_encode(parse_pstring("axyx", a_xy))
        seg = segment_walk(idx, prev_p, 3)
        assert seg.start == 3
        # both labels collapse to 0 for the window starting at 3
        assert seg.end_node == walk(idx, (0, 0))
        assert seg.consumed_through == 4
        assert seg.zero_positions == [3, 4]

    def test_unrepresented_start_stays_at_root(self, a_xy):
        idx, _ = build_augmented("xxxx", a_xy)
        prev_p = prev_encode(parse_pstring("a", a_xy))
        seg = segment_walk(idx, prev_p, 1)
        assert seg.end_node == ROOT
        assert seg.consumed_through == 0
        assert seg.zero_positions == []


class TestKnownAnswers:
    def test_two_and_six(self, ab_uvxy):
        idx, aug = build_augmented("uvaubuavbv", ab_uvxy)
        p = parse_pstring("xayby", ab_uvxy)
        assert match_pattern(idx, aug, p) == [2, 6]
        assert naive_match(idx.text, p) == [2, 6]

    def test_fully_represented_pattern(self, a_xy):
        idx, aug = build_augmented("xaxyxyxyyaxyxy", a_xy)
        p = parse_pstring("xyxy", a_xy)
        assert match_pattern(idx, aug, p) == [3, 4, 5, 11]
        assert naive_match(idx.text, p) == [3, 4, 5, 11]

    def test_segmented_pattern(self, a_xy):
        idx, aug = build_augmented("xaxyxyxyyaxyxy", a_xy)
        p = parse_pstring("axyx", a_xy)
        assert match_pattern(idx, aug, p) == [2, 10]
        assert naive_match(idx.text, p) == [2, 10]


class TestEdgeCases:
    def test_single_parameter_pattern(self, ab_uvxy):
        rng = random.Random(41)
        for _ in range(20):
            raw = random_text(rng, ab_uvxy, 32, min_n=1)
            idx, aug = build_augmented(raw, ab_uvxy)
            p = parse_pstring("x", ab_uvxy)
            expected = [i for i, s in enumerate(idx.text, start=1)
                        if s in ab_uvxy.parameters]
            assert match_pattern(idx, aug, p) == expected

    def test_constant_absent_from_text(self, ab_uvxy):
        idx, aug = build_augmented("uvuv", ab_uvxy)
        assert match_pattern(idx, aug, parse_pstring("ua", ab_uvxy)) == []

    def test_pattern_longer_than_text(self, ab_uvxy):
        idx, aug = build_augmented("uv", ab_uvxy)
        assert match_pattern(idx, aug, parse_pstring("uvu", ab_uvxy)) == []

    def test_empty_pattern_rejected(self, ab_uvxy):
        idx, aug = build_augmented("uv", ab_uvxy)
        with pytest.raises(EmptyPattern):
            match_pattern(idx, aug, parse_pstring("", ab_uvxy))

    def test_empty_text(self, ab_uvxy):
        idx, aug = build_augmented("", ab_uvxy)
        assert match_pattern(idx, aug, parse_pstring("u", ab_uvxy)) == []

    def test_whole_text_as_pattern(self, ab_uvxy):
        rng = random.Random(42)
        for _ in range(20):
            raw = random_text(rng, ab_uvxy, 24, min_n=1)
            idx, aug = build_augmented(raw, ab_uvxy)
            assert 1 in match_pattern(idx, aug, idx.text)


class TestRegressionCases:
    """Cases found by randomized search where one verification rule decides.

    In each, removing a single check (the zero-position re-check, or the
    subtree allowance on the last segment) flips the answer.
    """

    @pytest.mark.parametrize("constants,parameters,text_raw,pattern_raw,expected", [
        # zero-position re-check rejects a cross-segment mismatch
        ("a", "xyz", "xxxxzzzyxxzzyzayzayxyayayzzyayya", "xxzzy", [9]),
        ("", "xyz", "yxyzzyxxyxyx", "xxyx", [7]),
        ("a", "yz", "zyyzzyzzyyaayaaayyazzy", "yzyz", []),
        # last segment must accept reach pointers anywhere in the subtree
        ("ab", "yz", "byaaabyzyaayya", "aaabyzyaa", [3]),
    ])
    def test_frozen_case(self, constants, parameters, text_raw, pattern_raw,
                         expected):
        alpha = make_alphabet(list(constants), list(parameters))
        idx, aug = build_augmented(list(text_raw), alpha)
        pattern = parse_pstring(list(pattern_raw), alpha)
        assert naive_match(idx.text, pattern) == expected
        assert match_pattern(idx, aug, pattern) == expected


class TestOracleEquivalence:
    def test_exhaustive_small(self, a_xy):
        syms = ["a", "x", "y"]
        for n in range(0, 6):
            for text_tuple in product(syms, repeat=n):
                idx, aug = build_augmented(list(text_tuple), a_xy)
                for m in range(1, 4):
                    for pat_tuple in product(syms, repeat=m):
                        p = parse_pstring(list(pat_tuple), a_xy)
                        assert match_pattern(idx, aug, p) == naive_match(idx.text, p), \
                            (text_tuple, pat_tuple)

    def test_random_medium(self, ab_uvxy):
        rng = random.Random(43)
        for _ in range(25):
            raw = random_text(rng, ab_uvxy, 256, min_n=32)
            idx, aug = build_augmented(raw, ab_uvxy)
            for _ in range(8):
                if rng.random() < 0.5:
                    start = rng.randint(1, len(raw))
                    m = rng.randint(1, min(12, len(raw) - start + 1))
                    pat_raw = raw[start - 1:start - 1 + m]
                else:
                    pat_raw = random_text(rng, ab_uvxy, 12, min_n=1)
                p = parse_pstring(pat_raw, ab_uvxy)
                assert match_pattern(idx, aug, p) == naive_match(idx.text, p)

    def test_output_sorted_and_unique(self, ab_uvxy):
        rng = random.Random(44)
        for _ in range(30):
            raw = random_text(rng, ab_uvxy, 64, min_n=2)
            idx, aug = build_augmented(raw, ab_uvxy)
            pat_raw = random_text(rng, ab_uvxy, 4, min_n=1)
            got = match_pattern(idx, aug, parse_pstring(pat_raw, ab_uvxy))
            assert got == sorted(set(got))


AB_UVXY = make_alphabet(list("ab"), list("uvxy"))
SYMBOLS = list("abuvxy")


@st.composite
def texts(draw):
    """Random, block-repeated, or one-constant-one-parameter texts.

    The repetitive shapes give many double nodes and deep heaps, so most
    windows take the whole-encoding path.
    """
    shape = draw(st.sampled_from(["random", "repeated", "two-symbol"]))
    if shape == "random":
        used = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=6, unique=True))
        return draw(st.lists(st.sampled_from(used), max_size=60))
    if shape == "repeated":
        block = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=5))
        tail = draw(st.lists(st.sampled_from(SYMBOLS), max_size=3))
        return block * draw(st.integers(1, 25)) + tail
    return draw(st.lists(st.sampled_from(["a", "x"]), max_size=60))


@st.composite
def text_and_pattern(draw):
    """A text and a pattern: a window of it, or any symbols (some of them
    absent from the text), sometimes longer than the text."""
    text = draw(texts())
    n = len(text)
    if n and draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        pattern = text[start:start + draw(st.integers(1, n - start))]
    else:
        pattern = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=n + 3))
    return text, pattern


class TestMatchProperty:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=text_and_pattern())
    def test_equals_naive_match(self, case):
        text, pattern = case
        idx, aug = build_augmented(text, AB_UVXY)
        p = parse_pstring(pattern, AB_UVXY)
        assert match_pattern(idx, aug, p) == naive_match(idx.text, p)


@st.composite
def branch_cases(draw):
    """A text and a pattern for forcing each branch: random texts, windows
    of short-period texts (whole, or with one symbol of the second half
    changed), patterns longer than the text, and patterns holding a
    parameter the text lacks."""
    family = draw(st.sampled_from(["random", "periodic", "longer", "absent"]))
    if family == "random":
        text = draw(st.lists(st.sampled_from(SYMBOLS), max_size=60))
        return text, draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=8))
    if family == "longer":
        text = draw(st.lists(st.sampled_from(SYMBOLS), max_size=12))
        extra = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4))
        return text, text + extra
    block = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4))
    text = (block * 30)[:draw(st.integers(1, 80))]
    start = draw(st.integers(0, len(text) - 1))
    pattern = text[start:start + draw(st.integers(1, len(text) - start))]
    if family == "absent":
        missing = [s for s in "uvxy" if s not in text]
        if missing:
            k = draw(st.integers(0, len(pattern) - 1))
            pattern = pattern[:k] + [missing[0]] + pattern[k + 1:]
    elif len(pattern) > 1 and draw(st.booleans()):
        k = draw(st.integers(len(pattern) // 2, len(pattern) - 1))
        pattern = pattern[:k] + [draw(st.sampled_from(SYMBOLS))] + pattern[k + 1:]
    return text, pattern


class TestBothBranches:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(case=branch_cases())
    def test_each_branch_equals_naive_match(self, case):
        text, pattern = case
        idx, aug = build_augmented(text, AB_UVXY)
        p = parse_pstring(pattern, AB_UVXY)
        prev_p = prev_encode(p)
        first = segment_walk(idx, prev_p, 1)
        want = naive_match(idx.text, p)
        assert _direct_hits(idx, prev_p, first) == want
        assert _filtered_hits(idx, aug, prev_p, first) == want
        assert match_pattern(idx, None, p) == want


class TestBareHeapRule:
    """Without an augmentation, the rule decides by counting label checks."""

    @pytest.fixture
    def periodic(self):
        alpha = make_alphabet(["a", "b"], ["x", "y", "z"])
        return build_index(parse_pstring("xaybzxb" * 1200, alpha)), alpha

    @pytest.fixture
    def augment_calls(self, monkeypatch):
        calls = []

        def counted(idx):
            calls.append(idx)
            return augment(idx)

        monkeypatch.setattr(matching, "augment", counted)
        return calls

    def test_late_mismatch_takes_the_filter(self, periodic, augment_calls):
        idx, alpha = periodic
        raw = list(idx.text.symbols[100:100 + 4096])
        raw[3000] = "a" if raw[3000] != "a" else "b"
        p = parse_pstring(raw, alpha)
        assert match_pattern(idx, None, p) == naive_match(idx.text, p)
        assert len(augment_calls) == 1

    def test_short_window_takes_the_bare_heap(self, periodic, augment_calls):
        idx, alpha = periodic
        p = parse_pstring(list(idx.text.symbols[100:116]), alpha)
        hits = match_pattern(idx, None, p)
        assert hits == naive_match(idx.text, p) and len(hits) > 1000
        assert augment_calls == []
