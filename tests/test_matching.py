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
from ppheap.heap import ROOT, audit_index, build_index
from ppheap.matching import _direct_hits, _filtered_hits, match_pattern, segment_walk
from ppheap.oracle import naive_match, naive_pph, trees_equal

from conftest import CountingLabels, build_augmented, random_text, token_text, walk


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
        assert seg.zero_positions == [2, 3]

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

    def test_whole_encoding_slice_with_a_descent(self):
        """The reach-ordered slice for ``aa`` comes out [2, 5, 1], so the
        whole-encoding answer must sort it."""
        ab = make_alphabet("ab", [])
        idx, aug = build_augmented("aaabaab", ab)
        u = walk(idx, ("a", "a"))
        hi = aug.post[u] + 1
        a, b = aug.reach_start[hi - aug.subtree_size[u]], aug.reach_start[hi]
        assert aug.by_reach[a:b] == [2, 5, 1]
        assert aug.descents[b - 1] != aug.descents[a]
        p = parse_pstring("aa", ab)
        assert match_pattern(idx, aug, p) == [1, 2, 5]
        assert naive_match(idx.text, p) == [1, 2, 5]

    def test_ascending_whole_encoding_slice_is_not_sorted(self):
        """On a periodic text a whole encoding's slice is already
        ascending, so the answer is that slice, with no sort."""

        class Unsorted(list):
            def sort(self, *args, **kwargs):
                raise AssertionError("sorted an ascending slice")

        class ByReach(list):
            def __getitem__(self, i):
                got = super().__getitem__(i)
                return Unsorted(got) if type(i) is slice else got

        ab = make_alphabet("ab", [])
        idx, aug = build_augmented(list("ab") * 30, ab)
        aug.by_reach = ByReach(aug.by_reach)
        for raw in ("ab", "ba", "abab", "babab"):
            p = parse_pstring(raw, ab)
            assert segment_walk(idx, prev_encode(p), 1).consumed_through == len(raw)
            got = match_pattern(idx, aug, p)
            assert type(got) is Unsorted
            assert got == naive_match(idx.text, p)


class TestFreshAnswers:
    """An answer is the caller's own list: appending to, sorting or
    clearing it changes neither the augmentation nor the next answer."""

    @pytest.mark.parametrize("text,pattern", [
        (list("ab") * 30, "abab"),  # an ascending slice, returned unsorted
        ("aaabaab", "aa"),          # a slice with a descent, sorted
    ])
    def test_whole_encoding_answers_are_new_lists(self, text, pattern):
        ab = make_alphabet("ab", [])
        idx, aug = build_augmented(text, ab)
        p = parse_pstring(pattern, ab)
        assert segment_walk(idx, prev_encode(p), 1).consumed_through == len(pattern)
        by_reach = list(aug.by_reach)
        want = naive_match(idx.text, p)
        assert len(want) > 1
        for a in (aug, None):  # the augmented path, then the bare heap's
            for spoil in (lambda got: got.append(0), lambda got: got.sort(reverse=True),
                          list.clear):
                got = match_pattern(idx, a, p)
                assert got == want
                spoil(got)
                assert aug.by_reach == by_reach
                assert match_pattern(idx, a, p) == want


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
    parameter or the constant b that the text lacks."""
    family = draw(st.sampled_from(["random", "periodic", "longer", "absent", "constant"]))
    if family == "random":
        text = draw(st.lists(st.sampled_from(SYMBOLS), max_size=60))
        return text, draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=8))
    if family == "longer":
        text = draw(st.lists(st.sampled_from(SYMBOLS), max_size=12))
        extra = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4))
        return text, text + extra
    if family == "constant":
        # a window running to the text's end, with b first or right after
        # its first descent: there many candidates reach the node, and the
        # segment that starts at b ends at the root
        block = draw(st.lists(st.sampled_from("auvxy"), min_size=1, max_size=4))
        text = (block * 30)[:draw(st.integers(1, 80))]
        pattern = text[draw(st.integers(0, len(text) - 1)):]
        k = 0
        if draw(st.booleans()):
            idx = build_index(parse_pstring(text, AB_UVXY))
            k = segment_walk(idx, prev_encode(parse_pstring(pattern, AB_UVXY)), 1).consumed_through
        return text, pattern[:k] + ["b"] + pattern[k + 1:]
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


class TestTokenLabels:
    """Token-mode labels equal by value are distinct str objects, so a
    single child's derived label must be compared by value: a compare by
    identity passes every char-mode test, where one-character strings are
    shared objects, but fails here."""

    def test_equals_naive_match(self):
        rng = random.Random(43)
        for _ in range(12):
            raw, alpha = token_text(rng, rng.randint(40, 160))
            repeat = raw.index(raw[0], 1)
            assert raw[repeat] == raw[0] and raw[repeat] is not raw[0]
            text = parse_pstring(raw, alpha)
            idx = build_index(text)
            audit_index(idx)
            assert trees_equal(idx, naive_pph(text))
            aug = augment(idx)
            for q in range(12):
                m = rng.randint(1, 12)
                i = rng.randint(0, len(raw) - m)
                window = raw[i:i + m]
                if q % 2:  # a late mismatch inside a chain of single children
                    window[-1] = rng.choice(raw)
                # re-split from a new string: no object shared with the text
                p = parse_pstring((" " + " ".join(window)).split(), alpha)
                assert p.symbols[0] is not raw[i]
                want = naive_match(text, p)
                assert q % 2 or i + 1 in want
                assert match_pattern(idx, None, p) == want
                assert match_pattern(idx, aug, p) == want


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

    @pytest.mark.parametrize("pattern,k,calls", [
        ("aaxa", 3, 0),   # 3 * 4 - 6 = 6 label checks, n
        ("aaaax", 2, 1),  # 2 * 5 - 3 = 7 label checks, n + 1
    ])
    def test_bound_is_n_label_checks(self, augment_calls, pattern, k, calls):
        idx = build_index(parse_pstring("aaaaxa", AB_UVXY))
        p = parse_pstring(pattern, AB_UVXY)
        assert segment_walk(idx, prev_encode(p), 1).consumed_through == k
        assert match_pattern(idx, None, p) == naive_match(idx.text, p)
        assert len(augment_calls) == calls


@st.composite
def few_candidate_cases(draw):
    """A window of a random text: whole, with one symbol changed, or run
    past the text's end."""
    text = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=120))
    start = draw(st.integers(0, len(text) - 1))
    pattern = text[start:start + draw(st.integers(1, len(text) - start))]
    variant = draw(st.sampled_from(["window", "changed", "past-end"]))
    if variant == "changed":
        k = draw(st.integers(0, len(pattern) - 1))
        pattern = pattern[:k] + [draw(st.sampled_from(SYMBOLS))] + pattern[k + 1:]
    elif variant == "past-end":
        pattern = text[start:] + draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3))
    return text, pattern


@st.composite
def late_mismatch_cases(draw):
    """A window of a short-period text with one symbol of its second half
    changed, so many candidates pass the early segments."""
    block = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4))
    text = (block * 240)[:draw(st.integers(60, 240))]
    start = draw(st.integers(0, len(text) // 2))
    pattern = text[start:start + draw(st.integers(16, len(text) - start))]
    k = draw(st.integers(len(pattern) // 2, len(pattern) - 1))
    return text, pattern[:k] + [draw(st.sampled_from(SYMBOLS))] + pattern[k + 1:]


class TestFilterSwitch:
    """Once candidates times labels left is at most m, the filter stops
    walking segments and checks the rest of each window against the text."""

    @pytest.fixture
    def walks(self, monkeypatch):
        starts = []
        real = matching.segment_walk

        def counted(idx, prev_p, j, aug=None):
            starts.append(j)
            return real(idx, prev_p, j, aug)

        monkeypatch.setattr(matching, "segment_walk", counted)
        return starts

    @staticmethod
    def filtered(walks, text, pattern):
        """``_filtered_hits`` after the first descent, checked against
        ``naive_match``; returns (later segments walked, text labels read)."""
        idx, aug = build_augmented(text, AB_UVXY)
        p = parse_pstring(pattern, AB_UVXY)
        prev_p = prev_encode(p)
        first = segment_walk(idx, prev_p, 1)
        idx.prev_text = labels = CountingLabels(idx.prev_text)
        walks.clear()
        assert _filtered_hits(idx, aug, prev_p, first) == naive_match(idx.text, p)
        return len(walks), labels.reads

    def sides(self, walks, cases):
        """Queries that checked the text before any later segment, and
        queries that walked one, over 300 derandomized cases."""
        direct = walked = 0

        @settings(max_examples=300, derandomize=True, deadline=None)
        @given(case=cases)
        def check(case):
            nonlocal direct, walked
            segments, reads = self.filtered(walks, *case)
            if segments:
                walked += 1
            elif reads:  # only the direct checks read the text before a later segment
                direct += 1

        check()
        return direct, walked

    def test_few_candidates_switch_to_direct_checks(self, walks):
        direct, walked = self.sides(walks, few_candidate_cases())
        assert direct >= 30 and direct > 3 * walked

    def test_late_mismatch_keeps_the_filter(self, walks):
        _, walked = self.sides(walks, late_mismatch_cases())
        assert walked >= 30

    @pytest.mark.parametrize("pattern,walked", [
        ("aaax", 0),   # 2 candidates after 2 labels, m = 4: 2 * 2 = m
        ("aaaax", 1),  # 2 candidates after 2 labels, m = 5: 2 * 3 = m + 1
    ])
    def test_switch_bound(self, walks, pattern, walked):
        segments, _ = self.filtered(walks, "aaaaxa", pattern)
        assert segments == walked

    @pytest.mark.parametrize("block,start,stop,walked", [
        ("aab", 150, 270, False),   # switches before any later segment
        ("aabab", 20, 260, True),   # 43 candidates pass 4 later segments first
    ])
    def test_direct_checks_read_at_most_m_labels(self, walks, block, start, stop,
                                                 walked):
        # constants only: no label collapses to 0, so the filter itself
        # reads no text label and every read is a direct check
        text = list(block * (300 // len(block)))
        text[200] = "a" if text[200] == "b" else "b"
        segments, reads = self.filtered(walks, text, text[start:stop])
        assert bool(segments) == walked
        assert 0 < reads <= stop - start


AB_XYZ = make_alphabet(list("ab"), list("xyz"))
YVU = make_alphabet([], list("yvu"))
# period 14 after its first x and y, so every later x or y refers back 14
# labels: in a window that starts at an "a", its first x and y refer back
# past the window in the text, but are 0s of a pattern
TWO_PARAMS = ["x", "y"] + list("aaaxaaaaaaaaay") * 40


class TestChainJump:
    """A whole pattern's walk over an augmentation goes down a run of
    single-child nodes that holds the rest of the pattern with one slice
    comparison; it must end where the label-by-label walk ends. A compared
    run is a slice of ``prev_text``, which the walk takes for nothing else."""

    def test_equals_the_plain_walk_from_every_start(self):
        """Periodic texts over ab/xyz, some with symbols changed; renamed
        windows, windows with a symbol changed, and windows with a random
        tail that runs past their chain's end, each suffix walked as a
        whole pattern, the only walk that jumps; some of the runs it
        compares hold the rest of the pattern, others differ."""
        rng = random.Random(61)
        walks = jumps = differ = 0
        for _ in range(60):
            n = rng.randint(20, 300)
            block = rng.choices("abxyz", k=rng.randint(1, 8))
            text = (block * n)[:n]
            for _ in range(rng.randint(0, 3)):
                text[rng.randrange(n)] = rng.choice("abxyz")
            idx, aug = build_augmented(text, AB_XYZ)
            idx.prev_text = labels = CountingLabels(idx.prev_text)
            for kind in ("renamed", "changed", "tail") * 2:
                start = rng.randrange(n)
                pattern = text[start:start + rng.randint(1, n - start)]
                names = dict(zip("xyz", rng.sample("xyz", 3)))
                pattern = [names.get(c, c) for c in pattern]
                if kind == "changed":
                    pattern[rng.randrange(len(pattern))] = rng.choice("abxyz")
                elif kind == "tail":
                    pattern += rng.choices("abxyz", k=rng.randint(1, 20))
                p = parse_pstring(pattern, AB_XYZ)
                for j in range(len(pattern)):
                    prev_p = prev_encode(p[j:])
                    runs = len(labels.slices)
                    seg = segment_walk(idx, prev_p, 1, aug)
                    assert seg == segment_walk(idx, prev_p, 1), (
                        "".join(text), "".join(pattern), j)
                    walks += 1
                    if len(labels.slices) > runs:
                        jumps += 1
                        differ += seg.consumed_through < len(prev_p)
                assert match_pattern(idx, aug, p) == naive_match(idx.text, p)
        # 17,560 walks compare 3,407 runs, 1,601 of them differing
        assert walks > 5_000 and jumps > walks // 6 and differ > jumps // 3

    @pytest.mark.parametrize("pattern", [
        TWO_PARAMS[16:56],
        [{"x": "y", "y": "z"}.get(c, c) for c in TWO_PARAMS[16:56]],
    ], ids=["window", "renamed"])
    def test_labels_collapsing_inside_a_chain(self, pattern):
        """The window's first x and y, 3 and 13 labels in, are 0s of the
        pattern whose text labels refer back past the window; the jump
        that covers them must go on. A whole pattern's walk records no
        zero labels: its labels are the window's own encoding."""
        idx, aug = build_augmented(TWO_PARAMS, AB_XYZ)
        idx.prev_text = labels = CountingLabels(idx.prev_text)
        p = parse_pstring(pattern, AB_XYZ)
        prev_p = prev_encode(p)
        seg = segment_walk(idx, prev_p, 1, aug)
        assert labels.slices
        assert seg == segment_walk(idx, prev_p, 1)
        assert seg.consumed_through == len(pattern)
        assert seg.zero_positions == []
        offsets = [3, 13]
        assert [prev_p[k] for k in offsets] == [0, 0]
        assert [idx.prev_text[16 + k] for k in offsets] == [14, 14]
        assert match_pattern(idx, aug, p) == naive_match(idx.text, p)

    def test_long_walk_reads_few_children(self):
        """A 1,000-label whole-encoding walk on a period-5 heap 1,043 deep
        reads ``children`` at most 4 times: the root's table, at most one
        more branching node, and the top of the chain that it then jumps
        down. The label-by-label walk reads it 1,000 times."""
        text = list("xaxyb") * 1250
        idx = build_index(parse_pstring(text, AB_XYZ))
        aug = augment(idx)
        assert idx.stats().max_depth == 1043
        idx.children = children = CountingLabels(idx.children)
        for start in (0, 1, 2, 3, 4, 2000):
            window = [{"x": "z", "y": "x"}.get(c, c) for c in text[start:start + 1000]]
            prev_p = prev_encode(parse_pstring(window, AB_XYZ))
            children.reads = 0
            seg = segment_walk(idx, prev_p, 1, aug)
            assert seg.consumed_through == 1000
            assert children.reads <= 4

    def test_no_jump_where_only_the_size_test_passes(self):
        """Node 1 has one child and a subtree of 9 nodes, and the pattern
        has 8 labels left there. The node 8 numbers below it, 13, has a
        subtree of 9 - 8 nodes but lies at depth 7, not 9: node 1's run
        branches before the pattern ends. So the rest is not on one run,
        and the walk must step; a size test alone would jump to 13 and
        claim all 9 labels, since the pattern is 13's own text window."""
        text = "abababababababababbba"
        idx, aug = build_augmented(text, AB_XYZ)
        prev_p = prev_encode(parse_pstring(text[12:], AB_XYZ))
        assert walk(idx, "a") == 1 and list(idx.child_map(1)) == ["b"]
        w = aug.order[aug.post[1] - 8]
        assert (w, aug.subtree_size[1], aug.subtree_size[w], idx.depths[w]) == (13, 9, 1, 7)
        idx.prev_text = labels = CountingLabels(idx.prev_text)
        seg = segment_walk(idx, prev_p, 1, aug)
        assert labels.slices == []
        assert seg == segment_walk(idx, prev_p, 1) == (1, 13, 7, [])

    def test_no_slice_where_the_pattern_leaves_the_first_path(self):
        """The root's first path in preorder reaches depth 11 at node 20,
        but node 2 on it branches, and the pattern, the text's first 11
        symbols, takes node 2's other child. A depth test alone would
        compare the pattern with node 20's window, find a difference and
        step all 11 labels; the walk must step to node 3 instead, whose run
        holds the last 8 labels, and compare those."""
        text = "xzxy" * 7 + "xz"
        idx, aug = build_augmented(text, AB_XYZ)
        prev_p = prev_encode(parse_pstring(text[:11], AB_XYZ))
        w = aug.order[aug.post[ROOT] - 11]
        assert (w, idx.depths[w], len(idx.child_map(2))) == (20, 11, 2)
        assert segment_walk(idx, prev_p, 1) == (1, 19, 11, [])
        idx.prev_text = labels = CountingLabels(idx.prev_text)
        assert segment_walk(idx, prev_p, 1, aug) == (1, 19, 11, [])
        assert labels.slices == [8] and labels.reads == 10

    @pytest.mark.parametrize("start,m,k", [
        (0, 300, 9), (1, 300, 150), (2, 300, 299), (700, 40, 20),
    ])
    def test_run_that_differs_is_stepped(self, start, m, k):
        """A renamed window of ``xaxyb`` * 400 with symbol k changed lies on
        one run, so the walk compares it once, then steps to the label
        that differs: at most 2 t labels of ``prev_text`` for the t labels
        compared. A walk that tested again at every step would read about
        t^2 / 2."""
        text = list("xaxyb") * 400
        idx = build_index(parse_pstring(text, AB_XYZ))
        aug = augment(idx)
        window = [{"x": "z", "y": "x"}.get(c, c) for c in text[start:start + m]]
        window[k] = "b" if window[k] != "b" else "a"
        prev_p = prev_encode(parse_pstring(window, AB_XYZ))
        plain = segment_walk(idx, prev_p, 1)
        idx.prev_text = labels = CountingLabels(idx.prev_text)
        seg = segment_walk(idx, prev_p, 1, aug)
        assert seg == plain and seg.consumed_through == k
        [t] = labels.slices
        assert t >= matching.JUMP and labels.reads <= 2 * t


class TestWorkCounts:
    """The query's work as exact read counts. Over an augmentation, on the
    late-mismatch family and on the periodic windows, ``prev_text`` and
    ``children`` are each read at most occ + 2 m + C times, where a slice
    counts its length; C is the most that was measured on these families,
    rounded up. Together they can reach about 3 m: a run that differs
    at its last label costs its slice and then two reads per label stepped.
    The most measured is 25, on ``prev_text`` in a late-mismatch case with
    m = 51: its zero labels are re-checked for each candidate. That bound
    does not hold for every input: the zero labels of a segment are
    re-checked per surviving candidate, so on all-parameter texts, where
    nearly every candidate survives, ``prev_text`` reads grow with the
    candidates; ``test_zero_label_rechecks`` bounds them by 2 occ + 2 m
    instead. From the bare heap, the direct checks of path
    positions read at most n labels, the limit that the rule in
    ``match_pattern`` sets."""

    C = 32

    @staticmethod
    def reads(idx, aug, p):
        """The answer, and how often ``prev_text`` and ``children`` were read."""
        prev_text, children = idx.prev_text, idx.children
        idx.prev_text = labels = CountingLabels(prev_text)
        idx.children = kids = CountingLabels(children)
        try:
            hits = match_pattern(idx, aug, p)
        finally:
            idx.prev_text, idx.children = prev_text, children
        return hits, labels.reads, kids.reads

    @classmethod
    def counted(cls, idx, aug, p):
        hits, labels, kids = cls.reads(idx, aug, p)
        bound = len(hits) + 2 * len(p) + cls.C
        assert labels <= bound and kids <= bound
        return hits

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=late_mismatch_cases())
    def test_late_mismatch(self, case):
        text, pattern = case
        idx = build_index(parse_pstring(text, AB_UVXY))
        p = parse_pstring(pattern, AB_UVXY)
        assert self.counted(idx, augment(idx), p) == naive_match(idx.text, p)

    def test_periodic_windows(self):
        """Renamed windows of ``xaxyb`` * 1,250, whole or with one symbol
        changed, so that the run they lie on differs first, halfway or
        last."""
        text = list("xaxyb") * 1250
        idx = build_index(parse_pstring(text, AB_XYZ))
        aug = augment(idx)
        for m in (16, 64, 256, 1024):
            for start in (0, 1, 2, 3, 4, 2000):
                for k in (None, 0, m // 2, m - 1):
                    window = [{"x": "z", "y": "x"}.get(c, c) for c in text[start:start + m]]
                    if k is not None:
                        window[k] = "b" if window[k] != "b" else "a"
                    p = parse_pstring(window, AB_XYZ)
                    hits = self.counted(idx, aug, p)
                    assert (start + 1 in hits) == (k is None)

    @pytest.mark.parametrize("reps,start,m,occ", [
        (74, 1, 114, 109),
        (1280, 0, 1923, 1918),
    ], ids=["yvu-74", "yvu-1280"])
    def test_zero_label_rechecks(self, reps, start, m, occ):
        """All-parameter ``yvu`` texts, m just above the heap depth (111 and
        1,920), so that nearly every candidate survives into the last
        segment and has its zero labels re-checked there: ``prev_text`` is
        read 2 occ + 2 m - 5 times, beyond occ + 2 m + C, and ``children``
        m + 1 times."""
        text = "yvu" * reps
        idx = build_index(parse_pstring(text, YVU))
        p = parse_pstring(text[start:start + m], YVU)
        hits, labels, kids = self.reads(idx, augment(idx), p)
        assert hits == naive_match(idx.text, p) and len(hits) == occ
        assert labels <= 2 * occ + 2 * m
        assert kids <= occ + 2 * m + self.C

    def test_bare_heap_reads_at_most_n_labels(self, monkeypatch):
        real = matching._direct_hits
        reads: list[int] = []

        def direct(idx, prev_p, walk):
            prev_text = idx.prev_text
            idx.prev_text = labels = CountingLabels(prev_text)
            try:
                return real(idx, prev_p, walk)
            finally:
                idx.prev_text = prev_text
                reads.append(labels.reads)
                assert labels.reads <= idx.n

        monkeypatch.setattr(matching, "_direct_hits", direct)
        near = 0  # queries whose direct checks read over n / 2 labels
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(10, 120)
            text = (rng.choices(SYMBOLS, k=rng.randint(1, 4)) * n)[:n]
            start = rng.randrange(n)
            pattern = text[start:start + rng.randint(1, 24)]
            pattern[-1] = rng.choice(SYMBOLS)  # often a late mismatch
            idx = build_index(parse_pstring(text, AB_UVXY))
            p = parse_pstring(pattern, AB_UVXY)
            reads.clear()
            assert match_pattern(idx, None, p) == naive_match(idx.text, p)
            near += bool(reads) and reads[0] > idx.n // 2
        assert near >= 30  # 47 of the 300
