"""Tests for the brute-force reference implementations."""

from __future__ import annotations

import random

import pytest

from ppheap.coding import make_alphabet, parse_pstring, prev_encode
from ppheap.oracle import (
    naive_match,
    naive_mrp,
    naive_pph,
    naive_sequence_hash_tree,
    trees_equal,
)

from conftest import build_audited, random_text


class TestSequenceHashTree:
    def test_classic_six_strings(self):
        """Known 7-node shape for (aab, ab, bba, baa, aaba, baaba)."""
        words = ["aab", "ab", "bba", "baa", "aaba", "baaba"]
        root = naive_sequence_hash_tree(tuple(w) for w in words)
        assert root.node_count() == 7
        a = root.children["a"]
        b = root.children["b"]
        assert a.positions == [1]
        assert a.children["b"].positions == [2]
        assert b.positions == [3]
        assert b.children["a"].positions == [4]
        assert a.children["a"].positions == [5]
        assert b.children["a"].children["a"].positions == [6]

    def test_empty_input(self):
        root = naive_sequence_hash_tree([])
        assert root.node_count() == 1
        assert root.positions == []

    def test_repeated_string_collapses(self):
        root = naive_sequence_hash_tree([(0,), (0,), (0,)])
        assert root.node_count() == 2
        assert root.children[0].positions == [1, 2, 3]

    def test_at_most_one_node_per_insertion(self):
        rng = random.Random(51)
        for _ in range(20):
            words = [tuple(rng.choices("ab", k=rng.randint(1, 6)))
                     for _ in range(rng.randint(0, 15))]
            root = naive_sequence_hash_tree(words)
            assert root.node_count() <= len(words) + 1


class TestNaivePph:
    def test_single_symbol(self, a_xy):
        root = naive_pph(parse_pstring("x", a_xy))
        assert root.node_count() == 2
        assert root.children[0].positions == [1]

    def test_at_most_two_positions_per_node(self, ab_uvxy):
        rng = random.Random(52)
        for _ in range(30):
            raw = random_text(rng, ab_uvxy, 48)
            root = naive_pph(parse_pstring(raw, ab_uvxy))
            stack = [root]
            while stack:
                node = stack.pop()
                assert len(node.positions) <= 2
                stack.extend(node.children.values())
            assert root.node_count() <= len(raw) + 1


class TestNaiveMatch:
    def test_fixture(self, ab_uvxy):
        t = parse_pstring("uvaubuavbv", ab_uvxy)
        p = parse_pstring("xayby", ab_uvxy)
        assert naive_match(t, p) == [2, 6]

    def test_known_answer(self, a_xy):
        t = parse_pstring("xaxyxyxyyaxyxy", a_xy)
        assert naive_match(t, parse_pstring("xyxy", a_xy)) == [3, 4, 5, 11]

    def test_self_match(self, ab_uvxy):
        rng = random.Random(53)
        for _ in range(20):
            raw = random_text(rng, ab_uvxy, 24, min_n=1)
            w = parse_pstring(raw, ab_uvxy)
            assert 1 in naive_match(w, w)

    def test_empty_pattern_rejected(self, ab_uvxy):
        t = parse_pstring("uv", ab_uvxy)
        with pytest.raises(ValueError):
            naive_match(t, parse_pstring("", ab_uvxy))

    def test_invariant_under_renaming(self, ab_uvxy):
        rng = random.Random(54)
        params = list(ab_uvxy.parameters)
        for _ in range(30):
            raw_t = random_text(rng, ab_uvxy, 32, min_n=1)
            raw_p = random_text(rng, ab_uvxy, 4, min_n=1)
            renamed = params[:]
            rng.shuffle(renamed)
            table = dict(zip(params, renamed))
            for new_t, new_p in (
                ([table.get(c, c) for c in raw_t], raw_p),
                (raw_t, [table.get(c, c) for c in raw_p]),
                ([table.get(c, c) for c in raw_t], [table.get(c, c) for c in raw_p]),
            ):
                assert (naive_match(parse_pstring(new_t, ab_uvxy),
                                    parse_pstring(new_p, ab_uvxy))
                        == naive_match(parse_pstring(raw_t, ab_uvxy),
                                       parse_pstring(raw_p, ab_uvxy)))


class TestNaiveMrp:
    def test_secondary_reaches_itself(self, ab_uvxy):
        rng = random.Random(55)
        for _ in range(20):
            raw = random_text(rng, ab_uvxy, 32)
            idx = build_audited(raw, ab_uvxy)
            for v, pos in idx.secondaries.items():
                assert naive_mrp(idx, pos) == v

    def test_last_position_reaches_depth_one(self, ab_uvxy):
        rng = random.Random(56)
        for _ in range(20):
            raw = random_text(rng, ab_uvxy, 32, min_n=1)
            idx = build_audited(raw, ab_uvxy)
            v = naive_mrp(idx, idx.n)
            assert idx.depths[v] == 1
            assert idx.path_label(v) == prev_encode(idx.text[idx.n - 1:])


class TestTreesEqual:
    def test_build_matches_oracle(self, ab_uvxy):
        idx = build_audited("uvaubuavbv", ab_uvxy)
        assert trees_equal(idx, naive_pph(idx.text))

    def test_p_matching_texts_have_equal_trees(self, a_xy):
        idx = build_audited("x", a_xy)
        other = parse_pstring("y", a_xy)
        assert trees_equal(idx, naive_pph(other))

    def test_structurally_different_texts(self, a_xy):
        idx = build_audited("x", a_xy)
        other = parse_pstring("a", a_xy)
        assert not trees_equal(idx, naive_pph(other))

    def test_same_shape_other_positions(self):
        # both heaps are a root with the children a and b, but "a" holds
        # position 1 in one and position 2 in the other
        ab = make_alphabet(["a", "b"], [])
        idx = build_audited("ab", ab)
        assert not trees_equal(idx, naive_pph(parse_pstring("ba", ab)))
