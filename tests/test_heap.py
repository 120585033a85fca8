"""Tests for online index construction."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ppheap import (
    BOTTOM,
    Builder,
    InvalidNode,
    ROOT,
    UnknownSymbol,
    audit_index,
    augment,
    build_index,
    make_alphabet,
    match_pattern,
    norm,
    parse_pstring,
    prev_encode,
)
from ppheap.oracle import (
    naive_match,
    naive_mrp,
    naive_pph,
    naive_sequence_hash_tree,
    trees_equal,
)

from conftest import build_audited, random_text


class TestBuilderBasics:
    def test_fresh_builder(self, a_xy):
        b = Builder(a_xy)
        assert b.size == 0
        assert b.active_position == 1
        assert b.active_node == ROOT

    def test_empty_text(self, a_xy):
        idx = Builder(a_xy).finalize()
        assert idx.node_count == 1
        assert idx.stats() == (0, 1, 0, 0)
        assert idx.suffixes[ROOT] == BOTTOM
        audit_index(idx)

    def test_single_parameter(self, a_xy):
        idx = build_audited("x", a_xy)
        assert idx.stats() == (1, 2, 0, 1)
        v = idx.child(ROOT, 0)
        assert v is not None
        assert idx.positions_at(v) == [1]
        assert v not in idx.secondaries

    def test_two_equal_parameters(self, a_xy):
        # oracle-derived frozen shape: one child of the root holding both
        # positions, no second node
        idx = build_audited("xx", a_xy)
        assert idx.node_count == 2
        v = idx.child(ROOT, 0)
        assert idx.positions_at(v) == [1, 2]
        assert idx.secondaries[v] == 2
        assert trees_equal(idx, naive_pph(idx.text))

    def test_new_constant_becomes_root_child(self, a_xy):
        idx = build_audited("xxa", a_xy)
        assert idx.child(ROOT, "a") is not None

    def test_push_after_finalize_rejected(self, a_xy):
        b = Builder(a_xy)
        b.finalize()
        with pytest.raises(RuntimeError):
            b.push("x")

    def test_push_foreign_symbol_rejected(self, a_xy):
        b = Builder(a_xy)
        b.push("x")
        with pytest.raises(UnknownSymbol) as info:
            b.push("q")
        assert (info.value.symbol, info.value.position) == ("q", 2)
        assert b.size == 1

    def test_extend_stops_at_undeclared_symbol(self, ab_uvxy):
        """The prefix before an undeclared symbol stays consumed, nothing after."""
        b = Builder(ab_uvxy)
        with pytest.raises(UnknownSymbol) as info:
            b.extend(iter("uvauzbv"))
        assert (info.value.symbol, info.value.position) == ("z", 5)
        assert b.size == 4
        snap = b.snapshot()
        audit_index(snap)
        assert trees_equal(snap, naive_pph(parse_pstring("uvau", ab_uvxy)))
        b.push("b")
        b.extend("uavbv")
        idx = b.finalize()
        audit_index(idx)
        text = parse_pstring("uvaubuavbv", ab_uvxy)
        assert idx.text == text
        assert idx.prev_text == prev_encode(text)
        assert trees_equal(idx, naive_pph(text))


class TestInlineEncoding:
    """push() prev-encodes each symbol as it arrives."""

    def test_first_labels(self, ab_uvxy):
        b = Builder(ab_uvxy)
        b.extend("uvu")
        assert b.snapshot().prev_text == (0, 0, 2)

    def test_constant_does_not_touch_history(self, ab_uvxy):
        # the constant takes a position but no parameter's last occurrence
        b = Builder(ab_uvxy)
        b.extend("uau")
        assert b.snapshot().prev_text == (0, "a", 2)

    def test_streaming_matches_batch(self, ab_uvxy):
        w = parse_pstring("uvuvauuvb", ab_uvxy)
        b = Builder(ab_uvxy)
        got = []
        for s in w:
            b.push(s)
            got.append(b.snapshot().prev_text[-1])
        assert tuple(got) == prev_encode(w)

    def test_streaming_matches_batch_random(self, ab_uvxy):
        rng = random.Random(15)
        for _ in range(50):
            w = parse_pstring(random_text(rng, ab_uvxy, 50), ab_uvxy)
            b = Builder(ab_uvxy)
            b.extend(w)
            assert b.snapshot().prev_text == prev_encode(w)


class TestActivePosition:
    def test_pending_positions_promoted(self, a_xy):
        """Adding one symbol turns stuck pending positions into primaries."""
        b = Builder(a_xy)
        b.extend(parse_pstring("xaxyyxyx", a_xy))
        assert b.active_position == 6
        before = b.snapshot()
        assert sorted(before.secondaries.values()) == [6, 7, 8]

        b.push("x")
        assert b.active_position == 8
        after = b.snapshot()
        assert sorted(after.secondaries.values()) == [8, 9]
        # 6 and 7 now sit at their own nodes as primaries
        primaries = {after.positions_at(v)[0] for v in range(1, after.node_count)}
        assert {6, 7} <= primaries
        assert trees_equal(after, naive_pph(after.text))

    def test_primaries_are_exactly_below_active(self, ab_uvxy):
        rng = random.Random(21)
        for _ in range(20):
            raw = random_text(rng, ab_uvxy, 32)
            b = Builder(ab_uvxy)
            for s in parse_pstring(raw, ab_uvxy):
                b.push(s)
                snap = b.snapshot()
                stored = {snap.positions_at(v)[0] for v in range(1, snap.node_count)}
                assert stored == set(range(1, b.active_position))


class TestOnlineOfflineAgreement:
    def test_example_text_stepwise(self, ab_uvxy):
        b = Builder(ab_uvxy)
        for s in parse_pstring("uvuvauuvb", ab_uvxy):
            b.push(s)
            snap = b.snapshot()
            audit_index(snap)
            assert trees_equal(snap, naive_pph(snap.text))

    def test_longer_example_text(self, a_xy):
        idx = build_audited("xaxyxyxyyaxyx", a_xy)
        assert trees_equal(idx, naive_pph(idx.text))

    def test_random_texts(self, ab_uvxy):
        rng = random.Random(22)
        for _ in range(60):
            raw = random_text(rng, ab_uvxy, 64)
            idx = build_audited(raw, ab_uvxy)
            assert trees_equal(idx, naive_pph(idx.text))

    def test_snapshot_keeps_builder_alive(self, a_xy):
        b = Builder(a_xy)
        b.extend(parse_pstring("xyx", a_xy))
        first = b.snapshot()
        b.extend(parse_pstring("ay", a_xy))
        second = b.finalize()
        assert first.n == 3
        assert second.n == 5
        assert trees_equal(first, naive_pph(first.text))
        assert trees_equal(second, naive_pph(second.text))


class TestLookups:
    def test_root_child_present(self, ab_uvxy):
        idx = build_audited("uvuvauuvb", ab_uvxy)
        assert idx.child(ROOT, 0) is not None

    def test_absent_label(self):
        alpha = make_alphabet(list("abc"), list("uv"))
        idx = build_audited("uvaubuavbv", alpha)
        assert idx.child(ROOT, "c") is None  # c never occurs in the text
        assert idx.child(ROOT, 99) is None

    def test_chained_lookup(self, a_xy):
        idx = build_audited("xaxyxyxyyaxyxy", a_xy)
        v = idx.node_at((0, 0, 2, 2))
        assert v is not None
        assert idx.path_label(v) == (0, 0, 2, 2)

    def test_invalid_node(self, a_xy):
        idx = build_audited("x", a_xy)
        with pytest.raises(InvalidNode):
            idx.child(99, 0)
        with pytest.raises(InvalidNode):
            idx.path_label(-3)


class TestPathLabels:
    def test_root_is_empty(self, a_xy):
        idx = build_audited("x", a_xy)
        assert idx.path_label(ROOT) == ()

    def test_depth_one(self, a_xy):
        idx = build_audited("x", a_xy)
        v = idx.child(ROOT, 0)
        assert idx.path_label(v) == (0,)

    def test_secondary_spans_whole_suffix(self, ab_uvxy):
        rng = random.Random(23)
        for _ in range(30):
            raw = random_text(rng, ab_uvxy, 48)
            idx = build_audited(raw, ab_uvxy)
            for v, pos in idx.secondaries.items():
                assert idx.path_label(v) == prev_encode(idx.text[pos - 1:])


class TestStats:
    def test_empty(self, a_xy):
        assert Builder(a_xy).finalize().stats() == (0, 1, 0, 0)

    def test_single(self, a_xy):
        assert build_audited("x", a_xy).stats() == (1, 2, 0, 1)

    def test_count_identity(self, ab_uvxy):
        rng = random.Random(24)
        for _ in range(20):
            raw = random_text(rng, ab_uvxy, 64)
            st = build_audited(raw, ab_uvxy).stats()
            assert st.node_count == st.n + 1 - st.double_count
            assert st.node_count <= st.n + 1


class TestInvariants:
    def test_suffix_pointer_targets_exist_by_label(self, ab_uvxy):
        """The drop-first re-normalized label string is itself a path."""
        rng = random.Random(25)
        for _ in range(15):
            raw = random_text(rng, ab_uvxy, 40)
            idx = build_audited(raw, ab_uvxy)
            for v in range(1, idx.node_count):
                x = idx.path_label(v)
                y = tuple(norm(x[k + 1], k) for k in range(len(x) - 1))
                assert idx.node_at(y) == idx.suffixes[v]

    def test_suffix_traversal_bound(self, ab_uvxy):
        rng = random.Random(26)
        for _ in range(15):
            raw = random_text(rng, ab_uvxy, 64)
            b = Builder(ab_uvxy)
            b.extend(parse_pstring(raw, ab_uvxy))
            assert b.suffix_steps <= 2 * max(1, len(raw))
            # each suffix-pointer step hangs exactly one new node
            assert b.suffix_steps == b.finalize().node_count - 1


class TestDegenerate:
    def test_constant_only_equals_plain_suffix_tree(self):
        alpha = make_alphabet(list("ab"), [])
        idx = build_audited("abbaabaabaabab", alpha)
        plain = [idx.text.symbols[i:] for i in range(idx.n)]
        assert trees_equal(idx, naive_sequence_hash_tree(plain))

    def test_random_constant_only(self):
        alpha = make_alphabet(list("abc"), [])
        rng = random.Random(27)
        for _ in range(25):
            raw = random_text(rng, alpha, 48)
            idx = build_audited(raw, alpha)
            plain = [tuple(raw[i:]) for i in range(len(raw))]
            assert trees_equal(idx, naive_sequence_hash_tree(plain))
            # with no parameters the encoding is the identity
            assert prev_encode(idx.text) == tuple(raw)

    def test_all_parameters(self):
        alpha = make_alphabet([], ["x", "y"])
        rng = random.Random(28)
        for _ in range(25):
            raw = random_text(rng, alpha, 32)
            idx = build_audited(raw, alpha)
            assert trees_equal(idx, naive_pph(idx.text))


def test_build_index_convenience(ab_uvxy):
    text = parse_pstring("uvaubuavbv", ab_uvxy)
    idx = build_index(text)
    audit_index(idx)
    assert idx.n == 10
    assert trees_equal(idx, naive_pph(text))


class BuilderMachine(RuleBasedStateMachine):
    """Random push / rejected push / snapshot sequences over constants {a},
    parameters {x, y}, every snapshot checked against the oracle."""

    alphabet = make_alphabet(["a"], ["x", "y"])

    def __init__(self):
        super().__init__()
        self.builder = Builder(self.alphabet)
        self.raw: list[str] = []

    @rule(sym=st.sampled_from("axy"))
    def push(self, sym):
        self.builder.push(sym)
        self.raw.append(sym)

    @rule(sym=st.sampled_from(["b", "z", "xy", ""]))
    def push_undeclared(self, sym):
        with pytest.raises(UnknownSymbol) as info:
            self.builder.push(sym)
        assert (info.value.symbol, info.value.position) == (sym, len(self.raw) + 1)

    @rule(pattern=st.lists(st.sampled_from("axy"), min_size=1, max_size=6))
    def snapshot(self, pattern):
        snap = self.builder.snapshot()
        text = parse_pstring(self.raw, self.alphabet)
        assert snap.text == text
        audit_index(snap)
        assert trees_equal(snap, naive_pph(text))
        assert snap.prev_text == prev_encode(text)
        aug = augment(snap)
        for i in range(1, snap.n + 1):
            assert aug.mrp[i - 1] == naive_mrp(snap, i)
        p = parse_pstring(pattern, self.alphabet)
        assert match_pattern(snap, aug, p) == naive_match(text, p)

    @invariant()
    def size_counts_accepted_pushes(self):
        assert self.builder.size == len(self.raw)


TestBuilderMachine = BuilderMachine.TestCase
TestBuilderMachine.settings = settings(
    max_examples=100, stateful_step_count=40, derandomize=True, deadline=None)
