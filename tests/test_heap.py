"""Tests for online index construction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ppheap.augment import augment
from ppheap.coding import make_alphabet, norm, parse_pstring, prev_encode
from ppheap.errors import InvalidNode, StructuralError, UnknownSymbol
from ppheap.heap import BOTTOM, ROOT, Builder, PPHIndex, audit_index, build_index
from ppheap.matching import match_pattern
from ppheap.oracle import (
    naive_match,
    naive_mrp,
    naive_pph,
    naive_sequence_hash_tree,
    trees_equal,
)

from conftest import build_audited, check_preorder, random_text, token_text, walk


class TestBuilderBasics:
    def test_fresh_builder(self, a_xy):
        snap = Builder(a_xy).snapshot()
        assert snap.n == 0
        assert snap.node_count == 1  # active position 1: nothing placed yet

    def test_empty_text(self, a_xy):
        idx = Builder(a_xy).finalize()
        assert idx.node_count == 1
        assert idx.stats() == (0, 1, 0, 0)
        assert idx.suffixes[ROOT] == BOTTOM
        audit_index(idx)

    def test_single_parameter(self, a_xy):
        idx = build_audited("x", a_xy)
        assert idx.stats() == (1, 2, 0, 1)
        v = walk(idx, (0,))
        assert v is not None
        assert idx.positions_at(v) == [1]
        assert v not in idx.secondaries

    def test_two_equal_parameters(self, a_xy):
        # oracle-derived frozen shape: one child of the root holding both
        # positions, no second node
        idx = build_audited("xx", a_xy)
        assert idx.node_count == 2
        v = walk(idx, (0,))
        assert idx.positions_at(v) == [1, 2]
        assert idx.secondaries[v] == 2
        assert trees_equal(idx, naive_pph(idx.text))

    def test_new_constant_becomes_root_child(self, a_xy):
        idx = build_audited("xxa", a_xy)
        assert walk(idx, ("a",)) is not None

    def test_push_after_finalize_rejected(self, a_xy):
        b = Builder(a_xy)
        b.finalize()
        with pytest.raises(RuntimeError):
            b.extend(("x",))

    def test_snapshot_after_finalize_rejected(self, a_xy):
        b = Builder(a_xy)
        b.extend(("x",))
        b.finalize()
        with pytest.raises(RuntimeError):
            b.snapshot()

    def test_push_foreign_symbol_rejected(self, a_xy):
        b = Builder(a_xy)
        b.extend(("x",))
        with pytest.raises(UnknownSymbol) as info:
            b.extend(("q",))
        assert (info.value.symbol, info.value.position) == ("q", 2)
        assert b.snapshot().n == 1

    def test_extend_stops_at_undeclared_symbol(self, ab_uvxy):
        """The prefix before an undeclared symbol stays consumed, nothing after."""
        b = Builder(ab_uvxy)
        with pytest.raises(UnknownSymbol) as info:
            b.extend(iter("uvauzbv"))
        assert (info.value.symbol, info.value.position) == ("z", 5)
        snap = b.snapshot()
        assert snap.n == 4
        audit_index(snap)
        assert trees_equal(snap, naive_pph(parse_pstring("uvau", ab_uvxy)))
        b.extend(("b",))
        b.extend("uavbv")
        idx = b.finalize()
        audit_index(idx)
        text = parse_pstring("uvaubuavbv", ab_uvxy)
        assert idx.text == text
        assert idx.prev_text == prev_encode(text)
        assert trees_equal(idx, naive_pph(text))


class TestInlineEncoding:
    """extend() prev-encodes each symbol as it arrives."""

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
            b.extend((s,))
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
        before = b.snapshot()
        assert before.node_count == 6  # the active position
        assert sorted(before.secondaries.values()) == [6, 7, 8]

        b.extend(("x",))
        after = b.snapshot()
        assert after.node_count == 8
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
                b.extend((s,))
                snap = b.snapshot()
                stored = {snap.positions_at(v)[0] for v in range(1, snap.node_count)}
                assert stored == set(range(1, snap.node_count))


class TestOnlineOfflineAgreement:
    def test_example_text_stepwise(self, ab_uvxy):
        b = Builder(ab_uvxy)
        for s in parse_pstring("uvuvauuvb", ab_uvxy):
            b.extend((s,))
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
        assert walk(idx, (0,)) is not None

    def test_absent_label(self):
        alpha = make_alphabet(list("abc"), list("uv"))
        idx = build_audited("uvaubuavbv", alpha)
        assert walk(idx, ("c",)) is None  # c never occurs in the text
        assert walk(idx, (99,)) is None

    def test_chained_lookup(self, a_xy):
        idx = build_audited("xaxyxyxyyaxyxy", a_xy)
        v = walk(idx, (0, 0, 2, 2))
        assert v is not None
        assert idx.path_label(v) == (0, 0, 2, 2)

    def test_invalid_node(self, a_xy):
        idx = build_audited("x", a_xy)
        with pytest.raises(InvalidNode):
            idx.positions_at(99)
        with pytest.raises(InvalidNode):
            idx.path_label(-3)


class TestPathLabels:
    def test_root_is_empty(self, a_xy):
        idx = build_audited("x", a_xy)
        assert idx.path_label(ROOT) == ()

    def test_depth_one(self, a_xy):
        idx = build_audited("x", a_xy)
        v = walk(idx, (0,))
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
                assert walk(idx, y) == idx.suffixes[v]

    def test_suffix_traversal_bound(self, ab_uvxy):
        rng = random.Random(26)
        for _ in range(15):
            raw = random_text(rng, ab_uvxy, 64)
            b = Builder(ab_uvxy)
            b.extend(parse_pstring(raw, ab_uvxy))
            assert b.suffix_steps <= 2 * max(1, len(raw))
            # each suffix-pointer step hangs exactly one new node
            assert b.suffix_steps == b.finalize().node_count - 1


def _frozen_children(idx):
    return [list(e.items()) if type(e) is dict else e for e in idx.children]


class TestChildrenLayout:
    """A leaf stores None, a node with one child that child's id, and only
    a node with two or more children a dict."""

    def _texts(self):
        rng = random.Random(29)
        ab_uvxy = make_alphabet(list("ab"), list("uvxy"))
        one_param = make_alphabet([], ["x"])
        for _ in range(10):
            yield random_text(rng, ab_uvxy, 200, 100), ab_uvxy
            yield rng.choices("x", k=rng.randint(50, 300)), one_param
            yield token_text(rng, rng.randint(100, 300))
        periodic = make_alphabet(["a", "b"], ["x", "y", "z"])
        yield list("xaybzxb" * 60), periodic
        yield list("ab" * 100), make_alphabet(list("ab"), [])

    def test_entries_are_canonical(self):
        shapes = set()
        for raw, alpha in self._texts():
            idx = build_audited(raw, alpha)
            kid_count = [0] * idx.node_count
            for v in range(1, idx.node_count):
                kid_count[idx.parents[v]] += 1
            dicts = 0
            for v, kids in enumerate(idx.children):
                if kids is None:
                    assert kid_count[v] == 0
                    shapes.add("leaf")
                elif type(kids) is int:
                    assert kid_count[v] == 1 and idx.parents[kids] == v
                    shapes.add("single")
                else:
                    assert type(kids) is dict and len(kids) == kid_count[v] >= 2
                    dicts += 1
            assert dicts == sum(1 for k in kid_count if k >= 2)
            if dicts:
                shapes.add("dict")
        assert shapes == {"leaf", "single", "dict"}

    def test_snapshot_unchanged_by_later_extends(self, ab_uvxy):
        """A snapshot owns its children: entries that later turn from an id
        into a dict, or dicts that later gain a child, stay as they were."""
        rng = random.Random(30)
        upgraded = grown = 0
        for raw in ["uvaubuavbvuvvuab"] + [random_text(rng, ab_uvxy, 40, 20)
                                            for _ in range(10)]:
            text = parse_pstring(raw, ab_uvxy)
            for k in range(1, len(raw)):
                b = Builder(ab_uvxy)
                b.extend(text.symbols[:k])
                snap = b.snapshot()
                frozen = _frozen_children(snap)
                b.extend(text.symbols[k:])
                final = b.finalize()
                for v, kids in enumerate(snap.children):
                    if type(kids) is int and type(final.children[v]) is dict:
                        upgraded += 1
                    elif type(kids) is dict and len(final.children[v]) > len(kids):
                        grown += 1
                assert _frozen_children(snap) == frozen
                audit_index(snap)
                assert trees_equal(snap, naive_pph(text[:k]))
        assert upgraded and grown


def _rekey_child(idx):
    kids = idx.children[walk(idx, (0,))]
    kids[99] = kids.pop("b")


def _one_entry_dict(idx):
    u = walk(idx, (0, "b"))
    v = idx.children[u]
    assert type(v) is int
    idx.children[u] = {idx.edge_label(v): v}


def _wrong_single_child(idx):
    u = walk(idx, (0, "b"))
    assert type(idx.children[u]) is int
    idx.children[u] = walk(idx, (0,))


def _swap_siblings(idx):
    kids = idx.children[walk(idx, (0,))]
    kids["a"], kids["b"] = kids["b"], kids["a"]


def _suffix_to_wrong_depth(idx):
    v = walk(idx, (0, "a", 0))
    assert idx.depths[idx.suffixes[v]] == 2
    idx.suffixes[v] = walk(idx, (0,))


def _shift_secondary(idx):
    ((v, spos),) = idx.secondaries.items()
    idx.secondaries[v] = spos - 1


def _deeper_secondary(idx):
    ((v, spos),) = idx.secondaries.items()
    del idx.secondaries[v]
    idx.secondaries[walk(idx, (0, "a", 0))] = spos


def _later_parent(idx):
    idx.parents[1] = idx.node_count - 1


def _deepen_all(idx):
    for v in range(1, idx.node_count):
        idx.depths[v] += 1


def _change_last_label(idx):
    assert idx.prev_text[-1] == "b"
    idx.prev_text = idx.prev_text[:-1] + ("a",)


def _deepen_root(idx):
    idx.depths[ROOT] = 1


def _root_suffix_to_root(idx):
    idx.suffixes[ROOT] = ROOT


def _extra_child_entry(idx):
    kids = idx.children[walk(idx, (0,))]
    kids[99] = kids["a"]


def _suffix_past_last_node(idx):
    idx.suffixes[1] = idx.node_count


def _suffix_to_other_parent(idx):
    # (0 a 0) drops to (a 0); (b 0) ends in the same label under another parent
    idx.suffixes[walk(idx, (0, "a", 0))] = walk(idx, ("b", 0))


def _suffix_to_sibling(idx):
    # (a b) hangs from the parent of (a 0) under another label
    idx.suffixes[walk(idx, (0, "a", 0))] = walk(idx, ("a", "b"))


AUDIT_ALPHABETS = [("ab", "uvxy"), ("a", "x"), ("", "uvxy"), ("ab", ""), ("abcd", "wxyz")]


@st.composite
def audit_texts(draw):
    """A random or periodic text of at most 40 symbols over one of AUDIT_ALPHABETS."""
    constants, parameters = draw(st.sampled_from(AUDIT_ALPHABETS))
    syms = st.sampled_from(constants + parameters)
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        raw = draw(st.lists(syms, min_size=n, max_size=n))
    else:
        raw = (draw(st.lists(syms, min_size=1, max_size=7)) * n)[:n]
    return parse_pstring(raw, make_alphabet(list(constants), list(parameters)))


def damage_one_field(idx, draw):
    """Change one entry of one field: a parent, depth or suffix pointer, a
    secondary's value or node, an added or deleted secondary, a children
    entry, or a prev label. The new value may equal the old one."""
    count, n = idx.node_count, idx.n
    ids = st.integers(-1, count)
    kind = draw(st.sampled_from(
        ["parents", "depths", "suffixes", "secondaries", "children", "prev_text"]))
    if kind in ("parents", "depths", "suffixes"):
        getattr(idx, kind)[draw(st.integers(0, count - 1))] = draw(ids)
    elif kind == "secondaries":
        secs = idx.secondaries
        op = draw(st.sampled_from(["value", "node", "add", "delete"] if secs else ["add"]))
        if op == "add":
            secs[draw(ids)] = draw(st.integers(0, n + 1))
        else:
            v = draw(st.sampled_from(sorted(secs)))
            spos = secs.pop(v)
            if op == "value":
                secs[v] = draw(st.integers(0, n + 1))
            elif op == "node":
                secs[draw(ids)] = spos
    elif kind == "children":
        v = draw(st.integers(0, count - 1))
        op = draw(st.sampled_from(["leaf", "id", "dict"]))
        if op == "leaf":
            idx.children[v] = None
        elif op == "id":
            idx.children[v] = draw(ids)
        else:
            kids = idx.child_map(v)
            label = draw(st.sampled_from([*kids, *idx.alphabet.constants, 0, 1, 2, 3]))
            if label in kids and draw(st.booleans()):
                del kids[label]
            else:
                kids[label] = draw(ids)
            idx.children[v] = kids
    elif n:
        i = draw(st.integers(0, n - 1))
        label = draw(st.sampled_from([*idx.alphabet.constants, *range(i + 1)]))
        idx.prev_text = idx.prev_text[:i] + (label,) + idx.prev_text[i + 1:]


class TestAuditRejects:
    """Each damage to a freshly built index is reported as a StructuralError."""

    @pytest.mark.parametrize("damage, message", [
        (_rekey_child, "not registered under its label"),
        (_one_entry_dict, "children dict of size 1"),
        (_wrong_single_child, "single child 1 is not a child of it"),
        (_swap_siblings, "not registered under its label"),
        (_suffix_to_wrong_depth, "suffix pointer does not drop depth by one"),
        (_shift_secondary, "secondary positions are not"),
        (_deeper_secondary, "position 16 path label overruns text"),
        (_later_parent, "is not an earlier node"),
        (_change_last_label, "not registered under its label"),
        (_deepen_all, "runs past the end of the text"),
        (_deepen_root, "malformed root node"),
        (_root_suffix_to_root, "root suffix pointer must be the virtual node"),
        (_extra_child_entry, "children entries hold 16 edges for 16 nodes"),
        (_suffix_past_last_node, "suffix pointer 16 out of range"),
        (_suffix_to_other_parent, "suffix pointer label law broken"),
        (_suffix_to_sibling, "suffix pointer label law broken"),
    ], ids=["rekeyed-child", "one-entry-dict", "wrong-single-child", "swapped-siblings",
            "suffix-depth", "secondary-shift", "deeper-secondary", "later-parent",
            "last-prev-label", "deepened", "root-depth", "root-suffix", "extra-child-entry",
            "suffix-range", "suffix-other-parent", "suffix-sibling"])
    def test_damage_detected(self, ab_uvxy, damage, message):
        idx = build_audited("uvaubuavbvuvvuab", ab_uvxy)
        damage(idx)
        with pytest.raises(StructuralError, match=message):
            audit_index(idx)

    def test_prev_label_off_the_text(self, ab_uvxy):
        """A wrong prev label that every arena check passes makes the matcher
        miss the occurrence at 1."""
        idx = build_audited("vbvybvxx", ab_uvxy)
        assert idx.prev_text[5] == 3
        idx.prev_text = idx.prev_text[:5] + (1,) + idx.prev_text[6:]
        pattern = parse_pstring("vbvybv", ab_uvxy)
        assert match_pattern(idx, None, pattern) != naive_match(idx.text, pattern) == [1]
        with pytest.raises(StructuralError, match="prev_text is not the prev-encoding"):
            audit_index(idx)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(text=audit_texts(), data=st.data())
    def test_passes_only_the_true_index(self, text, data):
        idx = build_index(text)
        damage_one_field(idx, data.draw)
        try:
            audit_index(idx)
        except StructuralError:
            return
        true = build_index(text)
        for field in PPHIndex.__slots__:
            assert getattr(idx, field) == getattr(true, field), field


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
        self.builder.extend((sym,))
        self.raw.append(sym)

    @rule(sym=st.sampled_from(["b", "z", "xy", ""]))
    def push_undeclared(self, sym):
        with pytest.raises(UnknownSymbol) as info:
            self.builder.extend((sym,))
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
        check_preorder(snap, aug)
        for i in range(1, snap.n + 1):
            assert aug.mrp[i - 1] == naive_mrp(snap, i)
        p = parse_pstring(pattern, self.alphabet)
        assert match_pattern(snap, aug, p) == naive_match(text, p)

    @invariant()
    def size_counts_accepted_pushes(self):
        assert self.builder.snapshot().n == len(self.raw)


TestBuilderMachine = BuilderMachine.TestCase
TestBuilderMachine.settings = settings(
    max_examples=100, stateful_step_count=40, derandomize=True, deadline=None)
