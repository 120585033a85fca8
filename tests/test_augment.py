"""Tests for reach pointers and subtree preprocessing."""

from __future__ import annotations

import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppheap
from ppheap.augment import augment, compute_mrp, preorder_intervals
from ppheap.coding import make_alphabet, parse_pstring
from ppheap.heap import ROOT, audit_index, build_index
from ppheap.oracle import naive_mrp

from conftest import (
    CountingLabels,
    build_audited,
    build_augmented,
    check_preorder,
    random_text,
    walk,
)


AB_UVXY = make_alphabet(list("ab"), list("uvxy"))
SYMBOLS = list("abuvxy")
# node 1 is a leaf, node 2 internal, node 3 a leaf: the sweep's first
# position jumps to its leaf, and its last internal node is followed only by
# a leaf
LEAF_FIRST = list("abbb")
# internal nodes 1 and 2, then leaves 3..6: after the last descent every
# position jumps to its own leaf
LEAVES_LAST = list("uvuvab")
# over 300 nodes, so most node ids are int objects that Python does not cache
WIDE = random_text(random.Random(38), AB_UVXY, 400, 400)


@st.composite
def reach_texts(draw):
    """Random texts (many leaves), short-period texts (deep, almost
    leafless) and runs of one parameter (long secondary tails)."""
    family = draw(st.sampled_from(["random", "periodic", "one-parameter"]))
    if family == "random":
        return draw(st.lists(st.sampled_from(SYMBOLS), max_size=60))
    if family == "periodic":
        block = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4))
        return (block * 60)[:draw(st.integers(0, 60))]
    head = draw(st.lists(st.sampled_from(SYMBOLS), max_size=4))
    return head + [draw(st.sampled_from("uvxy"))] * draw(st.integers(0, 40))


class TestReachPointers:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(text=reach_texts())
    @example(text=[])
    @example(text=["a"])
    @example(text=["u", "v"])
    @example(text=LEAF_FIRST)
    @example(text=LEAVES_LAST)
    def test_property_equals_naive_walk(self, text):
        idx = build_audited(text, AB_UVXY)
        mrp = compute_mrp(idx)
        assert len(mrp) == idx.n
        for i in range(1, idx.n + 1):
            assert mrp[i - 1] == naive_mrp(idx, i)

    def test_examples_have_their_shapes(self):
        for text, internal, count in ((LEAF_FIRST, [2], 4), (LEAVES_LAST, [1, 2], 7)):
            idx = build_audited(text, AB_UVXY)
            assert idx.node_count == count
            assert [v for v in range(1, count) if idx.children[v]] == internal

    def test_leaves_and_secondaries_are_their_own_reach(self, ab_uvxy):
        """The facts the sweep's shortcut rests on, on leafy, deep and
        one-parameter heaps; an internal node's reach lies in its subtree."""
        rng = random.Random(39)
        periodic = list("uavbuxa") * 9
        texts = [random_text(rng, ab_uvxy, 64) for _ in range(20)]
        texts += [periodic[:60], list("ab") * 30, list("ab") + ["u"] * 40, LEAF_FIRST]
        for text in texts:
            idx, aug = build_augmented(text, ab_uvxy)
            mrp = compute_mrp(idx)
            for v in range(1, idx.node_count):
                if idx.children[v] is None:
                    assert mrp[v - 1] == v
                else:
                    assert inside(aug, mrp[v - 1], v)
                    assert idx.depths[mrp[v - 1]] >= idx.depths[v]
            for v, s in idx.secondaries.items():
                assert mrp[s - 1] == v

    def test_matches_naive_walk(self, ab_uvxy):
        rng = random.Random(31)
        for _ in range(40):
            raw = random_text(rng, ab_uvxy, 64)
            idx = build_audited(raw, ab_uvxy)
            mrp = compute_mrp(idx)
            for i in range(1, idx.n + 1):
                assert mrp[i - 1] == naive_mrp(idx, i)

    def test_known_reach_targets(self, a_xy):
        idx = build_audited("xaxyxyxyyaxyxy", a_xy)
        mrp = compute_mrp(idx)
        a0 = walk(idx, ("a", 0))
        assert mrp[2 - 1] == a0
        assert mrp[10 - 1] == a0

    def test_double_node_pointer_is_the_primary_walk(self, a_xy):
        """For a double node, the per-primary pointer may out-reach the node."""
        idx = build_audited("xaxyxyxyyaxyxy", a_xy)
        mrp = compute_mrp(idx)
        found = False
        for v, spos in idx.secondaries.items():
            prim, second = idx.positions_at(v)
            assert second == spos
            assert mrp[spos - 1] == v
            assert mrp[prim - 1] == naive_mrp(idx, prim)
            if mrp[prim - 1] != v:
                found = True
        assert found  # the fixture contains at least one out-reaching primary

    def test_sweep_reads_linearly_many_labels(self):
        """The sweep's work is linear in n: each descent step reads at most
        two labels and advances a scan head that never moves backwards or
        passes n + 1, and each internal primary adds at most one more step,
        the one that breaks. A sweep that restarts every position at the
        root gives the same answers but reads quadratically many labels on
        the periodic and one-parameter texts; the random text is shallow
        and separates nothing."""
        rng = random.Random(40)
        for raw in (list("ab") * 1500, list("uavbuxa") * 429, ["x"] * 3000,
                    rng.choices(SYMBOLS, k=3000)):
            idx = build_index(parse_pstring(raw, AB_UVXY))
            prev_text = idx.prev_text
            counted = idx.prev_text = CountingLabels(prev_text)
            try:
                compute_mrp(idx)
            finally:
                idx.prev_text = prev_text
            assert counted.reads <= 2 * (idx.n + idx.node_count)

    def test_depth_never_drops_by_more_than_one(self, ab_uvxy):
        rng = random.Random(33)
        for _ in range(30):
            raw = random_text(rng, ab_uvxy, 64, min_n=1)
            idx = build_audited(raw, ab_uvxy)
            mrp = compute_mrp(idx)
            depths = [idx.depths[v] for v in mrp]
            for i in range(len(depths) - 1):
                assert depths[i + 1] >= depths[i] - 1
            # the final position's encoded suffix has length one
            assert depths[-1] == 1


def inside(aug, u, v) -> bool:
    """The interval test: u lies in v's subtree, v itself included."""
    return aug.post[v] - aug.subtree_size[v] < aug.post[u] <= aug.post[v]


class TestPreorder:
    def test_root_interval_covers_everything(self, ab_uvxy):
        idx = build_audited("uvuvauuvb", ab_uvxy)
        preorder, size = preorder_intervals(idx)
        assert preorder[0] == ROOT
        assert size[ROOT] == idx.node_count
        assert sorted(preorder) == list(range(idx.node_count))

    def test_leaf_size_one(self, ab_uvxy):
        idx = build_audited("uvuvauuvb", ab_uvxy)
        _, size = preorder_intervals(idx)
        for v in range(idx.node_count):
            if not idx.children[v]:
                assert size[v] == 1

    def test_runs_are_subtrees(self, ab_uvxy):
        rng = random.Random(37)
        periodic = list("uavbuxa") * 9
        texts = [random_text(rng, ab_uvxy, 64) for _ in range(20)]
        for text in texts + ["uv" * 20, "ua" * 9 + "u", periodic[:60], "ab" + "u" * 40]:
            idx, aug = build_augmented(text, ab_uvxy)
            check_preorder(idx, aug)

    def test_entries_are_the_children_maps_ints(self):
        """The reach-ordered list holds new int objects, not the node ids
        the builder made (ids above 256 are not cached), so that a slice of
        it reads contiguous memory; the children entries then hold the
        list's objects, so no node has two. Its values are the naive reach
        order."""
        idx = build_audited(WIDE, AB_UVXY)
        count = idx.node_count
        assert count > 300

        def entry(v):
            return idx.child_map(idx.parents[v])[idx.edge_label(v)]

        built = [entry(v) for v in range(257, count)]
        aug = augment(idx)
        for p in aug.by_reach:
            if 256 < p < count:
                assert p is entry(p) and p is not built[p - 257]
        order = sorted(range(1, idx.n + 1), key=lambda p: aug.post[naive_mrp(idx, p)])
        assert aug.by_reach == order
        audit_index(idx)

    def test_interval_test_equals_parent_chain(self, ab_uvxy):
        rng = random.Random(34)
        for _ in range(10):
            raw = random_text(rng, ab_uvxy, 24)
            idx, aug = build_augmented(raw, ab_uvxy)

            def is_ancestor_or_self(v, u):
                while u != v:
                    if u == ROOT:
                        return False
                    u = idx.parents[u]
                return True

            for u in range(idx.node_count):
                for v in range(idx.node_count):
                    assert inside(aug, u, v) == is_ancestor_or_self(v, u)

    def test_self_and_direct_relations(self, ab_uvxy):
        idx, aug = build_augmented("uvau", ab_uvxy)
        for v in range(idx.node_count):
            assert inside(aug, v, v)
        for v in range(1, idx.node_count):
            assert inside(aug, v, idx.parents[v])
            assert not inside(aug, idx.parents[v], v)


class TestReachOrder:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(text=reach_texts())
    @example(text=[])
    @example(text=["a"])
    @example(text=LEAF_FIRST)
    @example(text=LEAVES_LAST)
    def test_slices_equal_naive_reach(self, text):
        """A subtree's slice is the positions whose naive reach lies in it;
        a node's own slice is those reaching it exactly, ascending; each
        position's rank is its reach's reversed-preorder number, ascending
        along ``by_reach``."""
        idx, aug = build_augmented(text, AB_UVXY)
        n = idx.n
        by_reach, start = aug.by_reach, aug.reach_start
        assert sorted(by_reach) == list(range(1, n + 1))
        assert len(start) == idx.node_count + 1
        reach = [naive_mrp(idx, i) for i in range(1, n + 1)]
        above: list[set[int]] = []  # the nodes on each reach's parent chain
        for v in reach:
            chain = {v}
            while v != ROOT:
                v = idx.parents[v]
                chain.add(v)
            above.append(chain)
        for v in range(idx.node_count):
            hi = aug.post[v] + 1
            run = by_reach[start[hi - aug.subtree_size[v]]:start[hi]]
            assert set(run) == {i for i in range(1, n + 1) if v in above[i - 1]}
            own = by_reach[start[hi - 1]:start[hi]]
            assert own == [i for i in range(1, n + 1) if reach[i - 1] == v]
        for p in by_reach:
            if p < idx.node_count:
                assert p is idx.child_map(idx.parents[p])[idx.edge_label(p)]
        rank = aug.rank
        assert len(rank) == n + 1 and rank[0] == 0
        mrp = compute_mrp(idx)
        for p in range(1, n + 1):
            assert rank[p] == aug.post[mrp[p - 1]]
        ranks = [rank[p] for p in by_reach]
        assert ranks == sorted(ranks)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(text=reach_texts())
    @example(text=[])
    @example(text=["a"])
    @example(text=list("aaabaab"))
    def test_descents_tell_ascending_slices(self, text):
        """``descents`` counts the steps down of ``by_reach``, so it calls a
        node's subtree slice ascending exactly when it is."""
        idx, aug = build_augmented(text, AB_UVXY)
        by_reach, descents = aug.by_reach, aug.descents
        assert list(descents) == [
            sum(by_reach[i] > by_reach[i + 1] for i in range(k)) for k in range(len(descents))]
        assert len(descents) == max(idx.n, 1)
        start = aug.reach_start
        for v in range(idx.node_count):
            hi = aug.post[v] + 1
            a, b = start[hi - aug.subtree_size[v]], start[hi]
            got = by_reach[a:b]
            if got:
                assert (descents[b - 1] == descents[a]) == (got == sorted(got))

    def test_periodic_slices_are_ascending(self):
        """On a periodic text every slice that a whole encoding can ask
        for, a non-root node's subtree, comes out ascending: reversed
        preorder lists each root path deepest first, and a deeper double
        node's secondary is the smaller position. Numbered in preorder,
        most of them would need a sort."""
        idx, aug = build_augmented(list("ab") * 30, AB_UVXY)
        assert len(idx.secondaries) == 20 and idx.stats().max_depth == 20
        start, descents = aug.reach_start, aug.descents
        for v in range(1, idx.node_count):
            got = subtree_slice(aug, v)
            assert got == sorted(got)
            hi = aug.post[v] + 1
            assert descents[start[hi] - 1] == descents[start[hi - aug.subtree_size[v]]]

    @pytest.mark.skipif(sys.implementation.name != "cpython",
                        reason="the layout is CPython's small-object allocator's")
    @pytest.mark.parametrize("flags", [[], ["-X", "dev"]], ids=["plain", "dev"])
    def test_slices_read_contiguous_ints(self, flags):
        """``by_reach``'s ints lie one allocator block apart, so that a
        slice reads contiguous memory, when the build freed no per-node int
        before ``augment``: a builder that kept the depths of a deep heap in
        a list, over 256 and so one int object each, and freed them in
        ``finalize`` left holes that the list's ints fell into. The blocks
        are 32 bytes apart, 64 under the debug allocator of ``-X dev``. A
        fresh interpreter, since what earlier tests freed would decide the
        layout here."""
        script = (
            "import collections, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from ppheap import augment, build_index, make_alphabet, parse_pstring\n"
            "idx = build_index(parse_pstring('xaxybzy' * 3000, make_alphabet('ab', 'xyz')))\n"
            "assert idx.n == 21_000 and idx.stats().max_depth == 2_627\n"
            "br = augment(idx).by_reach\n"
            "gaps = collections.Counter(abs(id(b) - id(a)) for a, b in zip(br, br[1:]))\n"
            "print(gaps.most_common(1)[0][1] / (len(br) - 1))\n")
        package_dir = str(Path(ppheap.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-I", *flags, "-c", script, package_dir],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) >= 0.75

    def test_leaf_yields_its_primary(self, a_xy):
        idx, aug = build_augmented("x", a_xy)
        assert own_slice(aug, walk(idx, (0,))) == [1]

    def test_known_slices(self, a_xy):
        idx, aug = build_augmented("xaxyxyxyyaxyxy", a_xy)
        assert own_slice(aug, walk(idx, ("a", 0))) == [2, 10]
        # the subtree stores 5 and 11; 3 and 4 are stored above it and reach in
        v = walk(idx, (0, 0, 2, 2))
        assert sorted(idx.positions_at(v)) == [5, 11]
        assert sorted(subtree_slice(aug, v)) == [3, 4, 5, 11]


def subtree_slice(aug, v) -> list[int]:
    """The slice of ``by_reach`` for the subtree of v."""
    hi = aug.post[v] + 1
    return aug.by_reach[aug.reach_start[hi - aug.subtree_size[v]]:aug.reach_start[hi]]


def own_slice(aug, v) -> list[int]:
    """The slice of ``by_reach`` for the positions whose reach is v."""
    k = aug.post[v]
    return aug.by_reach[aug.reach_start[k]:aug.reach_start[k + 1]]


def reaches_into(idx, i, u) -> bool:
    """Whether the naive reach of position i lies in the subtree of u."""
    v = naive_mrp(idx, i)
    while v != u and v != ROOT:
        v = idx.parents[v]
    return v == u


class TestSubtreePositions:
    def test_root_holds_all_positions(self, ab_uvxy):
        rng = random.Random(35)
        for _ in range(20):
            idx, aug = build_augmented(random_text(rng, ab_uvxy, 48), ab_uvxy)
            assert sorted(subtree_slice(aug, ROOT)) == list(range(1, idx.n + 1))
            for v in range(idx.node_count):
                assert sorted(subtree_slice(aug, v)) == [
                    i for i in range(1, idx.n + 1) if reaches_into(idx, i, v)]

    def test_ascending_and_unique(self, ab_uvxy):
        rng = random.Random(36)
        for text in (random_text(rng, ab_uvxy, 64, min_n=8), "uv" * 20, "ua" * 9 + "u"):
            idx, aug = build_augmented(text, ab_uvxy)
            for v in range(idx.node_count):
                got = subtree_slice(aug, v)
                assert len(got) == len(set(got))
                own = own_slice(aug, v)
                assert own == sorted(set(own))


def test_augment_combines_both_parts(ab_uvxy):
    idx = build_audited("uvaubuavbv", ab_uvxy)
    aug = augment(idx)
    assert array("i", map(aug.order.__getitem__, aug.rank[1:])) == compute_mrp(idx)
    _, size = preorder_intervals(idx)
    assert aug.subtree_size == size
    check_preorder(idx, aug)
