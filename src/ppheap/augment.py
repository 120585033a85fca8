"""Maximal-reach pointers and output-sensitive subtree enumeration.

For each text position i the maximal-reach pointer names the deepest node
whose path label is a prefix of the encoded suffix starting at i. A leaf's
primary and every secondary are their own node's reach, so one
left-to-right sweep computes the internal nodes' primaries only, reusing
the previous endpoint through its suffix pointer; the scan head over the
text never moves backwards. A preorder list of the node ids, with each
node's entry number and subtree size, then makes "is u inside v's subtree"
an O(1) interval test, and because node v holds primary position v, the
primaries of a subtree are one slice of that list. The secondaries, kept
sorted by their node's preorder number, add one bisect range. Only
matching reads these intervals, so the index does not carry them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress, islice

from .heap import ROOT, PPHIndex, subtree_nodes


class Augmentation:
    """Per-position reach pointers plus preorder intervals for one index.

    ``mrp[i-1]`` is the reach node of 1-based position i. ``preorder``
    lists the node ids, root first, each subtree one run; ``pre_enter`` (a
    node's index in it) and ``subtree_size`` are indexed by node id. All but
    ``preorder`` are ``array('i')``. ``secondary_ranks`` and
    ``secondary_positions`` list the secondary positions in the preorder of
    their nodes, beside those nodes' preorder numbers, so a subtree's
    secondaries are one bisect range. Immutable once built; share it freely
    together with its index.
    """

    __slots__ = ("mrp", "preorder", "pre_enter", "subtree_size",
                 "secondary_ranks", "secondary_positions")

    def __init__(self, mrp: array, preorder: list[int], subtree_size: array):
        self.mrp = mrp
        self.preorder = preorder
        self.subtree_size = subtree_size
        pre_enter = array("i", [0]) * len(preorder)
        for k, v in enumerate(preorder):
            pre_enter[v] = k
        self.pre_enter = pre_enter
        # the secondary positions are exactly node_count..n, and each one's
        # reach node is the node that stores it; they stay out of the
        # preorder, since there they break its ascending runs and the sort
        # in matching costs more than these bisect arrays save
        secs = sorted(range(len(pre_enter), len(mrp) + 1),
                      key=lambda s: pre_enter[mrp[s - 1]])
        self.secondary_ranks = array("i", [pre_enter[mrp[s - 1]] for s in secs])
        self.secondary_positions = array("i", secs)


def compute_mrp(idx: PPHIndex) -> array:
    """Reach node for every position 1..n, as a 0-indexed ``array('i')``.

    Leaves and secondaries are their own reach: node v lies on suffix v's
    path, and a secondary's path label is its whole suffix. The sweep
    descends only from internal nodes, from the previous reach node's (or
    the last skipped leaf's) suffix pointer, to a leaf, a missing child or
    the end of the text.
    """
    n = idx.n
    prev_text = idx.prev_text
    children = idx.children
    suffixes = idx.suffixes
    mrp = array("i", [ROOT]) * n
    for v, s in idx.secondaries.items():
        mrp[s - 1] = v
    cur = ROOT
    scan = 1  # 1-based text position about to be consumed
    follows = 1  # the position that cur and scan are set up for
    for i in compress(range(1, len(children)), islice(children, 1, None)):
        if i != follows:
            # leaves follows..i-1; resuming after them keeps scan monotone
            for v in range(follows, i):
                mrp[v - 1] = v
            cur = suffixes[i - 1]
            scan = i - 1 + idx.depths[i - 1]
        while scan <= n:
            nxt = children[cur]
            if nxt is None:
                break
            d = scan - i  # cur's depth
            c = prev_text[scan - 1]
            if type(c) is int and c > d:
                c = 0
            if type(nxt) is int:
                # the single child's label, re-normalized to d
                e = prev_text[nxt + d - 1]
                if type(e) is int and e > d:
                    e = 0
                if e != c:
                    break
            else:
                nxt = nxt.get(c)
                if nxt is None:
                    break
            cur = nxt
            scan += 1
        mrp[i - 1] = cur
        # every position reaches depth >= 1, so this never lands on the
        # virtual node above the root
        cur = suffixes[cur]
        follows = i + 1
    for v in range(follows, len(children)):
        mrp[v - 1] = v
    return mrp


def preorder_intervals(idx: PPHIndex) -> tuple[list[int], array]:
    """The node ids in preorder, and the subtree sizes by node id.

    The ids are ``subtree_nodes`` of the root (any preorder serves the
    subtree runs). A parent's id is below its children's ids, so one
    backward sweep sums the sizes.
    """
    preorder = subtree_nodes(idx, ROOT)
    count = idx.node_count
    size = array("i", [1]) * count
    parents = idx.parents
    for v in range(count - 1, 0, -1):
        size[parents[v]] += size[v]
    return preorder, size


def augment(idx: PPHIndex) -> Augmentation:
    """Compute the full augmentation (reach pointers and intervals)."""
    mrp = compute_mrp(idx)
    preorder, size = preorder_intervals(idx)
    return Augmentation(mrp, preorder, size)


def subtree_run(aug: Augmentation, u: int) -> list[int]:
    """All positions stored in u's subtree, in no particular order.

    One slice of ``aug.preorder`` (node v holds primary position v) plus
    one bisect range of the secondaries, so the cost is the output size
    plus O(log d) for d double nodes.
    """
    lo = aug.pre_enter[u]
    hi = lo + aug.subtree_size[u]
    out = aug.preorder[lo or 1:hi]  # preorder number 0 is the root: no position
    ranks = aug.secondary_ranks
    out += aug.secondary_positions[bisect_left(ranks, lo):bisect_left(ranks, hi)]
    return out

