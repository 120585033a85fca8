"""Maximal-reach pointers and constant-time subtree membership.

For each text position i the maximal-reach pointer names the deepest node
whose path label is a prefix of the encoded suffix starting at i. All n
pointers are computed in one left-to-right sweep that reuses the previous
position's endpoint through its suffix pointer, so the scan head over the
text never moves backwards. A preorder numbering with subtree sizes then
makes "is u inside v's subtree" an O(1) interval test.
"""

from __future__ import annotations

from .coding import SENTINEL
from .errors import InvalidNode
from .heap import ROOT, PPHIndex


class Augmentation:
    """Per-position reach pointers plus preorder intervals for one index.

    ``mrp[i-1]`` is the reach node of 1-based position i. ``pre_enter`` and
    ``subtree_size`` are indexed by node id. Immutable once built; share it
    freely together with its index.
    """

    __slots__ = ("mrp", "pre_enter", "subtree_size")

    def __init__(self, mrp: list[int], pre_enter: list[int], subtree_size: list[int]):
        self.mrp = mrp
        self.pre_enter = pre_enter
        self.subtree_size = subtree_size

    def reach(self, i: int) -> int:
        """Reach node of 1-based text position i."""
        if not 1 <= i <= len(self.mrp):
            raise InvalidNode(f"position {i}")
        return self.mrp[i - 1]

    def is_descendant(self, u: int, v: int) -> bool:
        """True when u lies in v's subtree, v itself included. O(1)."""
        enter = self.pre_enter
        if not 0 <= u < len(enter):
            raise InvalidNode(u)
        if not 0 <= v < len(enter):
            raise InvalidNode(v)
        ev = enter[v]
        return ev <= enter[u] < ev + self.subtree_size[v]


def compute_mrp(idx: PPHIndex) -> list[int]:
    """Reach node for every position 1..n, as a 0-indexed list.

    Walks positions in order; each step restarts from the previous reach
    node's suffix pointer and extends while a child matches the next
    re-normalized text label. A virtual end-of-text label past position n
    guarantees the descent stops.
    """
    n = idx.n
    prev_text = idx.prev_text
    children = idx.children
    suffixes = idx.suffixes
    mrp = [ROOT] * n
    cur = ROOT
    scan = 1  # 1-based text position about to be consumed
    for i in range(1, n + 1):
        while True:
            c = prev_text[scan - 1] if scan <= n else SENTINEL
            if type(c) is int and c > scan - i:
                c = 0
            kids = children[cur]
            nxt = None if kids is None else kids.get(c)
            if nxt is None:
                break
            cur = nxt
            scan += 1
        mrp[i - 1] = cur
        # every position reaches depth >= 1, so this never lands on the
        # virtual node above the root
        cur = suffixes[cur]
    return mrp


def preorder_intervals(idx: PPHIndex) -> tuple[list[int], list[int]]:
    """Preorder entry numbers and subtree sizes.

    Children are pushed in dict order, not label order: the interval test
    holds for any preorder, and the numbering is never stored.
    """
    count = idx.node_count
    enter = [0] * count
    size = [1] * count
    children = idx.children
    order: list[int] = []
    stack = [ROOT]
    while stack:
        v = stack.pop()
        enter[v] = len(order)
        order.append(v)
        kids = children[v]
        if kids:
            stack.extend(kids.values())
    parents = idx.parents
    for v in reversed(order):
        p = parents[v]
        if p >= 0:
            size[p] += size[v]
    return enter, size


def augment(idx: PPHIndex) -> Augmentation:
    """Compute the full augmentation (reach pointers and intervals)."""
    mrp = compute_mrp(idx)
    enter, size = preorder_intervals(idx)
    return Augmentation(mrp, enter, size)


def subtree_positions(idx: PPHIndex, u: int) -> list[int]:
    """All primary and secondary positions stored in u's subtree, ascending.

    Cost is proportional to the subtree size plus the output.
    """
    idx._check(u)
    children = idx.children
    primaries = idx.primaries
    secondaries = idx.secondaries
    out: list[int] = []
    stack = [u]
    while stack:
        v = stack.pop()
        p = primaries[v]
        if p is not None:
            out.append(p)
        s = secondaries.get(v)
        if s is not None:
            out.append(s)
        kids = children[v]
        if kids:
            stack.extend(kids.values())
    out.sort()
    return out
