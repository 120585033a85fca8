"""Brute-force reference implementations for cross-validation.

Everything here favors obviousness over speed: windows and suffixes are
re-encoded from scratch, trees are built straight from the defining
insertion rule, and reach nodes are found by plain root-to-leaf walks with
no suffix pointers. These functions deliberately share nothing with the
fast modules beyond the coding layer, so agreement between the two routes
is meaningful evidence.
"""

from __future__ import annotations

from typing import Iterable

from .coding import PrevLabel, PString, prev_encode
from .heap import ROOT, PPHIndex


class NaiveTree:
    """Plain recursive trie node: children by label, stored positions in order."""

    __slots__ = ("children", "positions")

    def __init__(self):
        self.children: dict[PrevLabel, NaiveTree] = {}
        self.positions: list[int] = []

    def node_count(self) -> int:
        total = 1
        stack = [self]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            total += len(node.children)
        return total


def naive_match(text: PString, pattern: PString) -> list[int]:
    """All positions i with window t[i : i+m-1] matching the pattern.

    Every window is encoded from scratch; O(n*m).
    """
    n, m = len(text), len(pattern)
    if m == 0:
        raise ValueError("pattern must be non-empty")
    want = prev_encode(pattern)
    out = []
    for i in range(1, n - m + 2):
        if prev_encode(text[i - 1:i - 1 + m]) == want:
            out.append(i)
    return out


def naive_sequence_hash_tree(strings: Iterable[tuple]) -> NaiveTree:
    """Insert each encoded string in order, one new node per insertion.

    For string number i, the node for its shortest not-yet-present prefix
    is created and records i; when every prefix already exists, i is
    recorded at the node spelling the whole string instead.
    """
    root = NaiveTree()
    for i, w in enumerate(strings, start=1):
        node = root
        created = False
        for c in w:
            child = node.children.get(c)
            if child is None:
                child = NaiveTree()
                node.children[c] = child
                child.positions.append(i)
                created = True
                break
            node = child
        if not created:
            node.positions.append(i)
    return root


def naive_pph(text: PString) -> NaiveTree:
    """Reference heap: insert every suffix's fresh encoding, longest first."""
    n = len(text)
    return naive_sequence_hash_tree(prev_encode(text[i:]) for i in range(n))


def naive_mrp(idx: PPHIndex, i: int) -> int:
    """Reach node of position i by walking the fresh suffix encoding from the root."""
    v = ROOT
    for c in prev_encode(idx.text[i - 1:]):
        nxt = idx.child_map(v).get(c)
        if nxt is None:
            break
        v = nxt
    return v


def trees_equal(idx: PPHIndex, ref: NaiveTree) -> bool:
    """Structural equality of an index against a reference tree.

    Compares shape, edge labels, and the stored positions per node with
    their roles: the reference's first recorded position corresponds to the
    primary, any later ones to secondaries.
    """
    stack: list[tuple[int, NaiveTree]] = [(ROOT, ref)]
    while stack:
        v, r = stack.pop()
        if idx.positions_at(v) != r.positions:
            return False
        kids = idx.child_map(v)
        if kids.keys() != r.children.keys():
            return False
        for label, ch in kids.items():
            stack.append((ch, r.children[label]))
    return True
