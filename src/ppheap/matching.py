"""Pattern matching over an augmented index.

When the pattern's whole encoding is present as a node u, the occurrences
are exactly the positions whose reach pointer falls inside u's subtree:
every position stored in the subtree (one slice of the preorder node list
plus one bisect range of secondaries), and the primaries on the path above
u whose reach lands inside it. After the m child lookups and m ancestor
checks, that costs one sort of the output. Otherwise the pattern is cut
into segments, each the longest represented prefix of the re-encoded
remainder, and candidate positions survive only if their reach pointer at
each segment start hits the segment's end node (the last segment may land
anywhere in its subtree). Segment re-encoding loses back-references that
cross a segment boundary: every label that collapsed to 0 inside a segment
is re-checked against the text's encoding directly. There are at most as
many such checks per segment as there are parameter symbols.
"""

from __future__ import annotations

from typing import NamedTuple

from .augment import Augmentation, subtree_run
from .coding import PrevLabel, PString, prev_encode
from .errors import EmptyPattern
from .heap import ROOT, PPHIndex


class SegmentWalk(NamedTuple):
    """Outcome of descending one pattern segment from the root.

    ``start`` and ``consumed_through`` are 1-based pattern positions;
    ``consumed_through`` is start-1 when not even the first label matched.
    ``zero_positions`` lists the absolute pattern positions whose
    segment-relative label collapsed to 0 and therefore need a text-side
    re-check.
    """

    start: int
    end_node: int
    consumed_through: int
    zero_positions: list[int]


def segment_walk(idx: PPHIndex, prev_pattern: tuple[PrevLabel, ...], j: int) -> SegmentWalk:
    """Descend from the root along the segment of the pattern starting at j.

    Labels are re-normalized to the window that begins at j; the walk stops
    at the first missing child or when the pattern is exhausted.
    """
    m = len(prev_pattern)
    children = idx.children
    v = ROOT
    zset: list[int] = []
    i = j
    while i <= m:
        c = prev_pattern[i - 1]
        if type(c) is int and c > i - j:
            c = 0
        kids = children[v]
        nxt = None if kids is None else kids.get(c)
        if nxt is None:
            break
        if c == 0:
            zset.append(i)
        v = nxt
        i += 1
    return SegmentWalk(j, v, i - 1, zset)


def match_pattern(idx: PPHIndex, aug: Augmentation, pattern: PString) -> list[int]:
    """All 1-based positions where the pattern occurs up to parameter renaming.

    Raises EmptyPattern for a zero-length pattern. The result is strictly
    increasing and duplicate free.
    """
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("cannot match an empty pattern")
    n = idx.n
    if m > n:
        return []
    prev_p = prev_encode(pattern)
    mrp = aug.mrp
    enter = aug.pre_enter
    parents = idx.parents

    walk = segment_walk(idx, prev_p, 1)
    u = walk.end_node
    if walk.consumed_through == m:
        # whole encoding present: the subtree's positions, plus the path
        # primaries whose reach falls inside u's subtree; a secondary above
        # u spans its whole suffix, which is shorter than the pattern
        lo = enter[u]
        hi = lo + aug.subtree_size[u]
        hits = subtree_run(aug, u)
        v = parents[u]
        while v != ROOT:
            if lo <= enter[mrp[v - 1]] < hi:
                hits.append(v)
            v = parents[v]
        hits.sort()
        return hits

    if u == ROOT:
        return []

    # candidates: primaries along the walked path whose reach is exactly u
    # (node v holds primary position v)
    candidates: list[int] = []
    v = u
    while v != ROOT:
        if mrp[v - 1] == u:
            candidates.append(v)
        v = parents[v]

    prev_t = idx.prev_text
    i = walk.consumed_through + 1
    while candidates and i <= m:
        seg = segment_walk(idx, prev_p, i)
        v = seg.end_node
        if v == ROOT:
            return []
        j = seg.start
        i = seg.consumed_through + 1
        final = i > m
        lo = enter[v]
        hi = lo + aug.subtree_size[v]
        survivors: list[int] = []
        for cand in candidates:
            pos = cand + j - 1  # text position where this segment begins
            if pos > n:
                continue
            reach = mrp[pos - 1]
            if final:
                if not lo <= enter[reach] < hi:
                    continue
            elif reach != v:
                continue
            # cross-segment re-check of labels that collapsed to 0; the
            # reach test above guarantees these text accesses are in range
            ok = True
            for z in seg.zero_positions:
                c = prev_t[cand + z - 2]
                if type(c) is int and c > z - 1:
                    c = 0
                if c != prev_p[z - 1]:
                    ok = False
                    break
            if ok:
                survivors.append(cand)
        candidates = survivors
    return sorted(candidates)
