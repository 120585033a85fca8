"""Pattern matching, from the bare heap or over an augmented index.

Let u be the node where the pattern's first descent stops. Every
occurrence is a primary on the root-to-u path or, when the whole encoding
spells u, a position stored in u's subtree. Without an augmentation, a
query whose path primaries need at most n label checks (m - depth(v)
each, at most depth(u) * m in all) is answered by those checks plus a
stack walk of u's subtree, which costs its output; any other query first
computes the augmentation, since direct checks are quadratic on deep heaps.

Over an augmentation, a whole encoding u is answered by the positions
whose reach pointer falls inside u's subtree: the subtree's own (one slice
of the preorder node list plus one bisect range of secondaries) and the
path primaries above u whose reach lands inside it, then one sort.
Otherwise the pattern is cut into segments, each the longest represented
prefix of the re-encoded remainder, and a candidate survives only if its
reach pointer at each segment start hits the segment's end node (the last
segment may land anywhere in its subtree). A label that collapsed to 0
inside a segment lost a back-reference across its boundary, so it is
re-checked against the text: at most one check per parameter symbol per
segment.
"""

from __future__ import annotations

from typing import NamedTuple

from .augment import Augmentation, augment, subtree_run
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


def match_pattern(idx: PPHIndex, aug: Augmentation | None,
                  pattern: PString) -> list[int]:
    """All 1-based positions where the pattern occurs up to parameter renaming.

    ``aug`` None: the bare heap answers if the rule above allows, else
    ``augment(idx)`` is computed for this query alone. Raises EmptyPattern
    for a zero-length pattern. The result is strictly increasing and
    duplicate free.
    """
    m = len(pattern)
    if m == 0:
        raise EmptyPattern("cannot match an empty pattern")
    if m > idx.n:
        return []
    prev_p = prev_encode(pattern)
    walk = segment_walk(idx, prev_p, 1)
    if aug is None:
        k = walk.consumed_through
        if k * m - k * (k + 1) // 2 <= idx.n:
            return _direct_hits(idx, prev_p, walk)
        aug = augment(idx)
    return _filtered_hits(idx, aug, prev_p, walk)


def _direct_hits(idx: PPHIndex, prev_p: tuple[PrevLabel, ...],
                 walk: SegmentWalk) -> list[int]:
    """The occurrences, from the bare heap and the pattern's first descent."""
    m = len(prev_p)
    parents = idx.parents
    hits: list[int] = []
    v = walk.end_node
    if walk.consumed_through == m:
        stack = [v]
        while stack:
            x = stack.pop()
            hits.append(x)
            if idx.children[x]:
                stack.extend(idx.children[x].values())
        hits += [s for s in map(idx.secondaries.get, hits) if s]
        v = parents[v]
    # a secondary on the path spans a suffix shorter than the pattern, and
    # a primary's path label already matches its first depth(v) labels
    prev_t = idx.prev_text
    last = idx.n - m + 1
    while v != ROOT:
        if v <= last:
            for j in range(idx.depths[v], m):
                c = prev_t[v + j - 1]
                if type(c) is int and c > j:
                    c = 0
                if c != prev_p[j]:
                    break
            else:
                hits.append(v)
        v = parents[v]
    hits.sort()
    return hits


def _filtered_hits(idx: PPHIndex, aug: Augmentation,
                   prev_p: tuple[PrevLabel, ...], walk: SegmentWalk) -> list[int]:
    """The occurrences, by the paper's reach-pointer filter."""
    m = len(prev_p)
    n = idx.n
    mrp = aug.mrp
    enter = aug.pre_enter
    parents = idx.parents
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
