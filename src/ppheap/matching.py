"""Pattern matching, from the bare heap or over an augmented index.

Let u be the node where the pattern's first descent stops. Every
occurrence is a primary on the root-to-u path or, when the whole encoding
spells u, a position stored in u's subtree. Without an augmentation, a
query whose path primaries need at most n label checks (m - depth(v)
each, at most depth(u) * m in all) is answered by those checks plus a
walk of u's subtree (``heap.subtree_nodes``), which costs its output; any
other query first computes the augmentation, since direct checks are
quadratic on deep heaps.

Over an augmentation, a whole encoding u is answered by the positions
whose reach pointer falls inside u's subtree, one slice of the
reach-ordered position list, sorted only if it holds a descent (on deep
heaps it rarely does). Otherwise the candidates are the positions whose
reach is u, already ascending, that leave room for the pattern; the
pattern is cut into segments, each the longest represented prefix of the
re-encoded remainder. A candidate survives a segment when its reach rank
(the reversed-preorder number of its reach pointer) at the segment start
lies in the segment's interval: the end node's own number, or, for the
last segment, the end node's subtree run. A label that collapsed to 0
inside a segment lost a back-reference across its boundary, so it is
re-checked against the text: at most one check per parameter symbol per
surviving candidate. Once c candidates survive with the labels i..m still
to read and c * (m - i + 1) <= m, the filter stops walking segments and
checks those labels of each candidate against the text directly. Those
checks read at most m labels, no more than the filter reads from the
pattern, so the query stays within the paper's O(m(sigma + pi) + occ)
bound. All three checks against the text (path primaries, zero labels,
the labels a candidate has left) call ``_window_matches`` with their
0-based offsets.

Over an augmentation, once the rest of the pattern (at least ``JUMP``
labels) lies on one run of single-child nodes, a compressed edge of the
heap, the pattern's first descent checks it with one comparison of
pattern and text slices instead of one interpreted step per label: a
node's path label is the text window at its own position, and labels
equal before re-normalization are equal after it, so only the text
labels facing the pattern's 0s are re-normalized first. A run that
differs is stepped to the label that differs. On deep, repetitive heaps
this turns most of the m term into C-speed work.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .augment import Augmentation, augment
from .coding import PrevLabel, PString, prev_encode
from .errors import EmptyPattern
from .heap import ROOT, PPHIndex, subtree_nodes

# The fewest labels that a walk over an augmentation checks with one slice
# comparison; a shorter rest steps label by label. It is about the
# break-even of one comparison against interpreted label steps, measured
# with CPython 3.11 on one core of a 2-vCPU VM: a jump of 8 labels took
# 0.89x the time of 8 steps on a constants-only text, and 1.07x where the
# run starts at depth 1 or 2 of a period-7 text, so that the pattern's 0s
# fall into it; a jump of 10 labels, 0.82x and 0.96x.
JUMP = 8


class SegmentWalk(NamedTuple):
    """Outcome of descending one pattern segment from the root.

    ``start`` and ``consumed_through`` are 1-based pattern positions;
    ``consumed_through`` is start-1 when not even the first label matched.
    ``zero_positions`` lists the 0-based pattern offsets whose
    segment-relative label collapsed to 0 and therefore need a text-side
    re-check. Only segments from j > 1 record them: the whole pattern's
    labels are the window's own encoding, so its walk's list is empty.
    """

    start: int
    end_node: int
    consumed_through: int
    zero_positions: list[int]


def segment_walk(idx: PPHIndex, prev_pattern: tuple[PrevLabel, ...], j: int,
                 aug: Augmentation | None = None) -> SegmentWalk:
    """Descend from the root along the segment of the pattern starting at j.

    Labels are re-normalized to the window that begins at j; the walk stops
    at the first missing child or when the pattern is exhausted. The node
    reached after labels j..i-1 has depth d = i - j, and a single child w
    of it has the label prev_text[w + d - 1] re-normalized to d.

    Given ``aug`` and j = 1, at a single-child node v with t >= ``JUMP``
    labels left, the walk tests in O(1) whether the rest of the pattern
    lies on one run of single-child nodes below v. Let w be the node t
    numbers below v, t nodes after it in preorder: the rest lies on one run
    exactly when w is t levels deeper than v (so the t nodes form a path)
    and w's subtree is all of v's but the t nodes above it (so no node on
    the path has a second child). Then the t labels are compared with w's
    text window from offset d on in one comparison, since a node's path
    label is the window at its own position. Label k of both sides is
    re-normalized to the same depth d + k, so labels equal before
    re-normalization stay equal after it. Only where the pattern's label
    is 0 (at most once per parameter symbol) is the text's re-normalized
    first. Elsewhere a raw difference is a real one, since a text label
    that collapses there differs from the pattern's, which does not. Equal,
    the walk ends at w; different, it steps through the run to the label
    that differs and does not test again, so a failed test costs one slice
    and at most t steps. Segments from j > 1 step label by label: they are
    the filter's, and on the measured workloads their runs were short and
    mostly ended in a mismatch, where a jump was slower than stepping.
    """
    m = len(prev_pattern)
    children = idx.children
    prev_t = idx.prev_text
    if aug is None or j > 1:
        last = 0  # no jump
    else:
        depths = idx.depths
        post = aug.post
        order = aug.order
        size = aug.subtree_size
        last = m - JUMP + 1  # a jump takes at least JUMP labels
    v = ROOT
    zset: list[int] = []
    i = j
    while i <= m:
        c = prev_pattern[i - 1]
        if type(c) is int and c > i - j:
            c = 0
        nxt = children[v]
        if type(nxt) is dict:
            nxt = nxt.get(c)
            if nxt is None:
                break
        elif nxt is None:
            break
        else:
            d = i - j
            if i <= last:
                t = m - d  # j = 1: the labels left
                below = size[v] - t
                if below > 0:
                    w = order[post[v] - t]
                    # w is t levels below v (d + t = m), and its subtree is
                    # all of v's but the t nodes above it
                    if depths[w] == m and size[w] == below:
                        pat = prev_pattern[d:]
                        s = w + d - 1
                        txt = prev_t[s:s + t]
                        # the pattern's own 0s: j = 1, so no label of it
                        # reaches back past its start
                        zeros = pat.count(0)
                        if zeros:
                            txt = list(txt)
                            k = -1
                            for _ in range(zeros):
                                k = pat.index(0, k + 1)
                                e = txt[k]
                                if type(e) is int and e > d + k:
                                    txt[k] = 0
                            txt = tuple(txt)
                        if pat == txt:
                            return SegmentWalk(j, w, m, zset)
                        last = 0
            e = prev_t[nxt + d - 1]
            if type(e) is int and e > d:
                e = 0
            if e != c:
                break
        if c == 0 and j > 1:
            zset.append(i - 1)
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
    walk = segment_walk(idx, prev_p, 1, aug)
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
        hits = subtree_nodes(idx, v)
        hits += [s for s in map(idx.secondaries.get, hits) if s]
        v = parents[v]
    # a secondary on the path spans a suffix shorter than the pattern, and
    # a primary's path label already matches its first depth(v) labels
    prev_t = idx.prev_text
    depths = idx.depths
    last = idx.n - m + 1
    while v != ROOT:
        if v <= last and _window_matches(prev_t, prev_p, v, range(depths[v], m)):
            hits.append(v)
        v = parents[v]
    hits.sort()
    return hits


def _window_matches(prev_t: tuple[PrevLabel, ...], prev_p: tuple[PrevLabel, ...],
                    pos: int, offsets: Iterable[int]) -> bool:
    """Whether the text window at pos agrees with the pattern at the offsets.

    ``offsets`` are 0-based pattern offsets; offset j reads text label
    pos + j, re-normalized to the window that begins at pos. The caller
    vouches for the other labels and that every read is within the text.
    """
    for j in offsets:
        c = prev_t[pos + j - 1]
        if type(c) is int and c > j:
            c = 0
        if c != prev_p[j]:
            return False
    return True


def _filtered_hits(idx: PPHIndex, aug: Augmentation,
                   prev_p: tuple[PrevLabel, ...], walk: SegmentWalk) -> list[int]:
    """The occurrences, by the paper's reach-pointer filter.

    Before each segment, when the candidates times the labels left is at
    most m, the rest of each candidate's window is compared with the text
    instead (at most m label reads), and the filter stops there.
    """
    m = len(prev_p)
    u = walk.end_node
    whole = walk.consumed_through == m
    post = aug.post
    hi = post[u] + 1
    lo = hi - aug.subtree_size[u] if whole else hi - 1
    start = aug.reach_start
    a, b = start[lo], start[hi]
    hits = aug.by_reach[a:b]
    if whole:
        # the slice holds position u, so it is never empty
        if aug.descents[b - 1] != aug.descents[a]:
            hits.sort()
        return hits

    # a position whose reach is u lies on the root-to-u path; the bound
    # keeps every window, and so every read below, inside the text
    last = idx.n - m + 1
    candidates = [c for c in hits if c <= last]
    rank = aug.rank
    prev_t = idx.prev_text
    i = walk.consumed_through + 1
    while candidates and i <= m:
        if len(candidates) * (m - i + 1) <= m:
            # the reach tests so far guarantee labels 1..i-1, and the
            # labels left to read total at most m
            return [c for c in candidates
                    if _window_matches(prev_t, prev_p, c, range(i - 1, m))]
        seg = segment_walk(idx, prev_p, i)
        v = seg.end_node
        j = seg.start - 1  # the segment begins at text position c + j
        i = seg.consumed_through + 1
        hi = post[v] + 1
        # "i >= m" would do as well: the first slice holds at most
        # depth(u) + 1 <= m candidates and later segments only filter it, so
        # with one label left the switch above checks that label next. The
        # subtree interval adds only candidates whose label there differs
        # under the segment's re-normalization, and so under the window's.
        lo = hi - aug.subtree_size[v] if i > m else hi - 1
        zeros = seg.zero_positions
        # the reach at the segment start is v, or in v's subtree for the
        # last segment; labels that collapsed to 0 are re-checked
        candidates = [c for c in candidates if lo <= rank[c + j] < hi
                      and _window_matches(prev_t, prev_p, c, zeros)]
    return candidates
