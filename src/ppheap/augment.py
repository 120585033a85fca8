"""Maximal-reach pointers and a reach-ordered position list.

For each text position i the maximal-reach pointer names the deepest node
whose path label is a prefix of the encoded suffix starting at i. Every
secondary is its own node's reach. One left-to-right sweep computes the
primaries, each resuming from the previous endpoint through its suffix
pointer, and a leaf's position jumps to the leaf itself, the deepest node
on its path; the scan head over the text never moves backwards. The node
ids numbered in reversed preorder, with each node's subtree size, make "is
u inside v's subtree" an O(1) interval test: each subtree is one run of
numbers that ends with its root. The positions 1..n, sorted by the number
of their reach node, make "the positions whose reach lies in v's subtree"
(or is v itself) one slice, and a prefix count of the list's descents
tells in O(1) whether a slice is already ascending. The list's int
objects are created in list order, so a slice copies one contiguous run
of memory rather than node ids scattered in build order; the index's
children entries then take these objects in place of the builder's, and
the two still share one int per node. The run is contiguous because the
builder frees no per-node int before ``augment``, which would leave holes
among the live ints for the new ones to fall into; ints that a caller
freed before can still scatter it. A node with one child is numbered
one above that child, so a run of single-child nodes is a run of numbers;
with the numbering's inverse, the node t numbers below v, its depth and
its subtree size tell in O(1) whether the t nodes below v form one run,
so a matcher can go down it in one step. Only matching reads these, so
the index does not carry them.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, islice
from operator import gt

from .heap import ROOT, PPHIndex, subtree_nodes


class Augmentation:
    """Per-position reach ranks plus reversed-preorder intervals for one index.

    ``post`` (a node's number in reversed ``preorder``, so that each subtree
    is one run ending with its root) and ``subtree_size`` are indexed by
    node id; ``order`` is the inverse of ``post``, the node with each
    number. ``order[post[v] - k]`` for k = 1, 2, ... are the nodes after v
    in preorder: v's first child, its first child, and so on while the
    depth rises by one per step. ``rank[p]`` is ``post`` of position p's
    reach node, for p = 1..n; ``rank[0]`` is 0, padding that no interval
    test may read (0 numbers the last node in preorder). p reaches into v's
    subtree exactly when ``post[v] - subtree_size[v] < rank[p] <= post[v]``.
    ``by_reach`` lists the positions 1..n by their reach node's number,
    ascending among equals; the positions whose reach has number k are
    ``by_reach[reach_start[k]:reach_start[k + 1]]``, so those reaching into
    a subtree are one slice. ``descents[k]`` counts the steps down in
    ``by_reach[:k + 1]``, so a nonempty slice ``[a, b)`` is ascending
    exactly when ``descents[b - 1] == descents[a]``. All but ``by_reach``
    are ``array('i')``; ``order`` takes 4 B per node. The reach pointers
    themselves (``compute_mrp``) are not kept. ``by_reach`` is a list, so a
    slice of it is an answer at once; its int objects are created in its
    order, so each slice reads contiguous memory (``augment`` hands them to
    the index). That holds since the builder frees no per-node int before
    them; a caller's own earlier frees can still scatter them.
    Immutable once built; share it freely together with its index.
    """

    __slots__ = ("post", "order", "subtree_size", "rank", "by_reach",
                 "reach_start", "descents")

    def __init__(self, mrp: array, preorder: list[int], subtree_size: array):
        self.subtree_size = subtree_size
        count = len(preorder)
        self.order = array("i", reversed(preorder))
        post = array("i", [0]) * count
        for k, v in enumerate(reversed(preorder)):
            post[v] = k
        self.post = post
        rank = array("i", map(post.__getitem__, mrp))
        start = array("i", [0]) * (count + 1)
        for k in rank:
            start[k + 1] += 1
        self.reach_start = array("i", accumulate(start))
        # preorder[1:] lists primaries 1..count-1 and the secondaries are
        # count..n. Positions with one reach v are primaries on v's root
        # path, which preorder lists by ascending id, and at most the
        # secondary at v, so the stable sort keeps them ascending.
        rank.insert(0, 0)  # rank[p] belongs to position p
        self.rank = rank
        by_reach = preorder[1:]
        by_reach += range(count, len(mrp) + 1)
        by_reach.sort(key=rank.__getitem__)
        # new ints in list order: an answer's slice reads contiguous memory
        by_reach = array("i", by_reach).tolist()
        self.by_reach = by_reach
        # a secondary's position falls with its node's depth, and reversed
        # preorder lists a root path deepest first, so on deep heaps most
        # subtree slices are ascending already
        self.descents = array("i", accumulate(
            map(gt, by_reach, islice(by_reach, 1, None)), initial=0))


def compute_mrp(idx: PPHIndex) -> array:
    """Reach node for every position 1..n, as a 0-indexed ``array('i')``.

    One left-to-right sweep over the primaries, each resuming from the
    previous reach node's suffix pointer and descending to a leaf, a
    missing child or the end of the text; a leaf's position jumps to the
    leaf itself, the deepest node on its path. A secondary is its own
    node's reach: its path label is its whole suffix.
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
    for i in range(1, len(children)):
        if children[i] is None:
            # cur is on suffix i's path no deeper than leaf i: scan never falls
            cur = i
            scan = i + idx.depths[i]
        # "scan < n" would do as well: cur lies on suffix i's path at depth
        # scan - i, and a node w holds depth(w) <= n - w + 1 labels. An
        # internal i has a child w > i, so depth(i) < n - i; at scan == n
        # cur is i or below it, and a child w of cur would need w > i and
        # depth n - i + 1 > n - w + 1. So cur is a leaf there and the loop
        # breaks below in the state that "scan < n" would leave it in.
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
    return mrp


def preorder_intervals(idx: PPHIndex) -> tuple[list[int], array]:
    """The node ids in preorder, and the subtree sizes by node id.

    The ids are ``subtree_nodes`` of the root (any preorder serves the
    subtree runs); ``Augmentation`` numbers them in reverse. A parent's id
    is below its children's ids, so one backward sweep sums the sizes.
    """
    preorder = subtree_nodes(idx, ROOT)
    count = idx.node_count
    size = array("i", [1]) * count
    parents = idx.parents
    for v in range(count - 1, 0, -1):
        size[parents[v]] += size[v]
    return preorder, size


def augment(idx: PPHIndex) -> Augmentation:
    """Compute the full augmentation (reach pointers and intervals).

    The children entries of ``idx`` then take the int objects of
    ``by_reach``, equal in value, so that the index and the list share one
    int per node and the builder's are freed: the layout costs no memory.
    """
    mrp = compute_mrp(idx)
    preorder, size = preorder_intervals(idx)
    aug = Augmentation(mrp, preorder, size)
    count = idx.node_count
    own = [ROOT] * count  # node id -> its object in by_reach
    for p in aug.by_reach:
        if p < count:
            own[p] = p
    children = idx.children
    for v, kids in enumerate(children):
        if type(kids) is int:
            children[v] = own[kids]
        elif kids:
            for label, w in kids.items():
                kids[label] = own[w]
    return aug
