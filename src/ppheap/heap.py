"""Online construction of the parameterized position heap.

The index is a trie over prev-encoding labels. Each non-root node stores
one or two suffix start positions: the primary position marks the suffix
whose insertion created the node, and a secondary position marks a suffix
whose entire encoding equals the node's path label. Nodes are created one
per primary position, in position order, so node v's primary position is v
itself and no per-node position list is kept. Construction is online:
reading one more text symbol extends the structure by walking suffix
pointers from the active node, where the suffix pointer of the node for
some window links to the node for that window with its first symbol
dropped (labels re-normalized for the shorter window).

Node ids are dense integers into an arena; the root is always id 0. A
virtual auxiliary node sits above the root and accepts every label, which
lets the update loop terminate without special cases.
"""

from __future__ import annotations

from array import array
from typing import Iterable, NamedTuple, Optional

from .coding import Alphabet, PrevLabel, PString, Symbol, norm
from .errors import InvalidNode, StructuralError, UnknownSymbol

ROOT = 0
BOTTOM = -1  # virtual parent of the root; child(BOTTOM, c) == ROOT for every c


class IndexStats(NamedTuple):
    n: int
    node_count: int
    double_count: int
    max_depth: int


class PPHIndex:
    """Finalized, immutable position-heap index over a p-string text.

    ``text`` is the indexed p-string (raw symbols plus the alphabet) and
    ``prev_text`` its prev-encoding. The arena is held as parallel per-node
    sequences indexed by node id: ``parents`` (-1 for the root), ``labels``
    (incoming edge label, None for the root), ``depths``, ``children`` (dict
    label -> child id, or None for a leaf), ``suffixes`` (BOTTOM for the
    root); ``parents``, ``depths`` and ``suffixes`` are ``array('i')``.
    Every non-root node v holds primary position v. ``secondaries`` maps
    the node ids of double nodes to their secondary position. ``preorder``
    lists the node ids in one preorder, root first, so every subtree is one
    contiguous run of it and, because node v holds position v, that run is
    also the subtree's primary positions. Treat a finalized index as
    read-only; concurrent queries over it are safe.
    """

    __slots__ = ("alphabet", "text", "prev_text", "parents", "labels",
                 "depths", "children", "secondaries", "suffixes", "preorder")

    def __init__(self, alphabet, text, prev_text, parents, labels, depths,
                 children, secondaries, suffixes, preorder):
        self.alphabet: Alphabet = alphabet
        self.text: PString = text
        self.prev_text: tuple[PrevLabel, ...] = prev_text
        self.parents: array = parents
        self.labels: list[Optional[PrevLabel]] = labels
        self.depths: array = depths
        self.children: list[Optional[dict]] = children
        self.secondaries: dict[int, int] = secondaries
        self.suffixes: array = suffixes
        self.preorder: list[int] = preorder

    @property
    def n(self) -> int:
        return len(self.text)

    @property
    def node_count(self) -> int:
        return len(self.parents)

    def _check(self, v: int) -> None:
        if not 0 <= v < len(self.parents):
            raise InvalidNode(v)

    def child(self, v: int, label: PrevLabel) -> Optional[int]:
        """Child of v under the given label, or None when absent."""
        self._check(v)
        kids = self.children[v]
        return None if kids is None else kids.get(label)

    def children_items(self, v: int) -> list[tuple[PrevLabel, int]]:
        """(label, child) pairs of v in the deterministic label order."""
        self._check(v)
        kids = self.children[v]
        if not kids:
            return []
        key = self.alphabet.label_key
        return sorted(kids.items(), key=lambda kv: key(kv[0]))

    def positions_at(self, v: int) -> list[int]:
        """Positions stored at v, primary first."""
        self._check(v)
        out = [] if v == ROOT else [v]
        s = self.secondaries.get(v)
        if s is not None:
            out.append(s)
        return out

    def path_label(self, v: int) -> tuple[PrevLabel, ...]:
        """Concatenated edge labels from the root down to v."""
        self._check(v)
        out = []
        while v != ROOT:
            out.append(self.labels[v])
            v = self.parents[v]
        out.reverse()
        return tuple(out)

    def node_at(self, prev: tuple) -> Optional[int]:
        """Node reached by walking the given labels from the root, or None."""
        v = ROOT
        for c in prev:
            kids = self.children[v]
            v = None if kids is None else kids.get(c)
            if v is None:
                return None
        return v

    def stats(self) -> IndexStats:
        return IndexStats(
            n=self.n,
            node_count=self.node_count,
            double_count=len(self.secondaries),
            max_depth=max(self.depths) if self.depths else 0,
        )


class Builder:
    """Single-owner online builder: push raw symbols, then finalize.

    Each pushed symbol is prev-encoded inline, from the last position that
    held each parameter. After k pushed symbols, suffix start positions
    below the active position already sit at their permanent node as
    primaries; positions from the active position through k are pending and
    get materialized as secondary positions by finalize(). finalize()
    consumes the builder; snapshot() finalizes a copy so the stream can
    continue.
    """

    __slots__ = ("alphabet", "_last", "_symbols", "_prev", "_parents",
                 "_labels", "_depths", "_children", "_suffixes",
                 "_active_node", "_active_pos", "_k", "_done")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._last: dict[Symbol, int] = {}  # parameter -> last position holding it
        self._symbols: list[Symbol] = []
        self._prev: list[PrevLabel] = []
        # arena with the root node only
        self._parents: list[int] = [-1]
        self._labels: list[Optional[PrevLabel]] = [None]
        self._depths: list[int] = [0]
        self._children: list[Optional[dict]] = [None]
        self._suffixes: list[int] = [BOTTOM]
        self._active_node = ROOT
        self._active_pos = 1
        self._k = 0
        self._done = False

    @property
    def size(self) -> int:
        """Number of symbols consumed so far."""
        return self._k

    @property
    def active_position(self) -> int:
        return self._active_pos

    @property
    def active_node(self) -> int:
        return self._active_node

    @property
    def suffix_steps(self) -> int:
        """Total suffix-pointer traversals so far: one per created node."""
        return len(self._parents) - 1

    def push(self, sym: Symbol) -> None:
        """Consume one raw symbol; the same as ``extend((sym,))``."""
        self.extend((sym,))

    def extend(self, symbols: Iterable[Symbol]) -> None:
        """Consume raw symbols in order, updating the heap for each longer text.

        Each symbol is prev-encoded, then new nodes are hung along suffix
        pointers from the active node until one already has the child. The
        loop keeps the builder's state in locals and writes it back on the
        way out, so an undeclared symbol raises UnknownSymbol naming its
        position with the symbols before it consumed and nothing of its own
        recorded.
        """
        if self._done:
            raise RuntimeError("builder already finalized")
        is_param_of = self.alphabet._is_param
        last_at = self._last
        add_symbol = self._symbols.append
        add_label = self._prev.append
        add_parent = self._parents.append
        add_edge_label = self._labels.append
        add_depth = self._depths.append
        add_children = self._children.append
        add_suffix = self._suffixes.append
        depths = self._depths
        children = self._children
        suffixes = self._suffixes
        k = self._k
        node = self._active_node
        spos = self._active_pos
        try:
            for sym in symbols:
                try:
                    is_param = is_param_of[sym]
                except KeyError:
                    raise UnknownSymbol(sym, k + 1) from None
                k += 1
                label = sym
                if is_param:
                    label = k - last_at.get(sym, k)
                    last_at[sym] = k
                add_symbol(sym)
                add_label(label)

                # The node created for position spos gets id spos, and its
                # suffix pointer is the next node created in this chain, or
                # the node that ends the chain: each suffix entry is appended
                # one node late. d is cur's depth; -1 is the virtual node,
                # which accepts every label.
                first = spos
                cur = node
                d = depths[cur]
                c = 0 if is_param and label > d else label
                while d >= 0:
                    kids = children[cur]
                    if kids is None:
                        children[cur] = {c: spos}
                    else:
                        nxt = kids.get(c)
                        if nxt is not None:
                            break
                        kids[c] = spos
                    add_parent(cur)
                    add_edge_label(c)
                    add_depth(d + 1)
                    add_children(None)
                    if spos > first:
                        add_suffix(spos)
                    spos += 1
                    cur = suffixes[cur]
                    d -= 1
                    if is_param and label > d:
                        c = 0
                else:
                    nxt = ROOT
                if spos > first:
                    add_suffix(nxt)
                node = nxt
        finally:
            self._k = k
            self._active_node = node
            self._active_pos = spos

    def finalize(self) -> PPHIndex:
        """Assign the pending secondary positions and freeze the arena.

        Also lists the nodes in preorder (children in dict order; any
        preorder serves the subtree-run lookups) and packs the integer
        arrays. Consumes the builder; further pushes raise.
        """
        if self._done:
            raise RuntimeError("builder already finalized")
        self._done = True
        secondaries: dict[int, int] = {}
        cur = self._active_node
        spos = self._active_pos
        suffixes = self._suffixes
        while spos <= self._k:
            secondaries[cur] = spos
            cur = suffixes[cur]
            spos += 1
        children = self._children
        preorder: list[int] = []
        stack = [ROOT]
        while stack:
            v = stack.pop()
            preorder.append(v)
            kids = children[v]
            if kids:
                stack.extend(kids.values())
        text = PString(tuple(self._symbols), self.alphabet)
        return PPHIndex(self.alphabet, text, tuple(self._prev),
                        array("i", self._parents), self._labels,
                        array("i", self._depths), children, secondaries,
                        array("i", suffixes), preorder)

    def snapshot(self) -> PPHIndex:
        """Finalize a deep copy, leaving this builder usable mid-stream."""
        dup = Builder.__new__(Builder)
        dup.alphabet = self.alphabet
        dup._last = dict(self._last)
        dup._symbols = list(self._symbols)
        dup._prev = list(self._prev)
        dup._parents = list(self._parents)
        dup._labels = list(self._labels)
        dup._depths = list(self._depths)
        dup._children = [dict(d) if d is not None else None for d in self._children]
        dup._suffixes = list(self._suffixes)
        dup._active_node = self._active_node
        dup._active_pos = self._active_pos
        dup._k = self._k
        dup._done = False
        return dup.finalize()


def build_index(text: PString) -> PPHIndex:
    """Build the finalized index for a whole p-string in one call."""
    b = Builder(text.alphabet)
    b.extend(text.symbols)
    return b.finalize()


def audit_index(idx: PPHIndex) -> None:
    """Verify the structural invariants; raise StructuralError on violation.

    Covers arena coherence (parent/child/label/depth agreement), the node
    count bound, the exactly-once position partition, the secondary suffix
    interval, primary < secondary at double nodes, the preorder (a
    permutation from the root with every subtree one run), the suffix-pointer
    re-normalization law, and agreement of every stored position's path
    label with the re-normalized global encoding. Cost grows with total
    path length; intended for tests and self-checks, not query paths.
    """
    problems: list[str] = []
    n = idx.n
    count = idx.node_count
    prev_text = idx.prev_text

    if count > n + 1:
        problems.append(f"node count {count} exceeds n+1 = {n + 1}")
    if idx.depths[ROOT] != 0 or idx.parents[ROOT] != -1 or idx.labels[ROOT] is not None:
        problems.append("malformed root node")
    if idx.suffixes[ROOT] != BOTTOM:
        problems.append("root suffix pointer must be the virtual node")

    for v in range(1, count):
        p = idx.parents[v]
        if not 0 <= p < count:
            problems.append(f"node {v}: parent {p} out of range")
            continue
        if idx.depths[v] != idx.depths[p] + 1:
            problems.append(f"node {v}: depth {idx.depths[v]} != depth(parent)+1")
        kids = idx.children[p]
        if kids is None or kids.get(idx.labels[v]) != v:
            problems.append(f"node {v}: not registered under its label at parent {p}")
    edge_total = sum(len(d) for d in idx.children if d)
    if edge_total != count - 1:
        problems.append(f"children maps hold {edge_total} edges for {count} nodes")

    # position partition: every position 1..n stored exactly once, where
    # node v holds primary position v
    seen: dict[int, int] = {}
    if ROOT in idx.secondaries:
        problems.append("root must hold no positions")
    for v in range(1, count):
        for pos in idx.positions_at(v):
            if pos in seen:
                problems.append(f"position {pos} stored at nodes {seen[pos]} and {v}")
            seen[pos] = v
    missing = [i for i in range(1, n + 1) if i not in seen]
    if missing:
        problems.append(f"positions never stored: {missing[:8]}")

    secs = sorted(idx.secondaries.values())
    if secs and secs != list(range(secs[0], n + 1)):
        problems.append(f"secondary positions {secs} are not a suffix interval")
    for v, spos in idx.secondaries.items():
        if v >= spos:
            problems.append(f"node {v}: primary {v} not below secondary {spos}")
    if count != n + 1 - len(idx.secondaries):
        problems.append("node count does not equal n + 1 - double nodes")

    # preorder: a permutation of the nodes, root first, in which every
    # subtree is the contiguous run that starts at its root. Parents precede
    # children in id order, so sizes come from one backward sweep; then each
    # child's run nested inside its parent's run, with distinct ranks,
    # forces every subtree to fill its run exactly.
    order = idx.preorder
    rank = [-1] * count
    for k, v in enumerate(order):
        if not (type(v) is int and 0 <= v < count) or rank[v] >= 0:
            problems.append(f"preorder entry {k} ({v!r}) is not a fresh node id")
            break
        rank[v] = k
    else:
        late = [v for v in range(1, count) if not 0 <= idx.parents[v] < v]
        if len(order) != count:
            problems.append(f"preorder lists {len(order)} of {count} nodes")
        elif order[0] != ROOT:
            problems.append("preorder does not start at the root")
        elif late:
            problems.append(f"nodes {late[:8]} do not come after their parent")
        else:
            size = [1] * count
            for v in range(count - 1, 0, -1):
                size[idx.parents[v]] += size[v]
            for v in range(1, count):
                p = idx.parents[v]
                if not rank[p] < rank[v] <= rank[p] + size[p] - size[v]:
                    problems.append(
                        f"node {v}: preorder run not inside its parent's run")

    # suffix-pointer law: dropping the first symbol re-normalizes the rest
    for v in range(1, count):
        u = idx.suffixes[v]
        if not 0 <= u < count:
            problems.append(f"node {v}: suffix pointer {u} out of range")
            continue
        if idx.depths[u] != idx.depths[v] - 1:
            problems.append(f"node {v}: suffix pointer does not drop depth by one")
            continue
        x = idx.path_label(v)
        y = idx.path_label(u)
        for j in range(len(y)):
            if y[j] != norm(x[j + 1], j):
                problems.append(f"node {v}: suffix pointer label law broken at {j}")
                break

    # stored positions: path label must equal the window's re-normalized encoding,
    # and a secondary's path label must cover its entire remaining text
    for v in range(1, count):
        path = idx.path_label(v)
        for pos in idx.positions_at(v):
            if pos + len(path) - 1 > n:
                problems.append(f"node {v}: position {pos} path label overruns text")
                continue
            for j, c in enumerate(path):
                if c != norm(prev_text[pos + j - 1], j):
                    problems.append(
                        f"node {v}: position {pos} label mismatch at offset {j}")
                    break
        spos = idx.secondaries.get(v)
        if spos is not None and len(path) != n - spos + 1:
            problems.append(f"node {v}: secondary {spos} does not span its suffix")

    if problems:
        raise StructuralError("; ".join(problems))
