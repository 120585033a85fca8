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

No edge label is stored. Node v at depth d is created while text symbol
v + d - 1 is read, at parent depth d - 1, so its edge label is that
symbol's prev label re-normalized to a window of length d - 1. A node
with one child stores that child's id, and only a node with two or more
children stores a dict, keyed by these labels; a single child's label is
derived whenever a walk compares it, with ``==``, since token-mode labels
equal by value are distinct ``str`` objects.

Node ids are dense integers into an arena; the root is always id 0. A
virtual auxiliary node sits above the root and accepts every label, which
lets the update loop terminate without special cases. Only matching reads
subtree intervals over the nodes, so the augmentation computes them and
construction never does.
"""

from __future__ import annotations

import copy
from array import array
from typing import Iterable, NamedTuple

from .coding import Alphabet, PrevLabel, PString, Symbol, norm, prev_encode
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
    sequences indexed by node id: ``parents`` (-1 for the root),
    ``depths``, ``children``, ``suffixes`` (BOTTOM for the root);
    ``parents``, ``depths`` and ``suffixes`` are ``array('i')``, and no
    sequence holds spare capacity. The builder keeps parents and depths in
    arrays from the start, so building an index frees no int object per
    node. A ``children`` entry is None for a leaf, the child's id (an
    ``int``) for a node with one child, and a dict label -> child id, in
    creation order and so in ascending id, for a node with two or more;
    ``child_map`` gives any node's children as a dict. A node's incoming
    edge label is not stored: ``edge_label`` derives it from ``prev_text``
    and the depth. Every non-root node v holds primary position v, and its
    parent's id is below v. ``secondaries`` maps the node ids of double nodes to their
    secondary position. Treat a finalized index as read-only; concurrent
    queries over it are safe. ``augment`` swaps the id objects of the
    children entries for equal ones; no value changes.
    """

    __slots__ = ("text", "prev_text", "parents", "depths",
                 "children", "secondaries", "suffixes")

    def __init__(self, text, prev_text, parents, depths,
                 children, secondaries, suffixes):
        self.text: PString = text
        self.prev_text: tuple[PrevLabel, ...] = prev_text
        self.parents: array = parents
        self.depths: array = depths
        self.children: list[int | dict | None] = children
        self.secondaries: dict[int, int] = secondaries
        self.suffixes: array = suffixes

    @property
    def alphabet(self) -> Alphabet:
        return self.text.alphabet

    @property
    def n(self) -> int:
        return len(self.text)

    @property
    def node_count(self) -> int:
        return len(self.parents)

    def _check(self, v: int) -> None:
        if not 0 <= v < len(self.parents):
            raise InvalidNode(v)

    def edge_label(self, v: int) -> PrevLabel:
        """Label of the edge into non-root node v, derived from prev_text."""
        d = self.depths[v]
        return norm(self.prev_text[v + d - 2], d - 1)

    def child_map(self, v: int) -> dict[PrevLabel, int]:
        """A new dict of v's children, label -> child id, in creation order."""
        self._check(v)
        kids = self.children[v]
        if kids is None:
            return {}
        if type(kids) is int:
            return {self.edge_label(kids): kids}
        return dict(kids)

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
            out.append(self.edge_label(v))
            v = self.parents[v]
        out.reverse()
        return tuple(out)

    def stats(self) -> IndexStats:
        return IndexStats(
            n=self.n,
            node_count=self.node_count,
            double_count=len(self.secondaries),
            max_depth=max(self.depths),
        )


class Builder:
    """Single-owner online builder: extend by raw symbols, then finalize.

    Each symbol is prev-encoded inline, from the last position that held
    each parameter. After k symbols, suffix start positions below the
    active position already sit at their permanent node as primaries;
    positions from the active position through k are pending and get
    materialized as secondary positions by finalize(). finalize() consumes
    the builder; snapshot() finalizes a copy so the stream can continue.
    The arena holds a slot for the root and for each position read, since
    node v is created for position v; the slots from the active position
    on hold no node yet, and finalize() copies the others. Parents and
    depths are ``array('i')`` from the start, and the int objects in the
    other lists, node ids and labels, pass to the index, so finalize()
    frees none. A list of depths, one int object each above 256, would be
    freed there and leave holes among the index's node ids that the ints
    of ``augment``'s reach-ordered list then fall into.
    """

    __slots__ = ("alphabet", "_last", "_symbols", "_prev", "_parents",
                 "_depths", "_children", "_suffixes",
                 "_active_node", "_active_pos", "_done")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._last: dict[Symbol, int] = {}  # parameter -> last position holding it
        self._symbols: list[Symbol] = []
        self._prev: list[PrevLabel] = []
        # arena with the root node only
        self._parents = array("i", [-1])
        self._depths = array("i", [0])
        self._children: list[int | dict | None] = [None]
        self._suffixes: list[int] = [BOTTOM]
        self._active_node = ROOT
        self._active_pos = 1
        self._done = False

    @property
    def suffix_steps(self) -> int:
        """Total suffix-pointer traversals so far: one per created node."""
        return self._active_pos - 1

    def extend(self, symbols: Iterable[Symbol]) -> None:
        """Consume raw symbols in order, updating the heap for each longer text.

        Each symbol is prev-encoded, then new nodes are hung along suffix
        pointers from the active node until one already has the child. The
        symbols are appended at once, each as its own label, and a
        parameter's label is overwritten as it is read; the arena grows
        once, by a slot per symbol, and the nodes are written into their
        slots. The loop keeps the builder's state in locals and writes it
        back on the way out, so an undeclared symbol raises UnknownSymbol
        naming its position with the symbols before it consumed and nothing
        of its own recorded, its slot and the later ones included.
        """
        if self._done:
            raise RuntimeError("builder already finalized")
        is_param_of = self.alphabet._is_param
        last_at = self._last
        syms = self._symbols
        prev = self._prev
        parents = self._parents
        depths = self._depths
        children = self._children
        suffixes = self._suffixes
        k = len(syms)
        node = self._active_node
        spos = self._active_pos
        try:
            new = tuple(symbols)  # no copy of a tuple, as build_index passes
            syms += new
            prev += new
            room = len(new)
            zeros = bytes(room * parents.itemsize)
            parents.frombytes(zeros)
            depths.frombytes(zeros)
            children += [None] * room
            suffixes += [BOTTOM] * room
            d = depths[node]  # the active node's depth
            for sym in new:
                try:
                    is_param = is_param_of[sym]
                except KeyError:
                    raise UnknownSymbol(sym, k + 1) from None
                k += 1
                label = sym
                if is_param:
                    label = k - last_at.get(sym, k)
                    last_at[sym] = k
                    prev[k - 1] = label

                # The node created for position spos gets id spos, and its
                # suffix pointer is the next node created in this chain, or
                # the node that ends the chain: each suffix entry is written
                # one node late. d is cur's depth; -1 is the virtual node,
                # which accepts every label. A single child w of cur has
                # the label prev[w + d - 1], re-normalized to d.
                first = spos
                cur = node
                c = 0 if is_param and label > d else label
                while d >= 0:
                    kids = children[cur]
                    if kids is None:
                        children[cur] = spos
                    elif type(kids) is int:
                        e = prev[kids + d - 1]
                        if type(e) is int and e > d:
                            e = 0
                        if e == c:
                            nxt = kids
                            break
                        children[cur] = {e: kids, c: spos}
                    else:
                        nxt = kids.get(c)
                        if nxt is not None:
                            break
                        kids[c] = spos
                    parents[spos] = cur
                    depths[spos] = d + 1
                    if spos > first:
                        suffixes[spos - 1] = spos
                    spos += 1
                    cur = suffixes[cur]
                    d -= 1
                    if is_param and label > d:
                        c = 0
                else:
                    nxt = ROOT
                if spos > first:
                    suffixes[spos - 1] = nxt
                node = nxt
                d += 1  # nxt's depth
        finally:
            self._active_node = node
            self._active_pos = spos
            if len(syms) > k:
                del syms[k:], prev[k:]
                del parents[k + 1:], depths[k + 1:], children[k + 1:], suffixes[k + 1:]

    def finalize(self) -> PPHIndex:
        """Assign the pending secondary positions and freeze the arena.

        Hands over exact-size copies of the arena's nodes and a tuple of
        each per-symbol list. The copies create and free no int object.
        Consumes the builder; further extends raise.
        """
        if self._done:
            raise RuntimeError("builder already finalized")
        self._done = True
        count = self._active_pos
        suffixes = self._suffixes
        del suffixes[count:]
        secondaries: dict[int, int] = {}
        cur = self._active_node
        for spos in range(count, len(self._symbols) + 1):
            secondaries[cur] = spos
            cur = suffixes[cur]
        text = PString(tuple(self._symbols), self.alphabet)
        return PPHIndex(text, tuple(self._prev), self._parents[:count],
                        self._depths[:count], self._children[:count],
                        secondaries, array("i", suffixes))

    def snapshot(self) -> PPHIndex:
        """Finalize a copy, leaving this builder usable mid-stream.

        finalize() trims the suffix list in place and copies the children
        list but not the dicts in it, which later extends mutate in place,
        so these are copied here. Raises like finalize() once the builder
        is finalized.
        """
        dup = copy.copy(self)
        dup._suffixes = self._suffixes[:]
        dup._children = [d.copy() if type(d) is dict else d for d in self._children]
        return dup.finalize()


def subtree_nodes(idx: PPHIndex, u: int) -> list[int]:
    """The node ids of u's subtree in preorder, u first.

    One stack walk, children in dict order, reading ``children[x]`` once
    per node; a single child is visited next without a stack push. The
    entries past u are the int objects the children entries hold, so
    slicing the list creates no ints.
    """
    children = idx.children
    out: list[int] = []
    add = out.append
    stack = [u]
    while stack:
        x = stack.pop()
        add(x)
        kids = children[x]
        while type(kids) is int:
            add(kids)
            kids = children[kids]
        if kids:
            stack.extend(kids.values())
    return out


def build_index(text: PString) -> PPHIndex:
    """Build the finalized index for a whole p-string in one call."""
    b = Builder(text.alphabet)
    b.extend(text.symbols)
    return b.finalize()


def audit_index(idx: PPHIndex) -> None:
    """Verify the structural invariants; raise StructuralError on violation.

    Each invariant is checked once: ``prev_text`` is the prev-encoding of
    ``text``; the root is well formed; every other node v sits one below an
    earlier parent, at a depth d with v + d - 1 <= n, registered there under
    its derived edge label, and the children entries hold just these
    registrations, a single child as its id and a dict only for two or more;
    the secondaries are positions node_count..n at non-root nodes, so, as
    node v holds primary v, each position is stored once; v's suffix pointer
    u has depth d - 1 and, for d >= 2, hangs from the parent's suffix pointer
    under v's label re-normalized to d - 2, so by induction on depth u's path
    label is v's with the first label dropped and re-normalized; and each
    stored position's window spells its node's path label, re-normalized, a
    secondary's window being its whole suffix. One root-path walk per node:
    for tests and self-checks, not query paths.
    """
    problems: list[str] = []
    n = idx.n
    count = idx.node_count
    prev_text = idx.prev_text

    if prev_text != prev_encode(idx.text):
        problems.append("prev_text is not the prev-encoding of text")
        if len(prev_text) != n:
            # the label checks below read prev_text at positions up to n
            raise StructuralError(problems[0])
    if idx.depths[ROOT] != 0 or idx.parents[ROOT] != -1:
        problems.append("malformed root node")
    if idx.suffixes[ROOT] != BOTTOM:
        problems.append("root suffix pointer must be the virtual node")

    for v in range(1, count):
        p = idx.parents[v]
        if not 0 <= p < v:
            problems.append(f"node {v}: parent {p} is not an earlier node")
            continue
        d = idx.depths[v]
        if d != idx.depths[p] + 1:
            problems.append(f"node {v}: depth {d} != depth(parent)+1")
        elif v + d - 1 > n:
            problems.append(f"node {v}: depth {d} runs past the end of the text")
        else:
            kids = idx.children[p]
            if type(kids) is int:
                registered = kids == v
            else:
                registered = type(kids) is dict and kids.get(idx.edge_label(v)) == v
            if not registered:
                problems.append(f"node {v}: not registered under its label at parent {p}")
    edge_total = 0
    for v, kids in enumerate(idx.children):
        if type(kids) is int:
            edge_total += 1
            if not 0 < kids < count or idx.parents[kids] != v:
                problems.append(f"node {v}: single child {kids} is not a child of it")
        elif type(kids) is dict:
            edge_total += len(kids)
            if len(kids) < 2:
                problems.append(f"node {v}: children dict of size {len(kids)}; "
                                "a single child is stored as its id")
    if edge_total != count - 1:
        problems.append(f"children entries hold {edge_total} edges for {count} nodes")
    if (sorted(idx.secondaries.values()) != list(range(count, n + 1))
            or not all(0 < v < count for v in idx.secondaries)):
        problems.append(f"secondary positions are not {count}..{n} at nodes 1..{count - 1}")
    if problems:
        # the checks below walk parent chains and derive labels from depths
        raise StructuralError("; ".join(problems))

    for v in range(1, count):
        d = idx.depths[v]
        u = idx.suffixes[v]
        if not 0 <= u < count:
            problems.append(f"node {v}: suffix pointer {u} out of range")
        elif idx.depths[u] != d - 1:
            problems.append(f"node {v}: suffix pointer does not drop depth by one")
        elif d >= 2 and (idx.parents[u] != idx.suffixes[idx.parents[v]]
                         or idx.edge_label(u) != norm(idx.edge_label(v), d - 2)):
            problems.append(f"node {v}: suffix pointer label law broken")
        path = idx.path_label(v)
        for pos in idx.positions_at(v):
            if pos + d - 1 > n:
                problems.append(f"node {v}: position {pos} path label overruns text")
                continue
            for j, c in enumerate(path):
                if c != norm(prev_text[pos + j - 1], j):
                    problems.append(
                        f"node {v}: position {pos} label mismatch at offset {j}")
                    break
        spos = idx.secondaries.get(v)
        if spos is not None and d != n - spos + 1:
            problems.append(f"node {v}: secondary {spos} does not span its suffix")

    if problems:
        raise StructuralError("; ".join(problems))
