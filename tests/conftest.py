"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from ppheap.augment import Augmentation, augment, preorder_intervals
from ppheap.coding import Alphabet, make_alphabet, parse_pstring
from ppheap.heap import ROOT, Builder, PPHIndex, audit_index, subtree_nodes


@pytest.fixture
def ab_uvxy() -> Alphabet:
    """Constants {a, b}, parameters {u, v, x, y}."""
    return make_alphabet(list("ab"), list("uvxy"))


@pytest.fixture
def a_xy() -> Alphabet:
    """Constants {a}, parameters {x, y}."""
    return make_alphabet(["a"], ["x", "y"])


def build_audited(raw, alphabet: Alphabet) -> PPHIndex:
    """Build an index from raw symbols, auditing its invariants."""
    text = parse_pstring(raw, alphabet)
    b = Builder(alphabet)
    for s in text:
        b.extend((s,))
    idx = b.finalize()
    audit_index(idx)
    return idx


def build_augmented(raw, alphabet: Alphabet) -> tuple[PPHIndex, Augmentation]:
    idx = build_audited(raw, alphabet)
    return idx, augment(idx)


def check_preorder(idx: PPHIndex, aug: Augmentation) -> None:
    """Assert that the preorder of ``preorder_intervals`` lists every node
    id once, root first, that ``aug.post`` inverts its reverse and
    ``aug.order`` is it, that each node's run of the reverse,
    ``aug.subtree_size`` long and ending at the node's own number, holds
    exactly the node's descendants by parent chain, that the run is what
    ``subtree_nodes`` lists, reversed, so the bare-heap and augmented
    matchers see one subtree listing, and that the matcher's run test
    holds for the r single-child steps below each node and fails for
    r + 1 where the subtree is large enough to ask."""
    count = idx.node_count
    order, _ = preorder_intervals(idx)
    assert order[0] == ROOT
    assert sorted(order) == list(range(count))
    rev = order[::-1]
    assert list(aug.order) == rev
    below: list[set[int]] = [set() for _ in range(count)]
    for w in range(count):
        v = w
        below[v].add(w)
        while v != ROOT:
            v = idx.parents[v]
            below[v].add(w)
    for v in range(count):
        hi = aug.post[v] + 1
        assert rev[hi - 1] == v
        size = aug.subtree_size[v]
        assert size == len(below[v]) and hi - size >= 0
        assert set(rev[hi - size:hi]) == below[v]
        assert subtree_nodes(idx, v)[::-1] == rev[hi - size:hi]
        steps, kids = 0, idx.child_map(v)
        while len(kids) == 1:
            steps += 1
            [w] = kids.values()
            kids = idx.child_map(w)
        assert on_one_run(idx, aug, v, steps)
        if steps + 1 < size:
            assert not on_one_run(idx, aug, v, steps + 1)


def on_one_run(idx: PPHIndex, aug: Augmentation, v: int, t: int) -> bool:
    """The run test of ``matching.segment_walk``: the t nodes below v in
    reversed preorder are t single-child steps down from v."""
    below = aug.subtree_size[v] - t
    if below <= 0:
        return False
    w = aug.order[aug.post[v] - t]
    return idx.depths[w] == idx.depths[v] + t and aug.subtree_size[w] == below


def random_text(rng: random.Random, alphabet: Alphabet, max_n: int,
                min_n: int = 0) -> list[str]:
    syms = list(alphabet.constants + alphabet.parameters)
    n = rng.randint(min_n, max_n)
    return rng.choices(syms, k=n) if n else []


TOKEN_ALPHABET = make_alphabet(["for", "in", "print"], ["alpha", "beta", "gamma"])


def token_text(rng: random.Random, n: int) -> tuple[list[str], Alphabet]:
    """A random token-mode text of n tokens, split from one string, so
    equal tokens are distinct str objects, with its alphabet."""
    tokens = rng.choices(TOKEN_ALPHABET.constants + TOKEN_ALPHABET.parameters, k=n)
    return " ".join(tokens).split(), TOKEN_ALPHABET


def walk(idx: PPHIndex, labels) -> int | None:
    """Node reached by following the given edge labels from the root, or None."""
    v = ROOT
    for c in labels:
        v = idx.child_map(v).get(c)
        if v is None:
            return None
    return v


class CountingLabels:
    """A sequence that counts its reads: one per item read, and a slice's
    length per slice, which ``slices`` also lists."""

    def __init__(self, labels):
        self.labels = labels
        self.reads = 0
        self.slices: list[int] = []

    def __getitem__(self, i):
        got = self.labels[i]
        if type(i) is slice:
            self.reads += len(got)
            self.slices.append(len(got))
        else:
            self.reads += 1
        return got

    def __len__(self):
        return len(self.labels)
