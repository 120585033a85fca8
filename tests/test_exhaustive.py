"""Bounded-exhaustive checks: every small text, every window as a pattern.

Random texts, hypothesis's and the selftest's, rarely reach some bounds of
the matcher, such as the last segment's subtree interval; every text up to
a small length reaches them (the small scope hypothesis: Andoni,
Daniliuc, Khurshid & Marinov, 2003). For each text over four small
alphabets the index is audited and compared with the brute-force heap and
reach pointers, and every window of the text and every one-symbol change
of a window is matched, with and without the augmentation, against
``naive_match``.
"""

from __future__ import annotations

from itertools import product

import pytest

from ppheap.augment import augment, compute_mrp
from ppheap.coding import make_alphabet, parse_pstring
from ppheap.heap import audit_index, build_index
from ppheap.matching import match_pattern
from ppheap.oracle import naive_match, naive_mrp, naive_pph, trees_equal


def patterns(text: tuple[str, ...], syms: str) -> set[tuple[str, ...]]:
    """Every window of the text and every change of one symbol in one."""
    found = set()
    for i in range(len(text)):
        for j in range(i + 1, len(text) + 1):
            window = text[i:j]
            found.add(window)
            for k in range(len(window)):
                for s in syms:
                    found.add(window[:k] + (s,) + window[k + 1:])
    return found


@pytest.mark.parametrize("constants,parameters,max_n", [
    ("ab", "", 9),
    ("a", "x", 9),
    ("", "xy", 9),
    ("ab", "x", 7),
])
def test_every_text_and_window(constants, parameters, max_n):
    alphabet = make_alphabet(list(constants), list(parameters))
    syms = constants + parameters
    for n in range(max_n + 1):
        for raw in product(syms, repeat=n):
            where = f"text {''.join(raw) or '(empty)'}"
            text = parse_pstring(raw, alphabet)
            idx = build_index(text)
            audit_index(idx)
            assert trees_equal(idx, naive_pph(text)), where
            assert list(compute_mrp(idx)) == [naive_mrp(idx, i) for i in range(1, n + 1)], where
            aug = augment(idx)
            for p in sorted(patterns(raw, syms)):
                pattern = parse_pstring(p, alphabet)
                want = naive_match(text, pattern)
                got = match_pattern(idx, aug, pattern)
                bare = match_pattern(idx, None, pattern)
                assert got == want and bare == want, (
                    f"{where}, pattern {''.join(p)}: augmented {got}, "
                    f"bare {bare}, naive {want}")


@pytest.mark.parametrize("constants,parameters,text,pattern,answer", [
    # the last segment's subtree interval: its upper end is outside it
    ("ab", "", "abaababb", "ababb", [4]),
    ("a", "x", "axaxaaaa", "axaaa", [3]),
    ("", "xy", "xxxyxyy", "yyxyy", []),
    ("ab", "", "aaabbba", "aabab", []),
], ids=["abaababb-ababb", "axaxaaaa-axaaa", "xxxyxyy-yyxyy", "aaabbba-aabab"])
def test_known_answers(constants, parameters, text, pattern, answer):
    alphabet = make_alphabet(list(constants), list(parameters))
    t = parse_pstring(text, alphabet)
    p = parse_pstring(pattern, alphabet)
    idx = build_index(t)
    assert naive_match(t, p) == answer
    assert match_pattern(idx, augment(idx), p) == answer
    assert match_pattern(idx, None, p) == answer
