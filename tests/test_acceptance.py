"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines as they happen.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from ppheap.augment import augment, compute_mrp
from ppheap.coding import make_alphabet, norm, parse_pstring, prev_encode
from ppheap.heap import audit_index, build_index
from ppheap.matching import match_pattern
from ppheap.oracle import (
    naive_match,
    naive_mrp,
    naive_pph,
    naive_sequence_hash_tree,
    trees_equal,
)
from ppheap.selftest import letters_alphabet
from ppheap.storage import IndexBundle, dumps, loads


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL {description}")
        raise
    print(f"[criterion {num}] PASS {description}")


def build_augmented(raw, alphabet):
    idx = build_index(parse_pstring(raw, alphabet))
    audit_index(idx)
    return idx, augment(idx)


def test_criterion_1_prev_encoding_fixture():
    with criterion(1, "prev-encoding of the two example strings is 0 0 2 2 a 3 1 4 b"):
        alpha = make_alphabet(list("ab"), list("uvxy"))
        expected = (0, 0, 2, 2, "a", 3, 1, 4, "b")
        w1 = parse_pstring("uvuvauuvb", alpha)
        w2 = parse_pstring("xyxyaxxyb", alpha)
        prev_encode(w1)  # warm-up outside the timed window
        started = time.perf_counter()
        got1 = prev_encode(w1)
        got2 = prev_encode(w2)
        elapsed = time.perf_counter() - started
        assert got1 == expected
        assert got2 == expected
        assert elapsed < 0.001, f"encoding took {elapsed * 1000:.3f} ms"


def test_criterion_2_matching_fixtures():
    with criterion(2, "the three known-answer matching fixtures give their exact sets"):
        cases = [
            (list("ab"), list("uvxy"), "uvaubuavbv", "xayby", [2, 6]),
            (["a"], ["x", "y"], "xaxyxyxyyaxyxy", "xyxy", [3, 4, 5, 11]),
            (["a"], ["x", "y"], "xaxyxyxyyaxyxy", "axyx", [2, 10]),
        ]
        for constants, parameters, text_raw, pattern_raw, expected in cases:
            alpha = make_alphabet(constants, parameters)
            idx, aug = build_augmented(text_raw, alpha)
            pattern = parse_pstring(pattern_raw, alpha)
            assert match_pattern(idx, aug, pattern) == expected
            assert naive_match(idx.text, pattern) == expected


def test_criterion_3_oracle_equivalence_matching():
    trials = 1000
    with criterion(3, f"{trials} random matching trials agree with the oracle"):
        rng = random.Random(20240)
        configs = [(2, 3), (1, 3), (2, 1), (1, 0), (0, 3), (2, 2)]
        started = time.perf_counter()
        for _ in range(trials):
            sigma, pi = rng.choice(configs)
            alpha = letters_alphabet(sigma, pi)
            syms = list(alpha.constants + alpha.parameters)
            n = rng.randint(1, 64)
            raw = rng.choices(syms, k=n)
            idx, aug = build_augmented(raw, alpha)
            if rng.random() < 0.5:
                start = rng.randint(1, n)
                m = rng.randint(1, min(8, n - start + 1))
                pat_raw = raw[start - 1:start - 1 + m]
            else:
                pat_raw = rng.choices(syms, k=rng.randint(1, 8))
            pattern = parse_pstring(pat_raw, alpha)
            assert (match_pattern(idx, aug, pattern)
                    == naive_match(idx.text, pattern)), (raw, pat_raw)
        elapsed = time.perf_counter() - started
        print(f"  criterion 3 ran {trials} trials in {elapsed:.1f}s", end=" ")


def test_criterion_4_oracle_equivalence_structure():
    texts = 500
    with criterion(4, f"{texts} random builds match the brute-force tree and reach walks"):
        rng = random.Random(20241)
        started = time.perf_counter()
        for _ in range(texts):
            sigma, pi = rng.choice([(2, 3), (1, 2), (2, 2)])
            alpha = letters_alphabet(sigma, pi)
            syms = list(alpha.constants + alpha.parameters)
            raw = rng.choices(syms, k=rng.randint(0, 64))
            idx, _ = build_augmented(raw, alpha)
            assert trees_equal(idx, naive_pph(idx.text))
            mrp = compute_mrp(idx)
            for i in range(1, idx.n + 1):
                assert mrp[i - 1] == naive_mrp(idx, i)
        elapsed = time.perf_counter() - started
        print(f"  criterion 4 ran {texts} texts in {elapsed:.1f}s", end=" ")


def test_criterion_5_degenerate_reduction():
    with criterion(5, "constant-only texts reduce to the plain suffix hash tree"):
        alpha = make_alphabet(list("ab"), [])
        idx = build_index(parse_pstring("abbaabaabaabab", alpha))
        audit_index(idx)
        plain = [tuple("abbaabaabaabab"[i:]) for i in range(idx.n)]
        assert trees_equal(idx, naive_sequence_hash_tree(plain))

        rng = random.Random(20242)
        for _ in range(100):
            constants = list("ab") if rng.random() < 0.5 else list("abc")
            alpha = make_alphabet(constants, [])
            raw = rng.choices(constants, k=rng.randint(0, 64))
            idx = build_index(parse_pstring(raw, alpha))
            audit_index(idx)
            plain = [tuple(raw[i:]) for i in range(len(raw))]
            assert trees_equal(idx, naive_sequence_hash_tree(plain))


def test_criterion_6_invariant_audit():
    with criterion(6, "structural invariants hold on a fresh batch of indexes"):
        rng = random.Random(20243)
        for _ in range(120):
            sigma, pi = rng.choice([(2, 3), (0, 2), (3, 0), (1, 1)])
            alpha = letters_alphabet(sigma, pi)
            syms = list(alpha.constants + alpha.parameters)
            raw = rng.choices(syms, k=rng.randint(0, 64)) if syms else []
            idx = build_index(parse_pstring(raw, alpha))
            audit_index(idx)  # raises on any violation
            n = idx.n
            # spell the audited facts out directly as well
            assert idx.node_count <= n + 1
            stored = sorted(p for v in range(idx.node_count)
                            for p in idx.positions_at(v))
            assert stored == list(range(1, n + 1))
            secs = sorted(idx.secondaries.values())
            if secs:
                assert secs == list(range(secs[0], n + 1))
            for v, spos in idx.secondaries.items():
                # node v holds primary position v
                assert idx.positions_at(v) == [v, spos]
                assert v < spos
            for v in range(1, idx.node_count):
                x = idx.path_label(v)
                y = idx.path_label(idx.suffixes[v])
                assert y == tuple(norm(x[k + 1], k) for k in range(len(x) - 1))


def test_criterion_7_complexity_smoke():
    with criterion(7, "desk-scale scaling check at n=1e5 vs n=1e6"):
        alpha = letters_alphabet(4, 4)
        syms = list(alpha.constants + alpha.parameters)
        rng = random.Random(20244)

        def timed_build(n):
            raw = rng.choices(syms, k=n)
            text = parse_pstring(raw, alpha)
            started = time.perf_counter()
            idx = build_index(text)
            aug = augment(idx)
            return idx, aug, time.perf_counter() - started

        _, _, small = timed_build(10 ** 5)
        idx, aug, large = timed_build(10 ** 6)
        ratio = large / small
        start = rng.randint(1, idx.n - 100 + 1)
        pattern = idx.text[start - 1:start - 1 + 100]
        started = time.perf_counter()
        hits = match_pattern(idx, aug, pattern)
        query_ms = (time.perf_counter() - started) * 1000
        assert start in hits

        print(f"  criterion 7 report: build 1e5={small:.2f}s 1e6={large:.2f}s "
              f"ratio={ratio:.1f} query(m=100)={query_ms:.2f}ms", end=" ")
        if ratio > 30:
            print(f"  note: ratio {ratio:.1f} above the 30x report bound", end=" ")
        if query_ms >= 50:
            print(f"  note: query {query_ms:.2f}ms above the 50ms report bound",
                  end=" ")
        # hard failure is reserved for super-quadratic behavior
        assert ratio <= 300, f"super-quadratic growth: ratio {ratio:.1f}"


def test_criterion_8_persistence_round_trip():
    with criterion(8, "save/load/save is byte-identical and query-stable, 50 pairs"):
        rng = random.Random(20245)
        for _ in range(50):
            sigma, pi = rng.choice([(2, 3), (1, 2)])
            alpha = letters_alphabet(sigma, pi)
            syms = list(alpha.constants + alpha.parameters)
            raw = rng.choices(syms, k=rng.randint(1, 64))
            idx, aug = build_augmented(raw, alpha)
            bundle = IndexBundle(idx, aug, "char")
            blob = dumps(bundle)
            again = loads(blob)
            assert dumps(again) == blob
            pat_raw = rng.choices(syms, k=rng.randint(1, 6))
            pattern = parse_pstring(pat_raw, alpha)
            assert (match_pattern(again.index, again.augmentation, pattern)
                    == match_pattern(idx, aug, pattern))
