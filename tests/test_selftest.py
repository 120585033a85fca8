"""Tests for the randomized selftest harness itself."""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import pytest

import ppheap.matching as matching_mod
import ppheap.selftest as selftest_mod
from ppheap.cli import main
from ppheap.errors import PPHeapError
from ppheap.selftest import SHAPES, TrialFailure, letters_alphabet, run_selftest

from conftest import CountingLabels


class TestLettersAlphabet:
    def test_disjoint_ends_of_the_pool(self):
        alpha = letters_alphabet(2, 3)
        assert alpha.constants == ("a", "b")
        assert alpha.parameters == ("x", "y", "z")

    def test_bounds(self):
        with pytest.raises(ValueError):
            letters_alphabet(20, 10)
        with pytest.raises(ValueError):
            letters_alphabet(-1, 0)


def drop_last_hit(monkeypatch):
    """Make the selftest's matcher drop the last occurrence of every answer."""
    real = selftest_mod.match_pattern

    def broken(idx, aug, pattern):
        hits = real(idx, aug, pattern)
        return hits[:-1]

    monkeypatch.setattr(selftest_mod, "match_pattern", broken)


class TestFailureReporting:
    def test_injected_match_bug_is_caught_and_shrunk(self, monkeypatch):
        drop_last_hit(monkeypatch)
        monkeypatch.setattr(selftest_mod, "SHAPES", ((1, 2, 16),))
        failure = run_selftest(trials=50, seed=5)
        assert failure is not None
        assert failure.kind == "match"
        assert failure.pattern
        # greedy deletion cannot go below one occurrence of the pattern
        assert len(failure.text) <= 16
        text = failure.describe()
        assert "selftest failure" in text
        assert "oracle found" in failure.detail

    def test_injected_structure_bug_is_caught(self, monkeypatch):
        real = selftest_mod.naive_mrp

        def broken(idx, i):
            v = real(idx, i)
            return 0 if i == idx.n else v  # claim the root for the last position

        monkeypatch.setattr(selftest_mod, "naive_mrp", broken)
        monkeypatch.setattr(selftest_mod, "SHAPES", ((1, 1, 8),))
        failure = run_selftest(trials=20, seed=5)
        assert failure is not None
        assert failure.kind == "structure"
        assert failure.describe().endswith(f"--trials {failure.trial} --seed 5")

    def test_tree_mismatch_is_reported(self, monkeypatch):
        monkeypatch.setattr(selftest_mod, "trees_equal", lambda idx, naive: False)
        failure = run_selftest(trials=1, seed=5)
        assert failure.kind == "structure"
        assert failure.detail == "online tree differs from brute-force tree"

    def test_matcher_exception_is_reported(self, monkeypatch):
        def broken(idx, aug, pattern):
            raise PPHeapError("matcher gave up")

        monkeypatch.setattr(selftest_mod, "match_pattern", broken)
        failure = run_selftest(trials=1, seed=5)
        assert failure.kind == "match"
        assert failure.detail == "exception: matcher gave up"

    @pytest.mark.parametrize("kind", ["structure", "match"])
    def test_failure_reproduces_at_its_trial(self, monkeypatch, kind):
        """Bugs that first fire past trial 1 recur from the seeded stream alone."""
        if kind == "structure":
            real_mrp = selftest_mod.naive_mrp
            # claim the root for the last position of long texts only
            monkeypatch.setattr(selftest_mod, "naive_mrp", lambda idx, i: (
                0 if i == idx.n and idx.n > 150 else real_mrp(idx, i)))
        else:
            real_match = selftest_mod.match_pattern

            def broken(idx, aug, pattern):
                hits = real_match(idx, aug, pattern)
                return hits[:-1] if len(pattern) > 20 else hits

            monkeypatch.setattr(selftest_mod, "match_pattern", broken)
        seed = 5
        failure = run_selftest(trials=100, seed=seed)
        assert failure is not None and failure.kind == kind
        assert failure.trial > 1 and failure.seed == seed
        assert failure.describe().endswith(
            f"\n  reproduce: ppheap selftest --trials {failure.trial} --seed {seed}")
        again = run_selftest(trials=failure.trial, seed=seed)
        assert again == failure

    def test_cli_exits_4_on_failure(self, monkeypatch, capsys):
        failure = TrialFailure(
            kind="match", trial=3, seed=7, constants=("a",), parameters=("x",),
            text=["x", "x"], pattern=["x"], detail="index found [], oracle found [1]")
        monkeypatch.setattr("ppheap.cli.run_selftest",
                            lambda *args, **kwargs: failure)
        code = main(["selftest", "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 4
        assert "selftest failure" in captured.err


class TestShapes:
    def test_table(self):
        assert SHAPES == ((2, 3, 64), (1, 1, 128), (4, 4, 200),
                          (0, 1, 256), (1, 2, 400), (2, 0, 256))

    def test_run_is_deterministic(self, monkeypatch):
        texts = []
        real = selftest_mod._problem

        def index_checks(alphabet, t, pattern=None):
            if pattern is None:
                texts.append(t)
            return real(alphabet, t, pattern)

        monkeypatch.setattr(selftest_mod, "_problem", index_checks)
        for _ in range(2):
            assert run_selftest(12, seed=3) is None
        assert len(texts) == 24 and texts[:12] == texts[12:]

    def test_battery_reaches_what_the_shapes_claim(self, monkeypatch):
        """One run at a fixed seed takes the trials' shapes in turn and
        reaches each branch that a comment in ``SHAPES`` names."""
        trials = 120
        shapes: list[tuple[int, int]] = []
        # per (sigma, pi): the distinct texts' indexes
        heaps: dict[tuple[int, int], dict] = defaultdict(dict)
        reached: Counter[str] = Counter()

        real_alphabet = selftest_mod.letters_alphabet

        def alphabet(sigma, pi):
            shapes.append((sigma, pi))
            return real_alphabet(sigma, pi)

        real_build = selftest_mod.build_index

        def build(text):
            idx = real_build(text)
            heaps[shapes[-1]][text.symbols] = idx
            return idx

        def counted(name, real):
            def wrapper(*args):
                reached[name] += 1
                return real(*args)
            return wrapper

        real_walk = matching_mod.segment_walk

        def walk(idx, prev_pattern, j, aug=None):
            if j > 1:
                reached["segment walk from j > 1"] += 1
            # a walk slices prev_text only to compare a run
            prev_text = idx.prev_text
            idx.prev_text = labels = CountingLabels(prev_text)
            try:
                return real_walk(idx, prev_pattern, j, aug)
            finally:
                idx.prev_text = prev_text
                if any(t >= matching_mod.JUMP for t in labels.slices):
                    reached["chain jump"] += 1

        real_filter = matching_mod._filtered_hits
        filtering = [0]  # the calls of _filtered_hits under way

        def filtered(*args):
            filtering[0] += 1
            try:
                return real_filter(*args)
            finally:
                filtering[0] -= 1

        real_window = matching_mod._window_matches

        def window(prev_t, prev_p, pos, offsets):
            # the few-candidates switch checks the rest of each window as a
            # range from inside _filtered_hits; the zero-label re-check
            # passes a list, and the bare-heap path runs outside it
            if type(offsets) is range and filtering[0]:
                reached["few-candidates switch"] += 1
            return real_window(prev_t, prev_p, pos, offsets)

        monkeypatch.setattr(selftest_mod, "letters_alphabet", alphabet)
        monkeypatch.setattr(selftest_mod, "build_index", build)
        monkeypatch.setattr(matching_mod, "_direct_hits",
                            counted("bare-heap answer", matching_mod._direct_hits))
        monkeypatch.setattr(matching_mod, "augment",
                            counted("augmentation fallback", matching_mod.augment))
        monkeypatch.setattr(matching_mod, "segment_walk", walk)
        monkeypatch.setattr(matching_mod, "_filtered_hits", filtered)
        monkeypatch.setattr(matching_mod, "_window_matches", window)

        assert run_selftest(trials, seed=7) is None

        assert shapes == [SHAPES[(t - 1) % len(SHAPES)][:2] for t in range(1, trials + 1)]
        assert set(reached) == {"bare-heap answer", "augmentation fallback",
                                "segment walk from j > 1", "few-candidates switch",
                                "chain jump"}
        for sigma, pi, max_n in SHAPES:
            assert all(idx.n <= max_n for idx in heaps[sigma, pi].values())
        # leaf-heavy: most non-root nodes are leaves
        leaf_shares = [sum(kids is None for kids in idx.children[1:]) / (idx.node_count - 1)
                       for idx in heaps[4, 4].values() if idx.n]
        assert statistics.median(leaf_shares) > 0.5
        # one parameter: the text is one symbol repeated, a chain of depth n/2
        assert all(idx.stats().max_depth == (idx.n + 1) // 2
                   for idx in heaps[0, 1].values())
        # constants only: every edge label, derived or stored, is a str
        assert all(isinstance(idx.edge_label(v), str)
                   for idx in heaps[2, 0].values() for v in range(1, idx.node_count))
        assert all(isinstance(label, str) for idx in heaps[2, 0].values()
                   for kids in idx.children if type(kids) is dict for label in kids)

