"""Randomized cross-validation of the fast paths against the oracle.

Each trial builds an index online, audits its invariants, compares its
structure and reach pointers against the brute-force rebuilds, and checks
three pattern queries, with and without the augmentation, against the
naive matcher. Failures are shrunk by greedy symbol deletion before they
are reported, to a case as small as plain deletion can make it.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable, Optional

from .augment import augment
from .coding import Alphabet, Symbol, make_alphabet, parse_pstring
from .errors import PPHeapError
from .heap import audit_index, build_index
from .matching import match_pattern
from .oracle import naive_match, naive_mrp, naive_pph, trees_equal


@dataclass(slots=True)
class TrialFailure:
    """A failing reproduction case, already shrunk."""

    kind: str
    trial: int
    constants: tuple[Symbol, ...]
    parameters: tuple[Symbol, ...]
    text: list[Symbol]
    pattern: Optional[list[Symbol]]
    detail: str

    def describe(self) -> str:
        lines = [
            f"selftest failure ({self.kind}) in trial {self.trial}",
            f"  constants:  {' '.join(self.constants) or '(none)'}",
            f"  parameters: {' '.join(self.parameters) or '(none)'}",
            f"  text:       {' '.join(self.text) or '(empty)'}",
        ]
        if self.pattern is not None:
            lines.append(f"  pattern:    {' '.join(self.pattern)}")
        lines.append(f"  {self.detail}")
        return "\n".join(lines)


def letters_alphabet(sigma: int, pi: int) -> Alphabet:
    """Alphabet over lowercase letters: constants from the front, parameters from the back."""
    if sigma < 0 or pi < 0 or sigma + pi > 26:
        raise ValueError("need sigma >= 0, pi >= 0, sigma + pi <= 26")
    pool = string.ascii_lowercase
    constants = list(pool[:sigma])
    parameters = list(pool[26 - pi:]) if pi else []
    return make_alphabet(constants, parameters)


def _structure_problem(alphabet: Alphabet, text_syms: list[Symbol]) -> Optional[str]:
    """Error description when the built index disagrees with the oracle."""
    try:
        text = parse_pstring(text_syms, alphabet)
        idx = build_index(text)
        audit_index(idx)
        if not trees_equal(idx, naive_pph(text)):
            return "online tree differs from brute-force tree"
        aug = augment(idx)
        for i in range(1, len(text) + 1):
            if aug.mrp[i - 1] != naive_mrp(idx, i):
                return f"reach pointer mismatch at position {i}"
    except PPHeapError as exc:
        return f"exception: {exc}"
    return None


def _match_problem(alphabet: Alphabet, text_syms: list[Symbol],
                   pattern_syms: list[Symbol]) -> Optional[str]:
    if not pattern_syms:
        return None
    try:
        text = parse_pstring(text_syms, alphabet)
        pattern = parse_pstring(pattern_syms, alphabet)
        idx = build_index(text)
        aug = augment(idx)
        got = match_pattern(idx, aug, pattern)
        bare = match_pattern(idx, None, pattern)
        want = naive_match(text, pattern)
    except PPHeapError as exc:
        return f"exception: {exc}"
    if got != want or bare != want:
        return f"index found {got} ({bare} unaugmented), oracle found {want}"
    return None


def _shrink_text(text_syms: list[Symbol],
                 failing: Callable[[list[Symbol]], Optional[str]]) -> list[Symbol]:
    """Greedy 1-deletion shrink: drop any symbol that keeps the failure alive."""
    changed = True
    while changed:
        changed = False
        for i in range(len(text_syms)):
            cand = text_syms[:i] + text_syms[i + 1:]
            if failing(cand) is not None:
                text_syms = cand
                changed = True
                break
    return text_syms


def run_selftest(trials: int, max_n: int, sigma: int, pi: int,
                 seed: int) -> Optional[TrialFailure]:
    """Run the trial loop; None means every check passed.

    Deterministic for a fixed argument tuple.
    """
    alphabet = letters_alphabet(sigma, pi)
    syms = list(alphabet.constants + alphabet.parameters)
    rng = random.Random(seed)

    for trial in range(1, trials + 1):
        n = rng.randint(0, max_n) if syms else 0
        text_syms = rng.choices(syms, k=n) if n else []

        detail = _structure_problem(alphabet, text_syms)
        if detail is not None:
            small = _shrink_text(text_syms, lambda t: _structure_problem(alphabet, t))
            return TrialFailure("structure", trial, alphabet.constants,
                                alphabet.parameters, small, None,
                                _structure_problem(alphabet, small) or detail)

        for _ in range(3):
            if not syms:
                break
            if n and rng.random() < 0.5:
                # substring pattern, guaranteed at least one occurrence
                start = rng.randint(1, n)
                m = rng.randint(1, min(8, n - start + 1))
                pattern_syms = text_syms[start - 1:start - 1 + m]
            else:
                pattern_syms = rng.choices(syms, k=rng.randint(1, 8))
            detail = _match_problem(alphabet, text_syms, pattern_syms)
            if detail is not None:
                small_t = _shrink_text(
                    text_syms, lambda t: _match_problem(alphabet, t, pattern_syms))
                small_p = _shrink_text(
                    pattern_syms,
                    lambda p: _match_problem(alphabet, small_t, p) if p else None)
                return TrialFailure(
                    "match", trial, alphabet.constants, alphabet.parameters,
                    small_t, small_p,
                    _match_problem(alphabet, small_t, small_p) or detail)
    return None
