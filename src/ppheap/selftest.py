"""Randomized cross-validation of the fast paths against the oracle.

Each trial draws a random text of the next of the six ``SHAPES`` and three
patterns: a short text window, a long one (up to the whole text, sometimes
with a symbol of its second half changed), or random symbols. One check
builds the index online, audits its invariants and compares its structure
and reach pointers with the brute-force rebuilds; the same check, given a
pattern, compares the matcher, with and without the augmentation, with the
naive one. A failure is shrunk by greedy symbol deletion and reported with
the command that reproduces it.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable, Optional

from .augment import augment, compute_mrp
from .coding import Alphabet, Symbol, make_alphabet, parse_pstring
from .errors import PPHeapError
from .heap import audit_index, build_index
from .matching import match_pattern
from .oracle import naive_match, naive_mrp, naive_pph, trees_equal

# (constants, parameters, most symbols): each reaches branches the others rarely do
SHAPES = (
    (2, 3, 64),   # the general case: short texts, few of each symbol class
    (1, 1, 128),  # repetitive texts: many whole-encoding queries
    (4, 4, 200),  # leaf-heavy heaps, where the reach sweep skips most positions
    # chain heaps n/2 deep: bare-heap queries take both matcher branches, and a
    # walk over the augmentation jumps down the chain
    (0, 1, 256),
    # long windows of repetitive texts, some changed late: the bare-heap rule sends them to
    # the augmentation, whose filter walks segments until few candidates are left to check
    (1, 2, 400),
    (2, 0, 256),  # constants only: every label, a single child's too, is a str
)


@dataclass(slots=True)
class TrialFailure:
    """A failing reproduction case, already shrunk."""

    kind: str
    trial: int
    seed: int
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
        lines += [f"  {self.detail}",
                  f"  reproduce: ppheap selftest --trials {self.trial} --seed {self.seed}"]
        return "\n".join(lines)


def letters_alphabet(sigma: int, pi: int) -> Alphabet:
    """Alphabet over lowercase letters: constants from the front, parameters from the back."""
    if sigma < 0 or pi < 0 or sigma + pi > 26:
        raise ValueError("need sigma >= 0, pi >= 0, sigma + pi <= 26")
    letters = string.ascii_lowercase
    return make_alphabet(letters[:sigma], letters[26 - pi:])


def _problem(alphabet: Alphabet, text_syms: list[Symbol],
             pattern_syms: Optional[list[Symbol]] = None) -> Optional[str]:
    """Error description when the fast paths disagree with the oracle, else None.

    With no pattern, checks the index: its invariants, its tree against the
    brute-force tree, and every reach pointer. With a pattern, checks
    ``match_pattern``, with and without the augmentation, against
    ``naive_match``; an empty pattern, which shrinking may reach, passes.
    """
    if pattern_syms is not None and not pattern_syms:
        return None
    try:
        text = parse_pstring(text_syms, alphabet)
        pattern = None if pattern_syms is None else parse_pstring(pattern_syms, alphabet)
        idx = build_index(text)
        if pattern is None:
            audit_index(idx)
            if not trees_equal(idx, naive_pph(text)):
                return "online tree differs from brute-force tree"
            mrp = compute_mrp(idx)
            for i in range(1, len(text) + 1):
                if mrp[i - 1] != naive_mrp(idx, i):
                    return f"reach pointer mismatch at position {i}"
            return None
        got = match_pattern(idx, augment(idx), pattern)
        bare = match_pattern(idx, None, pattern)
        want = naive_match(text, pattern)
    except PPHeapError as exc:
        return f"exception: {exc}"
    if got != want or bare != want:
        return f"index found {got} ({bare} unaugmented), oracle found {want}"
    return None


def _shrink_text(text_syms: list[Symbol],
                 failing: Callable[[list[Symbol]], Optional[str]]) -> list[Symbol]:
    """Greedy 1-deletion shrink: go round the symbols from the last, dropping each one
    that keeps the failure alive, and stop after a full round of misses."""
    i, misses = len(text_syms), 0
    while misses < len(text_syms):
        i = (i - 1) % len(text_syms)
        cand = text_syms[:i] + text_syms[i + 1:]
        if failing(cand) is not None:
            text_syms, misses = cand, 0
        else:
            misses += 1
    return text_syms


def run_selftest(trials: int, seed: int) -> Optional[TrialFailure]:
    """Run the trial loop; None means every check passed.

    Trial t draws its text of shape ``SHAPES[(t - 1) % len(SHAPES)]``, then
    three patterns, and every draw comes from one ``random.Random(seed)``: a
    run is deterministic, and a failure at trial t recurs with ``trials=t``
    and the same seed. No pattern stands for the index check.
    """
    rng = random.Random(seed)

    for trial in range(1, trials + 1):
        sigma, pi, max_n = SHAPES[(trial - 1) % len(SHAPES)]
        alphabet = letters_alphabet(sigma, pi)
        syms = alphabet.constants + alphabet.parameters
        n = rng.randint(0, max_n)
        text_syms = rng.choices(syms, k=n)

        patterns: list[Optional[list[Symbol]]] = [None]
        for _ in range(3):
            r = rng.random()
            if n and r < 0.6:
                # a text window: short, or up to the whole text, which on
                # deep heaps fails the bare-heap rule and walks several
                # segments; half the long ones get a late symbol changed
                start = rng.randint(1, n)
                m = rng.randint(1, min(8, n - start + 1) if r < 0.3 else n - start + 1)
                pattern_syms = text_syms[start - 1:start - 1 + m]
                if r >= 0.45 and m > 1:
                    k = rng.randint(m // 2, m - 1)
                    pattern_syms[k] = rng.choice(syms)
            else:
                pattern_syms = rng.choices(syms, k=rng.randint(1, 8))
            patterns.append(pattern_syms)

        for pattern_syms in patterns:
            detail = _problem(alphabet, text_syms, pattern_syms)
            if detail is not None:
                small_t = _shrink_text(text_syms, lambda t: _problem(alphabet, t, pattern_syms))
                small_p = None if pattern_syms is None else _shrink_text(
                    pattern_syms, lambda p: _problem(alphabet, small_t, p))
                return TrialFailure(
                    "structure" if pattern_syms is None else "match", trial, seed,
                    alphabet.constants, alphabet.parameters, small_t, small_p,
                    _problem(alphabet, small_t, small_p) or detail)
    return None
