"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` seeded from the run's ``--seed`` so
the same seed always yields the same texts and patterns. The program under
test only ever sees the files written from these values.
"""

from __future__ import annotations

import hashlib
import json
import keyword
import random
import sys
import sysconfig
import tokenize
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_PIN = HERE / "corpus_pin.json"

# letters_alphabet(4, 4): constants from the front of the alphabet,
# parameters from the back
CHAR_CONSTANTS = "abcd"
CHAR_PARAMETERS = "wxyz"
PERIOD = 7


@dataclass(frozen=True)
class Spec:
    """Static shape of one workload."""

    name: str
    mode: str                    # "char" or "token"
    n: int                       # text length in symbols
    pattern_lengths: tuple[int, ...]
    timed_builds: bool           # timed phase repeats CLI builds of fresh texts
    build_until: float           # share of --seconds after which no build starts
    first_until: float           # share of --seconds after which no CLI query starts
    warm_patterns: int           # distinct warm patterns; the warm phase cycles them
    period: int | None = None    # set when the text is exactly periodic


SPECS = {
    # five lengths, so the median query lies inside one length class
    "build-random": Spec("build-random", "char", 200_000, (4, 8, 16, 32, 64), True, 0.3, 0.55,
                         10_000),
    # the whole pinned corpus: the first stdlib modules holding >= 200,000 tokens
    "clone-tokens": Spec("clone-tokens", "token", 202_154, (8, 16, 32, 64), False, 0, 0.6,
                         10_000),
    # a warm query takes ~10 ms here (~14k occurrences), so most of the run
    # goes to warm queries to collect the 1,000 that p99 needs
    "periodic-deep": Spec("periodic-deep", "char", 100_000, (4, 16, 64, 256), False, 0, 0.3,
                          2_000, period=PERIOD),
}


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """Independent deterministic stream per workload, seed and purpose."""
    return random.Random(f"{workload}/{seed}/{purpose}")


def random_text(rng: random.Random, n: int) -> list[str]:
    return rng.choices(CHAR_CONSTANTS + CHAR_PARAMETERS, k=n)


def _encode(window) -> tuple:
    last: dict[str, int] = {}
    enc = []
    for i, s in enumerate(window):
        if s in CHAR_PARAMETERS:
            enc.append(i - last[s] if s in last else 0)
            last[s] = i
        else:
            enc.append(s)
    return tuple(enc)


def periodic_block(rng: random.Random, period: int, min_len: int) -> list[str]:
    """A block whose windows of min_len symbols differ at every phase.

    Then windows that start at different phases never match, so every
    pattern of at least min_len symbols has about n/period occurrences and
    the heap has the same shape for every seed, instead of a rare block with
    a shorter period up to renaming dominating a run.
    """
    while True:
        block = rng.choices(CHAR_CONSTANTS + CHAR_PARAMETERS, k=period)
        ring = block * (min_len // period + 2)
        if len({_encode(ring[r:r + min_len]) for r in range(period)}) == period:
            return block


def periodic_text(rng: random.Random, n: int, period: int, min_len: int) -> list[str]:
    block = periodic_block(rng, period, min_len)
    return [block[i % period] for i in range(n)]


def char_alphabet_text() -> str:
    return f"constants {CHAR_CONSTANTS}\nparameters {CHAR_PARAMETERS}\n"


# -- clone-tokens corpus ------------------------------------------------------

class CorpusMismatch(RuntimeError):
    """The local stdlib token stream differs from the pinned corpus."""


def _file_tokens(path: Path) -> list[str]:
    """Token stream of one source file: identifiers stay, literals collapse."""
    out = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            kind, text = tok.type, tok.string
            if kind == tokenize.NAME:
                out.append(text)
            elif kind == tokenize.OP:
                out.append(text)
            elif kind == tokenize.NUMBER:
                out.append("NUM")
            elif kind == tokenize.STRING:
                out.append("STR")
            elif kind == tokenize.NEWLINE:
                out.append(";")
    return out


def stdlib_corpus(min_tokens: int) -> tuple[list[str], list[str]]:
    """Tokens of the sorted top-level stdlib modules until min_tokens is reached."""
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    tokens: list[str] = []
    files: list[str] = []
    for path in sorted(stdlib.glob("*.py")):
        tokens.extend(_file_tokens(path))
        files.append(path.name)
        if len(tokens) >= min_tokens:
            break
    return tokens, files


def token_digest(tokens: list[str]) -> str:
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


def clone_constants(tokens: list[str]) -> list[str]:
    """Keywords, operators, literal classes and NEWLINE; identifiers are parameters."""
    consts = {t for t in tokens if keyword.iskeyword(t) or not t.isidentifier()}
    consts.update(("NUM", "STR"))
    return sorted(consts)


def pinned_clone_corpus() -> list[str]:
    """The clone-tokens stream, refused unless it equals the pinned corpus."""
    pin = json.loads(CORPUS_PIN.read_text(encoding="utf-8"))
    version = ".".join(map(str, sys.version_info[:3]))
    tokens, files = stdlib_corpus(pin["min_tokens"])
    got = {"python": version, "files": files, "tokens": len(tokens),
           "sha256": token_digest(tokens)}
    for key in ("python", "files", "tokens", "sha256"):
        if got[key] != pin[key]:
            raise CorpusMismatch(
                f"clone-tokens corpus differs from {CORPUS_PIN.name} in {key!r}: "
                f"pinned {pin[key]!r}, found {got[key]!r}")
    return tokens


# -- patterns -----------------------------------------------------------------

def make_patterns(rng: random.Random, text: list[str], is_param, lengths, count: int,
                  pool: list[str]) -> list[list[str]]:
    """Text windows whose parameters are consistently renamed.

    Lengths cycle through ``lengths`` so every run holds the same mix. Each
    window's distinct parameters map one-to-one onto a random sample of
    ``pool``, so the window's own position is always an occurrence and every
    pattern symbol belongs to the index alphabet.
    """
    n = len(text)
    out = []
    for q in range(count):
        m = lengths[q % len(lengths)]
        start = rng.randrange(n - m + 1)
        window = text[start:start + m]
        params = list(dict.fromkeys(s for s in window if is_param(s)))
        renamed = dict(zip(params, rng.sample(pool, len(params))))
        out.append([renamed.get(s, s) for s in window])
    return out
