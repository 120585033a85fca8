"""Command-line front end: build, query, selftest, export-dot, stats.

Exit codes: 0 success, 1 bad input symbols or pattern, 2 I/O or index file
problems or a bad command line, 3 malformed alphabet file, 4 verification
mismatch or selftest failure. Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .coding import Symbol, make_alphabet, parse_pstring, wildcard_parameters
from .dot import to_dot
from .errors import (
    AlphabetFormatError,
    DuplicateSymbol,
    EmptyPattern,
    IndexFormatError,
    InputEncodingError,
    OverlappingAlphabet,
    UnknownSymbol,
)
from .heap import build_index
from .matching import match_pattern
from .oracle import naive_match
from .selftest import run_selftest
from .storage import IndexBundle, load, read_alphabet_file, read_utf8, save

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_IO = 2
EXIT_USAGE = 2  # argparse's own code for a bad command line
EXIT_ALPHABET = 3
EXIT_MISMATCH = 4


def _read_text_file(path: str, mode: str) -> list[Symbol]:
    # read without newline translation, so a lone "\r" inside a char-mode
    # text stays the symbol it is (token mode splits on it either way)
    content = read_utf8(path, newline="")
    if mode == "token":
        return content.split()
    # char mode: one line of symbols; one trailing "\n" or "\r\n" is not text
    if content.endswith("\n"):
        content = content[:-2] if content.endswith("\r\n") else content[:-1]
    return list(content)


def cmd_build(args) -> int:
    constants, parameters = read_alphabet_file(args.alphabet, args.mode)
    raw = _read_text_file(args.text, args.mode)
    wildcard = parameters is None
    if wildcard:
        parameters = wildcard_parameters(raw, constants)
    alphabet = make_alphabet(constants, parameters)
    text = parse_pstring(raw, alphabet)
    # the index file holds only the alphabet and the text, so the
    # augmentation is left to whoever loads it
    started = time.perf_counter()
    idx = build_index(text)
    elapsed = time.perf_counter() - started
    save(IndexBundle(idx, None, args.mode, wildcard), args.out)
    st = idx.stats()
    print(f"n={st.n} nodes={st.node_count} double={st.double_count} "
          f"depth={st.max_depth} build_s={elapsed:.3f}")
    return EXIT_OK


def cmd_query(args) -> int:
    bundle = load(args.index)
    idx = bundle.index
    raw = list(args.pattern) if bundle.mode == "char" else args.pattern.split()
    alphabet = idx.alphabet
    if bundle.wildcard:
        alphabet = make_alphabet(alphabet.constants,
                                 wildcard_parameters(raw, alphabet.constants))
    try:
        pattern = parse_pstring(raw, alphabet)
        hits = match_pattern(idx, bundle.augmentation, pattern)
    except (UnknownSymbol, EmptyPattern) as exc:
        print(f"bad pattern: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    for i in hits:
        print(i)
    if args.verify:
        want = naive_match(idx.text, pattern)
        if hits != want:
            print(f"verification mismatch: index={hits} naive={want}",
                  file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_selftest(args) -> int:
    for option, value in (("--trials", args.trials), ("--max-n", args.max_n),
                          ("--sigma", args.sigma), ("--pi", args.pi)):
        if value < 0:
            print(f"error: {option} must not be negative, got {value}", file=sys.stderr)
            return EXIT_USAGE
    if args.sigma + args.pi > 26:
        print(f"error: --sigma plus --pi must be at most 26 (the letters a-z), "
              f"got {args.sigma + args.pi}", file=sys.stderr)
        return EXIT_USAGE
    failure = run_selftest(args.trials, args.max_n, args.sigma, args.pi, args.seed)
    if failure is not None:
        print(failure.describe(), file=sys.stderr)
        return EXIT_MISMATCH
    print(f"selftest: {args.trials} trials passed "
          f"(max_n={args.max_n} sigma={args.sigma} pi={args.pi} seed={args.seed})")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    bundle = load(args.index)
    Path(args.out).write_text(to_dot(bundle.index, bundle.augmentation),
                              encoding="utf-8")
    return EXIT_OK


def cmd_stats(args) -> int:
    bundle = load(args.index)
    st = bundle.index.stats()
    print(f"n={st.n}")
    print(f"nodes={st.node_count}")
    print(f"double={st.double_count}")
    print(f"depth={st.max_depth}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppheap",
        description="Position-heap indexing and matching for parameterized strings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="index a text file")
    p.add_argument("--text", required=True, help="text file to index")
    p.add_argument("--alphabet", required=True, help="alphabet description file")
    p.add_argument("--mode", choices=("char", "token"), default="char")
    p.add_argument("--out", required=True, help="index file to write")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="find pattern occurrences in an index")
    p.add_argument("--index", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the brute-force matcher")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("selftest", help="randomized checks against the oracle")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-n", type=int, default=64, dest="max_n")
    p.add_argument("--sigma", type=int, default=2)
    p.add_argument("--pi", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("export-dot", help="write a Graphviz rendering")
    p.add_argument("--index", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("stats", help="print index statistics")
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownSymbol as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (AlphabetFormatError, DuplicateSymbol, OverlappingAlphabet) as exc:
        print(f"error: bad alphabet: {exc}", file=sys.stderr)
        return EXIT_ALPHABET
    except IndexFormatError as exc:
        print(f"error: bad index file: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InputEncodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
