"""Command-line front end: build, query, selftest, export-dot, stats.

Exit codes: 0 success, 1 bad input symbols or pattern, 2 I/O or index file
problems or a bad command line, 3 malformed alphabet file, 4 verification
mismatch or selftest failure. Results go to stdout, diagnostics to stderr.
Texts and patterns are split and classified only by ``storage`` and
``coding``, so a pattern is read exactly as its text was.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .coding import MODES, parse_declared
from .dot import to_dot
from .errors import (
    AlphabetFormatError,
    EmptyPattern,
    IndexFormatError,
    InputEncodingError,
    UnknownSymbol,
)
from .heap import build_index
from .matching import match_pattern
from .oracle import naive_match
from .selftest import run_selftest
from .storage import IndexBundle, load, read_alphabet_file, read_text_file, save

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_IO = 2
EXIT_USAGE = 2  # argparse's own code for a bad command line
EXIT_ALPHABET = 3
EXIT_MISMATCH = 4


def cmd_build(args) -> int:
    constants, parameters = read_alphabet_file(args.alphabet, args.mode)
    text = parse_declared(read_text_file(args.text, args.mode), constants, parameters)
    # the index file holds only the alphabet and the text, so the
    # augmentation is left to whoever loads it
    started = time.perf_counter()
    idx = build_index(text)
    elapsed = time.perf_counter() - started
    save(IndexBundle(idx, None, args.mode, parameters is None), args.out)
    st = idx.stats()
    print(f"n={st.n} nodes={st.node_count} double={st.double_count} "
          f"depth={st.max_depth} build_s={elapsed:.3f}")
    return EXIT_OK


def cmd_query(args) -> int:
    bundle = load(args.index)
    idx = bundle.index
    try:
        pattern = bundle.parse_pattern(args.pattern)
        hits = match_pattern(idx, None, pattern)
    except (UnknownSymbol, EmptyPattern) as exc:
        print(f"bad pattern: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    sys.stdout.write("%d\n" * len(hits) % tuple(hits))
    if args.verify:
        want = naive_match(idx.text, pattern)
        if hits != want:
            print(f"verification mismatch: index={hits} naive={want}",
                  file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_selftest(args) -> int:
    for name in ("trials", "seed"):
        value = getattr(args, name)
        try:
            setattr(args, name, int(value))
        except ValueError:
            print(f"error: --{name} must be an integer, got {value!r}", file=sys.stderr)
            return EXIT_USAGE
    if args.trials < 0:
        print(f"error: --trials must not be negative, got {args.trials}", file=sys.stderr)
        return EXIT_USAGE
    failure = run_selftest(args.trials, args.seed)
    if failure is not None:
        print(failure.describe(), file=sys.stderr)
        return EXIT_MISMATCH
    print(f"selftest: {args.trials} trials passed (seed={args.seed})")
    return EXIT_OK


def cmd_export_dot(args) -> int:
    bundle = load(args.index)
    Path(args.out).write_text(to_dot(bundle.index), encoding="utf-8")
    return EXIT_OK


def cmd_stats(args) -> int:
    bundle = load(args.index)
    st = bundle.index.stats()
    print(f"n={st.n}")
    print(f"nodes={st.node_count}")
    print(f"double={st.double_count}")
    print(f"depth={st.max_depth}")
    return EXIT_OK


class _Value(argparse.Action):
    """Store an option's value as given, ``--`` included.

    Before Python 3.13, argparse turns the value of ``--opt=--`` into [];
    this reads it back as "--". Numbers are converted by their command, so
    that a bad one is refused on one stderr line on every version.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            values = "--"
            if self.choices is not None:  # 3.13 checks this before the call
                choices = ", ".join(map(repr, self.choices))
                raise argparse.ArgumentError(
                    self, f"invalid choice: '--' (choose from {choices})")
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose options, and its subcommands', store with ``_Value``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.register("action", None, _Value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ppheap",
        description="Position-heap indexing and matching for parameterized strings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="index a text file")
    p.add_argument("--text", required=True, help="text file to index")
    p.add_argument("--alphabet", required=True, help="alphabet description file")
    p.add_argument("--mode", choices=MODES, default="char")
    p.add_argument("--out", required=True, help="index file to write")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="find pattern occurrences in an index")
    p.add_argument("--index", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the brute-force matcher")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("selftest", help="check six text shapes against the oracle")
    p.add_argument("--trials", default=200)
    p.add_argument("--seed", default=42)
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
    except AlphabetFormatError as exc:
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
