"""Line-oriented on-disk format for indexes; readers of text and alphabet files.

An index file holds only what cannot be recomputed: the magic line, the
mode, the alphabet, the text length, the text, and a SHA-256 checksum of
every line before it. The heap and its augmentation are derived data: load
rebuilds the heap from the text in linear time, which costs less than
parsing a stored copy, and the augmentation is computed on first use.
Every load checks the header, the checksum, the alphabet and the text
against its stated length, so a damaged file is rejected with
IndexFormatError instead of answering queries wrongly. Writing the same
index always produces byte-identical output, and a load/save round trip
reproduces the input exactly. Text files, index text lines and patterns
(``IndexBundle.parse_pattern``) are all split by ``coding.split_symbols``;
the alphabet lines are read and written by ``coding`` alone.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .augment import Augmentation, augment
from .coding import (
    MODES,
    PString,
    Symbol,
    format_alphabet_lines,
    join_symbols,
    parse_alphabet_lines,
    parse_declared,
    parse_pstring,
    split_symbols,
)
from .errors import AlphabetFormatError, IndexFormatError, InputEncodingError, PPHeapError
from .heap import PPHIndex, build_index

MAGIC = "PPH/2"
LINES = 7  # magic, mode, constants, parameters, n, text, checksum


class IndexBundle:
    """Everything one index file describes: the index, its augmentation, the mode.

    ``augmentation`` may be given as None: it is then computed from the
    index on first read, and code that never reads it never pays for it.
    ``wildcard`` marks a token-mode index built with the wildcard parameter
    set: the file stores the wildcard itself, and queries treat every
    non-constant pattern token as a parameter.
    """

    __slots__ = ("index", "_augmentation", "mode", "wildcard")

    def __init__(self, index: PPHIndex, augmentation: Augmentation | None,
                 mode: str, wildcard: bool = False):
        self.index = index
        self._augmentation = augmentation
        self.mode = mode
        self.wildcard = wildcard

    @property
    def augmentation(self) -> Augmentation:
        if self._augmentation is None:
            self._augmentation = augment(self.index)
        return self._augmentation

    def parse_pattern(self, s: str) -> PString:
        """Split a pattern as the index's text was split, and parse it."""
        raw, alphabet = split_symbols(s, self.mode), self.index.alphabet
        if self.wildcard:
            return parse_declared(raw, alphabet.constants, None)
        return parse_pstring(raw, alphabet)


def _checksum_line(body: str) -> str:
    # surrogatepass: a str handed to loads may hold lone surrogates
    return "sha256 " + hashlib.sha256(body.encode("utf-8", "surrogatepass")).hexdigest()


def dumps(bundle: IndexBundle) -> str:
    """Serialize a bundle to the versioned line format."""
    idx, mode = bundle.index, bundle.mode
    try:
        alphabet_lines = format_alphabet_lines(
            idx.alphabet.constants, idx.alphabet.parameters, mode, bundle.wildcard)
    except (AlphabetFormatError, ValueError) as exc:
        raise IndexFormatError(str(exc)) from None
    body = "\n".join((MAGIC, f"mode {mode}", *alphabet_lines,
                      f"n {idx.n}", join_symbols(idx.text.symbols, mode))) + "\n"
    return body + _checksum_line(body) + "\n"


def loads(data: str) -> IndexBundle:
    """Check a file in the line format and rebuild the index it describes."""
    magic = data.partition("\n")[0]
    if magic != MAGIC:
        raise IndexFormatError(
            f"unsupported index format {magic[:16]!r}: this version reads "
            f"{MAGIC} only; rebuild the index from its text with 'ppheap build'")
    lines = data.split("\n")
    if len(lines) != LINES + 1 or lines[-1] != "":
        raise IndexFormatError(
            f"expected {LINES} newline-terminated lines, got {len(lines) - 1}")
    _, mode_line, constants_line, parameters_line, n_line, text_line, checksum = lines[:LINES]
    if checksum != _checksum_line(data[:-len(checksum) - 1]):
        raise IndexFormatError("checksum mismatch: the file is damaged")

    keyword, _, mode = mode_line.partition(" ")
    if keyword != "mode" or mode not in MODES:
        raise IndexFormatError(f"bad mode line {mode_line!r}")
    try:
        constants, parameters = parse_alphabet_lines(
            [constants_line, parameters_line], mode)
    except PPHeapError as exc:
        raise IndexFormatError(f"bad alphabet section: {exc}") from None

    raw = split_symbols(text_line, mode)
    if n_line != f"n {len(raw)}":
        raise IndexFormatError(
            f"text length line {n_line[:24]!r} does not match the {len(raw)}-symbol text")

    try:
        text = parse_declared(raw, constants, parameters)
    except PPHeapError as exc:
        raise IndexFormatError(f"text does not conform to alphabet: {exc}") from None
    return IndexBundle(build_index(text), None, mode, parameters is None)


def save(bundle: IndexBundle, path) -> None:
    Path(path).write_bytes(dumps(bundle).encode("utf-8"))


def load(path) -> IndexBundle:
    try:
        data = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index file is not UTF-8: {exc}") from None
    return loads(data)


def read_utf8(path) -> str:
    """Contents of a UTF-8 text file, line ends untranslated; InputEncodingError
    names a file that is not UTF-8."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise InputEncodingError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_text_file(path, mode: str) -> list[Symbol]:
    """The symbols of a text file; one trailing line end is not text."""
    content = read_utf8(path)
    if content.endswith("\n"):
        content = content[:-2] if content.endswith("\r\n") else content[:-1]
    return split_symbols(content, mode)


def read_alphabet_file(path, mode: str) -> tuple[list[Symbol], list[Symbol] | None]:
    """Read an alphabet description file; None parameters means wildcard."""
    return parse_alphabet_lines(read_utf8(path).split("\n"), mode)
