"""Line-oriented on-disk format for indexes and alphabet files.

An index file holds only what cannot be recomputed: the magic line, the
mode, the alphabet, the text length, the text, and a SHA-256 checksum of
every line before it. The heap and its augmentation are derived data: load
rebuilds the heap from the text in linear time, which costs less than
parsing a stored copy, and the augmentation is computed on first use.
Every load checks the header, the checksum, the alphabet and the text
against its stated length, so a damaged file is rejected with
IndexFormatError instead of answering queries wrongly. Writing the same
index always produces byte-identical output, and a load/save round trip
reproduces the input exactly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .augment import Augmentation, augment
from .coding import (
    Alphabet,
    Symbol,
    make_alphabet,
    parse_alphabet_lines,
    parse_pstring,
    wildcard_parameters,
)
from .errors import IndexFormatError, InputEncodingError, PPHeapError
from .heap import PPHIndex, build_index

MAGIC = "PPH/2"
LINES = 7  # magic, mode, constants, parameters, n, text, checksum


class IndexBundle:
    """Everything one index file describes: the index, its augmentation, the mode.

    ``augmentation`` may be given as None: it is then computed from the
    index on first read, so ``dumps`` and the ``stats`` and ``query``
    commands never pay for it (``query`` hands ``match_pattern`` None,
    which augments only past its rule). ``wildcard`` marks a token-mode
    index built with ``parameters *``: the file stores the wildcard itself,
    and queries treat every non-constant pattern token as a parameter.
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


def _check_symbols(alphabet: Alphabet, mode: str) -> None:
    for sym in alphabet.constants + alphabet.parameters:
        if sym == "" or any(ch.isspace() for ch in sym):
            raise IndexFormatError(
                f"symbol {sym!r} cannot be stored in the line format")
        if mode == "char" and len(sym) != 1:
            raise IndexFormatError(
                f"char mode requires single-character symbols, got {sym!r}")


def _symbols_line(keyword: str, symbols: tuple[Symbol, ...], mode: str) -> str:
    if not symbols:
        return keyword
    joined = "".join(symbols) if mode == "char" else " ".join(symbols)
    return f"{keyword} {joined}"


def _checksum_line(body: str) -> str:
    # surrogatepass: a str handed to loads may hold lone surrogates
    return "sha256 " + hashlib.sha256(body.encode("utf-8", "surrogatepass")).hexdigest()


def dumps(bundle: IndexBundle) -> str:
    """Serialize a bundle to the versioned line format."""
    idx = bundle.index
    mode = bundle.mode
    if mode not in ("char", "token"):
        raise IndexFormatError(f"mode must be 'char' or 'token', got {mode!r}")
    _check_symbols(idx.alphabet, mode)
    if bundle.wildcard:
        if mode != "token":
            raise IndexFormatError("the wildcard parameter set requires token mode")
        parameters = "parameters *"
    elif mode == "token" and idx.alphabet.parameters == ("*",):
        raise IndexFormatError("a lone '*' parameter would read back as the wildcard")
    else:
        parameters = _symbols_line("parameters", idx.alphabet.parameters, mode)
    sep = "" if mode == "char" else " "
    body = "\n".join((
        MAGIC,
        f"mode {mode}",
        _symbols_line("constants", idx.alphabet.constants, mode),
        parameters,
        f"n {idx.n}",
        sep.join(idx.text.symbols),
    )) + "\n"
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

    if mode_line not in ("mode char", "mode token"):
        raise IndexFormatError(f"bad mode line {mode_line!r}")
    mode = mode_line[5:]
    try:
        constants, parameters = parse_alphabet_lines(
            [constants_line, parameters_line], mode)
    except PPHeapError as exc:
        raise IndexFormatError(f"bad alphabet section: {exc}") from None

    raw = list(text_line) if mode == "char" else text_line.split()
    if n_line != f"n {len(raw)}":
        raise IndexFormatError(
            f"text length line {n_line[:24]!r} does not match the {len(raw)}-symbol text")

    wildcard = parameters is None
    if wildcard:
        parameters = wildcard_parameters(raw, constants)
    try:
        text = parse_pstring(raw, make_alphabet(constants, parameters))
    except PPHeapError as exc:
        raise IndexFormatError(f"text does not conform to alphabet: {exc}") from None
    idx = build_index(text)
    return IndexBundle(idx, None, mode, wildcard)


def save(bundle: IndexBundle, path) -> None:
    Path(path).write_bytes(dumps(bundle).encode("utf-8"))


def load(path) -> IndexBundle:
    try:
        data = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index file is not UTF-8: {exc}") from None
    return loads(data)


def read_utf8(path, newline: str | None = None) -> str:
    """Contents of a UTF-8 text file; InputEncodingError names a file that is not.

    ``newline`` is as for ``open``: None turns every line end into "\n",
    "" keeps the file's characters as they are.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise InputEncodingError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_alphabet_file(path, mode: str) -> tuple[list[Symbol], list[Symbol] | None]:
    """Read an alphabet description file; None parameters means wildcard."""
    return parse_alphabet_lines(read_utf8(path).split("\n"), mode)
