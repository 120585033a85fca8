"""Alphabets, parameterized strings, and prev-encoding.

A parameterized string (p-string) mixes two kinds of symbols: constants,
which must match literally, and parameters, which match up to a consistent
one-to-one renaming. Prev-encoding replaces every parameter occurrence with
the distance back to the previous occurrence of the same symbol (0 for a
first occurrence) and leaves constants untouched. Two p-strings match under
some renaming of parameters exactly when their prev-encodings are equal,
which reduces renaming-insensitive comparison to plain equality.

A p-string is a tuple of raw symbols together with its alphabet; a
symbol's class is simply whether the alphabet declares it a parameter.
Encoded labels are represented directly: a constant label is the symbol
itself (a ``str``), an offset label is a non-negative ``int``. A prev-encoded
string is a plain tuple of such labels. All input is split into symbols by
``split_symbols`` and classified by ``parse_declared``, which alone applies
the wildcard ``parameters *``.

``parse_alphabet_lines`` and its inverse ``format_alphabet_lines`` own the
alphabet lines: a keyword, then any whitespace and the symbols. Whitespace
around the symbols is not a symbol; among char-mode symbols it is refused.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    AlphabetFormatError,
    DuplicateSymbol,
    OverlappingAlphabet,
    UnknownSymbol,
)

Symbol = str
PrevLabel = Union[str, int]

MODES = ("char", "token")
KEYWORDS = ("constants", "parameters")  # the alphabet lines, in order
WILDCARD = "*"


class Alphabet:
    """Two disjoint ordered symbol sets: constants and parameters.

    Symbols are opaque atoms (single characters in char mode, whole tokens
    in token mode); only identity and membership matter. Declaration order
    is preserved. ``_is_param`` maps every declared symbol to whether it is
    a parameter; ``prev_encode`` and ``Builder.extend`` classify a symbol with
    one lookup in it. ``_own`` maps every declared symbol to the alphabet's
    own ``str`` object for it, so that a parsed text holds one object per
    distinct symbol.

    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("constants", "parameters", "_is_param", "_own")

    def __init__(self, constants: Iterable[Symbol], parameters: Iterable[Symbol]):
        self.constants = tuple(constants)
        self.parameters = tuple(parameters)
        for name, group in (("constants", self.constants),
                            ("parameters", self.parameters)):
            seen = set()
            for sym in group:
                if sym in seen:
                    raise DuplicateSymbol(f"{name} declare {sym!r} more than once")
                seen.add(sym)
        overlap = set(self.constants) & set(self.parameters)
        if overlap:
            raise OverlappingAlphabet(
                f"symbols declared both constant and parameter: {sorted(overlap)!r}")
        self._is_param = dict.fromkeys(self.constants, False)
        self._is_param.update(dict.fromkeys(self.parameters, True))
        self._own = {sym: sym for sym in self._is_param}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Alphabet)
                and self.constants == other.constants
                and self.parameters == other.parameters)

    def __repr__(self) -> str:
        return f"Alphabet(constants={self.constants!r}, parameters={self.parameters!r})"


def make_alphabet(constants: Iterable[Symbol], parameters: Iterable[Symbol]) -> Alphabet:
    """Build an alphabet from two symbol lists, enforcing disjointness."""
    return Alphabet(constants, parameters)


class PString:
    """A validated sequence of raw symbols tied to its alphabet.

    Immutable; indexing yields symbols and slicing yields PString views
    over the same alphabet. Whether a symbol is a parameter is the
    alphabet's to say, so two p-strings are equal only when both their
    symbols and their alphabets are.
    """

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: tuple[Symbol, ...], alphabet: Alphabet):
        self.symbols = symbols
        self.alphabet = alphabet

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PString(self.symbols[i], self.alphabet)
        return self.symbols[i]

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PString) and self.symbols == other.symbols
                and self.alphabet == other.alphabet)

    def __repr__(self) -> str:
        return f"PString({''.join(self.symbols)!r})"


def parse_pstring(raw: Iterable[Symbol], alphabet: Alphabet) -> PString:
    """Check each raw symbol against the alphabet.

    ``raw`` is any iterable of symbols: a str in char mode, a token list in
    token mode. Each symbol of the result is the alphabet's own object for
    it, so a text of many tokens holds one ``str`` per distinct token, and
    a token pattern's labels meet the index's by identity. Raises
    UnknownSymbol naming the 1-based position of the first undeclared
    symbol.
    """
    if not isinstance(raw, (str, list, tuple)):
        raw = tuple(raw)  # read once: the error below indexes it
    own = alphabet._own
    try:
        symbols = tuple(map(own.__getitem__, raw))  # one lookup per symbol, in C
    except KeyError:
        i = next(i for i, sym in enumerate(raw) if sym not in own)
        raise UnknownSymbol(raw[i], i + 1) from None
    return PString(symbols, alphabet)


def parse_declared(raw: Sequence[Symbol], constants: Iterable[Symbol],
                   parameters: Iterable[Symbol] | None) -> PString:
    """``parse_pstring`` over the declared alphabet; with ``parameters=None``
    (the wildcard) every non-constant symbol is a parameter, in order of
    first appearance."""
    if parameters is None:
        declared = set(constants)
        parameters = [sym for sym in dict.fromkeys(raw) if sym not in declared]
    return parse_pstring(raw, make_alphabet(constants, parameters))


def split_symbols(line: str, mode: str) -> list[Symbol]:
    """Each character in char mode; in token mode, split on Python whitespace."""
    return list(line) if mode == "char" else line.split()


def join_symbols(symbols: Iterable[Symbol], mode: str) -> str:
    """The inverse of ``split_symbols``."""
    return ("" if mode == "char" else " ").join(symbols)


def prev_encode(w: PString) -> tuple[PrevLabel, ...]:
    """Prev-encode a p-string.

    Position i maps to the symbol itself for constants, to 0 for a
    parameter's first occurrence, and to i - j where j is the nearest
    earlier position holding the same parameter symbol.
    """
    is_param = w.alphabet._is_param
    last: dict[Symbol, int] = {}
    out: list[PrevLabel] = list(w.symbols)
    for i, sym in enumerate(w.symbols):
        if is_param[sym]:
            out[i] = i - last.get(sym, i)
            last[sym] = i
    return tuple(out)


def norm(c: PrevLabel, j: int) -> PrevLabel:
    """Re-normalize a prev label for a window of length j.

    An offset reaching back past the window start collapses to 0; constants
    pass through unchanged.
    """
    if isinstance(c, int) and c > j:
        return 0
    return c


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")


def parse_alphabet_lines(lines: list[str], mode: str) -> tuple[list[Symbol], list[Symbol] | None]:
    """(constants, parameters) from the two alphabet lines; parameters is
    None for the token-mode wildcard."""
    _check_mode(mode)
    body = [ln for ln in lines if ln.strip() != ""]
    if len(body) != 2:
        raise AlphabetFormatError(
            f"expected exactly 2 lines (constants, parameters), got {len(body)}")

    def split_line(line: str, keyword: str) -> list[Symbol]:
        rest = line[len(keyword):]  # empty, or whitespace first
        if not line.startswith(keyword) or rest[:1].strip():
            raise AlphabetFormatError(f"expected line starting with {keyword!r}: {line!r}")
        rest = rest.strip()
        if mode == "char" and any(ch.isspace() for ch in rest):
            raise AlphabetFormatError(
                f"whitespace is not a valid char-mode symbol: {line!r}")
        return split_symbols(rest, mode)

    constants, parameters = map(split_line, body, KEYWORDS)
    if mode == "token" and parameters == [WILDCARD]:
        return constants, None
    return constants, parameters


def format_alphabet_lines(constants: Sequence[Symbol], parameters: Sequence[Symbol],
                          mode: str, wildcard: bool = False) -> list[str]:
    """The inverse of ``parse_alphabet_lines``; with ``wildcard`` the
    ``parameters`` are checked, not written. Raises AlphabetFormatError for
    an alphabet the lines cannot give back, a lone ``*`` parameter in token
    mode included, since it would read back as the wildcard."""
    _check_mode(mode)
    for sym in (*constants, *parameters):
        if sym.split() != [sym] or (mode == "char" and len(sym) != 1):
            raise AlphabetFormatError(
                f"symbol {sym!r} cannot be stored in a {mode}-mode alphabet line")
    if wildcard:
        if mode != "token":
            raise AlphabetFormatError("the wildcard parameter set requires token mode")
        parameters = (WILDCARD,)
    elif mode == "token" and tuple(parameters) == (WILDCARD,):
        raise AlphabetFormatError(
            f"a lone {WILDCARD!r} parameter would read back as the wildcard")
    return [f"{keyword} {join_symbols(symbols, mode)}" if symbols else keyword
            for keyword, symbols in zip(KEYWORDS, (constants, parameters))]
