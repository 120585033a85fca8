"""Alphabets, parameterized strings, and prev-encoding.

A parameterized string (p-string) mixes two kinds of symbols: constants,
which must match literally, and parameters, which match up to a consistent
one-to-one renaming. Prev-encoding replaces every parameter occurrence with
the distance back to the previous occurrence of the same symbol (0 for a
first occurrence) and leaves constants untouched. Two p-strings match under
some renaming of parameters exactly when their prev-encodings are equal,
which reduces renaming-insensitive comparison to plain equality.

Encoded labels are represented directly: a constant label is the symbol
itself (a ``str``), an offset label is a non-negative ``int``. A prev-encoded
string is a plain tuple of such labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import (
    AlphabetFormatError,
    DuplicateSymbol,
    OverlappingAlphabet,
    UnknownSymbol,
)

Symbol = str
PrevLabel = Union[str, int]
PrevString = tuple[PrevLabel, ...]


class _EndOfText:
    """Virtual label distinct from every constant and offset.

    Used as a guard past the last text position so that descents always
    terminate; it never appears in any stored label or children map.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<end-of-text>"


SENTINEL = _EndOfText()


@dataclass(frozen=True, slots=True)
class PSymbol:
    """One classified symbol: the atom plus whether it is a parameter."""

    sym: Symbol
    is_param: bool

    def __repr__(self) -> str:
        kind = "param" if self.is_param else "const"
        return f"PSymbol({self.sym!r}, {kind})"


class Alphabet:
    """Two disjoint ordered symbol sets: constants and parameters.

    Symbols are opaque atoms (single characters in char mode, whole tokens
    in token mode); only identity and membership matter. Declaration order
    is preserved and defines the total label order used wherever traversal
    must be deterministic: constants first, in declaration order, then
    offsets in numeric order.

    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("constants", "parameters", "_const_rank", "_params", "_classes")

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
        self._const_rank = {sym: i for i, sym in enumerate(self.constants)}
        self._params = frozenset(self.parameters)
        # one shared PSymbol per declared symbol; PSymbol is immutable
        self._classes = {sym: PSymbol(sym, False) for sym in self.constants}
        self._classes.update((sym, PSymbol(sym, True)) for sym in self.parameters)

    def is_constant(self, sym: Symbol) -> bool:
        return sym in self._const_rank

    def is_parameter(self, sym: Symbol) -> bool:
        return sym in self._params

    def is_member(self, s: PSymbol) -> bool:
        """True when the classified symbol belongs to this alphabet, tag included."""
        if s.is_param:
            return s.sym in self._params
        return s.sym in self._const_rank

    def classify(self, sym: Symbol, position: int | None = None) -> PSymbol:
        """Tag a raw symbol as constant or parameter; raise UnknownSymbol otherwise."""
        try:
            return self._classes[sym]
        except KeyError:
            raise UnknownSymbol(sym, position) from None

    def label_key(self, label: PrevLabel) -> tuple[int, object]:
        """Sort key realizing the total label order."""
        if isinstance(label, int):
            return (1, label)
        return (0, self._const_rank[label])

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
    """A validated sequence of classified symbols tied to its alphabet.

    Immutable; indexing yields PSymbol values and slicing yields PString
    views over the same alphabet.
    """

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: tuple[PSymbol, ...], alphabet: Alphabet):
        self.symbols = symbols
        self.alphabet = alphabet

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PString(self.symbols[i], self.alphabet)
        return self.symbols[i]

    def __iter__(self) -> Iterator[PSymbol]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PString) and self.symbols == other.symbols

    def __repr__(self) -> str:
        return f"PString({''.join(map(str, self.raw()))!r})"

    def raw(self) -> tuple[Symbol, ...]:
        """The underlying symbols without classification tags."""
        return tuple(s.sym for s in self.symbols)


def parse_pstring(raw: Iterable[Symbol], alphabet: Alphabet) -> PString:
    """Classify each raw symbol against the alphabet.

    ``raw`` is any iterable of symbols: a str in char mode, a token list in
    token mode. Raises UnknownSymbol naming the 1-based offending position.
    """
    if not isinstance(raw, (str, list, tuple)):
        raw = tuple(raw)
    try:
        return PString(tuple(map(alphabet._classes.__getitem__, raw)), alphabet)
    except KeyError as exc:
        sym = exc.args[0]
        # map stops at the first unknown symbol, which is sym's first occurrence
        raise UnknownSymbol(sym, raw.index(sym) + 1) from None


def wildcard_parameters(tokens: Iterable[Symbol], constants: Iterable[Symbol]) -> list[Symbol]:
    """The parameters of the token-mode wildcard ``parameters *``.

    Every token that is not a constant, in order of first appearance.
    """
    declared = set(constants)
    return [tok for tok in dict.fromkeys(tokens) if tok not in declared]


def prev_encode(w: PString) -> tuple[PrevLabel, ...]:
    """Prev-encode a p-string.

    Position i maps to the symbol itself for constants, to 0 for a
    parameter's first occurrence, and to i - j where j is the nearest
    earlier position holding the same parameter symbol.
    """
    last: dict[Symbol, int] = {}
    out = []
    for i, s in enumerate(w.symbols, start=1):
        if s.is_param:
            j = last.get(s.sym)
            out.append(0 if j is None else i - j)
            last[s.sym] = i
        else:
            out.append(s.sym)
    return tuple(out)


class IncrementalEncoder:
    """Streams prev-encoding labels one symbol at a time.

    Feeding a whole string through push() yields exactly prev_encode of
    that string. Single-owner mutable; not safe to share across threads.
    """

    __slots__ = ("alphabet", "last_occurrence", "length")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.last_occurrence: dict[Symbol, int] = {}
        self.length = 0

    def push(self, s: PSymbol) -> PrevLabel:
        """Consume one symbol and return its prev-encoding label."""
        self.length += 1
        if not s.is_param:
            return s.sym
        j = self.last_occurrence.get(s.sym)
        self.last_occurrence[s.sym] = self.length
        return 0 if j is None else self.length - j

    def copy(self) -> "IncrementalEncoder":
        dup = IncrementalEncoder(self.alphabet)
        dup.last_occurrence = dict(self.last_occurrence)
        dup.length = self.length
        return dup


def norm(c: PrevLabel, j: int) -> PrevLabel:
    """Re-normalize a prev label for a window of length j.

    An offset reaching back past the window start collapses to 0; constants
    (and the end-of-text marker) pass through unchanged.
    """
    if isinstance(c, int) and c > j:
        return 0
    return c


def p_match_eq(w1: PString, w2: PString) -> bool:
    """True when the two p-strings match under some renaming of parameters."""
    return prev_encode(w1) == prev_encode(w2)


def render_prev(prev: Iterable[PrevLabel]) -> str:
    """Render an encoded string with offsets in decimal, space-delimited."""
    return " ".join(str(c) for c in prev)


def parse_alphabet_lines(lines: list[str], mode: str) -> tuple[list[Symbol], list[Symbol] | None]:
    """Parse the two-line alphabet description.

    Line 1 is ``constants <symbols>``, line 2 ``parameters <symbols>``; in
    char mode the symbols are concatenated, in token mode whitespace
    separated. Returns (constants, parameters) where parameters is None for
    the token-mode wildcard ``*`` (every undeclared token is a parameter).
    """
    if mode not in ("char", "token"):
        raise ValueError(f"mode must be 'char' or 'token', got {mode!r}")
    body = [ln for ln in lines if ln.strip() != ""]
    if len(body) != 2:
        raise AlphabetFormatError(
            f"expected exactly 2 lines (constants, parameters), got {len(body)}")

    def split_line(line: str, keyword: str) -> list[Symbol]:
        if line != keyword and not line.startswith(keyword + " "):
            raise AlphabetFormatError(f"expected line starting with {keyword!r}: {line!r}")
        rest = line[len(keyword):].lstrip(" ")
        if not rest:
            return []
        if mode == "char":
            if any(ch.isspace() for ch in rest):
                raise AlphabetFormatError(
                    f"whitespace is not a valid char-mode symbol: {line!r}")
            return list(rest)
        return rest.split()

    constants = split_line(body[0], "constants")
    raw_params = split_line(body[1], "parameters")
    if mode == "token" and raw_params == ["*"]:
        return constants, None
    return constants, raw_params
