"""Exception types shared across the package."""


class PPHeapError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetFormatError(PPHeapError):
    """An alphabet is malformed: its description file, or the symbols it declares."""


class DuplicateSymbol(AlphabetFormatError):
    """A symbol was declared twice within one alphabet set."""


class OverlappingAlphabet(AlphabetFormatError):
    """A symbol was declared both constant and parameter."""


class UnknownSymbol(PPHeapError):
    """A symbol does not belong to the alphabet in use at a 1-based ``position``."""

    def __init__(self, symbol, position):
        self.symbol = symbol
        self.position = position
        super().__init__(f"unknown symbol {symbol!r} at position {position}")


class InvalidNode(PPHeapError):
    """A node id does not exist in the index."""

    def __init__(self, node_id):
        self.node_id = node_id
        super().__init__(f"invalid node id {node_id!r}")


class EmptyPattern(PPHeapError):
    """Pattern matching requires a non-empty pattern."""


class StructuralError(PPHeapError):
    """An index violates one of its structural invariants."""


class IndexFormatError(PPHeapError):
    """An index file is malformed or has an unsupported version."""


class InputEncodingError(PPHeapError):
    """A text or alphabet file is not valid UTF-8."""
