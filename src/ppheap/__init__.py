"""Position-heap indexing and matching for parameterized strings.

Build an index over a text whose symbols split into constants and
parameters, then find every substring that equals a pattern up to a
consistent renaming of the parameter symbols. Construction is online and
runs in near-linear time; queries cost roughly the pattern length times the
alphabet-lookup cost plus the number of occurrences. The ``oracle`` module
holds deliberately naive reference implementations for cross-validation.
Everything else is imported from its submodule (``ppheap.heap``,
``ppheap.storage``, ...).
"""

from .augment import augment
from .coding import make_alphabet, parse_pstring
from .heap import audit_index, build_index
from .matching import match_pattern
from .oracle import naive_match, naive_pph, trees_equal

__all__ = [
    "audit_index",
    "augment",
    "build_index",
    "make_alphabet",
    "match_pattern",
    "naive_match",
    "naive_pph",
    "parse_pstring",
    "trees_equal",
]
