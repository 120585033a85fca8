"""Position-heap indexing and matching for parameterized strings.

Build an index over a text whose symbols split into constants and
parameters, then find every substring that equals a pattern up to a
consistent renaming of the parameter symbols. Construction is online and
runs in near-linear time; queries cost roughly the pattern length times the
alphabet-lookup cost plus the number of occurrences. The ``oracle`` module
holds deliberately naive reference implementations for cross-validation.
"""

from .augment import Augmentation, augment, compute_mrp, preorder_intervals, subtree_positions
from .coding import (
    Alphabet,
    PrevLabel,
    PString,
    Symbol,
    make_alphabet,
    norm,
    parse_alphabet_lines,
    parse_pstring,
    prev_encode,
)
from .dot import to_dot
from .errors import (
    AlphabetFormatError,
    DuplicateSymbol,
    EmptyPattern,
    IndexFormatError,
    InputEncodingError,
    InvalidNode,
    OverlappingAlphabet,
    PPHeapError,
    StructuralError,
    UnknownSymbol,
)
from .heap import (
    BOTTOM,
    ROOT,
    Builder,
    IndexStats,
    PPHIndex,
    audit_index,
    build_index,
)
from .matching import SegmentWalk, match_pattern, segment_walk
from .oracle import NaiveTree, naive_match, naive_mrp, naive_pph, naive_sequence_hash_tree, trees_equal
from .selftest import TrialFailure, letters_alphabet, run_selftest
from .storage import IndexBundle, dumps, load, loads, read_alphabet_file, save

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetFormatError",
    "Augmentation",
    "BOTTOM",
    "Builder",
    "DuplicateSymbol",
    "EmptyPattern",
    "IndexBundle",
    "IndexFormatError",
    "IndexStats",
    "InputEncodingError",
    "InvalidNode",
    "NaiveTree",
    "OverlappingAlphabet",
    "PPHIndex",
    "PPHeapError",
    "PString",
    "PrevLabel",
    "ROOT",
    "SegmentWalk",
    "StructuralError",
    "Symbol",
    "TrialFailure",
    "UnknownSymbol",
    "audit_index",
    "augment",
    "build_index",
    "compute_mrp",
    "dumps",
    "letters_alphabet",
    "load",
    "loads",
    "make_alphabet",
    "match_pattern",
    "naive_match",
    "naive_mrp",
    "naive_pph",
    "naive_sequence_hash_tree",
    "norm",
    "parse_alphabet_lines",
    "parse_pstring",
    "preorder_intervals",
    "prev_encode",
    "read_alphabet_file",
    "run_selftest",
    "save",
    "segment_walk",
    "subtree_positions",
    "to_dot",
    "trees_equal",
]
