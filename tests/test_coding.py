"""Tests for alphabets, p-strings, and prev-encoding."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppheap.coding import (
    MODES,
    format_alphabet_lines,
    join_symbols,
    make_alphabet,
    norm,
    parse_alphabet_lines,
    parse_declared,
    parse_pstring,
    prev_encode,
    split_symbols,
)
from ppheap.errors import (
    AlphabetFormatError,
    DuplicateSymbol,
    OverlappingAlphabet,
    UnknownSymbol,
)

from conftest import random_text


class TestAlphabet:
    def test_declared_partition(self):
        alpha = make_alphabet(list("ab"), list("uvxy"))
        assert alpha.constants == ("a", "b")
        assert alpha.parameters == ("u", "v", "x", "y")
        assert "a" in alpha.constants and "a" not in alpha.parameters
        assert "u" in alpha.parameters and "u" not in alpha.constants

    def test_empty_parameters_is_valid(self):
        alpha = make_alphabet(["a"], [])
        assert alpha.parameters == ()

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingAlphabet):
            make_alphabet(["a"], ["a"])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateSymbol):
            make_alphabet(["a", "a"], [])
        with pytest.raises(DuplicateSymbol):
            make_alphabet([], ["x", "x"])


class TestParse:
    def test_classification(self, ab_uvxy):
        w = parse_pstring("uvaubuavbv", ab_uvxy)
        assert len(w) == 10
        const_positions = [i for i, s in enumerate(w, start=1)
                           if s not in ab_uvxy.parameters]
        assert const_positions == [3, 5, 7, 9]

    def test_empty(self, ab_uvxy):
        assert len(parse_pstring("", ab_uvxy)) == 0

    def test_unknown_symbol_names_position(self, ab_uvxy):
        with pytest.raises(UnknownSymbol) as info:
            parse_pstring("uz", ab_uvxy)
        assert info.value.symbol == "z"
        assert info.value.position == 2

    @pytest.mark.parametrize("raw", [
        "uvbzaz",
        list("uvbzaz"),
        (sym for sym in "uvbzaz"),
    ], ids=["str", "list", "generator"])
    def test_unknown_symbol_is_the_same_for_any_iterable(self, ab_uvxy, raw):
        with pytest.raises(UnknownSymbol) as info:
            parse_pstring(raw, ab_uvxy)
        assert (info.value.symbol, info.value.position) == ("z", 4)

    def test_token_symbols_are_the_alphabets_own(self):
        """Tokens split from a string are new str objects; the parsed
        symbols are the alphabet's, so equal tokens are one object and a
        pattern's labels meet the index's by identity."""
        alphabet = make_alphabet(["for", "in"], ["alpha", "beta"])
        own = {sym: sym for sym in alphabet.constants + alphabet.parameters}
        raw = " ".join(["for", "alpha", "in", "beta", "alpha", "for"]).split()
        assert raw[1] is not raw[4]
        symbols = parse_pstring(raw, alphabet).symbols
        assert symbols == tuple(raw)
        assert all(sym is own[sym] for sym in symbols)
        for short in ([], ["beta"]):
            assert parse_pstring(short, alphabet).symbols == tuple(short)

    def test_slicing_preserves_alphabet(self, ab_uvxy):
        w = parse_pstring("uvau", ab_uvxy)
        tail = w[1:]
        assert tail.alphabet is ab_uvxy
        assert tail.symbols == ("v", "a", "u")

    def test_alphabet_takes_part_in_equality(self, ab_uvxy):
        # x is a parameter in one alphabet and a constant in the other
        w = parse_pstring("xax", ab_uvxy)
        assert w == parse_pstring("xax", make_alphabet(list("ab"), list("uvxy")))
        other = parse_pstring("xax", make_alphabet(list("ax"), list("uv")))
        assert w.symbols == other.symbols
        assert w != other


class TestPrevEncode:
    def test_constants_pass_through(self, ab_uvxy):
        assert prev_encode(parse_pstring("abab", ab_uvxy)) == ("a", "b", "a", "b")

    def test_repeated_parameter(self, ab_uvxy):
        assert prev_encode(parse_pstring("xxxx", ab_uvxy)) == (0, 1, 1, 1)

    def test_empty(self, ab_uvxy):
        assert prev_encode(parse_pstring("", ab_uvxy)) == ()

    def test_length_preserved(self, ab_uvxy):
        rng = random.Random(11)
        for _ in range(100):
            raw = random_text(rng, ab_uvxy, 40)
            assert len(prev_encode(parse_pstring(raw, ab_uvxy))) == len(raw)

    def test_offsets_stay_in_window(self, ab_uvxy):
        rng = random.Random(12)
        for _ in range(100):
            raw = random_text(rng, ab_uvxy, 40)
            pre = prev_encode(parse_pstring(raw, ab_uvxy))
            for i, c in enumerate(pre, start=1):
                if isinstance(c, int):
                    assert 0 <= c <= i - 1

    def test_equality_structure_recoverable(self, ab_uvxy):
        """The encoding alone determines which positions share a parameter."""
        rng = random.Random(13)
        for _ in range(100):
            raw = random_text(rng, ab_uvxy, 30)
            w = parse_pstring(raw, ab_uvxy)
            pre = prev_encode(w)
            # chase offset chains to recover occurrence classes
            cls = {}
            for i, c in enumerate(pre, start=1):
                if not isinstance(c, int):
                    continue
                cls[i] = i if c == 0 else cls[i - c]
            for i in range(1, len(raw) + 1):
                for j in range(i + 1, len(raw) + 1):
                    if (w[i - 1] in ab_uvxy.parameters
                            and w[j - 1] in ab_uvxy.parameters):
                        assert (cls[i] == cls[j]) == (raw[i - 1] == raw[j - 1])

    def test_drop_first_symbol_law(self, ab_uvxy):
        """Encoding a one-shorter suffix equals re-normalizing the longer one."""
        rng = random.Random(14)
        for _ in range(60):
            raw = random_text(rng, ab_uvxy, 24, min_n=1)
            w = parse_pstring(raw, ab_uvxy)
            for i in range(len(raw) - 1):
                a = prev_encode(w[i:])
                b = prev_encode(w[i + 1:])
                assert len(b) == len(a) - 1
                for k in range(len(b)):
                    assert b[k] == norm(a[k + 1], k)


class TestNorm:
    def test_constant_passes(self):
        assert norm("a", 0) == "a"

    def test_offset_clipped(self):
        assert norm(3, 2) == 0

    def test_boundary_kept(self):
        assert norm(2, 2) == 2

    def test_zero_offset(self):
        assert norm(0, 0) == 0


class TestPMatch:
    """Two p-strings match under renaming exactly when their encodings are equal."""

    def test_known_matching_pair(self, ab_uvxy):
        s1 = parse_pstring("uvuvauuvb", ab_uvxy)
        s2 = parse_pstring("xyxyaxxyb", ab_uvxy)
        assert prev_encode(s1) == prev_encode(s2)

    def test_reflexive(self, ab_uvxy):
        rng = random.Random(16)
        for _ in range(30):
            raw = random_text(rng, ab_uvxy, 20)
            assert (prev_encode(parse_pstring(raw, ab_uvxy))
                    == prev_encode(parse_pstring(list(raw), ab_uvxy)))

    def test_distinct_structure(self, ab_uvxy):
        assert (prev_encode(parse_pstring("uv", ab_uvxy))
                != prev_encode(parse_pstring("uu", ab_uvxy)))

    def test_invariant_under_renaming(self, ab_uvxy):
        rng = random.Random(17)
        params = list(ab_uvxy.parameters)
        for _ in range(50):
            raw = random_text(rng, ab_uvxy, 30)
            renamed = params[:]
            rng.shuffle(renamed)
            table = dict(zip(params, renamed))
            other = [table.get(c, c) for c in raw]
            assert (prev_encode(parse_pstring(raw, ab_uvxy))
                    == prev_encode(parse_pstring(other, ab_uvxy)))

    def test_equivalence_on_samples(self, ab_uvxy):
        """Equal encodings exactly when a one-to-one renaming maps one word onto the other."""
        def renamable(a, b):
            if len(a) != len(b):
                return False
            forward, backward = {}, {}
            for x, y in zip(a, b):
                if (x in ab_uvxy.parameters) != (y in ab_uvxy.parameters):
                    return False
                if x not in ab_uvxy.parameters:
                    if x != y:
                        return False
                elif forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
                    return False
            return True

        rng = random.Random(18)
        words = [random_text(rng, ab_uvxy, 6) for _ in range(40)]
        words += [list("uvu"), list("xyx"), list("uvv"), list("uau"), list("xax")]
        for w1 in words:
            e1 = prev_encode(parse_pstring(w1, ab_uvxy))
            for w2 in words:
                e2 = prev_encode(parse_pstring(w2, ab_uvxy))
                assert (e1 == e2) == renamable(w1, w2)


class TestAlphabetLines:
    def test_char_mode(self):
        consts, params = parse_alphabet_lines(["constants ab", "parameters uvxy"],
                                              "char")
        assert consts == ["a", "b"]
        assert params == ["u", "v", "x", "y"]

    def test_token_mode(self):
        consts, params = parse_alphabet_lines(
            ["constants for while", "parameters i j total"], "token")
        assert consts == ["for", "while"]
        assert params == ["i", "j", "total"]

    def test_token_wildcard(self):
        consts, params = parse_alphabet_lines(["constants for", "parameters *"],
                                              "token")
        assert consts == ["for"]
        assert params is None

    def test_char_star_is_a_symbol(self):
        consts, params = parse_alphabet_lines(["constants a", "parameters *"],
                                              "char")
        assert params == ["*"]

    def test_empty_sets(self):
        consts, params = parse_alphabet_lines(["constants ab", "parameters"],
                                              "char")
        assert consts == ["a", "b"]
        assert params == []

    @pytest.mark.parametrize("lines, mode, want", [
        (["constants\tfor in", "parameters *"], "token", (["for", "in"], None)),
        (["constants\u3000for in", "parameters\u3000i"], "token", (["for", "in"], ["i"])),
        (["constants ab", "parameters\txy"], "char", (["a", "b"], ["x", "y"])),
        (["constants\t ab \u3000", "parameters\t"], "char", (["a", "b"], [])),
    ], ids=["token-tab", "token-U+3000", "char-tab", "char-around"])
    def test_any_whitespace_after_keyword(self, lines, mode, want):
        assert parse_alphabet_lines(lines, mode) == want

    @pytest.mark.parametrize("lines", [
        ["constants ab"],
        ["parameters xy", "constants ab"],
        ["constants ab", "parameters xy", "extra line"],
        ["wrong ab", "parameters xy"],
        ["constantsab", "parameters xy"],
        ["constants a\tb", "parameters xy"],
    ])
    def test_malformed(self, lines):
        with pytest.raises(AlphabetFormatError):
            parse_alphabet_lines(lines, "char")


# symbols made of these read back; one drawn from WHITESPACE may not
STORABLE = ["a", "b", "\u00e9", "*", "\x84", "\u3001"]
WHITESPACE = [" ", "\t", "\r", "\u3000", "\x85"]


def reads_back(sym: str, mode: str) -> bool:
    return sym != "" and not any(ch.isspace() for ch in sym) and (
        mode == "token" or len(sym) == 1)


class TestFormatAlphabetLines:
    """``format_alphabet_lines`` writes what ``parse_alphabet_lines`` reads back."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(mode=st.sampled_from(MODES), wildcard=st.booleans(),
           symbols=st.lists(st.text(st.sampled_from(STORABLE), min_size=1, max_size=2),
                            max_size=5, unique=True),
           odd=st.none() | st.text(st.sampled_from(STORABLE + WHITESPACE), max_size=2),
           cut=st.integers(0, 6))
    def test_round_trip_or_refusal(self, mode, wildcard, symbols, odd, cut):
        if odd is not None and odd not in symbols:
            symbols.insert(cut, odd)
        constants, parameters = symbols[:cut], symbols[cut:]
        storable = (all(reads_back(sym, mode) for sym in symbols)
                    and (mode == "token" or not wildcard)
                    and (wildcard or mode == "char" or parameters != ["*"]))
        try:
            lines = format_alphabet_lines(constants, parameters, mode, wildcard)
        except AlphabetFormatError:
            assert not storable
        else:
            assert storable
            assert parse_alphabet_lines(lines, mode) == (
                constants, None if wildcard else parameters)

    def test_lines(self):
        assert format_alphabet_lines(["a", "b"], [], "char") == ["constants ab", "parameters"]
        assert format_alphabet_lines(["for", "in"], ["i", "*"], "token") == [
            "constants for in", "parameters i *"]
        assert format_alphabet_lines([], ["i"], "token", wildcard=True) == [
            "constants", "parameters *"]


class TestParseDeclared:
    """The one place that classifies raw symbols, the wildcard included."""

    def test_wildcard_parameters_in_order_of_first_appearance(self):
        w = parse_declared("for j in i j k i".split(), ["for", "in"], None)
        assert w.alphabet.constants == ("for", "in")
        assert w.alphabet.parameters == ("j", "i", "k")
        assert w.symbols == ("for", "j", "in", "i", "j", "k", "i")

    def test_wildcard_excludes_a_leading_constant(self):
        w = parse_declared(["=", "x", "=", "y", "x"], ["="], None)
        assert w.alphabet.parameters == ("x", "y")
        assert prev_encode(w) == ("=", 0, "=", 0, 3)

    def test_wildcard_on_constants_only(self):
        w = parse_declared(["a", "b", "a"], ["a", "b", "c"], None)
        assert w.alphabet.parameters == ()
        assert w.alphabet.constants == ("a", "b", "c")

    def test_explicit_parameters_keep_their_order(self):
        w = parse_declared(list("yaxy"), ["a"], ["x", "y", "z"])
        assert w.alphabet == make_alphabet(["a"], ["x", "y", "z"])
        assert w.symbols == ("y", "a", "x", "y")

    def test_explicit_unknown_symbol_names_its_position(self):
        with pytest.raises(UnknownSymbol) as info:
            parse_declared(list("xayqa"), ["a"], ["x", "y"])
        assert info.value.position == 4
        assert info.value.symbol == "q"

    def test_explicit_overlap_still_refused(self):
        with pytest.raises(OverlappingAlphabet):
            parse_declared(list("xa"), ["a", "x"], ["x"])


class TestSplitSymbols:
    @pytest.mark.parametrize("mode", ["char", "token"])
    def test_empty_line_has_no_symbols(self, mode):
        assert split_symbols("", mode) == []
        assert join_symbols([], mode) == ""

    def test_char_mode_keeps_every_character(self):
        assert split_symbols("a b\t\u3000", "char") == ["a", " ", "b", "\t", "\u3000"]
        assert join_symbols(["a", " ", "b"], "char") == "a b"

    @pytest.mark.parametrize("sep", ["\t", "  ", "\u3000", "\u00a0"],
                             ids=["tab", "double-space", "U+3000", "U+00A0"])
    def test_token_mode_splits_on_unicode_whitespace(self, sep):
        assert split_symbols(f"{sep}for{sep}i{sep}in x{sep}", "token") == ["for", "i", "in", "x"]
