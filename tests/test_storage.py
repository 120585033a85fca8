"""Tests for the on-disk index format."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppheap.cli import main
from ppheap.coding import make_alphabet, parse_pstring
from ppheap.errors import IndexFormatError
from ppheap.matching import match_pattern
from ppheap.storage import MAGIC, IndexBundle, dumps, load, loads, save

from conftest import build_audited, random_text, token_text


def make_bundle(raw, alphabet, mode="char"):
    idx = build_audited(raw, alphabet)
    return IndexBundle(idx, None, mode)


class TestRoundTrip:
    def test_byte_identical(self, ab_uvxy):
        rng = random.Random(61)
        for _ in range(25):
            bundle = make_bundle(random_text(rng, ab_uvxy, 48), ab_uvxy)
            blob = dumps(bundle)
            assert dumps(loads(blob)) == blob

    def test_queries_survive(self, ab_uvxy):
        rng = random.Random(62)
        for _ in range(25):
            raw = random_text(rng, ab_uvxy, 48, min_n=1)
            bundle = make_bundle(raw, ab_uvxy)
            again = loads(dumps(bundle))
            pat = parse_pstring(random_text(rng, ab_uvxy, 5, min_n=1), ab_uvxy)
            assert (match_pattern(again.index, again.augmentation, pat)
                    == match_pattern(bundle.index, bundle.augmentation, pat))

    def test_empty_text(self, ab_uvxy):
        bundle = make_bundle("", ab_uvxy)
        again = loads(dumps(bundle))
        assert again.index.n == 0
        assert again.index.node_count == 1
        assert dumps(again) == dumps(bundle)

    def test_token_mode(self):
        alpha = make_alphabet(["for", "while"], ["i", "j"])
        bundle = make_bundle(["i", "for", "j", "i"], alpha, mode="token")
        blob = dumps(bundle)
        again = loads(blob)
        assert again.mode == "token"
        assert again.index.text.symbols == ("i", "for", "j", "i")
        assert dumps(again) == blob

    def test_wildcard_round_trip(self):
        raw = ["for", "i", "in", "total", ":", "x", "=", "i"]
        alpha = make_alphabet(["for", "in", ":", "="], ["i", "total", "x"])
        idx = build_audited(raw, alpha)
        blob = dumps(IndexBundle(idx, None, "token", wildcard=True))
        assert "\nparameters *\n" in blob
        again = loads(blob)
        assert again.wildcard
        assert again.index.alphabet == alpha
        assert dumps(again) == blob

    @pytest.mark.parametrize("wildcard", [False, True])
    def test_loaded_tokens_are_the_alphabets_objects(self, wildcard):
        """The text line splits into one str per token; the loaded text
        holds the alphabet's own object for each, one per distinct token."""
        raw, alpha = token_text(random.Random(64), 300)
        idx = build_audited(raw, alpha)
        again = loads(dumps(IndexBundle(idx, None, "token", wildcard)))
        symbols, alphabet = again.index.text.symbols, again.index.alphabet
        assert symbols == tuple(raw)
        assert len({id(s) for s in symbols}) == len(set(symbols))
        own = {s: s for s in alphabet.constants + alphabet.parameters}
        assert all(s is own[s] for s in symbols)

    def test_file_round_trip(self, tmp_path, ab_uvxy):
        bundle = make_bundle("uvaubuavbv", ab_uvxy)
        path = tmp_path / "t.pph"
        save(bundle, path)
        again = load(path)
        save(again, tmp_path / "t2.pph")
        assert (tmp_path / "t.pph").read_bytes() == (tmp_path / "t2.pph").read_bytes()


def reseal(blob: str) -> str:
    """Replace the checksum line so that the checks behind it are reached."""
    body = blob[:blob.rindex("sha256 ")]
    return body + "sha256 " + hashlib.sha256(body.encode("utf-8")).hexdigest() + "\n"


class TestValidation:
    def test_version_mismatch_is_hard_error(self, ab_uvxy):
        blob = dumps(make_bundle("uv", ab_uvxy))
        magic, rest = blob.split("\n", 1)
        assert magic == MAGIC
        with pytest.raises(IndexFormatError, match="rebuild"):
            loads("PPH/9\n" + rest)

    def test_truncated(self, ab_uvxy):
        blob = dumps(make_bundle("uvau", ab_uvxy))
        lines = blob.splitlines()
        with pytest.raises(IndexFormatError):
            loads("\n".join(lines[:5]) + "\n")

    def test_garbled_checksum(self, ab_uvxy):
        blob = dumps(make_bundle("uvau", ab_uvxy))
        digit = blob[-2]
        bad = blob[:-2] + ("0" if digit != "0" else "1") + "\n"
        with pytest.raises(IndexFormatError, match="checksum"):
            loads(bad)

    def test_garbled_text(self, ab_uvxy):
        blob = dumps(make_bundle("uvau", ab_uvxy))
        for garbled in ("uvav", "uva\ud800"):
            bad = blob.replace("\nuvau\n", f"\n{garbled}\n", 1)
            assert bad != blob
            with pytest.raises(IndexFormatError, match="checksum"):
                loads(bad)

    def test_text_header_disagreement(self, ab_uvxy):
        blob = dumps(make_bundle("uvau", ab_uvxy))
        bad = reseal(blob.replace("\nn 4\n", "\nn 5\n", 1))
        with pytest.raises(IndexFormatError, match="length"):
            loads(bad)

    def test_bad_alphabet(self, ab_uvxy):
        blob = dumps(make_bundle("uvau", ab_uvxy))
        bad = reseal(blob.replace("constants ab", "constants au", 1))
        with pytest.raises(IndexFormatError, match="alphabet"):
            loads(bad)

    @pytest.mark.parametrize("line", ["mode chars", "mode  char", "mode", "modechar"])
    def test_bad_mode_line(self, ab_uvxy, line):
        blob = dumps(make_bundle("uvau", ab_uvxy))
        bad = reseal(blob.replace("\nmode char\n", f"\n{line}\n", 1))
        with pytest.raises(IndexFormatError, match="mode line"):
            loads(bad)

    @pytest.mark.parametrize("line", ["constantsab", "constants a b"],
                             ids=["no-space-after-keyword", "char-interior-space"])
    def test_malformed_constants_line(self, ab_uvxy, line):
        blob = dumps(make_bundle("uvau", ab_uvxy))
        bad = reseal(blob.replace("\nconstants ab\n", f"\n{line}\n", 1))
        with pytest.raises(IndexFormatError, match="bad alphabet section"):
            loads(bad)

    def test_unknown_text_symbol(self, ab_uvxy):
        blob = dumps(make_bundle("uvau", ab_uvxy))
        bad = reseal(blob.replace("\nuvau\n", "\nuvaz\n", 1))
        with pytest.raises(IndexFormatError, match="'z'"):
            loads(bad)

    def test_trailing_garbage(self, ab_uvxy):
        blob = dumps(make_bundle("uv", ab_uvxy))
        with pytest.raises(IndexFormatError):
            loads(blob + "extra\n")

    def test_symbols_with_whitespace_rejected(self):
        alpha = make_alphabet(["a b"], ["x"])
        idx = build_audited([], alpha)
        with pytest.raises(IndexFormatError):
            dumps(IndexBundle(idx, None, "token"))

    def test_unstorable_wildcard_rejected(self):
        idx = build_audited(["*"], make_alphabet([], ["*"]))
        # a concrete lone '*' would read back as the wildcard
        with pytest.raises(IndexFormatError):
            dumps(IndexBundle(idx, None, "token"))
        # char mode has no wildcard: '*' is an ordinary symbol there
        with pytest.raises(IndexFormatError):
            dumps(IndexBundle(idx, None, "char", wildcard=True))

    def test_unknown_mode_not_written(self, ab_uvxy):
        with pytest.raises(IndexFormatError, match="mode must be"):
            dumps(make_bundle("uv", ab_uvxy, mode="chars"))

    def test_unstorable_inferred_parameter_rejected(self):
        """The wildcard's parameters are not written, but must read back."""
        idx = build_audited(["for", "a b"], make_alphabet(["for"], ["a b"]))
        with pytest.raises(IndexFormatError, match="'a b'"):
            dumps(IndexBundle(idx, None, "token", wildcard=True))


# (mode, alphabet file, text file, patterns) for the hostile-file tests
HOSTILE_FIXTURES = {
    "char": ("constants ab\nparameters uvxy\n", "uvaubuavbv\n",
             ["xayby", "uv", "a", "bv", "yby"]),
    "token": ("constants for in : =\nparameters *\n", "for i in total : x = i\n",
              ["for j in count", "x = y", "i", ": k = m", "in total"]),
}


def run_query(index, pattern):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["query", "--index", str(index), f"--pattern={pattern}"])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def hostile(tmp_path_factory):
    """Per mode: the index file's bytes, a scratch path, and the original answers."""
    out = {}
    for mode, (alphabet, text, patterns) in HOSTILE_FIXTURES.items():
        work = tmp_path_factory.mktemp(mode)
        (work / "alphabet.txt").write_text(alphabet)
        (work / "text.txt").write_text(text)
        index = work / "index.pph"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", "--text", str(work / "text.txt"),
                         "--alphabet", str(work / "alphabet.txt"),
                         "--mode", mode, "--out", str(index)]) == 0
        answers = {}
        for pattern in patterns:
            code, stdout, _ = run_query(index, pattern)
            assert code == 0 and stdout, (mode, pattern)
            answers[pattern] = stdout
        out[mode] = (index.read_bytes(), work / "hostile.pph", answers)
    return out


def assert_safe(path, data: bytes, answers) -> None:
    """Rejected with IndexFormatError, or every pattern answers as before or
    is refused as an unknown symbol; anything else fails the test."""
    path.write_bytes(data)
    try:
        load(path)
    except IndexFormatError:
        return
    for pattern, want in answers.items():
        code, stdout, err = run_query(path, pattern)
        if code == 1:
            assert "unknown symbol" in err, (data, pattern, err)
        else:
            assert (code, stdout) == (0, want), (data, pattern)


class TestHostileFiles:
    @pytest.mark.parametrize("mode", sorted(HOSTILE_FIXTURES))
    def test_every_truncation(self, hostile, mode):
        blob, path, answers = hostile[mode]
        for cut in range(len(blob)):
            assert_safe(path, blob[:cut], answers)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(mode=st.sampled_from(sorted(HOSTILE_FIXTURES)),
           where=st.integers(min_value=0), byte=st.integers(0, 255))
    def test_single_byte_mutations(self, hostile, mode, where, byte):
        blob, path, answers = hostile[mode]
        where %= len(blob)
        assert_safe(path, blob[:where] + bytes([byte]) + blob[where + 1:], answers)
