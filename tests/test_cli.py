"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import importlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ppheap import matching, storage
from ppheap.augment import augment
from ppheap.cli import main
from ppheap.coding import MODES, make_alphabet, parse_declared, parse_pstring
from ppheap.oracle import naive_match

# an index written by the previous file format, which this version refuses
PPH1_INDEX = ("PPH/1\nmode char\nconstants a\nparameters xy\nn 3\nxax\nnodes 3\n"
              "0 - - - - -\n1 0 0 1 3 0\n2 0 C:a 2 - 0\nmrp 1 2 1\npreorder 0:3 2:1 1:1\n")

# export-dot output for the README char fixture (workspace); each node's
# tree edges are listed in creation order
DEMO_DOT = (
    'digraph pheap {\n'
    '  node [shape=circle, fontsize=10];\n'
    '  n0 [label="root"];\n'
    '  n1 [label="1/10"];\n'
    '  n2 [label="2"];\n'
    '  n3 [label="3"];\n'
    '  n4 [label="4"];\n'
    '  n5 [label="5"];\n'
    '  n6 [label="6"];\n'
    '  n7 [label="7"];\n'
    '  n8 [label="8"];\n'
    '  n9 [label="9"];\n'
    '  n0 -> n1 [label="0"];\n'
    '  n0 -> n3 [label="a"];\n'
    '  n0 -> n5 [label="b"];\n'
    '  n1 -> n2 [label="a"];\n'
    '  n1 -> n4 [label="b"];\n'
    '  n2 -> n6 [label="0"];\n'
    '  n3 -> n7 [label="0"];\n'
    '  n4 -> n8 [label="2"];\n'
    '  n5 -> n9 [label="0"];\n'
    '  n1 -> n0 [style=dashed, constraint=false];\n'
    '  n2 -> n3 [style=dashed, constraint=false];\n'
    '  n3 -> n0 [style=dashed, constraint=false];\n'
    '  n4 -> n5 [style=dashed, constraint=false];\n'
    '  n5 -> n0 [style=dashed, constraint=false];\n'
    '  n6 -> n7 [style=dashed, constraint=false];\n'
    '  n7 -> n1 [style=dashed, constraint=false];\n'
    '  n8 -> n9 [style=dashed, constraint=false];\n'
    '  n9 -> n1 [style=dashed, constraint=false];\n'
    '  n2 -> n6 [style=bold, color=gray50, constraint=false, label="2"];\n'
    '  n3 -> n7 [style=bold, color=gray50, constraint=false, label="3"];\n'
    '  n4 -> n8 [style=bold, color=gray50, constraint=false, label="4"];\n'
    '  n5 -> n9 [style=bold, color=gray50, constraint=false, label="5"];\n'
    '}\n'
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "alphabet.txt").write_text("constants ab\nparameters uvxy\n")
    (tmp_path / "text.txt").write_text("uvaubuavbv\n")
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_demo(workspace, capsys):
    """Index the workspace text; return the index file's path."""
    out_path = workspace / "t.pph"
    run(["build", "--text", str(workspace / "text.txt"),
         "--alphabet", str(workspace / "alphabet.txt"),
         "--out", str(out_path)], capsys)
    return out_path


class TestBuild:
    def test_build_writes_index_and_stats(self, workspace, capsys):
        out_path = workspace / "t.pph"
        code, out, _ = run([
            "build", "--text", str(workspace / "text.txt"),
            "--alphabet", str(workspace / "alphabet.txt"),
            "--mode", "char", "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.exists()
        assert "n=10" in out and "nodes=" in out and "double=" in out
        assert "depth=" in out and "build_s=" in out

    def test_empty_text(self, workspace, capsys):
        (workspace / "empty.txt").write_text("")
        code, out, _ = run([
            "build", "--text", str(workspace / "empty.txt"),
            "--alphabet", str(workspace / "alphabet.txt"),
            "--out", str(workspace / "e.pph")], capsys)
        assert code == 0
        assert "n=0 nodes=1" in out

    def test_undeclared_symbol_exits_1(self, workspace, capsys):
        (workspace / "bad.txt").write_text("uvz\n")
        code, _, err = run([
            "build", "--text", str(workspace / "bad.txt"),
            "--alphabet", str(workspace / "alphabet.txt"),
            "--out", str(workspace / "b.pph")], capsys)
        assert code == 1
        assert "'z'" in err and "position 3" in err

    def test_malformed_alphabet_exits_3(self, workspace, capsys):
        (workspace / "broken.txt").write_text("only one line\n")
        code, _, err = run([
            "build", "--text", str(workspace / "text.txt"),
            "--alphabet", str(workspace / "broken.txt"),
            "--out", str(workspace / "x.pph")], capsys)
        assert code == 3

    def test_missing_file_exits_2(self, workspace, capsys):
        code, _, _ = run([
            "build", "--text", str(workspace / "nope.txt"),
            "--alphabet", str(workspace / "alphabet.txt"),
            "--out", str(workspace / "x.pph")], capsys)
        assert code == 2

    def test_crlf_line_end_is_not_text(self, workspace, capsys):
        (workspace / "crlf.txt").write_bytes(b"uvaubuavbv\r\n")
        blobs = []
        for name in ("text.txt", "crlf.txt"):
            out_path = workspace / f"{name}.pph"
            code, out, _ = run([
                "build", "--text", str(workspace / name),
                "--alphabet", str(workspace / "alphabet.txt"),
                "--mode", "char", "--out", str(out_path)], capsys)
            assert code == 0 and "n=10" in out
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_lone_cr_in_char_text_is_named(self, workspace, capsys):
        (workspace / "cr.txt").write_bytes(b"uv\rau\n")
        code, _, err = run([
            "build", "--text", str(workspace / "cr.txt"),
            "--alphabet", str(workspace / "alphabet.txt"),
            "--out", str(workspace / "cr.pph")], capsys)
        assert code == 1
        assert "'\\r'" in err and "position 3" in err

    def test_crlf_alphabet_file(self, workspace, capsys):
        (workspace / "crlf-alphabet.txt").write_bytes(b"constants ab\r\nparameters uvxy\r\n")
        blobs = []
        for name in ("alphabet.txt", "crlf-alphabet.txt"):
            out_path = workspace / f"{name}.pph"
            code, out, _ = run([
                "build", "--text", str(workspace / "text.txt"),
                "--alphabet", str(workspace / name),
                "--mode", "char", "--out", str(out_path)], capsys)
            assert code == 0 and "n=10" in out
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_build_computes_no_augmentation(self, workspace, capsys, monkeypatch):
        """build writes only the alphabet and the text, so it needs no reach
        pointers or preorder intervals; a later query computes them."""
        argv = ["build", "--text", str(workspace / "text.txt"),
                "--alphabet", str(workspace / "alphabet.txt"), "--out"]
        code, _, _ = run(argv + [str(workspace / "plain.pph")], capsys)
        assert code == 0

        def refuse(*args):
            raise AssertionError("build computed the augmentation")

        with monkeypatch.context() as m:
            # the package exports the function augment under the module's name
            module = importlib.import_module("ppheap.augment")
            m.setattr(module, "compute_mrp", refuse)
            m.setattr(module, "preorder_intervals", refuse)
            code, out, _ = run(argv + [str(workspace / "lean.pph")], capsys)
        assert code == 0 and "n=10 nodes=10 double=1 depth=3" in out
        lean = workspace / "lean.pph"
        assert lean.read_bytes() == (workspace / "plain.pph").read_bytes()
        code, out, _ = run(
            ["query", "--index", str(lean), "--pattern", "xayby", "--verify"], capsys)
        assert code == 0 and out == "2\n6\n"

    def test_non_utf8_text_exits_2(self, workspace, capsys):
        (workspace / "bom16.txt").write_bytes(b"\xff\xfeu\x00v\x00")
        out_path = workspace / "x.pph"
        code, _, err = run([
            "build", "--text", str(workspace / "bom16.txt"),
            "--alphabet", str(workspace / "alphabet.txt"),
            "--out", str(out_path)], capsys)
        assert code == 2
        assert "bom16.txt" in err and "UTF-8" in err
        assert not out_path.exists()

    def test_non_utf8_alphabet_exits_2(self, workspace, capsys):
        (workspace / "alpha16.txt").write_bytes(b"\xff\xfe" + "constants ab\n".encode("utf-16-le"))
        code, _, err = run([
            "build", "--text", str(workspace / "text.txt"),
            "--alphabet", str(workspace / "alpha16.txt"),
            "--out", str(workspace / "x.pph")], capsys)
        assert code == 2
        assert "alpha16.txt" in err and "UTF-8" in err

    def test_token_mode_wildcard(self, tmp_path, capsys):
        (tmp_path / "alpha.txt").write_text("constants for while\nparameters *\n")
        (tmp_path / "code.txt").write_text("i for j while i j i\n")
        code, out, _ = run([
            "build", "--text", str(tmp_path / "code.txt"),
            "--alphabet", str(tmp_path / "alpha.txt"),
            "--mode", "token", "--out", str(tmp_path / "c.pph")], capsys)
        assert code == 0
        assert "n=7" in out

    @pytest.mark.parametrize("mode,alphabet,sep,text,pattern", [
        ("token", "constants{}for in\nparameters *\n", "\t",
         "for i in xs for j in ys\n", "for k in zs"),
        ("char", "constants ab\nparameters{}xy\n", "\t", "xaybyaxb\n", "yaxb"),
        ("token", "constants{}for in\nparameters *\n", "\u3000",
         "for i in xs for j in ys\n", "for k in zs"),
    ], ids=["token-tab", "char-tab", "token-U+3000"])
    def test_any_whitespace_after_keyword(self, tmp_path, capsys, mode, alphabet, sep,
                                          text, pattern):
        """Built and answered as with one space after the keyword."""
        (tmp_path / "text.txt").write_text(text, encoding="utf-8")
        answers = []
        for name, after in (("odd", sep), ("plain", " ")):
            (tmp_path / "alpha.txt").write_text(alphabet.format(after), encoding="utf-8")
            index = tmp_path / f"{name}.pph"
            code, _, err = run(["build", "--text", str(tmp_path / "text.txt"),
                                "--alphabet", str(tmp_path / "alpha.txt"),
                                "--mode", mode, "--out", str(index)], capsys)
            assert (code, err) == (0, "")
            answers.append(run(["query", "--index", str(index), "--pattern", pattern,
                                "--verify"], capsys))
        assert (tmp_path / "odd.pph").read_bytes() == (tmp_path / "plain.pph").read_bytes()
        assert answers[0] == answers[1] == (0, "1\n5\n", "")

    def test_whitespace_among_char_symbols_exits_3(self, workspace, capsys):
        (workspace / "alpha.txt").write_text("constants a\tb\nparameters uvxy\n")
        code, out, err = run(["build", "--text", str(workspace / "text.txt"),
                              "--alphabet", str(workspace / "alpha.txt"),
                              "--out", str(workspace / "x.pph")], capsys)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "whitespace" in err

    def test_lone_cr_in_alphabet_line_is_whitespace(self, tmp_path, capsys):
        """An alphabet file's lines end at "\n" only, as a text file's do."""
        (tmp_path / "text.txt").write_text("for x in y\n")
        for name, constants in (("cr", b"for\rin"), ("space", b"for in")):
            (tmp_path / f"{name}.txt").write_bytes(
                b"constants " + constants + b"\nparameters *\n")
            code, _, err = run(["build", "--text", str(tmp_path / "text.txt"),
                                "--alphabet", str(tmp_path / f"{name}.txt"),
                                "--mode", "token", "--out", str(tmp_path / f"{name}.pph")],
                               capsys)
            assert (code, err) == (0, "")
        assert (tmp_path / "cr.pph").read_bytes() == (tmp_path / "space.pph").read_bytes()

    @pytest.mark.parametrize("alphabet, message", [
        # lines that end in "\r" alone are one line
        (b"constants ab\rparameters uvxy\r", "got 1"),
        (b"constants a\rb\nparameters uvxy\n", "whitespace"),
    ], ids=["cr-only", "cr-among-char-symbols"])
    def test_lone_cr_alphabet_exits_3(self, workspace, capsys, alphabet, message):
        (workspace / "alpha.txt").write_bytes(alphabet)
        code, out, err = run(["build", "--text", str(workspace / "text.txt"),
                              "--alphabet", str(workspace / "alpha.txt"),
                              "--out", str(workspace / "x.pph")], capsys)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and message in err


class TestQuery:
    def test_fixture_positions(self, workspace, capsys):
        index = build_demo(workspace, capsys)
        code, out, _ = run(
            ["query", "--index", str(index), "--pattern", "xayby"], capsys)
        assert code == 0
        assert out == "2\n6\n"

    def test_verify_agrees(self, workspace, capsys):
        index = build_demo(workspace, capsys)
        code, out, _ = run(
            ["query", "--index", str(index), "--pattern", "xayby", "--verify"],
            capsys)
        assert code == 0
        assert out == "2\n6\n"

    def test_verify_mismatch_exits_4(self, workspace, capsys, monkeypatch):
        index = build_demo(workspace, capsys)
        real = matching.match_pattern
        monkeypatch.setattr("ppheap.cli.match_pattern",
                            lambda *args: real(*args)[:-1])
        code, out, err = run(
            ["query", "--index", str(index), "--pattern", "xayby", "--verify"],
            capsys)
        assert code == 4
        assert out == "2\n"
        assert err == "verification mismatch: index=[2] naive=[2, 6]\n"

    def test_unknown_pattern_symbol_exits_1(self, workspace, capsys):
        index = build_demo(workspace, capsys)
        code, _, err = run(
            ["query", "--index", str(index), "--pattern", "xz"], capsys)
        assert code == 1
        assert "bad pattern" in err

    def test_empty_pattern_exits_1(self, workspace, capsys):
        index = build_demo(workspace, capsys)
        code, _, err = run(["query", "--index", str(index), "--pattern", ""], capsys)
        assert code == 1
        assert "bad pattern" in err

    def test_blank_token_pattern_exits_1(self, tmp_path, capsys):
        (tmp_path / "alpha.txt").write_text("constants for\nparameters *\n")
        (tmp_path / "code.txt").write_text("for i for j\n")
        run(["build", "--text", str(tmp_path / "code.txt"),
             "--alphabet", str(tmp_path / "alpha.txt"),
             "--mode", "token", "--out", str(tmp_path / "c.pph")], capsys)
        code, out, err = run(["query", "--index", str(tmp_path / "c.pph"),
                              "--pattern", "   "], capsys)
        assert code == 1
        assert out == ""
        assert "bad pattern" in err

    def test_no_occurrences_prints_nothing(self, workspace, capsys):
        index = build_demo(workspace, capsys)
        code, out, _ = run(
            ["query", "--index", str(index), "--pattern", "aa"], capsys)
        assert code == 0
        assert out == ""

    def test_corrupt_index_exits_2(self, workspace, capsys):
        index = build_demo(workspace, capsys)
        magic, rest = index.read_text().split("\n", 1)
        assert magic != "PPH/9"
        index.write_text("PPH/9\n" + rest)
        code, _, err = run(
            ["query", "--index", str(index), "--pattern", "xayby"], capsys)
        assert code == 2
        assert "index" in err

    def test_pph1_index_exits_2_with_version_message(self, tmp_path, capsys):
        index = tmp_path / "old.pph"
        index.write_text(PPH1_INDEX)
        code, out, err = run(
            ["query", "--index", str(index), "--pattern", "xa"], capsys)
        assert code == 2
        assert out == ""
        assert "PPH/1" in err and "PPH/2" in err and "rebuild" in err

    def test_garbled_text_exits_2(self, workspace, capsys):
        index = build_demo(workspace, capsys)
        index.write_text(index.read_text().replace("uvaubuavbv", "uvaubuavbu"))
        code, out, err = run(
            ["query", "--index", str(index), "--pattern", "xayby"], capsys)
        assert code == 2
        assert out == "" and "checksum" in err

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_wildcard_pattern_parameters(self, tmp_path, capsys, verify):
        (tmp_path / "alpha.txt").write_text("constants for in : =\nparameters *\n")
        (tmp_path / "code.txt").write_text("for i in total : x = i\n")
        run(["build", "--text", str(tmp_path / "code.txt"),
             "--alphabet", str(tmp_path / "alpha.txt"),
             "--mode", "token", "--out", str(tmp_path / "c.pph")], capsys)
        code, out, _ = run(["query", "--index", str(tmp_path / "c.pph"),
                            "--pattern", "for j in count"] + verify, capsys)
        assert code == 0
        assert out == "1\n"

    def test_fourteen_char_fixture(self, tmp_path, capsys):
        (tmp_path / "alpha.txt").write_text("constants a\nparameters xy\n")
        (tmp_path / "t.txt").write_text("xaxyxyxyyaxyxy\n")
        run(["build", "--text", str(tmp_path / "t.txt"),
             "--alphabet", str(tmp_path / "alpha.txt"),
             "--out", str(tmp_path / "t.pph")], capsys)
        code, out, _ = run(
            ["query", "--index", str(tmp_path / "t.pph"), "--pattern", "xyxy"],
            capsys)
        assert code == 0
        assert out == "3\n4\n5\n11\n"


    def test_pattern_with_leading_dash(self, tmp_path, capsys):
        """A pattern that starts with '-' is passed as --pattern=-x."""
        (tmp_path / "alpha.txt").write_text("constants a-\nparameters xy\n")
        (tmp_path / "t.txt").write_text("x-yax-x-ya-y\n")
        run(["build", "--text", str(tmp_path / "t.txt"),
             "--alphabet", str(tmp_path / "alpha.txt"),
             "--out", str(tmp_path / "t.pph")], capsys)
        code, out, _ = run(["query", "--index", str(tmp_path / "t.pph"),
                            "--pattern=-x", "--verify"], capsys)
        alpha = make_alphabet("a-", "xy")
        want = naive_match(parse_pstring("x-yax-x-ya-y", alpha), parse_pstring("-x", alpha))
        assert code == 0
        assert out.split() == [str(i) for i in want] and want
        # as a separate argument, argparse reads it as an option
        with pytest.raises(SystemExit) as info:
            main(["query", "--index", str(tmp_path / "t.pph"), "--pattern", "-x"])
        assert info.value.code == 2


    def test_token_split_on_unicode_whitespace(self, tmp_path, capsys):
        """Text and pattern are split alike, whatever whitespace separates them."""
        (tmp_path / "alpha.txt").write_text("constants for in : =\nparameters *\n",
                                            encoding="utf-8")
        text = "for\ti  in\u3000total\t:  x\u3000for  j\tin\u3000count  =\tj\n"
        (tmp_path / "code.txt").write_text(text, encoding="utf-8")
        code, _, _ = run(["build", "--text", str(tmp_path / "code.txt"),
                          "--alphabet", str(tmp_path / "alpha.txt"),
                          "--mode", "token", "--out", str(tmp_path / "c.pph")], capsys)
        assert code == 0
        pattern = "for\u00a0k\u00a0in\u00a0n"
        code, out, err = run(["query", "--index", str(tmp_path / "c.pph"),
                              "--pattern", pattern, "--verify"], capsys)
        consts = ["for", "in", ":", "="]
        want = naive_match(parse_declared(text.split(), consts, None),
                           parse_declared(pattern.split(), consts, None))
        assert (code, err) == (0, "")
        assert out.split() == [str(i) for i in want] == ["1", "7"]


class TestDoubleDashValue:
    """``--opt=--`` gives the option the value "--" on every Python.

    argparse before 3.13 turns that value into []; 3.13 keeps it.
    """

    @pytest.fixture
    def dash_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alpha.txt").write_text("constants ab-\nparameters xy\n")
        (tmp_path / "t.txt").write_text("x-y--x\n")
        (tmp_path / "tok-alpha.txt").write_text("constants -- ;\nparameters *\n")
        (tmp_path / "tok.txt").write_text("x -- y ; -- x\n")
        for text, alpha, mode, out in (("t.txt", "alpha.txt", "char", "c.pph"),
                                       ("tok.txt", "tok-alpha.txt", "token", "k.pph")):
            code, _, _ = run(["build", "--text", text, "--alphabet", alpha,
                              "--mode", mode, "--out", out], capsys)
            assert code == 0
        (tmp_path / "--").write_bytes((tmp_path / "c.pph").read_bytes())
        return tmp_path

    @pytest.mark.parametrize("argv, want_code, want_out", [
        # naive_match of the char pattern "--" in x-y--x
        (["query", "--index", "c.pph", "--pattern=--", "--verify"], 0, "4\n"),
        # the token "--" in x -- y ; -- x
        (["query", "--index", "k.pph", "--pattern=--", "--verify"], 0, "2\n5\n"),
        # the index file named "--"
        (["stats", "--index=--"], 0, "n=6\nnodes=6\ndouble=1\ndepth=2\n"),
        (["selftest", "--trials=--"], 2, ""),
    ], ids=["char-pattern", "token-pattern", "file", "int"])
    def test_value_is_double_dash(self, dash_dir, capsys, argv, want_code, want_out):
        code, out, err = run(argv, capsys)
        assert (code, out) == (want_code, want_out)
        if want_code:
            assert err.count("\n") == 1 and "--trials" in err and "'--'" in err
        else:
            assert err == ""

    def test_choice_refuses_double_dash(self, dash_dir, capsys):
        with pytest.raises(SystemExit) as info:
            main(["build", "--text", "t.txt", "--alphabet", "alpha.txt",
                  "--mode=--", "--out", "x.pph"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--mode: invalid choice: '--'" in err and "Traceback" not in err
        assert not (dash_dir / "x.pph").exists()


class TestLazyAugmentation:
    """Loading rebuilds the heap only; the augmentation is computed on first use."""

    def test_stats_computes_no_augmentation(self, workspace, capsys, monkeypatch):
        index = build_demo(workspace, capsys)

        def refuse(idx):
            raise AssertionError("stats computed the augmentation")

        monkeypatch.setattr(storage, "augment", refuse)
        code, out, _ = run(["stats", "--index", str(index)], capsys)
        assert code == 0
        assert out == "n=10\nnodes=10\ndouble=1\ndepth=3\n"

    def test_one_shot_query_computes_none(self, workspace, capsys, monkeypatch):
        # the README query descends to depth 3 with m = 5: the path
        # primaries need 4 + 3 + 2 = 9 <= n = 10 direct label checks
        index = build_demo(workspace, capsys)

        def refuse(idx):
            raise AssertionError("query computed the augmentation")

        monkeypatch.setattr(storage, "augment", refuse)
        monkeypatch.setattr(matching, "augment", refuse)
        code, out, _ = run(["query", "--pattern", "xayby", "--verify",
                            "--index", str(index)], capsys)
        assert code == 0
        assert out == "2\n6\n"

    @pytest.mark.parametrize("argv,out", [
        (["query", "--pattern", "x" * 150, "--verify"],
         "".join(f"{i}\n" for i in range(1, 52))),
        (["export-dot", "--out", "t.dot"], ""),
    ], ids=["deep-query", "export-dot"])
    def test_readers_compute_it_once(self, workspace, capsys, monkeypatch, argv, out):
        if argv[0] == "query":
            # a one-parameter chain 100 deep: the descent stops at depth
            # 100, and 100 path primaries need far more than n = 200 checks
            (workspace / "text.txt").write_text("x" * 200 + "\n")
        index = build_demo(workspace, capsys)
        calls = []

        def counted(idx):
            calls.append(idx)
            return augment(idx)

        monkeypatch.setattr(storage, "augment", counted)
        monkeypatch.setattr(matching, "augment", counted)
        monkeypatch.chdir(workspace)
        code, got, _ = run(argv + ["--index", str(index)], capsys)
        assert code == 0 and len(calls) == 1
        assert got == out
        if argv[0] == "export-dot":
            assert "style=bold" in (workspace / "t.dot").read_text()


class TestStats:
    def test_key_value_lines(self, tmp_path, capsys):
        (tmp_path / "alpha.txt").write_text("constants a\nparameters xy\n")
        (tmp_path / "t.txt").write_text("x\n")
        run(["build", "--text", str(tmp_path / "t.txt"),
             "--alphabet", str(tmp_path / "alpha.txt"),
             "--out", str(tmp_path / "t.pph")], capsys)
        code, out, _ = run(["stats", "--index", str(tmp_path / "t.pph")], capsys)
        assert code == 0
        assert out == "n=1\nnodes=2\ndouble=0\ndepth=1\n"


class TestExportDot:
    def test_single_node_graph(self, tmp_path, capsys):
        (tmp_path / "alpha.txt").write_text("constants a\nparameters xy\n")
        (tmp_path / "t.txt").write_text("")
        run(["build", "--text", str(tmp_path / "t.txt"),
             "--alphabet", str(tmp_path / "alpha.txt"),
             "--out", str(tmp_path / "t.pph")], capsys)
        code, _, _ = run(["export-dot", "--index", str(tmp_path / "t.pph"),
                          "--out", str(tmp_path / "t.dot")], capsys)
        assert code == 0
        dot = (tmp_path / "t.dot").read_text()
        assert 'n0 [label="root"]' in dot
        assert "->" not in dot

    def test_two_node_graph(self, tmp_path, capsys):
        (tmp_path / "alpha.txt").write_text("constants a\nparameters xy\n")
        (tmp_path / "t.txt").write_text("x\n")
        run(["build", "--text", str(tmp_path / "t.txt"),
             "--alphabet", str(tmp_path / "alpha.txt"),
             "--out", str(tmp_path / "t.pph")], capsys)
        run(["export-dot", "--index", str(tmp_path / "t.pph"),
             "--out", str(tmp_path / "t.dot")], capsys)
        dot = (tmp_path / "t.dot").read_text()
        assert 'n0 -> n1 [label="0"];' in dot
        assert 'n1 [label="1"];' in dot

    def test_deterministic_output(self, tmp_path, capsys):
        (tmp_path / "alpha.txt").write_text("constants a\nparameters xy\n")
        (tmp_path / "t.txt").write_text("xaxyxyxyyaxyx\n")
        run(["build", "--text", str(tmp_path / "t.txt"),
             "--alphabet", str(tmp_path / "alpha.txt"),
             "--out", str(tmp_path / "t.pph")], capsys)
        run(["export-dot", "--index", str(tmp_path / "t.pph"),
             "--out", str(tmp_path / "a.dot")], capsys)
        run(["export-dot", "--index", str(tmp_path / "t.pph"),
             "--out", str(tmp_path / "b.dot")], capsys)
        a = (tmp_path / "a.dot").read_bytes()
        assert a == (tmp_path / "b.dot").read_bytes()
        text = a.decode()
        assert "style=dashed" in text   # suffix pointers
        assert "style=bold" in text     # out-of-node reach pointers

    def test_readme_fixture_full_text(self, workspace, capsys):
        index = build_demo(workspace, capsys)
        code, _, _ = run(["export-dot", "--index", str(index),
                          "--out", str(workspace / "t.dot")], capsys)
        assert code == 0
        assert (workspace / "t.dot").read_text() == DEMO_DOT

    def test_dot_io_error_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["export-dot", "--index", str(tmp_path / "missing.pph"),
                          "--out", str(tmp_path / "x.dot")], capsys)
        assert code == 2


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(["selftest", "--trials", "25", "--seed", "42"], capsys)
        assert code == 0
        assert "25 trials passed" in out

    def test_constant_only_configuration(self, capsys, monkeypatch):
        monkeypatch.setattr("ppheap.selftest.SHAPES", ((1, 0, 16),))
        code, _, _ = run(["selftest", "--trials", "10", "--seed", "7"], capsys)
        assert code == 0

    def test_parameter_only_configuration(self, capsys, monkeypatch):
        monkeypatch.setattr("ppheap.selftest.SHAPES", ((0, 2, 8),))
        code, _, _ = run(["selftest", "--trials", "10", "--seed", "1"], capsys)
        assert code == 0

    @pytest.mark.parametrize("args, option", [
        (["--trials", "-3"], "--trials"),
    ], ids=["trials"])
    def test_bad_argument_refused(self, args, option, capsys):
        code, out, err = run(["selftest", *args], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and option in err
        assert "Traceback" not in err

    def test_only_trials_and_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # the usage on one line
        with pytest.raises(SystemExit) as info:
            main(["selftest", "--help"])
        assert info.value.code == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: ppheap selftest [-h] [--trials TRIALS] [--seed SEED]"


# single symbol characters: multi-byte ones, "*", a carriage return (which
# is whitespace), and non-whitespace neighbours of Unicode whitespace
POOL = ["a", "b", "\u00e9", "\u65e5", "\U0001d465", "*", "\r", "\x1b", "\x84",
        "\xa1", "\u180e", "\u200b", "\u202a", "\u2030", "\u2060", "\u3001"]


@st.composite
def file_inputs(draw):
    """Mode, constants, parameters, wildcard, text, patterns and the
    whitespace after each alphabet keyword."""
    mode = draw(st.sampled_from(MODES))
    symbol = (st.sampled_from(POOL) if mode == "char"
              else st.text(st.sampled_from(POOL), min_size=1, max_size=2))
    symbols = draw(st.lists(symbol, min_size=1, max_size=6, unique=True))
    cut = draw(st.integers(0, len(symbols)))
    wildcard = mode == "token" and draw(st.booleans())
    text = draw(st.lists(st.sampled_from(symbols), max_size=24))
    start = draw(st.integers(0, len(text)))
    window = text[start:start + draw(st.integers(1, 4))]
    other = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=4))
    seps = draw(st.lists(st.sampled_from(["\t", "\u3000", " "]), min_size=2, max_size=2))
    return (mode, symbols[:cut], symbols[cut:], wildcard, text,
            [p for p in (window, other) if p], seps)


class TestFilePathProperty:
    """Text and alphabet files through ``build`` and ``query``.

    With every symbol storable, each answer is ``naive_match``'s. A carriage
    return in a symbol is whitespace, so the files cannot hold that symbol:
    the run then either refuses on one stderr line with exit 1-3, or reads
    the files by the whitespace rule into an index that answers as
    ``--verify`` checks. Either way ``dumps(load(f))`` is the file.
    """

    # every example rewrites the files, and run() reads capsys empty
    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(file_inputs())
    def test_files_answer_as_naive_match(self, tmp_path, capsys, case):
        mode, constants, parameters, wildcard, text, patterns, seps = case
        join = ("" if mode == "char" else " ").join
        alphabet = (f"constants{seps[0]}{join(constants)}\n"
                    f"parameters{seps[1]}{'*' if wildcard else join(parameters)}\n")
        (tmp_path / "alpha.txt").write_bytes(alphabet.encode("utf-8"))
        (tmp_path / "text.txt").write_bytes((join(text) + "\n").encode("utf-8"))
        index = tmp_path / "index.pph"
        code, out, err = run(["build", "--text", str(tmp_path / "text.txt"),
                              "--alphabet", str(tmp_path / "alpha.txt"),
                              "--mode", mode, "--out", str(index)], capsys)
        storable = not any("\r" in sym for sym in constants + parameters)
        if code != 0:
            assert not storable, err
            assert code in (1, 2, 3) and out == "" and err.count("\n") == 1, err
            return
        assert err == ""
        assert storage.dumps(storage.load(index)).encode("utf-8") == index.read_bytes()
        declared = make_alphabet(constants, parameters)
        for pattern in patterns:
            code, out, err = run(["query", "--index", str(index),
                                  f"--pattern={join(pattern)}", "--verify"], capsys)
            if storable:
                want = naive_match(parse_pstring(text, declared),
                                   parse_pstring(pattern, declared))
                assert (code, out, err) == (0, "".join(f"{i}\n" for i in want), "")
            else:
                assert code in (0, 1) and err.count("\n") == code, err
