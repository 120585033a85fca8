"""The README's examples, run as written: what it documents must hold.

The library quickstart runs in this process. Each shell block that calls
``ppheap`` runs one command at a time in an empty directory, through
``cli.main``, through ``python -m ppheap`` on the package this process
imported, and, when a ``ppheap`` console script is on PATH (an installed
package), through that script too. ``printf ... > file`` lines write their
file; the ``# ...`` lines right below a command are the output the README
shows for it, and the command must print exactly that.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ppheap
from ppheap.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# every output the README shows, in order; build_s is a timing, so any value
SHOWN = [["n=10 nodes=10 double=1 depth=3 build_s=*"], ["2", "6"], ["1"]]


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def cli_steps() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) for every command of the ppheap blocks."""
    steps: list[tuple[list[str], list[str]]] = []
    for block in fenced_blocks("sh"):
        if not re.search(r"^ppheap ", block, re.M):
            continue
        for line in block.splitlines():
            if line.startswith("# ") and steps:
                steps[-1][1].append(line[2:])
            elif line.strip():
                steps.append((shlex.split(line, comments=True), []))
    return steps


def printf(argv: list[str]) -> None:
    fmt, redirect, path = argv[1:]
    assert redirect == ">"
    Path(path).write_text(fmt.replace("\\n", "\n"), encoding="utf-8")


def in_process(argv: list[str], capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def console_script(argv: list[str], capsys) -> tuple[int, str]:
    done = subprocess.run([shutil.which("ppheap"), *argv], capture_output=True,
                          text=True, timeout=60)
    return done.returncode, done.stdout


def python_m(argv: list[str], capsys) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(Path(ppheap.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-m", "ppheap", *argv], capture_output=True,
                          text=True, timeout=60, env=env)
    return done.returncode, done.stdout


def masked(lines: list[str]) -> list[str]:
    return [re.sub(r"build_s=\S+", "build_s=*", line) for line in lines]


def test_library_quickstart(capsys):
    (block,) = fenced_blocks("python")
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "[2, 6]\n[2, 6]\n"


@pytest.mark.parametrize("run", [
    in_process,
    python_m,
    pytest.param(console_script, marks=pytest.mark.skipif(
        shutil.which("ppheap") is None, reason="no ppheap console script on PATH")),
])
def test_command_line_examples(run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shown = []
    for argv, lines in cli_steps():
        if argv[0] == "printf":
            printf(argv)
            continue
        assert argv[0] == "ppheap", argv
        code, out = run(argv[1:], capsys)
        assert code == 0, argv
        if lines:
            assert masked(out.splitlines()) == masked(lines), argv
            shown.append(masked(lines))
    assert shown == SHOWN
