"""ppheap benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload build-random --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; ppheap is imported from ``src/``.
With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics. Every answer and
every build's statistics are compared with ``reference.py``, which shares no
code with ppheap; mismatches count in ``failed``. Working files live under
``.bench_work/`` and are removed at the end, except the span dump of a
traced run, kept in ``.bench_work/traces/``.

Phases, each in its own child process (see worker.py):

* set-up: a few CLI builds of the workload's index text (median: setup_s);
* timed: CLI builds of fresh texts (build-random only), CLI queries that
  load the index (first_answer_s), then warm queries on one loaded index;
* traced (``--trace 1``): a fixed list of the same operations, each run
  untraced and then through spans around every ppheap call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from reference import TextReference, digest  # noqa: E402
from workloads import (  # noqa: E402
    CHAR_PARAMETERS,
    SPECS,
    Spec,
    char_alphabet_text,
    clone_constants,
    make_patterns,
    periodic_text,
    pinned_clone_corpus,
    random_text,
    rng_for,
)

CHILD_TIMEOUT_S = 150
# Reported times are measured times scaled to the speed at which worker.py's
# calibration kernel takes this long (a quiet moment on the 2-vCPU machine
# the baseline was recorded on).
REFERENCE_CAL_S = 0.100


@dataclass(frozen=True)
class Plan:
    """How much work one run does; the smoke check shrinks it."""

    setup_builds: int = 4
    fresh_texts: int = 12         # build-random: most timed builds per run
    min_builds: int = 3
    first_patterns: int = 40
    min_first: int = 3
    min_warm: int = 1000          # p99 keeps at least 10 samples beyond it
    trace_fresh: int = 2          # build-random: fresh texts in the traced run
    trace_first: int = 3
    trace_warm: int = 1000


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


# -- inputs -------------------------------------------------------------------

class Inputs:
    """Files and reference data for one run, written under ``work``."""

    def __init__(self, spec: Spec, seed: int, plan: Plan, work: Path):
        self.spec = spec
        self.work = work
        w = spec.name
        if spec.mode == "token":
            symbols = pinned_clone_corpus()[:spec.n]
            constants = clone_constants(symbols)
            alphabet = f"constants {' '.join(constants)}\nparameters *\n"
            const_set = set(constants)
            self.is_param = lambda s: s not in const_set
            pool = sorted({s for s in symbols if s not in const_set})
        else:
            alphabet = char_alphabet_text()
            self.is_param = CHAR_PARAMETERS.__contains__
            pool = list(CHAR_PARAMETERS)
            rng = rng_for(w, seed, "index")
            if spec.period:
                symbols = periodic_text(rng, spec.n, spec.period, min(spec.pattern_lengths))
            else:
                symbols = random_text(rng, spec.n)
        self.alphabet = self._write("alphabet.txt", alphabet)
        self.text = self._write_text("index-text.txt", symbols)
        self.index = str(work / "index.pph")
        self.scratch_index = str(work / "scratch.pph")
        self.n = len(symbols)
        self.ref = TextReference(symbols, self.is_param, min(spec.pattern_lengths),
                                 spec.period)

        self.fresh: list[tuple[str, list[str]]] = []
        if spec.timed_builds:
            for k in range(max(plan.fresh_texts, plan.trace_fresh)):
                syms = random_text(rng_for(w, seed, f"fresh-{k}"), spec.n)
                self.fresh.append((self._write_text(f"fresh-{k}.txt", syms), syms))

        def patterns(purpose: str, count: int) -> list[str]:
            sep = "" if spec.mode == "char" else " "
            return [sep.join(p) for p in make_patterns(
                rng_for(w, seed, purpose), symbols, self.is_param,
                spec.pattern_lengths, count, pool)]

        self.first = patterns("first", plan.first_patterns)
        self.warm = patterns("warm", spec.warm_patterns)

    def _write(self, name: str, content: str) -> str:
        path = self.work / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    def _write_text(self, name: str, symbols: list[str]) -> str:
        sep = "" if self.spec.mode == "char" else " "
        return self._write(name, sep.join(symbols) + "\n")

    def job(self, **extra) -> dict:
        return {"mode": self.spec.mode, "alphabet": self.alphabet, "text": self.text,
                "index": self.index, "scratch_index": self.scratch_index, **extra}


def run_child(phase: str, job: dict, work: Path) -> dict:
    job_path = work / f"job-{phase}.json"
    out_path = work / f"out-{phase}.json"
    job = dict(job, out=str(out_path))
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), phase, str(job_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not out_path.exists():
        raise BenchError(f"{phase} process failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    return result


# -- checking -----------------------------------------------------------------

def build_stats(stdout: str) -> dict | None:
    try:
        fields = dict(kv.split("=", 1) for kv in stdout.split())
        return {k: int(fields[k]) for k in ("n", "nodes", "double", "depth")}
    except (KeyError, ValueError):
        return None


class Gate:
    """Counts operations and the ones whose result differs from the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def check_answers(gate: Gate, inputs: Inputs, patterns: list[str], answers, kind: str,
                  corrupt: bool = False) -> None:
    """Answer k belongs to pattern k modulo the list (the warm phase cycles)."""
    wanted: dict[int, list[int]] = {}
    for k, got in enumerate(answers):
        j = k % len(patterns)
        if j not in wanted:
            pattern = patterns[j]
            raw = list(pattern) if inputs.spec.mode == "char" else pattern.split()
            want = inputs.ref.occurrences(raw)
            if corrupt and j == 0:
                want = want[1:]   # the gate must notice one dropped occurrence
            wanted[j] = digest(want)
        gate.check(got == wanted[j], f"{kind} query {k} answer differs: {patterns[j]!r}")


def fresh_stats(inputs: Inputs, k: int) -> dict:
    _, syms = inputs.fresh[k]
    return TextReference(syms, inputs.is_param, 1).heap_stats()


# -- metrics ------------------------------------------------------------------

def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(inputs: Inputs, setup: list[dict], timed: dict, gate: Gate,
               corrupt: bool) -> tuple[dict, list[str]]:
    n = inputs.n
    main_stats = inputs.ref.heap_stats()
    for k, b in enumerate(timed["builds"]):
        gate.check(b["exit"] == 0 and build_stats(b["stdout"]) == fresh_stats(inputs, k),
                   f"timed build {k} statistics differ")
    warm = timed["warm"]
    check_answers(gate, inputs, inputs.first, [f["answer"] for f in timed["first"]], "CLI")
    check_answers(gate, inputs, inputs.warm, [w["answer"] for w in warm], "warm", corrupt)

    def scaled(samples: list[dict]) -> list[float]:
        return sorted(s["seconds"] * REFERENCE_CAL_S / s["cal"] for s in samples)

    builds = setup + timed["builds"]
    warm_s = scaled(warm)
    metrics = {
        "setup_s": (statistics.median(scaled(setup)), "s"),
        "build_sym_per_s": (n / statistics.median(scaled(builds)), "symbols/s"),
        "first_answer_s": (statistics.median(scaled(timed["first"])), "s"),
        "query_p50_ms": (statistics.median(warm_s) * 1e3, "ms"),
        "query_p99_ms": (percentile(warm_s, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "index_bytes_per_sym": (Path(inputs.index).stat().st_size / n, "B/symbol"),
    }
    cals = [s["cal"] for s in setup + timed["builds"] + timed["first"] + warm]
    notes = [
        f"n = {n}; heap: nodes={main_stats['nodes']} double={main_stats['double']} "
        f"depth={main_stats['depth']}",
        f"samples: set-up builds={len(setup)} timed builds={len(timed['builds'])} "
        f"CLI queries={len(timed['first'])} warm queries={len(warm)} "
        f"(p99 leaves {len(warm) - math.ceil(0.99 * len(warm))} beyond)",
        f"calibration kernel: median {statistics.median(cals) * 1e3:.1f} ms "
        f"(reference {REFERENCE_CAL_S * 1e3:.0f} ms); unscaled medians: "
        f"set-up {statistics.median(s['seconds'] for s in setup):.4g} s, "
        f"build {statistics.median(b['seconds'] for b in builds):.4g} s, "
        f"CLI query {statistics.median(f['seconds'] for f in timed['first']):.4g} s, "
        f"warm query {statistics.median(w['seconds'] for w in warm) * 1e3:.4g} ms",
        f"timed phase: {timed['timed_s']:.2f} s",
    ]
    return metrics, notes


def per_layer(inputs: Inputs, trace: dict, gate: Gate, corrupt: bool) -> tuple[dict, list[str]]:
    main_stats = inputs.ref.heap_stats()
    builds = trace["builds"]
    for k, b in enumerate(builds):
        want = main_stats if k == 0 else fresh_stats(inputs, k - 1)
        got = {key: b[key] for key in ("n", "nodes", "double", "depth")}
        gate.check(b["exit"] == 0 and build_stats(b["stdout"]) == want and got == want,
                   f"traced build {k} statistics differ")
    first = trace["first"]
    check_answers(gate, inputs, inputs.first, [f["answer"] for f in first], "traced CLI")
    check_answers(gate, inputs, inputs.first, [f["plain_answer"] for f in first], "CLI")
    warm = trace["warm"]
    check_answers(gate, inputs, inputs.warm, [w["answer"] for w in warm], "traced warm",
                  corrupt)

    spans = {}
    for s in trace["trace"]["spans"]:
        spans[s[0]] = spans.get(s[0], 0.0) + s[2] - s[1]
    sym = sum(b["n"] for b in builds)
    nodes = sum(b["nodes"] for b in builds)
    loads = len(first) * inputs.n
    done = [w for w in warm if "occ" in w]
    if not done:
        raise BenchError("no traced warm query returned an answer")
    label_bound = [w for w in done if w["occ"] <= w["m"]] or done
    occ_bound = [w for w in done if w["occ"] > w["m"]] or done
    us = 1e6
    metrics = {
        "coding.parse_us_per_sym": (spans["coding.parse"] * us / sym, "us/symbol"),
        "coding.encode_us_per_sym": (spans["coding.encode"] * us / sym, "us/symbol"),
        "heap.build_us_per_sym": (spans["heap.build"] * us / sym, "us/symbol"),
        "heap.suffix_steps_per_sym": (sum(b["suffix_steps"] for b in builds) / sym, "count"),
        "heap.max_depth": (builds[0]["depth"], "count"),
        "heap.double_nodes": (builds[0]["double"], "count"),
        "augment.mrp_us_per_sym": (spans["augment.mrp"] * us / sym, "us/symbol"),
        "augment.preorder_us_per_node": (spans["augment.preorder"] * us / nodes, "us/node"),
        "storage.save_us_per_sym": (
            (spans["storage.dumps"] + spans["storage.write"]) * us / sym, "us/symbol"),
        "storage.dumps_us_per_sym": (spans["storage.dumps"] * us / sym, "us/symbol"),
        "storage.write_us_per_sym": (spans["storage.write"] * us / sym, "us/symbol"),
        "storage.load_us_per_sym": (
            (spans["storage.read"] + spans["storage.loads"]) * us / loads, "us/symbol"),
        "storage.read_us_per_sym": (spans["storage.read"] * us / loads, "us/symbol"),
        "storage.loads_us_per_sym": (spans["storage.loads"] * us / loads, "us/symbol"),
        "storage.bytes_per_sym": (trace["index_bytes"] / inputs.n, "B/symbol"),
        "matching.us_per_label": (
            sum(w["match_s"] for w in label_bound) * us / sum(w["m"] for w in label_bound),
            "us/label"),
        "matching.us_per_occ": (
            sum(w["match_s"] for w in occ_bound) * us / max(1, sum(w["occ"] for w in occ_bound)),
            "us/occurrence"),
        "matching.segments_per_query": (
            sum(w["segments"] for w in done) / len(done), "count"),
        "matching.subtree_path_share": (sum(w["whole"] for w in done) / len(done), "ratio"),
        "matching.occ_per_query": (sum(w["occ"] for w in done) / len(done), "count"),
        "coding.pattern_parse_us": (
            sum(w["parse_s"] for w in done) * us / len(done), "us"),
        "trace.overhead_pct": (
            (trace["traced_s"] / trace["plain_s"] - 1.0) * 100, "%"),
    }
    for layer in ("cli", "coding", "heap", "augment", "storage", "matching"):
        metrics[f"{layer}.self_s"] = (trace["self_s"].get(layer, 0.0), "s")
    notes = [
        f"traced: builds={len(builds)} cli_queries={len(first)} warm_queries={len(warm)} "
        f"(label-bound {sum(1 for w in done if w['occ'] <= w['m'])}, "
        f"occurrence-bound {sum(1 for w in done if w['occ'] > w['m'])})",
        f"traced {trace['traced_s']:.3f} s vs untraced {trace['plain_s']:.3f} s",
    ]
    return metrics, notes


# -- entry point --------------------------------------------------------------

def run(spec: Spec, seed: int, seconds: float, trace: bool, plan: Plan = Plan(),
        corrupt: bool = False) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}-{spec.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        inputs = Inputs(spec, seed, plan, work)
        setup = [run_child("setup", inputs.job(), work)
                 for _ in range(1 if trace else plan.setup_builds)]
        gate = Gate()
        for s in setup:
            gate.check(s["exit"] == 0 and build_stats(s["stdout"]) == inputs.ref.heap_stats(),
                       "set-up build statistics differ")
        if trace:
            fresh = [path for path, _ in inputs.fresh[:plan.trace_fresh]]
            result = run_child("trace", inputs.job(
                build_texts=[inputs.text] + fresh,
                patterns_first=inputs.first[:plan.trace_first],
                patterns_warm=inputs.warm[:plan.trace_warm]), work)
            metrics, notes = per_layer(inputs, result, gate, corrupt)
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            dump = traces / f"{spec.name}-seed{seed}.json"
            dump.write_text(json.dumps(result["trace"]), encoding="utf-8")
            notes.append(f"spans written to {dump.relative_to(ROOT)}")
        else:
            timed = run_child("timed", inputs.job(
                build_texts=[path for path, _ in inputs.fresh[:plan.fresh_texts]],
                patterns_first=inputs.first, patterns_warm=inputs.warm,
                seconds=seconds, min_builds=plan.min_builds if inputs.fresh else 0,
                build_until=spec.build_until, min_first=plan.min_first,
                first_until=spec.first_until,
                min_warm=plan.min_warm), work)
            metrics, notes = end_to_end(inputs, setup, timed, gate, corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "_notes": notes + gate.notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ppheap" / "__init__.py").is_file():
        print(f"error: no ppheap sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # child and the working directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The two vCPUs of a shared machine can differ in speed by nearly 2x; a run
    # that the scheduler moves between them measures the move, not the code.
    # Children inherit this affinity.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run(SPECS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in result.pop("_notes"):
        print(f"  {note}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio = {ratio:.6g} ratio ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
