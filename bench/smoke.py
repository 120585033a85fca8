"""Cheap self-check of the benchmark, at about 2,000 symbols per workload.

    python3 bench/smoke.py

1. Each workload's generator, at small n, yields an index that passes
   ``audit_index`` and equals ``naive_pph``; the benchmark's own reference
   (reference.py) agrees with ppheap's oracle on heap statistics and
   occurrences, and its periodic shortcut agrees with its plain search.
2. The whole pipeline (set-up, timed and traced runs, every metric named in
   BENCHMARK.json) runs end to end on the small inputs with no failure.
3. The correctness gate bites: one dropped reference occurrence makes
   ``failed`` nonzero.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from ppheap import (  # noqa: E402
    audit_index,
    build_index,
    make_alphabet,
    naive_match,
    naive_pph,
    parse_pstring,
    trees_equal,
)

import run  # noqa: E402
from reference import TextReference, naive_heap_stats  # noqa: E402
from workloads import (  # noqa: E402
    CHAR_CONSTANTS,
    CHAR_PARAMETERS,
    SPECS,
    clone_constants,
    make_patterns,
    periodic_text,
    pinned_clone_corpus,
    random_text,
)

SMALL_N = 2000
SMALL_PLAN = run.Plan(setup_builds=1, fresh_texts=2, min_builds=1, first_patterns=2,
                      min_first=1, trace_fresh=1, trace_first=1, trace_warm=50)


def small_inputs(name: str, rng: random.Random):
    """(symbols, alphabet, is_param) for one workload's generator at small n."""
    spec = SPECS[name]
    if spec.mode == "token":
        symbols = pinned_clone_corpus()[:SMALL_N]
        constants = clone_constants(symbols)
        const_set = set(constants)
        params = list(dict.fromkeys(s for s in symbols if s not in const_set))
        return symbols, make_alphabet(constants, params), lambda s: s not in const_set
    alphabet = make_alphabet(CHAR_CONSTANTS, CHAR_PARAMETERS)
    if spec.period:
        symbols = periodic_text(rng, SMALL_N, spec.period, min(spec.pattern_lengths))
    else:
        symbols = random_text(rng, SMALL_N)
    return symbols, alphabet, CHAR_PARAMETERS.__contains__


def check_structure(name: str) -> None:
    spec = SPECS[name]
    rng = random.Random(name)
    symbols, alphabet, is_param = small_inputs(name, rng)
    text = parse_pstring(symbols, alphabet)
    idx = build_index(text)
    audit_index(idx)
    assert trees_equal(idx, naive_pph(text)), f"{name}: index differs from naive_pph"

    st = idx.stats()
    want = {"n": st.n, "nodes": st.node_count, "double": st.double_count,
            "depth": st.max_depth}
    ref = TextReference(symbols, is_param, min(spec.pattern_lengths), spec.period)
    plain = TextReference(symbols, is_param, min(spec.pattern_lengths))
    assert ref.heap_stats() == want, f"{name}: reference heap stats {ref.heap_stats()} != {want}"
    assert naive_heap_stats(ref.enc) == want, f"{name}: plain reference heap stats differ"

    pool = sorted({s for s in symbols if is_param(s)})
    lengths = spec.pattern_lengths + (1, 2, 3)
    for pattern in make_patterns(rng, symbols, is_param, lengths, 40, pool):
        oracle = naive_match(text, parse_pstring(pattern, alphabet))
        assert ref.occurrences(pattern) == oracle, f"{name}: reference occurrences differ"
        assert plain.occurrences(pattern) == oracle, f"{name}: plain reference differs"
    print(f"structure   {name}: n={st.n} nodes={st.node_count} double={st.double_count} "
          f"depth={st.max_depth}; audit, naive_pph and reference agree")


def check_pipeline(name: str, declared: dict) -> None:
    spec = replace(SPECS[name], n=SMALL_N, warm_patterns=100)
    for trace in (False, True):
        started = time.perf_counter()
        result = run.run(spec, 1, 1.0, trace, SMALL_PLAN)
        notes = result.pop("_notes")
        assert result["correct"] and result["failed"] == 0, f"{name}: {notes}"
        names = declared["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        assert set(metrics) == names, f"{name}: metric names {sorted(set(metrics) ^ names)}"
        assert all(math.isfinite(m["value"]) for m in metrics.values()), name
        json.dumps(result)
        print(f"pipeline    {name} trace={int(trace)}: {result['attempted']} checked, "
              f"{len(metrics)} metrics, {time.perf_counter() - started:.1f} s")

    result = run.run(spec, 1, 1.0, False, SMALL_PLAN, corrupt=True)
    assert result["failed"] >= 1 and not result["correct"], f"{name}: gate did not bite"
    print(f"gate        {name}: one corrupted reference answer -> "
          f"failed={result['failed']}/{result['attempted']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {key: {m["name"] for m in bench[key]} for key in ("end_to_end", "per_layer")}
    assert {w["name"] for w in bench["workloads"]} == set(SPECS)
    for name in SPECS:
        check_structure(name)
    for name in SPECS:
        check_pipeline(name, declared)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
