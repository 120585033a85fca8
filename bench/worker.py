"""Child process of the benchmark: runs one phase against ppheap and records it.

    python3 bench/worker.py <setup|timed|trace> <job.json>

The job file names the generated inputs; the results go to the path in its
``out`` field. Answers are recorded as (count, hash of the position tuple) so
the parent can compare them with its reference without shipping every list.
Each phase runs in its own process, so ``ru_maxrss`` here is the memory of
that phase alone.

Every timed sample is recorded with the time of a calibration kernel run
right beside it; see ``calibrate``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ppheap  # noqa: E402
from ppheap import cli  # noqa: E402
from ppheap.augment import Augmentation, compute_mrp, preorder_intervals  # noqa: E402
from ppheap.coding import make_alphabet, parse_pstring, prev_encode  # noqa: E402
from ppheap.heap import Builder  # noqa: E402
from ppheap.matching import match_pattern, segment_walk  # noqa: E402
from ppheap.storage import IndexBundle, dumps, load, loads, read_alphabet_file  # noqa: E402

from reference import digest, encode, naive_heap_stats  # noqa: E402
from spans import Tracer, clock  # noqa: E402
from workloads import CHAR_PARAMETERS, random_text  # noqa: E402

if not Path(ppheap.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"ppheap imported from {ppheap.__file__}, not from {ROOT / 'src'}")


# trie insertion like a build, and splitting and parsing numbers like a load
CAL_TEXT = encode(random_text(random.Random(0), 25_000), CHAR_PARAMETERS.__contains__)
CAL_FIELDS = " ".join(str(i * 7919 % 100_003) for i in range(100_000))
WARM_BATCH_S = 0.5


def calibrate() -> float:
    """Seconds for a fixed piece of the benchmark's own pure-Python work.

    The machine is shared: for minutes at a time the same work can run up to
    twice as slowly. Run beside each sample, this kernel is slowed alike, so
    the parent divides by it and reports times at one reference speed. It
    uses no ppheap code, so a change to ppheap cannot move it; gc is paused
    while it runs, so its time does not depend on how many objects the
    program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        naive_heap_stats(CAL_TEXT)
        [int(f) for f in CAL_FIELDS.split(" ")]
        return clock() - started
    finally:
        if enabled:
            gc.enable()


class Calibrated:
    """Samples, each paired with the mean of the calibrations before and after it."""

    def __init__(self):
        self.last = calibrate()
        self.pending: list[dict] = []

    def add(self, record: dict) -> dict:
        self.pending.append(record)
        return record

    def close(self) -> None:
        now = calibrate()
        for record in self.pending:
            record["cal"] = (self.last + now) / 2
        self.pending = []
        self.last = now


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_call(argv: list[str]) -> tuple[float, int, str]:
    """One in-process CLI invocation with stdout captured: (seconds, exit, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a dead run
            code = -1
        elapsed = clock() - started
    return elapsed, code, out.getvalue()


def build_argv(job: dict, text: str, out: str) -> list[str]:
    return ["build", "--text", text, "--alphabet", job["alphabet"],
            "--mode", job["mode"], "--out", out]


def query_argv(job: dict, pattern: str) -> list[str]:
    return ["query", "--index", job["index"], f"--pattern={pattern}"]


def raw_pattern(job: dict, pattern: str) -> list[str]:
    return list(pattern) if job["mode"] == "char" else pattern.split()


def answer_of(code: int, stdout: str) -> list[int] | None:
    if code != 0:
        return None
    try:
        return digest([int(line) for line in stdout.split()])
    except ValueError:
        return None


def warm_query(idx, aug, raw):
    try:
        return match_pattern(idx, aug, parse_pstring(raw, idx.alphabet))
    except Exception:  # counted as a failed query by the parent
        return None


# -- phases -------------------------------------------------------------------

def run_setup(job: dict) -> dict:
    cal = Calibrated()
    seconds, code, stdout = cli_call(build_argv(job, job["text"], job["index"]))
    record = cal.add({"seconds": seconds, "exit": code, "stdout": stdout})
    cal.close()
    return record


def run_timed(job: dict) -> dict:
    """Timed CLI builds (if any), then CLI first answers, then warm queries."""
    start = clock()
    seconds = job["seconds"]
    cal = Calibrated()
    builds = []
    for text in job["build_texts"]:
        if len(builds) >= job["min_builds"] and clock() - start >= job["build_until"] * seconds:
            break
        t, code, stdout = cli_call(build_argv(job, text, job["scratch_index"]))
        builds.append(cal.add({"seconds": t, "exit": code, "stdout": stdout}))
        cal.close()

    first = []
    for pattern in job["patterns_first"]:
        if len(first) >= job["min_first"] and clock() - start >= job["first_until"] * seconds:
            break
        t, code, stdout = cli_call(query_argv(job, pattern))
        first.append(cal.add({"seconds": t, "answer": answer_of(code, stdout)}))
        cal.close()

    # loaded after the CLI queries, so peak RSS holds one index, as a query process does
    bundle = load(job["index"])
    idx, aug = bundle.index, bundle.augmentation
    raws = [raw_pattern(job, p) for p in job["patterns_warm"]]
    warm = []
    cal.close()
    batch_end = clock() + WARM_BATCH_S
    while len(warm) < job["min_warm"] or clock() - start < seconds:
        raw = raws[len(warm) % len(raws)]
        t0 = clock()
        hits = warm_query(idx, aug, raw)
        t = clock() - t0
        warm.append(cal.add({"seconds": t, "answer": None if hits is None else digest(hits)}))
        if clock() >= batch_end:
            cal.close()
            batch_end = clock() + WARM_BATCH_S
    cal.close()
    return {"builds": builds, "first": first, "warm": warm,
            "peak_rss_mb": peak_rss_mb(), "timed_s": clock() - start}


def traced_build(tr: Tracer, job: dict, text_path: str, out: str, tid: str) -> dict:
    """The CLI build path, one span per call into ppheap, in cli's order."""
    root = tr.begin("cli.build", tid)
    constants, parameters = tr.call("storage.read_alphabet", tid, read_alphabet_file,
                                    job["alphabet"], job["mode"])
    content = Path(text_path).read_text(encoding="utf-8")
    if job["mode"] == "token":
        raw = content.split()
    else:
        content = content[:-1] if content.endswith("\n") else content
        raw = list(content[:-1] if content.endswith("\r") else content)
    if parameters is None:  # the wildcard, resolved as cli does it
        declared, seen, parameters = set(constants), set(), []
        for tok in raw:
            if tok not in declared and tok not in seen:
                seen.add(tok)
                parameters.append(tok)
    alphabet = tr.call("coding.alphabet", tid, make_alphabet, constants, parameters)
    text = tr.call("coding.parse", tid, parse_pstring, raw, alphabet)
    tr.call("coding.encode", tid, prev_encode, text, probe=True)
    tr.begin("heap.build", tid)
    builder = Builder(alphabet)
    builder.extend(text)
    idx = builder.finalize()
    tr.end()
    mrp = tr.call("augment.mrp", tid, compute_mrp, idx)
    enter, size = tr.call("augment.preorder", tid, preorder_intervals, idx)
    data = tr.call("storage.dumps", tid, dumps,
                   IndexBundle(idx, Augmentation(mrp, enter, size), job["mode"]))
    tr.call("storage.write", tid, Path(out).write_text, data, "utf-8")
    st = idx.stats()
    tr.end()
    return {"n": st.n, "nodes": st.node_count, "double": st.double_count,
            "depth": st.max_depth, "suffix_steps": builder.suffix_steps,
            "probe_s": tr.probe_seconds_under(root),
            "total_s": tr.spans[root][2] - tr.spans[root][1],
            "bytes": Path(out).stat().st_size}


def traced_first(tr: Tracer, job: dict, pattern: str, tid: str) -> dict:
    """The CLI query path: read and parse the index, then one query."""
    root = tr.begin("cli.query", tid)
    data = tr.call("storage.read", tid, Path(job["index"]).read_text, "utf-8")
    bundle = tr.call("storage.loads", tid, loads, data)
    idx = bundle.index
    hits = None
    try:
        p = tr.call("coding.pattern_parse", tid, parse_pstring,
                    raw_pattern(job, pattern), idx.alphabet)
        hits = tr.call("matching.match", tid, match_pattern, idx, bundle.augmentation, p)
        shown = io.StringIO()
        for i in hits:
            print(i, file=shown)
    except Exception:  # recorded as a failed query by the parent
        pass
    tr.end()
    return {"seconds": tr.spans[root][2] - tr.spans[root][1],
            "answer": None if hits is None else digest(hits)}


def segment_profile(idx, prev_p) -> tuple[int, bool]:
    """segment_walk descents until the pattern is consumed or a walk dies,
    and whether the first descent consumed the whole pattern."""
    m = len(prev_p)
    i, segments, whole = 1, 0, False
    while i <= m:
        walk = segment_walk(idx, prev_p, i)
        segments += 1
        if i == 1:
            whole = walk.consumed_through == m
        if walk.consumed_through < walk.start:
            break
        i = walk.consumed_through + 1
    return segments, whole


def paired(k: int, plain, traced):
    """Run both passes of operation k; which goes first alternates with k."""
    if k % 2:
        t = traced()
        return plain(), t
    p = plain()
    return p, traced()


def traced_warm(tr: Tracer, idx, aug, raw, tid: str) -> dict:
    rec = {"m": len(raw), "answer": None, "seconds": 0.0}
    try:
        p = tr.call("coding.pattern_parse", tid, parse_pstring, raw, idx.alphabet)
        hits = tr.call("matching.match", tid, match_pattern, idx, aug, p)
    except Exception:  # recorded as a failed query by the parent
        return rec
    parse_span, match_span = tr.spans[-2:]
    rec.update(answer=digest(hits), occ=len(hits),
               parse_s=parse_span[2] - parse_span[1], match_s=match_span[2] - match_span[1])
    rec["seconds"] = rec["parse_s"] + rec["match_s"]
    rec["segments"], rec["whole"] = tr.call("matching.segment_walk", tid, segment_profile,
                                            idx, prev_encode(p), probe=True)
    return rec


def run_trace(job: dict) -> dict:
    """Every operation twice, untraced (the end-to-end path) and traced.

    The operation list is fixed by the job, not by the clock, so the counts
    repeat exactly for a seed. One untraced build runs first so that neither
    pass pays for growing a fresh process's heap.
    """
    tr = Tracer()
    out = job["scratch_index"]
    cli_call(build_argv(job, job["build_texts"][0], out))
    plain_total = traced_total = 0.0

    builds = []
    for k, text in enumerate(job["build_texts"]):
        (plain_s, code, stdout), rec = paired(
            k, lambda: cli_call(build_argv(job, text, out)),
            lambda: traced_build(tr, job, text, out, f"build-{k}"))
        rec.update(exit=code, stdout=stdout)
        builds.append(rec)
        plain_total += plain_s
        traced_total += rec["total_s"] - rec["probe_s"]

    first = []
    for k, pattern in enumerate(job["patterns_first"]):
        (plain_s, code, stdout), rec = paired(
            k, lambda: cli_call(query_argv(job, pattern)),
            lambda: traced_first(tr, job, pattern, f"first-{k}"))
        rec["plain_answer"] = answer_of(code, stdout)
        first.append(rec)
        plain_total += plain_s
        traced_total += rec["seconds"]

    bundle = load(job["index"])
    idx, aug = bundle.index, bundle.augmentation

    def plain_warm(raw) -> float:
        t0 = clock()
        warm_query(idx, aug, raw)
        return clock() - t0

    warm = []
    for k, pattern in enumerate(job["patterns_warm"]):
        raw = raw_pattern(job, pattern)
        plain_s, rec = paired(k, lambda: plain_warm(raw),
                              lambda: traced_warm(tr, idx, aug, raw, f"warm-{k}"))
        warm.append(rec)
        plain_total += plain_s
        traced_total += rec["seconds"]

    return {"builds": builds, "first": first, "warm": warm,
            "index_bytes": Path(job["index"]).stat().st_size,
            "plain_s": plain_total, "traced_s": traced_total,
            "self_s": tr.self_seconds(), "trace": tr.dump()}


PHASES = {"setup": run_setup, "timed": run_timed, "trace": run_trace}

if __name__ == "__main__":
    phase, job_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    result = PHASES[phase](job)
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
