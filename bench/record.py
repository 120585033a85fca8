"""Record one untraced and one traced run of every workload, with machine context.

    python3 bench/record.py --label e259aed --seed 1

Writes ``bench/baseline/BENCH_<label>.json``. Later changes quote their
before and after numbers against these files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LIMITS = [
    "The page cache cannot be dropped, so first_answer_s measures a warm-cache read "
    "of the index file.",
    "peak_rss_mb is ru_maxrss of the benchmark's own child process, not a cgroup figure.",
    "The machine is a shared 2-vCPU virtual machine whose speed drifts by up to 2x over "
    "minutes, so the benchmark pins itself to one CPU and scales every time by a "
    "calibration kernel run beside it (bench/DESIGN.md); unscaled medians are in each report.",
    "gc and the interpreter are left at their defaults for the measured program; gc is "
    "paused only inside the benchmark's own calibration kernel.",
]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload["name"], "--seed", str(args.seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            runs.append({"workload": workload["name"], "seed": args.seed, "trace": trace,
                         "report": lines[:-1], "result": json.loads(lines[-1])})

    record = {
        "label": args.label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "cpu_model": cpu_model(), "platform": platform.platform()},
        "run_seconds": bench["run_seconds"],
        "limits": LIMITS,
        "runs": runs,
    }
    out = HERE / "baseline" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
