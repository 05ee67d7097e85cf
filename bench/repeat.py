"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --seeds 1-10 [--workload sweep ...] [--trace 0 --trace 1] [--out FILE]

Runs bench/run.py once per workload, trace setting and seed, one run at a
time, and prints for every metric its unit, median, quartiles and spread
(interquartile range as a share of the median, from
statistics.quantiles(values, n=4)). `--seeds 1 --trace 0 --trace 1` prints
every end-to-end and per-layer metric of every workload. With --out the
summary, the raw per-run values and the machine it ran on are written as
JSON; bench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def machine() -> dict:
    probe = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    versions = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout.split()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "platform": platform.platform(),
    }


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default the workloads BENCHMARK.json lists")
    ap.add_argument("--trace", type=int, choices=(0, 1), action="append", help="repeatable; default 0")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    report = {"machine": machine(), "seconds": args.seconds}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        for trace in args.trace or [0]:
            code = repeat(workload, trace, args, report.setdefault(f"trace{trace}", {}))
            if code:
                return code
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


def repeat(workload: str, trace: int, args, into: dict) -> int:
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        runs.append({"seed": seed, **json.loads(proc.stdout.splitlines()[-1])})
    metrics = runs[0]["metrics"]
    summary = {name: {"unit": m["unit"], **summarise([r["metrics"][name]["value"] for r in runs])}
               for name, m in metrics.items()}
    into[workload] = {"summary": summary, "runs": runs}
    print(f"{workload} trace={trace}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
          f"failed {[r['failed'] for r in runs]}, correct {all(r['correct'] for r in runs)}")
    for name, s in summary.items():
        print(f"  {name:50s} {s['unit']:6s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
              f"q3 {s['q3']:12.6g}  spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
