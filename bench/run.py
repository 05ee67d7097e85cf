"""The jordanblocks benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload tensor_pairs|sweep|verify --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy. Each run starts fresh worker
interpreters (worker.py), one closed-loop caller at a time, so caches start
cold and import cost is paid as it is by each CLI call. Every output is
checked against the reference answers in bench/reference/ after the worker
has finished. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced for half
the budget, reruns exactly the same items under span tracing and reports
the per-layer metrics instead. See bench/README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_NAMES, ROOT
from workloads import MIN_ITEMS, RAISED_MAX_ENTRIES, WORKLOADS, load_reference, make_plan

ROOT_DIR = Path(__file__).resolve().parent.parent
SRC = ROOT_DIR / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SPANS_DIR = ROOT_DIR / ".bench_build" / "spans"

SETUP_PROBES = 4
IMPORTTIME_PROBES = 3
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


# ------------------------------------------------------------------ workers

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(mode: str, request: dict | None = None, python_flags: tuple = ()) -> tuple[float, dict, str]:
    """Run one worker to completion; returns (setup seconds, result, stderr)."""
    cmd = [sys.executable, *python_flags, str(WORKER), mode]
    started = time.monotonic()
    proc = subprocess.run(
        cmd,
        input=json.dumps(request) if request else "",
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT_DIR,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["src"]) != SRC.resolve():
        raise BenchError(f"worker imported jordanblocks from {result['src']}, not {SRC}")
    return result["ready"] - started, result, proc.stderr


def _request(workload: str, rnd: list, trace: bool = False, spans_path: str | None = None) -> dict:
    return {"workload": workload, "round": rnd, "max_entries": RAISED_MAX_ENTRIES,
            "trace": trace, "spans_path": spans_path}


def run_workload(workload: str, plan: list, seconds: float) -> tuple[list[dict], list[float]]:
    """Untraced rounds, each in a fresh interpreter, until the budget is spent.

    Stops after the round in which the measured time reaches seconds and at
    least MIN_ITEMS items are done. Returns (one result per round, setup
    seconds of each worker).
    """
    results, setups = [], []
    spent, items = 0.0, 0
    for rnd in plan:
        setup, res, _ = spawn("run", _request(workload, rnd))
        setups.append(setup)
        results.append(res)
        spent += res["wall_s"]
        items += sum(len(c["rows"]) for c in res["calls"]) if workload == "sweep" else len(rnd)
        if spent >= seconds and items >= MIN_ITEMS:
            break
    return results, setups


def run_traced(workload: str, rounds: list, seed: int) -> list[dict]:
    """The given rounds again, under span tracing; spans go to SPANS_DIR."""
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    out = []
    for k, rnd in enumerate(rounds):
        path = SPANS_DIR / f"{workload}-seed{seed}-{k}.txt.gz"
        out.append(spawn("run", _request(workload, rnd, True, str(path)))[1])
    return out


def import_breakdown() -> dict[str, float]:
    """Import seconds owned by numpy, scipy and jordanblocks, from `-X importtime`.

    A module's self time goes to the outermost numpy or scipy module above
    it in the import tree, so what scipy pulls in (numpy.f2py, for one)
    counts as scipy's. What is left under jordanblocks is its own share.
    Medians over fresh interpreters.
    """
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "jordanblocks": []}
    for _ in range(IMPORTTIME_PROBES):
        _, _, stderr = spawn("probe", python_flags=("-X", "importtime"))
        rows = []
        for line in stderr.splitlines():
            fields = line[len("import time:"):].split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[0].strip().isdigit():
                depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
                rows.append((int(fields[0]), depth, fields[2].strip().split(".")[0]))
        totals = dict.fromkeys(samples, 0)
        stack: list[str] = []
        # importtime prints children before parents; reversed, parents come first.
        for self_us, depth, top in reversed(rows):
            del stack[depth:]
            stack.append(top)
            owner = next((t for t in stack if t in ("numpy", "scipy")), None)
            if owner is None and "jordanblocks" in stack:
                owner = "jordanblocks"
            if owner:
                totals[owner] += self_us
        for pkg, us in totals.items():
            samples[pkg].append(us / 1e6)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


# ----------------------------------------------------------------- checking

class Tally:
    """Items attempted and failed, counted against the reference answers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies: list[float] = []
        self.notes: list[str] = []

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def add(self, ok: bool, answered: bool, latency: float | None, note: str) -> None:
        """One expected item; answered is False when it raised or was refused."""
        self.attempted += 1
        if ok:
            self.latencies.append(latency)
            return
        self.failed += 1
        self.wrong += answered
        if len(self.notes) < 5:
            self.notes.append(note)


def check(workload: str, plan: list, results: list[dict], reference: dict, tally: Tally) -> None:
    """Compare every expected item with what the workers produced.

    The number attempted comes from the reference: a sweep row that was
    never printed is a failed item, not a missing one.
    """
    for rnd, res in zip(plan, results):
        if workload == "sweep":
            check_pass(res, reference, tally)
        else:
            check_round(workload, rnd, res, reference, tally)


def check_pass(res: dict, reference: dict, tally: Tally) -> None:
    for call in res["calls"]:
        expected = reference[tuple(call["call"])]
        rows, lat = call["rows"], call["latency_s"]
        for i, want in enumerate(expected):
            got = rows[i] if i < len(rows) else None
            note = f"sweep {call['call']} row {i}: got {got!r}, want {want!r} {call['stderr'].strip()}"
            tally.add(got == want, got is not None, lat[i] if i < len(lat) else None, note)
        for extra in rows[len(expected):]:
            tally.wrong += 1
            tally.notes.append(f"sweep {call['call']}: unexpected row {extra!r}")


def check_round(workload: str, rnd: list, res: dict, reference: dict, tally: Tally) -> None:
    for item, out, err, lat in zip(rnd, res["outputs"], res["errors"], res["latency_s"]):
        if workload == "tensor_pairs":
            m, n, p = item
            want = [reference[p, m, n]]
        else:
            want = [*reference[tuple(item)], True]
        tally.add(out == want, out is not None, lat, f"{workload} {item}: got {out or err}, want {want}")


# ------------------------------------------------------------------ metrics

def end_to_end(results: list[dict], setups: list[float], tally: Tally) -> dict:
    """Throughput is correct items over workload time, summed over every
    round of the run; latencies pool every item of the run.

    The machine's speed swings by tens of percent within seconds. A total
    over the run follows the share of time spent slow smoothly, where a
    median over a few rounds jumps between the fast and the slow level.
    """
    busy = sum(r["wall_s"] for r in results)
    # A failed item never answers, so it waits at least the whole run.
    latencies = tally.latencies + [busy] * tally.failed
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (tally.ok / busy, "1/s"),
        "item_p50_ms": (deciles[4] * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in results) / 1024, "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict], imports: dict[str, float], tally: Tally) -> dict:
    out = {}
    summaries = [r["trace"] for r in traced]
    for name in LAYER_NAMES + (ROOT,):
        out[f"{name}.calls"] = (sum(s["calls"][name] for s in summaries), "count")
        out[f"{name}.self_s"] = (sum(s["self_s"][name] for s in summaries), "s")
    del out[f"{ROOT}.calls"]
    counters = [s["counters"] for s in summaries]
    pair_calls = out["oracle.tensor_block_type.calls"][0]
    new_keys = sum(c["oracle.tensor_block_type.new_keys"] for c in counters)
    out["oracle.tensor_block_type.new_key_ratio"] = (new_keys / pair_calls if pair_calls else 0.0, "ratio")
    out["oracle.tensor_block_type.side_max"] = (max(c["oracle.tensor_block_type.side_max"] for c in counters), "rows")
    for name in ("oracle.jordan_type_of.side_sum", "construction.build_adjoint_action.side_sum"):
        out[name] = (sum(c[name] for c in counters), "rows")
    for pkg, secs in imports.items():
        out[f"setup.{pkg}_s"] = (secs, "s")
    traced_wall = sum(s["wall_s"] for s in summaries)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - sum(r["wall_s"] for r in untraced), "s")
    out["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    return out


# --------------------------------------------------------------------- main

def measure(workload: str, plan: list, reference: dict, seconds: float, trace: bool, seed: int = 0):
    """Run, check and summarise one workload; returns (tally, {name: (value, unit)})."""
    tally = Tally()
    # A traced run measures the same items twice, untraced and traced, each
    # for about half the budget, so that it takes no longer than an untraced run.
    results, setups = run_workload(workload, plan, seconds / 2 if trace else seconds)
    check(workload, plan, results, reference, tally)
    if trace:
        executed = plan[: len(results)]
        traced = run_traced(workload, executed, seed)
        check(workload, executed, traced, reference, tally)
        return tally, per_layer(results, traced, import_breakdown(), tally)
    setups += [spawn("probe")[0] for _ in range(SETUP_PROBES)]
    return tally, end_to_end(results, setups, tally)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seeds the inputs; same seed, same items")
    ap.add_argument("--seconds", type=float, required=True, help="time budget for the measured workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "jordanblocks" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'jordanblocks'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        reference = load_reference(args.workload)
        plan = make_plan(args.workload, args.seed, reference)
        tally, metrics = measure(args.workload, plan, reference, args.seconds, bool(args.trace), args.seed)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} items, "
          f"{tally.failed} failed ({tally.wrong} wrong), failed_ratio {tally.failed / tally.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
