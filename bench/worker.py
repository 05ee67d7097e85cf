"""One benchmark worker: a fresh interpreter that imports jordanblocks and runs items.

    python3 bench/worker.py probe     # import, report, exit
    python3 bench/worker.py run       # read a JSON request on stdin, run it

The driving process (run.py) puts the checkout's src/ on PYTHONPATH and
times setup from before the spawn to the `ready` stamp taken here, right
after the package and its CLI are imported. A request names the workload,
one round of items (for sweep, one pass of calls) and whether to trace.
Item inputs are built before tracing starts. The result is one JSON object
on stdout with the raw outputs; checking them against the reference
answers happens in the driving process, outside any timed region.
"""

from __future__ import annotations

import os
import sys
import time

import jordanblocks
import jordanblocks.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

from jordanblocks import oracle, reports  # noqa: E402
from jordanblocks.partitions import parse_jordan_type  # noqa: E402
from jordanblocks.rules import GroupContext  # noqa: E402
from workloads import KINDS, sweep_argv  # noqa: E402


class _RowClock(io.TextIOBase):
    """Stands in for stdout during a sweep call; stamps each finished row."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        if "\n" in s:
            now = perf_counter()
            self.stamps.extend([now] * s.count("\n"))
        return len(s)


def _run_sweep_pass(calls: list) -> list[dict]:
    out = []
    for call in calls:
        clock, err = _RowClock(), io.StringIO()
        with contextlib.redirect_stdout(clock), contextlib.redirect_stderr(err):
            start = perf_counter()
            jordanblocks.cli.main(sweep_argv(call))
        stamps = [start] + clock.stamps
        out.append({
            "call": call,
            "rows": "".join(clock.parts).splitlines(),
            "latency_s": [b - a for a, b in zip(stamps, stamps[1:])],
            "stderr": err.getvalue()[-500:],
        })
    return out


# Items call through the module attribute so that a traced run reaches the
# wrapper installed there.
def _tensor_item(item, max_entries: int):
    m, n, p = item
    return lambda: oracle.tensor_block_type(m, n, p, max_entries=max_entries)


def _verify_item(item, max_entries: int):
    group, p, t = item
    typ = parse_jordan_type(t)
    ctx = GroupContext(KINDS[group], typ.dim, p)
    return lambda: reports.build_report(typ, ctx, verify=True, max_entries=max_entries)


def _render(workload: str, result) -> list:
    if workload == "tensor_pairs":
        return [result.render()]
    return [result.carrier.render(), result.irreducible.render(), result.rule, result.verified]


def _run_items(workload: str, calls: list) -> dict:
    results, latencies = [], []
    begin = perf_counter()
    for call in calls:
        t0 = perf_counter()
        try:
            res = call()
        except Exception as exc:  # a refused or crashing item counts as failed
            res = exc
        latencies.append(perf_counter() - t0)
        results.append(res)
    wall = perf_counter() - begin
    failed = [isinstance(res, Exception) for res in results]
    return {
        "outputs": [None if bad else _render(workload, res) for res, bad in zip(results, failed)],
        "errors": [f"{type(res).__name__}: {res}" if bad else None for res, bad in zip(results, failed)],
        "latency_s": latencies,
        "wall_s": wall,
    }


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    src = os.path.realpath(os.path.dirname(os.path.dirname(jordanblocks.__file__)))
    result = {"ready": READY, "src": src}
    if mode == "run":
        req = json.loads(sys.stdin.read())
        workload = req["workload"]
        if workload != "sweep":
            make = _tensor_item if workload == "tensor_pairs" else _verify_item
            calls = [make(item, req["max_entries"]) for item in req["round"]]
        tracer = None
        if req["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        with tracer.root() if tracer else contextlib.nullcontext():
            if workload == "sweep":
                begin = perf_counter()
                result["calls"] = _run_sweep_pass(req["round"])
                result["wall_s"] = perf_counter() - begin
            else:
                result.update(_run_items(workload, calls))
        if tracer:
            result["trace"] = tracer.summary()
            tracer.write(req["spans_path"])
    elif mode != "probe":
        print(f"usage: {sys.argv[0]} probe|run", file=sys.stderr)
        return 2
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
