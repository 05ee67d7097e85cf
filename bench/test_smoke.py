"""Smoke test for the benchmark harness, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric listed in BENCHMARK.json is emitted with its
unit, that a corrupted reference answer is counted as failed, that sweep
rows refused by the entry cap are counted rather than dropped, and that
the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Rounds of items; each round runs in its own worker.
TINY_PLANS = {
    "tensor_pairs": [[(2, 3, 2), (3, 4, 3)], [(4, 5, 5)]],
    "sweep": [[("sl", 2, 15)]],
}


def tiny_plan(workload: str, reference: dict) -> list:
    if workload == "verify":
        return [list(reference)[:2]]  # the reference lists the cheapest cases first
    return TINY_PLANS[workload]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    reference = load_reference(workload)
    tally, metrics = run.measure(workload, tiny_plan(workload, reference), reference, 0, trace)
    assert tally.wrong == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in wanted)
    for m in wanted:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, (int, float)), m["name"]
    if not trace:
        assert all(metrics[m["name"]][0] > 0 for m in wanted)


def test_corrupted_reference_answer_is_counted_as_failed():
    reference = load_reference("verify")
    plan = tiny_plan("verify", reference)
    carrier, irreducible, rule = reference[plan[0][0]]
    reference[plan[0][0]] = (carrier, irreducible + ", 1", rule)
    tally, metrics = run.measure("verify", plan, reference, 0, True)
    # The case runs twice, untraced and traced, and is wrong both times.
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 2)
    assert metrics["failed_ratio"][0] == pytest.approx(2 / 4)


def test_refused_sweep_rows_are_counted_not_dropped():
    reference = load_reference("sweep")
    expected = reference["sl", 2, 15]
    refused = [row for row in expected if row.startswith("15;")]
    assert len(refused) == 176  # the partitions of 15
    tally, _ = run.measure("sweep", TINY_PLANS["sweep"], reference, 0, False)
    assert tally.attempted == len(expected)
    assert tally.failed == len(refused)
    assert tally.wrong == 0


def test_refuses_to_run_without_the_package_source():
    bare = BENCH.parent / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
