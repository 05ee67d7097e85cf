"""Workload definitions, seeded plans and reference answers for the benchmark.

Nothing here imports jordanblocks: the plans are built and the outputs are
checked in the driving process, while the package runs in fresh worker
interpreters (see worker.py).
"""

from __future__ import annotations

import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

WORKLOADS = ("tensor_pairs", "sweep", "verify")

PRIMES = (2, 3, 5, 7)
PAIR_MAX = 32
# Every pair fits: the largest matrix is 1024 x 1024.
RAISED_MAX_ENTRIES = 2**31

# (group, p, max_n) for each in-process `jordanblocks sweep` call. The p = 2
# call reaches dimension 15, which the default entry cap refuses; its 176
# refused rows are counted as failed rather than dropped.
SWEEP_CALLS = (
    *(("sl", p, 14) for p in (3, 5, 7, 10007)),
    ("sl", 2, 15),
    *((group, p, 14) for group in ("sp", "so") for p in (3, 5, 7)),
)

# Items run in rounds. A round is a systematic sample of the whole input
# pool ordered by cost, so each round has the same cost profile and the
# throughput of a run hardly depends on which seed drew it.
# Each round runs in its own fresh interpreter. Round sizes divide the pools
# (2112 pairs, 624 verify cases).
ROUND_SIZE = {"tensor_pairs": 32, "verify": 48}
MIN_ITEMS = 100
# A run stops when its time is spent; the plan is long enough that even a
# much faster program does not run out of rounds first.
EPOCHS = 8


# CLI --group values and the GroupContext kinds they name.
KINDS = {"sl": "SL", "sp": "Sp", "so": "SO"}


def sweep_argv(call: tuple[str, int, int]) -> list[str]:
    group, p, max_n = call
    return ["sweep", "--p", str(p), "--max-n", str(max_n), "--group", group]


# ---------------------------------------------------------------- references

def _lines(name: str) -> list[str]:
    path = REFERENCE_DIR / name
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]


def load_tensor_reference() -> dict[tuple[int, int, int], str]:
    """(p, m, n) -> rendered Jordan type of J_m tensor J_n, every m <= n <= 32,
    in the file's order: ascending cost."""
    out = {}
    for ln in _lines("tensor_pairs.txt"):
        p, m, n, t = ln.split(";", 3)
        out[int(p), int(m), int(n)] = t
    return out


def load_sweep_reference() -> dict[tuple[str, int, int], list[str]]:
    """(group, p, max_n) -> the rows that sweep call should print, in order."""
    out: dict[tuple[str, int, int], list[str]] = {}
    for ln in _lines("sweep.txt"):
        group, p, max_n, row = ln.split(";", 3)
        out.setdefault((group, int(p), int(max_n)), []).append(row)
    return out


def load_verify_reference() -> dict[tuple[str, int, str], tuple[str, str, str]]:
    """(group, p, input type) -> (carrier, irreducible, rule case), in the
    file's order: ascending cost."""
    out = {}
    for ln in _lines("verify.txt"):
        group, p, t, carrier, irr, rule = ln.split(";")
        out[group, int(p), t] = (carrier, irr, rule)
    return out


def load_reference(workload: str) -> dict:
    return {
        "tensor_pairs": load_tensor_reference,
        "sweep": load_sweep_reference,
        "verify": load_verify_reference,
    }[workload]()


# --------------------------------------------------------------------- plans

def _rounds(pool: list, round_size: int, rng: random.Random) -> list[list]:
    """The whole pool, once, as a seeded sequence of systematic samples.

    pool is in ascending order of cost, as the reference files list it. It
    is cut into round_size runs of step entries; round o takes entry o of
    every even run and entry step - 1 - o of every odd run, so every round
    spans all cost levels and leans neither cheap nor dear.
    """
    step, rest = divmod(len(pool), round_size)
    if rest or round_size % 2:
        raise ValueError(f"pool of {len(pool)} does not split into rounds of {round_size}")
    offsets = list(range(step))
    rng.shuffle(offsets)
    rounds = []
    for off in offsets:
        chosen = [pool[j * step + (off if j % 2 == 0 else step - 1 - off)] for j in range(round_size)]
        rng.shuffle(chosen)
        rounds.append(chosen)
    return rounds


def make_plan(workload: str, seed: int, reference: dict) -> list[list]:
    """Seeded rounds of items; a run executes a prefix of whole rounds.

    tensor_pairs: items are (m, n, p) pairs; each epoch visits every pair once.
    verify: items are (group, p, input type) drawn from the reference pool.
    sweep: each round is one pass, all calls in a seeded order.
    """
    rng = random.Random(seed)
    if workload == "sweep":
        passes = []
        for _ in range(EPOCHS * 8):
            calls = list(SWEEP_CALLS)
            rng.shuffle(calls)
            passes.append(calls)
        return passes
    rounds = []
    for _ in range(EPOCHS):
        rounds += _rounds(list(reference), ROUND_SIZE[workload], rng)
    if workload == "tensor_pairs":
        return [[(m, n, p) for p, m, n in rnd] for rnd in rounds]
    return rounds
