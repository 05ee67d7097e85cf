"""Regenerate the benchmark's reference answers under bench/reference/.

    PYTHONPATH=src python3 bench/make_reference.py

Run once from the repository root; it takes a few minutes. Every answer is
produced by the package and then cross-checked against routes that do not
go through the elimination oracle's tensor path: dimensions, block counts,
the Clebsch-Gordan and free-block closed forms, the bundled 39-row table,
and the explicit construction that `verify=True` runs. A failed check stops
the script before anything is written.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from functools import lru_cache
from importlib import resources
from time import perf_counter

from jordanblocks import (
    GroupContext,
    JordanType,
    build_report,
    clebsch_gordan,
    free_rule,
    parse_jordan_type,
    partitions_of,
    tensor_block_type,
    validate_classical,
)
from jordanblocks import cli
from workloads import KINDS, PAIR_MAX, PRIMES, RAISED_MAX_ENTRIES, REFERENCE_DIR, SWEEP_CALLS, sweep_argv

# The verify pool: for every prime and dimension, six uniform random SL
# types, and at odd primes Sp and SO types as well; the shuffled list is cut
# to 624 cases. Blocks are at most 12 long, so no case needs a large tensor
# pair: the explicit construction and jordan_type_of do most of the work,
# and a run's time does not hinge on which few cases carry a big block.
VERIFY_DIMS = range(10, 31)
VERIFY_MAX_BLOCK = 12
VERIFY_POOL_SEED = 20090
VERIFY_POOL_SIZE = 624


# The benchmark draws its rounds as systematic samples over this order.
ORDER = "Rows ascend by the time each took when this file was made."


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"reference check failed: {what}")


def irreducible_dim(carrier_dim: int, n: int, p: int) -> int:
    return carrier_dim - (2 if n % p == 0 else 1)


def carrier_dim(group: str, n: int) -> int:
    return {"sl": n * n, "sp": n * (n - 1) // 2, "so": n * (n + 1) // 2}[group]


# ------------------------------------------------------------- tensor pairs

def tensor_pairs() -> tuple[dict[tuple[int, int, int], JordanType], dict]:
    """Every pair's type, and the seconds its first (uncached) call took."""
    out, cost = {}, {}
    for p in PRIMES:
        for n in range(1, PAIR_MAX + 1):
            for m in range(1, n + 1):
                start = perf_counter()
                t = tensor_block_type(m, n, p, max_entries=RAISED_MAX_ENTRIES)
                cost[p, m, n] = perf_counter() - start
                what = f"J_{m} x J_{n} at p={p}"
                check(t.dim == m * n, f"{what}: dimension {t.dim}")
                check(t.block_count == m, f"{what}: {t.block_count} blocks, need {m}")
                if m + n - 1 <= p:
                    check(t == clebsch_gordan(m, n), f"{what}: not Clebsch-Gordan")
                q, alpha = p, 1
                while q < n:
                    q, alpha = q * p, alpha + 1
                if q == n:
                    check(t == free_rule(m, alpha, p), f"{what}: not {m} free blocks")
                out[p, m, n] = t
    return out, cost


def pair_sum(t: JordanType, p: int, pairs) -> JordanType:
    """Type on V tensor V* assembled from single-pair answers, or by
    Clebsch-Gordan at a prime beyond every block sum."""
    out = JordanType()
    for d1, m1 in t:
        for d2, m2 in t:
            lo, hi = sorted((d1, d2))
            part = pairs[p, lo, hi] if p in PRIMES else clebsch_gordan(lo, hi)
            out = out + JordanType({s: k * m1 * m2 for s, k in part})
    return out


def load_table() -> dict[tuple[int, str], tuple[JordanType, JordanType]]:
    """The bundled n;p;input;tensor;irr rows, keyed by (p, input)."""
    text = resources.files("jordanblocks").joinpath("data/table_rows.txt").read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            _, p, t, tensor, irr = line.split(";")
            rows[int(p), parse_jordan_type(t).render()] = (parse_jordan_type(tensor), parse_jordan_type(irr))
    check(len(rows) == 39, f"bundled table has {len(rows)} rows, expected 39")
    return rows


# -------------------------------------------------------------------- sweep

def sweep_rows(call, pairs, table) -> list[str]:
    """Every row the call would print with no entry cap, checked."""
    group, p, max_n = call
    kind = KINDS[group]
    start = {"sl": 2, "sp": 4, "so": 5}[group]
    step = 2 if group == "sp" else 1
    rows = []
    for n in range(start, max_n + 1, step):
        ctx = GroupContext(kind, n, p)
        for t in partitions_of(n):
            if not validate_classical(t, ctx).ok:
                continue
            rep = build_report(t, ctx, max_entries=RAISED_MAX_ENTRIES)
            what = f"{group} p={p} type {t.render()}"
            check(rep.carrier.dim == carrier_dim(group, n), f"{what}: carrier dimension")
            check(rep.irreducible.dim == irreducible_dim(rep.carrier.dim, n, p), f"{what}: irreducible dimension")
            if group == "sl":
                check(rep.carrier == pair_sum(t, p, pairs), f"{what}: carrier differs from pair answers")
                if (p, t.render()) in table:
                    check((rep.carrier, rep.irreducible) == table[p, t.render()], f"{what}: differs from the bundled table")
            rows.append(f"{n};{p};{t.render()};{rep.carrier.render()};{rep.irreducible.render()};{rep.rule}")
    # The CLI must print exactly these rows, up to the point where the
    # default entry cap refuses a dimension.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(sweep_argv(call))
    printed = out.getvalue().splitlines()
    check(printed == rows[: len(printed)], f"sweep {call}: CLI rows differ from the library")
    check(code == 0 or "exceeds the cap" in err.getvalue(), f"sweep {call}: exit {code}")
    return rows


# ------------------------------------------------------------------- verify

@lru_cache(maxsize=None)
def count_partitions(n: int, k: int) -> int:
    """Partitions of n with every part at most k."""
    if n == 0:
        return 1
    return sum(count_partitions(n - j, j) for j in range(1, min(n, k) + 1))


def uniform_partition(rng: random.Random, n: int, k: int) -> JordanType:
    """A partition of n drawn uniformly from those with parts at most k."""
    blocks: dict[int, int] = {}
    k = min(n, k)
    while n:
        r = rng.randrange(count_partitions(n, k))
        for j in range(min(n, k), 0, -1):
            r -= count_partitions(n - j, j)
            if r < 0:
                break
        blocks[j] = blocks.get(j, 0) + 1
        n, k = n - j, j
    return JordanType(blocks)


def verify_pool() -> list[tuple[str, int, JordanType]]:
    rng = random.Random(VERIFY_POOL_SEED)
    cases = [(kind, p, n) for p in PRIMES for n in VERIFY_DIMS for kind in ("SL",) * 6]
    cases += [("Sp", p, n) for p in PRIMES[1:] for n in VERIFY_DIMS if n % 2 == 0] * 2
    cases += [("SO", p, n) for p in PRIMES[1:] for n in VERIFY_DIMS]
    rng.shuffle(cases)
    pool, seen = [], set()
    for kind, p, n in cases:
        ctx = GroupContext(kind, n, p)
        while True:
            t = uniform_partition(rng, n, VERIFY_MAX_BLOCK)
            if validate_classical(t, ctx).ok and (kind, p, t) not in seen:
                break
        seen.add((kind, p, t))
        pool.append((kind, p, t))
        if len(pool) == VERIFY_POOL_SIZE:
            return pool
    sys.exit(f"verify pool has only {len(pool)} cases, need {VERIFY_POOL_SIZE}")


def verify_rows(pairs) -> list[str]:
    """Rows in ascending order of the seconds each report took (pairs warm)."""
    rows = []
    for kind, p, t in verify_pool():
        n = t.dim
        start = perf_counter()
        rep = build_report(t, GroupContext(kind, n, p), verify=True, max_entries=RAISED_MAX_ENTRIES)
        cost = perf_counter() - start
        group = kind.lower()
        what = f"{group} p={p} type {t.render()}"
        check(rep.verified is True, f"{what}: verification did not pass")
        check(rep.carrier.dim == carrier_dim(group, n), f"{what}: carrier dimension")
        check(rep.irreducible.dim == irreducible_dim(rep.carrier.dim, n, p), f"{what}: irreducible dimension")
        if group == "sl":
            check(rep.carrier == pair_sum(t, p, pairs), f"{what}: carrier differs from pair answers")
        rows.append((cost, f"{group};{p};{t.render()};{rep.carrier.render()};{rep.irreducible.render()};{rep.rule}"))
    return [row for _, row in sorted(rows)]


def write(name: str, header: str, rows: list[str]) -> None:
    text = f"# {header}\n" + "".join(f"{r}\n" for r in rows)
    (REFERENCE_DIR / name).write_text(text, encoding="utf-8")
    print(f"{name}: {len(rows)} rows")


def main() -> None:
    pairs, cost = tensor_pairs()
    table = load_table()
    for (p, t), (tensor, _) in table.items():
        check(tensor == pair_sum(parse_jordan_type(t), p, pairs), f"table row p={p} {t}: tensor differs")
    sweep = [(call, row) for call in SWEEP_CALLS for row in sweep_rows(call, pairs, table)]
    verify = verify_rows(pairs)
    REFERENCE_DIR.mkdir(exist_ok=True)
    write("tensor_pairs.txt", f"p;m;n;type of J_m tensor J_n. {ORDER}",
          [f"{p};{m};{n};{pairs[p, m, n].render()}" for p, m, n in sorted(pairs, key=cost.get)])
    write("sweep.txt", "group;p;max_n;row printed by `jordanblocks sweep`, in printing order",
          [f"{g};{p};{mx};{row}" for (g, p, mx), row in sweep])
    write("verify.txt", f"group;p;input;carrier;irreducible;rule. {ORDER}", verify)


if __name__ == "__main__":
    main()
