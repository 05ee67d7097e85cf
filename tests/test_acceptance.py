"""End-to-end acceptance checks.

Each test covers one release requirement over its full stated range and
prints a single summary line with the size of the sweep and the elapsed
time. Expected values come from the bundled reference table, from the
matrix oracle, or from the standard library, never from the code under
test.
"""

import math
import random
import time

import numpy as np

from jordanblocks import (
    GroupContext,
    JordanType,
    adjoint_rule,
    alpha_of,
    binom_mod_p,
    build_adjoint_action,
    dual_action,
    ext2_type,
    gpx_scale,
    jordan_block,
    jordan_type_of,
    nu_p,
    partitions_of,
    reflect_rule,
    so_2w1_rule,
    sp_w2_rule,
    sym2_type,
    tensor_block_type,
    tensor_dual_type,
    validate_classical,
    verify_delta_ladder,
    x_power_on_dual,
    x_power_on_tensor,
)
from jordanblocks import construction
from jordanblocks.cli import _load_fixture
from helpers import random_type, step_formula, tensor_x_matrix


def matrix_power(X: np.ndarray, k: int, p: int) -> np.ndarray:
    out = np.eye(X.shape[0], dtype=np.int64)
    for _ in range(k):
        out = (out @ X) % p
    return out


def report(line: str, start: float) -> None:
    print(f"{line} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_reference_table_reproduced_two_ways():
    start = time.perf_counter()
    rows = _load_fixture(None)
    assert len(rows) == 39
    for n, p, t, tensor, irr in rows:
        assert t.dim == n, (n, p, t.render())
        assert tensor_dual_type(t, p) == tensor, (n, p, t.render())
        ctx = GroupContext("SL", n, p)
        assert adjoint_rule(tensor, t, ctx) == irr, (n, p, t.render())
        want = jordan_type_of(build_adjoint_action(t, p))
        assert want == irr, (n, p, t.render())
        assert construction._split_adjoint_type(t, p) == want, (n, p, t.render())
    report("criterion 1: 39/39 reference rows reproduced two independent ways", start)


def test_criterion_2_rule_agrees_with_construction_for_every_partition():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 11):
        for t in partitions_of(n):
            for p in (2, 3, 5, 7):
                ctx = GroupContext("SL", n, p)
                got = adjoint_rule(tensor_dual_type(t, p), t, ctx)
                want = jordan_type_of(build_adjoint_action(t, p))
                assert got == want, (t.render(), p)
                assert construction._split_adjoint_type(t, p) == want, (t.render(), p)
                checked += 1
    assert checked == 137 * 4
    report(f"criterion 2: rule == construction on {checked} partition/prime pairs", start)


def test_criterion_3_scaling_rule_matches_the_oracle():
    start = time.perf_counter()
    side_cap = 10_000
    checked = 0
    for p in (2, 3):
        for alpha in (0, 1, 2):
            q = p**alpha
            for m in range(1, 7):
                for n in range(m, 7):
                    if (q * m) * (q * n) > side_cap:
                        continue
                    base = tensor_block_type(m, n, p)
                    want = tensor_block_type(q * m, q * n, p, max_entries=side_cap**2)
                    assert gpx_scale(base, alpha, p) == want, (m, n, alpha, p)
                    checked += 1
    report(f"criterion 3: scaling rule matches the oracle on {checked} cases", start)


def test_criterion_4_reflection_rule_matches_the_oracle():
    start = time.perf_counter()
    applicable = 0
    for p in (2, 3, 5, 7):
        for m in range(1, 31):
            for n in range(m, 31):
                got = reflect_rule(m, n, p, max_entries=1_000_000)
                if got is None:
                    continue
                applicable += 1
                assert got == tensor_block_type(m, n, p, max_entries=1_000_000), (m, n, p)
    assert applicable == 659
    report(f"criterion 4: reflection rule matches the oracle on {applicable} pairs", start)


def test_criterion_5_smallest_block_sizes_and_multiplicities():
    start = time.perf_counter()
    for p in (2, 3, 5):
        for n in range(1, 31):
            a = nu_p(n, p)
            t2 = tensor_block_type(n, n, p, max_entries=1_000_000)
            assert t2.min_size == p**a, (n, p)
            assert t2.multiplicity(p**a) == p**a, (n, p)
    rng = random.Random(20260821)
    mixed = 0
    for p in (2, 3, 5):
        for _ in range(200):
            t = random_type(rng, 30)
            a = alpha_of(t, p)
            td = tensor_dual_type(t, p, max_entries=1_000_000)
            assert td.min_size == p**a, (t.render(), p)
            assert td.multiplicity(p**a) >= p**a, (t.render(), p)
            mixed += 1
    report(f"criterion 5: smallest-block law on 90 diagonal and {mixed} random types", start)


def test_criterion_6_delta_ladders_hold():
    start = time.perf_counter()
    checked = 0
    for p in (2, 3, 5):
        for n in sorted({p, 2 * p, p**2, 2 * p**2, p**3}):
            if n > 125:
                continue
            assert verify_delta_ladder(JordanType({n: 1}), p).ok, (n, p)
            checked += 1
    rng = random.Random(8675309)
    for p in (2, 3, 5):
        for _ in range(50):
            t = random_type(rng, 24, divisible_by=p)
            assert alpha_of(t, p) >= 1
            assert verify_delta_ladder(t, p).ok, (t.render(), p)
            checked += 1
    report(f"criterion 6: delta ladder verified on {checked} types", start)


def test_criterion_7_closed_forms_match_matrix_powers():
    start = time.perf_counter()
    for p in (2, 3, 5):
        for n in range(1, 10):
            D = dual_action(jordan_block(n, p))
            X = (D.array - np.eye(n, dtype=np.int64)) % p
            P = np.eye(n, dtype=np.int64)
            for k in range(1, n + 1):
                P = (P @ X) % p
                for i in range(1, n + 1):
                    expected = {j + 1: int(c) for j, c in enumerate(P[i - 1]) if c}
                    assert x_power_on_dual(k, i, n, p) == expected, (k, i, n, p)
    for p in (2, 3, 5):
        for n in range(1, 10):
            t = JordanType({n: 1})
            X = tensor_x_matrix(t, p)
            P = np.eye(n * n, dtype=np.int64)
            for k in range(1, n + 1):
                P = (P @ X) % p
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        got = x_power_on_tensor(k, {(0, i): 1}, {(0, j): 1}, t, p)
                        assert np.array_equal(got.flatten(), P[(i - 1) * n + (j - 1)]), (k, i, j, n, p)
    for p, sizes in ((2, (4, 8)), (3, (9, 18))):
        for n in sizes:
            X = tensor_x_matrix(JordanType({n: 1}), p)
            for beta in (1, 2):
                P = matrix_power(X, (p - 1) * p ** (beta - 1), p)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        row = P[(i - 1) * n + (j - 1)]
                        want = {(f // n + 1, f % n + 1): int(c) for f, c in enumerate(row) if c}
                        assert step_formula(i, j, n, beta, p) == want, (i, j, n, beta, p)
    report("criterion 7: shift power closed forms match matrices everywhere tested", start)


def test_criterion_8_square_pieces_complement_each_other():
    start = time.perf_counter()
    checked = 0
    for p in (3, 5, 7):
        for kind, dims in (("Sp", (4, 6, 8)), ("SO", (5, 6, 7))):
            for n in dims:
                ctx = GroupContext(kind, n, p)
                slctx = GroupContext("SL", n, p)
                for t in partitions_of(n):
                    if not validate_classical(t, ctx).ok:
                        continue
                    adj = adjoint_rule(tensor_dual_type(t, p), t, slctx)
                    if kind == "Sp":
                        piece = sp_w2_rule(ext2_type(t, p), t, ctx)
                        assert piece + sym2_type(t, p) == adj, (kind, t.render(), p)
                    else:
                        piece = so_2w1_rule(sym2_type(t, p), t, ctx)
                        assert piece + ext2_type(t, p) == adj, (kind, t.render(), p)
                    checked += 1
    report(f"criterion 8: square pieces complement the adjoint type on {checked} cases", start)


def test_criterion_9_binomials_match_the_standard_library():
    start = time.perf_counter()
    for p in (2, 3, 5, 7):
        for a in range(201):
            for b in range(201):
                assert binom_mod_p(a, b, p) == math.comb(a, b) % p, (a, b, p)
        for t in range(p):
            assert binom_mod_p(p - 1, t, p) == (-1) ** t % p, (t, p)
    report("criterion 9: mod-p binomials agree with math.comb up to 200", start)
