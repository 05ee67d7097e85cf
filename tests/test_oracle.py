"""Tests for the matrix-based Jordan type oracle."""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordanblocks
from jordanblocks import (
    JordanType,
    OracleCapError,
    ext2_type,
    partitions_of,
    sym2_type,
    tensor_block_type,
    tensor_dual_type,
)
from jordanblocks import linalg, oracle
from jordanblocks.linalg import (
    PrimeFieldMatrix,
    block_diagonal,
    dual_action,
    exterior_square,
    jordan_block,
    kronecker,
    symmetric_square,
)
from jordanblocks.oracle import jordan_type_of

from helpers import clear_memos, graded_engine, inverse, matrix_power, rref, shift_chain_tensor_type

PRIMES = [2, 3, 5, 7]

# every 1 <= m <= n <= 12, plus pairs on both sides of 256 rows, at each prime
DIFFERENTIAL_PAIRS = [
    (m, n, p) for p in PRIMES for n in range(1, 13) for m in range(1, n + 1)
] + [(m, n, p) for p in PRIMES for m, n in [(16, 16), (15, 18), (20, 20)]]

# worked examples with independently checked decompositions
TENSOR_EXAMPLES = [
    (2, 2, 2, {2: 2}),
    (2, 2, 3, {1: 1, 3: 1}),
    (3, 3, 3, {3: 3}),
    (2, 3, 5, {2: 1, 4: 1}),
    (3, 4, 5, {2: 1, 5: 2}),
    (3, 3, 2, {1: 1, 4: 2}),
    (4, 4, 2, {4: 4}),
]


# p = 2, then primes on both sides of every width change of the working dtype
WIDTH_PRIMES = [2, 7, 11, 127, 131, 10007, 1000003]

# one prime per working dtype, int8 to int64
TAGGED_PRIMES = [2, 7, 131, 10007, 1000003]


# largest single block whose squares are checked against the explicit matrices
SQUARE_RULE_TOP = {3: 40, 5: 40, 7: 30, 11: 30, 13: 30}

# a cap no test type reaches, for the identities past elimination's reach
UNCAPPED = 10**30


def unipotent_of_type(t: JordanType, p: int) -> PrimeFieldMatrix:
    return block_diagonal([jordan_block(s, p) for s, m in t for _ in range(m)])


class TestJordanTypeOf:
    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize(
        "blocks", [{1: 1}, {3: 1}, {1: 2, 2: 1}, {2: 2, 5: 1}, {1: 1, 3: 1, 4: 2}]
    )
    def test_recovers_block_diagonal_types(self, blocks, p):
        t = JordanType(blocks)
        assert jordan_type_of(unipotent_of_type(t, p)) == t

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        t = JordanType({1: 1, 2: 2, 4: 1})
        M = unipotent_of_type(t, 3)
        arr = np.tril(rng.integers(0, 3, size=(9, 9)), k=-1) + np.eye(9, dtype=np.int64)
        C = PrimeFieldMatrix(arr, 3)
        assert jordan_type_of(C @ M @ inverse(C)) == t

    def test_blocks_from_ranks_reads_back_every_partition(self):
        # r_k = rank X^k = sum of mult * max(0, size - k), down to the first 0
        for n in range(1, 17):
            for t in partitions_of(n):
                ranks = [sum(m * max(0, s - k) for s, m in t) for k in range(t.max_size + 1)]
                assert oracle._blocks_from_ranks(ranks) == t, ranks

    def test_identity_is_all_ones(self):
        assert jordan_type_of(PrimeFieldMatrix(np.eye(6, dtype=np.int64), 7)) == JordanType({1: 6})

    def test_rejects_non_unipotent(self):
        M = PrimeFieldMatrix(np.array([[2, 0], [0, 1]]), 3)
        with pytest.raises(ValueError, match="not unipotent"):
            jordan_type_of(M)

    def test_rejects_non_square(self):
        M = PrimeFieldMatrix(np.array([[1, 0, 0], [0, 1, 0]]), 3)
        with pytest.raises(ValueError):
            jordan_type_of(M)


class TestTensorBlockType:
    @pytest.mark.parametrize("m, n, p, expected", TENSOR_EXAMPLES)
    def test_worked_examples(self, m, n, p, expected):
        assert tensor_block_type(m, n, p) == JordanType(expected)

    @pytest.mark.parametrize("m, n, p", [(2, 4, 3), (3, 5, 2), (4, 6, 5)])
    def test_symmetric_in_the_factors(self, m, n, p):
        assert tensor_block_type(m, n, p) == tensor_block_type(n, m, p)

    @pytest.mark.parametrize("m, n, p", DIFFERENTIAL_PAIRS)
    def test_agrees_with_direct_matrix_computation(self, m, n, p):
        M = kronecker(jordan_block(m, p), dual_action(jordan_block(n, p)))
        assert jordan_type_of(M) == tensor_block_type(m, n, p, max_entries=(m * n) ** 2)

    @pytest.mark.parametrize("p", PRIMES)
    def test_graded_engine_matches_shift_chain(self, p):
        # every 1 <= m <= n <= 20: 210 pairs per prime, 840 in all
        wrong = [
            (m, n)
            for n in range(1, 21)
            for m in range(1, n + 1)
            if graded_engine(m, n, p) != shift_chain_tensor_type(m, n, p)
        ]
        assert wrong == []

    @pytest.mark.parametrize(
        "m, n, p", [(3, 4, 2), (4, 4, 3), (2, 5, 5), (5, 6, 2), (4, 8, 2)]
    )
    def test_block_counts_match_kernel_dimensions(self, m, n, p):
        # multiplicity of size s is 2k_s - k_{s+1} - k_{s-1}
        # with k_s the kernel dimension of the s-th power of the shift
        M = kronecker(jordan_block(m, p), dual_action(jordan_block(n, p)))
        X = (M.array - np.eye(m * n, dtype=np.int64)) % p
        k = [m * n - len(rref(matrix_power(X, s, p), p)[1]) for s in range(m * n + 2)]
        t = tensor_block_type(m, n, p)
        for s in range(1, m * n + 1):
            assert t.multiplicity(s) == 2 * k[s] - k[s + 1] - k[s - 1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(PRIMES),
    )
    def test_dimension_is_conserved(self, m, n, p):
        assert tensor_block_type(m, n, p).dim == m * n

    def test_cap_is_enforced(self):
        with pytest.raises(OracleCapError, match="exceeds the cap"):
            tensor_block_type(2, 5, 3, max_entries=99)
        # 9x9 carrier has exactly 81 entries, so this one just fits
        assert tensor_block_type(3, 3, 3, max_entries=81) == JordanType({3: 3})

    def test_cap_error_is_a_value_error(self):
        assert issubclass(OracleCapError, ValueError)

    def test_dimension_check_survives_python_O(self):
        # a rank chain that loses a block must still be caught when asserts
        # are stripped; no tensor pair runs one, an explicit matrix does
        assert dropped_block_is_caught("_blocks_from_ranks", "jordan_type_of(jordan_block(5, 3))", 5)

    @pytest.mark.parametrize(
        "rule, call, dim",
        [
            # 2 + 3 - 1 <= 5: the Clebsch-Gordan ladder answers
            ("clebsch_gordan", "tensor_block_type(2, 3, 5)", 6),
            # 3 < 6 <= 9 = 3 + 6 leaves no fold: the two-level rule answers,
            # also where p divides both sizes
            ("two_level_rule", "tensor_block_type(3, 6, 3)", 18),
            ("two_level_rule", "tensor_block_type(4, 4, 3)", 16),
            # 4 is a power of 2: the free rule answers
            ("free_rule", "tensor_block_type(3, 4, 2)", 12),
            # 4 < 5 < 3 + 4: the reflection fold answers from (1, 2)
            ("reflect_rule", "tensor_block_type(3, 4, 5)", 12),
        ],
    )
    def test_closed_form_dimension_check_survives_python_O(self, rule, call, dim):
        assert dropped_block_is_caught(rule, call, dim)


def dropped_block_is_caught(patched: str, call: str, dim: int) -> bool:
    """Under python -O, make oracle.<patched> lose its largest block, run
    oracle.<call>, and check that the dimension check still fires."""
    script = textwrap.dedent(
        f"""
        import sys
        from jordanblocks import JordanType, oracle
        from jordanblocks.linalg import jordan_block

        real = oracle.{patched}

        def drop_one_block(*args, **kwargs):
            blocks = real(*args, **kwargs).blocks
            largest = max(blocks)
            blocks[largest] -= 1
            return JordanType({{s: m for s, m in blocks.items() if m}})

        oracle.{patched} = drop_one_block
        if not sys.flags.optimize:
            sys.exit("not running under python -O")
        try:
            oracle.{call}
        except AssertionError as exc:
            print(exc)
            sys.exit(0)
        sys.exit("no error for a Jordan type of the wrong dimension")
        """
    )
    src = str(Path(jordanblocks.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return f"expected {dim}" in proc.stdout


class TestRouting:
    # answers per path for the pairs below, from a cold memo. Smaller pairs
    # come first, so the folded and split pairs are memo hits and the counts
    # add up to the 3700 pairs; 31 of the Clebsch-Gordan answers are at
    # p <= 7. No pair is eliminated
    FIRED = {
        "clebsch_gordan": 451,
        "free_rule": 134,
        "reflect_rule": 975,
        "two_level_rule": 2140,
        "_echelon": 0,
    }

    def test_router_matches_the_engine(self, monkeypatch):
        # every m <= n <= 40 at four primes, and the Clebsch-Gordan regime
        # m <= n <= 20 at two large primes
        pairs = [(m, n, p) for p in PRIMES for n in range(1, 41) for m in range(1, n + 1)]
        pairs += [(m, n, p) for p in (10007, 1000003) for n in range(1, 21) for m in range(1, n + 1)]
        fired = dict.fromkeys(self.FIRED, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                answer = fn(*args, **kwargs)
                fired[name] += 1
                return answer

            return wrapper

        for name in fired:
            monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
        clear_memos()
        try:
            routed = {(m, n, p): oracle._tensor_block_type(m, n, p) for m, n, p in pairs}
        finally:
            clear_memos()
        assert fired == self.FIRED
        assert [pair for pair, t in routed.items() if t != graded_engine(*pair)] == []

    @pytest.mark.parametrize("seed", range(8))
    def test_router_matches_the_engine_on_larger_pairs(self, seed):
        rng = random.Random(seed)
        m, n = sorted(rng.randint(41, 64) for _ in range(2))
        p = rng.choice(PRIMES)
        assert oracle._tensor_block_type(m, n, p) == graded_engine(m, n, p)

    def test_no_answer_eliminates(self, monkeypatch):
        # tensor pairs and the exterior squares at p = 2 alike, from a cold
        # memo, neither eliminate nor ask for an elimination width
        def refuse(*args, **kwargs):
            raise AssertionError("a closed-form answer eliminated")

        monkeypatch.setattr(oracle, "_echelon", refuse)
        # the bound's owner, which every matrix asks, and the oracle's import of it
        monkeypatch.setattr(linalg, "_working_dtype", refuse)
        monkeypatch.setattr(oracle, "_working_dtype", refuse)
        clear_memos()
        try:
            for p in PRIMES:
                for n in range(1, 41):
                    for m in range(1, n + 1):
                        oracle._tensor_block_type(m, n, p)
            for d in range(1, 41):
                assert ext2_type(JordanType({d: 1}), 2, max_entries=780**2).dim == d * (d - 1) // 2
        finally:
            clear_memos()

    def test_router_never_calls_the_public_lookup(self, monkeypatch):
        # the scaled and folded pairs come from the memo, never from the
        # capped public wrapper, so routing works with that wrapper gone
        def refuse(*args, **kwargs):
            raise AssertionError(f"the router called tensor_block_type{args}")

        monkeypatch.setattr(oracle, "tensor_block_type", refuse)
        clear_memos()
        try:
            for p in PRIMES:
                for n in range(1, 33):
                    for m in range(1, n + 1):
                        oracle._tensor_block_type(m, n, p)
        finally:
            clear_memos()

    def test_carriers_never_call_the_public_lookup(self, monkeypatch):
        # V (x) V* and both squares read their pairs from the memo too
        def refuse(*args, **kwargs):
            raise AssertionError(f"a carrier called tensor_block_type{args}")

        monkeypatch.setattr(oracle, "tensor_block_type", refuse)
        for p in PRIMES:
            for n in range(1, 13):
                for t in partitions_of(n):
                    assert tensor_dual_type(t, p).dim == n * n
                    assert ext2_type(t, p).dim == n * (n - 1) // 2
                    if p > 2:
                        assert sym2_type(t, p).dim == n * (n + 1) // 2

    def test_caps_refuse_exactly_the_widest_pieces(self):
        # a carrier is refused exactly when its widest piece's side, squared,
        # exceeds the cap: for V (x) V* the largest block with itself, for a
        # square the larger of the top block's own square and the widest pair
        # it sums. Caps on both sides of 196^2, 210^2 and 225^2, and of each
        # carrier's own widest piece, so that every carrier is both refused
        # and answered. A refusal reads no pair and no square from the memos
        fixed = [side * side + off for side in (196, 210, 225) for off in (-1, 0)]
        memos = (oracle._tensor_block_type, oracle._square_single)
        wrong, read = [], []
        for n in range(1, 17):
            for t in partitions_of(n):
                sizes = t.sizes
                top = sizes[-1]
                if t.multiplicity(top) > 1:
                    pair = top * top
                else:
                    pair = sizes[-2] * top if len(sizes) > 1 else 0
                widest = {
                    tensor_dual_type: top * top,
                    ext2_type: max(top * (top - 1) // 2, pair),
                    sym2_type: max(top * (top + 1) // 2, pair),
                }
                for carrier, side in widest.items():
                    for cap in fixed + [side * side - 1, side * side]:
                        before = [memo.cache_info() for memo in memos]
                        try:
                            carrier(t, 3, max_entries=cap)
                            refused = False
                        except OracleCapError:
                            refused = True
                            if [memo.cache_info() for memo in memos] != before:
                                read.append((carrier.__name__, str(t), cap))
                        if refused != (side * side > cap):
                            wrong.append((carrier.__name__, str(t), cap))
        assert wrong == []
        assert read == []

    @pytest.mark.parametrize(
        "carrier", [tensor_dual_type, ext2_type, sym2_type], ids=lambda c: c.__name__
    )
    def test_carriers_refuse_the_empty_type(self, carrier):
        # p is checked first, then the type's top block
        with pytest.raises(ValueError, match="characteristic must be prime"):
            carrier(JordanType(), 9)
        with pytest.raises(ValueError, match="empty Jordan type has no blocks"):
            carrier(JordanType(), 3)

    def test_refused_tensor_dual_reads_no_pair(self):
        # the cap is checked on the widest pair, (15, 15), before any pair is read
        before = oracle._tensor_block_type.cache_info()
        with pytest.raises(OracleCapError, match="225x225"):
            tensor_dual_type(JordanType({14: 1, 15: 1}), 3)
        assert oracle._tensor_block_type.cache_info() == before


class TestWorkingDtype:
    @pytest.mark.parametrize(
        "p, two_terms, three_terms",
        [
            (7, np.int8, np.int8),
            (11, np.int16, np.int16),
            (127, np.int16, np.int32),
            (131, np.int32, np.int32),
            (10007, np.int32, np.int32),
            (32749, np.int32, np.int64),
            (32771, np.int64, np.int64),
            (1000003, np.int64, np.int64),
        ],
    )
    def test_narrowest_dtype_holding_the_bound(self, p, two_terms, three_terms):
        assert linalg._working_dtype(p, 2) is two_terms
        assert linalg._working_dtype(p, 3) is three_terms

    def test_refuses_a_prime_too_large_for_int64(self):
        with pytest.raises(ValueError, match="2147483647"):
            linalg._working_dtype(2**31 - 1, 3)


class TestEchelon:
    @pytest.mark.parametrize("p", WIDTH_PRIMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_row_space_matches_rref(self, p, seed):
        rng = np.random.default_rng(seed)
        dtype = linalg._working_dtype(p, 2)
        for rows, cols, inner in [(8, 8, None), (12, 9, None), (7, 14, None),
                                  (10, 10, 3), (14, 11, 1), (9, 12, 5), (6, 6, 0)]:
            if inner is None:
                work = rng.integers(0, p, size=(rows, cols))
            else:
                a = rng.integers(0, p, size=(rows, inner))
                b = rng.integers(0, p, size=(inner, cols))
                work = a @ b % p
            want, piv = rref(work, p)
            got, _ = oracle._echelon(work.astype(dtype), p)
            assert got.shape[0] == len(piv)
            assert np.array_equal(rref(got, p)[0], want)

    @pytest.mark.parametrize("p", TAGGED_PRIMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_tags_split_the_elimination(self, p, seed):
        # the graded engine's tagged elimination: random rows, some of them
        # rank-deficient products, under random tags
        rng = np.random.default_rng(seed)
        cols, ntags = 9, 7
        work = np.vstack([
            rng.integers(0, p, size=(20, cols)),
            rng.integers(0, p, size=(40, 2)) @ rng.integers(0, p, size=(2, cols)) % p,
            np.zeros((3, cols), dtype=np.int64),
        ])
        dtype = linalg._working_dtype(p, 2)
        tags = rng.integers(0, ntags, size=work.shape[0])
        got, keys = oracle._echelon(work.astype(dtype), p, tags)
        # each basis row is nonzero, and its key is tag * cols + its first
        # nonzero column, one key a row
        assert (got != 0).any(axis=1).all()
        assert np.array_equal(keys % cols, (got != 0).argmax(axis=1))
        assert np.unique(keys).size == keys.size
        got_tags = keys // cols
        counts = np.bincount(got_tags, minlength=ntags)
        for t in range(ntags):
            want, piv = rref(work[tags == t], p)
            assert counts[t] == len(piv)
            assert np.array_equal(rref(got[got_tags == t], p)[0], want)
        # any row of a new key may win its pivot: with the rows and their tags
        # permuted, each tag keeps its basis count and its rref
        order = rng.permutation(work.shape[0])
        got, keys = oracle._echelon(work[order].astype(dtype), p, tags[order])
        got_tags = keys // cols
        assert np.array_equal(np.bincount(got_tags, minlength=ntags), counts)
        for t in range(ntags):
            assert np.array_equal(rref(got[got_tags == t], p)[0], rref(work[tags == t], p)[0])
        # one tag for every row is the untagged elimination, row for row and
        # key for key
        got, keys = oracle._echelon(work.astype(dtype), p, np.zeros_like(tags))
        want, want_keys = oracle._echelon(work.astype(dtype), p)
        assert np.array_equal(got, want)
        assert np.array_equal(keys, want_keys)
        assert not (want_keys // cols).any()


def routed_cold(m: int, n: int, p: int) -> tuple[JordanType, int]:
    """J_m (x) J_n from the router with a cold memo, and the tracemalloc peak."""
    clear_memos()
    tracemalloc.start()
    try:
        got = oracle._tensor_block_type(m, n, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_memos()
    return got, peak


class TestLargePrimes:
    def test_large_prime_pair_stays_small(self):
        # q = p: the two-level rule splits both sizes across p
        m, n, p = 10**6 + 4, 10**6 + 10, 10**6 + 3
        got, peak = routed_cold(m, n, p)
        assert got.dim == m * n
        assert got.block_count == m
        assert peak < 1_000_000


class TestMemory:
    def test_cold_999x1000_pair_stays_small(self):
        # no elimination: the rules answer from a handful of smaller pairs
        got, peak = routed_cold(999, 1000, 3)
        assert got.dim == 999_000
        assert got.block_count == 999
        assert peak < 1_000_000


class TestTensorDualType:
    def test_trivial_type_gives_trivial_square(self):
        assert tensor_dual_type(JordanType({1: 4}), 5) == JordanType({1: 16})

    def test_sums_over_ordered_pairs(self):
        t = JordanType({2: 1, 3: 1})
        expected = (
            tensor_block_type(2, 2, 3)
            + tensor_block_type(3, 3, 3)
            + tensor_block_type(2, 3, 3)
            + tensor_block_type(3, 2, 3)
        )
        assert tensor_dual_type(t, 3) == expected

    @pytest.mark.parametrize("blocks, p", [({2: 2}, 2), ({1: 1, 3: 1}, 3), ({2: 1, 4: 1}, 5)])
    def test_agrees_with_direct_matrix_computation(self, blocks, p):
        t = JordanType(blocks)
        U = unipotent_of_type(t, p)
        assert jordan_type_of(kronecker(U, dual_action(U))) == tensor_dual_type(t, p)

    def test_dimension_is_squared(self):
        t = JordanType({1: 2, 4: 1})
        assert tensor_dual_type(t, 7).dim == t.dim**2


class TestSquareTypes:
    @pytest.mark.parametrize("p", PRIMES)
    def test_exterior_square_matches_matrices(self, p):
        # every partition of 2 <= n <= 10, 137 types
        wrong = [
            str(t)
            for n in range(2, 11)
            for t in partitions_of(n)
            if jordan_type_of(exterior_square(unipotent_of_type(t, p))) != ext2_type(t, p)
        ]
        assert wrong == []

    @pytest.mark.parametrize("p", [p for p in PRIMES if p > 2])
    def test_symmetric_square_matches_matrices(self, p):
        wrong = [
            str(t)
            for n in range(2, 11)
            for t in partitions_of(n)
            if jordan_type_of(symmetric_square(unipotent_of_type(t, p))) != sym2_type(t, p)
        ]
        assert wrong == []

    @pytest.mark.parametrize("p", sorted(SQUARE_RULE_TOP))
    def test_single_block_squares_match_explicit_squares(self, p):
        # the alternating split of V_d (x) V_d against the explicit squares
        wrong = []
        for d in range(2, SQUARE_RULE_TOP[p] + 1):
            t, J = JordanType({d: 1}), jordan_block(d, p)
            cap = (d * (d + 1) // 2) ** 2
            if ext2_type(t, p, max_entries=cap) != jordan_type_of(exterior_square(J)):
                wrong.append(("ext2", d))
            if sym2_type(t, p, max_entries=cap) != jordan_type_of(symmetric_square(J)):
                wrong.append(("sym2", d))
        assert wrong == []

    def test_exterior_square_in_characteristic_two_folds_across_a_power_of_two(self):
        # the fold against the explicit square, where the alternating split
        # of V_d (x) V_d would be wrong for every d
        assert ext2_type(JordanType({2: 1}), 2) == JordanType({1: 1})
        for d in range(2, 41):
            want = jordan_type_of(exterior_square(jordan_block(d, 2)))
            assert ext2_type(JordanType({d: 1}), 2, max_entries=(d * d) ** 2) == want, d
            pair = tensor_block_type(d, d, 2, max_entries=(d * d) ** 2)
            parts = sorted((s for s, m in pair for _ in range(m)), reverse=True)
            assert JordanType((s, 1) for s in parts[1::2]) != want, d

    def test_square_dimensions(self):
        t = JordanType({2: 2, 3: 1})
        n = t.dim
        assert ext2_type(t, 3).dim == n * (n - 1) // 2
        assert sym2_type(t, 3).dim == n * (n + 1) // 2

    def test_squares_partition_the_tensor_square(self):
        # in odd characteristic the two squares together fill V (x) V
        t = JordanType({2: 1, 3: 1})
        assert ext2_type(t, 5) + sym2_type(t, 5) == tensor_dual_type(t, 5)

    def test_symmetric_square_needs_odd_characteristic(self):
        with pytest.raises(ValueError, match="p > 2"):
            sym2_type(JordanType({2: 1}), 2)

    def test_exterior_square_works_in_characteristic_two(self):
        t = JordanType({2: 1, 3: 1})
        U = unipotent_of_type(t, 2)
        assert jordan_type_of(exterior_square(U)) == ext2_type(t, 2)


def product(s: JordanType, t: JordanType, p: int) -> JordanType:
    """s (x) t, summed over pairs of blocks with the public pair lookup."""
    return JordanType(
        (size, mult * m1 * m2)
        for d1, m1 in s
        for d2, m2 in t
        for size, mult in tensor_block_type(d1, d2, p, max_entries=UNCAPPED)
    )


@pytest.fixture
def cold_memo():
    # the identities fill the memo with thousands of large pairs: start
    # from an empty one and leave it empty
    clear_memos()
    yield
    clear_memos()


class TestProductIdentities:
    """Identities that tie the closed forms to each other at sizes no
    elimination referee reaches (Glasby-Praeger-Xia, J. Algebra 2016), from
    the public carriers and pair lookup alone."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_tensor_product_is_associative(self, p, cold_memo):
        # (V_a (x) V_b) (x) V_c = V_a (x) (V_b (x) V_c), seeded sizes up to 1000
        rng = random.Random(p)
        for _ in range(100):
            a, b, c = (rng.randint(1, 1000) for _ in range(3))
            ab = tensor_block_type(a, b, p, max_entries=UNCAPPED)
            bc = tensor_block_type(b, c, p, max_entries=UNCAPPED)
            assert ab.block_count == min(a, b), (a, b, p)
            assert bc.block_count == min(b, c), (b, c, p)
            left = product(ab, JordanType({c: 1}), p)
            right = product(JordanType({a: 1}), bc, p)
            assert left == right, (a, b, c, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_squares_of_a_product(self, p, cold_memo):
        # for V = V_a and W = V_b, seeded sizes up to 200:
        # ext2(V (x) W) = ext2 V (x) S2 W + S2 V (x) ext2 W and
        # S2(V (x) W) = S2 V (x) S2 W + ext2 V (x) ext2 W
        rng = random.Random(p)
        for _ in range(30):
            a, b = rng.randint(1, 200), rng.randint(1, 200)
            ab = tensor_block_type(a, b, p, max_entries=UNCAPPED)
            v, w = JordanType({a: 1}), JordanType({b: 1})
            ext_v, ext_w = (ext2_type(x, p, max_entries=UNCAPPED) for x in (v, w))
            sym_v, sym_w = (sym2_type(x, p, max_entries=UNCAPPED) for x in (v, w))
            want = product(ext_v, sym_w, p) + product(sym_v, ext_w, p)
            assert ext2_type(ab, p, max_entries=UNCAPPED) == want, ("ext2", a, b, p)
            want = product(sym_v, sym_w, p) + product(ext_v, ext_w, p)
            assert sym2_type(ab, p, max_entries=UNCAPPED) == want, ("sym2", a, b, p)
