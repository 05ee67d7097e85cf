"""Tests for the matrix-based Jordan type oracle."""

import os
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
    PrimeFieldMatrix,
    block_diagonal,
    clebsch_gordan,
    dual_action,
    ext2_type,
    exterior_square,
    jordan_block,
    jordan_type_of,
    kronecker,
    sym2_type,
    symmetric_square,
    tensor_block_type,
    tensor_dual_type,
)
from jordanblocks import oracle
from jordanblocks.linalg import inverse, kernel_dim, rref

from helpers import shift_chain_tensor_type

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

    def test_identity_is_all_ones(self):
        assert jordan_type_of(PrimeFieldMatrix.identity(6, 7)) == JordanType({1: 6})

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
            if tensor_block_type(m, n, p, max_entries=(m * n) ** 2)
            != shift_chain_tensor_type(m, n, p)
        ]
        assert wrong == []

    @pytest.mark.parametrize(
        "m, n, p", [(3, 4, 2), (4, 4, 3), (2, 5, 5), (5, 6, 2), (4, 8, 2)]
    )
    def test_block_counts_match_kernel_dimensions(self, m, n, p):
        # multiplicity of size s is 2k_s - k_{s+1} - k_{s-1}
        # with k_s the kernel dimension of the s-th power of the shift
        M = kronecker(jordan_block(m, p), dual_action(jordan_block(n, p)))
        X = M - PrimeFieldMatrix.identity(m * n, p)
        k = [kernel_dim(X.pow(s)) if s else 0 for s in range(m * n + 2)]
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
        # a rank chain that loses a block must still be caught when asserts are stripped
        script = textwrap.dedent(
            """
            import sys
            from jordanblocks import JordanType, oracle

            real = oracle._blocks_from_ranks

            def drop_one_block(ranks):
                blocks = real(ranks).blocks
                largest = max(blocks)
                blocks[largest] -= 1
                return JordanType({s: m for s, m in blocks.items() if m})

            oracle._blocks_from_ranks = drop_one_block
            if not sys.flags.optimize:
                sys.exit("not running under python -O")
            try:
                oracle.tensor_block_type(3, 4, 5)
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
        assert "expected 12" in proc.stdout


class TestWorkingDtype:
    @pytest.mark.parametrize(
        "p, two_terms, three_terms",
        [
            (7, np.int8, np.int8),
            (11, np.int16, np.int16),
            (127, np.int16, np.int32),
            (131, np.int32, np.int32),
            (10007, np.int32, np.int32),
            (1000003, np.int64, np.int64),
        ],
    )
    def test_narrowest_dtype_holding_the_bound(self, p, two_terms, three_terms):
        assert oracle._working_dtype(p, 2) is two_terms
        assert oracle._working_dtype(p, 3) is three_terms

    def test_refuses_a_prime_too_large_for_int64(self):
        with pytest.raises(ValueError, match="2147483647"):
            oracle._working_dtype(2**31 - 1, 3)


class TestEchelon:
    @pytest.mark.parametrize("p", WIDTH_PRIMES)
    @pytest.mark.parametrize("seed", range(3))
    def test_row_space_matches_rref(self, p, seed):
        rng = np.random.default_rng(seed)
        dtype = oracle._working_dtype(p, 2)
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
        # random rows, some of them rank-deficient products, under random tags
        rng = np.random.default_rng(seed)
        cols, ntags = 9, 7
        work = np.vstack([
            rng.integers(0, p, size=(20, cols)),
            rng.integers(0, p, size=(40, 2)) @ rng.integers(0, p, size=(2, cols)) % p,
            np.zeros((3, cols), dtype=np.int64),
        ])
        tags = rng.integers(0, ntags, size=work.shape[0])
        got, got_tags = oracle._echelon(work.astype(oracle._working_dtype(p, 2)), p, tags)
        counts = np.bincount(got_tags, minlength=ntags)
        for t in range(ntags):
            want, piv = rref(work[tags == t], p)
            assert counts[t] == len(piv)
            assert np.array_equal(rref(got[got_tags == t], p)[0], want)


class TestLargePrimes:
    def test_large_prime_pair_stays_small(self):
        # 12 + 12 - 1 <= p, so the answer is the characteristic-zero ladder
        oracle._tensor_block_type.cache_clear()
        tracemalloc.start()
        try:
            got = tensor_block_type(12, 12, 1000003)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == clebsch_gordan(12, 12)
        assert peak < 5_000_000


class TestMemory:
    def test_cold_30x30_pair_stays_small(self):
        # the graded blocks are at most 30 wide; a 900-wide chain is not needed
        oracle._tensor_block_type.cache_clear()
        tracemalloc.start()
        try:
            got = tensor_block_type(30, 30, 3, max_entries=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.dim == 900
        assert peak < 16_000_000


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
    @pytest.mark.parametrize("blocks, p", [({2: 1, 3: 1}, 3), ({4: 1}, 5), ({1: 2, 2: 1}, 7)])
    def test_exterior_square_matches_matrices(self, blocks, p):
        t = JordanType(blocks)
        U = unipotent_of_type(t, p)
        assert jordan_type_of(exterior_square(U)) == ext2_type(t, p)

    @pytest.mark.parametrize("blocks, p", [({2: 1, 3: 1}, 3), ({4: 1}, 5), ({1: 2, 2: 1}, 7)])
    def test_symmetric_square_matches_matrices(self, blocks, p):
        t = JordanType(blocks)
        U = unipotent_of_type(t, p)
        assert jordan_type_of(symmetric_square(U)) == sym2_type(t, p)

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

    def test_exterior_square_in_characteristic_two_needs_the_matrix(self):
        # the alternating split of V_d (x) V_d would be wrong for every d here
        assert ext2_type(JordanType({2: 1}), 2) == JordanType({1: 1})
        for d in range(2, 25):
            want = jordan_type_of(exterior_square(jordan_block(d, 2)))
            assert ext2_type(JordanType({d: 1}), 2, max_entries=(d * d) ** 2) == want
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
