"""Tests for exact linear algebra over prime fields."""

import numpy as np
import pytest

from jordanblocks.linalg import (
    PrimeFieldMatrix,
    block_diagonal,
    dual_action,
    exterior_square,
    inverse,
    jordan_block,
    kronecker,
    rref,
    symmetric_square,
)
from helpers import matrix_power


def identity(n: int, p: int) -> PrimeFieldMatrix:
    return PrimeFieldMatrix(np.eye(n, dtype=np.int64), p)


def unitriangular(n: int, p: int, seed: int) -> PrimeFieldMatrix:
    """Random lower triangular matrix with unit diagonal, hence invertible."""
    rng = np.random.default_rng(seed)
    arr = np.tril(rng.integers(0, p, size=(n, n)), k=-1) + np.eye(n, dtype=np.int64)
    return PrimeFieldMatrix(arr, p)


class TestPrimeFieldMatrix:
    def test_entries_are_reduced(self):
        M = PrimeFieldMatrix(np.array([[7, -1], [0, 1]]), 5)
        assert M.array.tolist() == [[2, 4], [0, 1]]

    def test_array_is_read_only(self):
        M = identity(3, 5)
        with pytest.raises(ValueError):
            M.array[0, 0] = 2

    def test_rejects_non_prime_modulus(self):
        with pytest.raises(ValueError):
            PrimeFieldMatrix(np.eye(2, dtype=np.int64), 6)

    def test_arithmetic(self):
        M = PrimeFieldMatrix(np.array([[1, 2], [3, 4]]), 5)
        assert (M @ M).array.tolist() == [[2, 0], [0, 2]]

    def test_transpose(self):
        M = PrimeFieldMatrix(np.array([[1, 2], [0, 3]]), 5)
        assert M.transpose().array.tolist() == [[1, 0], [2, 3]]

    def test_mixed_moduli_are_rejected(self):
        A = identity(2, 3)
        B = identity(2, 5)
        with pytest.raises(ValueError):
            A @ B


class TestJordanBlock:
    def test_size_two_literal(self):
        assert jordan_block(2, 5).array.tolist() == [[1, 0], [1, 1]]

    def test_rows_map_basis_down_one_step(self):
        J = jordan_block(4, 3).array
        # row i is e_i + e_{i-1}, except the top row which is fixed
        assert J.tolist() == [
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            jordan_block(0, 3)
        with pytest.raises(ValueError):
            jordan_block(2, 4)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shifted_block_has_one_dimensional_kernel(self, n, p):
        X = (jordan_block(n, p).array - np.eye(n, dtype=np.int64)) % p
        assert n - len(rref(X, p)[1]) == 1
        assert not matrix_power(X, n, p).any()


class TestBlockDiagonal:
    def test_sizes_add(self):
        M = block_diagonal([jordan_block(2, 3), jordan_block(3, 3)])
        assert M.rows == 5
        assert M.array[:2, 2:].tolist() == [[0, 0, 0], [0, 0, 0]]

    def test_rejects_empty_and_mixed_moduli(self):
        with pytest.raises(ValueError):
            block_diagonal([])
        with pytest.raises(ValueError):
            block_diagonal([jordan_block(2, 3), jordan_block(2, 5)])


class TestRowReduction:
    def test_small_example(self):
        A = np.array([[1, 2, 0], [2, 4, 1]])
        R, pivots = rref(A, 5)
        assert R.tolist() == [[1, 2, 0], [0, 0, 1]]
        assert pivots == [0, 2]

    def test_rref_is_idempotent(self):
        rng = np.random.default_rng(11)
        A = rng.integers(0, 7, size=(6, 9))
        R, pivots = rref(A, 7)
        R2, pivots2 = rref(R, 7)
        assert np.array_equal(R, R2)
        assert pivots == pivots2

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("p", [2, 5])
    def test_rank_plus_nullity_is_matrix_size(self, seed, p):
        # the nullity is counted by brute force: the kernel has p^nullity vectors
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, p, size=(6, 6))
        _, pivots = rref(arr, p)
        vectors = np.array(np.meshgrid(*[np.arange(p)] * 6)).reshape(6, -1).T
        kernel = int((~((vectors @ arr) % p).any(axis=1)).sum())
        assert p ** (6 - len(pivots)) == kernel


class TestInverse:
    @pytest.mark.parametrize("seed", range(4))
    def test_inverse_of_unitriangular(self, seed):
        M = unitriangular(5, 7, seed)
        assert M @ inverse(M) == identity(5, 7)
        assert inverse(M) @ M == identity(5, 7)

    def test_singular_matrix_is_rejected(self):
        M = PrimeFieldMatrix(np.array([[1, 2], [2, 4]]), 5)
        with pytest.raises(ValueError):
            inverse(M)


class TestDualAction:
    def test_size_three_literal(self):
        D = dual_action(jordan_block(3, 3))
        assert D.array.tolist() == [[1, 2, 1], [0, 1, 2], [0, 0, 1]]

    def test_is_an_involution(self):
        M = unitriangular(4, 5, 3)
        assert dual_action(dual_action(M)) == M

    def test_respects_products(self):
        A = unitriangular(4, 3, 1)
        B = unitriangular(4, 3, 2)
        assert dual_action(A @ B) == dual_action(A) @ dual_action(B)


class TestKronecker:
    def test_matches_numpy_kron(self):
        A = PrimeFieldMatrix(np.array([[1, 2], [0, 1]]), 5)
        B = PrimeFieldMatrix(np.array([[1, 0, 3], [0, 1, 0], [0, 0, 1]]), 5)
        K = kronecker(A, B)
        assert np.array_equal(K.array, np.kron(A.array, B.array) % 5)
        assert K.rows == 6

    def test_respects_products(self):
        A1, A2 = unitriangular(3, 5, 4), unitriangular(3, 5, 5)
        B1, B2 = unitriangular(2, 5, 6), unitriangular(2, 5, 7)
        assert kronecker(A1 @ A2, B1 @ B2) == kronecker(A1, B1) @ kronecker(A2, B2)


class TestSquares:
    def test_exterior_square_of_size_two_block(self):
        assert exterior_square(jordan_block(2, 3)).array.tolist() == [[1]]

    def test_symmetric_square_of_size_two_block(self):
        S = symmetric_square(jordan_block(2, 3))
        assert S.array.tolist() == [[1, 0, 0], [1, 1, 0], [1, 2, 1]]

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_dimensions(self, n):
        M = unitriangular(n, 5, n)
        assert exterior_square(M).rows == n * (n - 1) // 2
        assert symmetric_square(M).rows == n * (n + 1) // 2

    def test_symmetric_square_needs_odd_characteristic(self):
        with pytest.raises(ValueError):
            symmetric_square(jordan_block(3, 2))

    @pytest.mark.parametrize("seed", range(4))
    def test_squares_respect_products(self, seed):
        A = unitriangular(4, 7, 10 + seed)
        B = unitriangular(4, 7, 20 + seed)
        assert exterior_square(A @ B) == exterior_square(A) @ exterior_square(B)
        assert symmetric_square(A @ B) == symmetric_square(A) @ symmetric_square(B)
