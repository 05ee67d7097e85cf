"""Exact dense linear algebra over GF(p): the explicit matrices.

Entries are numpy int64 reduced into [0, p) after every operation; no floating
point anywhere. `_working_dtype` owns the package's one overflow bound: it
picks the narrowest dtype for a sum of products mod p and refuses a prime
too large for int64. Matrices act on coordinate row vectors from the right,
so row i of a matrix holds the image of the i-th basis vector.
Jordan blocks, direct sums, the dual action, Kronecker products and the two
squares build the explicit modules; `rref` inverts for the dual action and
is the tests' independent check on the oracle's elimination.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .partitions import characteristic


def _working_dtype(p: int, terms: int):
    """Narrowest dtype, int8 to int64, holding max(terms, 2) * (p-1)^2 + p.

    That bounds every sum over GF(p) here: a product sums terms products of
    entries below p, the squares and an elimination step two, and partial
    sums stay non-negative. A prime whose bound int64 cannot hold is refused.
    """
    terms = max(terms, 2)
    for dt in (np.int8, np.int16, np.int32, np.int64):
        if terms * (p - 1) * (p - 1) + p <= np.iinfo(dt).max:
            return dt
    raise ValueError(f"p = {p} is too large: a sum of {terms} products mod p would overflow int64")


class PrimeFieldMatrix:
    """Dense matrix over GF(p) with exact integer arithmetic. int64 must hold
    the sum of two products the squares and rref form; `@` checks its own."""

    __slots__ = ("array", "p")

    def __init__(self, entries, p: int):
        p = characteristic(p)
        _working_dtype(p, 2)
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        arr = arr % p
        arr.flags.writeable = False
        self.array = arr
        self.p = p

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _require_same_field(self, other: "PrimeFieldMatrix") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __matmul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        self._require_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.array.shape} @ {other.array.shape}")
        _working_dtype(self.p, self.cols)
        return PrimeFieldMatrix(self.array @ other.array, self.p)

    def transpose(self) -> "PrimeFieldMatrix":
        return PrimeFieldMatrix(self.array.T, self.p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        return self.p == other.p and self.array.shape == other.array.shape and bool(
            np.array_equal(self.array, other.array)
        )

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix({self.array.tolist()!r}, p={self.p})"


def jordan_block(n: int, p: int) -> PrimeFieldMatrix:
    """Unipotent n x n block: 1s on the diagonal and the single subdiagonal.

    Row i encodes e_i |-> e_i + e_{i-1} (indices below 1 vanish).
    """
    if n < 1:
        raise ValueError(f"block size must be positive, got {n}")
    arr = np.eye(n, dtype=np.int64)
    idx = np.arange(1, n)
    arr[idx, idx - 1] = 1
    return PrimeFieldMatrix(arr, p)


def block_diagonal(mats: Sequence[PrimeFieldMatrix]) -> PrimeFieldMatrix:
    """Direct sum of square matrices over a common field."""
    if not mats:
        raise ValueError("need at least one block")
    p = mats[0].p
    for m in mats:
        if m.p != p:
            raise ValueError("mixed moduli in block_diagonal")
        if not m.is_square():
            raise ValueError("block_diagonal needs square blocks")
    n = sum(m.rows for m in mats)
    out = np.zeros((n, n), dtype=np.int64)
    off = 0
    for m in mats:
        out[off : off + m.rows, off : off + m.rows] = m.array
        off += m.rows
    return PrimeFieldMatrix(out, p)


def rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (R, pivot column list).

    Pivots are chosen at the lowest-index coordinate available, so the output
    is deterministic.
    """
    R = np.asarray(arr, dtype=np.int64) % p
    rows, cols = R.shape
    piv: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = np.nonzero(R[r:, c])[0]
        if hit.size == 0:
            continue
        i = r + int(hit[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        other = np.nonzero(R[:, c])[0]
        other = other[other != r]
        if other.size:
            R[other] = (R[other] - np.outer(R[other, c], R[r])) % p
        piv.append(c)
        r += 1
    return R[: len(piv)], piv


def inverse(M: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Inverse over GF(p) by Gauss-Jordan on [M | I]."""
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    aug = np.hstack([M.array, np.eye(n, dtype=np.int64)])
    R, piv = rref(aug, M.p)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return PrimeFieldMatrix(R[:, n:], M.p)


def dual_action(M: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Contragredient action on the dual basis: (M^-1)^T."""
    return inverse(M).transpose()


def kronecker(A: PrimeFieldMatrix, B: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Tensor product of linear maps; basis ordered first-factor-major."""
    A._require_same_field(B)
    return PrimeFieldMatrix(np.kron(A.array, B.array), A.p)


def exterior_square(M: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Induced map on the basis {e_i ^ e_j : i < j}, ordered lexicographically."""
    if not M.is_square() or M.rows < 2:
        raise ValueError("exterior_square needs a square matrix of size >= 2")
    A, p = M.array, M.p
    I, J = np.triu_indices(M.rows, 1)
    out = A[np.ix_(I, I)] * A[np.ix_(J, J)] - A[np.ix_(I, J)] * A[np.ix_(J, I)]
    return PrimeFieldMatrix(out, p)


def symmetric_square(M: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Induced map on the basis {e_i e_j : i <= j}, ordered lexicographically.

    Requires p > 2: in characteristic 2 the symmetric square is not a direct
    summand of the tensor square and this construction is out of scope.
    """
    if M.p == 2:
        raise ValueError("symmetric_square requires p > 2")
    if not M.is_square():
        raise ValueError("symmetric_square needs a square matrix")
    A, p = M.array, M.p
    I, J = np.triu_indices(M.rows)
    out = (A[np.ix_(I, I)] * A[np.ix_(J, J)] + A[np.ix_(I, J)] * A[np.ix_(J, I)]) % p
    diag = np.nonzero(I == J)[0]
    out[:, diag] = out[:, diag] * pow(2, -1, p) % p
    return PrimeFieldMatrix(out, p)
