"""Ground-truth Jordan types from matrix ranks.

The authoritative decomposition path: multiplicities come from kernel
dimensions of powers of X = u - 1. There is one rank chain: a row basis of
the row space of X^k is carried along, multiplied by X once per step and
echelonized by the same `_echelon` at every prime, p = 2 included. Callers
differ only in how they multiply by X. For J_m tensor J_n it is three array
shifts on k[x, y]/(x^m, y^n), with no matrix built; an explicit matrix is
multiplied as a CSR product. All arithmetic is integer and division-free,
in the narrowest dtype (int8 to int64) that holds the chain's bound at p;
a prime too large for int64 is refused.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sparse

from .linalg import PrimeFieldMatrix, exterior_square, jordan_block, symmetric_square
from .partitions import JordanType, PrimeChar

DEFAULT_MAX_ENTRIES = 40_000


class OracleCapError(ValueError):
    """A requested matrix would exceed the configured entry cap."""


def _check_cap(side: int, max_entries: int) -> None:
    if side * side > max_entries:
        raise OracleCapError(
            f"{side}x{side} matrix ({side * side} entries) exceeds the cap of "
            f"{max_entries}; pass a larger max_entries to allow it"
        )


def _working_dtype(p: int, max_col_terms: int):
    """Narrowest integer dtype that cannot overflow during the chain.

    The product step sums at most max_col_terms products of entries < p; the
    elimination step adds two such products. All partial sums are
    non-negative and bounded by the final value, so a dtype that holds
    max(max_col_terms, 2) * (p-1)^2 + p holds every intermediate. A prime too
    large for int64 to hold that bound is refused.
    """
    bound = max(max_col_terms, 2) * (p - 1) * (p - 1) + p
    for dt in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise ValueError(f"p = {p} is too large: elimination mod p would overflow int64")


def _echelon(work: np.ndarray, p: int) -> np.ndarray:
    """Row-echelon basis of the row space of work, with no division.

    work must already be reduced mod p; it is consumed as scratch. Vectorized
    rounds: every active row is bucketed by leading column, one row per new
    column is accepted as a pivot as it stands, and every active row r then
    becomes lead(pivot) * r + (p - lead(r)) * pivot for the pivot sharing its
    lead. That clears r's lead without a modular inverse, since scaling by a
    unit keeps the row space. A row just accepted becomes p times itself and
    dies; every other surviving row's leading column strictly advances, so
    the loop terminates.

    Every entry then lies in [0, 2(p-1)^2], so for small p the reduction is a
    table gather instead of an integer-division pass; division is what would
    otherwise dominate the loop. Larger p falls back to a plain mod.
    """
    ncols = work.shape[1]
    acc = np.zeros((min(work.shape[0], ncols), ncols), dtype=work.dtype)
    lead = np.zeros(acc.shape[0], dtype=work.dtype)
    pivot_at = np.full(ncols, -1, dtype=np.intp)
    count = 0
    act = work
    top = 2 * (p - 1) * (p - 1) + 1
    canon = np.arange(top, dtype=act.dtype) % p if top <= 8192 else None
    idx = np.arange(work.shape[0])
    while act.shape[0]:
        leads = np.argmax(act != 0, axis=1)
        coef = act[idx[: act.shape[0]], leads]
        n_alive = int(np.count_nonzero(coef))
        if n_alive == 0:
            break
        if n_alive < act.shape[0]:
            alive = coef != 0
            act = act[alive]
            leads = leads[alive]
            coef = coef[alive]
        pidx = pivot_at[leads]
        if pidx.min() < 0:
            fresh = pidx < 0
            cols, order = np.unique(leads[fresh], return_index=True)
            take = np.flatnonzero(fresh)[order]
            acc[count : count + len(cols)] = act[take]
            lead[count : count + len(cols)] = coef[take]
            pivot_at[cols] = count + np.arange(len(cols))
            count += len(cols)
            pidx = pivot_at[leads]
        piv = acc[pidx]
        np.subtract(p, coef, out=coef)
        np.multiply(piv, coef[:, None], out=piv)
        np.multiply(act, lead[pidx][:, None], out=act)
        np.add(act, piv, out=act)
        if canon is not None:
            act = np.take(canon, act)
        else:
            np.mod(act, p, out=act)
    return acc[:count]


def _rank_chain(times_x, n: int, p: int, dtype) -> list[int]:
    """[rank X^0, rank X^1, ...] down to rank 0, for nilpotent X on GF(p)^n.

    times_x maps an (r, n) row basis, reduced mod p and of the given dtype, to
    the exact product of those rows with X, reduced mod p. The chain starts
    from the identity basis and echelons each product. A rank that stalls
    above zero means X was not nilpotent.
    """
    ranks = [n]
    basis = np.eye(n, dtype=dtype)
    while True:
        basis = _echelon(times_x(basis), p)
        r = basis.shape[0]
        if r == ranks[-1] and r > 0:
            raise ValueError("matrix is not unipotent: rank of powers stalls above zero")
        ranks.append(r)
        if r == 0:
            return ranks


def _blocks_from_ranks(ranks: list[int]) -> JordanType:
    blocks = {}
    for m in range(1, len(ranks)):
        before = ranks[m - 1]
        at = ranks[m]
        after = ranks[m + 1] if m + 1 < len(ranks) else 0
        mult = before + after - 2 * at
        if mult:
            blocks[m] = mult
    return JordanType(blocks)


def _checked(t: JordanType, dim: int) -> JordanType:
    """t itself, after an explicit dimension check that python -O keeps."""
    if t.dim != dim:
        raise AssertionError(f"Jordan type {t} has dimension {t.dim}, expected {dim}")
    return t


def jordan_type_of(M: PrimeFieldMatrix) -> JordanType:
    """Jordan type of a unipotent matrix from kernel dimensions of powers.

    r_m = 2 dim Ker X^m - dim Ker X^{m+1} - dim Ker X^{m-1} with X = M - 1;
    non-unipotent input is detected and rejected.
    """
    if not M.is_square():
        raise ValueError("jordan_type_of needs a square matrix")
    n = M.rows
    if n == 0:
        return JordanType()
    p = M.p
    X = sparse.csr_matrix((M.array - np.eye(n, dtype=np.int64)) % p)
    dtype = _working_dtype(p, int(X.getnnz(axis=0).max()))
    X = X.astype(dtype)

    def times_x(rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows @ X) % p

    return _checked(_blocks_from_ranks(_rank_chain(times_x, n, p, dtype)), n)


@lru_cache(maxsize=None)
def _tensor_block_type(m: int, n: int, p: int) -> JordanType:
    """J_m tensor J_n, acting on V_m tensor V_n = k[x, y]/(x^m, y^n).

    u tensor u - 1 is multiplication by x + y + xy, so a row of coefficients,
    reshaped to (m, n), is multiplied by X with three shifted slice additions;
    no operator matrix is built. The shift direction matches the row-vector
    convention of jordan_block: (v J)_k = v_k + v_{k+1}.
    """

    def times_x(rows: np.ndarray) -> np.ndarray:
        a = rows.reshape(-1, m, n)
        out = np.zeros_like(a)
        out[:, :-1, :] = a[:, 1:, :]
        out[:, :, :-1] += a[:, :, 1:]
        out[:, :-1, :-1] += a[:, 1:, 1:]
        np.mod(out, p, out=out)
        return out.reshape(-1, m * n)

    side = m * n
    # each product entry sums at most three shifted entries
    ranks = _rank_chain(times_x, side, p, _working_dtype(p, 3))
    return _checked(_blocks_from_ranks(ranks), side)


def tensor_block_type(
    m: int, n: int, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of J_m tensor J_n over GF(p), memoized by (min, max, p)."""
    if m < 1 or n < 1:
        raise ValueError("tensor factors must have positive dimension")
    PrimeChar(int(p))
    lo, hi = sorted((m, n))
    _check_cap(lo * hi, max_entries)
    return _tensor_block_type(lo, hi, int(p))


@lru_cache(maxsize=None)
def _ext2_single(d: int, p: int) -> JordanType:
    if d == 1:
        return JordanType()
    return jordan_type_of(exterior_square(jordan_block(d, p)))


@lru_cache(maxsize=None)
def _sym2_single(d: int, p: int) -> JordanType:
    return jordan_type_of(symmetric_square(jordan_block(d, p)))


def tensor_dual_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on V tensor V*, summed over ordered pairs of blocks.

    Valid because every indecomposable summand is self-dual, so V* has the
    same block type as V.
    """
    if not t:
        raise ValueError("empty Jordan type")
    out = JordanType()
    for d1, m1 in t:
        for d2, m2 in t:
            part = tensor_block_type(d1, d2, p, max_entries=max_entries)
            out = out + JordanType({s: m * m1 * m2 for s, m in part})
    return _checked(out, t.dim**2)


def _square_type(
    t: JordanType, p: int, single, diag_side: int, max_entries: int
) -> JordanType:
    out = JordanType()
    for i, (d1, m1) in enumerate(t):
        _check_cap(d1 * (d1 + diag_side) // 2, max_entries)
        part = single(d1, p)
        if part and m1:
            out = out + JordanType({s: m * m1 for s, m in part})
        cross_self = m1 * (m1 - 1) // 2
        if cross_self:
            part = tensor_block_type(d1, d1, p, max_entries=max_entries)
            out = out + JordanType({s: m * cross_self for s, m in part})
        for d2, m2 in list(t)[i + 1 :]:
            part = tensor_block_type(d1, d2, p, max_entries=max_entries)
            out = out + JordanType({s: m * m1 * m2 for s, m in part})
    return out


def ext2_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on the exterior square of V."""
    if not t:
        raise ValueError("empty Jordan type")
    PrimeChar(int(p))
    out = _square_type(t, int(p), _ext2_single, -1, max_entries)
    return _checked(out, t.dim * (t.dim - 1) // 2)


def sym2_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on the symmetric square of V; needs p > 2."""
    if not t:
        raise ValueError("empty Jordan type")
    if p == 2:
        raise ValueError("sym2_type requires p > 2")
    PrimeChar(int(p))
    out = _square_type(t, int(p), _sym2_single, 1, max_entries)
    return _checked(out, t.dim * (t.dim + 1) // 2)
