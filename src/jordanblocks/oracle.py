"""Ground-truth Jordan types: closed forms answer, ranks referee.

A tensor pair J_m tensor J_n is answered by the first closed form in
`recursions` that covers it: Clebsch-Gordan below the characteristic, the
free rule when the larger size is a power of p, the reflection fold when a
power of p lies between the larger size and m + n, and Renaud's two-level
rule for every other pair; the memo hands the last two their smaller
pairs. No pair is eliminated, and every answer is checked for dimension.
At odd p the squares of one block V_d take alternate decreasing parts of
V_d tensor V_d (Barry 2011, Gow-Laffey 2006); at p = 2 the exterior square
folds across the next power of 2 (see `_square_single`). No answer here
builds a matrix.

Only an explicit matrix (`jordan_type_of`) is eliminated, by the
division-free `_echelon` at every prime, p = 2 included: `_rank_chain`
carries a row basis of the row space of X^k, X = u - 1, along, multiplies
it by X and echelonizes it once per step. All arithmetic is integer, in
the narrowest dtype (int8 to int64) that `linalg._working_dtype` picks for
the elimination's bound at p; a prime too large for int64 is refused for
an explicit matrix only. The closed forms, and `--verify`'s graded ranks
in `construction`, need no such bound: they answer at every prime
`characteristic` accepts.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .linalg import PrimeFieldMatrix, _working_dtype
from .partitions import JordanType, characteristic
from .recursions import clebsch_gordan, free_rule, reflect_rule, two_level_rule

DEFAULT_MAX_ENTRIES = 40_000


class OracleCapError(ValueError):
    """A requested matrix would exceed the configured entry cap."""


def _check_cap(side: int, max_entries: int) -> None:
    if side * side > max_entries:
        raise OracleCapError(
            f"{side}x{side} matrix ({side * side} entries) exceeds the cap of "
            f"{max_entries}; the cap is the max_entries argument of the Python "
            f"API (e.g. jordanblocks.build_report): pass a larger one to allow it"
        )


def _echelon(
    work: np.ndarray, p: int, tags: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-echelon basis of the row space of work, with no division.

    work must already be reduced mod p; it is overwritten.

    Vectorized rounds: every active row is bucketed by its (tag, leading
    column) key, any one row per new key (whichever a scatter of row indices
    leaves in place) is accepted as a pivot as it stands, and every active
    row r then becomes lead(pivot) * r + (p - lead(r)) * pivot for the
    pivot sharing its key. That clears r's lead without a modular inverse,
    since scaling by a unit keeps the row space. A row just accepted becomes
    p times itself and dies; every other surviving row's leading column
    strictly advances, so the loop terminates.

    Every entry then lies in [0, 2(p-1)^2], non-negative, so the reduction
    is an in-place floor division, multiply and subtract at every width,
    faster than np.mod in int8 to int32 and within about 10% of it in int64.

    tags, one non-negative integer per row (None: every row has tag 0),
    solves independent problems in one call: a row only ever meets pivots
    of its own tag. It returns the basis and each basis row's key, tag *
    ncols + leading column (tag = key // ncols); the rows of tag t span the
    row space of the input rows of tag t. One tagged call is an order of
    magnitude faster than one call per tag for many small problems.
    """
    nrows, ncols = work.shape
    if tags is None:
        tags = np.zeros(nrows, dtype=np.intp)
    nkeys = (int(tags.max()) + 1 if nrows else 1) * ncols
    acc = np.zeros((min(nrows, nkeys), ncols), dtype=work.dtype)
    lead = np.zeros(acc.shape[0], dtype=work.dtype)
    row_keys = np.zeros(acc.shape[0], dtype=np.intp)
    pivot_at = np.full(nkeys, -1, dtype=np.intp)
    count = 0
    act = work
    base = tags * ncols
    idx = np.arange(nrows)
    while act.shape[0]:
        leads = (act != 0).argmax(axis=1)
        coef = act[idx[: act.shape[0]], leads]
        alive = coef.nonzero()[0]
        if alive.size == 0:
            break
        if alive.size < act.shape[0]:
            act = act.take(alive, axis=0)
            leads = leads[alive]
            coef = coef[alive]
            base = base[alive]
        keys = base + leads
        pidx = pivot_at[keys]
        fresh = (pidx < 0).nonzero()[0]
        if fresh.size:
            new = keys[fresh]
            pivot_at[new] = fresh  # any one row of each new key wins
            won = fresh[pivot_at[new] == fresh]
            acc[count : count + won.size] = act.take(won, axis=0)
            lead[count : count + won.size] = coef[won]
            row_keys[count : count + won.size] = keys[won]
            pivot_at[keys[won]] = np.arange(count, count + won.size)
            count += won.size
            pidx = pivot_at[keys]
        piv = acc.take(pidx, axis=0)
        np.subtract(p, coef, out=coef)
        np.multiply(piv, coef[:, None], out=piv)
        np.multiply(act, lead[pidx][:, None], out=act)
        np.add(act, piv, out=act)
        quot = act // p
        quot *= p
        act -= quot
    return acc[:count], row_keys[:count]


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
        basis, _ = _echelon(times_x(basis), p)
        r = basis.shape[0]
        if r == ranks[-1] and r > 0:
            raise ValueError("matrix is not unipotent: rank of powers stalls above zero")
        ranks.append(r)
        if r == 0:
            return ranks


def _blocks_from_ranks(ranks: list[int]) -> JordanType:
    r = [*ranks, 0]
    pairs = ((m, r[m - 1] - 2 * r[m] + r[m + 1]) for m in range(1, len(ranks)))
    return JordanType((m, mult) for m, mult in pairs if mult)


def _checked(t: JordanType, dim: int) -> JordanType:
    """t itself, after an explicit dimension check that python -O keeps."""
    if t.dim != dim:
        raise AssertionError(f"Jordan type {t} has dimension {t.dim}, expected {dim}")
    return t


def jordan_type_of(M: PrimeFieldMatrix) -> JordanType:
    """Jordan type of a unipotent matrix from kernel dimensions of powers.

    r_m = 2 dim Ker X^m - dim Ker X^{m+1} - dim Ker X^{m-1} with X = M - 1;
    non-unipotent input is detected and rejected. scipy, from the `test`
    extra, is imported here, not with the package: without it only this fails.
    """
    import scipy.sparse as sparse

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
    """J_m tensor J_n over GF(p), m <= n, from the first closed form that applies.

    In order: Clebsch-Gordan when m + n - 1 <= p; the free rule when n is a
    power of p; the reflection fold when q, the least power of p that is
    >= n, is below m + n, on (q - n, q - m); otherwise the two-level rule,
    whose domain m + n <= q is exactly what is left. No pair is eliminated.
    The smaller pairs go through this memo, never through the capped public
    wrapper, and every answer is checked for dimension.
    """
    alpha, q = 0, 1
    while q < n:
        alpha, q = alpha + 1, q * p
    if m + n - 1 <= p:
        t = clebsch_gordan(m, n)
    elif q == n:
        t = free_rule(m, alpha, p)
    elif q < m + n:
        t = reflect_rule(m, n, p, _tensor_block_type(q - n, q - m, p))
    else:
        t = two_level_rule(m, n, p, lambda a, b: _tensor_block_type(min(a, b), max(a, b), p))
    return _checked(t, m * n)


def tensor_block_type(
    m: int, n: int, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of J_m tensor J_n over GF(p), memoized by (min, max, p).

    m and n must be integers: a float never reaches the memo, where 2.0
    would find the key of 2."""
    try:
        lo, hi = sorted((operator.index(m), operator.index(n)))
    except TypeError:
        raise TypeError(f"sizes m and n must be integers, got {m!r} and {n!r}") from None
    if lo < 1:
        raise ValueError("tensor factors must have positive dimension")
    p = characteristic(p)
    _check_cap(lo * hi, max_entries)
    return _tensor_block_type(lo, hi, p)


@lru_cache(maxsize=None)
def _square_single(d: int, p: int, alternating: bool) -> JordanType:
    """Exterior (alternating) or symmetric square of one Jordan block V_d.

    For odd p, sort the d parts of V_d tensor V_d as l_1 >= ... >= l_d: S^2 V_d
    has l_1, l_3, ... and the exterior square l_2, l_4, ... (Barry, J. Group
    Theory 14 (2011); compare Gow-Laffey, J. Group Theory 9 (2006)). That split
    fails at p = 2, which sym2_type refuses (the exterior square of V_2 is V_1,
    not V_2). There the exterior square folds across the next power of 2: for
    q = 2^k with q < d <= 2q it is (d - q - 1) V_2q + V_(3q-d) + the exterior
    square of V_(2q-d), and that of V_0 or V_1 is 0 (compare the same papers).
    Exhaustive tests against the explicit squares are the warrant for both.
    """
    if p == 2:
        if d < 2:
            return JordanType()
        q = 1
        while 2 * q < d:
            q *= 2
        blocks = {3 * q - d: 1}
        if d > q + 1:
            blocks[2 * q] = d - q - 1
        return JordanType(blocks) + _square_single(2 * q - d, p, alternating)
    parts = sorted((s for s, m in _tensor_block_type(d, d, p) for _ in range(m)), reverse=True)
    return JordanType((s, 1) for s in parts[int(alternating) :: 2])


def tensor_dual_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on V tensor V*, summed over pairs of blocks.

    Valid because every indecomposable summand is self-dual, so V* has the
    same block type as V. Each unordered pair of distinct sizes stands for
    both orders, so its copies count twice. p and the cap are checked once,
    the cap on the widest pair (the top block with itself), before any pair
    is read from the memo `_tensor_block_type`.
    """
    p = characteristic(p)
    _check_cap(t.max_size**2, max_entries)
    blocks = list(t)
    pieces = [
        (size, mult * m1 * m2 * (1 if d1 == d2 else 2))
        for i, (d1, m1) in enumerate(blocks)
        for d2, m2 in blocks[i:]
        for size, mult in _tensor_block_type(d1, d2, p)
    ]
    return _checked(JordanType(pieces), t.dim**2)


def _square_type(
    t: JordanType, p: int, alternating: bool, max_entries: int
) -> JordanType:
    """Exterior (alternating) or symmetric square of V: each block adds its
    own square (`_square_single`), each unordered pair of blocks their tensor
    product (`_tensor_block_type`). p and the cap are checked once, the cap on
    the widest piece, before any piece is read."""
    p = characteristic(p)
    side = -1 if alternating else 1
    top, sizes = t.max_size, t.sizes
    pair = top if t.multiplicity(top) > 1 else sizes[-2] if len(sizes) > 1 else 0
    _check_cap(max(top * (top + side) // 2, top * pair), max_entries)
    pieces: list[tuple[int, int]] = []
    blocks = list(t)
    for i, (d1, m1) in enumerate(blocks):
        pieces += ((size, mult * m1) for size, mult in _square_single(d1, p, alternating))
        for d2, m2 in blocks[i:]:
            copies = m1 * (m1 - 1) // 2 if d2 == d1 else m1 * m2
            if copies:
                pieces += ((size, mult * copies) for size, mult in _tensor_block_type(d1, d2, p))
    return _checked(JordanType(pieces), t.dim * (t.dim + side) // 2)


def ext2_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on the exterior square of V."""
    return _square_type(t, p, True, max_entries)


def sym2_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on the symmetric square of V; needs p > 2."""
    if characteristic(p) == 2:
        raise ValueError("the symmetric square requires p > 2")
    return _square_type(t, p, False, max_entries)
