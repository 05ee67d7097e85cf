"""Ground-truth Jordan types: closed forms where they apply, ranks elsewhere.

A tensor pair J_m tensor J_n is answered by the first closed form in
`recursions` that covers it: Clebsch-Gordan below the characteristic, the
scaling rule when p divides both sizes, the free rule when the larger size
is a power of p, and the reflection fold when a power of p lies between the
larger size and m + n. Only the pairs none of these covers reach the
graded engine, which eliminates; every answer is checked for dimension.

Elsewhere multiplicities come from the ranks of powers of X = u - 1, and
every rank is counted by the same division-free `_echelon` at every prime,
p = 2 included. An explicit matrix goes through a rank chain: a row basis
of the row space of X^k is carried along, multiplied by X as a CSR product
and echelonized once per step. For J_m tensor J_n no operator is built: X
is homogeneous of degree 1 on a graded ring, so rank X^k is a sum of ranks
of binomial blocks at most min(m, n) wide, and all blocks of all powers go
through one tagged `_echelon` call. At odd p the squares of one block V_d
take alternate decreasing parts of V_d tensor V_d (Barry 2011, Gow-Laffey
2006; an exhaustive test is the warrant, see `_square_single`); only the
exterior square at p = 2 is still read off an explicit matrix. All
arithmetic is integer, in the narrowest dtype (int8 to int64) that holds
the elimination's bound at p; a prime too large for int64 is refused.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import PrimeFieldMatrix, exterior_square, jordan_block
from .partitions import JordanType, PrimeChar
from .recursions import clebsch_gordan, free_rule, gpx_scale, reflect_rule

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


def _working_dtype(p: int, max_col_terms: int):
    """Narrowest integer dtype that cannot overflow while ranks are counted.

    A rank chain's product step sums at most max_col_terms products of
    entries < p (rows built directly, with no product, need 2); the
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


def _echelon(
    work: np.ndarray, p: int, tags: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-echelon basis of the row space of work, with no division.

    work must already be reduced mod p; it is overwritten. tags, one
    non-negative integer per row (all 0 when omitted), splits the rows into
    independent problems: pivots are keyed on (tag, leading column), so a row
    is only ever combined with pivots of its own tag, and the basis rows of
    tag t span the row space of the input rows of tag t. Returns the basis
    rows and the tag of each.

    Vectorized rounds: every active row is bucketed by its pivot key, one
    row per new key is accepted as a pivot as it stands, and every active row
    r then becomes lead(pivot) * r + (p - lead(r)) * pivot for the pivot
    sharing its key. That clears r's lead without a modular inverse, since
    scaling by a unit keeps the row space. A row just accepted becomes p
    times itself and dies; every other surviving row's leading column
    strictly advances, so the loop terminates.

    Every entry then lies in [0, 2(p-1)^2], non-negative, so in int8 to
    int32 the reduction is an in-place floor division, multiply and subtract,
    which numpy runs faster there than np.mod; int64 keeps np.mod, which is
    the faster of the two at that width.
    """
    nrows, ncols = work.shape
    if tags is None:
        tags = np.zeros(nrows, dtype=np.intp)
    nkeys = (int(tags.max()) + 1 if nrows else 1) * ncols
    acc = np.zeros((min(nrows, nkeys), ncols), dtype=work.dtype)
    lead = np.zeros(acc.shape[0], dtype=work.dtype)
    acc_key = np.zeros(acc.shape[0], dtype=np.intp)
    pivot_at = np.full(nkeys, -1, dtype=np.intp)
    count = 0
    act = work
    base = tags * ncols
    wide = act.dtype == np.int64
    idx = np.arange(nrows)
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
            base = base[alive]
        keys = base + leads
        pidx = pivot_at[keys]
        if pidx.min() < 0:
            fresh = pidx < 0
            new, order = np.unique(keys[fresh], return_index=True)
            take = np.flatnonzero(fresh)[order]
            acc[count : count + len(new)] = act[take]
            lead[count : count + len(new)] = coef[take]
            acc_key[count : count + len(new)] = new
            pivot_at[new] = count + np.arange(len(new))
            count += len(new)
            pidx = pivot_at[keys]
        piv = acc[pidx]
        np.subtract(p, coef, out=coef)
        np.multiply(piv, coef[:, None], out=piv)
        np.multiply(act, lead[pidx][:, None], out=act)
        np.add(act, piv, out=act)
        if wide:
            np.mod(act, p, out=act)
        else:
            quot = act // p
            quot *= p
            act -= quot
    return acc[:count], acc_key[:count] // ncols


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
    blocks = {}
    for m in range(1, len(ranks)):
        before = ranks[m - 1]
        at = ranks[m]
        after = ranks[m + 1] if m + 1 < len(ranks) else 0
        mult = before + after - 2 * at
        if mult:
            blocks[m] = mult
    return JordanType(blocks)


def _add_copies(acc: dict[int, int], t: JordanType, copies: int) -> None:
    """Add copies of every block of t into acc, a size -> multiplicity dict."""
    for size, mult in t:
        acc[size] = acc.get(size, 0) + mult * copies


def _checked(t: JordanType, dim: int) -> JordanType:
    """t itself, after an explicit dimension check that python -O keeps."""
    if t.dim != dim:
        raise AssertionError(f"Jordan type {t} has dimension {t.dim}, expected {dim}")
    return t


def jordan_type_of(M: PrimeFieldMatrix) -> JordanType:
    """Jordan type of a unipotent matrix from kernel dimensions of powers.

    r_m = 2 dim Ker X^m - dim Ker X^{m+1} - dim Ker X^{m-1} with X = M - 1;
    non-unipotent input is detected and rejected. scipy is imported here,
    not with the package: only the exterior square at p = 2 and the tests
    take this path.
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

    In order: Clebsch-Gordan when m + n - 1 <= p; the scaling rule when p
    divides m and n, on (m/p, n/p); the free rule when n is a power of p; the
    reflection fold when a power q of p has n < q < m + n, on (q - n, q - m).
    Pairs none of them covers go to the graded engine. The recursive cases
    go through this memo, and every answer is checked for dimension.
    """
    _working_dtype(p, 2)  # refuses a too-large p, whichever path answers
    alpha, q = 0, 1
    while q < n:
        alpha, q = alpha + 1, q * p
    if m + n - 1 <= p:
        t = clebsch_gordan(m, n)
    elif m % p == 0 and n % p == 0:
        t = gpx_scale(_tensor_block_type(m // p, n // p, p), 1, p)
    elif q == n:
        t = free_rule(m, alpha, p)
    else:
        # the folded pair is smaller than (m, n), so this cap never binds
        t = reflect_rule(m, n, p, max_entries=(m * n) ** 2)
        if t is None:
            t = _graded_tensor_type(m, n, p)
    return _checked(t, m * n)


def _graded_tensor_type(m: int, n: int, p: int) -> JordanType:
    """J_m tensor J_n from the ranks of the graded pieces of X^k; m <= n.

    On V_m tensor V_n = k[x, y]/(x^m, y^n), X = u tensor u - 1 is
    multiplication by x + y + xy = x + v with v = y(1 + x). As 1 + x is a
    unit, the ring is also k[x, v]/(x^m, v^n), graded by total degree, and
    X^k = (x + v)^k maps R_d = span{x^i v^(d-i)} into R_(d+k) by
    x^i v^j -> sum_a C(k, a) x^(i+a) v^(j+k-a), truncated. So rank X^k is the
    sum over d of the ranks of these binomial blocks. A block's columns are
    the exponents of x in R_(d+k), so it is at most m wide; the rows of
    every block of every power go through one `_echelon` call, tagged by
    (k, d), and no m*n-wide row is ever formed.
    """
    dtype = _working_dtype(p, 2)  # refuses a too-large p before any arithmetic
    top = m + n - 2  # highest degree, so X^(top+1) = 0
    i, j = np.divmod(np.arange(m * n), n)
    deg = i + j
    order = np.argsort(deg, kind="stable")
    i, deg = i[order], deg[order]
    # X^k can be nonzero only on R_d with d <= top - k: a prefix in degree order
    per_k = np.searchsorted(deg, top - np.arange(1, top + 1), side="right")
    k = np.repeat(np.arange(1, top + 1), per_k)
    src = np.arange(k.size) - np.repeat(np.cumsum(per_k) - per_k, per_k)
    i, deg = i[src], deg[src]
    # the exponent of v in the image stays below n while that of x is >= low
    low = deg + k - (n - 1)

    binom = np.zeros((top + 1, m), dtype=np.int64)
    binom[0, 0] = 1
    for r in range(1, top + 1):
        binom[r] = binom[r - 1]
        binom[r, 1:] += binom[r - 1, :-1]
        binom[r] %= p
    binom = binom.astype(dtype)

    work = np.zeros((k.size, m), dtype=dtype)
    rows = np.arange(k.size)
    for a in range(m):
        col = i + a
        ok = (col < m) & (col >= low)
        work[rows[ok], col[ok]] = binom[k[ok], a]

    blocks, tags = np.unique(k * (top + 1) + deg, return_inverse=True)
    _, pivot_tags = _echelon(work, p, tags)
    ranks = np.bincount(blocks[pivot_tags] // (top + 1), minlength=top + 2)
    ranks[0] = m * n
    return _blocks_from_ranks(ranks.tolist())


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
def _square_single(d: int, p: int, alternating: bool) -> JordanType:
    """Exterior (alternating) or symmetric square of one Jordan block V_d.

    For odd p, sort the d parts of V_d tensor V_d as l_1 >= ... >= l_d: S^2 V_d
    has l_1, l_3, ... and the exterior square l_2, l_4, ... (Barry, J. Group
    Theory 14 (2011); compare Gow-Laffey, J. Group Theory 9 (2006)); an
    exhaustive test against the explicit squares is the warrant. At p = 2, which
    sym2_type refuses, the rule fails for every 2 <= d <= 24 (the exterior square
    of V_2 is V_1, not V_2), so the exterior square is read off its matrix.
    """
    if p == 2 and d > 1:
        return jordan_type_of(exterior_square(jordan_block(d, p)))
    parts = sorted((s for s, m in _tensor_block_type(d, d, p) for _ in range(m)), reverse=True)
    return JordanType((s, 1) for s in parts[int(alternating) :: 2])


def tensor_dual_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on V tensor V*, summed over pairs of blocks.

    Valid because every indecomposable summand is self-dual, so V* has the
    same block type as V. Each unordered pair of distinct sizes stands for
    both orders, so its copies count twice.
    """
    if not t:
        raise ValueError("empty Jordan type")
    acc: dict[int, int] = {}
    blocks = list(t)
    for i, (d1, m1) in enumerate(blocks):
        for d2, m2 in blocks[i:]:
            part = tensor_block_type(d1, d2, p, max_entries=max_entries)
            _add_copies(acc, part, m1 * m2 * (1 if d1 == d2 else 2))
    return _checked(JordanType(acc), t.dim**2)


def _square_type(
    t: JordanType, p: int, alternating: bool, max_entries: int
) -> JordanType:
    """Exterior (alternating) or symmetric square of V: each block adds its
    own square, each unordered pair of blocks their tensor product."""
    if not t:
        raise ValueError("empty Jordan type")
    p = int(PrimeChar(int(p)))
    side = -1 if alternating else 1
    acc: dict[int, int] = {}
    blocks = list(t)
    for i, (d1, m1) in enumerate(blocks):
        _check_cap(d1 * (d1 + side) // 2, max_entries)
        _add_copies(acc, _square_single(d1, p, alternating), m1)
        for d2, m2 in blocks[i:]:
            pairs = m1 * (m1 - 1) // 2 if d2 == d1 else m1 * m2
            if pairs:
                part = tensor_block_type(d1, d2, p, max_entries=max_entries)
                _add_copies(acc, part, pairs)
    return _checked(JordanType(acc), t.dim * (t.dim + side) // 2)


def ext2_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on the exterior square of V."""
    return _square_type(t, p, True, max_entries)


def sym2_type(
    t: JordanType, p: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Jordan type of u on the symmetric square of V; needs p > 2."""
    if p == 2:
        raise ValueError("sym2_type requires p > 2")
    return _square_type(t, p, False, max_entries)
