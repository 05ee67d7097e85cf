"""Shared helpers for the test suite.

Provides a seeded random partition generator, mod-p matrix powers, a dense
matrix for the shifted tensor action, the graded elimination engine in
either factor order (the referee of every closed form; the oracle itself
eliminates no pair) with its tagged elimination, the power of p that the
reflection fold folds across, the ungraded rank chain for
J_m (x) J_n that the graded engine is tested against, and the paper's proof
model: closed forms for powers of X = u - 1 on dual and tensor vectors, the
delta_beta vectors, and the check that X walks them down the ladder.

Positions inside a block are 1-based; an index outside 1..n denotes the
zero vector, so the closed forms return an empty mapping for it.
"""

import math
import random

import numpy as np
import scipy.sparse as sparse

from jordanblocks import JordanType, oracle
from jordanblocks.linalg import block_diagonal, dual_action, jordan_block, kronecker
from jordanblocks.partitions import alpha_of


def random_type(rng: random.Random, max_dim: int, *, divisible_by: int = 1) -> JordanType:
    """Draw a random Jordan type of total dimension at most max_dim.

    Every block size is a multiple of divisible_by.  The draw is
    deterministic for a given rng state.
    """
    step = divisible_by
    if max_dim < step:
        raise ValueError(f"max_dim {max_dim} leaves no room for a block of size {step}")
    blocks: dict[int, int] = {}
    remaining = max_dim
    while remaining >= step:
        size = step * rng.randint(1, remaining // step)
        blocks[size] = blocks.get(size, 0) + 1
        remaining -= size
        if rng.random() < 0.4:
            break
    return JordanType(blocks)


def matrix_power(X: np.ndarray, k: int, p: int) -> np.ndarray:
    out = np.eye(X.shape[0], dtype=np.int64)
    for _ in range(k):
        out = (out @ X) % p
    return out


def as_pairs(row: np.ndarray, s: int) -> dict[tuple[int, int], int]:
    """A flat row of V_r (x) V_s* as {(i, j): coefficient}, 1-based, zeros dropped."""
    return {(f // s + 1, f % s + 1): int(c) for f, c in enumerate(row) if c}


def tensor_x_matrix(t: JordanType, p: int) -> np.ndarray:
    """Dense nilpotent action on V (x) V* for the unipotent of type t.

    Row a*n + b holds the image of e_a (x) e_b*, 0-based global positions,
    the first-factor-major order of a Kronecker product.
    """
    u = block_diagonal([jordan_block(size, p) for size, mult in t for _ in range(mult)])
    full = kronecker(u, dual_action(u)).array
    n2 = full.shape[0]
    return (full - np.eye(n2, dtype=np.int64)) % p


def tagged_echelon(work: np.ndarray, p: int, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`oracle._echelon` on independent problems at once: the basis rows of
    the row space of work, and the tag of each.

    tags, one non-negative integer per row, splits the rows: pivots are keyed
    on (tag, leading column), so a row is only ever combined with pivots of
    its own tag, and the basis rows of tag t span the row space of the input
    rows of tag t. work must already be reduced mod p; it is overwritten.
    One tagged call is an order of magnitude faster than one call per tag
    when the problems are many and small, as the engine's are.
    """
    nrows, ncols = work.shape
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


def graded_engine(m: int, n: int, p: int) -> JordanType:
    """J_m (x) J_n from the ranks of the graded pieces of X^k, by elimination
    alone: no closed form and no memo, with the factors in either order.

    On V_m (x) V_n = k[x, y]/(x^m, y^n), X = u (x) u - 1 is multiplication by
    x + y + xy = x + v with v = y(1 + x). As 1 + x is a unit, the ring is
    also k[x, v]/(x^m, v^n), graded by total degree, and X^k = (x + v)^k
    maps R_d = span{x^i v^(d-i)} into R_(d+k) by
    x^i v^j -> sum_a C(k, a) x^(i+a) v^(j+k-a), truncated. So rank X^k is the
    sum over d of the ranks of these binomial blocks. A block's columns are
    the exponents of x in R_(d+k), so it is at most min(m, n) wide; the rows
    of every block of every power go through one `tagged_echelon` call,
    tagged by (k, d), and no m*n-wide row is ever formed.
    """
    m, n = min(m, n), max(m, n)
    dtype = oracle._working_dtype(p, 2)  # refuses a too-large p before any arithmetic
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
    _, pivot_tags = tagged_echelon(work, p, tags)
    ranks = np.bincount(blocks[pivot_tags] // (top + 1), minlength=top + 2)
    ranks[0] = m * n
    return oracle._blocks_from_ranks(ranks.tolist())


def fold_power(m: int, n: int, p: int) -> int | None:
    """The power q of p with max(m, n) < q < m + n, where the reflection fold
    applies, or None when no power of p lies strictly between them."""
    inside = [p**a for a in range(1, m + n) if max(m, n) < p**a < m + n]
    return inside[0] if inside else None


def shift_chain_tensor_type(m: int, n: int, p: int) -> JordanType:
    """J_m (x) J_n by the rank chain on all of V_m (x) V_n = k[x, y]/(x^m, y^n).

    u (x) u - 1 is multiplication by x + y + xy, so a row of coefficients,
    reshaped to (m, n), is multiplied by X with three shifted slice
    additions; the row basis of each power is echelonized m*n wide. This is
    the engine the graded oracle replaced, kept as its referee. The shift
    direction matches the row-vector convention of jordan_block.
    """

    def times_x(rows: np.ndarray) -> np.ndarray:
        a = rows.reshape(-1, m, n)
        out = np.zeros_like(a)
        out[:, :-1, :] = a[:, 1:, :]
        out[:, :, :-1] += a[:, :, 1:]
        out[:, :-1, :-1] += a[:, 1:, 1:]
        np.mod(out, p, out=out)
        return out.reshape(-1, m * n)

    # each product entry sums at most three shifted entries
    ranks = oracle._rank_chain(times_x, m * n, p, oracle._working_dtype(p, 3))
    return oracle._blocks_from_ranks(ranks)


def step_formula(i: int, j: int, n: int, beta: int, p: int) -> dict[tuple[int, int], int]:
    """Closed form for X^((p-1)p^(beta-1)) applied to e_i (x) e_j* in V_n (x) V_n*.

    Valid when p^beta divides n and 1 <= beta.  Returns the sparse result
    as {(row index, dual index): coefficient mod p}; indices outside
    1..n are dropped, matching the convention that such vectors vanish.
    """
    out: dict[tuple[int, int], int] = {}
    stride = p ** (beta - 1)
    span = p**beta
    for tp in range(i - (p - 1) * stride, i + 1):
        if tp < 1 or (i - tp) % stride:
            continue
        q = 1
        while tp + j - i + q * span - stride <= n:
            sign = 1 if q % 2 == 1 else p - 1
            base = tp + j - i + q * span
            for s in (base - stride, base):
                if 1 <= s <= n:
                    key = (tp, s)
                    out[key] = (out.get(key, 0) + sign) % p
            q += 1
    return {key: c for key, c in out.items() if c}


def dual_shift(k: int, i: int, n: int, p: int) -> dict[int, int]:
    """X^k e_i^* in V_n*, as {j: coefficient mod p}; X^0 is the identity.

    The dual shift spreads upward with alternating signs:
    X^k e_i^* = sum over i+k <= j <= n of (-1)^(i+j) C(j-i-1, k-1) e_j^*.
    """
    if not 1 <= i <= n:
        return {}
    if k == 0:
        return {i: 1}
    coeffs = {j: math.comb(j - i - 1, k - 1) * (-1) ** (i + j) % p for j in range(i + k, n + 1)}
    return {j: c for j, c in coeffs.items() if c}


def tensor_shift(k: int, i: int, j: int, r: int, s: int, p: int) -> dict[tuple[int, int], int]:
    """X^k (e_i (x) e_j^*) in V_r (x) V_s*, as {(a, b): coefficient mod p}.

    With X_1 the shift on V_r (X_1 e_i = e_(i-1)) and X_2 the dual shift,
    X = X_1 (1 + X_2) + X_2, so X^k = sum_a C(k, a) X_1^a (1 + X_2)^a X_2^(k-a):
    the X_2^b term carries C(k, a) C(a, b - k + a) for k - a <= b <= k.
    """
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    out: dict[tuple[int, int], int] = {}
    for a in range(min(k, i - 1) + 1):
        for b in range(k - a, k + 1):
            c = math.comb(k, a) * math.comb(a, b - k + a)
            for jj, cc in dual_shift(b, j, s, p).items():
                out[i - a, jj] = (out.get((i - a, jj), 0) + c * cc) % p
    return {key: c for key, c in out.items() if c}


def delta(beta: int, d: int, p: int) -> np.ndarray:
    """delta_beta on one block, as a flat vector of V_d (x) V_d*, mod p.

    With q = p^beta, each segment of q consecutive positions contributes
    sum over 1 <= i <= q of (-1)^(i+1) e_(jq+i) (x) e_(jq+1)^*; delta_0 is
    the identity. On V = sum of blocks, delta_beta is the sum of these
    pieces on the diagonal summands V_d (x) V_d*.
    """
    if beta < 0 or d % p**beta:
        raise ValueError(f"p^{beta} does not divide block size {d}")
    pos = np.arange(d)
    offset = pos % p**beta
    out = np.zeros((d, d), dtype=np.int64)
    out[pos, pos - offset] = np.where(offset % 2, p - 1, 1)
    return out.ravel()


def block_x(d: int, p: int) -> sparse.csr_matrix:
    """X = (J_d (x) J_d^-T) - 1 on V_d (x) V_d*, sparse, entries in [0, p)."""
    u = jordan_block(d, p)
    x = sparse.kron(u.array, dual_action(u).array, format="csr")
    x = (x - sparse.identity(d * d, dtype=np.int64, format="csr")).tocsr()
    x.data %= p
    x.eliminate_zeros()
    return x


def ladder_failure(t: JordanType, p: int) -> int | None:
    """Smallest level beta at which X fails to walk delta_beta down, or None.

    For 1 <= beta <= alpha_p(t), X^((p-1) p^(beta-1)) must take delta_beta
    to delta_(beta-1), and X^(p^beta - 1) must take it to delta_0. X keeps
    every V_r (x) V_s* and delta_beta lives on the diagonal pieces, so the
    ladder is checked block size by block size, one sparse X per size.
    """
    xs = {d: block_x(d, p) for d, _ in t}
    for beta in range(1, alpha_of(t, p) + 1):
        for d, x in xs.items():
            for power, lower in (((p - 1) * p ** (beta - 1), beta - 1), (p**beta - 1, 0)):
                v = delta(beta, d, p)
                for _ in range(power):
                    v = v @ x % p
                if not np.array_equal(v, delta(lower, d, p)):
                    return beta
    return None
