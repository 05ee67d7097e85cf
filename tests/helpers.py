"""Shared helpers for the test suite.

Provides a seeded random partition generator, the recursive enumeration
of partitions (the referee of `partitions.partitions_of`'s successor
step), mod-p matrix powers,
Gauss-Jordan row reduction and inverses over GF(p) (the referees of
`oracle._echelon` and of the conjugations; `src/` never divides to
eliminate), a dense matrix for the shifted tensor action, a cold start for every memo of
`construction` and `oracle`, the graded elimination engine of
`construction` unmemoized and in either factor order (the referee of every
closed form; the oracle itself eliminates no pair), binomials mod p by
Lucas's theorem (the referee of the engine's series rows), the power of p
that the reflection fold folds across, the ungraded rank chain for
J_m (x) J_n that the graded engine is tested against, the chained
elimination over End(V_d) that the graded per-size invariants are tested
against, the paper's proof model: closed forms for powers of
X = u - 1 on dual and tensor vectors, the delta_beta vectors, and the
check that X walks them down the ladder, and the Sp/SO referee: u's type
on L(w_2) or L(2 w_1) built from an invariant form.

Positions inside a block are 1-based; an index outside 1..n denotes the
zero vector, so the closed forms return an empty mapping for it.
"""

import math
import random

import numpy as np
import scipy.sparse as sparse

from jordanblocks import JordanType, construction, linalg, oracle
from jordanblocks.linalg import (
    PrimeFieldMatrix, block_diagonal, dual_action, exterior_square, jordan_block, kronecker, symmetric_square
)
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


def recursive_partitions(n: int):
    """Every Jordan type of dimension n, built directly as (size, mult)
    pairs: for each largest size, the multiplicity counts down, and the rest
    uses smaller sizes only (reverse lexicographic order, `n` to `1^n`)."""

    def descend(total: int, cap: int):
        # (size, mult) pairs, largest size first, with every size <= cap
        if total == 0:
            yield ()
            return
        for part in range(min(total, cap), 0, -1):
            for mult in range(total // part, 0, -1):
                for rest in descend(total - part * mult, part - 1):
                    yield ((part, mult),) + rest

    for pairs in descend(n, n):
        yield JordanType(pairs)


def matrix_power(X: np.ndarray, k: int, p: int) -> np.ndarray:
    out = np.eye(X.shape[0], dtype=np.int64)
    for _ in range(k):
        out = (out @ X) % p
    return out


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


def clear_memos() -> None:
    """Empty every `lru_cache` of `construction` and `oracle`, found by its
    cache_clear, the piece memo `construction._piece_memo` and the kept
    series table `construction._series_memo`, so that a test starts cold
    whichever memos they hold."""
    for module in (construction, oracle):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    construction._piece_memo.clear()
    construction._series_memo.clear()


def graded_engine(m: int, n: int, p: int) -> JordanType:
    """J_m (x) J_n from the ranks of the graded pieces of X^k, by elimination
    alone, with the factors in either order: the referee of every closed form.

    This is `construction._eliminate_pieces`, the engine `--verify` runs, on
    the one piece and without its memo, so that every call eliminates; V_n*
    has the type of V_n, so its ranks on V_m (x) V_n* are those on
    V_m (x) V_n. It eliminates only
    the graded blocks with 2d <= top - k and counts their mirrors twice;
    `test_graded_engine_matches_shift_chain` holds it to the unhalved shift
    chain, which ranks every power on all of V_m (x) V_n.
    """
    [(ranks, _)] = construction._eliminate_pieces([(min(m, n), max(m, n))], p)
    return oracle._blocks_from_ranks(ranks)


def binom_mod_p(a: int, b: int, p: int) -> int:
    """(a choose b) mod p by Lucas's theorem, digit by digit in base p; 0
    whenever a < b. The referee of the series (1 + x)^j the graded kernel
    builds.

    Never forms a factorial: each base-p digit pair contributes its own small
    binomial, and any digit of a falling below the matching digit of b kills
    the product.
    """
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be non-negative")
    out = 1
    while b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        if da < db:
            return 0
        out = out * math.comb(da, db) % p
    return out


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
    ranks = oracle._rank_chain(times_x, m * n, p, linalg._working_dtype(p, 3))
    return oracle._blocks_from_ranks(ranks)


def chained_diagonal_invariants(d: int, p: int) -> tuple[int, int]:
    """The invariants (h, c) that `construction._eliminate_pieces` gives the
    piece (d, d), by a chain of eliminations over all of
    End(V_d) = V_d (x) V_d*, with eps the trace: h = max{k : I in im X^k},
    and c = eps(w) for any w with w X^h = I.

    Each row is (w X^k, eps(w), 0) for some w in End(V_d), and one probe row
    (I, 0, 1) is echelonized with them. While I is in im X^k, eps kills
    ker X^k (the trace pairing is u-invariant), so exactly one output row
    has a zero image part: a multiple of (0, eps(w), -1) with w X^k = I.
    Once I leaves im X^k, that row is (0, a, 0), a vector of ker X^k that
    eps does not kill. The next power zeroes the last column and multiplies
    the image part by X = (J_d (x) J_d^-T) - 1; the probe adds nothing
    there, since I X = 0. Each matrix has d^2 + 1 rows and d^2 + 2 columns,
    in the basis e_i (x) e_j* rather than the graded one, so this shares no
    step with the graded kernel but `_echelon`.
    """

    def times_x(rows: np.ndarray) -> np.ndarray:
        # J_d along the first axis is a shift-add, the contragredient J_d^-T
        # along the second an alternating prefix sum; sums stay below 2pd
        a = rows.reshape(-1, d, d).astype(np.int64)
        sign = 1 - 2 * (np.arange(d) & 1)
        b = a.copy()
        b[:, :-1] += a[:, 1:]
        b *= sign
        np.cumsum(b, axis=2, out=b)
        b *= sign
        b -= a
        np.mod(b, p, out=b)
        return b.reshape(rows.shape).astype(rows.dtype)

    n = d * d
    dtype = linalg._working_dtype(p, 2)
    ident = np.eye(d, dtype=dtype).ravel()
    rows = np.zeros((n, n + 2), dtype=dtype)
    rows[:, :n] = np.eye(n, dtype=dtype)
    rows[:, n] = ident
    probe = np.zeros((1, n + 2), dtype=dtype)
    probe[0, :n] = ident
    probe[0, n + 1] = 1
    h, c = -1, 0
    while True:
        basis, _ = oracle._echelon(np.vstack([rows, probe]), p)
        off_image = basis[~basis[:, :n].any(axis=1), n:]
        if off_image.shape[0] != 1:
            raise AssertionError(
                f"power {h + 1}: {off_image.shape[0]} rows with zero image part, expected 1"
            )
        eps, m = (int(v) for v in off_image[0])
        if m == 0:
            return h, c
        h, c = h + 1, -eps * pow(m, -1, p) % p
        rows = np.zeros_like(basis)
        rows[:, :n] = times_x(basis[:, :n])
        rows[:, n] = basis[:, n]


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


def null_space(a: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : a @ x = 0 mod p}, one per free column of rref(a)."""
    R, piv = rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in piv]
    out = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    for row, f in enumerate(free):
        out[row, f] = 1
        out[row, piv] = -R[:, f] % p
    return out


def form_square_type(t: JordanType, p: int, alternating: bool, seed: int = 0) -> JordanType:
    """Type of u on L(w_2) (Sp, alternating) or L(2 w_1) (SO), from the module.

    u is the Jordan matrix of t acting on rows; B is a seeded random
    nondegenerate solution of u B u^T = B, alternating or symmetric. On the
    exterior square (basis e_i ^ e_j, i < j) or the symmetric square
    (monomials x_i x_j, i <= j) the contraction c(v w) = B(v, w) and
    w* = sum (B^-1)_ij e_i e_j are checked to be u-invariant, and L is
    ker c / W with W = <w*> if c(w*) = 0 and W = 0 otherwise; rank X^k on L
    is dim(X^k ker c + W) - dim W. It is built on `rref`, `inverse`, numpy
    and the explicit matrices of `linalg` alone: no rule, router, recursion
    or carrier, and nothing assumes when w* lies in ker c.
    """
    U = block_diagonal([jordan_block(size, p) for size, mult in t for _ in range(mult)])
    u, n = U.array, U.rows
    i, j = np.triu_indices(n, int(alternating))
    forms = np.zeros((i.size, n, n), dtype=np.int64)
    forms[np.arange(i.size), j, i] = p - 1 if alternating else 1
    forms[np.arange(i.size), i, j] = 1
    solutions = null_space(((u @ forms @ u.T - forms) % p).reshape(i.size, -1).T, p)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        B = np.tensordot(rng.integers(0, p, solutions.shape[0]) @ solutions % p, forms, 1) % p
        if len(rref(B, p)[1]) == n:
            break
    else:
        raise AssertionError(f"no nondegenerate invariant form for {t} at p = {p}")
    B_inv = inverse(PrimeFieldMatrix(B, p)).array
    # both squares list the pairs i < j (i <= j) in the order of triu_indices
    square = (exterior_square if alternating else symmetric_square)(U).array
    omega = B_inv[i, j] if alternating else np.where(i == j, 1, 2) * B_inv[i, j] % p
    c = B[i, j]
    if ((square @ c - c) % p).any() or ((omega @ square - omega) % p).any():
        raise AssertionError(f"the contraction or w* is not u-invariant for {t} at p = {p}")
    x = (square - np.eye(i.size, dtype=np.int64)) % p
    w = omega[None, :] if c @ omega % p == 0 else np.zeros((0, i.size), dtype=np.int64)
    rows, ranks = null_space(c[None, :], p), []
    while not ranks or ranks[-1]:
        ranks.append(len(rref(np.vstack([rows, w]), p)[1]) - w.shape[0])
        if len(ranks) > 1 and ranks[-1] >= ranks[-2]:
            raise AssertionError(f"X is not nilpotent on L for {t} at p = {p}")
        rows = rref(rows, p)[0] @ x % p
    r = [*ranks, 0]
    blocks = {m: r[m - 1] - 2 * r[m] + r[m + 1] for m in range(1, len(ranks))}
    return JordanType((m, mult) for m, mult in blocks.items() if mult)
