"""The adjoint module of SL: u on V tensor V*, cut to its irreducible piece.

V is a direct sum of Jordan blocks described by a JordanType, and V* carries
the contragredient action. `build_adjoint_action` restricts u tensor dual(u)
to the kernel of the evaluation form (modulo the invariant line when p
divides dim V) as one explicit matrix, the tests' whole-module referee.

The SL verify route builds no matrix: it sums the same module's ranks
summand by summand, each piece V_r tensor V_s^* from the graded blocks of
X^k on k[x, v]/(x^r, v^s), at most min(r, s) wide and eliminated in one
tagged call, corrects the diagonal part by two invariants per block size,
and reads the blocks off the sum once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import (
    PrimeFieldMatrix, _working_dtype, block_diagonal, dual_action, jordan_block, kronecker
)
from .oracle import _blocks_from_ranks, _checked, _echelon
from .partitions import JordanType
from .rules import GroupContext

__all__ = ["build_adjoint_action"]


def build_adjoint_action(t: JordanType, p: int) -> PrimeFieldMatrix:
    """Matrix of u on the kernel of the evaluation form, mod the fixed line.

    Builds u tensor dual(u) on V tensor V*, restricts to the kernel of the
    evaluation form (a hyperplane, since the form is fixed by the action),
    and, when p divides n = dim V, further quotients by the invariant line
    spanned by the diagonal sum. The result is unipotent of size n^2 - 1
    when p does not divide n, and n^2 - 2 when it does. This whole-module
    matrix is the tests' referee for the summand-by-summand route that
    `--verify` takes.

    The form's coordinates phi are those of the identity, and its only pivot
    is its first coordinate, so the kernel basis is e_a - phi_a e_0 for
    a >= 1 and coordinates in it are plain coordinate reads. In that basis
    the identity has coordinates phi[1:]; when p | n it lies in the kernel
    and the quotient drops the coordinate of its first nonzero,
    e_2 tensor e_2^*, kernel index n.
    """
    n = GroupContext("SL", t.dim, p).n
    u = block_diagonal([jordan_block(d, p) for d, m in t for _ in range(m)])
    u0 = kronecker(u, dual_action(u)).array
    phi = np.zeros(n * n, dtype=np.int64)
    phi[:: n + 1] = 1
    # Row a of w is the image of the kernel basis vector e_a - phi_a e_0.
    w = (u0[1:] - np.outer(phi[1:], u0[0])) % p
    coords = w[:, 1:]
    if n % p:
        return PrimeFieldMatrix(coords, p)
    gamma = phi[1:]
    reduced = (coords - np.outer(coords[:, n], gamma)) % p
    keep = np.arange(gamma.size) != n
    return PrimeFieldMatrix(reduced[np.ix_(keep, keep)], p)


def _times_x(rows: np.ndarray, d: int, p: int) -> np.ndarray:
    """rows times X = (J_d tensor J_d^-T) - 1 on End(V_d) = V_d tensor V_d^*, mod p.

    A row of d*d coefficients, reshaped to (d, d), is multiplied by J_d along
    the first axis, a shift-add (e_i -> e_i + e_(i-1)), and by the
    contragredient J_d^-T along the second, an alternating prefix sum; the
    identity is subtracted. The sums run in int64, where they stay below
    2pd in absolute value; the result comes back reduced, in the dtype of
    rows. Its one caller, `_diagonal_invariants`, reads the trace and the
    identity of End(V_d) in this basis, not in the graded one of
    `_piece_ranks`.
    """
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


@lru_cache(maxsize=None)
def _piece_ranks(r: int, s: int, p: int) -> tuple[int, ...]:
    """Ranks of X^0, X^1, ... down to the first 0 on V_r tensor V_s^*, r <= s,
    from graded blocks at most r wide.

    V_s^* is isomorphic to V_s as a k[u]-module, so X^k has the same ranks
    on V_r tensor V_s^* as on V_r tensor V_s = k[x, y]/(x^r, y^s). There
    X = u tensor u - 1 is multiplication by x + y + xy = x + v with
    v = y(1 + x). As 1 + x is a unit, the ring is also k[x, v]/(x^r, v^s),
    graded by total degree, and X = x + v is homogeneous of degree 1:
    X^k maps R_d = span{x^i v^(d-i)} into R_(d+k) by
    x^i v^j -> sum_a C(k, a) x^(i+a) v^(j+k-a), truncated. So rank X^k is
    the sum over d of the ranks of these binomial blocks. A block's columns
    are the exponents of x in R_(d+k), so it is at most r = min(r, s) wide;
    the rows of every block of every power go through one `_echelon` call,
    tagged by (k, d), and no r*s-wide row is ever formed.
    """
    dtype = _working_dtype(p, 2)  # refuses a too-large p before any arithmetic
    top = r + s - 2  # highest degree, so X^(top+1) = 0
    i, j = np.divmod(np.arange(r * s), s)
    deg = i + j
    order = np.argsort(deg, kind="stable")
    i, deg = i[order], deg[order]
    # X^k can be nonzero only on R_d with d <= top - k: a prefix in degree order
    per_k = np.searchsorted(deg, top - np.arange(1, top + 1), side="right")
    k = np.repeat(np.arange(1, top + 1), per_k)
    src = np.arange(k.size) - np.repeat(np.cumsum(per_k) - per_k, per_k)
    i, deg = i[src], deg[src]
    # the exponent of v in the image stays below s while that of x is >= low
    low = deg + k - (s - 1)

    binom = np.zeros((top + 1, r), dtype=np.int64)
    binom[0, 0] = 1
    for row in range(1, top + 1):
        binom[row] = binom[row - 1]
        binom[row, 1:] += binom[row - 1, :-1]
        binom[row] %= p
    binom = binom.astype(dtype)

    work = np.zeros((k.size, r), dtype=dtype)
    rows = np.arange(k.size)
    for a in range(r):
        col = i + a
        ok = (col < r) & (col >= low)
        work[rows[ok], col[ok]] = binom[k[ok], a]

    blocks, tags = np.unique(k * (top + 1) + deg, return_inverse=True)
    _, pivot_tags = _echelon(work, p, tags)
    ranks = np.bincount(blocks[pivot_tags] // (top + 1), minlength=top + 2).tolist()
    ranks[0] = r * s
    return tuple(ranks[: ranks.index(0) + 1])


@lru_cache(maxsize=None)
def _diagonal_invariants(d: int, p: int) -> tuple[int, int]:
    """(h, c) for End(V_d) = V_d tensor V_d^*, with eps the trace:
    h = max{k : I in im X^k}, and c = eps(w) for any w with w X^h = I.

    Each row is (w X^k, eps(w), 0) for some w in End(V_d), and one probe row
    (I, 0, 1) is echelonized with them. While I is in im X^k, eps kills
    ker X^k (the trace pairing is u-invariant), so exactly one output row
    has a zero image part: a multiple of (0, eps(w), -1) with w X^k = I.
    Once I leaves im X^k, that row is (0, a, 0), a vector of ker X^k that
    eps does not kill. The next power zeroes the last column and multiplies
    the image part by X; the probe adds nothing there, since I X = 0. Each
    matrix has d^2 + 1 rows and d^2 + 2 columns.
    """
    n = d * d
    dtype = _working_dtype(p, 2)
    ident = np.eye(d, dtype=dtype).ravel()
    rows = np.zeros((n, n + 2), dtype=dtype)
    rows[:, :n] = np.eye(n, dtype=dtype)
    rows[:, n] = ident
    probe = np.zeros((1, n + 2), dtype=dtype)
    probe[0, :n] = ident
    probe[0, n + 1] = 1
    h, c = -1, 0
    while True:
        basis = _echelon(np.vstack([rows, probe]), p)
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
        rows[:, :n] = _times_x(basis[:, :n], d, p)
        rows[:, n] = basis[:, n]


def _split_adjoint_type(t: JordanType, p: int) -> JordanType:
    """Jordan type of u on the adjoint module L, summand by summand, with no
    matrix larger than (max d)^2 square.

    V tensor V* is the sum of the u-invariant pieces V_a tensor V_b^* over
    ordered pairs of blocks, so its ranks of X^k are sums of the pieces'
    ranks, each from `_piece_ranks`'s graded blocks, memoized by sizes.
    L is ker eps, eps the evaluation form, taken mod the identity I when
    p | n. eps vanishes on every piece with a != b, and I lies in the sum of
    the a = b pieces, so only that diagonal part needs a correction. eps
    kills im X, so X^k loses rank 1 on ker eps unless eps is nonzero on
    ker X^k; the trace pairing is u-invariant, so that happens exactly when
    some I_d is outside im X^k: k > h, h = min h_d, with h_d and c_d from
    `_diagonal_invariants`. When p | n, I lies in X^k (ker eps) when k <= h
    and eps(w) = 0 for the w with w X^k = I; eps kills im X, so only the
    sizes with h_d = k contribute, m_d c_d each. Hence

        rank X^k on L = sum over (a, b) of rank X^k on V_a tensor V_b^*
            - [k <= h] (1 + [p | n] [sum_{h_d = k} m_d c_d = 0 mod p]),

    and the blocks are read off this rank sequence once.

    This is a second derivation, not a copy of a rule: h_d and c_d are
    counted by elimination, and no rule, no tensor-pair engine and no
    recursion is used. It follows the module theory of the paper's proof,
    where the delta_beta vectors certify I in im X^(p^beta - 1); the tests
    hold (h_d, c_d) to (p^nu - 1, d / p^nu mod p), nu = nu_p(d), and the
    whole route to `build_adjoint_action`. t and p are those of a valid SL
    context, which its caller holds.
    """
    n = t.dim
    # blocks of V_r tensor V_s^* are shorter than r + s, so ranks ends in 0
    ranks = [0] * (2 * t.max_size)
    blocks = list(t)
    for i, (d1, m1) in enumerate(blocks):
        for d2, m2 in blocks[i:]:
            # V_s tensor V_r^* is the dual module of V_r tensor V_s^*, and
            # u^-T has the Jordan type of u, so one piece serves both orders.
            copies = m1 * m1 if d1 == d2 else 2 * m1 * m2
            for k, rank in enumerate(_piece_ranks(d1, d2, p)):
                ranks[k] += copies * rank
    invariants = {d: _diagonal_invariants(d, p) for d, _ in t}
    for k in range(min(h for h, _ in invariants.values()) + 1):
        top = sum(m * invariants[d][1] for d, m in t if invariants[d][0] == k)
        ranks[k] -= 1 + (n % p == 0 and top % p == 0)
    return _checked(_blocks_from_ranks(ranks), n * n - 1 - (n % p == 0))
