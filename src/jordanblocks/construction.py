"""The adjoint module of SL: u on V tensor V*, cut to its irreducible piece.

V is a direct sum of Jordan blocks described by a JordanType, and V* carries
the contragredient action. `build_adjoint_action` restricts u tensor dual(u)
to the kernel of the evaluation form (modulo the invariant line when p
divides dim V) as one explicit matrix, the tests' whole-module referee.

The SL verify route builds no matrix: it sums the module's ranks piece by
piece, each V_r tensor V_s^* from the graded blocks of X^k on
k[x, v]/(x^r, v^s), at most min(r, s) wide (d + 2 for End(V_d), which also
counts the two invariants per block size that correct the diagonal part).
X^k's block from degree d is the transpose of its block from
r + s - 2 - k - d, so only the lower half is eliminated. The pieces of a
type that are not memoized yet are eliminated together, in calls cut as
`_eliminate_pieces` states. V tensor V*'s blocks are read off the sum and
L's off the corrected sum: SL `--verify` checks `--rep tensor` and `irr`
with these.
"""

from __future__ import annotations

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


def _pascal_windows(top: int, wide: int, p: int, dtype) -> np.ndarray:
    """Windows of wide columns over Pascal's rows 0 to top mod p, each row
    laid right of wide zeros in a table 3 * wide columns wide: row k's
    window at wide + o holds C(k, c + o) at column c, 0 where c + o < 0,
    for -wide < o < wide. The graded kernel reads its binomial rows here.
    """
    pascal = np.zeros((top + 1, 3 * wide), dtype=dtype)
    pascal[0, wide] = 1
    for row in range(1, top + 1):
        np.add(pascal[row - 1, 1:], pascal[row - 1, :-1], out=pascal[row, 1:])
        pascal[row] %= p
    return np.lib.stride_tricks.sliding_window_view(pascal, wide, axis=1)


# The byte budget of one `_echelon` call's rows (see `_eliminate_pieces`).
_ECHELON_BYTES = 1 << 19

# A piece's ranks of X^0, X^1, ... down to 0, and its invariants (h, c) or None.
_Piece = tuple[tuple[int, ...], tuple[int, int] | None]

# (r, s, p) -> `_eliminate_pieces`' answer for (r, s), filled a batch at a time.
_piece_memo: dict[tuple[int, int, int], _Piece] = {}


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index) for every 0 <= index < counts[owner], in order."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _eliminate_pieces(keys: list[tuple[int, int]], p: int) -> list[_Piece]:
    """For each piece (r, s), r <= s, of keys: the ranks of X^0, X^1, ...
    down to the first 0 on V_r tensor V_s^*, and, when r == s = d, the
    invariants (h, c) of End(V_d); None when r != s.

    Every kept block (piece, k, d) below is its own `_echelon` tag. The
    blocks go through `_echelon` in tag order, cut between blocks into calls
    of at most `_ECHELON_BYTES` of rows each (a larger block goes alone), as
    `_echelon` holds about nine copies of them; each call builds only its
    own rows, max r wide, plus 2 if a piece is diagonal. Pascal's rows are
    built once for all calls (`_pascal_windows`).

    V_s^* is isomorphic to V_s as a k[u]-module, so X^k has the same ranks
    on V_r tensor V_s^* as on V_r tensor V_s = k[x, y]/(x^r, y^s). There
    X = u tensor u - 1 is multiplication by x + y + xy = x + v with
    v = y(1 + x). As 1 + x is a unit, the ring is also k[x, v]/(x^r, v^s),
    graded by total degree, and X = x + v is homogeneous of degree 1:
    X^k maps R_d = span{x^i v^(d-i)} into R_(d+k) by
    x^i v^j -> sum_a C(k, a) x^(i+a) v^(j+k-a), truncated. So rank X^k is
    the sum over d of the ranks of these binomial blocks. A block's columns
    are the exponents c of x in R_(d+k), from its first, max(d + k - s + 1,
    0), below r, so it is at most r = min(r, s) wide; shifting one tag's
    columns keeps its rank, and the block that meets I (below) starts at 0.
    Pairing x^i v^j with x^(r-1-i) v^(s-1-j) swaps R_d and R_(top-d), top =
    r + s - 2, and both blocks read C(k, c - i), so block (k, d) is block
    (k, top - k - d) transposed. Only blocks with 2d <= top - k are kept,
    each counted twice but the middle one, 2d = top - k, and no r*s-wide
    row is ever formed.

    On End(V_d), with eps the trace, h = max{k : I in im X^k} and c = eps(w)
    for any w with X^h(w) = I. X(A) = [N, A] u^-1 with N = u - 1, so
    X^k(w) = I exactly when D^k(w u^-k) = I, D = ad N. In the basis
    (-1)^j E_ij, read as x^j v^(d-1-i), D is multiplication by x + v, so
    the same blocks serve: I has degree d - 1 and coordinates
    sign = ((-1)^i), and the source w' = x^i v^(d-1-k-i) of block
    (k, d - 1 - k) has eps(w' u^k) = sign[i]. That block's rows carry
    (image, eps, 0), and it gets a probe (I, 0, 1) for each 1 <= k < d.
    While I is in im X^k, eps kills ker X^k (the trace pairing is
    u-invariant), so the block holds a row (0, e, m), m != 0, and
    c = -e / m; a probe that finds no preimage is left out of its block's
    rank. With no such row, h = 0 and X^0 = 1 gives (0, -tr I, 1).
    """
    if not keys:
        return []
    dtype = _working_dtype(p, 2)  # refuses a too-large p before any arithmetic
    r, s = np.array(keys).T
    top = r + s - 2  # highest degree, so X^(top+1) = 0
    diagonal = r == s
    wide = int(r.max())
    width = wide + 2 * int(diagonal.any())
    most = _ECHELON_BYTES // (width * np.dtype(dtype).itemsize)  # rows one call may take
    # every block (piece, k, d) with 1 <= k <= top and 2d <= top - k, in tag order
    piece, k = _ragged(top)
    block, d = _ragged((top[piece] - k - 1) // 2 + 1)
    piece, k = piece[block], k[block] + 1
    # the sources x^i v^(d-i), i <= min(d, r - 1): as r <= s, 2d < top gives d < s
    sources = np.minimum(d, r[piece] - 1) + 1
    probe = diagonal[piece] & (d + k == r[piece] - 1)  # the block maps onto I
    ends = np.concatenate([[0], np.cumsum(sources + probe)])  # rows before each block
    # the exponent of v, d + k - c, stays below s, and that of x below r
    first = np.maximum(d + k - s[piece] + 1, 0)
    span = r[piece] - first
    windows = _pascal_windows(int(top.max()), wide, p, dtype)
    column = np.arange(wide)
    sign = (1 - 2 * (column & 1)) % p
    rank = np.zeros(k.size, dtype=np.intp)
    h = np.zeros(r.size, dtype=np.intp)
    c = r % p  # with no row (0, e, m), h = 0 and X^0 = 1 gives (0, -tr I, 1)
    start = 0
    while start < k.size:
        # the most blocks from start whose rows fit the budget, and at least one
        stop = max(int(np.searchsorted(ends, ends[start] + most, "right")) - 1, start + 1)
        owner, i = _ragged(sources[start:stop])
        at = start + owner
        probes = start + np.flatnonzero(probe[start:stop])
        work = np.zeros((at.size + probes.size, width), dtype=dtype)
        image = work[: at.size, :wide]
        image[:] = windows[k[at], wide + first[at] - i]
        image[column >= span[at][:, None]] = 0
        if diagonal.any():
            work[: at.size, -2] = np.where(probe[at], sign[i], 0)
            work[at.size :, :wide] = np.where(column < r[piece[probes]][:, None], sign, 0)
            work[at.size :, -1] = 1
        basis, tags = _echelon(work, p, np.concatenate([at, probes]) - start)
        in_image = basis[:, :wide].any(axis=1)  # rows (0, e, m) count in no rank
        member = ~in_image & (basis[:, -1] != 0)  # the probe's I has a preimage
        rank[start:stop] = np.bincount(tags[in_image], minlength=stop - start)
        rank[start:stop] -= probe[start:stop] & (np.bincount(tags[member], minlength=stop - start) == 0)
        # a piece's blocks come in order of k, the last at h
        for b, e, m in sorted(zip((start + tags[member]).tolist(), *basis[member, -2:].T.tolist())):
            h[piece[b]], c[piece[b]] = k[b], -e * pow(m, -1, p) % p
        start = stop

    ranks = np.zeros((r.size, top.max() + 2), dtype=np.intp)
    # each block but the middle one, 2d = top - k, has a mirror
    np.add.at(ranks, (piece, k), rank * (1 + (2 * d + k < top[piece])))
    ranks[:, 0] = r * s
    invariants = [(int(h[b]), int(c[b])) if diagonal[b] else None for b in range(r.size)]
    return [(tuple(row[: row.index(0) + 1]), inv) for row, inv in zip(ranks.tolist(), invariants)]


def _split_adjoint_type(t: JordanType, p: int) -> tuple[JordanType, JordanType]:
    """Jordan types of u on V tensor V* and on the adjoint module L, summand
    by summand, with no elimination wider than max d + 2 columns.

    V tensor V* is the sum of the u-invariant pieces V_a tensor V_b^* over
    ordered pairs of blocks, so its ranks of X^k are sums of the pieces'
    ranks, each from `_eliminate_pieces`' graded blocks and memoized by
    sizes and p in `_piece_memo`: the pieces of t missing from it are
    eliminated together, in calls cut as `_eliminate_pieces` states.
    L is ker eps, eps the evaluation form, taken mod the identity I when
    p | n. eps vanishes on every piece with a != b, and I lies in the sum of
    the a = b pieces, so only that diagonal part needs a correction. eps
    kills im X, so X^k loses rank 1 on ker eps unless eps is nonzero on
    ker X^k; the trace pairing is u-invariant, so that happens exactly when
    some I_d is outside im X^k: k > h, h = min h_d, with h_d and c_d from
    the piece (d, d). When p | n, I lies in X^k (ker eps) when k <= h
    and eps(w) = 0 for the w with w X^k = I; eps kills im X, so only the
    sizes with h_d = k contribute, m_d c_d each. Hence

        rank X^k on L = sum over (a, b) of rank X^k on V_a tensor V_b^*
            - [k <= h] (1 + [p | n] [sum_{h_d = k} m_d c_d = 0 mod p]),

    and L's blocks are read off this sequence, V tensor V*'s off the sum.

    This is a second derivation, not a copy of a rule: h_d and c_d are
    counted by elimination, and no rule, no tensor-pair engine and no
    recursion is used. It follows the module theory of the paper's proof,
    where the delta_beta vectors certify I in im X^(p^beta - 1); the tests
    hold (h_d, c_d) to (p^nu - 1, d / p^nu mod p), nu = nu_p(d), and the
    whole route to `build_adjoint_action`. t and p are those of a valid SL
    context, which its caller holds.
    """
    n = t.dim
    blocks = list(t)
    # V_s tensor V_r^* is the dual module of V_r tensor V_s^*, and u^-T has
    # the Jordan type of u, so one piece (r, s), r <= s, serves both orders.
    copies = {
        (d1, d2): m1 * m1 if d1 == d2 else 2 * m1 * m2
        for i, (d1, m1) in enumerate(blocks)
        for d2, m2 in blocks[i:]
    }
    cold = [key for key in copies if (*key, p) not in _piece_memo]
    _piece_memo.update(((*key, p), piece) for key, piece in zip(cold, _eliminate_pieces(cold, p)))
    # blocks of V_r tensor V_s^* are shorter than r + s, so ranks ends in 0
    ranks = [0] * (2 * t.max_size)
    for (d1, d2), m in copies.items():
        for k, rank in enumerate(_piece_memo[d1, d2, p][0]):
            ranks[k] += m * rank
    tensor = _checked(_blocks_from_ranks(ranks), n * n)
    invariants = {d: _piece_memo[d, d, p][1] for d, _ in t}
    for k in range(min(h for h, _ in invariants.values()) + 1):
        top = sum(m * invariants[d][1] for d, m in t if invariants[d][0] == k)
        ranks[k] -= 1 + (n % p == 0 and top % p == 0)
    return tensor, _checked(_blocks_from_ranks(ranks), n * n - 1 - (n % p == 0))
