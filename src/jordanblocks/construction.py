"""Coordinate-level model of a unipotent u acting on V tensor V*.

V is a direct sum of Jordan blocks described by a JordanType; its basis
vectors are addressed as (block, position) pairs with 1-based positions, and
the dual space carries the contragredient action. The functions here give
closed forms for powers of X = u - 1 on basis vectors, build the alternating
diagonal-sum vectors delta_beta, and realize the induced action on the
kernel of the evaluation form (modulo the invariant line when p divides
dim V) as one explicit matrix, the tests' whole-module referee.

The SL verify route builds no matrix: it reads the same module's Jordan
type summand by summand, each piece V_r tensor V_s^* from a rank chain whose
product is a shift-add and an alternating prefix sum on rows reshaped to
(r, s), and the diagonal part from two invariants per block size.

Index convention: a basis vector e_i or dual vector e_i^* with i outside
1..n denotes the zero vector, so shifts that fall off a block vanish
silently rather than erroring.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import PrimeFieldMatrix, block_diagonal, dual_action, jordan_block, kronecker
from .oracle import _blocks_from_ranks, _checked, _echelon, _rank_chain, _working_dtype
from .partitions import JordanType, PrimeChar, alpha_of, binom_mod_p

__all__ = [
    "DeltaLadder",
    "LadderVerdict",
    "TensorVector",
    "build_adjoint_action",
    "delta",
    "delta_ladder",
    "trace_form",
    "verify_delta_ladder",
    "x_power_on_basis",
    "x_power_on_dual",
    "x_power_on_tensor",
]

BasisIndex = tuple[int, int]
PairKey = tuple[BasisIndex, BasisIndex]


def _block_sizes(t: JordanType) -> tuple[int, ...]:
    """Summand sizes with multiplicity, ascending; block r has size [r]."""
    return tuple(s for s, m in t for _ in range(m))


class TensorVector:
    """Sparse element of V tensor V* over GF(p), V of a given JordanType.

    Coefficients map ((r, i), (s, j)) to a nonzero field element, meaning
    the coefficient of e_i of block r tensored with the j-th dual vector of
    block s. Blocks are numbered from 0 in ascending size order, positions
    from 1 within each block. Values are immutable.
    """

    __slots__ = ("_type", "_p", "_coeffs")

    def __init__(
        self,
        t: JordanType,
        p: int,
        coefficients: Mapping[PairKey, int] | Iterable[tuple[PairKey, int]] = (),
    ):
        PrimeChar(int(p))
        if not t:
            raise ValueError("ambient Jordan type must be nonempty")
        sizes = _block_sizes(t)
        items = (
            coefficients.items()
            if isinstance(coefficients, Mapping)
            else coefficients
        )
        acc: dict[PairKey, int] = {}
        for key, value in items:
            (r, i), (s, j) = key
            for blk, pos in ((r, i), (s, j)):
                if not 0 <= blk < len(sizes):
                    raise ValueError(f"block index {blk} out of range for {t!r}")
                if not 1 <= pos <= sizes[blk]:
                    raise ValueError(
                        f"position {pos} outside block of size {sizes[blk]}"
                    )
            acc[key] = (acc.get(key, 0) + int(value)) % p
        self._type = t
        self._p = int(p)
        self._coeffs = {k: v for k, v in sorted(acc.items()) if v}

    @property
    def jordan_type(self) -> JordanType:
        return self._type

    @property
    def p(self) -> int:
        return self._p

    @property
    def coefficients(self) -> dict[PairKey, int]:
        return dict(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorVector):
            return NotImplemented
        return (
            self._p == other._p
            and self._type == other._type
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self._type, self._p, tuple(self._coeffs.items())))

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if not isinstance(other, TensorVector):
            return NotImplemented
        if self._type != other._type or self._p != other._p:
            raise ValueError("mismatched ambient spaces")
        merged = dict(self._coeffs)
        for key, value in other._coeffs.items():
            merged[key] = merged.get(key, 0) + value
        return TensorVector(self._type, self._p, merged)

    def flatten(self) -> np.ndarray:
        """Coordinate row vector of length (dim V)^2.

        The flat index of e_i of block r tensor the j-th dual vector of
        block s is a * dim V + b, where a and b are the 0-based global
        positions of the two factors; this matches the ordering produced by
        a Kronecker product of the two actions.
        """
        sizes = _block_sizes(self._type)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        n = self._type.dim
        out = np.zeros(n * n, dtype=np.int64)
        for ((r, i), (s, j)), value in self._coeffs.items():
            a = offsets[r] + i - 1
            b = offsets[s] + j - 1
            out[a * n + b] = value
        return out

    def __repr__(self) -> str:
        return (
            f"TensorVector({self._type!r}, p={self._p}, "
            f"coefficients={self._coeffs!r})"
        )


def trace_form(vec: TensorVector) -> int:
    """Evaluation form v tensor f |-> f(v), applied to a sparse element.

    On basis pairs this is 1 exactly when both factors address the same
    position of the same block, so the value is the sum of the diagonal
    coefficients mod p.
    """
    total = sum(
        value for ((r, i), (s, j)), value in vec.coefficients.items()
        if r == s and i == j
    )
    return total % vec.p


def x_power_on_basis(k: int, i: int, n: int) -> int:
    """Index of X^k e_i in a single block of size n, or 0 for the zero vector.

    X shifts each basis vector down one step, so the k-th power lands on
    index i - k; anything at or below index 0 has fallen off the block.
    """
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    if n < 1:
        raise ValueError(f"block size must be positive, got {n}")
    if not 1 <= i <= n:
        return 0
    shifted = i - k
    return shifted if shifted >= 1 else 0


def x_power_on_dual(k: int, i: int, n: int, p: int) -> dict[int, int]:
    """Coefficients of X^k e_i^* in a single block of size n, as {j: c}.

    The dual shift spreads upward with alternating signs:
    X^k e_i^* = sum over i+k <= j <= n of (-1)^(i+j) C(j-i-1, k-1) e_j^*,
    binomials taken mod p. Entries with zero coefficient are omitted; an
    index i outside 1..n denotes the zero vector and yields {}.
    """
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    if n < 1:
        raise ValueError(f"block size must be positive, got {n}")
    PrimeChar(int(p))
    if not 1 <= i <= n:
        return {}
    out: dict[int, int] = {}
    for j in range(i + k, n + 1):
        c = binom_mod_p(j - i - 1, k - 1, p)
        if c:
            out[j] = c if (i + j) % 2 == 0 else (p - c) % p
    return out


def _dual_power(
    power: int, w: Mapping[BasisIndex, int], sizes: tuple[int, ...], p: int
) -> dict[BasisIndex, int]:
    if power == 0:
        return {key: v % p for key, v in w.items() if v % p}
    out: dict[BasisIndex, int] = {}
    for (s, i), c in w.items():
        for j, cc in x_power_on_dual(power, i, sizes[s], p).items():
            key = (s, j)
            out[key] = (out.get(key, 0) + c * cc) % p
    return {key: v for key, v in out.items() if v}


def _basis_power(
    power: int, v: Mapping[BasisIndex, int], sizes: tuple[int, ...], p: int
) -> dict[BasisIndex, int]:
    if power == 0:
        return {key: c % p for key, c in v.items() if c % p}
    out: dict[BasisIndex, int] = {}
    for (r, i), c in v.items():
        j = x_power_on_basis(power, i, sizes[r])
        if j:
            key = (r, j)
            out[key] = (out.get(key, 0) + c) % p
    return {key: c for key, c in out.items() if c}


def x_power_on_tensor(
    k: int,
    v: Mapping[BasisIndex, int],
    w: Mapping[BasisIndex, int],
    t: JordanType,
    p: int,
) -> TensorVector:
    """X^k of (v tensor w), v in V and w in V*, by the binomial double sum.

    Expands to sum over 0 <= s <= r' <= k of C(k, r') C(r', s) times
    X^r' v tensor X^(k-s) w, which is what the k-th power of
    (u tensor u) - 1 produces once each factor's own X-powers are known.
    """
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    PrimeChar(int(p))
    sizes = _block_sizes(t)
    left = [_basis_power(a, v, sizes, p) for a in range(k + 1)]
    right = [_dual_power(a, w, sizes, p) for a in range(k + 1)]
    acc: dict[PairKey, int] = {}
    for outer in range(k + 1):
        c_outer = binom_mod_p(k, outer, p)
        if not c_outer:
            continue
        for inner in range(outer + 1):
            c = c_outer * binom_mod_p(outer, inner, p) % p
            if not c:
                continue
            for ri, a in left[outer].items():
                for sj, b in right[k - inner].items():
                    key = (ri, sj)
                    acc[key] = (acc.get(key, 0) + c * a * b) % p
    return TensorVector(t, p, acc)


def delta(beta: int, t: JordanType, p: int) -> TensorVector:
    """The level-beta alternating diagonal sum in V tensor V*.

    Each block of size d contributes, for q = p^beta and every segment of q
    consecutive positions, the sum over 1 <= i <= q of (-1)^(i+1) times
    e_(jq+i) tensor e_(jq+1)^*. At beta = 0 this degenerates to the full
    diagonal sum of e_i tensor e_i^*, which spans the invariant line.
    Requires q to divide every block size.
    """
    if beta < 0:
        raise ValueError(f"level must be non-negative, got {beta}")
    PrimeChar(int(p))
    q = int(p) ** beta
    sizes = _block_sizes(t)
    coeffs: dict[PairKey, int] = {}
    for r, d in enumerate(sizes):
        if d % q:
            raise ValueError(f"{q} does not divide block size {d}")
        for seg in range(d // q):
            base = seg * q
            for i in range(1, q + 1):
                sign = 1 if i % 2 == 1 else p - 1
                key = ((r, base + i), (r, base + 1))
                coeffs[key] = (coeffs.get(key, 0) + sign) % p
    return TensorVector(t, p, coeffs)


@dataclass(frozen=True)
class DeltaLadder:
    """One rung of the delta ladder: the vector plus its per-block segment counts."""

    beta: int
    vector: TensorVector
    segment_counts: tuple[int, ...]


def delta_ladder(beta: int, t: JordanType, p: int) -> DeltaLadder:
    """Bundle delta(beta, t, p) with the counts d_r / p^beta per block."""
    vec = delta(beta, t, p)
    q = int(p) ** beta
    counts = tuple(d // q for d in _block_sizes(t))
    return DeltaLadder(beta=beta, vector=vec, segment_counts=counts)


class LadderVerdict(NamedTuple):
    """Result of the ladder check; failed_beta is None when everything holds."""

    ok: bool
    failed_beta: int | None


def _tensor_x_sparse(t: JordanType, p: int) -> scipy.sparse.csr_matrix:
    """X = (u tensor dual u) - 1 on V tensor V*, as a sparse mod-p matrix."""
    import scipy.sparse as sparse

    u = block_diagonal([jordan_block(d, p) for d in _block_sizes(t)])
    left = sparse.csr_matrix(u.array)
    right = sparse.csr_matrix(dual_action(u).array)
    prod = sparse.kron(left, right, format="csr")
    n2 = t.dim ** 2
    x = (prod - sparse.identity(n2, dtype=np.int64, format="csr")).tocsr()
    x.data %= p
    x.eliminate_zeros()
    return x


def verify_delta_ladder(t: JordanType, p: int) -> LadderVerdict:
    """Check that X-powers walk the delta ladder down level by level.

    For each 1 <= beta <= alpha (alpha the largest level the type admits),
    applying X^((p-1) p^(beta-1)) to delta_beta must give delta_(beta-1),
    and applying X^(p^beta - 1) must give delta_0. Both are verified by
    explicit repeated matrix application; alpha = 0 passes vacuously. On
    failure, reports the smallest offending beta.
    """
    PrimeChar(int(p))
    alpha = alpha_of(t, int(p))
    if alpha == 0:
        return LadderVerdict(True, None)
    x = _tensor_x_sparse(t, int(p))
    flats = [delta(b, t, int(p)).flatten() for b in range(alpha + 1)]

    def apply_power(vec: np.ndarray, e: int) -> np.ndarray:
        out = vec
        for _ in range(e):
            out = np.asarray(out @ x)
            out %= p
        return out

    for beta in range(1, alpha + 1):
        step = (p - 1) * p ** (beta - 1)
        if not np.array_equal(apply_power(flats[beta], step), flats[beta - 1]):
            return LadderVerdict(False, beta)
        if not np.array_equal(apply_power(flats[beta], p**beta - 1), flats[0]):
            return LadderVerdict(False, beta)
    return LadderVerdict(True, None)


def _require_adjoint_input(t: JordanType, p: int) -> int:
    if not t:
        raise ValueError("empty Jordan type")
    PrimeChar(int(p))
    n = t.dim
    if n < 2:
        raise ValueError(f"need dim >= 2, got {n}")
    return n


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
    n = _require_adjoint_input(t, p)
    u = block_diagonal([jordan_block(d, p) for d in _block_sizes(t)])
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


def _times_x(rows: np.ndarray, r: int, s: int, p: int) -> np.ndarray:
    """rows times X = (J_r tensor J_s^-T) - 1 on V_r tensor V_s^*, mod p.

    A row of r*s coefficients, reshaped to (r, s), is multiplied by J_r along
    r, a shift-add (e_i -> e_i + e_(i-1)), and by the contragredient
    J_s^-T along s, an alternating prefix sum; the identity is subtracted.
    The sums run in int64, where they stay below 2ps in absolute value; the
    result comes back reduced, in the dtype of rows.
    """
    a = rows.reshape(-1, r, s).astype(np.int64)
    sign = 1 - 2 * (np.arange(s) & 1)
    b = a.copy()
    b[:, :-1] += a[:, 1:]
    b *= sign
    np.cumsum(b, axis=2, out=b)
    b *= sign
    b -= a
    np.mod(b, p, out=b)
    return b.reshape(rows.shape).astype(rows.dtype)


@lru_cache(maxsize=None)
def _piece_type(r: int, s: int, p: int) -> JordanType:
    """Jordan type of u on V_r tensor V_s^*, r <= s, by a shift-product rank chain."""
    ranks = _rank_chain(
        lambda rows: _times_x(rows, r, s, p), r * s, p, _working_dtype(p, 2)
    )
    return _checked(_blocks_from_ranks(ranks), r * s)


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
        basis, _ = _echelon(np.vstack([rows, probe]), p)
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
        rows[:, :n] = _times_x(basis[:, :n], d, d, p)
        rows[:, n] = basis[:, n]


def _split_adjoint_type(t: JordanType, p: int) -> JordanType:
    """Jordan type of u on the adjoint module, summand by summand, with no
    matrix larger than (max d)^2 square.

    With V the sum of blocks V_a, V tensor V* is the sum of the u-invariant
    pieces V_a tensor V_b^*. The evaluation form eps vanishes on every piece
    with a != b and the identity I lies in D, the sum of the a = b pieces,
    so the adjoint module is the sum of the a != b pieces plus
    (ker eps on D) / <I>, the quotient taken when p | n. Each piece's type
    is read off its own shift-product rank chain, memoized by its sizes.

    D is never built. Let R_k = sum over sizes d of m_d rank(X^k on
    V_d tensor V_d^*), from the (d, d) pieces. eps kills im X, so X^k has
    rank R_k - 1 + f_k on ker eps, with f_k = 1 when eps is nonzero on
    ker X^k. The trace pairing is u-invariant, so that happens exactly when
    some I_d is outside im X^k: f_k = [k > h], h = min h_d, with h_d and c_d
    from `_diagonal_invariants`. When p | n, I lies in X^k (ker eps) when
    k <= h and eps(w) = 0 for the w with w X^k = I; eps kills im X, so only
    the sizes with h_d = k contribute, m_d c_d each. Hence

        rank = R_k - [k <= h] (1 + [p | n] [sum_{h_d = k} m_d c_d = 0 mod p]).

    This is a second derivation, not a copy of a rule: h_d and c_d are
    counted by elimination, and no rule, no tensor-pair engine and no
    recursion is used. It follows the module theory of the paper's proof,
    where the delta_beta vectors certify I in im X^(p^beta - 1); the tests
    hold (h_d, c_d) to (p^nu - 1, d / p^nu mod p), nu = nu_p(d), and the
    whole route to `build_adjoint_action`.
    """
    n = _require_adjoint_input(t, p)
    p = int(p)
    out = JordanType()
    for d1, m1 in t:
        for d2, m2 in t:
            copies = m1 * m2 if d1 != d2 else m1 * (m1 - 1)
            if copies:
                # V_s tensor V_r^* is the dual module of V_r tensor V_s^*, and
                # u^-T has the Jordan type of u, so one memo serves both orders.
                piece = _piece_type(min(d1, d2), max(d1, d2), p)
                out = out + JordanType({size: m * copies for size, m in piece})
    # blocks of V_d tensor V_d^* are shorter than 2d, so ranks ends in 0
    ranks = [0] * (2 * max(d for d, _ in t))
    for d, m in t:
        for size, mult in _piece_type(d, d, p):
            for k in range(size):
                ranks[k] += m * mult * (size - k)
    invariants = {d: _diagonal_invariants(d, p) for d, _ in t}
    for k in range(min(h for h, _ in invariants.values()) + 1):
        top = sum(m * invariants[d][1] for d, m in t if invariants[d][0] == k)
        ranks[k] -= 1 + (n % p == 0 and top % p == 0)
    out = out + _blocks_from_ranks(ranks)
    return _checked(out, n * n - 1 - (n % p == 0))
