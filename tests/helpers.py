"""Shared helpers for the test suite.

Provides a seeded random partition generator, a dense matrix for the
shifted tensor action, the ungraded rank chain for J_m (x) J_n that the
graded oracle is tested against, and the closed form for stepping a basis
tensor down one rung of the ladder in V_n (x) V_n*.
"""

import random

import numpy as np

from jordanblocks import JordanType, block_diagonal, dual_action, jordan_block, kronecker
from jordanblocks import oracle


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


def tensor_x_matrix(t: JordanType, p: int) -> np.ndarray:
    """Dense nilpotent action on V (x) V* for the unipotent of type t.

    Row a*n + b holds the image of e_a (x) e_b*, matching the flat
    ordering used by TensorVector.flatten().
    """
    u = block_diagonal([jordan_block(size, p) for size, mult in t for _ in range(mult)])
    full = kronecker(u, dual_action(u)).array
    n2 = full.shape[0]
    return (full - np.eye(n2, dtype=np.int64)) % p


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
