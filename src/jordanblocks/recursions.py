"""Closed-form identities for Jordan types of tensor products of blocks.

Each function here gives the Jordan type of J_m tensor J_n over GF(p) in
some restricted regime, without building a matrix. `oracle` answers every
tensor pair through them, trying in order `clebsch_gordan` (m + n - 1 <= p),
`gpx_scale` (p divides m and n), `free_rule` (the larger size is a power of
p) and `reflect_rule` (a power of p lies between the larger size and
m + n); only the pairs none covers are eliminated. The scaling and free
identities are due to Renaud (J. Algebra 58, 1979) and Glasby-Praeger-Xia
(J. Algebra 2016). The tests compare every rule against the graded
elimination engine on its stated domain, and none is applied outside that
domain.
"""

from __future__ import annotations

from .partitions import JordanType, PrimeChar

__all__ = ["clebsch_gordan", "free_rule", "gpx_scale", "reflect_rule"]


def gpx_scale(base: JordanType, alpha: int, p: int) -> JordanType:
    """Scale a tensor decomposition from (m, n) up to (p^alpha m, p^alpha n).

    If base is the Jordan type of J_m tensor J_n over GF(p), the returned
    type is that of J_{p^alpha m} tensor J_{p^alpha n}: every block size and
    every multiplicity is multiplied by p^alpha. alpha = 0 is the identity.
    """
    if alpha < 0:
        raise ValueError(f"scaling exponent must be non-negative, got {alpha}")
    PrimeChar(int(p))
    q = int(p) ** alpha
    return JordanType({size * q: mult * q for size, mult in base})


def reflect_rule(
    m: int, n: int, p: int, *, max_entries: int | None = None
) -> JordanType | None:
    """Fold (m, n) across a power of p that separates max(m, n) from m + n.

    Applicable when some power q = p^alpha satisfies max(m, n) < q < m + n;
    such a q is unique because the next power up is already at least 2q.
    The type is then m + n - q full blocks of size q plus the type of the
    complementary pair (q - m, q - n), which the oracle supplies; max_entries
    is forwarded to that oracle call (None: the oracle's default). Returns
    None when no power of p lies in the window.
    """
    # imported here: the oracle routes its own pairs through this module
    from .oracle import DEFAULT_MAX_ENTRIES, tensor_block_type

    if m < 1 or n < 1:
        raise ValueError("tensor factors must have positive dimension")
    PrimeChar(int(p))
    if max_entries is None:
        max_entries = DEFAULT_MAX_ENTRIES
    q = int(p)
    while q < m + n:
        if q > max(m, n):
            complement = tensor_block_type(q - m, q - n, p, max_entries=max_entries)
            return JordanType({q: m + n - q}) + complement
        q *= p
    return None


def free_rule(m: int, alpha: int, p: int) -> JordanType:
    """Type of J_m tensor J_q for q = p^alpha and m <= q: m blocks of size q.

    A block whose size is a full power of p absorbs any factor no larger
    than itself, so the product splits into m copies of the largest block.
    """
    if alpha < 1:
        raise ValueError(f"exponent must be positive, got {alpha}")
    PrimeChar(int(p))
    q = int(p) ** alpha
    if not 1 <= m <= q:
        raise ValueError(f"factor dimension {m} must lie in 1..{q}")
    return JordanType({q: m})


def clebsch_gordan(m: int, n: int) -> JordanType:
    """Characteristic-zero ladder: sizes m+n-1, m+n-3, ..., |m-n|+1, once each.

    Over GF(p) this matches the true decomposition whenever m + n - 1 <= p,
    a sufficient bound: the oracle applies it only there, and the tests
    check it there against the graded engine. The function itself is
    prime-free and never fails.
    """
    if m < 1 or n < 1:
        raise ValueError("tensor factors must have positive dimension")
    return JordanType({size: 1 for size in range(m + n - 1, abs(m - n), -2)})
