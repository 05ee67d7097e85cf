"""Closed-form identities for Jordan types of tensor products of blocks.

Each function here gives the Jordan type of J_m tensor J_n over GF(p) in
some restricted regime, without building a matrix. None of them looks up
another tensor pair: a rule that builds on a smaller pair (`gpx_scale`,
`reflect_rule`) takes that pair's type as an argument, so this module
depends on `partitions` alone. `oracle` decides which rule answers each
pair and supplies the smaller pairs from its memo. The scaling and free
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
    q = int(PrimeChar(p)) ** alpha
    return JordanType({size * q: mult * q for size, mult in base})


def reflect_rule(m: int, n: int, p: int, folded: JordanType) -> JordanType:
    """Fold (m, n) across a power q of p with max(m, n) < q < m + n.

    Such a q is unique, because the next power up is already at least 2q.
    folded must be the type of the folded pair J_(q-m) tensor J_(q-n), given
    the way `gpx_scale` is given its base. The type of (m, n) is then
    m + n - q blocks of size q plus folded. Raises ValueError when no power
    of p lies in the window or folded has the wrong dimension.
    """
    q = p = int(PrimeChar(p))
    while q <= max(m, n):
        q *= p
    if q >= m + n:
        raise ValueError(f"no power of {p} lies strictly between {max(m, n)} and {m + n}")
    if folded.dim != (q - m) * (q - n):
        raise ValueError(f"folded type has dimension {folded.dim}, expected {(q - m) * (q - n)}")
    return JordanType({q: m + n - q}) + folded


def free_rule(m: int, alpha: int, p: int) -> JordanType:
    """Type of J_m tensor J_q for q = p^alpha and m <= q: m blocks of size q.

    A block whose size is a full power of p absorbs any factor no larger
    than itself, so the product splits into m copies of the largest block.
    """
    if alpha < 1:
        raise ValueError(f"exponent must be positive, got {alpha}")
    q = int(PrimeChar(p)) ** alpha
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
