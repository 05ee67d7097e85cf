"""Closed-form identities for Jordan types of tensor products of blocks.

Each of the five functions here gives the Jordan type of J_m tensor J_n
over GF(p) in some restricted regime, without building a matrix. None of
them decides which pair to look up: a rule that builds on smaller pairs is
given their types (`gpx_scale` its base, `reflect_rule` its folded pair) or
a lookup (`two_level_rule`, whose split of m and n decides which pairs it
needs), so this module depends on `partitions` alone. `oracle` decides which
rule answers each pair and supplies the smaller pairs from its memo. The
scaling, free and two-level identities are due to Renaud (J. Algebra 58,
1979) and Glasby-Praeger-Xia (J. Algebra 2016). The tests compare every
rule against the graded rank engine on its stated domain, and none
is applied outside that domain.
"""

from __future__ import annotations

from collections.abc import Callable

from .partitions import JordanType, characteristic

__all__ = ["clebsch_gordan", "free_rule", "gpx_scale", "reflect_rule", "two_level_rule"]


def gpx_scale(base: JordanType, alpha: int, p: int) -> JordanType:
    """Scale a tensor decomposition from (m, n) up to (p^alpha m, p^alpha n).

    If base is the Jordan type of J_m tensor J_n over GF(p), the returned
    type is that of J_{p^alpha m} tensor J_{p^alpha n}: every block size and
    every multiplicity is multiplied by p^alpha. alpha = 0 is the identity.
    """
    if alpha < 0:
        raise ValueError(f"scaling exponent must be non-negative, got {alpha}")
    q = characteristic(p) ** alpha
    return JordanType({size * q: mult * q for size, mult in base})


def reflect_rule(m: int, n: int, p: int, folded: JordanType) -> JordanType:
    """Fold (m, n) across a power q of p with max(m, n) < q < m + n.

    Such a q is unique, because the next power up is already at least 2q.
    folded must be the type of the folded pair J_(q-m) tensor J_(q-n), given
    the way `gpx_scale` is given its base. The type of (m, n) is then
    m + n - q blocks of size q plus folded. Raises ValueError when no power
    of p lies in the window or folded has the wrong dimension.
    """
    q = p = characteristic(p)
    while q <= max(m, n):
        q *= p
    if q >= m + n:
        raise ValueError(f"no power of {p} lies strictly between {max(m, n)} and {m + n}")
    if folded.dim != (q - m) * (q - n):
        raise ValueError(f"folded type has dimension {folded.dim}, expected {(q - m) * (q - n)}")
    return JordanType({q: m + n - q}) + folded


def two_level_rule(
    m: int, n: int, p: int, pair: Callable[[int, int], JordanType]
) -> JordanType:
    """J_m tensor J_n from Renaud's two-level identity, when m + n <= pq.

    q is the largest power of p below max(m, n), and q >= p is required.
    pair(a, b) must return the type of J_a tensor J_b; it is asked only for
    pairs no wider than q. Each size k = aq + c with 1 <= c <= q splits as
    V_k = W_(a+1) V_c + W_a V_(q-c), where W_x is a block of the top level
    and V_c one of the bottom level; terms of size 0 drop. Multiplying out,
    W_x W_y is pair(x, y) and V_c V_d is pair(c, d), which puts a
    coefficient on each W_A V_C. Read back from the largest A present, a
    coefficient k on W_A V_C is k blocks of size (A-1)q + C, and when A > 1
    and C < q those blocks already account for k of W_(A-1) V_(q-C). Raises
    ValueError outside the domain and AssertionError on a negative
    coefficient.
    """
    p = characteristic(p)
    q = 1
    while q * p < max(m, n):
        q *= p
    if q < p or m + n > p * q:
        raise ValueError(f"two-level rule needs p < max(m, n) and m + n <= pq, got ({m}, {n}) at p = {p}")

    def split(k: int) -> list[tuple[int, int]]:
        a, c = divmod(k - 1, q)
        return [(w, v) for w, v in ((a + 1, c + 1), (a, q - c - 1)) if w and v]

    coef: dict[int, dict[int, int]] = {}
    for x, c in split(m):
        for y, d in split(n):
            bottom = pair(c, d)
            for big, ka in pair(x, y):
                row = coef.setdefault(big, {})
                for small, kc in bottom:
                    row[small] = row.get(small, 0) + ka * kc
    blocks: list[tuple[int, int]] = []
    while coef:
        big = max(coef)
        for small, k in coef.pop(big).items():
            if k < 0:
                raise AssertionError(f"negative coefficient {k} on W_{big} V_{small} for ({m}, {n}) at p = {p}")
            if k:
                blocks.append(((big - 1) * q + small, k))
                if big > 1 and small < q:
                    row = coef.setdefault(big - 1, {})
                    row[q - small] = row.get(q - small, 0) - k
    return JordanType(blocks)


def free_rule(m: int, alpha: int, p: int) -> JordanType:
    """Type of J_m tensor J_q for q = p^alpha and m <= q: m blocks of size q.

    A block whose size is a full power of p absorbs any factor no larger
    than itself, so the product splits into m copies of the largest block.
    """
    if alpha < 1:
        raise ValueError(f"exponent must be positive, got {alpha}")
    q = characteristic(p) ** alpha
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
