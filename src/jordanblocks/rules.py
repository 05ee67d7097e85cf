"""Closed-form passage from carrier Jordan types to irreducible ones.

Given the Jordan type of a unipotent element on a carrier module (V tensor
V* for SL, the exterior square for Sp, the symmetric square for SO), the
type on the irreducible composition factor of highest weight differs from
it by removing one or two blocks, with the exact adjustment decided by a
five-way case split on n = dim V, p, and the largest level alpha the input
type admits. The functions here apply that split; they never recompute the
carrier, so they compose with either the elimination oracle or closed-form
carrier predictions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .partitions import JordanType, alpha_of, characteristic

__all__ = [
    "GroupContext",
    "Verdict",
    "adjoint_rule",
    "rule_case",
    "so_2w1_rule",
    "sp_w2_rule",
    "validate_classical",
]

# kind -> (least n, step in n, parity of the sizes needing even multiplicity or None)
_DOMAINS = {"SL": (2, 1, None), "Sp": (4, 2, 1), "SO": (5, 1, 0)}


@dataclass(frozen=True)
class GroupContext:
    """A classical group choice: kind in {SL, Sp, SO}, natural dimension, prime.

    Construction enforces the domain: SL needs n >= 2; Sp needs n >= 4 and
    even; SO needs n >= 5; and Sp/SO are rejected outright at p = 2, where
    the symmetric and exterior squares stop splitting the tensor square and
    the analysis implemented here does not apply. n and p must be integers
    (numpy integers included) and are stored as plain ints.
    """

    kind: str
    n: int
    p: int

    def __post_init__(self) -> None:
        if self.kind not in _DOMAINS:
            raise ValueError(f"kind must be one of {tuple(_DOMAINS)}, got {self.kind!r}")
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "p", characteristic(self.p))
        least, step, _ = _DOMAINS[self.kind]
        if self.n < least or (self.n - least) % step:
            even = "even " * (step == 2)
            raise ValueError(f"{self.kind} needs {even}n >= {least}, got {self.n}")
        if self.kind in ("Sp", "SO") and self.p == 2:
            raise ValueError(
                f"{self.kind} at p = 2 is unsupported: the square carriers do "
                "not split off the irreducible factor the way they do in odd "
                "characteristic"
            )


class Verdict(NamedTuple):
    """Validation outcome; reason is None exactly when ok."""

    ok: bool
    reason: str | None


def validate_classical(t: JordanType, ctx: GroupContext) -> Verdict:
    """Whether t occurs as a unipotent class of the group ctx describes.

    Any partition of n works for SL. For Sp every odd block size must have
    even multiplicity; for SO every even block size must. The dimension
    must equal ctx.n in all cases.
    """
    if t.dim != ctx.n:
        return Verdict(False, f"type has dimension {t.dim}, context needs {ctx.n}")
    parity = _DOMAINS[ctx.kind][2]
    if parity is None:
        return Verdict(True, None)
    for size, mult in t:
        if size % 2 == parity and mult % 2:
            return Verdict(
                False,
                f"{'odd' if parity else 'even'} size {size} has odd multiplicity {mult}, "
                f"impossible in {ctx.kind}",
            )
    return Verdict(True, None)


def _case(t: JordanType, p: int) -> tuple[str, list[tuple[int, int]]]:
    """The adjustment case for t over GF(p) and its (size, change) block
    changes to the carrier, with q = p^alpha and alpha computed once."""
    n = t.dim
    if n % p:
        return "i", [(1, -1)]
    q = p ** alpha_of(t, p)
    if q == 1:
        return "ii", [(1, -2)]
    if (n // q) % p == 0:
        return "iii-a", [(q, -2), (q - 1, 2)]
    if q > 2:
        return "iii-b", [(q, -1), (q - 2, 1)]
    return "iii-c", [(2, -1)]


def rule_case(t: JordanType, p: int) -> str:
    """Which of the five adjustment cases fires for input type t over GF(p).

    The split is total and disjoint: (i) when p does not divide n; (ii)
    when p divides n but not every block size; otherwise alpha >= 1 and the
    sub-case depends on whether p still divides n / p^alpha and on whether
    p^alpha exceeds 2.
    """
    return _case(t, characteristic(p))[0]


def _rule(carrier: JordanType, t: JordanType, ctx: GroupContext, kind: str) -> JordanType:
    """The irreducible type from the carrier type of t, for every kind alike:
    check the context and t, then make the case's block changes."""
    if ctx.kind != kind:
        raise ValueError(f"the {kind} rule needs an {kind} context, got {ctx.kind}")
    verdict = validate_classical(t, ctx)
    if not verdict.ok:
        raise ValueError(f"invalid {kind} type: {verdict.reason}")
    blocks = carrier.blocks
    for size, change in _case(t, ctx.p)[1]:
        have = blocks.get(size, 0)
        if have + change < 0:
            raise ValueError(
                f"cannot remove {-change} block(s) of size {size}: only {have} present"
            )
        blocks[size] = have + change
    return JordanType((size, mult) for size, mult in blocks.items() if mult)


def adjoint_rule(carrier: JordanType, t: JordanType, ctx: GroupContext) -> JordanType:
    """Irreducible type from the V tensor V* type, for SL.

    carrier must be the type of u on V tensor V* when u acts on V with type
    t; the result drops to dimension n^2 - 1 or n^2 - 2 according to
    whether p divides n.
    """
    return _rule(carrier, t, ctx, "SL")


def sp_w2_rule(carrier: JordanType, t: JordanType, ctx: GroupContext) -> JordanType:
    """Irreducible type from the exterior-square type, for Sp.

    Same five-way adjustment as the SL case, with n and alpha still read
    from the natural module; carrier must be the exterior-square type of t.
    """
    return _rule(carrier, t, ctx, "Sp")


def so_2w1_rule(carrier: JordanType, t: JordanType, ctx: GroupContext) -> JordanType:
    """Irreducible type from the symmetric-square type, for SO.

    Mirror of the symplectic case with the symmetric square as carrier and
    the orthogonal multiplicity constraint on t.
    """
    return _rule(carrier, t, ctx, "SO")
