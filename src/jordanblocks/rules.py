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

from .partitions import JordanType, PrimeChar, alpha_of

__all__ = [
    "GroupContext",
    "Verdict",
    "adjoint_rule",
    "rule_case",
    "so_2w1_rule",
    "sp_w2_rule",
    "validate_classical",
]

_KINDS = ("SL", "Sp", "SO")


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
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "p", int(PrimeChar(self.p)))
        if self.kind == "SL" and self.n < 2:
            raise ValueError(f"SL needs n >= 2, got {self.n}")
        if self.kind == "Sp":
            if self.n < 4 or self.n % 2:
                raise ValueError(f"Sp needs even n >= 4, got {self.n}")
        if self.kind == "SO" and self.n < 5:
            raise ValueError(f"SO needs n >= 5, got {self.n}")
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
    if ctx.kind == "Sp":
        bad_parity, label = 1, "odd"
    elif ctx.kind == "SO":
        bad_parity, label = 0, "even"
    else:
        return Verdict(True, None)
    for size, mult in t:
        if size % 2 == bad_parity and mult % 2:
            return Verdict(
                False,
                f"{label} size {size} has odd multiplicity {mult}, "
                f"impossible in {ctx.kind}",
            )
    return Verdict(True, None)


def rule_case(t: JordanType, p: int) -> str:
    """Which of the five adjustment cases fires for input type t over GF(p).

    The split is total and disjoint: (i) when p does not divide n; (ii)
    when p divides n but not every block size; otherwise alpha >= 1 and the
    sub-case depends on whether p still divides n / p^alpha and on whether
    p^alpha exceeds 2.
    """
    p = int(PrimeChar(p))
    n = t.dim
    if n % p:
        return "i"
    alpha = alpha_of(t, p)
    if alpha == 0:
        return "ii"
    q = p**alpha
    if (n // q) % p == 0:
        return "iii-a"
    return "iii-b" if q > 2 else "iii-c"


def _adjust(blocks: dict[int, int], size: int, change: int) -> None:
    have = blocks.get(size, 0) + change
    if have < 0:
        raise ValueError(
            f"cannot remove {-change} block(s) of size {size}: "
            f"only {blocks.get(size, 0)} present"
        )
    if have:
        blocks[size] = have
    else:
        blocks.pop(size, None)


def _apply_case(carrier: JordanType, case: str, q: int) -> JordanType:
    blocks = carrier.blocks
    if case == "i":
        _adjust(blocks, 1, -1)
    elif case == "ii":
        _adjust(blocks, 1, -2)
    elif case == "iii-a":
        _adjust(blocks, q, -2)
        _adjust(blocks, q - 1, +2)
    elif case == "iii-b":
        _adjust(blocks, q, -1)
        _adjust(blocks, q - 2, +1)
    else:
        _adjust(blocks, 2, -1)
    return JordanType(blocks)


def _rule(carrier: JordanType, t: JordanType, p: int) -> JordanType:
    case = rule_case(t, p)
    q = p ** alpha_of(t, p) if case.startswith("iii") else 0
    return _apply_case(carrier, case, q)


def adjoint_rule(carrier: JordanType, t: JordanType, ctx: GroupContext) -> JordanType:
    """Irreducible type from the V tensor V* type, for SL.

    carrier must be the type of u on V tensor V* when u acts on V with type
    t; the result drops to dimension n^2 - 1 or n^2 - 2 according to
    whether p divides n.
    """
    if ctx.kind != "SL":
        raise ValueError(f"adjoint_rule needs an SL context, got {ctx.kind}")
    if t.dim != ctx.n:
        raise ValueError(f"type has dimension {t.dim}, context needs {ctx.n}")
    return _rule(carrier, t, ctx.p)


def sp_w2_rule(carrier: JordanType, t: JordanType, ctx: GroupContext) -> JordanType:
    """Irreducible type from the exterior-square type, for Sp.

    Same five-way adjustment as the SL case, with n and alpha still read
    from the natural module; carrier must be the exterior-square type of t.
    """
    if ctx.kind != "Sp":
        raise ValueError(f"sp_w2_rule needs an Sp context, got {ctx.kind}")
    verdict = validate_classical(t, ctx)
    if not verdict.ok:
        raise ValueError(f"invalid symplectic type: {verdict.reason}")
    return _rule(carrier, t, ctx.p)


def so_2w1_rule(carrier: JordanType, t: JordanType, ctx: GroupContext) -> JordanType:
    """Irreducible type from the symmetric-square type, for SO.

    Mirror of the symplectic case with the symmetric square as carrier and
    the orthogonal multiplicity constraint on t.
    """
    if ctx.kind != "SO":
        raise ValueError(f"so_2w1_rule needs an SO context, got {ctx.kind}")
    verdict = validate_classical(t, ctx)
    if not verdict.ok:
        raise ValueError(f"invalid orthogonal type: {verdict.reason}")
    return _rule(carrier, t, ctx.p)

