"""Assembled decomposition results, with optional independent verification.

A report bundles everything one query produces: the group context, the
input Jordan type, the carrier type (V tensor V* for SL, exterior square
for Sp, symmetric square for SO), the irreducible type, and the rule case
that produced it. Verification checks the answer by a route that calls no
rule: for SL it recomputes the irreducible type by elimination, for Sp and
SO it checks that the two squares add up to V tensor V*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construction import _split_adjoint_type
from .oracle import (
    DEFAULT_MAX_ENTRIES,
    ext2_type,
    sym2_type,
    tensor_dual_type,
)
from .partitions import JordanType
from .rules import (
    GroupContext,
    adjoint_rule,
    rule_case,
    so_2w1_rule,
    sp_w2_rule,
)

__all__ = ["DecompositionReport", "build_report"]


@dataclass(frozen=True)
class DecompositionReport:
    """One decomposition query's full result.

    verified is None when no check was requested, otherwise whether the
    irreducible type recomputed by elimination agrees (SL), or whether the
    carrier plus the other square equals V tensor V* (Sp/SO).
    """

    context: GroupContext
    input_type: JordanType
    carrier: JordanType
    irreducible: JordanType
    rule: str
    verified: bool | None = None

    def to_json_dict(self) -> dict:
        """JSON-ready record; partitions become [size, multiplicity] pairs."""
        return {
            "context": {
                "group": self.context.kind,
                "n": self.context.n,
                "p": self.context.p,
            },
            "input": [list(pair) for pair in self.input_type],
            "carrier": [list(pair) for pair in self.carrier],
            "irreducible": [list(pair) for pair in self.irreducible],
            "rule": self.rule,
            "verified": self.verified,
        }


def _verify(
    t: JordanType, ctx: GroupContext, carrier: JordanType, irreducible: JordanType, max_entries: int
) -> bool:
    """Check the answer by a route that calls no rule.

    SL: `construction._split_adjoint_type` recomputes the irreducible type
    from the memoized ranks of the pieces V_r tensor V_s^*, each from graded
    blocks at most min(r, s) wide, and two invariants per block size, by
    elimination; it uses no rule, no tensor-pair closed form and no
    elimination wider than max d + 2 columns.
    Sp/SO: the carrier plus the other square must equal V tensor V*, which
    is rule(carrier) + other == adjoint_rule(V tensor V*) with the block
    changes all three rules share taken off both sides. It checks how the
    squares are assembled from the memoized tensor pairs, not the pairs or
    the rules.
    """
    if ctx.kind == "SL":
        return _split_adjoint_type(t, ctx.p) == irreducible
    other = (sym2_type if ctx.kind == "Sp" else ext2_type)(t, ctx.p, max_entries=max_entries)
    return carrier + other == tensor_dual_type(t, ctx.p, max_entries=max_entries)


def build_report(
    t: JordanType,
    ctx: GroupContext,
    *,
    verify: bool = False,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> DecompositionReport:
    """Carrier and irreducible types for t in ctx; the group's rule refuses an invalid t."""
    p = ctx.p
    if ctx.kind == "SL":
        carrier = tensor_dual_type(t, p, max_entries=max_entries)
        irreducible = adjoint_rule(carrier, t, ctx)
    elif ctx.kind == "Sp":
        carrier = ext2_type(t, p, max_entries=max_entries)
        irreducible = sp_w2_rule(carrier, t, ctx)
    else:
        carrier = sym2_type(t, p, max_entries=max_entries)
        irreducible = so_2w1_rule(carrier, t, ctx)
    return DecompositionReport(
        context=ctx,
        input_type=t,
        carrier=carrier,
        irreducible=irreducible,
        rule=rule_case(t, p),
        verified=_verify(t, ctx, carrier, irreducible, max_entries) if verify else None,
    )
