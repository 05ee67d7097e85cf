"""Assembled decomposition results, with optional independent verification.

A report bundles everything one query produces: the group context, the
input Jordan type, the carrier type (V tensor V* for SL, exterior square
for Sp, symmetric square for SO), the irreducible type, and the rule case
that produced it. Verification recomputes the irreducible type by a second
route and records agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    validate_classical,
)

__all__ = ["DecompositionReport", "build_report"]


@dataclass(frozen=True)
class DecompositionReport:
    """One decomposition query's full result.

    verified is None when no cross-check was requested, otherwise the
    outcome of recomputing the irreducible type a second way.
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


def _verify(report: DecompositionReport, max_entries: int) -> bool:
    """Recompute the irreducible type by an independent route.

    SL: `construction._split_adjoint_type` reads the adjoint module's type
    summand by summand by elimination, with no rule, no tensor-pair engine
    and no matrix of more than (max d)^2 rows: each piece V_r tensor V_s^*
    from its own memoized rank chain, and the diagonal part, restricted to
    the evaluation form's kernel and taken mod the identity when p | n, from
    the (d, d) pieces and two invariants per block size d. Those invariants
    are a second derivation by elimination, not a copy of a rule. Sp/SO:
    check the complementary-square identity, i.e. that the irreducible type
    plus the other square equals the SL result on V tensor V*.
    """
    ctx = report.context
    t = report.input_type
    if ctx.kind == "SL":
        return _split_adjoint_type(t, ctx.p) == report.irreducible
    sl_ctx = GroupContext("SL", ctx.n, ctx.p)
    adjoint = adjoint_rule(
        tensor_dual_type(t, ctx.p, max_entries=max_entries), t, sl_ctx
    )
    if ctx.kind == "Sp":
        other = sym2_type(t, ctx.p, max_entries=max_entries)
    else:
        other = ext2_type(t, ctx.p, max_entries=max_entries)
    return report.irreducible + other == adjoint


def build_report(
    t: JordanType,
    ctx: GroupContext,
    *,
    verify: bool = False,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> DecompositionReport:
    """Compute carrier and irreducible types for t in the given context."""
    verdict = validate_classical(t, ctx)
    if not verdict.ok:
        raise ValueError(verdict.reason)
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
    report = DecompositionReport(
        context=ctx,
        input_type=t,
        carrier=carrier,
        irreducible=irreducible,
        rule=rule_case(t, p),
    )
    if verify:
        report = replace(report, verified=_verify(report, max_entries))
    return report
