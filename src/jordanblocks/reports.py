"""Assembled decomposition results, with optional independent verification.

A report bundles everything one query produces: the group context, the
input Jordan type, the carrier type (V tensor V* for SL, exterior square
for Sp, symmetric square for SO), the irreducible type, and the rule case
that produced it. Verification checks the answer by a route that calls no
rule: for SL it recomputes the carrier and the irreducible type by
elimination, for Sp and SO it checks that the two squares add up to
V tensor V*. `decompose --verify` checks the carrier and `irr` this way,
and any other module by that identity at odd p beside the report's carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .construction import _split_adjoint_type
from .oracle import DEFAULT_MAX_ENTRIES, ext2_type, sym2_type, tensor_dual_type
from .partitions import JordanType
from .rules import GroupContext, adjoint_rule, rule_case, so_2w1_rule, sp_w2_rule

__all__ = ["DecompositionReport", "build_report"]

_CARRIERS = {"SL": "tensor", "Sp": "ext2", "SO": "sym2"}


@dataclass(frozen=True)
class DecompositionReport:
    """One decomposition query's full result.

    verified is None when no check was requested, otherwise whether the
    carrier and the irreducible type recomputed by elimination agree (SL),
    or whether the carrier plus the other square equals V tensor V* (Sp/SO,
    whose irreducible type is the rule applied to that carrier).
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


def _module(
    name: str, t: JordanType, p: int, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Type of u on the module `name`: tensor (V tensor V*), ext2 or sym2."""
    engine = {"tensor": tensor_dual_type, "ext2": ext2_type, "sym2": sym2_type}[name]
    return engine(t, p, max_entries=max_entries)


def _squares_add_up(
    t: JordanType, p: int, max_entries: int = DEFAULT_MAX_ENTRIES, **known: JordanType
) -> bool:
    """ext2 + sym2 == tensor, as ∧²V ⊕ S²V = V ⊗ V ≅ V ⊗ V* at odd p; computes the rest."""
    m = {name: known[name] if name in known else _module(name, t, p, max_entries)
         for name in ("ext2", "sym2", "tensor")}
    return m["ext2"] + m["sym2"] == m["tensor"]


def _verify(report: DecompositionReport, max_entries: int = DEFAULT_MAX_ENTRIES) -> bool:
    """Check the report's answer by a route that calls no rule.

    SL: `construction._split_adjoint_type` recomputes the carrier and the
    irreducible type from the memoized ranks of the pieces V_r tensor V_s^*,
    each from graded blocks at most min(r, s) wide, and two invariants per
    block size from the same call as End(V_d), d + 2 wide; it uses no rule,
    no tensor-pair closed form and no elimination wider than that.
    Sp/SO: the carrier plus the other square must equal V tensor V*, which
    is rule(carrier) + other == adjoint_rule(V tensor V*) with the block
    changes all three rules share taken off both sides. It checks how the
    squares are assembled from the memoized tensor pairs, not the pairs or
    the rules.
    """
    t, ctx = report.input_type, report.context
    if ctx.kind == "SL":
        return (report.carrier, report.irreducible) == _split_adjoint_type(t, ctx.p)
    return _squares_add_up(t, ctx.p, max_entries, **{_CARRIERS[ctx.kind]: report.carrier})


def build_report(
    t: JordanType,
    ctx: GroupContext,
    *,
    verify: bool = False,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> DecompositionReport:
    """Carrier and irreducible types for t in ctx; the group's rule refuses an invalid t."""
    carrier = _module(_CARRIERS[ctx.kind], t, ctx.p, max_entries)
    rule = {"SL": adjoint_rule, "Sp": sp_w2_rule, "SO": so_2w1_rule}[ctx.kind]
    report = DecompositionReport(ctx, t, carrier, rule(carrier, t, ctx), rule_case(t, ctx.p))
    return replace(report, verified=_verify(report, max_entries)) if verify else report
