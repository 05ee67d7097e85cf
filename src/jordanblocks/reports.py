"""Assembled decomposition results, with optional independent verification.

A report bundles everything one query produces: the group context, the
input Jordan type, the carrier type (V tensor V* for SL, exterior square
for Sp, symmetric square for SO), the irreducible type, and the rule case
that produced it. `_verify` checks it by a route that calls no rule, and it
alone decides, and states, which check reads which module; `decompose
--verify` passes it the module that it prints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .construction import _split_adjoint_type
from .oracle import DEFAULT_MAX_ENTRIES, ext2_type, sym2_type, tensor_dual_type
from .partitions import JordanType
from .rules import GroupContext, adjoint_rule, rule_case, so_2w1_rule, sp_w2_rule, validate_classical

__all__ = ["DecompositionReport", "build_report"]

_CARRIERS = {"SL": "tensor", "Sp": "ext2", "SO": "sym2"}


@dataclass(frozen=True)
class DecompositionReport:
    """One decomposition query's full result.

    verified is None when no check was requested, otherwise whether the
    check that `_verify` chose for the group passed: on the carrier and the
    irreducible type here, or, from `decompose --verify`, on the module that
    the CLI printed and passed in.
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
    name: str, t: JordanType, ctx: GroupContext, max_entries: int = DEFAULT_MAX_ENTRIES
) -> JordanType:
    """Type of u on the module `name`: tensor (V tensor V*), ext2 or sym2; a t
    that ctx cannot hold is refused first, so that no engine's cap hides why."""
    verdict = validate_classical(t, ctx)
    if not verdict.ok:
        raise ValueError(f"invalid {ctx.kind} type: {verdict.reason}")
    engine = {"tensor": tensor_dual_type, "ext2": ext2_type, "sym2": sym2_type}[name]
    return engine(t, ctx.p, max_entries=max_entries)


def _verify(
    report: DecompositionReport, max_entries: int = DEFAULT_MAX_ENTRIES, **printed: JordanType
) -> bool:
    """The one check `--verify` makes, by a route that calls no rule.

    `printed` is the module `decompose` shows (tensor, ext2 or sym2; none for
    irr). It stands in its slot, the report's carrier in the group's own.
    - SL tensor or irr: `construction._split_adjoint_type` recomputes both from
      the memoized graded ranks of each piece V_r tensor V_s^*, in Python
      ints at every prime; no tensor-pair closed form.
    - Sp/SO any rep, SL ext2 or sym2 at odd p: ext2 + sym2 == tensor, as
      ∧²V ⊕ S²V = V ⊗ V ≅ V ⊗ V*, the missing modules computed under
      max_entries; for Sp/SO irr, rule(carrier) + other == adjoint_rule(tensor)
      less the block changes the rules share. It reads how the squares are
      assembled from the memoized pairs, not the pairs, so SL adds the above.
    - SL ext2 or sym2 at p = 2: ValueError, before any rank.
    """
    t, ctx = report.input_type, report.context
    known = {_CARRIERS[ctx.kind]: report.carrier, **printed}
    if known.keys() == {"tensor"}:
        return (known["tensor"], report.irreducible) == _split_adjoint_type(t, ctx.p)
    if ctx.p == 2:
        raise ValueError("no check reads the exterior square at p = 2")
    m = {name: known[name] if name in known else _module(name, t, ctx, max_entries)
         for name in ("ext2", "sym2", "tensor")}
    return m["ext2"] + m["sym2"] == m["tensor"] and (ctx.kind != "SL" or _verify(report))


def build_report(
    t: JordanType,
    ctx: GroupContext,
    *,
    verify: bool = False,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> DecompositionReport:
    """Carrier and irreducible types for t in ctx; `_module` refuses a t that
    ctx cannot hold before it computes the carrier."""
    carrier = _module(_CARRIERS[ctx.kind], t, ctx, max_entries)
    rule = {"SL": adjoint_rule, "Sp": sp_w2_rule, "SO": so_2w1_rule}[ctx.kind]
    report = DecompositionReport(ctx, t, carrier, rule(carrier, t, ctx), rule_case(t, ctx.p))
    return replace(report, verified=_verify(report, max_entries)) if verify else report
