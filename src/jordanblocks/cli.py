"""Command-line front end: single queries, reference-table checks, sweeps.

Exit codes are stable for scripting: 0 success, 2 usage error (from
argparse), 3 domain validation error (bad prime, invalid partition, group
constraint, resource cap), 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .oracle import ext2_type, sym2_type, tensor_dual_type
from .partitions import JordanType, parse_jordan_type, partitions_of
from .reports import build_report
from .rules import GroupContext, validate_classical

__all__ = ["main"]

_GROUPS = {"sl": "SL", "sp": "Sp", "so": "SO"}
# first dimension and step of the dimensions each group's sweep covers
_SWEEP_DIMS = {"SL": (2, 1), "Sp": (4, 2), "SO": (5, 1)}

FixtureRow = tuple[int, int, JordanType, JordanType, JordanType]


def _load_fixture(path: str | None) -> list[FixtureRow]:
    if path is None:
        text = (
            resources.files("jordanblocks")
            .joinpath("data/table_rows.txt")
            .read_text(encoding="utf-8")
        )
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read fixture: {exc}") from exc
    rows: list[FixtureRow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(";")
        if len(fields) != 5:
            raise ValueError(f"fixture line {lineno} has {len(fields)} fields, need 5")
        n, p = int(fields[0]), int(fields[1])
        rows.append(
            (
                n,
                p,
                parse_jordan_type(fields[2]),
                parse_jordan_type(fields[3]),
                parse_jordan_type(fields[4]),
            )
        )
    if not rows:
        raise ValueError("fixture contains no data rows")
    return rows


def cmd_decompose(args: argparse.Namespace) -> int:
    t = parse_jordan_type(args.type)
    ctx = GroupContext(_GROUPS[args.group], t.dim, args.p)
    report = build_report(t, ctx, verify=args.verify)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        if args.rep == "tensor":
            shown = tensor_dual_type(t, ctx.p)
        elif args.rep == "ext2":
            shown = ext2_type(t, ctx.p)
        elif args.rep == "sym2":
            shown = sym2_type(t, ctx.p)
        else:
            shown = report.irreducible
        print(shown.render())
        if args.verify:
            print("verified: ok" if report.verified else "verified: MISMATCH")
    if args.verify and not report.verified:
        return 4
    return 0


def cmd_reproduce_table(args: argparse.Namespace) -> int:
    rows = _load_fixture(args.fixture)
    failures = 0
    for n, p, t_in, want_tensor, want_irr in rows:
        report = build_report(t_in, GroupContext("SL", n, p), verify=True)
        got_tensor, got_irr = report.carrier, report.irreducible
        ok = got_tensor == want_tensor and got_irr == want_irr and report.verified
        status = "ok" if ok else "MISMATCH"
        print(f"{status}  n={n} p={p} type=[{t_in.render()}]")
        if not ok:
            failures += 1
            print(f"    tensor: expected [{want_tensor.render()}], got [{got_tensor.render()}]")
            print(f"    irreducible: expected [{want_irr.render()}], got [{got_irr.render()}]"
                  + ("" if report.verified else "; the construction disagrees"))
    print(f"{len(rows) - failures}/{len(rows)} rows match")
    return 4 if failures else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    kind = _GROUPS[args.group]
    first, step = _SWEEP_DIMS[kind]
    # refuses a bad p, and Sp/SO at p = 2, even when --max-n leaves no dimension
    GroupContext(kind, first, args.p)
    for n in range(first, args.max_n + 1, step):
        ctx = GroupContext(kind, n, args.p)
        for t in partitions_of(n):
            if not validate_classical(t, ctx).ok:
                continue
            report = build_report(t, ctx)
            if args.multiplicity_free_only and not report.irreducible.is_multiplicity_free():
                continue
            if args.json:
                print(json.dumps(report.to_json_dict()))
            else:
                print(
                    f"{n};{args.p};{t.render()};{report.carrier.render()};"
                    f"{report.irreducible.render()};{report.rule}"
                )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanblocks",
        description="Jordan types of unipotent actions on tensor, square, "
        "and irreducible modules over GF(p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose a single input type")
    dec.add_argument("--p", type=int, required=True, help="prime characteristic")
    dec.add_argument("--type", required=True, help="partition, e.g. '1^2, 3'")
    dec.add_argument("--group", choices=sorted(_GROUPS), default="sl")
    dec.add_argument(
        "--rep",
        choices=["tensor", "ext2", "sym2", "irr"],
        default="irr",
        help="which module's Jordan type to print",
    )
    dec.add_argument(
        "--verify",
        action="store_true",
        help="recompute the irreducible type a second way and report agreement",
    )
    dec.add_argument("--json", action="store_true", help="emit the full report as JSON")
    dec.set_defaults(func=cmd_decompose)

    rep = sub.add_parser(
        "reproduce-table", help="recompute every bundled reference row"
    )
    rep.add_argument(
        "--fixture", help="alternative fixture file (default: bundled table)"
    )
    rep.set_defaults(func=cmd_reproduce_table)

    swp = sub.add_parser("sweep", help="decompose every valid type up to a dimension")
    swp.add_argument("--p", type=int, required=True, help="prime characteristic")
    swp.add_argument("--max-n", type=int, default=6, help="largest dimension to cover")
    swp.add_argument("--group", choices=sorted(_GROUPS), default="sl")
    swp.add_argument(
        "--multiplicity-free-only",
        action="store_true",
        help="only rows whose irreducible type is multiplicity-free",
    )
    swp.add_argument("--json", action="store_true", help="one JSON record per row")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
