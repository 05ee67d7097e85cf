"""Command-line front end: single queries, reference-table checks, sweeps.

Exit codes are stable for scripting: 0 success, 2 usage error (from
argparse), 3 domain validation error (bad prime, invalid partition, group
constraint, resource cap), 4 verification mismatch, 141 the reader closed
stdout early (as the shell reports a SIGPIPE death).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import cache
from importlib import resources
from pathlib import Path

from .linalg import _working_dtype
from .partitions import JordanType, parse_jordan_type, partitions_of
from .reports import _module, _verify, build_report
from .rules import _DOMAINS, GroupContext, validate_classical

__all__ = ["main"]

_GROUPS = {kind.lower(): kind for kind in _DOMAINS}

FixtureRow = tuple[int, int, JordanType, JordanType, JordanType]


def _load_fixture(path: str | None) -> list[FixtureRow]:
    source = resources.files("jordanblocks") / "data" / "table_rows.txt" if path is None else Path(path)
    try:
        text = source.read_text(encoding="utf-8")
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
        # every row is checked before any runs, so a bad row names its line
        try:
            n, p = int(fields[0]), int(fields[1])
            GroupContext("SL", n, p)
            _working_dtype(p, 2)  # a prime past int64 would be refused mid-run
            t, tensor, irr = (parse_jordan_type(f) for f in fields[2:])
            if t.dim != n:
                raise ValueError(f"type has dimension {t.dim}, row says n = {n}")
        except ValueError as exc:
            raise ValueError(f"fixture line {lineno}: {exc}") from exc
        rows.append((n, p, t, tensor, irr))
    if not rows:
        raise ValueError("fixture contains no data rows")
    return rows


def cmd_decompose(args: argparse.Namespace) -> int:
    t = parse_jordan_type(args.type)
    ctx = GroupContext(_GROUPS[args.group], t.dim, args.p)
    # only the printed module: the report's carrier may pass a cap that it does not
    report = build_report(t, ctx) if args.rep == "irr" else None
    shown = report.irreducible if report else _module(args.rep, t, ctx)
    if args.verify:
        try:  # the answer is built, so only the check can refuse here
            report = report or build_report(t, ctx)
            printed = {} if args.rep == "irr" else {args.rep: shown}
            report = replace(report, verified=_verify(report, **printed))
        except ValueError as exc:
            raise ValueError(f"{exc}; drop --verify to get the answer without the check") from None
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(shown.render())
        if args.verify:
            print("verified: ok" if report.verified else "verified: MISMATCH")
    return 4 if args.verify and not report.verified else 0


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
    first, step, _ = _DOMAINS[kind]
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing keeps no state."""
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
        help="check the printed module: SL recomputes tensor and irr by elimination; Sp/SO "
        "check carrier + other square == V tensor V*, irr being the rule applied to that "
        "carrier; any other --rep is checked at odd p by ext2 + sym2 == V tensor V* beside "
        "the checked carrier",
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "decompose" and args.json and args.rep != "irr":
        parser.error("--json prints the whole report, which has no --rep other than irr")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader left (`sweep ... | head`); send what is still buffered to
        # devnull so that the interpreter's last flush does not raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
