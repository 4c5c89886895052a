"""Command-line interface.

Subcommands: contains, verify, construct, classify, exact, staircases,
table.  Exit codes: 0 success or affirmative verdict, 1 negative verdict,
2 usage or input error, 3 budget exceeded.  Machine output is JSON with a
format_version field; construct emits .01m text and table emits CSV unless
--json is given.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import classification, constructions, containment, exact, saturation
from .core import Matrix01, ParseError, Shape, cell_string, format_01m, parse_01m

FORMAT_VERSION = 1


def _load(path: str) -> Matrix01:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_01m(fh.read())


def _emit(payload: dict, stream=None) -> None:
    payload = {"format_version": FORMAT_VERSION, **payload}
    print(json.dumps(payload), file=stream or sys.stdout)


def _matrix_json(m: Matrix01) -> dict:
    return {"dims": list(m.shape.extents), "cells": cell_string(m), "weight": m.weight}


def _budget(args) -> exact.SearchBudget:
    return exact.SearchBudget(
        max_cells=args.budget_cells, time_limit=args.budget_seconds
    )


def _embedding_json(e) -> list[list[int]]:
    return [list(sel) for sel in e.selections]


def cmd_contains(args) -> int:
    host = _load(args.host)
    pattern = _load(args.pattern)
    emb = containment.contains(host, pattern)
    if emb is None:
        _emit({"found": False, "selections": None})
        return 1
    _emit({"found": True, "selections": _embedding_json(emb)})
    return 0


def cmd_verify(args) -> int:
    host = _load(args.host)
    pattern = _load(args.pattern)
    fn = (
        saturation.is_saturating
        if args.kind == "sat"
        else saturation.is_semisaturating
    )
    report = fn(host, pattern)
    counter = None
    if isinstance(report.counterexample, containment.Embedding):
        counter = {"selections": _embedding_json(report.counterexample)}
    elif report.counterexample is not None:
        counter = {"coord": list(report.counterexample)}
    _emit(
        {
            "verdict": report.verdict,
            "failure_kind": report.failure_kind,
            "counterexample": counter,
        }
    )
    return 0 if report.verdict else 1


def _print_matrix(m: Matrix01, args) -> None:
    if args.json:
        _emit({"matrix": _matrix_json(m)})
    else:
        sys.stdout.write(format_01m(m))


def cmd_construct(args) -> int:
    if args.kind == "identity-layers":
        if args.shape is None or args.k is None:
            raise ValueError("identity-layers needs --shape and --k")
        m = constructions.identity_layers(Shape(tuple(args.shape)), args.k)
    elif args.kind == "greedy":
        if args.pattern is None or args.shape is None:
            raise ValueError("greedy needs --pattern and --shape")
        shape = Shape(tuple(args.shape))
        order = constructions.cell_order(shape, args.seed)
        m = constructions.greedy_saturate(_load(args.pattern), shape, order)
    elif args.kind == "offset-block":
        if args.pattern is None or args.n is None:
            raise ValueError("offset-block needs --pattern and --n")
        anchor = tuple(args.anchor) if args.anchor else None
        m = constructions.offset_block(_load(args.pattern), args.n, anchor)
    elif args.kind == "corner-block":
        if args.pattern is None or args.n is None:
            raise ValueError("corner-block needs --pattern and --n")
        m = constructions.corner_block(_load(args.pattern), args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(format_01m(m))
        return 0
    _print_matrix(m, args)
    return 0


def cmd_classify(args) -> int:
    verdict = classification.classify_ssat(_load(args.pattern))
    face = (
        {"fixed": [list(pair) for pair in verdict.failing_face.fixed]}
        if verdict.failing_face is not None
        else None
    )
    _emit(
        {
            "bounded": verdict.bounded,
            "property_i_holds": verdict.property_i_holds,
            "property_ii_holds": verdict.property_ii_holds,
            "failing_face": face,
            "witness_entry": (
                list(verdict.witness_entry) if verdict.witness_entry else None
            ),
        }
    )
    return 0 if verdict.bounded else 1


def cmd_exact(args) -> int:
    shape = Shape(tuple(args.shape))
    pattern = _load(args.pattern)
    fn = {"ex": exact.exact_ex, "sat": exact.exact_sat, "ssat": exact.exact_ssat}[
        args.quantity
    ]
    try:
        res = fn(shape, pattern, _budget(args))
    except exact.BudgetExceededError as err:
        bounds = None
        if err.bounds is not None:
            bounds = dict(zip(("lower", "upper"), err.bounds))
        _emit(
            {
                "value": None,
                "bounds": bounds,
                "witness": None,
                "nodes": err.nodes,
                "status": "budget_exceeded",
                "reason": str(err),
            }
        )
        return 3
    _emit(
        {
            "value": res.value,
            "witness": _matrix_json(res.witness),
            "nodes": res.nodes,
            "status": "ok",
        }
    )
    return 0


def cmd_staircases(args) -> int:
    host = _load(args.host)
    if args.action == "extract":
        s = constructions.bottom_staircase(host)
        if s is None:
            _emit({"found": False, "coords": None})
            return 1
        _emit({"found": True, "coords": [list(c) for c in sorted(s)]})
        return 0
    layers = constructions.staircase_decompose(host, args.k)
    if layers is None:
        _emit({"found": False, "layers": None, "weights": None})
        return 1
    _emit(
        {
            "found": True,
            "layers": [[list(c) for c in sorted(layer)] for layer in layers],
            "weights": [len(layer) for layer in layers],
        }
    )
    return 0


TABLE_COLUMNS = ["n", "closed_form", "greedy_weight", "layers_weight", "oracle_sat", "oracle_ex"]
TABLE_DEFAULT_ORACLE_CELLS = 16


def cmd_table(args) -> int:
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    if args.n_lo > args.n_hi:
        raise ValueError("--n-lo must not exceed --n-hi")
    if args.n_lo < args.k + 1:
        raise ValueError("need n >= k + 1 so the pattern fits")
    pattern = constructions.identity_pattern(args.d, args.k + 1)
    budget = exact.SearchBudget(
        max_cells=(
            args.budget_cells
            if args.budget_cells is not None
            else TABLE_DEFAULT_ORACLE_CELLS
        ),
        time_limit=args.budget_seconds,
    )
    rows = []
    for n in range(args.n_lo, args.n_hi + 1):
        shape = Shape((n,) * args.d)
        closed = n**args.d - (n - args.k) ** args.d
        order = constructions.cell_order(shape, args.seed)
        greedy_w = constructions.greedy_saturate(pattern, shape, order).weight
        layers_w = constructions.identity_layers(shape, args.k).weight
        cells = {}
        for name, fn in (("oracle_sat", exact.exact_sat), ("oracle_ex", exact.exact_ex)):
            try:
                cells[name] = fn(shape, pattern, budget).value
            except exact.BudgetExceededError:
                cells[name] = "skipped"
        rows.append(
            {
                "n": n,
                "closed_form": closed,
                "greedy_weight": greedy_w,
                "layers_weight": layers_w,
                **cells,
            }
        )
    if args.json:
        _emit({"columns": TABLE_COLUMNS, "rows": rows})
        return 0
    print(f"# format_version={FORMAT_VERSION}")
    writer = csv.DictWriter(sys.stdout, fieldnames=TABLE_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return 0


def _add_shared(p: argparse.ArgumentParser, *, suppress: bool) -> None:
    """Budget/seed/json flags, accepted before or after the subcommand."""
    kw = {"default": argparse.SUPPRESS} if suppress else {"default": None}
    p.add_argument("--budget-cells", type=int, help="host cell cap for exact searches", **kw)
    p.add_argument("--budget-seconds", type=float, help="wall-clock cap for exact searches", **kw)
    p.add_argument("--seed", type=int, help="seed for pseudo-random greedy cell order", **kw)
    p.add_argument("--json", action="store_true",
                   default=argparse.SUPPRESS if suppress else False,
                   help="JSON output for construct/table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satmat",
        description="0-1 matrix pattern containment, saturation, and exact search",
    )
    _add_shared(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contains", help="test pattern containment, print a witness")
    p.add_argument("host")
    p.add_argument("pattern")
    _add_shared(p, suppress=True)
    p.set_defaults(fn=cmd_contains)

    p = sub.add_parser("verify", help="saturation / semisaturation verdict")
    p.add_argument("kind", choices=["sat", "ssat"])
    p.add_argument("host")
    p.add_argument("pattern")
    _add_shared(p, suppress=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("construct", help="emit a construction as .01m")
    p.add_argument(
        "--kind",
        required=True,
        choices=["identity-layers", "greedy", "offset-block", "corner-block"],
    )
    p.add_argument("--pattern", help=".01m pattern file")
    p.add_argument("--shape", type=int, nargs="+", help="host extents")
    p.add_argument("--k", type=int, help="layer count for identity-layers")
    p.add_argument("--n", type=int, help="host extent for offset/corner blocks")
    p.add_argument("--anchor", type=int, nargs="+", help="1-entry anchoring the offset block")
    p.add_argument("--output", "-o", help="write .01m here instead of stdout")
    _add_shared(p, suppress=True)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("classify", help="bounded-semisaturation verdict for a pattern")
    p.add_argument("pattern")
    _add_shared(p, suppress=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("exact", help="exact extremal values by search")
    p.add_argument("quantity", choices=["ex", "sat", "ssat"])
    p.add_argument("--shape", type=int, nargs="+", required=True)
    p.add_argument("--pattern", required=True)
    _add_shared(p, suppress=True)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("staircases", help="bottom staircase extraction / decomposition")
    p.add_argument("action", choices=["extract", "decompose"])
    p.add_argument("host")
    p.add_argument("--k", type=int, default=1, help="layer count for decompose")
    _add_shared(p, suppress=True)
    p.set_defaults(fn=cmd_staircases)

    p = sub.add_parser("table", help="identity-pattern sweep as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    _add_shared(p, suppress=True)
    p.set_defaults(fn=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except exact.BudgetExceededError as err:
        _emit({"status": "budget_exceeded", "reason": str(err)}, stream=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as err:
        _emit({"status": "error", "reason": str(err)}, stream=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
