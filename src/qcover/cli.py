"""Command line interface.

Commands: check, covers, dmax, verify, gen, dot.  Analysis commands print
a JSON report to stdout and use exit codes as the machine contract:

  0   success (check: standard graded; verify: both routes agree)
  2   input or budget error
  10  check: not standard graded (witnesses embedded in the report)
  11  input is not a quasi-tree where one is required
  20  verify: the two routes disagree (bug artifact written)

The cycle-search node budget can be overridden with the QCOVER_BUDGET
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .complexes import SimplicialComplex
from .covers import indecomposable_covers, max_generator_degree
from .cycles import DEFAULT_CYCLE_BUDGET
from .errors import NotQuasiTreeError, QcoverError
from .families import GeneratorSeed, delta_n, double_fan, random_quasi_tree
from .fileio import complex_digest, load_complex, to_json, to_text
from .gradedness import brute_force_verdict, cross_validate, is_standard_graded
from .quasiforest import (
    is_quasi_tree,
    leaf_order,
    max_branch_rule,
    min_branch_rule,
    random_branch_rule,
    relation_tree,
    relation_tree_dot,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_STANDARD_GRADED = 10
EXIT_NOT_QUASI_TREE = 11
EXIT_DISAGREEMENT = 20


def _budget() -> int:
    raw = os.environ.get("QCOVER_BUDGET")
    if raw is None:
        return DEFAULT_CYCLE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise QcoverError(f"QCOVER_BUDGET must be an integer, got {raw!r}") from None


def _emit_report(command: str, cx: SimplicialComplex, result: dict, t0: float) -> None:
    report = {
        "tool": "qcover",
        "version": __version__,
        "command": command,
        "input_digest": complex_digest(cx),
        "result": result,
        "timing_ms": round((time.monotonic() - t0) * 1000, 3),
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _write_or_print(content: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        Path(out).write_text(content, encoding="utf-8")


def cmd_check(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cx = load_complex(args.path)
    result: dict = {
        "vertex_count": cx.vertex_count,
        "facet_count": len(cx.facets),
        "dimension": cx.dimension(),
        "connected": cx.is_connected(),
        "is_quasi_tree": is_quasi_tree(cx),
    }
    if not result["is_quasi_tree"]:
        result["verdict"] = None
        result["note"] = "not a quasi-tree; use dmax/covers for bound-limited analysis"
        _emit_report("check", cx, result, t0)
        return EXIT_NOT_QUASI_TREE
    verdict = is_standard_graded(cx, budget=_budget())
    result["verdict"] = verdict.to_dict()
    _emit_report("check", cx, result, t0)
    return EXIT_OK if verdict.standard_graded else EXIT_NOT_STANDARD_GRADED


def cmd_covers(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cx = load_complex(args.path)
    covers = indecomposable_covers(cx, args.k)
    payload = [c.to_dict() for c in covers]
    if args.emit_golden:
        Path(args.emit_golden).write_text(
            json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8"
        )
    _emit_report(
        "covers", cx, {"k": args.k, "count": len(payload), "covers": payload}, t0
    )
    return EXIT_OK


def cmd_dmax(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cx = load_complex(args.path)
    d, certs = max_generator_degree(cx, args.k_max)
    result = {
        "k_max": args.k_max,
        "d": d,
        "certificates": {str(k): c.to_dict() for k, c in sorted(certs.items())},
        "note": (
            f"d = {d} within bound k_max = {args.k_max}; degrees above the "
            "bound were NOT explored and may exist"
        ),
    }
    _emit_report("dmax", cx, result, t0)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    cx = load_complex(args.path)
    rule = random_branch_rule(args.seed)
    try:
        report = cross_validate(
            cx, args.k_max, branch_rule=rule, sweep_smds=args.sweep_smds
        )
    except NotQuasiTreeError:
        _emit_report("verify", cx, {"error": "not a quasi-tree"}, t0)
        return EXIT_NOT_QUASI_TREE
    result = report.to_dict()
    if not report.agree:
        artifact = Path(f"qcover-disagreement-{complex_digest(cx)[:16]}.json")
        artifact.write_text(
            json.dumps(
                {"facets": [sorted(f) for f in cx.facets], "report": result},
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        result["artifact"] = str(artifact)
        print(f"disagreement artifact written to {artifact}", file=sys.stderr)
    _emit_report("verify", cx, result, t0)
    return EXIT_OK if report.agree else EXIT_DISAGREEMENT


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "delta-n":
        cx = delta_n(args.n)
    elif args.family == "double-fan":
        cx = double_fan()
    elif args.family == "random":
        cx = random_quasi_tree(
            GeneratorSeed(args.seed, args.facets, args.max_facet_size)
        )
    else:  # pragma: no cover - argparse restricts choices
        raise QcoverError(f"unknown family {args.family!r}")
    content = to_text(cx) if args.format == "text" else to_json(cx)
    _write_or_print(content, args.out)
    return EXIT_OK


def cmd_dot(args: argparse.Namespace) -> int:
    cx = load_complex(args.path)
    if args.order:
        try:
            order = [int(tok) for tok in args.order.split(",")]
        except ValueError:
            raise QcoverError(
                f"--order must be comma-separated facet ids, got {args.order!r}"
            ) from None
    else:
        order = leaf_order(cx)
        if order is None:
            print("error: complex has no leaf order", file=sys.stderr)
            return EXIT_NOT_QUASI_TREE
    rule = min_branch_rule if args.branch_rule == "min" else max_branch_rule
    tree = relation_tree(cx, order, rule)
    _write_or_print(relation_tree_dot(tree, cx), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcover",
        description=(
            "Decide standard gradedness of the vertex cover algebra of a "
            "quasi-tree, enumerate indecomposable k-covers, and emit witnesses."
        ),
    )
    parser.add_argument("--version", action="version", version=f"qcover {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="quasi-tree verdict via the cycle criterion")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("covers", help="list indecomposable k-covers")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-golden", metavar="PATH", default=None)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("dmax", help="maximal generator degree up to a bound")
    p.add_argument("path")
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(func=cmd_dmax)

    p = sub.add_parser("verify", help="cross-validate criterion vs brute force")
    p.add_argument("path")
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0, help="branch-rule shuffle seed")
    p.add_argument("--sweep-smds", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a family complex file")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("delta-n")
    q.add_argument("--n", type=int, required=True)
    q = fam.add_parser("double-fan")
    q = fam.add_parser("random")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--facets", type=int, required=True)
    q.add_argument("--max-facet-size", type=int, default=4)
    for q in fam.choices.values():
        q.add_argument("--out", default=None)
        q.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dot", help="relation-tree DOT export")
    p.add_argument("path")
    p.add_argument("--branch-rule", choices=("min", "max"), default="min")
    p.add_argument("--order", default=None, help="comma-separated facet ids")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, QcoverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
