"""Command line interface.

Commands: check, covers, dmax, verify, gen, dot.  Each analysis command
(check, covers, dmax, verify) is an answer function ``(cx, args) -> (exit
code, result)``; :func:`analyse` starts the clock, loads the complex, calls
the answer and prints the JSON report.  Exit codes are the machine contract:

  0   success (check: standard graded; verify: both routes agree)
  2   input or budget error
  10  check: not standard graded (witnesses embedded in the report)
  11  input is not a quasi-tree where one is required
  20  verify: the two routes disagree (bug artifact written, or null in the
      report when it cannot be)

The QCOVER_BUDGET environment variable overrides the cycle-search node
budget of check; verify's criterion always runs under the default budget.
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
from .cycles import DEFAULT_CYCLE_BUDGET
from .errors import NotQuasiTreeError, QcoverError, check_order, echo, parse_int
from .fileio import complex_digest, load_complex, to_json, to_text
from .gradedness import cross_validate, is_standard_graded
from .quasiforest import (
    _tree_from_steps,
    is_quasi_tree,
    max_branch_rule,
    min_branch_rule,
    peel_leaves,
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
        return check_order(parse_int(raw))
    except ValueError:
        raise QcoverError(
            f"QCOVER_BUDGET must be a nonnegative integer, got {echo(raw)}"
        ) from None


def _write_or_print(content: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        Path(out).write_text(content, encoding="utf-8")


def analyse(args: argparse.Namespace) -> int:
    """Load the complex, answer it, print the timed report, return the exit code."""
    t0 = time.monotonic()
    cx = load_complex(args.path)
    code, result = args.answer(cx, args)
    report = {
        "tool": "qcover",
        "version": __version__,
        "command": args.command,
        "input_digest": complex_digest(cx),
        "result": result,
        "timing_ms": round((time.monotonic() - t0) * 1000, 3),
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return code


def cmd_check(cx: SimplicialComplex, args: argparse.Namespace) -> tuple[int, dict]:
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
        return EXIT_NOT_QUASI_TREE, result
    verdict = is_standard_graded(cx, budget=_budget())
    result["verdict"] = verdict.to_dict()
    return EXIT_OK if verdict.standard_graded else EXIT_NOT_STANDARD_GRADED, result


def cmd_covers(cx: SimplicialComplex, args: argparse.Namespace) -> tuple[int, dict]:
    from .covers import indecomposable_covers

    payload = [c.to_dict() for c in indecomposable_covers(cx, args.k)]
    if args.emit_golden:
        Path(args.emit_golden).write_text(
            json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8"
        )
    return EXIT_OK, {"k": args.k, "count": len(payload), "covers": payload}


def cmd_dmax(cx: SimplicialComplex, args: argparse.Namespace) -> tuple[int, dict]:
    from .covers import max_generator_degree

    d, certs = max_generator_degree(cx, args.k_max)
    return EXIT_OK, {
        "k_max": args.k_max,
        "d": d,
        "certificates": {str(k): c.to_dict() for k, c in sorted(certs.items())},
        "note": (
            f"d = {d} within bound k_max = {args.k_max}; degrees above the "
            "bound were NOT explored and may exist"
        ),
    }


def cmd_verify(cx: SimplicialComplex, args: argparse.Namespace) -> tuple[int, dict]:
    rule = random_branch_rule(args.seed)
    try:
        report = cross_validate(
            cx, args.k_max, branch_rule=rule, sweep_smds=args.sweep_smds
        )
    except NotQuasiTreeError:
        return EXIT_NOT_QUASI_TREE, {"error": "not a quasi-tree"}
    result = report.to_dict()
    if report.agree:
        return EXIT_OK, result
    artifact = Path(f"qcover-disagreement-{complex_digest(cx)[:16]}.json")
    saved = {"facets": [list(row) for row in cx.rows], "report": result}
    try:
        artifact.write_text(json.dumps(saved, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:  # the disagreement is still the answer
        result["artifact"] = None
        print(f"error: disagreement artifact not written: {exc}", file=sys.stderr)
    else:
        result["artifact"] = str(artifact)
        print(f"disagreement artifact written to {artifact}", file=sys.stderr)
    return EXIT_DISAGREEMENT, result


def cmd_gen(args: argparse.Namespace) -> int:
    from .families import GeneratorSeed, delta_n, double_fan, random_quasi_tree

    if args.family == "delta-n":
        cx = delta_n(args.n)
    elif args.family == "double-fan":
        cx = double_fan()
    else:
        cx = random_quasi_tree(
            GeneratorSeed(args.seed, args.facets, args.max_facet_size)
        )
    content = to_text(cx) if args.format == "text" else to_json(cx)
    _write_or_print(content, args.out)
    return EXIT_OK


def cmd_dot(args: argparse.Namespace) -> int:
    cx = load_complex(args.path)
    rule = min_branch_rule if args.branch_rule == "min" else max_branch_rule
    if args.order is not None:
        try:
            order = [parse_int(tok) for tok in args.order.split(",")]
        except ValueError:
            raise QcoverError(
                f"--order must be comma-separated facet ids, got {echo(args.order)}"
            ) from None
        tree = relation_tree(cx, order, rule)
    else:
        steps = peel_leaves(cx)
        if steps is None:
            print("error: complex has no leaf order", file=sys.stderr)
            return EXIT_NOT_QUASI_TREE
        tree = _tree_from_steps(steps, rule)
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
    p.set_defaults(func=analyse, answer=cmd_check)

    p = sub.add_parser("covers", help="list indecomposable k-covers")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-golden", metavar="PATH", default=None)
    p.set_defaults(func=analyse, answer=cmd_covers)

    p = sub.add_parser("dmax", help="maximal generator degree up to a bound")
    p.add_argument("path")
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(func=analyse, answer=cmd_dmax)

    p = sub.add_parser("verify", help="cross-validate criterion vs brute force")
    p.add_argument("path")
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0, help="branch-rule shuffle seed")
    p.add_argument("--sweep-smds", action="store_true")
    p.set_defaults(func=analyse, answer=cmd_verify)

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
    # integer options follow the text-label rule; argparse's messages still say int
    for q in (*sub.choices.values(), *fam.choices.values()):
        q.register("type", int, parse_int)
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
