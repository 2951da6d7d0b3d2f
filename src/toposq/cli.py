"""Command line interface.

Subcommands:
  contexts    build a context poset from context files and print it
  das-proj    daseinise a projection over a poset built from context files
  das-op      compute the operator arrow of a self-adjoint operator
  value       generalised value of an operator in a vector state, with report
  props       run the randomized property suites
  spin1-demo  deterministic spin-1 walkthrough

Common flags: --tol, --seed, --close-coarsening, --close-intersection,
--format {table,json}. Exit codes: 0 success, 1 input error (contexts whose
inclusion is not transitive at the tolerance among them), 2 property-suite
failure, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from itertools import islice

from .config import default_tolerance, resolve_tolerance
from .contexts import ContextPoset, build_poset
from .daseinisation import daseinise_projection
from .demo import render_demo, spin1_demo_doc
from .errors import InternalInvariantViolation, ToposqError
from .operators import operator_arrow
from .serialization import (
    arrow_to_doc,
    load_context,
    load_matrix,
    load_projection,
    load_vector,
    poset_to_doc,
    report_to_doc,
    round12,
    subobject_to_doc,
    value_to_doc,
)
from .states import containment_report, pseudo_state, value

__all__ = ["main"]


def _emit_json(doc) -> None:
    """The document, indented and key-sorted, then one newline: the bytes of
    print(json.dumps(...)), streamed to stdout in pieces of 4,096 encoder
    chunks. So the whole indented text is never held, and an unbuffered
    stdout (PYTHONUNBUFFERED) gets one write per piece, not one per chunk."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    while piece := "".join(islice(chunks, 4096)):
        sys.stdout.write(piece)
    sys.stdout.write("\n")


def _format_intervals(intervals) -> str:
    """(id, mu, nu) triples as "id: [mu, nu], ..." at 12 significant digits."""
    return ", ".join(f"{cid}: [{round12(lo):g}, {round12(hi):g}]" for cid, lo, hi in intervals)


def _build_poset_from_files(paths, args: argparse.Namespace) -> ContextPoset:
    seeds = [load_context(path, args.tol) for path in paths]
    return build_poset(
        seeds,
        close_coarsening=args.close_coarsening,
        close_intersection=args.close_intersection,
        tol=args.tol,
    )


def cmd_contexts(args: argparse.Namespace) -> int:
    poset = _build_poset_from_files(args.files, args)
    if args.format == "json":
        _emit_json(poset_to_doc(poset))
        return 0
    print(f"contexts: {len(poset)}")
    for ctx in poset:
        ranks = "+".join(str(a.rank) for a in ctx.atoms)
        print(f"  {ctx.id}  atoms={ctx.n_atoms}  ranks={ranks}")
    pairs = poset.strict_pairs()
    print(f"inclusions: {len(pairs)}")
    for sub, sup in pairs:
        print(f"  {sub} <= {sup}")
    return 0


def cmd_das_proj(args: argparse.Namespace) -> int:
    p = load_projection(args.projection, args.tol)
    poset = _build_poset_from_files(args.contexts, args)
    sub = daseinise_projection(p, poset, args.tol)
    # The outer projection at v is the sum of the atoms in sub's component.
    ranks = {v.id: sum(v.atom(i).rank for i in sub.component(v.id)) for v in poset}
    if args.format == "json":
        _emit_json({**subobject_to_doc(sub), "outer_ranks": ranks})
        return 0
    print(f"outer daseinisation of a rank-{p.rank} projection over {len(poset)} contexts")
    for v in poset:
        print(f"  {v.id}  rank={ranks[v.id]}  points={sorted(sub.component(v.id))}")
    return 0


def cmd_das_op(args: argparse.Namespace) -> int:
    a = load_matrix(args.operator, args.tol)
    poset = _build_poset_from_files(args.contexts, args)
    arrow = operator_arrow(a, poset, args.tol)
    if args.format == "json":
        _emit_json(arrow_to_doc(arrow))
        return 0
    print(f"operator arrow over {len(poset)} contexts")
    for v in poset:
        for index in range(v.n_atoms):
            intervals = _format_intervals(arrow.pair(v.id, index).intervals())
            print(f"  {v.id} point {index}: {intervals}")
    return 0


def cmd_value(args: argparse.Namespace) -> int:
    a = load_matrix(args.operator, args.tol)
    psi = load_vector(args.state, args.tol)
    poset = _build_poset_from_files(args.contexts, args)
    arrow = operator_arrow(a, poset, args.tol)
    state = pseudo_state(psi, poset, args.tol)
    report = containment_report(arrow, state, psi, a, args.tol)
    if args.format == "json":
        _emit_json({**value_to_doc(value(arrow, state)), "report": report_to_doc(report)})
        return 0
    print(f"expectation: {round12(report.expectation):g}")
    for row in report.rows:
        intervals = _format_intervals(row.intervals)
        status = "ok" if row.ok else f"VIOLATES at {list(row.violations)}"
        print(f"  {row.context_id} point {row.point_index}: {intervals} ({status})")
    print("containment: " + ("ok" if report.ok else f"{len(report.violations)} violation(s)"))
    return 0


def cmd_props(args: argparse.Namespace) -> int:
    # Imported here, so the other subcommands do not load the suites.
    from .suites import run_all

    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise ValueError(
            f"props needs comma-separated integer dimensions, got {args.dims!r}"
        ) from None
    results = run_all(dims=dims, trials=args.trials, seed=args.seed, tol=args.tol)
    failures = sum(r.failures for r in results)
    if args.format == "json":
        _emit_json({"suites": [asdict(r) for r in results], "failures": failures})
        return 2 if failures else 0
    print(f"{'suite':<26} {'dim':>3} {'trials':>7} {'failures':>9}")
    for r in results:
        print(f"{r.name:<26} {r.dim:>3} {r.trials:>7} {r.failures:>9}")
        for note in r.notes:
            print(f"    {note}")
    print(f"total failures: {failures}")
    return 2 if failures else 0


def cmd_spin1_demo(args: argparse.Namespace) -> int:
    doc = spin1_demo_doc(args.tol)
    if args.format == "json":
        _emit_json(doc)
    else:
        print(render_demo(doc))
    return 0


def _add_common(parser: argparse.ArgumentParser, closures: bool = False, seed: bool = False) -> None:
    parser.add_argument("--tol", type=float, default=default_tolerance(),
                        help="numerical tolerance (default: %(default)g)")
    parser.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default: %(default)s)")
    if closures:
        parser.add_argument("--close-coarsening", action="store_true",
                            help="add every coarsening of every context")
        parser.add_argument("--close-intersection", action="store_true",
                            help="add every nontrivial intersection of any set of the "
                            "given contexts (the whole intersection closure)")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposq",
        description="contexts, daseinisation and generalised values for finite quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contexts", help="build and print a context poset")
    p.add_argument("files", nargs="+", help="context JSON files")
    _add_common(p, closures=True)
    p.set_defaults(func=cmd_contexts)

    p = sub.add_parser("das-proj", help="daseinise a projection over a poset")
    p.add_argument("projection", help="projection matrix JSON file")
    p.add_argument("--contexts", nargs="+", required=True, help="context JSON files")
    _add_common(p, closures=True)
    p.set_defaults(func=cmd_das_proj)

    p = sub.add_parser("das-op", help="operator arrow of a self-adjoint operator")
    p.add_argument("operator", help="operator matrix JSON file")
    p.add_argument("--contexts", nargs="+", required=True, help="context JSON files")
    _add_common(p, closures=True)
    p.set_defaults(func=cmd_das_op)

    p = sub.add_parser("value", help="generalised value of an operator in a state")
    p.add_argument("operator", help="operator matrix JSON file")
    p.add_argument("state", help="unit vector JSON file")
    p.add_argument("--contexts", nargs="+", required=True, help="context JSON files")
    _add_common(p, closures=True)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("props", help="run randomized property suites")
    p.add_argument("--dims", default="2,3", help="comma-separated dimensions (default: %(default)s)")
    p.add_argument("--trials", type=int, default=50, help="trials per suite (default: %(default)s)")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("spin1-demo", help="deterministic spin-1 walkthrough")
    _add_common(p)
    p.set_defaults(func=cmd_spin1_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; usage problems are input errors.
        return 0 if exc.code == 0 else 1
    try:
        args.tol = resolve_tolerance(args.tol)
        return args.func(args)
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except ToposqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
