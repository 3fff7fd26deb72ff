"""Command-line front end.

Exit codes: 0 no check failed (a verify suite whose models hit a cap
reports ``status: partial`` and still exits 0), 1 a verification failed,
2 bad input or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hierarchy as hm
from . import shifting as sh
from . import symbolic as sym
from . import topology as tp
from .preorder import (CapExceeded, format_atom_set, load_preorder,
                       parse_atom_set)
from .verify import SuiteConfig, SUITES, render_report, report_to_json, run_suite


def _cmd_opens(args: argparse.Namespace) -> int:
    p = load_preorder(args.file)
    opens = tp.minimal_opens(p) if args.minimal else tp.enumerate_opens(p)
    if args.count:
        print(len(opens))
        return 0
    for s in opens:
        print(format_atom_set(p, s))
    return 0


def _cmd_shift(args: argparse.Namespace) -> int:
    p = load_preorder(args.file)
    if args.pr_plus is not None:
        x = parse_atom_set(p, args.pr_plus)
        for y in sh.pr_plus(p, x):
            print(format_atom_set(p, y))
        return 0
    if args.x is None or args.y is None:
        print("shift needs either --pr-plus or both --x and --y", file=sys.stderr)
        return 2
    x = parse_atom_set(p, args.x)
    y = parse_atom_set(p, args.y)
    print("true" if sh.shift_leq(p, x, y) else "false")
    return 0


def _parse_gens(model: sym.SymbolicPreOrder, text: str) -> sym.GenOpen:
    toks = text.replace(",", " ").split()
    return sym.GenOpen(model, 1, tuple(model.parse_atom(t) for t in toks))


def _cmd_symbolic(args: argparse.Namespace) -> int:
    model = sym.model_by_name(args.model)
    if args.action == "member":
        g = _parse_gens(model, args.gens)
        print("true" if sym.gen_member(g, model.parse_atom(args.atom)) else "false")
        return 0
    if args.action == "subset":
        g1 = _parse_gens(model, args.gens)
        g2 = _parse_gens(model, args.other)
        print("true" if sym.gen_subset(g1, g2) else "false")
        return 0
    if args.action == "shrink":
        g = _parse_gens(model, args.gens)
        smaller = sym.strict_shrink(g)
        print(",".join(model.render_atom(a) for a in smaller.generators))
        return 0
    # validate
    v = sym.validate_model(model, depth=args.depth, seed=args.seed)
    print(f"model: {v.model}")
    print(f"atoms_checked: {v.atoms_checked}")
    print(f"triples_checked: {v.triples_checked}")
    print("status: " + ("pass" if v.ok else "fail"))
    for f in v.failures:
        print(f"failure: {f}")
    return 0 if v.ok else 1


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    p = load_preorder(args.file)
    h = hm.Hierarchy(p)
    levels = h.build(args.levels)
    if args.print_elements:
        for lv in levels:
            print(f"level {lv.index}:")
            for v in lv.values:
                print("  " + hm.render_value(v))
    else:
        print(" ".join(str(len(lv)) for lv in levels))
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    p = load_preorder(args.file)
    v = hm.parse_value(args.value)
    h = hm.Hierarchy(p)
    mem = h.membership(v, args.bound)
    print(mem.describe())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    p = load_preorder(args.file)
    print(f"atoms: {p.n}")
    print("closure: ok")
    star, witness = p.satisfies_star()
    if star:
        print("star: satisfied")
    else:
        print(f"star: unsatisfied (witness {p.labels[witness]})")
    print(f"opens: {len(tp.enumerate_opens(p))}")
    print(f"minimal: {len(tp.minimal_opens(p))}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = tuple(args.suites.split(",")) if args.suites else ("all",)
    cfg = SuiteConfig(
        suites=suites,
        max_size=args.max_size,
        depth=args.depth,
        symbolic_depth=args.symbolic_depth,
        seed=args.seed,
    )
    report = run_suite(cfg)
    text = (json.dumps(report_to_json(report), indent=2, sort_keys=True)
            if args.format == "json" else render_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magmas",
        description="Pre-ordered atom sets, their lower topology, powerset "
                    "shifting, hierarchy levels, and a statement-verification "
                    "harness over exhaustively enumerated small models.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("opens", help="list the open sets of a pre-order file")
    sp.add_argument("file")
    sp.add_argument("--minimal", action="store_true",
                    help="restrict to minimal opens")
    sp.add_argument("--count", action="store_true",
                    help="print only the cardinality")
    sp.set_defaults(fn=_cmd_opens)

    sp = subs.add_parser("shift", help="query the shifted relation")
    sp.add_argument("file")
    sp.add_argument("--x", help="left subset, e.g. '{a,b}'")
    sp.add_argument("--y", help="right subset")
    sp.add_argument("--pr-plus", dest="pr_plus", metavar="X",
                    help="print every subset below X instead")
    sp.set_defaults(fn=_cmd_shift)

    sp = subs.add_parser("symbolic", help="work with the infinite models")
    sp.add_argument("action", choices=("member", "subset", "shrink", "validate"))
    sp.add_argument("--model", default="prefix",
                    help="prefix or clustered:k (default prefix)")
    sp.add_argument("--gens", default="",
                    help="generator atoms, e.g. '0,11' for the union of their cones")
    sp.add_argument("--other", default="",
                    help="second generator list (subset query)")
    sp.add_argument("--atom", default="", help="atom to test (member query)")
    sp.add_argument("--depth", type=int, default=8,
                    help="validation depth L (default 8)")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_symbolic)

    sp = subs.add_parser("hierarchy", help="materialize hierarchy levels")
    sp.add_argument("file")
    sp.add_argument("--levels", type=int, default=3, metavar="N")
    sp.add_argument("--print", dest="print_elements", action="store_true",
                    help="print every element (default prints sizes)")
    sp.set_defaults(fn=_cmd_hierarchy)

    sp = subs.add_parser("member", help="locate a nested-brace value in the hierarchy")
    sp.add_argument("file")
    sp.add_argument("--value", required=True,
                    help="hereditarily finite literal, e.g. '{{a},{a,b}}'")
    sp.add_argument("--bound", type=int, default=3, metavar="N")
    sp.set_defaults(fn=_cmd_member)

    sp = subs.add_parser("check", help="validate a single pre-order file")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_check)

    sp = subs.add_parser("verify", help="run verification suites")
    sp.add_argument("--suites", default="",
                    help="comma-separated suite ids (default: all); "
                         f"known: {', '.join(SUITES)}")
    sp.add_argument("--max-size", type=int, default=SuiteConfig.max_size)
    sp.add_argument("--depth", type=int, default=SuiteConfig.depth)
    sp.add_argument("--symbolic-depth", type=int, default=SuiteConfig.symbolic_depth)
    sp.add_argument("--seed", type=int, default=SuiteConfig.seed)
    sp.add_argument("--out", default=None, help="write the report to a file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, KeyError, OSError, CapExceeded) as exc:
        # str() of a KeyError quotes its message; print the message itself
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
