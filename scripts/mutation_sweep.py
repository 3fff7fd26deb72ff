"""Sweep machine-made mutants of the library and count how many the tests kill.

    python3 scripts/mutation_sweep.py --file hierarchy.py
    python3 scripts/mutation_sweep.py --seed 7 --sample 40

Lists the mutation sites of `src/magmas/*.py` (`__init__.py` aside) with
the standard-library `ast` module, one mutant per site:
- a comparison operator swaps with its partner (`<` and `<=`, `>` and
  `>=`, `==` and `!=`, `in` and `not in`, `is` and `is not`);
- a boolean operator swaps (`and` and `or`, every operator of the chain);
- an integer constant k becomes k + 1.
The edit is made on the source text at the node's position, so the rest of
the file keeps its bytes.

Exports the committed files of HEAD with `git archive` into a temporary
directory, as `mutants.py` does, lists the sites there and writes nothing
in the checkout. --file keeps the sites of the modules whose file name
contains it; --sample keeps that many sites, drawn with --seed; --list
prints the sites and runs nothing. Otherwise, for each site in turn, it
writes the mutant into the export, runs tier-1 with `pytest -x` (the
module's own test file first, when there is one), and puts the file back.
A mutant is killed when the tests fail or run past `TIMEOUT` seconds (a
mutant can loop forever). Prints one line per mutant and the kill rate,
and exits 0: survivors are findings, each to be recorded as equivalent,
killed by a new test or removed. The mutants worth keeping go to
`mutants.py`.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from bench_pair import export

PACKAGE = "src/magmas"
TIMEOUT = 600  # seconds per mutant; a tier-1 run takes about 25 s on 2 cores
SWAP = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=",
        ast.NotEq: "==", ast.In: "not in", ast.NotIn: "in", ast.Is: "is not",
        ast.IsNot: "is"}
# the operator's text in the source gap between its two operands
TOKEN = {ast.Lt: r"<(?!=)", ast.LtE: r"<=", ast.Gt: r">(?!=)", ast.GtE: r">=",
         ast.Eq: r"==", ast.NotEq: r"!=", ast.In: r"(?<![\w])in(?![\w])",
         ast.NotIn: r"\bnot\s+in\b", ast.Is: r"\bis\b(?!\s+not\b)", ast.IsNot: r"\bis\s+not\b",
         ast.And: r"\band\b", ast.Or: r"\bor\b"}


class Site(NamedTuple):
    path: str          # relative to the checkout
    line: int
    old: str           # a short rendering of the change, for the report
    new: str
    edits: tuple       # (start, end, replacement) byte spans, in source order


def _offsets(source: bytes) -> list[int]:
    """Byte offset of each line's start; ast columns are UTF-8 byte offsets."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _gap_edit(source: bytes, starts: list[int], left: ast.AST, right: ast.AST,
              op: type, new: str) -> tuple[int, int, bytes]:
    """The edit that replaces op's token between the end of left and the start of right."""
    lo = starts[left.end_lineno - 1] + left.end_col_offset
    hi = starts[right.lineno - 1] + right.col_offset
    gap = source[lo:hi].decode()
    m = re.search(TOKEN[op], gap)
    if m is None:
        raise ValueError(f"no {op.__name__} token between operands at line {left.end_lineno}")
    start = lo + len(gap[:m.start()].encode())
    return start, start + len(m[0].encode()), new.encode()


def sites_of(tree: Path, path: Path) -> list[Site]:
    source = path.read_bytes()
    starts = _offsets(source)
    rel = str(path.relative_to(tree))
    out = []
    module = ast.parse(source)
    # f-string parts carry no reliable source positions before Python 3.12
    skip = {id(n) for f in ast.walk(module) if isinstance(f, ast.JoinedStr)
            for n in ast.walk(f)}
    for node in ast.walk(module):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                new = SWAP[type(op)]
                edit = _gap_edit(source, starts, left, right, type(op), new)
                old = source[edit[0]:edit[1]].decode()
                out.append(Site(rel, node.lineno, old, new, (edit,)))
                left = right
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            edits = tuple(_gap_edit(source, starts, a, b, type(node.op), new)
                          for a, b in zip(node.values, node.values[1:]))
            out.append(Site(rel, node.lineno, old, new, edits))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            lo = starts[node.lineno - 1] + node.col_offset
            hi = starts[node.end_lineno - 1] + node.end_col_offset
            old = source[lo:hi].decode()
            if int(old, 0) != node.value:
                raise ValueError(f"{rel}:{node.lineno}: constant {node.value} reads {old!r}")
            out.append(Site(rel, node.lineno, old, str(node.value + 1),
                            ((lo, hi, str(node.value + 1).encode()),)))
    for s in out:  # a mutant that does not parse would count as killed
        ast.parse(mutate(source, s))
    return sorted(out, key=lambda s: (s.path, s.edits[0][0]))


def mutate(source: bytes, site: Site) -> bytes:
    for lo, hi, text in reversed(site.edits):
        source = source[:lo] + text + source[hi:]
    return source


def killed(tree: Path, site: Site) -> bool:
    """Do the tests fail (or overrun) on the tree with site's mutant in place?"""
    own = f"tests/test_{Path(site.path).stem}.py"
    first = [own] if (tree / own).exists() else []
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                              "no:cacheprovider", *first, "tests"],
                             cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return True
    return out.returncode != 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--file", default="", help="keep modules whose file name contains this")
    ap.add_argument("--sample", type=int, default=0, help="sites to draw (default: all)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the --sample draw")
    ap.add_argument("--list", action="store_true", help="print the sites; run nothing")
    args = ap.parse_args()
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        tree = Path(tmp)
        sha = export("HEAD", tree)
        paths = sorted(p for p in (tree / PACKAGE).glob("*.py")
                       if p.name != "__init__.py" and args.file in p.name)
        sites = [s for p in paths for s in sites_of(tree, p)]
        if args.sample:
            sites = sorted(random.Random(args.seed).sample(sites, min(args.sample, len(sites))),
                           key=lambda s: (s.path, s.edits[0][0]))
        print(f"rev {sha}: {len(sites)} sites", flush=True)
        if args.list:
            for s in sites:
                print(f"{s.path}:{s.line}: {s.old!r} -> {s.new!r}")
            return 0
        for s in sites:
            target = tree / s.path
            source = target.read_bytes()
            target.write_bytes(mutate(source, s))
            t0 = time.perf_counter()
            try:
                dead = killed(tree, s)
            finally:
                target.write_bytes(source)
            survivors += not dead
            print(f"{'killed  ' if dead else 'SURVIVED'}  {s.path}:{s.line}: {s.old!r} -> "
                  f"{s.new!r}  ({time.perf_counter() - t0:.1f} s)", flush=True)
    n = len(sites)
    print(f"{n - survivors} of {n} killed" + (f" ({(n - survivors) / n:.0%})" if n else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
