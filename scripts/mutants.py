"""Check that the tests still kill each recorded mutant of the library.

    python3 scripts/mutants.py

Exports the committed files of HEAD with `git archive` into a temporary
directory, as `bench_pair.py` does, and writes nothing in the checkout.
First runs each test file that `MUTANTS` names on the unmutated export,
which must pass. Then, for each mutant in turn, replaces its exact old
text (which must occur exactly once in its file) with the new text, runs
its test file with pytest, and puts the file back. A mutant is killed
when its tests fail.

Exits 1 if any old text does not match once, if any test file fails on
the unmutated export, or if any mutant leaves its tests green; else 0.
A mutant the code outgrows is retired here, with its reason recorded in
CHANGES.md, never silently.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import export

# (file, old text, new text, test file); each old text occurs exactly once
MUTANTS = (
    # the shifted-opens match without x's own bit
    ("src/magmas/shifting.py",
     "if opens & power[c] | 1 << x != opens & px:",
     "if opens & power[c] != opens & px:",
     "tests/test_shifting.py"),
    # upper openness read from the predecessor rows
    ("src/magmas/topology.py",
     "up = closure_table(p.succ, n)",
     "up = closure_table(p.pred, n)",
     "tests/test_topology.py"),
    # the class side of the minimal characterizations reading cones
    ("src/magmas/verify.py",
     "const_classes = tp.constant_rows([p.equiv_class(a) for a in range(p.n)])",
     "const_classes = tp.constant_rows([p.predecessors(a) for a in range(p.n)])",
     "tests/test_verify.py"),
    # the brute side of the minimal characterizations forced true
    ("src/magmas/verify.py",
     "brute = family & power[x] == 1 << x",
     "brute = True",
     "tests/test_verify.py"),
    # the closure table dropping bit 0 of each row
    ("src/magmas/topology.py",
     "row = rows[b]\n        t += [c | row for c in t]",
     "row = rows[b] & ~1\n        t += [c | row for c in t]",
     "tests/test_topology.py"),
    # pr_plus listing subsets of bits outside the carrier
    ("src/magmas/shifting.py",
     "return powerset_masks(down_closure(p, x) & p.full_mask)",
     "return powerset_masks(down_closure(p, x))",
     "tests/test_shifting.py"),
    # the shift laws: bit 0 dropped from y, from x, from the reflexive
    # test; the top carrier bit dropped from the transitive test
    ("src/magmas/verify.py",
     "y = t[z] & full\n",
     "y = t[z] & full & ~1\n",
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     "x = t[y] & full\n",
     "x = t[y] & full & ~1\n",
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     "for x in range(1 << p.n) if x & ~t[x]]",
     "for x in range(1 << p.n) if x & ~t[x] & ~1]",
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     "if x & ~t[z]:",
     "if x & ~t[z] & full >> 1:",
     "tests/test_verify.py"),
    # the open-family pair loop without the (z, z) pairs
    ("src/magmas/verify.py",
     "for y in opens[i:]:",
     "for y in opens[i + 1:]:",
     "tests/test_verify.py"),
    # constant rows without the test that a row lies inside its holders
    ("src/magmas/topology.py",
     "if r and not r & ~h}",
     "if r}",
     "tests/test_topology.py"),
    # finite_level_of: no membership test, `<` for `<=`, no bound
    ("src/magmas/hierarchy.py",
     "if 1 <= n <= bound and not self.member_level(v, n):",
     "if 1 <= n <= bound and not True:",
     "tests/test_hierarchy.py"),
    ("src/magmas/hierarchy.py",
     "return n if 1 <= n <= bound else None",
     "return n if 1 <= n < bound else None",
     "tests/test_hierarchy.py"),
    ("src/magmas/hierarchy.py",
     "return n if 1 <= n <= bound else None",
     "return n if 1 <= n else None",
     "tests/test_hierarchy.py"),
    # the level memo: a hit answering any level, non-members stored as members
    ("src/magmas/hierarchy.py",
     "return hit == n",
     "return bool(hit)",
     "tests/test_hierarchy.py"),
    ("src/magmas/hierarchy.py",
     "self._member_cache[v] = n if ok else 0",
     "self._member_cache[v] = n",
     "tests/test_hierarchy.py"),
    # find_open_partition: no openness test, no outside-bit test, outbound
    # edges only, one pass instead of a fixpoint
    ("src/magmas/hierarchy.py",
     "if x >> len(rows) or row_union(rows, x) & ~x:",
     "if x >> len(rows):",
     "tests/test_hierarchy.py"),
    ("src/magmas/hierarchy.py",
     "if x >> len(rows) or row_union(rows, x) & ~x:",
     "if row_union(rows, x) & ~x:",
     "tests/test_hierarchy.py"),
    ("src/magmas/hierarchy.py",
     "if (rows[j] | 1 << j) & comp:",
     "if 1 << j & comp:",
     "tests/test_hierarchy.py"),
    ("src/magmas/hierarchy.py",
     "while comp != last:",
     "if comp != last:",
     "tests/test_hierarchy.py"),
    # the runner's per-block memo: keyed without the model, kept across blocks
    ("src/magmas/verify.py",
     "key = (fn, id(p))",
     "key = (fn,)",
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     "ctx._memo = {}",
     "ctx._memo = {} if ctx._memo is None else ctx._memo",
     "tests/test_verify.py"),
    # the streamed runner's scope filter dropping each suite's largest size
    ("src/magmas/verify.py",
     "for n, name, p in block if n <= limit]",
     "for n, name, p in block if n < limit]",
     "tests/test_verify.py"),
    # hierarchy-scoped models back in blocks of _BLOCK models
    ("src/magmas/verify.py",
     "block = [first] if first[0] <= scoped else",
     "block = [first] if first[0] <= 0 else",
     "tests/test_verify.py"),
    # a row bit outside the carrier rendered by indexing the labels
    ("src/magmas/preorder.py",
     'yield (p.labels[a] if a < p.n else f"#{a}"), p.labels[b]',
     "yield p.labels[a], p.labels[b]",
     "tests/test_verify.py"),
    # the open reader blind to row bits outside the carrier
    ("src/magmas/topology.py",
     "if not t[x] & ~x]",
     "if not t[x] & p.full_mask & ~x]",
     "tests/test_topology.py"),
    # the minimal opens left in set order, not sorted as the opens are
    ("src/magmas/topology.py",
     "return sorted(constant_rows(p.pred), key=mask_order)",
     "return list(constant_rows(p.pred))",
     "tests/test_topology.py"),
    # split_cones listing the cones that do not split
    ("src/magmas/hierarchy.py",
     "if find_open_partition(rows, cone) is not None]",
     "if find_open_partition(rows, cone) is None]",
     "tests/test_hierarchy.py"),
    # inclusion_rows reading the columns of the bits inside masks[i]
    ("src/magmas/topology.py",
     "m = union & ~mi",
     "m = union & mi",
     "tests/test_topology.py"),
    # the shifted cone read at the whole closure, not its carrier part
    ("src/magmas/shifting.py",
     "cone = power[c & full]",
     "cone = power[c]",
     "tests/test_shifting.py"),
    # the connection sweep building its own closure table beside the shared one
    ("src/magmas/shifting.py",
     "closure = closure_table(p.pred, n) if table is None else table",
     "closure = closure_table(p.pred, n)",
     "tests/test_verify.py"),
    # bounded cones: the layer loop one length short; a tip joining the
    # extensions of a shorter tip that covers it, so members repeat
    ("src/magmas/symbolic.py",
     "for length in range(1, depth + 1):",
     "for length in range(1, depth):",
     "tests/test_symbolic.py"),
    ("src/magmas/symbolic.py",
     "new = {t for t in tips if len(t) == length\n"
     "               and not any(t.startswith(u) for u in tips if len(u) < length)}",
     "new = {t for t in tips if len(t) == length}",
     "tests/test_symbolic.py"),
    # the generator meet above level 1 reading the model's atom meet
    ("src/magmas/symbolic.py",
     "else gen_intersect",
     "else g1.model.cone_meet",
     "tests/test_symbolic.py"),
    # the clustered meet tagging its tip with an index outside 0..k-1
    ("src/magmas/symbolic.py",
     "(m, 0)",
     "(m, k)",
     "tests/test_symbolic.py"),
    # strict predecessors read without removing the successors, or with
    # row bits outside the carrier
    ("src/magmas/preorder.py",
     "if not self.pred[a] & ~up & full:",
     "if not self.pred[a] & full:",
     "tests/test_preorder.py"),
    ("src/magmas/preorder.py",
     "if not self.pred[a] & ~up & full:",
     "if not self.pred[a] & ~up:",
     "tests/test_preorder.py"),
    # the complement-duality walk without its carrier cap
    ("src/magmas/topology.py",
     "check_carrier_cap(p)\n    n, full = p.n, p.full_mask",
     "n, full = p.n, p.full_mask",
     "tests/test_topology.py"),
    # a level-1 value with a member that is no atom label taken as open
    ("src/magmas/hierarchy.py",
     "except KeyError:  # a member that is not an atom label\n            return False",
     "except KeyError:  # a member that is not an atom label\n            return True",
     "tests/test_hierarchy.py"),
    # level 1 grown without its carrier cap
    ("src/magmas/hierarchy.py",
     "                check_carrier_cap(self.base)\n",
     "",
     "tests/test_hierarchy.py"),
    # the one-point extensions without the empty down-set
    ("src/magmas/preorder.py",
     "downs = [0, *downset_masks(rows, n - 1)]",
     "downs = [*downset_masks(rows, n - 1)]",
     "tests/test_preorder.py"),
    # closure idempotence and cone transitivity indexing a row bit past
    # the carrier instead of naming it
    ("src/magmas/verify.py",
     "    if outside := _rows_outside_carrier(p):\n        return outside\n",
     "",
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     "    if out := _rows_outside_carrier(p):\n        return out\n",
     "    out = []\n",
     "tests/test_verify.py"),
    # the text report's config printing the suites tuple, not its join
    ("src/magmas/verify.py",
     'config = {**asdict(cfg), "suites": ",".join(cfg.suites)}',
     "config = asdict(cfg)",
     "tests/test_verify.py"),
    # the value parser accepting trailing input
    ("src/magmas/hierarchy.py",
     "    if t:\n        raise ValueError(f\"trailing input",
     "    if False:\n        raise ValueError(f\"trailing input",
     "tests/test_hierarchy.py"),
    # a limit slice tested at its own level, not one step up
    ("src/magmas/hierarchy.py",
     "self.member_level(frozenset(slices[k]), k + 1)",
     "self.member_level(frozenset(slices[k]), k)",
     "tests/test_hierarchy.py"),
    # the config guards against one string and an empty selection, removed
    ("src/magmas/verify.py",
     "        if isinstance(self.suites, str):\n",
     "        if False:\n",
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     "        if not self.suites:\n",
     "        if False:\n",
     "tests/test_verify.py"),
    # replay's guards against a blob no run could produce, removed
    ("src/magmas/verify.py",
     "            if not isinstance(blob, dict):\n",
     "            if False:\n",
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     "        if len(cx.labels) > limit:\n",
     "        if False:\n",
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     "        if cx.model not in suite.models:\n",
     "        if False:\n",
     "tests/test_verify.py"),
    # the limit suites passing an undecided membership answer
    ("src/magmas/verify.py",
     'if direct != by_slices or mem.kind == "undecided":',
     'if direct != by_slices and mem.kind != "undecided":',
     "tests/test_verify.py"),
    ("src/magmas/verify.py",
     'if "undecided" in (rep.membership.kind, rep.union_membership.kind):',
     "if False:",
     "tests/test_verify.py"),
    # the config's type guard letting a bool through as an int
    ("src/magmas/verify.py",
     "if type(value) is not int:",
     "if not isinstance(value, int):",
     "tests/test_verify.py"),
    # the value parser without its nesting cap
    ("src/magmas/hierarchy.py",
     "        if depth == MAX_NESTING:\n",
     "        if False:\n",
     "tests/test_hierarchy.py"),
    # the pattern decode without the diagonal bit; the enumeration cap back at 5
    ("src/magmas/preorder.py",
     "rows.append(row & low | (row & ~low) << 1 | 1 << b)",
     "rows.append(row & low | (row & ~low) << 1)",
     "tests/test_preorder.py"),
    ("src/magmas/preorder.py",
     "ENUM_HARD_CAP = 6",
     "ENUM_HARD_CAP = 5",
     "tests/test_preorder.py"),
    # the symbolic depth cap guards removed, in validation and in the config
    ("src/magmas/symbolic.py",
     "    if depth > DEPTH_CAP:\n",
     "    if False:\n",
     "tests/test_symbolic.py"),
    ("src/magmas/verify.py",
     "if not 3 <= self.symbolic_depth <= sym.DEPTH_CAP:",
     "if not 3 <= self.symbolic_depth:",
     "tests/test_verify.py"),
    # the CLI printing a KeyError through str(), which quotes its message
    ("src/magmas/cli.py",
     "msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc",
     "msg = exc",
     "tests/test_cli.py"),
)


def passes(tree: Path, test_file: str) -> bool:
    """Does pytest pass on test_file in the tree, stopping at the first failure?

    No bytecode is written, so no run can read a stale mutant's.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          test_file], cwd=tree, env=env, capture_output=True, text=True,
                         timeout=600)
    return out.returncode == 0


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        sha = export("HEAD", tree)
        print(f"rev {sha}: {len(MUTANTS)} mutants")
        for path, old, _, _ in MUTANTS:
            found = (tree / path).read_text().count(old)
            if found != 1:
                print(f"STALE {path}: old text found {found} times: {old!r}")
                bad += 1
        for test_file in sorted({m[3] for m in MUTANTS}):
            if not passes(tree, test_file):
                print(f"RED {test_file} fails on the unmutated tree")
                bad += 1
        if bad:
            return 1
        for path, old, new, test_file in MUTANTS:
            source = (tree / path).read_text()
            (tree / path).write_text(source.replace(old, new))
            try:
                survived = passes(tree, test_file)
            finally:
                (tree / path).write_text(source)
            print(f"{'SURVIVED' if survived else 'killed'}  {path}: {old!r} -> {new!r}"
                  f"  [{test_file}]")
            bad += survived
    print(f"{bad} mutants survived" if bad else "every mutant killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
