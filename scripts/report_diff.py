"""Diff the untimed verify reports of a base commit against this checkout.

    python3 scripts/report_diff.py --base HEAD

Exports the committed files of --base with `git archive` into a temporary
directory, as `bench_pair.py` does. Then, for each (max_size, seed) in
`CASES`, runs `run_suite` once on that copy and once on this checkout,
one process at a time, and renders the text report without its timing
lines followed by the JSON report. Prints a unified diff of each case
that differs. Exits 1 if any case differs, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, export

CASES = ((4, 0), (4, 11), (5, 0))

# Run inside a tree with its src/ first on the path; prints both reports.
PROGRAM = """
import json, sys
from magmas import SuiteConfig, render_report, report_to_json, run_suite
report = run_suite(SuiteConfig(max_size=int(sys.argv[1]), seed=int(sys.argv[2])))
print(render_report(report, timing=False))
print(json.dumps(report_to_json(report), indent=1, sort_keys=True))
"""


def reports(root: Path, max_size: int, seed: int) -> list[str]:
    """The untimed text and JSON reports of one run in the tree at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", PROGRAM, str(max_size), str(seed)],
                         cwd=root, env=env, capture_output=True, text=True,
                         timeout=900, check=True)
    return out.stdout.splitlines(keepends=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    args = ap.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="report-base-") as tmp:
        base_root = Path(tmp)
        sha = export(args.base, base_root)
        for max_size, seed in CASES:
            case = f"max_size={max_size} seed={seed}"
            diff = list(difflib.unified_diff(
                reports(base_root, max_size, seed), reports(ROOT, max_size, seed),
                fromfile=f"{sha[:12]} {case}", tofile=f"checkout {case}"))
            differ += bool(diff)
            print(f"{case}: {'differs' if diff else 'identical'}", flush=True)
            sys.stdout.writelines(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
