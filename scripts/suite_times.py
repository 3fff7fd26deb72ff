"""Per-suite `run_suite` times of a base commit against this checkout.

    python3 scripts/suite_times.py --base HEAD --max-size 5 --runs 9 --seed 0

Exports the committed files of --base with `git archive` into a temporary
directory, as `bench_pair.py` does. Then runs `run_suite` (every suite)
at --max-size and --seed --runs times on each side, each run in a fresh
process and one process at a time; the seeded suites, the symbolic ones
among them, draw their instances from --seed. The side that runs first
alternates from run to run, so drift in the host's speed falls on both
sides alike.
Prints each side's median seconds and `models_checked` per suite, the
median seconds of the whole `run_suite` call, and the median peak
resident set of the run's process (`ru_maxrss`, in MiB), each with the
checkout's median as a ratio of the base's. So a coverage change shows
next to what it costs, and a memory change shows without perfbench. As
in `bench_pair.py`, each side keeps its bytecode under its own fresh
`PYTHONPYCACHEPREFIX` and makes one untimed warm-up run first. Writes no
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, export, side_env

# Run inside a tree with its src/ first on the path; prints one JSON line.
PROGRAM = """
import json, resource, sys, time
from magmas import SuiteConfig, run_suite
start = time.perf_counter()
report = run_suite(SuiteConfig(max_size=int(sys.argv[1]), seed=int(sys.argv[2])))
total = time.perf_counter() - start
# ru_maxrss is in KiB on Linux
print(json.dumps({"suites": {r.suite_id: r.seconds for r in report.results},
                  "models": {r.suite_id: r.models_checked for r in report.results},
                  "total": total,
                  "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def times(root: Path, env: dict[str, str], max_size: int, seed: int) -> dict:
    """Suite seconds, suite models_checked, the whole call's seconds and the
    process's peak RSS of one run in the tree at root."""
    out = subprocess.run([sys.executable, "-c", PROGRAM, str(max_size), str(seed)], cwd=root,
                         env=env, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--max-size", type=int, default=5)
    ap.add_argument("--runs", type=int, default=5, help="runs per side")
    ap.add_argument("--seed", type=int, default=0, help="the runs' SuiteConfig seed")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="suite-times-base-") as tmp:
        tmp = Path(tmp)
        base_root = tmp / "tree"
        base_root.mkdir()
        sha = export(args.base, base_root)
        sides = {side: (root, side_env(tmp / f"pycache-{side}",
                                       PYTHONPATH=str(root / "src")))
                 for side, root in (("base", base_root), ("change", ROOT))}
        for root, env in sides.values():  # warm-up: fills the side's pycache
            times(root, env, 1, args.seed)
        for i in range(args.runs):
            order = ["base", "change"]
            if i % 2:
                order.reverse()
            for side in order:
                runs[side].append(times(*sides[side], args.max_size, args.seed))
            print(f"run {i + 1}: " + "  ".join(
                f"{side} {runs[side][-1]['total']:.3f} s {runs[side][-1]['maxrss_mib']:.1f} MiB"
                for side in ("base", "change")), flush=True)

    def median(side: str, suite: str | None) -> float | None:
        vals = [r["total"] if suite is None else r["suites"].get(suite)
                for r in runs[side]]
        vals = [v for v in vals if v is not None]
        return statistics.median(vals) if vals else None

    suites = list(runs["change"][0]["suites"])
    suites += [s for s in runs["base"][0]["suites"] if s not in suites]
    print(f"\nmedians of {args.runs} runs per side, max_size {args.max_size}, "
          f"seed {args.seed}, base {sha[:12]}")
    print(f"{'suite':40s} {'base s':>9s} {'models':>7s} {'change s':>9s} {'models':>7s} "
          f"{'ratio':>7s}")
    for suite in suites + [None]:
        b, c = median("base", suite), median("change", suite)
        ratio = f"{c / b:7.2f}" if b and c is not None else f"{'-':>7s}"
        cells = []
        for side, v in (("base", b), ("change", c)):
            # models_checked is deterministic, so one run of a side gives it
            m = runs[side][0]["models"].get(suite) if suite else None
            cells.append(f"{v:9.3f}" if v is not None else f"{'-':>9s}")
            cells.append(f"{m:7d}" if m is not None else f"{'-':>7s}")
        print(f"{suite or 'run_suite total':40s} {' '.join(cells)} {ratio}")
    b, c = (statistics.median(r["maxrss_mib"] for r in runs[side])
            for side in ("base", "change"))
    print(f"{'peak RSS MiB (ru_maxrss)':40s} {b:9.1f} {'':7s} {c:9.1f} {'':7s} {c / b:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
