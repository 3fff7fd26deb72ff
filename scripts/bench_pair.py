"""Benchmark a base commit against this checkout in alternating pairs.

    python3 scripts/bench_pair.py --base HEAD --pr 2 --workload verify-default \
        --seeds 301-310

Exports the committed files of --base with `git archive` into a temporary
directory, then runs `perfbench/run.py` once on that copy and once on this
checkout for every seed, one run at a time. The side that runs first
alternates from pair to pair, so drift in the host's speed falls on both
sides alike. The run length is `run_seconds` from this checkout's
`BENCHMARK.json`, the same for both sides.

Each side reads and writes bytecode only under its own fresh
`PYTHONPYCACHEPREFIX` (with `PYTHONDONTWRITEBYTECODE` unset), never in a
`__pycache__` of its tree, and makes one untimed warm-up run before the
pairs start. So both sides run from the same, complete bytecode state,
whatever stale `.pyc` files the checkout holds and whether or not the
shell lets Python write bytecode: a tree with bytecode against an export
without it reads as a set-up and memory change that no source edit made.

The result is merged into `BENCH_<pr>.json` at the root of the checkout,
under the key "<workload> trace=<t> seeds=<first>-<last>": every run's
metrics, each side's median and quartiles per metric, and for each
end-to-end metric the number of pairs the checkout won, whether the
claim rule holds (wins in at least nine tenths of the pairs, and medians
further apart than the base's quartile distance), whether the
checkout's median is no worse than the base's by more than the metric's
bound in `BENCHMARK.json`, and whether the batch resolves the metric at
all: it does not when the base's spread (quartile distance over median)
exceeds that bound, unless every checkout run beats every base run.
Nothing under `perfbench/` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from baseline import seeds_arg, summarise  # noqa: E402


def side_env(pycache: Path, **extra: str) -> dict[str, str]:
    """The environment of one side's runs: bytecode is read from and
    written to the prefix pycache only, never to the tree."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache), **extra)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run(root: Path, env: dict[str, str], workload: str, seed: int, seconds: int,
        trace: int) -> dict:
    """One benchmark run in the checkout at root; its final JSON line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def export(rev: str, dest: Path) -> str:
    """Write the committed tree of rev into dest; returns the full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def compare(base: dict, change: dict, pairs: list[tuple[dict, dict]],
            spec: list[dict]) -> dict:
    """Pair wins, the claim rule and the bound for each end-to-end metric.

    A metric is resolved when the base's spread (quartile distance over
    median) is within the metric's bound, or when every change run beats
    every base run. An unresolved metric's ``within_bound`` says nothing:
    the base's own runs differ by more than the bound.
    """
    out = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        if name not in base:
            continue
        bvs = [b["metrics"][name]["value"] for b, _ in pairs]
        cvs = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(bvs, cvs))
        b_med, c_med = base[name]["median"], change[name]["median"]
        gap = b_med - c_med if lower else c_med - b_med
        out[name] = {
            "change_wins": wins, "pairs": len(pairs),
            "median_ratio": c_med / b_med if b_med else None,
            "claim_holds": wins >= 0.9 * len(pairs)
            and gap > base[name]["q3"] - base[name]["q1"],
            "within_bound": -gap <= m["bound"] * abs(b_med),
            "resolved": abs(base[name]["spread"]) <= m["bound"]
            or (max(cvs) < min(bvs) if lower else min(cvs) > max(bvs)),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="commit to compare against")
    ap.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 301-310")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        tmp = Path(tmp)
        base_root = tmp / "tree"
        base_root.mkdir()
        sha = export(args.base, base_root)
        sides = {"base": (base_root, side_env(tmp / "pycache-base")),
                 "change": (ROOT, side_env(tmp / "pycache-change"))}
        for root, env in sides.values():  # warm-up: fills the side's pycache
            run(root, env, args.workload, args.seeds[0], 1, args.trace)
        for i, seed in enumerate(args.seeds):
            order = ["base", "change"]
            if i % 2:
                order.reverse()
            res = {side: {"seed": seed, "first": order[0],
                          **run(*sides[side], args.workload, seed, spec["run_seconds"],
                                args.trace)}
                   for side in order}
            pairs.append((res["base"], res["change"]))
            print(f"seed {seed}: " + "  ".join(
                f"{side} correct={r['correct']} failed={r['failed']}"
                for side, r in res.items()), flush=True)
    base = summarise([b for b, _ in pairs], bounds)
    change = summarise([c for _, c in pairs], bounds)
    verdicts = compare(base, change, pairs, spec["end_to_end"])
    for name, v in verdicts.items():
        print(f"{name:16s} base {base[name]['median']:<12.6g} change "
              f"{change[name]['median']:<12.6g} wins {v['change_wins']}/{v['pairs']} "
              f"claim_holds={v['claim_holds']} within_bound={v['within_bound']} "
              f"resolved={v['resolved']}")
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[f"{args.workload} trace={args.trace} seeds={args.seeds[0]}-{args.seeds[-1]}"] = {
        "base": sha, "run_seconds": spec["run_seconds"],
        "runs": {"base": [b for b, _ in pairs], "change": [c for _, c in pairs]},
        "metrics": {"base": base, "change": change}, "end_to_end": verdicts,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
