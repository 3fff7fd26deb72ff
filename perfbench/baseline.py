"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --workload verify-default --seeds 101-110 \
        --out perfbench/baseline.json

Runs `perfbench/run.py` once per seed, one run at a time, from the root of
the checkout, and records every metric's values, median, quartiles and
spread (quartile distance over median, as `statistics.quantiles(n=4)`
gives them) next to the bound in `BENCHMARK.json`. With --out the summary
is merged into that JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "bound": bounds.get(name), "values": values}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 101-110")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        res = run(args.workload, seed, spec["run_seconds"], args.trace)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
        results.append({"seed": seed, **res})
    summary = summarise(results, bounds)
    for name, s in summary.items():
        bound = f"  bound {s['bound']}" if s["bound"] is not None else ""
        print(f"{name:48s} median {s['median']:<12.6g} spread {s['spread']:.4f}{bound}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = f"{args.workload} trace={args.trace} seeds={args.seeds[0]}-{args.seeds[-1]}"
        doc[key] = {
            "seeds": args.seeds, "run_seconds": spec["run_seconds"],
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed")}
                     for r in results],
            "metrics": summary}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
