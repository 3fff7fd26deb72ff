"""Benchmark for `magmas`: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports `magmas` from `src/` there.
One process, one thread, one caller in a closed loop: each operation starts
when the previous one has returned. Workloads:

  verify-default     `magmas verify` at the default budget (max_size 4)
  verify-stretch     the same at max_size 5
  hierarchy-queries  query sessions on fresh `Hierarchy` objects

With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
the workload once untraced and once with spans around every module
boundary, and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Outputs are checked on every run; exit status 0 means the run completed,
`correct` says whether every output matched.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hierarchy_queries as hq
import verify_runs as vr
from tracer import LAYERS, SUITE_PREFIX, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 11  # set-up is repeated and its median reported
# name -> (module, arguments of its make_inputs besides mg and seed)
WORKLOADS = {
    "verify-default": (vr, {"max_size": 4}),
    "verify-stretch": (vr, {"max_size": 5}),
    "hierarchy-queries": (hq, {}),
}


def fresh_import():
    """Import `magmas` from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "magmas" or n.startswith("magmas.")]:
        del sys.modules[name]
    return importlib.import_module("magmas")


def setup(workload: str, seed: int) -> tuple[object, object, float]:
    """Import plus input generation, SETUPS times; returns the last set-up
    and the median time."""
    mod, kwargs = WORKLOADS[workload]
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        mg = fresh_import()
        inputs = mod.make_inputs(mg, seed, **kwargs)
        times.append(perf_counter() - t0)
    if Path(mg.__file__).resolve().parent != SRC / "magmas":
        raise SystemExit(f"error: imported magmas from {mg.__file__}, not {SRC}")
    return mg, inputs, statistics.median(times)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; with fewer than 100 samples p99 is the max."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(lat: list[float], busy: float) -> dict[str, float]:
    s = sorted(lat)
    return {"op_ms_p50": statistics.median(s) * 1e3,
            "op_ms_p99": percentile(s, 0.99) * 1e3,
            "ops_per_s": len(s) / busy}


def layer_metrics(tr: Tracer, suite_ids) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the spans and counters of a traced phase."""
    tot = tr.totals()
    c = tr.counters

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    m = {
        "preorder.enumerate_s": (busy("preorder.enumerate_preorders"), "s"),
        "preorder.models_yielded": (c.get("preorder.models_yielded", 0), "count"),
        "preorder.yield_ratio": (ratio("preorder.models_yielded", "preorder.patterns"),
                                 "computed-ratio"),
        "preorder.build_calls": (calls("preorder.build"), "count"),
        "preorder.build_s": (busy("preorder.build"), "s"),
    }
    for fn in ("enumerate_opens", "is_lower_open", "downset_masks"):
        m[f"topology.{fn}_calls"] = (calls(f"topology.{fn}"), "count")
        m[f"topology.{fn}_s"] = (busy(f"topology.{fn}"), "s")
    m["topology.downset_yield_ratio"] = (
        ratio("topology.downsets_yielded", "topology.downset_candidates"), "computed-ratio")
    m["shifting.shift_leq_calls"] = (calls("shifting.shift_leq"), "count")
    m["shifting.shift_leq_s"] = (busy("shifting.shift_leq"), "s")
    m["shifting.pr_plus_s"] = (busy("shifting.pr_plus"), "s")
    m["shifting.opens_match_s"] = (busy("shifting.shifted_opens_match"), "s")
    m["shifting.preorder_of_opens_s"] = (busy("shifting.preorder_of_opens"), "s")
    for fn in ("gen_member", "gen_subset", "members_up_to"):
        m[f"symbolic.{fn}_calls"] = (calls(f"symbolic.{fn}"), "count")
        m[f"symbolic.{fn}_s"] = (busy(f"symbolic.{fn}"), "s")
    m["symbolic.members_yield_ratio"] = (
        ratio("symbolic.members_returned", "symbolic.atoms_walked"), "computed-ratio")
    m["hierarchy.build_s"] = (busy("hierarchy.build"), "s")
    m["hierarchy.levels_built"] = (c.get("hierarchy.levels_built", 0), "count")
    m["hierarchy.level_elements"] = (c.get("hierarchy.level_elements", 0), "count")
    for fn in ("membership", "member_level"):
        m[f"hierarchy.{fn}_calls"] = (calls(f"hierarchy.{fn}"), "count")
        m[f"hierarchy.{fn}_s"] = (busy(f"hierarchy.{fn}"), "s")
    m["hierarchy.union_report_s"] = (busy("hierarchy.union_report"), "s")
    for sid in suite_ids:
        m[f"{SUITE_PREFIX}{sid}_s"] = (busy(SUITE_PREFIX + sid), "s")
    m["verify.models_checked"] = (c.get("verify.models_checked", 0), "count")
    m["verify.render_s"] = (busy("verify.render_report") + busy("verify.report_to_json"), "s")
    own = tr.layer_self()
    total = sum(own.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own[layer], "s")
        m[f"{layer}.self_share"] = (own[layer] / total if total else 0.0, "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "magmas" / "__init__.py").is_file():
        print(f"error: no magmas package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mod = WORKLOADS[args.workload][0]
    mg, inputs, setup_s = setup(args.workload, args.seed)
    tally = vr.Tally()
    # with --trace 1 half the time is untraced, for the overhead
    phase_s = args.seconds / 2 if args.trace else args.seconds

    lat, busy, outputs = mod.measure(mg, inputs, phase_s, tally)
    mod.check_pending(mg, inputs, outputs, tally)
    plain = end_to_end(lat, busy)
    notes = [f"untraced phase: {len(lat)} operations"]
    if args.trace:
        tr = Tracer()
        tr.install(mg)
        try:
            t_lat, t_busy, t_outputs = mod.measure(mg, inputs, phase_s, tally, tr)
        finally:
            tr.uninstall()
        mod.check_pending(mg, inputs, t_outputs, tally)
        outputs += t_outputs
        traced = end_to_end(t_lat, t_busy)
        metrics = layer_metrics(tr, vr.benchmarked_suites(mg))
        metrics["trace.op_ms_p50_delta"] = (traced["op_ms_p50"] - plain["op_ms_p50"], "ms")
        metrics["trace.ops_per_s_delta"] = (traced["ops_per_s"] - plain["ops_per_s"], "1/s")
        notes.append(f"traced phase: {len(t_lat)} operations, {len(tr.span_name)} spans "
                     f"kept, {len(tr.agg)} aggregated hot-call rows")
    mod.check_run(mg, inputs, outputs, tr.enumerated if args.trace else {}, tally)
    if not args.trace:
        metrics = {
            "op_ms_p50": (plain["op_ms_p50"], "ms"),
            "op_ms_p99": (plain["op_ms_p99"], "ms"),
            "ops_per_s": (plain["ops_per_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_rate": ((tally.attempted - tally.failed - tally.unreached) / tally.attempted,
                        "ratio"),
            "setup_s": (setup_s, "s"),
        }

    notes.append(f"checks: {tally.attempted} attempted, {tally.failed} failed, "
                 f"{tally.unreached} never reached")
    notes += [f"problem: {why}" for why in tally.problems[:20]]
    print(f"# {args.workload}, seed {args.seed}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
