"""The verify workloads: whole `magmas verify` calls at a fixed budget.

One operation is `run_suite` plus `render_report` plus `report_to_json`,
which is what `magmas verify` does apart from interpreter start-up.
Every call's report is checked against counts derived independently of
the library, and calls with one seed must render the same report once
timing lines are removed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

from reference import LABELED_PREORDER_COUNTS

# The known coverage defect: at max_size 5 these suites stop at their
# first CapExceeded (after 390 of 7331 models) and still report a pass.
# Their unreached models are counted, not treated as wrong output.
CAP_SHORTFALL_SUITES = {5: ("shift-powerset-connection",
                            "shifted-minimality-contrapositive")}

# A known defect, left open: `magma-set-atom-trichotomy` draws corpus values
# of rank up to depth + 1 but classifies them at bound depth, so on about
# 18% of seeds it reports a false `classification-not-total` counterexample
# (`magmas verify --seed 11` exits 1). A workload must be one on which no
# operation fails, so the verify workloads run the other suites and leave
# this one out; a strict xfail in test_perfbench.py keeps the defect in view.
EXCLUDED_SUITES = ("magma-set-atom-trichotomy",)


@dataclass
class Tally:
    """Checks asked for, checks that failed, checks never reached."""

    attempted: int = 0
    failed: int = 0
    unreached: int = 0
    problems: list[str] = field(default_factory=list)

    def bad(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def benchmarked_suites(mg) -> tuple[str, ...]:
    return tuple(sid for sid in mg.SUITES if sid not in EXCLUDED_SUITES)


def config(mg, max_size: int, seed: int, suites: tuple[str, ...] | None = None):
    return mg.SuiteConfig(suites=suites or benchmarked_suites(mg), max_size=max_size,
                          depth=3, symbolic_depth=8, seed=seed)


def expected_models(mg, max_size: int) -> dict[str, int]:
    """models_checked each suite must report, from A000798 and its max_n."""
    out = {}
    for sid in benchmarked_suites(mg):
        suite = mg.SUITES[sid]
        if suite.scope == "symbolic":
            out[sid] = len(suite.models)
        else:
            limit = min(max_size, suite.max_n) if suite.max_n else max_size
            out[sid] = sum(LABELED_PREORDER_COUNTS[:limit])
    return out


def verify_call(mg, cfg) -> tuple[object, str, str]:
    """One operation: the report, its text and its JSON."""
    report = mg.run_suite(cfg)
    text = mg.render_report(report)
    blob = mg.report_to_json(report)
    return report, text, json.dumps(blob, sort_keys=True)


def make_inputs(mg, seed: int, max_size: int):
    return config(mg, max_size, seed)


def measure(mg, cfg, seconds: float, tally: Tally, tracer=None
            ) -> tuple[list[float], float, list]:
    """Calls in a closed loop until `seconds` have passed (at least one).

    Returns per-call wall times, their sum, and each call's output for the
    checks: (report, text, json), or the exception the call raised.
    """
    times: list[float] = []
    outputs: list = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = len(times)
        t0 = perf_counter()
        try:
            out = verify_call(mg, cfg)
        except Exception as exc:  # a raising call is a failed operation
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
    return times, sum(times), outputs


def untimed_text(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("wall_time_s:"))


def same_report(a: tuple, b: tuple) -> bool:
    """Equal (report, text, json) outputs once timing lines are removed."""
    return untimed_text(a[1]) == untimed_text(b[1]) and a[2] == b[2]


def check_report(report, expected: dict[str, int], max_size: int, tally: Tally) -> None:
    """Counts, verdicts and the documented cap shortfall of one report."""
    tally.attempted += sum(expected.values())
    capped = CAP_SHORTFALL_SUITES.get(max_size, ())
    seen = set()
    for r in report.results:
        if r.suite_id in EXCLUDED_SUITES and r.skipped:
            continue
        seen.add(r.suite_id)
        want = expected.get(r.suite_id)
        if want is None or r.skipped:
            tally.bad(want or 1, f"{r.suite_id}: unexpected or skipped suite")
            continue
        if r.failures:
            tally.bad(len(r.failures), f"{r.suite_id}: {len(r.failures)} counterexamples")
        got = r.models_checked
        if got == want:
            continue
        if r.suite_id in capped and got < want and r.note.startswith("cap exceeded"):
            tally.unreached += want - got
        else:
            tally.bad(abs(want - got), f"{r.suite_id}: models_checked {got}, expected {want}")
    for sid in expected.keys() - seen:
        tally.bad(expected[sid], f"{sid}: missing from the report")


def check_enumeration(mg, max_size: int, tally: Tally, seen: dict[int, int]) -> None:
    """Labeled pre-order counts 1, 4, 29, 355, 6942 up to max_size.

    `seen` holds the counts a traced call observed; sizes missing from it
    are enumerated here.
    """
    for n in range(1, max_size + 1):
        tally.attempted += 1
        got = seen[n] if n in seen else mg.count_preorders(n, bound=5)
        if got != LABELED_PREORDER_COUNTS[n - 1]:
            tally.bad(1, f"enumerate_preorders({n}) yielded {got}")


def seeded_suites(mg) -> tuple[str, ...]:
    """Suites whose size does not grow with max_size: the symbolic ones and
    those capped at a small carrier. Every suite that draws on the seed is
    among them, and they are cheap to run a second time."""
    return tuple(sid for sid in benchmarked_suites(mg)
                 if mg.SUITES[sid].scope == "symbolic" or mg.SUITES[sid].max_n)


def check_rerun(mg, max_size: int, seed: int, first_json: str, tally: Tally) -> None:
    """A second call with the same seed, limited to `seeded_suites`, must
    give the same results for those suites as the first, full call."""
    suites = seeded_suites(mg)
    tally.attempted += 1
    _, _, again = verify_call(mg, config(mg, max_size, seed, suites))
    first = {r["suite"]: r for r in json.loads(first_json)["results"]}
    second = {r["suite"]: r for r in json.loads(again)["results"] if not r["skipped"]}
    if any(first[sid] != second.get(sid) for sid in suites):
        tally.bad(1, "a second call with the same seed gave another report")


def check_pending(mg, cfg, outputs: list, tally: Tally) -> None:
    """Counts and verdicts of every call of one phase."""
    expected = expected_models(mg, cfg.max_size)
    for out in outputs:
        if isinstance(out, Exception):
            tally.attempted += sum(expected.values())
            tally.bad(sum(expected.values()), f"verify call raised {out!r}")
        else:
            check_report(out[0], expected, cfg.max_size, tally)


def check_run(mg, cfg, outputs: list, enumerated: dict[int, int], tally: Tally) -> None:
    """Checks made once per run: enumeration counts, and one report for
    every call with this seed, traced or not (a partial second call when
    the run made only one)."""
    check_enumeration(mg, cfg.max_size, tally, enumerated)
    done = [out for out in outputs if not isinstance(out, Exception)]
    if not done:
        return
    tally.attempted += 1
    if any(not same_report(out, done[0]) for out in done):
        tally.bad(1, "calls with one seed rendered different reports")
    if len(done) < 2:
        check_rerun(mg, cfg.max_size, cfg.seed, done[0][2], tally)
