"""The hierarchy-queries workload: seeded query sessions on fresh hierarchies.

A session models one `magmas member`-style call: it builds a fresh
`Hierarchy` on a base drawn from the 34 labeled pre-orders with n <= 3
and issues a fixed number of queries against it, so lazy level growth
(writes) mixes with cached membership decisions (reads). Every query is
timed on its own; every answer is checked against `reference`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import reference as ref
from verify_runs import Tally

DEPTH = 3
BOUND = DEPTH + 1
ROUNDS = 10  # each round visits all 34 bases once, in a seeded order
# Every session asks this fixed mix of (operation, value kind, levels), in a
# seeded order, so seeds change the values but not the proportions. Two
# thirds are cheap cached decisions (reads), so the median query is a read;
# subsets of levels, mixed-level families and union reports are the
# expensive ones, and the first query to touch a level makes it grow
# (a write), which sets the tail.
MIX = (
    ("membership", "member", (1,)), ("membership", "member", (2,)),
    ("membership", "member", (3,)), ("membership", "cone_union", (2,)),
    ("membership", "cone_union", (3,)), ("membership", "whole_level", (1,)),
    ("membership", "random", ()), ("membership", "random", ()),
    ("membership", "subset", (1,)), ("membership", "subset", (2,)),
    ("membership", "mixed", (1, 2)),
    ("classify", "member", (2,)), ("classify", "cone_union", (1,)),
    ("classify", "random", ()), ("classify", "whole_level", (2,)),
    ("classify", "subset", (3,)), ("classify", "mixed", (2, 3)),
    ("union_report", "member", (3,)), ("union_report", "subset", (2,)),
    ("union_report", "mixed", (1, 2, 3)),
    ("power_element", "member", (1,)), ("power_element", "member", (2,)),
    ("power_element", "member", (3,)), ("power_element", "member", (3,)),
)


@dataclass(frozen=True)
class Query:
    op: str
    value: object
    level: int = 0  # power_element: the level the value is a member of


@dataclass(frozen=True)
class Session:
    base: int  # index into Inputs.bases
    queries: tuple[Query, ...]


@dataclass(frozen=True)
class Inputs:
    bases: list           # magmas.PreOrder per base
    refs: list            # reference levels 1..DEPTH per base
    antichain: int        # base index of the 3-atom antichain
    sessions: list


def _cone_union(lv: list, tips: list) -> frozenset:
    return frozenset(z for z in lv for t in tips if z <= t)


def _random_hf(labels: list, rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice(labels)
    return frozenset(_random_hf(labels, rng, depth - 1)
                     for _ in range(rng.randint(0, 3)))


def _value(kind: str, levels: tuple[int, ...], labels: list, lists: list,
           rng: random.Random):
    if kind == "random":
        return _random_hf(labels, rng, rng.randint(1, DEPTH))
    if kind == "mixed":
        parts: set = set()
        for k in levels:
            lv = lists[k - 1]
            if rng.random() < 0.5:
                parts |= _cone_union(lv, [rng.choice(lv)])
            else:
                parts.update(rng.sample(lv, k=rng.randint(1, min(3, len(lv)))))
        return frozenset(parts)
    lv = lists[levels[0] - 1]
    if kind == "member":
        return rng.choice(lv)
    if kind == "cone_union":
        return _cone_union(lv, rng.sample(lv, k=min(len(lv), rng.randint(1, 2))))
    if kind == "subset":
        return frozenset(rng.sample(lv, k=rng.randint(1, min(3, len(lv)))))
    return frozenset(lv)  # whole_level


def make_inputs(mg, seed: int) -> Inputs:
    """Seeded sessions over every base; the program sees only these values."""
    raw = ref.preorders_up_to(3)
    bases = [mg.PreOrder.from_pred_rows(labels, rows) for labels, rows in raw]
    refs = [ref.levels(labels, rows, DEPTH) for labels, rows in raw]
    lists = [[ref.sorted_values(lv) for lv in r] for r in refs]
    antichain = next(i for i, (labels, rows) in enumerate(raw)
                     if len(labels) == 3 and all(r == 1 << b for b, r in enumerate(rows)))
    rng = random.Random(f"hierarchy-queries:{seed}")
    sessions = []
    for _ in range(ROUNDS):
        order = list(range(len(bases)))
        rng.shuffle(order)
        for b in order:
            labels = list(raw[b][0])
            mix = list(MIX)
            rng.shuffle(mix)
            queries = tuple(
                Query(op, _value(kind, levels, labels, lists[b], rng),
                      levels[0] if op == "power_element" else 0)
                for op, kind, levels in mix)
            sessions.append(Session(b, queries))
    return Inputs(bases, refs, antichain, sessions)


def run_session(mg, inputs: Inputs, s: Session, growth_cap: int
                ) -> tuple[object, list, list[float], float]:
    """Run one session; returns (hierarchy, answers, per-query seconds, total).

    An answer is the result, or the exception a query raised.
    """
    answers: list = []
    lat: list[float] = []
    MElem = mg.MElem
    t_start = perf_counter()
    h = mg.Hierarchy(inputs.bases[s.base], growth_cap=growth_cap)
    last = t_start
    for q in s.queries:
        try:
            if q.op == "membership":
                a = h.membership(q.value, BOUND)
            elif q.op == "union_report":
                a = h.union_report(q.value, BOUND)
            elif q.op == "classify":
                a = h.classify(q.value, BOUND)
            else:
                a = h.power_element(MElem(q.value, q.level))
        except Exception as exc:  # a raising query is a failed operation
            a = exc
        now = perf_counter()
        lat.append(now - last)
        last = now
        answers.append(a)
    return h, answers, lat, last - t_start


def check_session(inputs: Inputs, s: Session, h, answers: list) -> int:
    """Number of answers that disagree with the reference (or raised)."""
    refs = inputs.refs[s.base]
    bad = 0
    for q, a in zip(s.queries, answers):
        if isinstance(a, Exception) or not _answer_ok(q, a, refs, h):
            bad += 1
    if s.base == inputs.antichain and h.built_depth >= DEPTH:
        sizes = tuple(len(h.level(k)) for k in range(1, DEPTH + 1))
        if sizes != ref.ANTICHAIN3_LEVEL_SIZES:
            bad += 1
    return bad


def _membership_ok(v, mem, refs: list, h) -> bool:
    k = ref.finite_level(v, refs) if isinstance(v, frozenset) else None
    if mem.kind == "level":
        if mem.level != k:
            return False
        # the finite-level answer must also be in the materialized level
        return k > h.built_depth or v in h.level(k).value_set
    if k is not None:
        return False
    direct = ref.direct_limit(v, refs)
    if direct is None:
        return mem.kind in ("limit", "outside", "undecided")
    return mem.kind == ("limit" if direct else "outside")


def _answer_ok(q: Query, a, refs: list, h) -> bool:
    v = q.value
    if q.op == "membership":
        return _membership_ok(v, a, refs, h)
    if q.op == "classify":
        if isinstance(v, str):
            return a == "atom"
        k = ref.finite_level(v, refs)
        if k is not None:
            return a == "magma"
        direct = ref.direct_limit(v, refs)
        if direct is None:
            return a in ("magma", "set", "undecided")
        return a == ("magma" if direct else "set")
    if q.op == "union_report":
        if not _membership_ok(v, a.membership, refs, h):
            return False
        union = ref.hf_union(v) if isinstance(v, frozenset) else frozenset()
        if a.union_value != union or not _membership_ok(union, a.union_membership, refs, h):
            return False
        return not a.decided or a.consistent
    # power_element: the inclusion cone of v inside its level, one level up
    expected = frozenset(z for z in refs[q.level - 1] if z <= v)
    return (a.level == q.level + 1 and a.value == expected
            and ref.finite_level(expected, refs) == q.level + 1)


def measure(mg, inputs: Inputs, seconds: float, tally: Tally, tracer=None
            ) -> tuple[list[float], float, list]:
    """Sessions in a closed loop, cycling through the plan, for `seconds`.

    Returns per-query latencies, the summed session time and the sessions
    whose answers are still to be checked: with a tracer installed the
    checks wait until it is removed, so they add no spans.
    """
    growth_cap = mg.verify.HIER_GROWTH_CAP
    lat: list[float] = []
    busy = 0.0
    pending: list = []
    start = perf_counter()
    i = 0
    while not lat or perf_counter() - start < seconds:
        s = inputs.sessions[i % len(inputs.sessions)]
        if tracer is not None:
            tracer.op = i
        i += 1
        h, answers, times, total = run_session(mg, inputs, s, growth_cap)
        lat.extend(times)
        busy += total
        pending.append((s, h, answers))
        if tracer is None:
            check_pending(mg, inputs, pending, tally)
    return lat, busy, pending


def check_pending(mg, inputs: Inputs, pending: list, tally: Tally) -> None:
    for s, h, answers in pending:
        tally.attempted += len(s.queries)
        bad = check_session(inputs, s, h, answers)
        if bad:
            tally.bad(bad, f"session on base {s.base}: {bad} wrong answers")
    pending.clear()


def check_run(mg, inputs: Inputs, pending: list, enumerated: dict, tally: Tally) -> None:
    """Nothing is left to check once every session has been checked."""
