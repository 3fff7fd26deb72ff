"""Statement-verification harness over exhaustively enumerated models.

Each suite re-checks one statement about pre-ordered atom sets against
every labeled pre-order up to the configured carrier size, or against the
sampled symbolic models. A failed suite carries a replayable
counterexample: the exact relation rows (so that injected-fault models
are not repaired by re-closing), the witness data of the failing
instance, and the seed and depths the run used. A check draws its
instances only from those values, the suite id and the model name, so
replay re-runs the suite's own check on the recorded rows under the
recorded seed and depths and sees the same instances.

``run_suite`` streams the models and runs the finite suites block by
block: each block of models is pulled from the enumeration, checked by
every selected suite in registry order, each within its own size limit,
and dropped before the next block is checked; then the symbolic suites
run. A model that a selected size-limited suite checks is a block of its
own, because that suite builds its level hierarchy; the other models come
in blocks of ``_BLOCK``. Facts that several suites ask of one model (its
open masks, its minimal opens, the star condition, its hierarchy) are
worked out once per block through ``RunContext.once`` and dropped with
the block; replay and a check called directly compute them afresh. A
suite's ``seconds`` add up over the blocks, so a shared fact is charged
to the first suite that asks for it, and enumeration falls in no suite.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from typing import Callable

from . import hierarchy as hm
from . import shifting as sh
from . import symbolic as sym
from . import topology as tp
from .preorder import (ENUM_HARD_CAP, CapExceeded, PreOrder, _edge_labels, bits,
                       build, enumerate_preorders, format_atom_set, format_preorder)

HIER_GROWTH_CAP = hm.GROWTH_CAP  # the name perfbench/hierarchy_queries.py reads
HIER_MAX_N = 3
MIXED_FAMILY_SIZE = 20
TRICHOTOMY_CORPUS = 100
_BLOCK = 256  # models per block of the finite runner
_MISSING = object()


class ConfigError(ValueError):
    """Invalid harness configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    suites: tuple[str, ...] = ("all",)
    max_size: int = 4
    depth: int = 3
    symbolic_depth: int = 8
    seed: int = 0

    def validate(self) -> None:
        for name in ("max_size", "depth", "symbolic_depth", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # bool too: it would pass the range checks
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if not 1 <= self.max_size <= ENUM_HARD_CAP:
            raise ConfigError(
                f"max_size must be in 1..{ENUM_HARD_CAP}, got {self.max_size}")
        if self.depth < 1:
            raise ConfigError(f"depth must be at least 1, got {self.depth}")
        if not 3 <= self.symbolic_depth <= sym.DEPTH_CAP:
            raise ConfigError(f"symbolic_depth must be in 3..{sym.DEPTH_CAP} "
                              f"(symbolic.DEPTH_CAP), got {self.symbolic_depth}")
        if (not isinstance(self.suites, (tuple, list))
                or not all(type(s) is str for s in self.suites)):
            what = "the string " if isinstance(self.suites, str) else ""
            raise ConfigError(f"suites must be a tuple of suite ids, not {what}"
                              f"{self.suites!r}")
        if not self.suites:
            raise ConfigError("no suites selected")
        unknown = [s for s in self.suites if s != "all" and s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {', '.join(map(repr, unknown))}")

    def selected(self) -> tuple[str, ...]:
        if "all" in self.suites:
            return tuple(SUITES)
        return tuple(s for s in SUITES if s in self.suites)


# the SuiteConfig fields a check reads; each counterexample records them
RECORDED_CONFIG = ("seed", "depth", "symbolic_depth")


@dataclass(frozen=True)
class Counterexample:
    suite: str
    model: str
    model_text: str
    labels: tuple[str, ...]
    rows: tuple[int, ...]
    witness: dict
    message: str
    config: dict = field(default_factory=dict)  # RECORDED_CONFIG values

    def to_blob(self) -> dict:
        return {**asdict(self), "labels": list(self.labels), "rows": list(self.rows)}

    @staticmethod
    def from_blob(blob: dict) -> "Counterexample":
        try:
            if not isinstance(blob, dict):
                raise TypeError(f"not a dict: {blob!r}")
            config = dict(blob.get("config", {}))
            if (set(config) - set(RECORDED_CONFIG)
                    or not all(type(v) is int for v in config.values())):
                raise TypeError(f"bad config {config!r}")
            labels, rows = blob.get("labels", []), tuple(blob.get("rows", ()))
            distinct = {a for a in labels if type(a) is str}
            if type(labels) is not list or len(distinct) != len(labels):
                raise ValueError(f"bad labels {labels!r}")
            # one row per label; bits outside the carrier stay for fault injection
            if len(rows) != len(labels) or any(type(r) is not int or r < 0 for r in rows):
                raise ValueError(f"bad rows {list(rows)!r} for {len(labels)} labels")
            texts = {"suite": blob["suite"], "model": blob["model"],
                     "model_text": blob.get("model_text", ""),
                     "message": blob.get("message", "")}
            bad = {k: v for k, v in texts.items() if type(v) is not str}
            if bad:
                raise TypeError(f"non-string {', '.join(bad)} {list(bad.values())!r}")
            return Counterexample(
                labels=tuple(labels),
                rows=rows,
                witness=dict(blob.get("witness", {})),
                config=config,
                **texts,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed counterexample blob: {exc}") from exc


@dataclass
class SuiteResult:
    suite_id: str
    statement: str
    models_checked: int
    failures: list[Counterexample] = field(default_factory=list)
    seconds: float = 0.0
    skipped: bool = False
    note: str = ""  # the first cap a model hit
    models_capped: int = 0  # models whose check stopped at a cap

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    @property
    def status(self) -> str:
        """skipped, fail, partial (no failure, but some models capped) or pass."""
        if self.skipped:
            return "skipped"
        if self.failures:
            return "fail"
        return "partial" if self.models_capped else "pass"


@dataclass
class Report:
    config: SuiteConfig
    results: list[SuiteResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[Counterexample]:
        return [cx for r in self.results for cx in r.failures]


class RunContext:
    """What a check reads besides its model: the run's config, its seeded
    draws (:meth:`rng`) and the per-block memo of :meth:`once`."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self._memo: dict | None = None  # a dict only inside run_suite's block loop

    def once(self, fn: Callable, p: PreOrder):
        """``fn(p)``, computed at most once per block of :func:`run_suite`
        (one model, where a size-limited suite checks it: its hierarchy is
        then the only one held).

        Keyed by the function and the model's identity. An id is unique only
        among live objects, and the runner frees each block's streamed
        models once the block is checked, so the memo must be reset before
        any check of a new block: a kept entry could answer for a new model
        that reuses a freed model's id. Outside the block loop (replay, a
        check called directly) every call computes afresh. A call that
        raises stores nothing, so the next suite that asks raises too.
        """
        memo = self._memo
        if memo is None:
            return fn(p)
        key = (fn, id(p))
        out = memo.get(key, _MISSING)
        if out is _MISSING:
            out = memo[key] = fn(p)
        return out

    def rng(self, suite_id: str, model_name: str) -> random.Random:
        return random.Random(f"{self.cfg.seed}:{suite_id}:{model_name}")


# --- finite suite checks ------------------------------------------------------
# Each check takes (p, model_name, ctx) and returns a list of witness dicts;
# an empty list means the statement held on that model.
#
# Facts that several suites ask of one model are read through ctx.once,
# which shares them within a block of the runner. Each call looks up its
# library function at call time, so a patched one is what runs. Every
# reading of the pred closure table goes through p.closures, so a model's
# table is built once per pre-order.


def _rows_outside_carrier(p: PreOrder) -> list[dict]:
    """One witness per row bit past the carrier, for checks that index with each bit."""
    return [{"kind": "row-outside-carrier", "atom": p.labels[b], "bit": a}
            for b, row in enumerate(p.pred) for a in bits(row & ~p.full_mask)]


def _chk_closure_idempotent(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    if outside := _rows_outside_carrier(p):
        return outside
    rebuilt = build(p.labels, _edge_labels(p))
    return [] if rebuilt.pred == p.pred else [{"rebuilt_rows": list(rebuilt.pred)}]


def _chk_strict_laws(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    out = []
    for a in range(p.n):
        if p.strict(a, a):
            out.append({"kind": "irreflexive", "atom": p.labels[a]})
        for b in range(p.n):
            if p.strict(a, b) and (not p.leq(a, b) or p.strict(b, a)):
                out.append({"kind": "strict-law", "a": p.labels[a], "b": p.labels[b]})
    return out


def _chk_class_vs_cone(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    classes = [p.equiv_class(a) for a in range(p.n)]
    cones = [p.predecessors(a) for a in range(p.n)]
    out = []
    for a in range(p.n):
        for b in range(p.n):
            same_class = classes[a] == classes[b]
            same_cone = cones[a] == cones[b]
            if same_class != same_cone:
                out.append({"a": p.labels[a], "b": p.labels[b]})
    return out


def _chk_cone_transitive(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    if out := _rows_outside_carrier(p):
        return out
    for a in range(p.n):
        cone = p.predecessors(a)
        for b in bits(cone):
            if p.predecessors(b) & ~cone:
                out.append({"a": p.labels[a], "b": p.labels[b]})
    return out


def _chk_finite_star_fails(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    ok, witness = ctx.once(PreOrder.satisfies_star, p)
    if ok:
        return [{"kind": "star-satisfied-finitely"}]
    has_strict_pred = any(p.strict(b, witness) for b in range(p.n))
    if has_strict_pred:
        return [{"kind": "bad-witness", "atom": p.labels[witness]}]
    return []


def _chk_open_family(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    opens = ctx.once(tp.enumerate_opens, p)
    # each union and meet below is a carrier mask, so the table holds its openness
    is_open = [not c & ~s for s, c in enumerate(p.closures)]
    out = []
    # row-union openness is closed under ∪ and ∩: pairs, (z, z) too, decide any family
    for i, x in enumerate(opens):
        for y in opens[i:]:
            union, meet = x | y, x & y
            if not is_open[union]:
                out.append({"kind": "union", "x": format_atom_set(p, x),
                            "y": format_atom_set(p, y)})
            if meet and not is_open[meet]:
                out.append({"kind": "intersection", "x": format_atom_set(p, x),
                            "y": format_atom_set(p, y)})
    return out


def _chk_duality(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    return [{"set": format_atom_set(p, s)} for s in tp.duality_failures(p)]


def _chk_minimal_characterizations(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    opens = ctx.once(tp.enumerate_opens, p)
    family = sum(1 << x for x in opens)
    power = tp.subset_families(p.n)
    const_cones = tp.constant_rows([p.predecessors(a) for a in range(p.n)])
    const_classes = tp.constant_rows([p.equiv_class(a) for a in range(p.n)])
    out = []
    for x in opens:
        brute = family & power[x] == 1 << x  # no other open inside x
        by_cone = x in const_cones
        by_class = x in const_classes
        lib = tp.is_minimal_open(p, x)
        if not brute == by_cone == by_class == lib:
            out.append({"open": format_atom_set(p, x),
                        "brute": brute, "cone": by_cone,
                        "class": by_class, "library": lib})
    return out


def _chk_star_iff_no_minimal(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    star, _ = ctx.once(PreOrder.satisfies_star, p)
    no_minimal = not ctx.once(tp.minimal_opens, p)
    if star != no_minimal:
        return [{"star": star, "no_minimal": no_minimal}]
    return []


def _chk_cones_contain_minimal(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    minimal = ctx.once(tp.minimal_opens, p)
    out = []
    for a in range(p.n):
        cone = p.predecessors(a)
        if not any(not m & ~cone for m in minimal):
            out.append({"atom": p.labels[a]})
    return out


def _chk_shift_laws(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    # x is below y exactly when x lies inside t[y]. The largest y below z
    # is t[z] & full, and t is monotone, so the largest x below some y
    # below z is t[y] & full for that y: transitivity fails at z exactly
    # when this x escapes t[z], and (x, y, z) is then a failing triple
    t, full = p.closures, p.full_mask
    out = [{"kind": "reflexive", "x": format_atom_set(p, x)}
           for x in range(1 << p.n) if x & ~t[x]]
    for z in range(1 << p.n):
        y = t[z] & full
        x = t[y] & full
        if x & ~t[z]:
            out.append({"kind": "transitive",
                        "x": format_atom_set(p, x),
                        "y": format_atom_set(p, y),
                        "z": format_atom_set(p, z)})
    return out


def _chk_shift_total(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    if p.is_total() and not sh.shifted_is_total(p):
        return [{"kind": "shifted-not-total"}]
    return []


def _chk_connection(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    # one sweep decides check_connection and shifted_opens_match together
    failing, opens_match = sh._connection_sweep(p)
    out = [{"x": format_atom_set(p, x),
            "subset_dir": c.subset_dir,
            "equality_when_open": c.equality_when_open}
           for x, c in failing]
    if not opens_match:
        out.append({"kind": "induced-topologies-differ"})
    return out


def _chk_shift_minimal_contra(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    # an open of the lifted family is minimal when its inclusion row is
    # constant, as in minimal-open-characterizations
    opens = ctx.once(tp.enumerate_opens, p)
    has_minimal = bool(tp.constant_rows(tp.inclusion_rows(opens)))
    star, _ = ctx.once(PreOrder.satisfies_star, p)
    if has_minimal and star:
        return [{"kind": "minimal-despite-star"}]
    return []


def _chk_hierarchy_levels(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    depth = ctx.cfg.depth
    h = ctx.once(hm.Hierarchy, p)
    levels = h.build(depth)
    out = []
    for i, li in enumerate(levels):
        for lj in levels[i + 1:]:
            if li.value_set & lj.value_set:
                out.append({"kind": "levels-overlap", "i": li.index, "j": lj.index})
        if not li.values:
            out.append({"kind": "empty-level", "level": li.index})
    for li in levels[:-1]:
        nxt = levels[li.index]  # levels[k] has index k+1
        if li.value_set not in nxt.value_set:
            out.append({"kind": "level-not-member-of-next", "level": li.index})
    for li in levels:
        for v in li.values:
            if h.rank(v) != li.index:
                out.append({"kind": "rank-mismatch", "level": li.index,
                            "value": hm.render_value(v)})
    return out


def _chk_power_step(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    depth = ctx.cfg.depth
    h = ctx.once(hm.Hierarchy, p)
    levels = h.build(depth)
    out = []
    for lv in levels:
        rows = lv.sub_rows
        for i, cone in enumerate(rows):
            if cone == 0:
                out.append({"kind": "empty-cone", "level": lv.index, "element": i})
            elif tp.row_union(rows, cone) & ~cone:
                out.append({"kind": "cone-not-open", "level": lv.index, "element": i})
        for i, v in enumerate(lv.values):
            pe = h.power_element(hm.MElem(v, lv.index))
            # the literal cone, apart from the library's inclusion rows
            if pe.value != frozenset(z for z in lv.values if z <= v):
                out.append({"kind": "power-value-mismatch", "level": lv.index,
                            "element": i})
            if not h.member_level(pe.value, lv.index + 1):
                out.append({"kind": "power-not-member", "level": lv.index,
                            "element": i})
            if lv.index + 1 <= depth and pe.value not in levels[lv.index].value_set:
                out.append({"kind": "power-not-materialized", "level": lv.index,
                            "element": i})
    # the carrier's power collapses to level 1; each whole level's power
    # collapses to the next level
    full = frozenset(p.labels)
    pa = h.power_element(hm.MElem(full, 1))
    if pa.value != frozenset(levels[0].values):
        out.append({"kind": "carrier-power-mismatch"})
    for li in levels[:-1]:
        pw = h.power_element(hm.MElem(frozenset(li.values), li.index + 1))
        if pw.value != frozenset(levels[li.index].values):
            out.append({"kind": "level-power-mismatch", "level": li.index})
    return out


def _chk_subsets_in_m_open(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    depth = ctx.cfg.depth
    h = ctx.once(hm.Hierarchy, p)
    levels = h.build(depth)
    rng = ctx.rng("subsets-in-m-are-open", name)
    out = []
    for lv in levels[:max(1, depth - 1)]:
        vals, rows = lv.values, lv.sub_rows
        k = len(vals)
        masks = (range(1, 1 << k) if k <= 10
                 else [rng.randrange(1, 1 << k) for _ in range(150)])
        if k > 10 and lv.index + 1 <= depth:
            # a small level lists every subset, the next level among them
            masks.extend(levels[lv.index].masks)
        for m in masks:
            v = frozenset(vals[i] for i in bits(m))
            # membership is the library's answer; openness is read off the rows
            in_m = h.membership(v, depth + 1).in_m
            is_open = not tp.row_union(rows, m) & ~m
            if in_m != is_open:
                kind = "member-subset-not-open" if in_m else "open-subset-not-member"
                out.append({"kind": kind, "level": lv.index, "value": hm.render_value(v)})
    return out


def _mixed_family(h: hm.Hierarchy, depth: int, rng: random.Random,
                  count: int) -> list[frozenset]:
    if depth < 2:
        return []
    levels = h.build(depth)
    family = []
    for _ in range(count):
        picks = rng.sample(range(1, depth + 1), k=rng.randint(2, depth))
        parts: set = set()
        for n in sorted(picks):
            vals = levels[n - 1].values
            if rng.random() < 0.5:
                # union of inclusion cones: slice-open by construction
                tips = rng.sample(vals, k=min(len(vals), rng.randint(1, 2)))
                for t in tips:
                    parts.update(h.power_element(hm.MElem(t, n)).value)
            else:
                size = rng.randint(1, min(3, len(vals)))
                parts.update(rng.sample(vals, k=size))
        family.append(frozenset(parts))
    return family


def _direct_limit_successor(h: hm.Hierarchy, v: frozenset, depth: int) -> bool:
    """The literal reading of membership one step past the limit, over the
    levels ``h.build(depth)`` materialized and nothing else: v is nonempty,
    each member of v is a value of a built level, and every built value
    inside a member is a member too."""
    levels = h.build(depth)
    return bool(v) and all(
        any(w in lv.value_set for lv in levels)
        and all(z in v for lv in levels for z in lv.values if z <= w)
        for w in v)


def _chk_limit_partition(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    depth = ctx.cfg.depth
    h = ctx.once(hm.Hierarchy, p)
    rng = ctx.rng("limit-partition", name)
    out = []
    for v in _mixed_family(h, depth, rng, MIXED_FAMILY_SIZE):
        direct = _direct_limit_successor(h, v, depth)
        mem = h.membership(v, depth)
        by_slices = mem.kind == "limit" or (mem.kind == "level" and mem.level >= 2)
        # every member of v sits at a finite level <= depth, so a correct
        # answer is never undecided
        if direct != by_slices or mem.kind == "undecided":
            out.append({"value": hm.render_value(v), "direct": direct,
                        "slices": by_slices, "membership": mem.kind})
    return out


def _union_witnesses(h: hm.Hierarchy, v, depth: int) -> list[dict]:
    rep = h.union_report(v, depth)
    out = []
    # a corpus value and its union have members at finite levels <= depth,
    # so a correct answer for either is never undecided
    if "undecided" in (rep.membership.kind, rep.union_membership.kind):
        out.append({"kind": "undecided", "value": hm.render_value(v)})
    if rep.membership.kind == "level" and rep.membership.level == 1:
        if rep.union_value != frozenset():
            out.append({"kind": "bottom-union-not-empty",
                        "value": hm.render_value(v)})
        if rep.criterion_tier or rep.criterion_union or rep.criterion_unmixed:
            out.append({"kind": "bottom-criteria-not-false",
                        "value": hm.render_value(v)})
    if rep.decided and not rep.consistent:
        out.append({"kind": "criteria-disagree", "value": hm.render_value(v),
                    "tier": rep.criterion_tier, "union": rep.criterion_union,
                    "unmixed": rep.criterion_unmixed})
    return out


def _chk_union_criterion(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    depth = ctx.cfg.depth
    h = ctx.once(hm.Hierarchy, p)
    rng = ctx.rng("union-criterion", name)
    out = []
    for lv in h.build(depth):
        for v in lv.values:
            out.extend(_union_witnesses(h, v, depth))
    for v in _mixed_family(h, depth, rng, MIXED_FAMILY_SIZE):
        out.extend(_union_witnesses(h, v, depth))
    return out


def _chk_basic_no_partition(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    out = [{"kind": "basic-open-splits", "atom": p.labels[a]}
           for a in hm.split_cones(p.pred)]
    if p.n == 2 and all(p.pred[b] == 1 << b for b in range(p.n)):
        # negative control: the non-basic open {a,b} of the 2-antichain
        # must split into two opens
        if hm.find_open_partition(p.pred, p.full_mask) is None:
            out.append({"kind": "negative-control-failed"})
    if p.n <= HIER_MAX_N:
        h = ctx.once(hm.Hierarchy, p)
        for lv in h.build(min(ctx.cfg.depth, 2)):
            for i in hm.split_cones(lv.sub_rows):
                out.append({"kind": "level-basic-open-splits",
                            "level": lv.index, "element": i})
    return out


def _trichotomy_corpus(p: PreOrder, h: hm.Hierarchy, depth: int,
                       rng: random.Random) -> list:
    corpus: list = [frozenset()]
    corpus.extend(p.labels)
    levels = h.build(depth)
    for lv in levels:
        corpus.extend(lv.values[:8])
    atoms = list(p.labels)
    pool = [frozenset(rng.sample(atoms, k=rng.randint(1, len(atoms))))
            for _ in range(10)]
    for _ in range(40):
        depth_pick = rng.randint(1, min(3, depth))
        v = _random_hf(atoms, pool, rng, depth_pick)
        corpus.append(v)
    corpus.extend(_mixed_family(h, depth, rng, 10))
    for lv in levels[:2]:
        for v in lv.values[:4]:
            corpus.append(frozenset({atoms[0], v}))  # atom/set mix
    while len(corpus) < TRICHOTOMY_CORPUS:
        corpus.append(_random_hf(atoms, pool, rng,
                                 rng.randint(1, min(3, depth))))
    return corpus


def _random_hf(atoms: list, pool: list, rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    size = rng.randint(0, 3)
    kids = []
    for _ in range(size):
        if rng.random() < 0.4 and pool:
            kids.append(rng.choice(pool))
        else:
            kids.append(_random_hf(atoms, pool, rng, depth - 1))
    return frozenset(kids)


def _literal_magma(h: hm.Hierarchy, v: frozenset) -> bool:
    """Is the set v a magma, read off the built levels below its rank n and
    not from membership? At n <= 1 it is a value of level 1; past 1 it is in
    the limit successor over levels 1..n - 1, which holds level n too."""
    n = h.rank(v)
    return v in h.level(1).value_set if n < 2 else _direct_limit_successor(h, v, n - 1)


def _trichotomy_witnesses(h: hm.Hierarchy, v, depth: int) -> list[dict]:
    # the corpus reaches rank depth + 1, which bound depth leaves undecided
    depth = max(depth, h.rank(v))
    cls = h.classify(v, depth)
    if cls == "undecided":
        return [{"kind": "classification-not-total", "value": hm.render_value(v)}]
    expected = "atom" if isinstance(v, str) else "magma" if _literal_magma(h, v) else "set"
    if cls != expected:
        return [{"kind": "classification-mismatch", "value": hm.render_value(v),
                 "classified": cls}]
    return []


def _chk_trichotomy(p: PreOrder, name: str, ctx: RunContext) -> list[dict]:
    depth = ctx.cfg.depth
    h = ctx.once(hm.Hierarchy, p)
    rng = ctx.rng("magma-set-atom-trichotomy", name)
    out = []
    for v in _trichotomy_corpus(p, h, depth, rng):
        out.extend(_trichotomy_witnesses(h, v, depth))
    return out


# --- symbolic suite checks ----------------------------------------------------


def _chk_symbolic_axioms(model: sym.SymbolicPreOrder, name: str,
                         ctx: RunContext) -> list[dict]:
    v = sym.validate_model(model, depth=ctx.cfg.symbolic_depth,
                           seed=ctx.cfg.seed)
    return [{"kind": "axiom-violation", "detail": f} for f in v.failures]


def _gen_pool(model: sym.SymbolicPreOrder, rng: random.Random,
              depth: int, size: int) -> list[sym.GenOpen]:
    pool = []
    for _ in range(size):
        gens = tuple(model.random_atom(rng, 1, max(1, depth - 2))
                     for _ in range(rng.randint(1, 3)))
        pool.append(sym.GenOpen(model, 1, gens))
    return pool


def _chk_gen_subset_semantics(model: sym.SymbolicPreOrder, name: str,
                              ctx: RunContext) -> list[dict]:
    depth = ctx.cfg.symbolic_depth
    rng = ctx.rng("generator-subset-semantics", name)
    size = 50 if model.name == "prefix" else 20
    pool = _gen_pool(model, rng, depth, size)
    # bounded members, read once per generator as a mask over atoms_up_to;
    # inclusion of them is the semantic side of each pair. A member outside
    # atoms_up_to raises, and the run reports that as an exception witness.
    index = {a: i for i, a in enumerate(model.atoms_up_to(depth))}
    masks = []
    for g in pool:
        m = 0
        for a in sym.members_up_to(g, depth):
            m |= 1 << index[a]
        masks.append(m)
    out = []
    for g1, m1 in zip(pool, masks):
        for g2, m2 in zip(pool, masks):
            if sym.gen_subset(g1, g2) != (not m1 & ~m2):
                out.append({"g1": _render_gens(g1), "g2": _render_gens(g2)})
    return out


def _shrink_witnesses(g: sym.GenOpen) -> list[dict]:
    out = []
    cur = g
    for _ in range(3):
        smaller = sym.strict_shrink(cur)
        if not sym.gen_subset(smaller, cur) or sym.gen_equal(smaller, cur):
            out.append({"level": g.level,
                        "gens": _render_gens(g),
                        "step_gens": _render_gens(cur)})
            break
        cur = smaller
    return out


def _render_gens(g: sym.GenOpen) -> list:
    if g.level == 1:
        return [g.model.render_atom(a) for a in g.generators]
    return [_render_gens(x) for x in g.generators]


def _chk_shrink_descends(model: sym.SymbolicPreOrder, name: str,
                         ctx: RunContext) -> list[dict]:
    rng = ctx.rng("shrink-strictly-descends", name)
    depth = ctx.cfg.symbolic_depth
    out = []
    pool = _gen_pool(model, rng, depth, 25)
    for g in pool:
        out.extend(_shrink_witnesses(g))
    for g in pool[:8]:
        lifted = sym.GenOpen(model, 2, (g,))
        out.extend(_shrink_witnesses(lifted))
    return out


def _chk_cones_unbounded(model: sym.SymbolicPreOrder, name: str,
                         ctx: RunContext) -> list[dict]:
    rng = ctx.rng("generated-opens-unbounded", name)
    depth = ctx.cfg.symbolic_depth
    out = []
    for g in _gen_pool(model, rng, depth, 15):
        counts = [len(sym.members_up_to(g, d))
                  for d in (depth - 2, depth - 1, depth)]
        if not (counts[0] < counts[1] < counts[2]):
            out.append({"gens": _render_gens(g), "counts": counts})
    return out


def _chk_cluster_saturation(model: sym.SymbolicPreOrder, name: str,
                            ctx: RunContext) -> list[dict]:
    k = int(model.name.split(":")[1])
    rng = ctx.rng("clustered-class-saturation", name)
    depth = ctx.cfg.symbolic_depth
    pool = _gen_pool(model, rng, depth, 15)
    out = []
    strings = {s for s, _ in model.atoms_up_to(min(depth, 5))}
    for g in pool:
        for s in sorted(strings):
            votes = {sym.gen_member(g, (s, i)) for i in range(k)}
            if len(votes) != 1:
                out.append({"gens": _render_gens(g), "atom": s})
    return out


# --- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    suite_id: str
    statement: str
    check: Callable
    max_n: int | None = None           # finite scope: carrier-size limit
    models: tuple[str, ...] = ()       # symbolic scope: model names

    @property
    def scope(self) -> str:
        """The suite's scope: "symbolic" when it names models, else "finite"."""
        return "symbolic" if self.models else "finite"


_SUITE_LIST = [
    Suite("closure-idempotence",
          "rebuilding a closed relation from its own edges returns it unchanged",
          _chk_closure_idempotent),
    Suite("strict-part-laws",
          "the strict part is irreflexive and one-directional",
          _chk_strict_laws),
    Suite("class-vs-cone",
          "two atoms share a mutual-dependence class exactly when their cones match",
          _chk_class_vs_cone),
    Suite("cone-transitivity",
          "predecessor cones are downward closed, hence open",
          _chk_cone_transitive),
    Suite("finite-star-fails",
          "on a finite carrier some atom always lacks a strict predecessor",
          _chk_finite_star_fails),
    Suite("open-family-closure",
          "unions and nonempty intersections of open sets are open",
          _chk_open_family),
    Suite("open-complement-duality",
          "a set is lower open exactly when its complement is upper open",
          _chk_duality),
    Suite("minimal-open-characterizations",
          "minimality, constant cones, and constant classes coincide on opens",
          _chk_minimal_characterizations),
    Suite("star-iff-no-minimal",
          "every atom has a strict predecessor iff no open set is minimal",
          _chk_star_iff_no_minimal),
    Suite("cones-contain-minimal",
          "every finite predecessor cone contains a minimal open subset",
          _chk_cones_contain_minimal),
    Suite("shift-preorder-laws",
          "the shifted relation is reflexive and transitive on all subsets",
          _chk_shift_laws),
    Suite("shift-totality",
          "shifting preserves totality",
          _chk_shift_total),
    Suite("shift-powerset-connection",
          "shifted cones contain the powerset, equal it on opens, and induce "
          "the inclusion topology on the open-set family",
          _chk_connection),
    Suite("shifted-minimality-contrapositive",
          "a minimal open in the lifted family refutes the strict-predecessor "
          "condition on the base",
          _chk_shift_minimal_contra),
    Suite("hierarchy-levels",
          "levels are disjoint, nest as members, never fix, and carry rank = level",
          _chk_hierarchy_levels, max_n=HIER_MAX_N),
    Suite("powerset-cone-step",
          "the submagmas of a member form a member one level up",
          _chk_power_step, max_n=HIER_MAX_N),
    Suite("subsets-in-m-are-open",
          "a member that is a subset of a level is an open subset of that level",
          _chk_subsets_in_m_open, max_n=HIER_MAX_N),
    Suite("limit-partition",
          "membership one step past the limit is equivalent to per-level slices "
          "being members two steps up",
          _chk_limit_partition, max_n=HIER_MAX_N),
    Suite("union-criterion",
          "union membership, the two-steps-up tier, and level homogeneity agree",
          _chk_union_criterion, max_n=HIER_MAX_N),
    Suite("basic-open-no-partition",
          "no basic open splits into two disjoint nonempty opens",
          _chk_basic_no_partition),
    Suite("magma-set-atom-trichotomy",
          "every hereditarily finite value is an atom, a magma, or a plain set",
          _chk_trichotomy, max_n=HIER_MAX_N),
    Suite("symbolic-model-axioms",
          "the symbolic models are reflexive, transitive, and minimal-free "
          "on all samples",
          _chk_symbolic_axioms, models=("prefix", "clustered:2")),
    Suite("generator-subset-semantics",
          "generator-level inclusion matches bounded semantic inclusion",
          _chk_gen_subset_semantics, models=("prefix", "clustered:2")),
    Suite("shrink-strictly-descends",
          "every generated open has a proper generated subopen",
          _chk_shrink_descends, models=("prefix", "clustered:2")),
    Suite("generated-opens-unbounded",
          "bounded counts of every generated open grow strictly with depth",
          _chk_cones_unbounded, models=("prefix",)),
    Suite("clustered-class-saturation",
          "generated opens are constant on mutual-dependence clusters",
          _chk_cluster_saturation, models=("clustered:3",)),
]

SUITES: dict[str, Suite] = {s.suite_id: s for s in _SUITE_LIST}


# --- runner -------------------------------------------------------------------


def _witnesses(suite: Suite, model: object, name: str, ctx: RunContext) -> list[dict]:
    """The check's witnesses on one model.

    An exception other than CapExceeded is a bug in the check or in the
    library it tests, so it is reported as one witness of kind
    "exception" rather than stopping the run.
    """
    try:
        return suite.check(model, name, ctx)
    except CapExceeded:
        raise
    except Exception as exc:
        return [{"kind": "exception", "type": type(exc).__name__, "message": str(exc)}]


def _run_models(suite: Suite, models: list, ctx: RunContext, result: SuiteResult) -> None:
    """Check models in turn, adding to result: counts, failures in model
    order, and the time taken."""
    finite = suite.scope == "finite"
    recorded = {k: getattr(ctx.cfg, k) for k in RECORDED_CONFIG}
    start = time.perf_counter()
    for name, model in models:
        try:
            witnesses = _witnesses(suite, model, name, ctx)
        except CapExceeded as exc:
            # counted, and the run goes on: the suite is then partial, not pass
            result.models_capped += 1
            result.note = result.note or f"cap exceeded: {exc}"
            continue
        result.models_checked += 1
        if not witnesses:
            continue
        # symbolic models are rebuilt from their name alone
        text, labels, rows = ((format_preorder(model), model.labels, model.pred)
                              if finite else ("", (), ()))
        for witness in witnesses:
            result.failures.append(Counterexample(
                suite=suite.suite_id,
                model=name,
                model_text=text,
                labels=labels,
                rows=rows,
                witness=witness,
                message=f"{suite.suite_id} failed on {name}",
                config=dict(recorded),
            ))
    result.seconds += time.perf_counter() - start


def _run_finite(suites: list[Suite], ctx: RunContext, results: dict[str, SuiteResult],
                model_hook: Callable | None) -> None:
    """Run the finite suites block by block over the streamed models.

    One generator yields every model up to the largest limit, by size, with
    ``model_hook`` applied. Each block is pulled from it, checked by every
    suite in registry order, each over the block's models whose enumerated
    size is within its own limit, and then freed with its shared facts
    (:meth:`RunContext.once`). So a suite's counts and failures come out in
    model order, as when it runs alone, and its seconds add up over the
    blocks.

    A model whose size some selected suite with a size limit
    (``Suite.max_n``) checks is a block of its own: such a suite's work on
    a model is a level hierarchy, tens of KiB with its memo, so the memo
    then holds one hierarchy, not a block's. These models are the first
    ones of the stream; blocks of ``_BLOCK`` models follow them.
    """
    max_size = ctx.cfg.max_size
    limits = [min(max_size, s.max_n) if s.max_n else max_size for s in suites]
    scoped = max((limit for s, limit in zip(suites, limits) if s.max_n), default=0)
    models = ((n, f"n={n}#{idx}", p if model_hook is None else model_hook(p))
              for n in range(1, max(limits) + 1)
              for idx, p in enumerate(enumerate_preorders(n)))
    try:
        while (first := next(models, None)) is not None:
            block = [first] if first[0] <= scoped else [first, *islice(models, _BLOCK - 1)]
            ctx._memo = {}
            for suite, limit in zip(suites, limits):
                _run_models(suite, [(name, p) for n, name, p in block if n <= limit],
                            ctx, results[suite.suite_id])
    finally:
        ctx._memo = None


def run_suite(cfg: SuiteConfig, _model_hook: Callable | None = None) -> Report:
    """Run the selected suites; unselected ones appear as skipped.

    The finite suites run first, block by block (:func:`_run_finite`), then
    the symbolic ones, each over its models.
    """
    cfg.validate()
    ctx = RunContext(cfg)
    selected = [SUITES[sid] for sid in cfg.selected()]
    results = {s.suite_id: SuiteResult(s.suite_id, s.statement, 0) for s in selected}
    finite = [s for s in selected if s.scope == "finite"]
    if finite:
        _run_finite(finite, ctx, results, _model_hook)
    for suite in selected:
        if suite.scope != "finite":
            models = [(name, sym.model_by_name(name)) for name in suite.models]
            _run_models(suite, models, ctx, results[suite.suite_id])
    return Report(cfg, [results[sid] if sid in results
                        else SuiteResult(sid, s.statement, 0, skipped=True)
                        for sid, s in SUITES.items()])


def replay(blob: dict | Counterexample, cfg: SuiteConfig | None = None) -> bool:
    """Re-run the suite's check on the recorded model; True means it passes now.

    The relation is rebuilt verbatim from the recorded rows (no closure),
    so injected-fault models reproduce their verdicts. The check runs
    under the recorded seed and depths, so a seeded suite draws the same
    instances it drew when it failed; ``cfg`` (default ``SuiteConfig()``)
    supplies only the values the counterexample does not record. A check
    that raises anything but CapExceeded fails, as it does in a run.
    """
    cx = blob if isinstance(blob, Counterexample) else Counterexample.from_blob(blob)
    suite = SUITES.get(cx.suite)
    if suite is None:
        raise ValueError(f"counterexample names unknown suite {cx.suite!r}")
    run_cfg = replace(cfg or SuiteConfig(), **cx.config)
    run_cfg.validate()
    if suite.scope == "finite":
        if not cx.labels:
            raise ValueError("finite counterexample is missing its relation rows")
        limit = suite.max_n or ENUM_HARD_CAP
        if len(cx.labels) > limit:
            raise ValueError(f"{cx.suite} checks carriers of at most {limit} atoms, "
                             f"not {len(cx.labels)}")
        model: object = PreOrder(cx.labels, tuple(cx.rows))
    else:
        if cx.model not in suite.models:
            raise ValueError(f"{cx.suite} checks no symbolic model {cx.model!r}")
        model = sym.model_by_name(cx.model)
    return not _witnesses(suite, model, cx.model, RunContext(run_cfg))


# --- report rendering -----------------------------------------------------------


def render_report(report: Report, *, timing: bool = True) -> str:
    cfg = report.config
    config = {**asdict(cfg), "suites": ",".join(cfg.suites)}
    lines = ["magmas verification report", "config:",
             *(f"  {k}: {v}" for k, v in config.items())]
    ran = [r for r in report.results if not r.skipped]
    statuses = [r.status for r in ran]
    lines += [
        "summary:",
        f"  suites_run: {len(ran)}",
        f"  passed: {statuses.count('pass')}",
        f"  failed: {statuses.count('fail')}",
    ]
    if "partial" in statuses:
        lines.append(f"  partial: {statuses.count('partial')}")
    lines += [f"  skipped: {len(report.results) - len(ran)}", ""]
    for r in report.results:
        lines.append(f"suite: {r.suite_id}")
        lines.append(f"statement: {r.statement}")
        lines.append(f"status: {r.status}")
        if r.skipped:
            lines.append("")
            continue
        lines.append(f"models_checked: {r.models_checked}")
        if r.models_capped:
            lines.append(f"models_capped: {r.models_capped}")
        if r.note:
            lines.append(f"note: {r.note}")
        if timing:
            lines.append(f"wall_time_s: {r.seconds:.3f}")
        for i, cx in enumerate(r.failures, start=1):
            lines.append(f"counterexample_{i}:")
            lines.append(f"  model: {cx.model}")
            lines.append(f"  message: {cx.message}")
            lines.append("  witness: " + json.dumps(cx.witness, sort_keys=True))
            if cx.model_text:
                lines.append("  model_text: |")
                for tl in cx.model_text.rstrip("\n").splitlines():
                    lines.append(f"    {tl}")
        lines.append("")
    return "\n".join(lines)


def report_to_json(report: Report) -> dict:
    return {
        "config": {**asdict(report.config), "suites": list(report.config.suites)},
        "passed": report.passed,
        "results": [
            {
                "suite": r.suite_id,
                "statement": r.statement,
                "skipped": r.skipped,
                "models_checked": r.models_checked,
                "models_capped": r.models_capped,
                "note": r.note,
                "failures": [cx.to_blob() for cx in r.failures],
            }
            for r in report.results
        ],
    }
