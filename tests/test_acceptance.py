"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either fixed by an independent oracle computed
here (partition-sum model counts, pair-based minimality, literal
simulation) or is an exhaustive zero-tolerance property.
"""

import random
import time

from magmas import (Hierarchy, build, enumerate_opens, hf_rank,
                    minimal_opens, pr_plus, shift_leq, shifted_is_total,
                    shifted_opens_match, validate_model)
from magmas.hierarchy import find_open_partition, split_cones
from magmas.preorder import PreOrder, bits, format_preorder
from magmas.shifting import powerset_masks
from magmas.symbolic import (GenOpen, binary_string_model, clustered_model,
                             gen_equal, gen_member, gen_subset, members_up_to,
                             strict_shrink)
from magmas.topology import is_lower_open
from magmas.verify import SuiteConfig, render_report, replay, run_suite

from oracles import count_preorders_by_partition

HIER_SIZES = (1, 2, 3)
ALL_SIZES = (1, 2, 3, 4)


def report_line(num, name, violations, elapsed, budget=None):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    extra = f" budget {budget:.0f}s" if budget else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s{extra})")
    assert not violations, violations[:5]
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"


def all_models(models_by_size, sizes):
    for n in sizes:
        for idx, p in enumerate(models_by_size[n]):
            yield f"n={n}#{idx}", p


def hierarchy_of(p):
    return Hierarchy(p, growth_cap=20)


def test_criterion_01_enumeration_counts(models_by_size):
    t0 = time.perf_counter()
    violations = []
    expected = [1, 4, 29, 355]
    got = [len(models_by_size[n]) for n in ALL_SIZES]
    if got != expected:
        violations.append(("library counts", got))
    oracle = [count_preorders_by_partition(n) for n in ALL_SIZES]
    if oracle != expected:
        violations.append(("partition-sum oracle", oracle))
    report_line(1, "labeled pre-order counts", violations,
                time.perf_counter() - t0, budget=5)


def test_criterion_02_minimality_equivalence(models_by_size):
    t0 = time.perf_counter()
    violations = []
    checked = 0
    for name, p in all_models(models_by_size, ALL_SIZES):
        opens = enumerate_opens(p)
        for x in opens:
            brute = not any(y != x and not y & ~x for y in opens)
            by_cone = all(p.predecessors(a) == x for a in bits(x))
            by_class = all(p.equiv_class(a) == x for a in bits(x))
            from magmas import is_minimal_open
            lib = is_minimal_open(p, x)
            checked += 1
            if not brute == by_cone == by_class == lib:
                violations.append((name, x, brute, by_cone, by_class, lib))
    assert checked > 389  # every model contributes at least its carrier
    report_line(2, "minimal-open characterizations", violations,
                time.perf_counter() - t0, budget=30)


def test_criterion_03_star_iff_no_minimal(models_by_size):
    t0 = time.perf_counter()
    violations = []
    for name, p in all_models(models_by_size, ALL_SIZES):
        star, witness = p.satisfies_star()
        no_minimal = not minimal_opens(p)
        if star != no_minimal:
            violations.append((name, star, no_minimal))
        if star:
            violations.append((name, "finite model satisfied the condition"))
        if witness is None or any(p.strict(b, witness) for b in range(p.n)):
            violations.append((name, "bad witness"))
    report_line(3, "strict-predecessor condition iff no minimal open",
                violations, time.perf_counter() - t0)


def test_criterion_04_shift_laws(models_by_size):
    t0 = time.perf_counter()
    violations = []
    for name, p in all_models(models_by_size, HIER_SIZES):
        subsets = list(range(1 << p.n))
        for x in subsets:
            if not shift_leq(p, x, x):
                violations.append((name, "reflexivity", x))
        for x in subsets:
            below_x = [y for y in subsets if shift_leq(p, y, x)]
            for z in subsets:
                if shift_leq(p, x, z):
                    for y in below_x:
                        if not shift_leq(p, y, z):
                            violations.append((name, "transitivity", (y, x, z)))
        if p.is_total() and not shifted_is_total(p):
            violations.append((name, "totality"))
    report_line(4, "shifted relation is a pre-order (and total when the base is)",
                violations, time.perf_counter() - t0, budget=60)


def test_criterion_05_powerset_connection(models_by_size):
    t0 = time.perf_counter()
    violations = []
    for name, p in all_models(models_by_size, ALL_SIZES):
        for x in range(1 << p.n):
            cone = pr_plus(p, x)
            power = powerset_masks(x)
            if not set(power) <= set(cone):
                violations.append((name, "subset direction", x))
            if is_lower_open(p, x) and cone != power:
                violations.append((name, "equality on open", x))
        if not shifted_opens_match(p):
            violations.append((name, "induced topologies differ"))
    report_line(5, "shifted cones equal powersets on opens", violations,
                time.perf_counter() - t0)


def test_criterion_06_hierarchy_structure(models_by_size):
    t0 = time.perf_counter()
    violations = []
    for name, p in all_models(models_by_size, HIER_SIZES):
        h = hierarchy_of(p)
        levels = h.build(3)
        for i, li in enumerate(levels):
            for lj in levels[i + 1:]:
                if li.value_set & lj.value_set:
                    violations.append((name, "overlap", li.index, lj.index))
        for li in levels[:-1]:
            nxt = levels[li.index]
            if li.value_set not in nxt.value_set:
                violations.append((name, "level not member of next", li.index))
            if li.value_set == nxt.value_set:
                violations.append((name, "fixed point", li.index))
        for li in levels:
            for v in li.values:
                if hf_rank(v) != li.index:
                    violations.append((name, "rank", li.index))
        # power cones: nonempty and members one level up, also across levels
        for li in levels:
            for x in li.values:
                for lj in levels:
                    cone = frozenset(z for z in lj.values if z <= x)
                    if lj.index == li.index:
                        if not cone or not h.member_level(cone, lj.index + 1):
                            violations.append((name, "power cone", li.index))
                    elif cone:
                        violations.append((name, "cross-level cone", li.index,
                                           lj.index))
        # members below a level are open subsets of it
        l1 = levels[0]
        for mask in range(1, 1 << len(l1)):
            v = frozenset(l1.values[i] for i in bits(mask))
            if h.membership(v, 4).in_m and not h.member_level(v, 2):
                violations.append((name, "subset-in-m not open", 1))
        rng = random.Random(f"acceptance6:{name}")
        l2 = levels[1]
        for _ in range(60):
            if not len(l2):
                break
            mask = rng.randrange(1, 1 << len(l2))
            v = frozenset(l2.values[i] for i in bits(mask))
            if h.membership(v, 4).in_m and not h.member_level(v, 3):
                violations.append((name, "subset-in-m not open", 2))
    report_line(6, "hierarchy levels: disjoint, nested, power-closed, ranked",
                violations, time.perf_counter() - t0, budget=120)


def mixed_family(h, rng, count=20):
    levels = h.build(3)
    out = []
    for _ in range(count):
        chosen = rng.sample((1, 2, 3), k=rng.randint(2, 3))
        parts = set()
        for n in chosen:
            vals = levels[n - 1].values
            if rng.random() < 0.5:
                for tip in rng.sample(vals, k=min(len(vals), rng.randint(1, 2))):
                    parts.update(z for z in vals if z <= tip)
            else:
                parts.update(rng.sample(vals, k=rng.randint(1, min(3, len(vals)))))
        out.append(frozenset(parts))
    return out


def test_criterion_07_union_criteria(models_by_size):
    t0 = time.perf_counter()
    violations = []
    for name, p in all_models(models_by_size, HIER_SIZES):
        h = hierarchy_of(p)
        rng = random.Random(f"acceptance7:{name}")
        candidates = [v for lv in h.build(3) for v in lv.values]
        candidates += mixed_family(h, rng)
        for v in candidates:
            rep = h.union_report(v, 3)
            if not rep.decided:
                continue
            if not rep.consistent:
                violations.append((name, "criteria disagree", v))
            if rep.membership.kind == "level" and rep.membership.level == 1:
                if rep.union_value != frozenset() or rep.criterion_union:
                    violations.append((name, "bottom union not empty", v))
            if (rep.membership.kind == "limit"
                    and 1 in rep.membership.slice_levels):
                # union mixes atoms with sets, so it must fall outside
                if rep.union_membership.in_m:
                    violations.append((name, "mixing union in M", v))
    report_line(7, "union membership equivalences", violations,
                time.perf_counter() - t0)


def test_criterion_08_partition_and_trichotomy(models_by_size):
    t0 = time.perf_counter()
    violations = []
    for name, p in all_models(models_by_size, ALL_SIZES):
        for a in split_cones(p.pred):
            violations.append((name, "basic open split", a))
    anti2 = build("ab")
    if find_open_partition(anti2.pred, anti2.full_mask) is None:
        violations.append(("negative control", "{a,b} failed to split"))
    for name, p in all_models(models_by_size, HIER_SIZES):
        h = hierarchy_of(p)
        for lv in h.build(2):
            if split_cones(lv.sub_rows):
                violations.append((name, "level basic open split", lv.index))
    corpus_total = 0
    for name, p in all_models(models_by_size, HIER_SIZES):
        h = hierarchy_of(p)
        rng = random.Random(f"acceptance8:{name}")
        atoms = list(p.labels)
        corpus = [frozenset()] + atoms
        for lv in h.build(3):
            corpus.extend(lv.values[:6])
        corpus.extend(mixed_family(h, rng, 8))
        for lv in h.build(2):
            corpus.extend(frozenset({atoms[0], v}) for v in lv.values[:3])
        def rand_hf(depth):
            if depth == 0 or rng.random() < 0.35:
                return rng.choice(atoms)
            return frozenset(rand_hf(depth - 1) for _ in range(rng.randint(0, 3)))
        while len(corpus) < 100:
            corpus.append(rand_hf(rng.randint(1, 3)))
        corpus_total += len(corpus)
        for v in corpus:
            cls = h.classify(v, 3)
            is_atom = isinstance(v, str)
            in_m = (not is_atom) and h.membership(v, 3).in_m
            expected = "atom" if is_atom else ("magma" if in_m else "set")
            if cls != expected or cls == "undecided":
                violations.append((name, "classification", v, cls))
    assert corpus_total >= 100 * 34
    report_line(8, "no basic-open partitions; atom/magma/set trichotomy",
                violations, time.perf_counter() - t0)


def test_criterion_09_symbolic_suite():
    t0 = time.perf_counter()
    violations = []
    prefix = binary_string_model()
    clustered = clustered_model(2)
    for model in (prefix, clustered):
        v = validate_model(model, depth=8, seed=0)
        violations.extend((model.name, f) for f in v.failures)
    rng = random.Random("acceptance9")
    pool = [GenOpen(prefix, 1,
                    tuple(prefix.random_atom(rng, 1, 6)
                          for _ in range(rng.randint(1, 3))))
            for _ in range(50)]
    for g1 in pool:
        for g2 in pool:
            semantic = all(gen_member(g2, z) for z in members_up_to(g1, 8))
            if gen_subset(g1, g2) != semantic:
                violations.append(("semantic", g1.generators, g2.generators))
    for g in pool[:25]:
        cur = g
        for _ in range(3):
            nxt = strict_shrink(cur)
            if not gen_subset(nxt, cur) or gen_equal(nxt, cur):
                violations.append(("shrink", cur.generators))
                break
            cur = nxt
    lifted = GenOpen(prefix, 2, (pool[0],))
    s = strict_shrink(lifted)
    if not gen_subset(s, lifted) or gen_equal(s, lifted):
        violations.append(("level-2 shrink", pool[0].generators))
    cpool = [GenOpen(clustered, 1,
                     tuple(clustered.random_atom(rng, 1, 5)
                           for _ in range(rng.randint(1, 2))))
             for _ in range(15)]
    for g in cpool:
        for s_raw in ("0", "1", "01", "10", "010", "111"):
            votes = {gen_member(g, (s_raw, i)) for i in range(2)}
            if len(votes) != 1:
                violations.append(("saturation", g.generators, s_raw))
    report_line(9, "symbolic models: axioms, semantics, shrinking, saturation",
                violations, time.perf_counter() - t0, budget=10)


def break_closure(p):
    if p.n == 3 and all(p.pred[b] == 1 << b for b in range(3)):
        a, b, c = 1, 2, 4
        return PreOrder(p.labels, (a | c, a | b, b | c))
    return p


def test_criterion_10_determinism_and_replay():
    t0 = time.perf_counter()
    violations = []

    def stripped(report):
        return "\n".join(l for l in render_report(report).splitlines()
                         if not l.startswith("wall_time_s:"))

    cfg = SuiteConfig(max_size=2)
    if stripped(run_suite(cfg)) != stripped(run_suite(cfg)):
        violations.append(("determinism", "reports differ"))

    fault_cfg = SuiteConfig(suites=("minimal-open-characterizations",), max_size=3)
    report = run_suite(fault_cfg, _model_hook=break_closure)
    if report.passed or not report.failures:
        violations.append(("fault injection", "no counterexample"))
    else:
        blob = report.failures[0].to_blob()
        if replay(blob) is not False:
            violations.append(("replay", "fault did not reproduce"))
        if replay(blob, SuiteConfig(seed=4242)) is not False:
            violations.append(("replay", "verdict depended on seed"))
        chain = build("abc", [("a", "b"), ("b", "c")])
        passing = dict(blob, labels=list(chain.labels), rows=list(chain.pred),
                       model_text=format_preorder(chain))
        if replay(passing) is not True:
            violations.append(("replay", "passing check did not pass"))
    report_line(10, "deterministic reports and exact replay", violations,
                time.perf_counter() - t0)
