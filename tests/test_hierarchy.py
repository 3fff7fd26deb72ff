import os
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magmas
from magmas import (CapExceeded, Hierarchy, MElem, Membership, PreOrder, build,
                    enumerate_opens, hf_rank, hf_union)
from magmas.hierarchy import (MAX_NESTING, find_open_partition, parse_value, render_value,
                              split_cones)
from magmas.preorder import bits
from magmas.topology import CARRIER_CAP, inclusion_rows

from oracles import (_ideals_by_subsets, closure_pairs, ideals_of, inclusion_rows_of,
                     literal_rank, mask_is_open, open_split_exists, opens_of,
                     preorder_rows_by_pattern)


def hset(*labels):
    return frozenset(labels)


def h_of(p, growth_cap=20):
    return Hierarchy(p, growth_cap=growth_cap)


# --- values ------------------------------------------------------------------


def test_rank():
    assert hf_rank("a") == 0
    assert hf_rank(frozenset()) == 0
    assert hf_rank(hset("a", "b")) == 1
    assert hf_rank(frozenset({hset("a")})) == 2
    assert hf_rank(frozenset({"a", hset("a")})) == 2


def random_hf(rng, labels, depth):
    """A seeded value of rank at most depth, mixing atoms and sets."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(labels)
    return frozenset(random_hf(rng, labels, depth - 1)
                     for _ in range(rng.randint(0, 3)))


def test_rank_matches_literal_rank():
    rng = random.Random("hf-rank")
    values = [random_hf(rng, "abc", rng.randint(0, 5)) for _ in range(500)]
    shared: dict = {}
    for v in values:
        own: dict = {}
        assert hf_rank(v) == hf_rank(v, own) == hf_rank(v, shared) == literal_rank(v)
        assert hf_rank(v, own) == literal_rank(v)  # answered from the memo
        assert all(r == literal_rank(w) for w, r in own.items())
    assert all(r == literal_rank(w) for w, r in shared.items())
    assert max(shared.values()) >= 4 and any(isinstance(v, str) for v in values)


def test_melem_is_an_immutable_record():
    v = parse_value("{a,b}")
    e = MElem(v, 1)
    assert e == MElem(v, 1) and e != MElem(v, 2) and e != MElem(hset("a"), 1)
    assert e == (v, 1) and hash(e) == hash(MElem(v, 1)) == hash((v, 1))
    assert (e.value, e.level) == (v, 1) and len({e, MElem(v, 1)}) == 1
    assert repr(e) == f"MElem(value={v!r}, level=1)"
    for field in ("value", "level"):
        with pytest.raises(AttributeError):
            setattr(e, field, None)


def test_union():
    assert hf_union(hset("a", "b")) == frozenset()
    assert hf_union(frozenset({hset("a"), hset("b")})) == hset("a", "b")
    assert hf_union(frozenset({"a", hset("b")})) == hset("b")


def test_parse_render_roundtrip():
    for text in ["a", "{a}", "{a,b}", "{{a},{a,b}}", "{}", "{{a},{{a},{b}}}"]:
        v = parse_value(text)
        assert parse_value(render_value(v)) == v
    assert render_value(parse_value("{ {a ,b}, {a} }")) == "{{a},{a,b}}"
    assert parse_value("{}") == frozenset()


hf_values = st.recursive(st.sampled_from(["a", "b", "c1", "x_2"]),
                         lambda kids: st.frozensets(kids, max_size=3), max_leaves=12)
blanks = st.text(alphabet=" \t\n", max_size=2)


@settings(max_examples=200)
@given(hf_values, st.data())
def test_parse_inverts_render_with_blanks(v, data):
    tokens = re.findall(r"[{},]|[^{},]+", render_value(v))
    text = "".join(data.draw(blanks) + t for t in tokens) + data.draw(blanks)
    assert parse_value(render_value(v)) == parse_value(text) == v


@pytest.mark.parametrize("bad", ["", "{a", "a}b", "{a,,b}", "{a} x", "{a b}", "{,a}",
                                 "{a,}", "}", "{{a}",
                                 pytest.param("{" * 1200 + "a" + "}" * 1200, id="nested-1200")])
def test_parse_rejects_bad_literals(bad):
    with pytest.raises(ValueError, match=r"position \d+"):
        parse_value(bad)


def test_render_sorts_rank_zero_members_by_text():
    # atoms and the empty set share rank 0 and size 0, so text decides
    assert render_value(frozenset({"a", frozenset()})) == "{a,{}}"
    assert render_value(frozenset({"~", frozenset()})) == "{{},~}"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="{},ab \t\n", max_size=40))
def test_parse_value_answers_or_refuses(text):
    try:
        v = parse_value(text)
    except ValueError:
        return
    assert parse_value(render_value(v)) == v


def test_parse_nesting_cap():
    deep = "{" * MAX_NESTING + "a" + "}" * MAX_NESTING
    assert hf_rank(parse_value(deep)) == MAX_NESTING
    with pytest.raises(ValueError, match=f"position {MAX_NESTING}$"):
        parse_value("{" + deep + "}")


# --- level construction --------------------------------------------------------


def test_level1_matches_open_enumeration(chain3, antichain2, twocycle):
    for p, sizes in ((chain3, 3), (antichain2, 3), (twocycle, 1)):
        lv = h_of(p).level(1)
        assert lv.index == 1 and len(lv) == sizes
        assert list(lv.values) == [frozenset(p.set_labels(s))
                                   for s in enumerate_opens(p)]
    # seeded raw rows over n + 1 bits: unclosed, and bit n outside the
    # carrier keeps its atom out of every level-1 set, as in enumerate_opens
    rng = random.Random("level1-raw")
    outside = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        p = PreOrder(tuple("abcde"[:n]), tuple(rng.getrandbits(n + 1) for _ in range(n)))
        outside += any(row >> n for row in p.pred)
        lv = h_of(p).level(1)
        assert lv.masks == tuple(enumerate_opens(p)), p
        assert list(lv.values) == [frozenset(p.set_labels(m)) for m in lv.masks]
    assert outside > 200


def test_level1_carrier_cap():
    # level 1 walks every subset of the carrier, so it stops past CARRIER_CAP
    with pytest.raises(CapExceeded):
        Hierarchy(build([f"x{i}" for i in range(CARRIER_CAP + 1)])).build(1)
    at_cap = Hierarchy(build([f"x{i}" for i in range(CARRIER_CAP)]))
    assert len(at_cap.level(1)) == 2 ** CARRIER_CAP - 1


def test_antichain2_level2_exact(antichain2):
    lv2 = h_of(antichain2).level(2)
    a, b, ab = hset("a"), hset("b"), hset("a", "b")
    assert set(lv2.values) == {
        frozenset({a}), frozenset({b}), frozenset({a, b}),
        frozenset({a, b, ab}),
    }


def test_chain3_level2_size(chain3):
    assert len(h_of(chain3).level(2)) == 3


def test_levels_are_frozen(chain3):
    h = h_of(chain3)
    lv = h.level(1)
    for field in ("index", "masks", "values"):
        with pytest.raises(FrozenInstanceError):
            setattr(lv, field, None)
    # the cached fields still fill in, and equality stays identity
    assert lv.sub_rows is lv.sub_rows and lv.value_set == frozenset(lv.values)
    assert lv.cones is lv.cones and lv.cones[hset("a")] == {hset("a")}
    assert lv == h.level(1) and lv != h_of(chain3).level(1)
    assert repr(lv) == "HierarchyLevel(1, size=3)"


def test_level2_matches_ideal_oracle(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            h = h_of(p)
            l1 = h.level(1)
            expected = ideals_of(l1.values, lambda z, w: z <= w)
            assert set(h.level(2).values) == \
                {frozenset(i) for i in expected}


def test_build_levels_sizes(antichain2, antichain3, chain3):
    assert [len(l) for l in h_of(antichain2).build(2)] == [3, 4]
    assert [len(l) for l in h_of(antichain3).build(3)] == [7, 18, 81]
    sizes = [len(l) for l in h_of(chain3).build(3)]
    assert all(s > 0 for s in sizes)
    assert len(set(sizes)) == len(sizes) or sizes == [3, 3, 3]


def test_build_and_level_reject_depth_below_one(antichain2):
    # after build(3) a negative depth must not slice off the top levels
    h = h_of(antichain2)
    h.build(3)
    for depth in (0, -1, -2):
        with pytest.raises(ValueError, match="numbered from 1"):
            h.build(depth)
        with pytest.raises(ValueError, match="numbered from 1"):
            h.level(depth)
    assert h.built_depth == 3


def test_levels_disjoint_and_nested(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            levels = h_of(p).build(3)
            for i, li in enumerate(levels):
                for lj in levels[i + 1:]:
                    assert not li.value_set & lj.value_set
            for li in levels[:-1]:
                nxt = levels[li.index]
                assert li.value_set in nxt.value_set
                assert li.value_set != nxt.value_set  # no fixed point


def test_rank_equals_level(models_by_size):
    for p in models_by_size[3]:
        for lv in h_of(p).build(3):
            assert all(hf_rank(v) == lv.index for v in lv.values)


def test_hierarchy_rank_memo_matches_hf_rank(models_by_size):
    assert not hasattr(hf_rank, "cache_info")  # no process-global memo
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            h = h_of(p)
            # top level first, so lower values are answered from the memo
            for lv in reversed(h.build(3)):
                for v in lv.values:
                    assert h.rank(v) == hf_rank(v) == lv.index


def test_growth_cap(antichain3):
    h = Hierarchy(antichain3)
    assert len(h.build(3)[2]) == 81  # |M2| = 18 is within the default cap
    with pytest.raises(CapExceeded):
        h.build(4)


def test_growth_cap_admits_a_level_of_exactly_the_cap(antichain2):
    h = h_of(antichain2, growth_cap=3)
    assert [len(lv) for lv in h.build(2)] == [3, 4]  # level 1 has 3 elements
    with pytest.raises(CapExceeded, match="level 2 has 4 elements"):
        h.build(3)


def test_bottom_level_outside_level2(antichain2):
    # the members of rank <= 2 strictly exceed level 2
    h = h_of(antichain2)
    l1, l2 = h.build(2)
    assert all(hf_rank(v) <= 2 for v in l1.values)
    assert not l1.value_set & l2.value_set


# --- membership ----------------------------------------------------------------


@pytest.fixture(scope="module")
def levelled_bases():
    """(pre-order, levels 1..3 as frozensets) for every base with n <= 3.

    The bases come from the oracle's pattern walk, and each level from
    ``opens_of`` and ``ideals_of``, so no library code picks a value.
    """
    out = []
    for n in (1, 2, 3):
        labels = "abc"[:n]
        for rows in preorder_rows_by_pattern(n):
            rel = {(labels[a], labels[b]) for b, row in enumerate(rows) for a in row}
            levels = [frozenset(opens_of(rel, labels))]
            while len(levels) < 3:
                levels.append(frozenset(ideals_of(levels[-1], lambda z, w: z <= w)))
            p = PreOrder.from_pred_rows(labels, [sum(1 << a for a in row) for row in rows])
            out.append((p, levels))
    return out


def test_grown_ideals_match_the_subset_walk():
    # seeded relations on k <= 8 points: partial orders (closed, with the
    # cycles' back edges dropped) and plain relations, not transitive
    rng = random.Random("ideals")
    for case in range(60):
        k = rng.randint(1, 8)
        pairs = {(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, 2 * k))}
        if case % 2:
            pairs = closure_pairs(range(k), {(a, b) for a, b in pairs if a < b})
        below = (lambda z, w, r=frozenset(pairs): (z, w) in r)
        assert ideals_of(range(k), below) == _ideals_by_subsets(range(k), below), pairs


def test_inclusion_rows_on_oracle_levels(levelled_bases):
    # each level's members as masks over the level below, ordered by render
    for _, levels in levelled_bases:
        for lower, upper in zip(levels, levels[1:]):
            index = {v: i for i, v in enumerate(sorted(lower, key=render_value))}
            masks = [sum(1 << index[v] for v in w) for w in sorted(upper, key=render_value)]
            assert inclusion_rows(masks) == inclusion_rows_of(masks)


def oracle_level(v, levels):
    """v's level among 1..4, or None; level 4 is read off level 3 by its
    definition: nonempty sets of level-3 values that hold every level-3
    value included in one of their members."""
    for k, lv in enumerate(levels, 1):
        if v in lv:
            return k
    top = levels[-1]
    if (isinstance(v, frozenset) and v and v <= top
            and all(z in v for y in v for z in top if z <= y)):
        return len(levels) + 1
    return None


def probe_values(levels, labels, rng):
    """Every level value, near misses one member short, and random values."""
    values = [v for lv in levels for v in sorted(lv, key=render_value)]
    for v in list(values):
        if len(v) > 1:
            values.append(v - {rng.choice(sorted(v, key=render_value))})
    values += [random_hf(rng, labels, rng.randint(0, 4)) for _ in range(40)]
    values.append(levels[-1])  # the whole of level 3, a level-4 member
    return values


def test_member_memo_agrees_in_any_order(levelled_bases):
    # one hierarchy answers every query twice, in two seeded orders, as a
    # fresh hierarchy per query and the oracle do
    rng = random.Random("member-memo")
    seen_levels = set()
    for p, levels in levelled_bases:
        values = probe_values(levels, list(p.labels), rng)
        level_of = {v: oracle_level(v, levels) for v in values}
        queries = [(v, k) for v in values for k in (1, 2, 3, 4)]
        fresh = {(v, k): h_of(p).member_level(v, k) for v, k in queries}
        fresh_finite = {v: h_of(p).finite_level_of(v, 4) for v in values}
        fresh_membership = {v: h_of(p).membership(v, 4) for v in values}
        for v, k in queries:
            assert fresh[v, k] == (level_of[v] == k), (p, v, k)
            seen_levels.add((k, fresh[v, k]))
        for v in values:
            assert fresh_finite[v] == level_of[v], (p, v)
            if level_of[v] is None:
                assert fresh_membership[v].kind != "level", (p, v)
            else:
                assert fresh_membership[v] == Membership("level", level_of[v]), (p, v)
        for order in ("first", "second"):
            shuffled = queries * 2  # every query asked twice
            random.Random(f"{order}:{p.pred}").shuffle(shuffled)
            h = h_of(p)
            for v, k in shuffled:
                lv = level_of[v]
                assert h.member_level(v, k) == fresh[v, k], (order, v, k)
                assert h.finite_level_of(v, k) == (lv if lv and lv <= k else None)
                assert h.finite_level_of(v, 4) == fresh_finite[v], (order, v)
                assert h.membership(v, 4) == fresh_membership[v], (order, v)
    assert seen_levels == {(k, ok) for k in (1, 2, 3, 4) for ok in (False, True)}


def test_membership_answers_are_shared_and_frozen(antichain2):
    h, other = h_of(antichain2), h_of(antichain2)
    v = parse_value
    shared = [
        (h.membership("a", 3), other.membership(frozenset(), 3), Membership("outside")),
        (h.membership(v("{{{{a}}}}"), 3), other.membership(v("{{{{b}}}}"), 3),
         Membership("undecided")),
        (h.membership(v("{a}"), 3), other.membership(v("{b}"), 3), Membership("level", 1)),
        (h.membership(v("{{a}}"), 3), other.membership(v("{{b}}"), 3),
         Membership("level", 2)),
    ]
    for got, again, built in shared:
        assert got == built and got is again
    limit = h.membership(v("{{a},{{a}}}"), 3)
    assert limit == Membership("limit", slice_levels=(1, 2))
    for got in [row[0] for row in shared] + [limit]:
        with pytest.raises(FrozenInstanceError):
            got.kind = "level"
        with pytest.raises(FrozenInstanceError):
            got.level = 7


@pytest.mark.parametrize("bound", [0, -1])
def test_bound_below_one_is_rejected(antichain2, bound):
    h = h_of(antichain2)
    v = parse_value("{a}")
    assert h.finite_level_of(v, 1) == 1  # v is now memoized
    assert h.membership(v, 1) == Membership("level", 1)
    for query in (h.finite_level_of, h.membership, h.classify, h.union_report):
        for value in (v, "a", frozenset()):
            with pytest.raises(ValueError, match="bound must be at least 1"):
                query(value, bound)


def test_member_level_examples(antichain2):
    h = h_of(antichain2)
    assert h.member_level(parse_value("{{a}}"), 2)
    assert not h.member_level(parse_value("{{a},{a,b}}"), 2)  # {b} missing
    assert not h.member_level(frozenset(), 1)
    assert not h.member_level(frozenset(), 2)
    assert h.member_level(parse_value("{a}"), 1)
    assert not h.member_level(parse_value("{z}"), 1)
    assert not h.member_level(parse_value("{b}"), 2)


def test_member_level_agrees_with_materialized(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            h = h_of(p)
            levels = h.build(3)
            probe = h_of(p)  # fresh caches: recursion not seeded by build
            for lv in levels:
                for v in list(lv.values)[:12]:
                    assert probe.member_level(v, lv.index)
                    for other in levels:
                        if other.index != lv.index:
                            assert not probe.member_level(v, other.index)


def test_finite_level_of_is_rank(models_by_size):
    models = [p for n in (1, 2, 3) for p in models_by_size[n]]
    assert len(models) == 34
    off_level = 0
    for p in models:
        levels = h_of(p).build(3)
        probe = h_of(p)  # fresh caches: nothing answered by build
        for lv in levels:
            for v in lv.values:
                assert probe.finite_level_of(v, 3) == lv.index
                if lv.index > 1:
                    assert probe.finite_level_of(v, lv.index - 1) is None
        assert probe.finite_level_of(frozenset(), 3) is None
        assert all(probe.finite_level_of(a, 3) is None for a in p.labels)
        # singletons and prefixes of a level that the next level lacks
        for lv, above in zip(levels, levels[1:]):
            vals = lv.values
            subsets = ({frozenset([v]) for v in vals}
                       | {frozenset(vals[:i]) for i in range(1, len(vals) + 1)})
            for s in subsets - above.value_set:
                assert probe.finite_level_of(s, 3) is None
                off_level += 1
    assert off_level > 0


def test_membership_examples(antichain2):
    h = h_of(antichain2)
    m1um2 = frozenset(h.level(1).values) | frozenset(h.level(2).values)
    mem = h.membership(m1um2, 3)
    assert mem.kind == "limit" and mem.slice_levels == (1, 2)

    mixed = frozenset({parse_value("{a}"), parse_value("{{a}}")})
    mem = h.membership(mixed, 3)
    assert mem.kind == "limit" and mem.slice_levels == (1, 2)

    assert h.membership(parse_value("{a}"), 3).kind == "level"
    assert h.membership(parse_value("{a}"), 3).level == 1
    assert h.membership("a", 3).kind == "outside"
    assert h.membership(frozenset(), 3).kind == "outside"
    assert h.membership(parse_value("{a,{a}}"), 3).kind == "outside"
    assert h.membership(parse_value("{b}"), 3).kind == "level"


def test_membership_undecided_past_bound(antichain2):
    h = h_of(antichain2)
    deep = parse_value("{{{{a}}}}")  # rank 4
    assert h.membership(deep, 3).kind == "undecided"
    tall_member = frozenset({parse_value("{a}"), parse_value("{{{a}}}")})
    assert h.membership(tall_member, 2).kind == "undecided"
    # a member of rank 3 over bound 2 leaves the value undecided, even one
    # that bound 3 shows to be outside
    mixed_tall = parse_value("{{a,{{a}}}}")
    assert h.membership(mixed_tall, 2).kind == "undecided"
    assert h.membership(mixed_tall, 3).kind == "outside"


def test_membership_decisive_within_bound(antichain2):
    h = h_of(antichain2)
    not_open = frozenset({parse_value("{{a},{a,b}}")})  # member not in M
    assert h.membership(not_open, 3).kind == "outside"
    # a member with no finite level that mixes an atom and a set
    for b in range(2, 5):
        assert h.membership(parse_value("{{a,{a}}}"), b).kind == "outside"
        assert h.membership(parse_value("{{b},{a,{{a}}}}"), b + 1).kind == "outside"


def test_one_slice_is_outside_at_the_bound_and_undecided_past_it(antichain2):
    h = h_of(antichain2)
    v = parse_value("{{a,b}}")  # its member {a,b} lies over {a}, which is missing
    assert h.membership(v, 2).kind == "outside"
    assert h.membership(v, 1).kind == "undecided"


def test_membership_describe(antichain2):
    h = h_of(antichain2)
    mixed = frozenset({parse_value("{a}"), parse_value("{{a}}")})
    assert [h.membership(v, 3).describe() for v in
            (parse_value("{a}"), mixed, "a", parse_value("{{{{a}}}}"))] == [
        "level 1", "limit+1 (bounded; slices at levels 1,2)",
        "not a magma (within bound)", "undecided (bound too small)"]


def test_slices_must_all_pass(chain3):
    h = h_of(chain3)
    # {a} is minimal, so {{a}} is a level-2 member; {a,b} is not minimal,
    # so the singleton {{a,b}} fails, and mixing it in breaks the slice
    good = frozenset({parse_value("{a}"), parse_value("{{a}}")})
    assert h.membership(good, 3).kind == "limit"
    bad = frozenset({parse_value("{a,b}"), parse_value("{{a}}")})
    assert h.membership(bad, 3).kind == "outside"


def one_atom_tiers():
    """On the carrier {a}: a member u of M_{omega+1}, and the set of u's
    subsets that lie in M_{omega+1}, a nonempty down-closed set of that tier
    under inclusion, so a member of M_{omega+2}."""
    x1 = hset("a")
    x2 = frozenset({x1})
    x3, u = frozenset({x2}), frozenset({x1, x2})
    return h_of(build("a")), u, frozenset({x2, x3, u})


def test_one_atom_limit_member():
    h, u, _ = one_atom_tiers()
    mem = h.membership(u, 3)
    assert mem.kind == "limit" and mem.slice_levels == (1, 2)


def test_member_of_the_second_tier_past_the_limit_is_not_outside():
    h, _, p = one_atom_tiers()
    for b in range(3, 7):
        assert h.membership(p, b).kind != "outside"
        assert h.classify(p, b) != "set"
        # a member that is itself undecided leaves its holder undecided
        assert h.membership(frozenset({p}), b).kind == "undecided"


# each value holds a member that decides "outside" (an atom, or a set mixing
# an atom and a set) beside one that alone would leave it undecided (a limit
# member, a second-tier member, a member too deep for the bound)
_ORDER_PROBE = """
from magmas import build, Hierarchy
from magmas.hierarchy import parse_value
h = Hierarchy(build("a"))
u = "{{a},{{a}}}"
p = "{{{a}},{{{a}}}," + u + "}"
for text, bound in (("{a," + u + "}", 3), ("{" + p + ",{a,{a}}}", 5),
                    ("{a,{{{{a}}}}}", 2)):
    v = parse_value(text)
    print(h.membership(v, bound).kind, h.classify(v, bound))
"""


def test_an_outside_member_decides_in_any_member_order():
    # frozenset order follows the string hash seed, so each seed may meet
    # the members in another order
    src = str(Path(magmas.__file__).parents[1])
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _ORDER_PROBE], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines() == ["outside set"] * 3, (seed, out)


# --- powerset ------------------------------------------------------------------


def test_power_element_examples(antichain2):
    h = h_of(antichain2)
    pe = h.power_element(MElem(parse_value("{a}"), 1))
    assert pe == MElem(frozenset({hset("a")}), 2)

    full = h.power_element(MElem(hset("a", "b"), 1))
    assert full.value == frozenset(h.level(1).values)  # carrier power = level 1

    m1_elem = MElem(frozenset(h.level(1).values), 2)
    pw = h.power_element(m1_elem)
    assert pw.value == frozenset(h.level(2).values)    # level power = next level
    assert pw.level == 3

    with pytest.raises(ValueError):
        h.power_element(MElem(parse_value("{b,a}"), 2))


def test_power_element_lands_one_level_up(models_by_size):
    for p in models_by_size[2]:
        h = h_of(p)
        levels = h.build(3)
        for lv in levels[:2]:
            for v in lv.values:
                pe = h.power_element(MElem(v, lv.index))
                assert pe.level == lv.index + 1
                assert pe.value in levels[lv.index].value_set


def test_nonempty_level_cone_is_member_above(models_by_size):
    for p in models_by_size[2]:
        h = h_of(p)
        for lv in h.build(3):
            assert list(lv.cones) == list(lv.values)
            for v, cone in lv.cones.items():
                assert cone == {z for z in lv.values if z <= v}
                assert h.member_level(cone, lv.index + 1)


def test_subsets_of_level_in_m_are_open(antichain2):
    h = h_of(antichain2)
    vals = h.level(1).values
    for mask in range(1, 1 << len(vals)):
        v = frozenset(vals[i] for i in bits(mask))
        if h.membership(v, 4).in_m:
            assert h.member_level(v, 2)


# --- union criteria --------------------------------------------------------------


def test_union_report_bottom_level(antichain2):
    h = h_of(antichain2)
    rep = h.union_report(parse_value("{a,b}"), 3)
    assert rep.union_value == frozenset()
    assert not rep.criterion_tier
    assert not rep.criterion_union
    assert not rep.criterion_unmixed
    assert rep.consistent and rep.decided


def test_union_report_level2(antichain2):
    h = h_of(antichain2)
    whole_m1 = frozenset(h.level(1).values)
    rep = h.union_report(whole_m1, 3)
    assert rep.union_value == hset("a", "b")
    assert rep.union_membership.kind == "level"
    assert rep.union_membership.level == 1
    assert rep.criterion_tier and rep.criterion_union and rep.criterion_unmixed


def test_union_report_mixed_omega(antichain2):
    h = h_of(antichain2)
    mixed = frozenset({parse_value("{a}"), parse_value("{{a}}")})
    rep = h.union_report(mixed, 3)
    assert rep.union_value == parse_value("{a,{a}}")
    assert rep.membership.kind == "limit"
    assert not rep.criterion_tier
    assert not rep.criterion_union
    assert not rep.criterion_unmixed
    assert rep.decided and rep.consistent


def test_union_report_pure_omega(antichain2):
    # both slices above the bottom level: all three criteria flip true
    h = h_of(antichain2)
    l2, l3 = h.level(2), h.level(3)
    v = frozenset(l2.values) | frozenset(l3.values)
    rep = h.union_report(v, 4)
    assert rep.membership.kind == "limit"
    assert rep.criterion_tier and rep.criterion_union and rep.criterion_unmixed
    assert rep.consistent


def test_union_criteria_agree_everywhere(models_by_size):
    for p in models_by_size[2]:
        h = h_of(p)
        for lv in h.build(3):
            for v in lv.values:
                rep = h.union_report(v, 3)
                assert rep.decided and rep.consistent


# --- reformulated principles ------------------------------------------------------


def test_basic_opens_never_partition(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            assert split_cones(p.pred) == []


def test_level_basic_opens_never_partition(chain3, antichain2, antichain3):
    # level 2 of the 3-antichain has 18 elements
    for p in (chain3, antichain2, antichain3):
        h = h_of(p)
        for lv in h.build(2):
            assert split_cones(lv.sub_rows) == []


def test_antichain_negative_control(antichain2):
    split = find_open_partition(antichain2.pred, antichain2.full_mask)
    assert split is not None
    y1, y2 = split
    assert y1 | y2 == antichain2.full_mask and not y1 & y2


def test_split_cones_finds_a_cone_that_splits():
    # raw rows: element 2's row {0,1} is open and disconnected, so it
    # splits; the singleton rows of 0 and 1 never do
    assert split_cones((0b001, 0b010, 0b011)) == [2]


def test_chain_basic_open_has_no_partition(chain3):
    assert find_open_partition(chain3.pred, chain3.predecessors(2)) is None


def test_open_partition_matches_submask_walk(models_by_size):
    cases = [(p.pred, x) for n in (1, 2, 3, 4) for p in models_by_size[n]
             for x in range(1 << n)]
    # raw rows: unclosed, often non-reflexive, with bit n outside the carrier
    rng = random.Random("open-partition")
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = tuple(rng.getrandbits(n + 1) for _ in range(n))
        cases.extend((rows, x) for x in range(1 << (n + 1)))
    # every cone of every level space through level 2, the 18-element
    # level of the 3-antichain included
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            for lv in h_of(p).build(2):
                cases.extend((lv.sub_rows, cone) for cone in lv.sub_rows)
    splits = 0
    for rows, x in cases:
        split = find_open_partition(rows, x)
        assert (split is not None) == open_split_exists(rows, x), (rows, x)
        if split is not None:
            y1, y2 = split
            assert 0 < y1 < y2 and not y1 & y2 and y1 | y2 == x
            assert mask_is_open(rows, y1) and mask_is_open(rows, y2)
            splits += 1
    assert 0 < splits < len(cases)


def test_classify(antichain2):
    h = h_of(antichain2)
    assert h.classify("a", 3) == "atom"
    assert h.classify(parse_value("{a}"), 3) == "magma"
    assert h.classify(parse_value("{a,{a}}"), 3) == "set"
    assert h.classify(frozenset(), 3) == "set"
    mixed = frozenset({parse_value("{a}"), parse_value("{{a}}")})
    assert h.classify(mixed, 3) == "magma"
    with pytest.raises(TypeError):
        h.classify(3, 3)
