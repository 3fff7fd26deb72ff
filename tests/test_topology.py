import random

import pytest

from magmas import (CapExceeded, build, down_closure, enumerate_opens, is_lower_open,
                    is_minimal_open, minimal_opens)
from magmas.preorder import PreOrder, bits, enumerate_preorders, mask_order
from magmas.topology import (closure_table, constant_rows, downset_masks, duality_failures,
                             inclusion_rows, subset_families)

from oracles import (class_leaks, closure_pairs, duality_failures_of, inclusion_rows_of,
                     is_down_closed, literal_row_union, minimal_of, opens_of)

NAMES = "abcdef"


def labelset(p, mask):
    return frozenset(p.set_labels(mask))


def raw_models(seed, count):
    """Seeded rows on n <= 5 atoms, each random over n + 1 bits: unclosed,
    mostly non-reflexive, some with bit n outside the carrier."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield PreOrder(tuple(NAMES[:n]), tuple(rng.getrandbits(n + 1) for _ in range(n)))


def pairs_of(p):
    """The relation of p's raw rows as label pairs (a, b), a <= b; bit n
    of a row is the label NAMES[n], outside the carrier."""
    return {(NAMES[a], p.labels[b]) for b in range(p.n) for a in bits(p.pred[b])}


def test_is_lower_open_examples(chain3):
    assert is_lower_open(chain3, chain3.atom_set("ab"))
    assert not is_lower_open(chain3, chain3.atom_set("b"))
    assert is_lower_open(chain3, chain3.full_mask)
    assert is_lower_open(chain3, 0)  # predicate tolerates the empty set


def test_every_carrier_is_open(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            assert is_lower_open(p, p.full_mask)


def test_down_closure(chain3):
    assert chain3.set_labels(down_closure(chain3, chain3.atom_set("c"))) == ["a", "b", "c"]
    opened = down_closure(chain3, chain3.atom_set("b"))
    assert down_closure(chain3, opened) == opened  # fixed point on opens
    assert down_closure(chain3, 0) == 0


def test_enumerate_opens_examples(chain3, antichain2, twocycle):
    assert [chain3.set_labels(s) for s in enumerate_opens(chain3)] == [
        ["a"], ["a", "b"], ["a", "b", "c"]]
    assert [labelset(antichain2, s) for s in enumerate_opens(antichain2)] == [
        frozenset("a"), frozenset("b"), frozenset("ab")]
    assert [twocycle.set_labels(s) for s in enumerate_opens(twocycle)] == [["a", "b"]]


def test_enumerate_opens_matches_pair_oracle(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            rel = closure_pairs(p.labels, {
                (p.labels[a], p.labels[b])
                for b in range(p.n) for a in bits(p.pred[b])})
            assert {labelset(p, s) for s in enumerate_opens(p)} == \
                opens_of(rel, p.labels)


def test_enumerate_opens_canonical_order(models_by_size):
    for p in models_by_size[3]:
        keys = [(s.bit_count(), s) for s in enumerate_opens(p)]
        assert keys == sorted(keys)


def test_opens_cap():
    wide = build([f"x{i}" for i in range(13)])
    with pytest.raises(CapExceeded):
        enumerate_opens(wide)
    with pytest.raises(CapExceeded):
        duality_failures(wide)


def test_minimality_examples(chain3, twocycle):
    assert is_minimal_open(chain3, chain3.atom_set("a"))
    assert not is_minimal_open(chain3, chain3.atom_set("ab"))
    assert is_minimal_open(twocycle, twocycle.atom_set("ab"))


def test_minimal_opens_examples(chain3, antichain2, twocycle):
    assert [chain3.set_labels(s) for s in minimal_opens(chain3)] == [["a"]]
    assert [antichain2.set_labels(s) for s in minimal_opens(antichain2)] == [["a"], ["b"]]
    assert [twocycle.set_labels(s) for s in minimal_opens(twocycle)] == [["a", "b"]]


def test_minimality_matches_brute_force(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            masks = enumerate_opens(p)
            for s in masks:
                brute = not any(m != s and not m & ~s for m in masks)
                assert is_minimal_open(p, s) == brute


def test_minimal_opens_pointwise_matches_filtered_enumeration(models_by_size):
    for n in (1, 2, 3, 4):
        for p in models_by_size[n]:
            opens = enumerate_opens(p)
            brute = [s for s in opens
                     if not any(m != s and not m & ~s for m in opens)]
            assert minimal_opens(p) == brute


def test_minimal_opens_match_literal_filter_on_raw_rows():
    # any rows, not only closed ones: a minimal open is a row inside the
    # carrier that equals the row of each of its members
    found = wide = 0
    for p in raw_models("minimal-opens-raw", 2000):
        rows = p.pred
        want = [s for s in set(rows) if s and not s >> p.n
                and all(rows[a] == s for a in range(p.n) if s >> a & 1)]
        want.sort(key=lambda s: (s.bit_count(), s))
        assert constant_rows(rows) == set(want), p
        assert minimal_opens(p) == want, p
        found += bool(want)
        wide += any(s.bit_count() > 1 for s in want)
    assert found and wide


def test_minimal_opens_past_the_open_enumeration_cap():
    # 13 atoms is over CARRIER_CAP; the pointwise search needs no enumeration
    p = build([f"x{i}" for i in range(13)], [("x0", "x1"), ("x1", "x0"), ("x1", "x2")])
    assert [p.set_labels(s) for s in minimal_opens(p)] == (
        [[f"x{i}"] for i in range(3, 13)] + [["x0", "x1"]])


def test_minimal_opens_never_empty(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            assert minimal_opens(p)


def test_every_cone_contains_a_minimal_open(models_by_size):
    for p in models_by_size[3]:
        mins = minimal_opens(p)
        for a in range(p.n):
            cone = p.predecessors(a)
            assert any(not m & ~cone for m in mins)


def test_union_and_intersection_stay_open(models_by_size):
    for p in models_by_size[3]:
        masks = enumerate_opens(p)
        for x in masks:
            for y in masks:
                assert is_lower_open(p, x | y)
                if x & y:
                    assert is_lower_open(p, x & y)


def test_complement_duality(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            assert duality_failures(p) == []


def test_closure_table_matches_literal_union(models_by_size):
    models = [p for n in (1, 2, 3, 4) for p in models_by_size[n]]
    models += raw_models("closure-table", 1000)
    for p in models:
        for rows in (p.pred, p.succ):
            assert closure_table(rows, p.n) == tuple(
                literal_row_union(rows, x) for x in range(1 << p.n))
        # openness read from the table is the library predicate
        table = closure_table(p.pred, p.n)
        assert [not c & ~x for x, c in enumerate(table)] == [
            is_lower_open(p, x) for x in range(1 << p.n)]
    for n in range(6):
        # built once per n and shared, so a tuple that no caller can change
        assert subset_families(n) == tuple(
            sum(1 << y for y in range(1 << n) if not y & ~x) for x in range(1 << n))
        assert subset_families(n) is subset_families(n)


def test_a_preorder_keeps_its_closure_table(models_by_size):
    models = [p for n in (1, 2, 3, 4) for p in models_by_size[n]]
    models += raw_models("closures", 1000)
    for p in models:
        assert p.closures == closure_table(p.pred, p.n)
        assert p.closures is p.closures  # built once, then kept


def test_the_closure_table_is_no_part_of_a_preorders_value(chain3):
    fresh = PreOrder(chain3.labels, chain3.pred)
    before = (hash(fresh), repr(fresh))
    assert fresh.closures
    assert (hash(fresh), repr(fresh)) == before
    assert fresh == PreOrder(chain3.labels, chain3.pred)
    # a table that differs leaves equality and hashing alone
    object.__setattr__(fresh, "_closures", ())
    assert fresh == chain3 and hash(fresh) == hash(chain3)


def test_open_masks_match_the_subset_walk():
    # the closure-table reading against the downset_masks walk, sorted:
    # every pre-order with n <= 5, then raw rows whose bit n lies outside
    # the carrier, which keeps every set holding a row with it from opening
    models = [p for n in range(1, 6) for p in enumerate_preorders(n)]
    raw = list(raw_models("open-masks", 1000))
    outside = 0
    for p in models + raw:
        assert enumerate_opens(p) == sorted(downset_masks(p.pred, p.n), key=mask_order), p
        outside += any(row >> p.n for row in p.pred)
    assert outside > 300


def test_inclusion_rows_match_pairwise_oracle():
    # seeded families: repeats, the empty mask, masks wider than the family
    rng = random.Random("inclusion-rows")
    for _ in range(500):
        width = rng.randint(1, 12)
        masks = [rng.getrandbits(width) & rng.getrandbits(width)
                 for _ in range(rng.randint(0, 40))]
        assert inclusion_rows(masks) == inclusion_rows_of(masks), masks
    assert inclusion_rows([]) == ()


def test_duality_failures_match_literal_closure_tests(models_by_size):
    preorders = [p for n in (1, 2, 3, 4) for p in models_by_size[n]]
    failing = []
    for p in preorders + list(raw_models("duality", 1000)):
        got = duality_failures(p)
        assert got == sorted(got)
        assert {labelset(p, s) for s in got} == duality_failures_of(pairs_of(p), p.labels)
        failing.append(bool(got))
    assert not any(failing[:len(preorders)])
    assert 0 < sum(failing) < 1000


def test_saturation(twocycle, models_by_size):
    # every open holds the whole mutual-dependence class of each member
    assert class_leaks(pairs_of(twocycle), {"a"}) == {"b"}
    for n in (1, 2, 3, 4):
        for p in models_by_size[n]:
            rel = pairs_of(p)
            for s in enumerate_opens(p):
                assert not class_leaks(rel, labelset(p, s)), (p.pred, s)


def test_oracle_agrees_with_itself_on_minimality(chain3):
    # the pair-based oracle reproduces the worked minimal example
    rel = closure_pairs("abc", {("a", "b"), ("b", "c")})
    ops = opens_of(rel, "abc")
    assert minimal_of(ops) == {frozenset("a")}
    assert is_down_closed(rel, "abc", frozenset("ab"))
