import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magmas
from magmas import (CapExceeded, build, check_connection, enumerate_opens,
                    format_atom_set, pr_plus, preorder_of_opens, shift_leq,
                    shifted_is_total, shifted_opens_match)
from magmas.preorder import PreOrder, bits
from magmas.shifting import powerset_masks
from magmas.topology import CARRIER_CAP, inclusion_rows

from oracles import connection_failures, same_lower_open_family, shift_pairs

LABELS = "abcde"


def rel_of(p):
    return {(p.labels[a], p.labels[b])
            for b in range(p.n) for a in bits(p.pred[b])}


def to_labels(p, mask):
    return frozenset(p.set_labels(mask))


def preorders(max_atoms=3):
    return st.tuples(
        st.integers(min_value=1, max_value=max_atoms),
        st.lists(st.tuples(st.integers(0, max_atoms - 1),
                           st.integers(0, max_atoms - 1)), max_size=6),
    ).map(lambda t: build(
        LABELS[:t[0]],
        [(LABELS[a % t[0]], LABELS[b % t[0]]) for a, b in t[1]],
    ))


@settings(max_examples=100)
@given(preorders(), st.integers(0, 7), st.integers(0, 7))
def test_shift_matches_literal_oracle(p, x, y):
    x &= p.full_mask
    y &= p.full_mask
    assert shift_leq(p, x, y) == shift_pairs(rel_of(p), to_labels(p, x),
                                             to_labels(p, y))


@settings(max_examples=100)
@given(preorders(), st.integers(0, 7))
def test_shift_reflexive(p, x):
    assert shift_leq(p, x & p.full_mask, x & p.full_mask)


def test_chain_collapses_under_shift(chain3):
    full = chain3.full_mask
    top = chain3.atom_set("c")
    assert shift_leq(chain3, full, top)
    assert shift_leq(chain3, top, full)
    assert full != top  # mutually comparable distinct subsets


def test_antichain_shift_false(antichain2):
    assert not shift_leq(antichain2, 0b01, 0b10)


def test_empty_set_conventions(chain3):
    assert shift_leq(chain3, 0, chain3.full_mask)
    assert not shift_leq(chain3, chain3.atom_set("a"), 0)
    assert pr_plus(chain3, 0) == [0]


def test_pr_plus_examples():
    p = build("ab", [("a", "b")])
    full_powerset = powerset_masks(p.full_mask)
    assert pr_plus(p, p.full_mask) == full_powerset        # open: equality
    assert pr_plus(p, p.atom_set("b")) == full_powerset    # not open: strictly more
    assert set(powerset_masks(p.atom_set("b"))) < set(pr_plus(p, p.atom_set("b")))


def test_pr_plus_matches_literal_filter_on_raw_rows():
    # raw rows over n + 1 bits: a closure may hold bit n, which no subset
    # of the carrier has
    rng = random.Random("pr-plus")
    for _ in range(300):
        n = rng.randint(1, 4)
        p = PreOrder(tuple(LABELS[:n]), tuple(rng.getrandbits(n + 1) for _ in range(n)))
        rel = {(LABELS[a], LABELS[b]) for b in range(n) for a in bits(p.pred[b])}
        for x in range(1 << n):
            want = [y for y in range(1 << n)
                    if shift_pairs(rel, to_labels(p, y), to_labels(p, x))]
            want.sort(key=lambda y: (y.bit_count(), y))
            assert pr_plus(p, x) == want, (p, x)


# every entry point that walks all 2^n subsets stops at CARRIER_CAP
@pytest.mark.parametrize("name", ["enumerate_opens", "preorder_of_opens", "pr_plus",
                                  "check_connection", "shifted_opens_match",
                                  "shifted_is_total"])
def test_subset_walk_cap(name):
    wide = build([f"x{i}" for i in range(CARRIER_CAP + 1)])
    args = (1,) if name == "pr_plus" else ()
    with pytest.raises(CapExceeded, match=f"cap {CARRIER_CAP}"):
        getattr(magmas, name)(wide, *args)


def test_connection_examples():
    p = build("ab", [("a", "b")])
    not_open = p.atom_set("b")
    assert pr_plus(p, not_open) != powerset_masks(not_open)
    assert check_connection(p) == []  # vacuous for non-open x
    # with no reflexive bits every nonempty x is open and misses itself
    bare = PreOrder(("a", "b"), (0, 0))
    assert [(x, c.subset_dir, c.equality_when_open, c.ok)
            for x, c in check_connection(bare)] == [
        (1, False, False, False), (2, False, False, False), (3, False, False, False)]


def test_connection_matches_literal_cone(models_by_size):
    for n in (1, 2, 3, 4):
        for p in models_by_size[n]:
            assert check_connection(p) == []
    # raw rows: unclosed, mostly non-reflexive, with bit n outside the carrier
    names = "abcde"
    rng = random.Random("connection")
    failing = 0
    for _ in range(2000):
        n = rng.randint(1, 4)
        rows = tuple(rng.getrandbits(n + 1) for _ in range(n))
        p = PreOrder(tuple(names[:n]), rows)
        rel = {(names[a], names[b]) for b in range(n) for a in bits(rows[b])}
        found = check_connection(p)
        assert [x for x, _ in found] == sorted(x for x, _ in found)
        got = {to_labels(p, x): (c.subset_dir, c.equality_when_open) for x, c in found}
        assert got == connection_failures(rel, p.labels), rows
        assert not any(c.ok for _, c in found)  # a listed subset fails a half
        failing += bool(got)
    assert 1000 < failing < 2000


def test_shift_transitive_exhaustive(models_by_size):
    for p in models_by_size[2]:
        subsets = range(1 << p.n)
        for x in subsets:
            for y in subsets:
                for z in subsets:
                    if shift_leq(p, x, y) and shift_leq(p, y, z):
                        assert shift_leq(p, x, z)


def test_totality_examples(chain3, antichain2, twocycle):
    assert chain3.is_total() and shifted_is_total(chain3)
    assert not antichain2.is_total()
    assert twocycle.is_total() and shifted_is_total(twocycle)


def test_total_lifts_to_shift(models_by_size):
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            if p.is_total():
                assert shifted_is_total(p)


def test_shifted_topology_equals_inclusion_topology(models_by_size):
    for n in (1, 2, 3, 4):
        for p in models_by_size[n]:
            assert shifted_opens_match(p)
            assert same_lower_open_family(rel_of(p), p.labels)


def test_shifted_opens_match_on_raw_rows():
    # unclosed or non-reflexive rows: the shifted relation on the opens is
    # then not always inclusion, and the row comparison must still agree
    # with the ideal walk
    rng = random.Random(2027)
    verdicts = []
    for _ in range(300):
        n = rng.randint(2, 5)
        p = PreOrder(tuple(LABELS[:n]), tuple(rng.getrandbits(n) for _ in range(n)))
        verdict = shifted_opens_match(p)
        assert verdict == same_lower_open_family(rel_of(p), p.labels), p
        verdicts.append(verdict)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_shifted_opens_match_on_five_antichain():
    p = build("abcde")
    assert len(enumerate_opens(p)) == 31  # 2^31 candidate sets; no walk over them
    assert shifted_opens_match(p)


def test_preorder_of_opens_structure(chain3):
    lo = preorder_of_opens(chain3)
    assert lo.n == len(enumerate_opens(chain3))
    assert lo.labels[0] == "{a}"
    # a 3-chain of opens under inclusion
    assert lo.leq(0, 2) and not lo.leq(2, 0)


def test_preorder_of_opens_labels_and_rows(models_by_size):
    # labels render each open mask; rows are plain inclusion
    for n in (1, 2, 3, 4):
        for p in models_by_size[n]:
            lo = preorder_of_opens(p)
            assert lo.labels == tuple(format_atom_set(p, s) for s in enumerate_opens(p))
            assert lo.pred == inclusion_rows(enumerate_opens(p))
