import dataclasses
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmas import (CapExceeded, PreOrder, build, count_preorders,
                    enumerate_preorders, format_atom_set, format_preorder,
                    parse_atom_set, parse_preorder)
from magmas.preorder import bits, default_labels

from oracles import (closure_pairs, count_posets, count_posets_by_relations,
                     count_preorders_by_partition, preds, preorder_rows_by_pattern, succs,
                     transpose_rows)

LABELS4 = "abcd"


def edge_lists(max_atoms=4):
    labels = st.integers(min_value=1, max_value=max_atoms).map(
        lambda n: LABELS4[:n])
    return labels.flatmap(
        lambda ls: st.tuples(
            st.just(ls),
            st.lists(st.tuples(st.sampled_from(ls), st.sampled_from(ls)),
                     max_size=8),
        )
    )


def as_pairs(p):
    return {(p.labels[a], p.labels[b])
            for b in range(p.n) for a in bits(p.pred[b])}


# --- build / closure ---------------------------------------------------------


def test_single_atom_reflexive_only():
    p = build("a")
    assert as_pairs(p) == {("a", "a")}


def test_chain_closure_adds_composite(chain3):
    expected = closure_pairs("abc", {("a", "b"), ("b", "c")})
    assert ("a", "c") in expected
    assert as_pairs(chain3) == expected


def test_two_cycle_closure_is_full(twocycle):
    assert as_pairs(twocycle) == {(x, y) for x in "ab" for y in "ab"}


@settings(max_examples=150)
@given(edge_lists())
def test_closure_matches_pair_oracle(data):
    labels, edges = data
    p = build(labels, edges)
    assert as_pairs(p) == closure_pairs(labels, set(edges))


@settings(max_examples=100)
@given(edge_lists())
def test_closure_idempotent(data):
    labels, edges = data
    p = build(labels, edges)
    again = build(labels, [(labels[a], labels[b])
                           for b in range(p.n) for a in bits(p.pred[b])])
    assert again == p


def test_build_rejects_duplicate_label():
    with pytest.raises(ValueError, match="duplicate"):
        build(["a", "a"])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(ValueError, match="not a declared atom"):
        build("ab", [("a", "z")])


def test_build_rejects_empty_carrier():
    with pytest.raises(ValueError):
        build([])


def test_from_pred_rows_validates():
    PreOrder.from_pred_rows("ab", (0b01, 0b11))
    with pytest.raises(ValueError, match="reflexive"):
        PreOrder.from_pred_rows("ab", (0b01, 0b01))
    with pytest.raises(ValueError, match="transitive"):
        PreOrder.from_pred_rows("abc", (0b001, 0b011, 0b110))
    with pytest.raises(ValueError, match="duplicate"):
        PreOrder.from_pred_rows(("a", "a"), (0b01, 0b10))
    with pytest.raises(ValueError, match="at least one atom"):
        PreOrder.from_pred_rows((), ())


# --- point queries -----------------------------------------------------------


def test_leq_examples(chain3, antichain2):
    a, b, c = 0, 1, 2
    assert chain3.leq(a, c)
    assert chain3.leq(b, b)
    assert not antichain2.leq(0, 1)
    with pytest.raises(IndexError):
        chain3.leq(0, 5)


def test_strict_examples(chain3, twocycle):
    assert chain3.strict(0, 1)
    assert not chain3.strict(1, 0)
    assert not twocycle.strict(0, 1)
    assert not chain3.strict(2, 2)


@settings(max_examples=100)
@given(edge_lists())
def test_strict_implies_leq_and_asymmetry(data):
    labels, edges = data
    p = build(labels, edges)
    for a in range(p.n):
        for b in range(p.n):
            if p.strict(a, b):
                assert p.leq(a, b) and not p.strict(b, a)


def test_predecessors_successors(chain3, antichain2, twocycle):
    rel = closure_pairs("abc", {("a", "b"), ("b", "c")})
    for i, lab in enumerate("abc"):
        assert set(chain3.set_labels(chain3.predecessors(i))) == preds(rel, "abc", lab)
        assert set(chain3.set_labels(chain3.successors(i))) == succs(rel, "abc", lab)
    assert antichain2.predecessors(0) == 0b01
    assert antichain2.successors(1) == 0b10
    assert twocycle.predecessors(0) == 0b11
    assert twocycle.successors(0) == 0b11


def as_sets(rows):
    return tuple(frozenset(i for i in range(len(rows)) if row >> i & 1) for row in rows)


def test_succ_is_transpose_of_pred(models_by_size):
    for n in (1, 2, 3, 4):
        for p in models_by_size[n]:
            assert as_sets(p.succ) == transpose_rows(as_sets(p.pred))
            assert [p.successors(a) for a in range(n)] == list(p.succ)
            assert [p.equiv_class(a) for a in range(n)] == [
                p.pred[a] & p.succ[a] for a in range(n)]


def test_stored_rows_leave_equality_hash_and_repr_alone(chain3):
    other = PreOrder(chain3.labels, chain3.pred)
    assert other == chain3 and hash(other) == hash((chain3.labels, chain3.pred))
    assert repr(other) == "PreOrder(a b c; a<=b, a<=c, b<=c)"
    assert [f.name for f in dataclasses.fields(PreOrder)
            if f.compare or f.hash or f.repr] == ["labels", "pred"]


def test_raw_rows_outside_the_carrier_still_construct():
    p = PreOrder(("a", "b"), (0b101, 0b10))
    assert p.n == 2 and p.succ == (0b01, 0b10)
    with pytest.raises(ValueError, match="outside the carrier"):
        PreOrder.from_pred_rows(p.labels, p.pred)


def test_accessors_keep_bounds_checks(chain3):
    for accessor in (chain3.predecessors, chain3.successors, chain3.equiv_class):
        for a in (-1, 3):
            with pytest.raises(IndexError):
                accessor(a)


@settings(max_examples=100)
@given(edge_lists())
def test_cones_are_downward_closed(data):
    labels, edges = data
    p = build(labels, edges)
    for a in range(p.n):
        cone = p.predecessors(a)
        for b in bits(cone):
            assert not p.predecessors(b) & ~cone


def test_equiv_classes(chain3, antichain2, twocycle):
    assert twocycle.equiv_classes() == [0b11]
    assert antichain2.equiv_classes() == [0b01, 0b10]
    assert chain3.equiv_classes() == [0b001, 0b010, 0b100]


@settings(max_examples=100)
@given(edge_lists())
def test_same_class_iff_same_cone(data):
    labels, edges = data
    p = build(labels, edges)
    for a in range(p.n):
        for b in range(p.n):
            same_class = p.equiv_class(a) == p.equiv_class(b)
            assert same_class == (p.predecessors(a) == p.predecessors(b))


def test_satisfies_star(chain3, twocycle, models_by_size):
    ok, witness = chain3.satisfies_star()
    assert (ok, witness) == (False, 0)
    ok, witness = twocycle.satisfies_star()
    assert not ok and witness == 0
    for n in (1, 2, 3):
        for p in models_by_size[n]:
            assert p.satisfies_star()[0] is False
    # a row bit outside the carrier names no atom: it is no strict
    # predecessor, and it is never read as a row of its own
    assert PreOrder(("a",), (0b11,)).satisfies_star() == (False, 0)
    assert PreOrder(("a", "b"), (0b101, 0b111)).satisfies_star() == (False, 0)
    assert PreOrder(("a", "b"), (0b111, 0b110)).satisfies_star() == (False, 1)


# --- enumeration -------------------------------------------------------------


def test_enumeration_counts(models_by_size):
    assert [len(models_by_size[n]) for n in (1, 2, 3)] == [1, 4, 29]


def test_enumeration_no_duplicates(models_by_size):
    seen = {p.pred for p in models_by_size[3]}
    assert len(seen) == 29


def test_enumeration_all_closed():
    for n, count in zip(range(1, 6), (1, 4, 29, 355, 6942)):
        rows = [p.pred for p in enumerate_preorders(n, bound=5)]
        assert len(set(rows)) == len(rows) == count
        for r in rows:
            PreOrder.from_pred_rows(default_labels(n), r)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_pattern_walk(n):
    got = [tuple(frozenset(a for a in range(n) if row >> a & 1) for row in p.pred)
           for p in enumerate_preorders(n)]
    assert got == preorder_rows_by_pattern(n)


# Model names such as "n=5#idx" and the seeded streams of the verify suites
# depend on this order; the digests pin the edge-pattern order.
@pytest.mark.parametrize("n, digest", [
    (4, "e40b8ad4157c737d3d9a01f2d4a3dfa36758b549665f35c34d47746f641ba6b5"),
    (5, "4f6aaa5e409f725c5dbaca1b54947bcbfb0188c9578e2a9ffa4298d70995e978"),
    (6, "6dde3e22e7db300374cafe72c7eae672c65ecbd4daad2a12c98b23cb392be436"),
])
def test_enumeration_order_pinned(n, digest):
    rows = [p.pred for p in enumerate_preorders(n)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_enumeration_bounds():
    # OEIS A000798, and the partition-sum oracle over one-point poset extensions
    assert count_preorders(6) == 209527 == count_preorders_by_partition(6)
    assert count_preorders(5) == 6942 == count_preorders_by_partition(5)
    with pytest.raises(CapExceeded):
        list(enumerate_preorders(5, bound=4))
    with pytest.raises(CapExceeded):
        list(enumerate_preorders(7, bound=7))
    assert count_preorders(1) == 1


def test_poset_oracle_matches_the_relation_walk():
    assert [count_posets(k) for k in range(1, 5)] == [
        count_posets_by_relations(k) for k in range(1, 5)] == [1, 3, 19, 219]


def test_enumeration_holds_one_int_per_model():
    # a list of 6942 row tuples peaks near 0.8 MiB; their packed ints near 0.3
    count_preorders(5)  # fill the interpreter's free lists before tracing
    tracemalloc.start()
    try:
        count_preorders(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_default_labels():
    assert default_labels(3) == ("a", "b", "c")
    assert default_labels(30)[26] == "a26"


# --- text format -------------------------------------------------------------


def test_parse_tolerates_comments_and_spacing():
    p = parse_preorder("# header\n  atoms:  a   b c\n\na<=b # inline\n b <= c\n")
    assert p.labels == ("a", "b", "c")
    assert p.leq(0, 2)


def test_format_parse_roundtrip(models_by_size):
    for p in models_by_size[3]:
        assert parse_preorder(format_preorder(p)) == p


@pytest.mark.parametrize("text", [
    "a <= b\n",                      # no atoms line
    "atoms: a b\natoms: a b\n",      # repeated
    "atoms: a b\nnot a rule\n",      # junk line
    "atoms: a b\na b <= b\n",        # malformed edge
])
def test_parse_rejects_bad_input(text):
    with pytest.raises(ValueError):
        parse_preorder(text)


# strings made mostly of the input format's own tokens, so that the
# parser's branches are reached, and arbitrary text in between
format_texts = st.lists(
    st.sampled_from(["atoms:", "<=", "#", "\n", " ", ",", "{", "}", "a", "b", "c"])
    | st.text(max_size=3), max_size=20).map("".join)


@settings(max_examples=200, deadline=None)
@given(format_texts)
def test_parse_preorder_raises_only_value_error(text):
    try:
        p = parse_preorder(text)
    except ValueError:
        return
    assert parse_preorder(format_preorder(p)) == p


@settings(max_examples=200, deadline=None)
@given(format_texts)
def test_parse_atom_set_raises_only_its_two_errors(text):
    p = build("abc", [("a", "b")])
    try:
        mask = parse_atom_set(p, text)
    except (ValueError, KeyError):
        return
    assert not mask & ~p.full_mask


def test_atom_set_literals(chain3):
    mask = parse_atom_set(chain3, "{a, c}")
    assert chain3.set_labels(mask) == ["a", "c"]
    assert parse_atom_set(chain3, "b c") == 0b110
    assert format_atom_set(chain3, 0b101) == "{a,c}"
    with pytest.raises(ValueError):
        parse_atom_set(chain3, "{a")
    with pytest.raises(KeyError):
        parse_atom_set(chain3, "{z}")
