import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmas import (GenOpen, binary_string_model, clustered_model, gen_equal,
                    gen_intersect, gen_member, gen_subset,
                    members_up_to, model_by_name, strict_shrink,
                    validate_model)
from magmas import symbolic as sym
from oracles import bounded_members


@pytest.fixture(scope="module")
def prefix():
    return binary_string_model()


@pytest.fixture(scope="module")
def clustered():
    return clustered_model(2)


def pr(model, *atoms):
    return GenOpen(model, 1, atoms)


# --- models ------------------------------------------------------------------


def test_prefix_relation(prefix):
    assert prefix.leq("010", "01")
    assert not prefix.leq("01", "10")
    assert prefix.leq("0", "0")


def test_prefix_strict_pred(prefix):
    b = prefix.strict_pred("1")
    assert b == "10"
    assert prefix.strict(b, "1")


def test_prefix_atoms_up_to(prefix):
    atoms = list(prefix.atoms_up_to(3))
    assert len(atoms) == 2 + 4 + 8
    assert "101" in atoms


def test_prefix_atom_parsing(prefix):
    assert prefix.parse_atom("0101") == "0101"
    with pytest.raises(ValueError):
        prefix.parse_atom("01a")
    with pytest.raises(ValueError):
        prefix.parse_atom("")


def test_clustered_classes(clustered):
    assert clustered.leq(("0", 1), ("0", 0))
    assert clustered.leq(("0", 0), ("0", 1))
    cls = [a for a in clustered.atoms_up_to(1) if clustered.leq(a, ("0", 0))
           and clustered.leq(("0", 0), a)]
    assert cls == [("0", 0), ("0", 1)]


def test_clustered_strict_pred_depth(clustered):
    rng = random.Random(7)
    for _ in range(50):
        a = clustered.random_atom(rng, 1, 6)
        assert clustered.strict(clustered.strict_pred(a), a)
        assert clustered.strict_pred(a)[1] == 0  # a built atom takes tag 0


def test_clustered_atom_rendering(clustered):
    assert clustered.render_atom(("01", 1)) == "01#1"
    assert clustered.parse_atom("01#1") == ("01", 1)
    with pytest.raises(ValueError):
        clustered.parse_atom("01")
    for text in ("01#5", "01#2", "01#-1"):  # the cluster has tags 0 and 1
        with pytest.raises(ValueError, match="outside"):
            clustered.parse_atom(text)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["prefix", "clustered:3"]),
       st.lists(st.sampled_from(["0", "1", "#", "-", "+", " ", "2", "9"])
                | st.text(max_size=2), max_size=8).map("".join))
def test_parse_atom_raises_only_value_error(name, text):
    model = model_by_name(name)
    try:
        atom = model.parse_atom(text)
    except ValueError:
        return
    assert model.parse_atom(model.render_atom(atom)) == atom


def test_cluster_size_validation():
    with pytest.raises(ValueError):
        clustered_model(1)


def test_model_by_name(prefix):
    assert model_by_name("prefix").name == "prefix"
    assert model_by_name("clustered:3").name == "clustered:3"
    for name in ("nonsense", "clustered:3:4"):
        with pytest.raises(ValueError):
            model_by_name(name)


def test_validation_passes(prefix, clustered):
    assert validate_model(prefix, depth=6).ok
    assert validate_model(clustered, depth=5).ok


def test_validation_catches_a_strict_pred_that_is_not_strict(prefix, clustered):
    assert not prefix.strict("0", "0") and not clustered.strict(("0", 0), ("0", 1))
    stuck = dataclasses.replace(prefix, strict_pred=lambda t: t)
    v = validate_model(stuck, depth=3)
    assert not v.ok
    assert v.failures[0] == "strict_pred failed at 0"
    assert all(f.startswith("strict_pred failed at") for f in v.failures)


@pytest.mark.parametrize("depth", [0, -1, -3])
def test_validation_rejects_depth_below_one(prefix, clustered, depth):
    # at depth <= 0 no atom lies within the depth and the random ones could
    # be the empty string, which no model accepts as an atom
    for model in (prefix, clustered):
        with pytest.raises(ValueError, match="at least 1"):
            validate_model(model, depth=depth)


def test_validation_depth_is_capped(prefix):
    with pytest.raises(ValueError, match=f"at most DEPTH_CAP = {sym.DEPTH_CAP}"):
        validate_model(prefix, depth=sym.DEPTH_CAP + 1)


# --- generated opens ----------------------------------------------------------


def test_gen_open_validation(prefix, clustered):
    with pytest.raises(ValueError):
        GenOpen(prefix, 1, ())
    with pytest.raises(ValueError):
        GenOpen(prefix, 2, ("0",))
    with pytest.raises(ValueError):
        GenOpen(prefix, 0, ("0",))
    g = pr(prefix, "0")
    with pytest.raises(ValueError, match="level-1 generators must be atoms"):
        GenOpen(prefix, 1, (g,))
    with pytest.raises(ValueError):
        GenOpen(prefix, 3, (g,))  # level gap
    with pytest.raises(ValueError):
        gen_subset(g, pr(clustered, ("0", 0)))


def test_gen_member_examples(prefix):
    g = pr(prefix, "0")
    assert gen_member(g, "001")
    assert not gen_member(g, "1")
    assert gen_member(pr(prefix, "0", "11"), "110")
    with pytest.raises(ValueError):
        gen_member(g, pr(prefix, "0"))
    with pytest.raises(ValueError, match="one level below"):
        gen_member(GenOpen(prefix, 2, (g,)), "0")


def test_gen_subset_examples(prefix):
    assert gen_subset(pr(prefix, "01"), pr(prefix, "0"))
    assert not gen_subset(pr(prefix, "0", "1"), pr(prefix, "0"))
    g = pr(prefix, "0", "11")
    assert gen_subset(g, g)


def test_gen_equal_examples(prefix):
    assert gen_equal(pr(prefix, "0", "00"), pr(prefix, "0"))
    assert not gen_equal(pr(prefix, "0"), pr(prefix, "1"))
    g = pr(prefix, "010")
    assert gen_equal(g, g)


def test_gen_intersect_examples(prefix):
    met = gen_intersect(pr(prefix, "0"), pr(prefix, "01"))
    assert met is not None and gen_equal(met, pr(prefix, "01"))
    assert gen_intersect(pr(prefix, "0"), pr(prefix, "1")) is None
    mixed = gen_intersect(pr(prefix, "0", "10"), pr(prefix, "1"))
    assert mixed is not None and gen_equal(mixed, pr(prefix, "10"))


def test_gen_intersect_clustered(clustered):
    met = gen_intersect(pr(clustered, ("0", 1)), pr(clustered, ("01", 0)))
    assert met is not None
    assert gen_member(met, ("011", 1))
    assert not gen_member(met, ("00", 0))
    # the meet's tip is the longer string, tagged 0 like a strict predecessor
    met = gen_intersect(pr(clustered, ("0", 1), ("1", 1)), pr(clustered, ("01", 1)))
    assert met is not None and met.generators == (("01", 0),)


def test_gen_intersect_semantics(prefix):
    rng = random.Random(3)
    atoms = list(prefix.atoms_up_to(4))
    for _ in range(30):
        g1 = pr(prefix, *rng.sample(atoms, 2))
        g2 = pr(prefix, *rng.sample(atoms, 2))
        met = gen_intersect(g1, g2)
        for z in prefix.atoms_up_to(6):
            both = gen_member(g1, z) and gen_member(g2, z)
            assert both == (met is not None and gen_member(met, z))


def level2_cases(model, seed, count):
    """Seeded level-2 opens over level-1 opens of one to three tips of
    length 1-3, and a pool of level-1 opens to test membership on."""
    rng = random.Random(seed)

    def level1():
        return GenOpen(model, 1, tuple(model.random_atom(rng, 1, 3)
                                       for _ in range(rng.randint(1, 3))))

    def level2():
        return GenOpen(model, 2, tuple(level1() for _ in range(rng.randint(1, 3))))

    pool = [level1() for _ in range(40)]
    return [(level2(), level2()) for _ in range(count)], pool


@pytest.mark.parametrize("name", ["prefix", "clustered:2"])
def test_gen_intersect_level2_semantics(name):
    cases, pool = level2_cases(model_by_name(name), f"meet2:{name}", 40)
    empty = 0
    for g1, g2 in cases:
        met = gen_intersect(g1, g2)
        empty += met is None
        assert met is None or met.level == 2
        for z in pool:
            both = gen_member(g1, z) and gen_member(g2, z)
            assert both == (met is not None and gen_member(met, z)), (g1, g2, z)
    assert 0 < empty < len(cases)


def test_strict_shrink_examples(prefix):
    g = pr(prefix, "0")
    s = strict_shrink(g)
    assert gen_equal(s, pr(prefix, "00"))
    assert gen_subset(s, g) and not gen_equal(s, g)

    s2 = strict_shrink(pr(prefix, "0", "1"))
    assert gen_subset(s2, pr(prefix, "0", "1"))
    assert not gen_equal(s2, pr(prefix, "0", "1"))

    cur = g
    for _ in range(4):
        nxt = strict_shrink(cur)
        assert gen_subset(nxt, cur) and not gen_equal(nxt, cur)
        cur = nxt


def test_strict_shrink_higher_level(prefix):
    g2 = GenOpen(prefix, 2, (pr(prefix, "0"), pr(prefix, "1")))
    s = strict_shrink(g2)
    assert s.level == 2
    assert gen_subset(s, g2) and not gen_equal(s, g2)


def test_level2_membership(prefix):
    cone = GenOpen(prefix, 2, (pr(prefix, "0"),))
    assert gen_member(cone, pr(prefix, "00"))
    assert gen_member(cone, pr(prefix, "01", "001"))
    assert not gen_member(cone, pr(prefix, "1"))


def test_members_up_to_monotone(prefix):
    g = pr(prefix, "0", "110")
    counts = [len(members_up_to(g, d)) for d in (4, 5, 6, 7)]
    assert counts == sorted(counts) and counts[0] < counts[-1]


def member_cases(model, seed, count):
    """Seeded (tips, depth) pairs: one to four tips of length 1-9, with
    nested and duplicate tips mixed in, at depths 1-9, so some tips lie
    past the depth."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        tips = [model.random_atom(rng, 1, 9) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:  # a tip inside another tip's cone
            tips.append(model.strict_pred(rng.choice(tips)))
        if rng.random() < 0.2:
            tips.append(rng.choice(tips))
        rng.shuffle(tips)
        cases.append((tuple(tips), rng.randint(1, 9)))
    return cases


@pytest.mark.parametrize("name", ["prefix", "clustered:2", "clustered:3"])
def test_members_up_to_matches_the_filter_oracle(name):
    model = model_by_name(name)
    empty = 0
    for tips, depth in member_cases(model, f"members:{name}", 400):
        got = members_up_to(GenOpen(model, 1, tips), depth)
        assert got == bounded_members(model, tips, depth), (tips, depth)
        empty += not got
    assert empty  # some cases have every tip past the depth


def test_members_up_to_edge_cases(prefix, clustered):
    assert members_up_to(pr(prefix, "0101"), 3) == []
    assert members_up_to(pr(prefix, "01", "0"), 2) == ["0", "00", "01"]
    assert members_up_to(pr(prefix, "1", "1", "10"), 2) == ["1", "10", "11"]
    assert members_up_to(pr(prefix, "11", "0"), 2) == ["0", "00", "01", "11"]
    assert members_up_to(pr(clustered, ("0", 1), ("01", 0)), 2) == [
        ("0", 0), ("0", 1), ("00", 0), ("00", 1), ("01", 0), ("01", 1)]
    with pytest.raises(ValueError, match="level-1"):
        members_up_to(GenOpen(prefix, 2, (pr(prefix, "0"),)), 3)


def test_bounded_semantic_subset_agreement(prefix):
    rng = random.Random(11)
    atoms = [prefix.random_atom(rng, 1, 4) for _ in range(24)]
    pool = [pr(prefix, *rng.sample(atoms, k=rng.randint(1, 3)))
            for _ in range(18)]
    for g1 in pool:
        for g2 in pool:
            semantic = all(gen_member(g2, z) for z in members_up_to(g1, 6))
            assert gen_subset(g1, g2) == semantic


def test_cluster_saturation(clustered):
    g = pr(clustered, ("01", 0), ("1", 1))
    for s in ("0", "1", "01", "010", "11", "00"):
        votes = {gen_member(g, (s, i)) for i in range(2)}
        assert len(votes) == 1
