import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmas import build
from magmas import hierarchy as hm
from magmas import shifting as sh
from magmas import symbolic as sym
from magmas import topology as tp
from magmas.preorder import (ENUM_HARD_CAP, CapExceeded, PreOrder, bits, format_atom_set,
                             format_preorder)
from magmas.verify import (_BLOCK, HIER_MAX_N, MIXED_FAMILY_SIZE, RECORDED_CONFIG,
                           ConfigError, Counterexample, RunContext, SUITES, SuiteConfig,
                           _chk_minimal_characterizations, _direct_limit_successor,
                           _mixed_family,
                           _chk_open_family, _chk_shift_laws,
                           _chk_shift_minimal_contra, _witnesses, render_report, replay,
                           report_to_json, run_suite)

from oracles import (mask_is_open, minimal_characterizations_of, open_family_witnesses,
                     open_sets_of, shift_law_failures)

GOLDEN = Path(__file__).parent / "golden" / "report_max2.txt"
GOLDEN_MAX4 = Path(__file__).parent / "golden" / "report_max4.txt"
GOLDEN_JSON = Path(__file__).parent / "golden" / "report_max2.json"
GOLDEN_BLOB = Path(__file__).parent / "golden" / "counterexample_break_closure.json"


def dump(blob):
    """JSON as `magmas verify --format json` writes it, with its last newline."""
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def strip_timing(text):
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("wall_time_s:"))


def break_closure(p):
    """Turn the discrete 3-antichain into an unclosed 3-cycle."""
    if p.n == 3 and all(p.pred[b] == 1 << b for b in range(3)):
        a, b, c = 1, 2, 4
        return PreOrder(p.labels, (a | c, a | b, b | c))
    return p


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SuiteConfig(max_size=2))


def test_all_suites_pass(small_report):
    assert small_report.passed
    assert not small_report.failures


def test_every_registered_suite_reported(small_report):
    assert [r.suite_id for r in small_report.results] == list(SUITES)
    assert all(not r.skipped for r in small_report.results)


def test_model_counts(small_report):
    finite = {s.suite_id for s in SUITES.values() if s.scope == "finite"}
    for r in small_report.results:
        if r.suite_id in finite:
            assert r.models_checked == 5  # 1 + 4 labeled models
        else:
            assert r.models_checked >= 1


def test_model_counts_at_three():
    report = run_suite(SuiteConfig(suites=("closure-idempotence",), max_size=3))
    checked = {r.suite_id: r for r in report.results}
    assert checked["closure-idempotence"].models_checked == 34  # 1 + 4 + 29


def test_model_counts_at_default_size():
    report = run_suite(SuiteConfig(suites=("strict-part-laws",)))
    checked = {r.suite_id: r for r in report.results}
    assert checked["strict-part-laws"].models_checked == 389  # 1 + 4 + 29 + 355
    assert report.passed


def test_unselected_suites_marked_skipped():
    report = run_suite(SuiteConfig(suites=("strict-part-laws",), max_size=1))
    by_id = {r.suite_id: r for r in report.results}
    assert not by_id["strict-part-laws"].skipped
    assert by_id["minimal-open-characterizations"].skipped
    assert len(report.results) == len(SUITES)  # nothing silently absent
    assert report.passed


def test_report_deterministic():
    a = render_report(run_suite(SuiteConfig(max_size=2)))
    b = render_report(run_suite(SuiteConfig(max_size=2)))
    assert strip_timing(a) == strip_timing(b)


def test_report_matches_golden(small_report):
    text = render_report(small_report, timing=False)
    if not text.endswith("\n"):
        text += "\n"
    assert text == GOLDEN.read_text()


def test_json_report_matches_golden(small_report):
    assert dump(report_to_json(small_report)) == GOLDEN_JSON.read_text()


def test_config_validation():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(max_size=7))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(depth=0))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suites=("no-such-suite",)))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(symbolic_depth=1))
    SuiteConfig(depth=1, symbolic_depth=3).validate()  # the least values pass
    # one string is not a tuple of ids, and an empty selection checks nothing
    with pytest.raises(ConfigError, match="not the string 'all'"):
        run_suite(SuiteConfig(suites="all"))
    with pytest.raises(ConfigError, match="no suites selected"):
        run_suite(SuiteConfig(suites=()))
    # each numeric field must be an int, and a bool is not one
    for field, bad in (("depth", 2.5), ("max_size", "4"), ("seed", True),
                       ("symbolic_depth", 8.0)):
        with pytest.raises(ConfigError, match=f"{field} must be an int"):
            SuiteConfig(**{field: bad}).validate()


def test_injected_fault_fails_with_counterexample():
    cfg = SuiteConfig(suites=("minimal-open-characterizations",), max_size=3)
    report = run_suite(cfg, _model_hook=break_closure)
    assert not report.passed
    [cx] = report.failures
    assert cx.suite == "minimal-open-characterizations"
    assert cx.witness["brute"] != cx.witness["cone"]
    assert "atoms:" in cx.model_text  # renders as feedable input
    assert cx.rows  # raw relation for exact replay
    assert dump(cx.to_blob()) == GOLDEN_BLOB.read_text()


def test_rows_outside_the_carrier_fail_instead_of_raising():
    # bit n in every row: the run reports the checks' own witnesses, the
    # stray bit renders as its number, and replay sees the same failure
    def outside(p):
        return PreOrder(p.labels, tuple(r | 1 << p.n for r in p.pred))
    suites = ("closure-idempotence", "cone-transitivity", "open-complement-duality")
    report = run_suite(SuiteConfig(suites=suites, max_size=3), _model_hook=outside)
    assert [r.status for r in report.results if r.suite_id in suites] == ["fail"] * 3
    duality = [cx for cx in report.failures if cx.suite == "open-complement-duality"]
    assert duality and all("set" in cx.witness for cx in duality)
    cx = duality[0]
    assert cx.model_text == "atoms: a\n#1 <= a\n"
    assert repr(PreOrder(cx.labels, cx.rows)) == "PreOrder(a; #1<=a)"
    assert replay(cx.to_blob()) is False


def test_replay_reproduces_verdicts():
    cfg = SuiteConfig(suites=("minimal-open-characterizations",), max_size=3)
    report = run_suite(cfg, _model_hook=break_closure)
    blob = report.failures[0].to_blob()
    assert json.loads(json.dumps(blob)) == blob  # serializable
    assert replay(blob) is False
    assert replay(blob, SuiteConfig(seed=123)) is False  # seed-independent

    chain = build("abc", [("a", "b"), ("b", "c")])
    passing = dict(blob, labels=list(chain.labels), rows=list(chain.pred),
                   model_text=format_preorder(chain))
    assert replay(passing) is True


def test_replay_rejects_malformed_blobs():
    with pytest.raises(ValueError):
        replay({"suite": "no-such-suite", "model": "x"})
    with pytest.raises(ValueError):
        Counterexample.from_blob({"model": "missing suite"})
    with pytest.raises(ValueError):
        Counterexample.from_blob({"suite": "closure-idempotence", "model": "n=1#0",
                                  "config": {"seed": "7"}})
    with pytest.raises(ValueError):
        replay({"suite": "closure-idempotence", "model": "n=1#0",
                "labels": [], "rows": []})
    # one non-negative int row per label: too many, too few, a string, a
    # negative row
    for rows in ([1, 2, 4, 8], [1, 2], ["1", 2, 4], [1, 2, -4]):
        with pytest.raises(ValueError):
            replay({"suite": "closure-idempotence", "model": "n=3#0",
                    "labels": ["a", "b", "c"], "rows": rows})
    # a raw row of 0 (no diagonal bit) is a recorded fault, not a malformed blob
    cx = Counterexample.from_blob({"suite": "closure-idempotence", "model": "n=1#0",
                                   "labels": ["a"], "rows": [0]})
    assert cx.rows == (0,)
    # labels are a list of distinct strings: not a string, not ints, no repeats
    for labels in ("ab", [1, 2], ["a", "a"]):
        with pytest.raises(ValueError, match="malformed counterexample blob"):
            replay({"suite": "closure-idempotence", "model": "n=2#0",
                    "labels": labels, "rows": [1, 2]})
    # suite, model, model_text and message are strings
    with pytest.raises(ValueError, match="malformed counterexample blob"):
        replay({"suite": "generator-subset-semantics", "model": 5})
    good = {"suite": "closure-idempotence", "model": "n=1#0", "model_text": "",
            "labels": ["a"], "rows": [1], "message": ""}
    for key in ("suite", "model", "model_text", "message"):
        for value in (None, 5, ["n=1#0"]):
            with pytest.raises(ValueError, match="malformed counterexample blob"):
                replay(dict(good, **{key: value}))
    assert replay(good) is True
    # a blob no run could produce: not a dict, a symbolic model its suite
    # does not name, a carrier above the suite's size limit
    with pytest.raises(ValueError, match="malformed counterexample blob"):
        replay([1, 2])
    for suite, model in (("clustered-class-saturation", "prefix"),
                         ("generator-subset-semantics", "clustered:5")):
        with pytest.raises(ValueError, match="checks no symbolic model"):
            replay({"suite": suite, "model": model})
    for suite, n, limit in (("hierarchy-levels", 4, 3), ("hierarchy-levels", 5, 3),
                            ("open-family-closure", 13, ENUM_HARD_CAP)):
        labels = [f"x{i}" for i in range(n)]
        with pytest.raises(ValueError, match=f"at most {limit} atoms"):
            replay({"suite": suite, "model": f"n={n}#0", "labels": labels,
                    "rows": [1 << i for i in range(n)]})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
BLOB_KEYS = ["suite", "model", "model_text", "labels", "rows", "witness", "message",
             "config", *RECORDED_CONFIG]
GOOD_BLOB = {"suite": "closure-idempotence", "model": "n=2#0", "model_text": "",
             "labels": ["a", "b"], "rows": [1, 3], "witness": {}, "message": "",
             "config": {"seed": 0}}
# random dicts, and a well-formed blob with some keys dropped and some replaced
blob_keys = st.sampled_from(BLOB_KEYS) | st.text(max_size=4)
blobs = (st.dictionaries(blob_keys, json_values, max_size=8)
         | st.builds(lambda drop, extra: {k: v for k, v in {**GOOD_BLOB, **extra}.items()
                                          if k not in drop},
                     st.sets(st.sampled_from(BLOB_KEYS), max_size=2),
                     st.dictionaries(blob_keys, json_values, max_size=2)))


@settings(max_examples=200, deadline=None)
@given(blobs)
def test_from_blob_raises_only_value_error(blob):
    try:
        cx = Counterexample.from_blob(blob)
    except ValueError:
        return
    assert Counterexample.from_blob(cx.to_blob()) == cx


def test_config_refuses_suites_that_are_not_a_tuple_of_ids():
    for bad in (-1, True, None, 2.5, {"all"}, ("all", 1), [b"all"]):
        with pytest.raises(ConfigError, match="suites must be a tuple of suite ids"):
            SuiteConfig(suites=bad).validate()
    SuiteConfig(suites=["all"]).validate()  # a list of ids is accepted


config_values = (st.integers(-3, 10) | st.booleans() | st.none() | st.floats(-2, 9)
                 | st.text(max_size=4) | st.sampled_from(["all", *SUITES])
                 | st.lists(st.sampled_from(["all", *SUITES]) | st.text(max_size=3)
                            | st.integers(), max_size=3)
                 | st.lists(st.sampled_from(["all", *SUITES]), max_size=3).map(tuple))
config_fields = st.fixed_dictionaries(
    {}, optional={f: config_values for f in ("suites", "max_size", "depth",
                                             "symbolic_depth", "seed")})


@settings(max_examples=300, deadline=None)
@given(config_fields)
def test_config_validate_raises_only_config_error(fields):
    cfg = SuiteConfig(**fields)
    try:
        cfg.validate()
    except ConfigError:
        return
    assert cfg.selected()


def test_symbolic_depth_is_capped():
    SuiteConfig(symbolic_depth=sym.DEPTH_CAP).validate()
    with pytest.raises(ConfigError, match=r"3\.\.16 \(symbolic\.DEPTH_CAP\), got 17"):
        SuiteConfig(symbolic_depth=17).validate()
    # replay validates the recorded depth before it runs the check
    with pytest.raises(ConfigError, match="symbolic.DEPTH_CAP"):
        replay({"suite": "symbolic-model-axioms", "model": "prefix",
                "config": {"symbolic_depth": 30}})


def test_a_carrier_suite_checks_every_model_on_six_atoms():
    report = run_suite(SuiteConfig(suites=("finite-star-fails",), max_size=6))
    res = next(r for r in report.results if r.suite_id == "finite-star-fails")
    assert (res.status, res.models_checked) == ("pass", 1 + 4 + 29 + 355 + 6942 + 209527)


def test_replay_symbolic_witness():
    blob = {
        "suite": "generator-subset-semantics",
        "model": "prefix",
        "witness": {"g1": ["01"], "g2": ["0"]},
    }
    # replay re-runs the whole check on the prefix model, where it holds;
    # the witness (pr(01) below pr(0)) is reported, not decoded
    assert replay(blob) is True


def test_undecided_membership_fails_the_limit_suites(monkeypatch):
    # every mixed family and every union on these suites' corpora has
    # members at decided finite levels, so an undecided answer is wrong
    real = hm.Hierarchy.membership

    def membership(self, v, bound):
        mem = real(self, v, bound)
        return mem if mem.kind == "level" else hm.Membership("undecided")

    monkeypatch.setattr(hm.Hierarchy, "membership", membership)
    suites = ("limit-partition", "union-criterion")
    report = run_suite(SuiteConfig(suites=suites, max_size=3))
    limit, union = (r for r in report.results if r.suite_id in suites)
    # each mixed family is a failure, whatever its literal reading
    assert len(limit.failures) == MIXED_FAMILY_SIZE * limit.models_checked
    assert {cx.witness["membership"] for cx in limit.failures} == {"undecided"}
    assert {cx.witness["direct"] for cx in limit.failures} == {False, True}
    assert any(cx.witness.get("kind") == "undecided" for cx in union.failures)
    blobs = [json.loads(json.dumps(r.failures[0].to_blob())) for r in (limit, union)]
    assert [replay(b) for b in blobs] == [False, False]
    monkeypatch.undo()
    assert [replay(b) for b in blobs] == [True, True]


def test_one_level_has_no_mixed_family():
    # a mixed family draws from two levels at least: at depth 1 there is
    # none, and the limit suites check only the level's own values
    report = run_suite(SuiteConfig(suites=("limit-partition", "union-criterion"),
                                   max_size=2, depth=1))
    assert report.passed
    h, rng = hm.Hierarchy(build("ab")), random.Random(0)
    assert _mixed_family(h, 1, rng, 3) == []
    assert len(_mixed_family(h, 2, rng, 3)) == 3


def test_direct_limit_successor_needs_built_members():
    # the literal limit oracle: {{a,b}} is no built value of the 2-antichain,
    # though no built value lies inside it
    h = hm.Hierarchy(build("ab"))
    assert _direct_limit_successor(h, hm.parse_value("{{a},{{a}}}"), 2)
    assert not _direct_limit_successor(h, hm.parse_value("{{{a,b}}}"), 2)


def forge_membership(monkeypatch, literal, level, bound=None):
    """Make Hierarchy.membership place one non-member value at ``level``.

    With ``bound`` set, only queries at that bound are forged.
    """
    forged = hm.parse_value(literal)
    real = hm.Hierarchy.membership

    def membership(self, v, b):
        if v == forged and bound in (None, b):
            return hm.Membership("level", level)
        return real(self, v, b)

    monkeypatch.setattr(hm.Hierarchy, "membership", membership)


# a non-open subset of level 2 of the 3-antichain that subsets-in-m-are-open
# draws at seed 0 and not at seed 1
SEED0_ONLY = "{{{c}},{{a},{b}},{{a},{b},{c}},{{b},{c},{b,c}}}"


def test_seeded_replay_uses_recorded_seed(monkeypatch):
    forge_membership(monkeypatch, SEED0_ONLY, 3)
    suites = ("subsets-in-m-are-open",)
    assert run_suite(SuiteConfig(suites=suites, max_size=3, seed=1)).passed
    report = run_suite(SuiteConfig(suites=suites, max_size=3, seed=0))
    [cx] = report.failures
    assert cx.witness["value"] == SEED0_ONLY
    blob = cx.to_blob()
    assert replay(blob) is False
    assert replay(blob, SuiteConfig(seed=1)) is False  # the fault is still there


def test_subsets_suite_asks_every_next_level_value(monkeypatch):
    # level 2 of the 3-antichain has 18 elements, so the suite samples its
    # subsets and adds the 81 level-3 values; the whole of level 2 is one
    # of them, and the seed-0 sample of 150 masks does not draw it
    top = frozenset(hm.Hierarchy(build("abc")).level(2).values)
    real = hm.Hierarchy.membership
    monkeypatch.setattr(hm.Hierarchy, "membership", lambda self, v, b: (
        hm.Membership("outside") if v == top else real(self, v, b)))
    report = run_suite(SuiteConfig(suites=("subsets-in-m-are-open",), max_size=3))
    [cx] = report.failures
    assert cx.witness == {"kind": "open-subset-not-member", "level": 2,
                          "value": hm.render_value(top)}


def test_counterexample_records_config(monkeypatch):
    # a fault only a depth-2 run reaches: there the suite asks membership
    # at bound 3, at the default depth 3 it asks at bound 4
    forge_membership(monkeypatch, "{{a,b}}", 2, bound=3)
    cfg = SuiteConfig(suites=("subsets-in-m-are-open",), max_size=2, depth=2, seed=7)
    cx = run_suite(cfg).failures[0]
    blob = json.loads(json.dumps(cx.to_blob()))
    back = Counterexample.from_blob(blob)
    assert back.config == {"seed": 7, "depth": 2, "symbolic_depth": 8}
    assert back == cx
    assert replay(blob) is False
    assert replay(dict(blob, config={})) is True  # default depth misses it


def test_cap_exceeded_noted_not_fatal():
    cfg = SuiteConfig(suites=("hierarchy-levels",), max_size=3, depth=4)
    report = run_suite(cfg)
    res = {r.suite_id: r for r in report.results}["hierarchy-levels"]
    assert "cap exceeded" in res.note  # antichain-3 level 3 has 81 elements
    assert report.passed  # reported per-suite, not a failure


def test_capped_models_are_counted_and_partial():
    # the antichain-3 hits the growth cap at depth 4; the models after it
    # are still checked, and the suite is partial rather than pass
    cfg = SuiteConfig(suites=("hierarchy-levels",), max_size=3, depth=4)
    report = run_suite(cfg)
    res = {r.suite_id: r for r in report.results}["hierarchy-levels"]
    assert res.models_capped >= 1
    assert res.models_checked + res.models_capped == 34
    assert res.status == "partial"
    text = render_report(report)
    assert "status: partial" in text
    assert f"models_capped: {res.models_capped}" in text
    assert "  partial: 1" in text and "  passed: 0" in text
    [blob] = [r for r in report_to_json(report)["results"]
              if r["suite"] == "hierarchy-levels"]
    assert blob["models_capped"] == res.models_capped


@pytest.mark.parametrize("suite", ["shift-preorder-laws", "shift-totality",
                                   "shift-powerset-connection"])
def test_connection_sweep_checks_every_five_atom_model(suite):
    cfg = SuiteConfig(suites=(suite,), max_size=5)
    [res] = [r for r in run_suite(cfg).results if not r.skipped]
    assert res.models_checked == 1 + 4 + 29 + 355 + 6942 == 7331
    assert res.note == ""
    assert not res.failures


def test_json_report_shape(small_report):
    blob = report_to_json(small_report)
    assert blob["passed"] is True
    assert blob["config"]["max_size"] == 2
    assert len(blob["results"]) == len(SUITES)
    json.dumps(blob)  # round-trippable


def test_render_shows_counterexamples():
    cfg = SuiteConfig(suites=("minimal-open-characterizations",), max_size=3)
    text = render_report(run_suite(cfg, _model_hook=break_closure))
    assert "status: fail" in text
    assert "counterexample_1:" in text
    assert "model_text: |" in text


def test_report_matches_golden_at_default_size():
    # max_size 4 is where open-family-closure's loops and the symbolic
    # suites do real work; pins every verdict, count and witness there
    text = render_report(run_suite(SuiteConfig(max_size=4)), timing=False)
    assert text == GOLDEN_MAX4.read_text()


def test_generator_subset_fault_is_caught_and_replayed(monkeypatch):
    monkeypatch.setattr(sym, "gen_subset", lambda g1, g2: True)
    cfg = SuiteConfig(suites=("generator-subset-semantics",))
    report = run_suite(cfg)
    assert not report.passed
    cx = report.failures[0]
    assert cx.suite == "generator-subset-semantics"
    assert replay(cx.to_blob()) is False


def test_bounded_member_fault_is_caught_and_replayed(monkeypatch):
    # drop every bounded member of one generated open: the semantic side
    # then calls it a subset of everything, which its generators refute
    real = sym.members_up_to
    victim = []

    def lossy(g, depth):
        if not victim:
            victim.append(g.generators)
        return [] if g.generators == victim[0] else real(g, depth)

    monkeypatch.setattr(sym, "members_up_to", lossy)
    report = run_suite(SuiteConfig(suites=("generator-subset-semantics",)))
    assert report.failures
    blob = json.loads(json.dumps(report.failures[0].to_blob()))
    assert blob["suite"] == "generator-subset-semantics"
    assert replay(blob) is False
    monkeypatch.undo()
    assert replay(blob) is True


def test_nested_shrink_fault_is_caught_and_replayed(monkeypatch):
    # a level-2 shrink that returns its input: the witness renders the
    # lifted open's generators as nested lists of atoms
    real = sym.strict_shrink
    monkeypatch.setattr(sym, "strict_shrink", lambda g: g if g.level == 2 else real(g))
    report = run_suite(SuiteConfig(suites=("shrink-strictly-descends",)))
    assert report.failures
    assert all(cx.witness["level"] == 2 for cx in report.failures)
    blob = json.loads(json.dumps(report.failures[0].to_blob()))
    [gens] = blob["witness"]["gens"]
    assert gens and all(isinstance(a, str) for a in gens)
    assert replay(blob) is False
    monkeypatch.undo()
    assert replay(blob) is True


def _whole_level(h, x):
    return x.level > 1 and x.value == frozenset(h.level(x.level - 1).values)


def _top_level_without_its_top(self):
    """A value set of the top built level that lacks the level below as a whole."""
    cut = -1 if self.index == SuiteConfig().depth else None
    return frozenset(self.values[:cut])


def _flip_union_criterion(self, v, bound):
    rep = _union(self, v, bound)
    return replace(rep, criterion_union=not rep.criterion_union)


_strict, _rows, _rank = PreOrder.strict, hm.inclusion_rows, hm.Hierarchy.rank
_power, _member = hm.Hierarchy.power_element, hm.Hierarchy.member_level
_union, _members = hm.Hierarchy.union_report, sym.members_up_to

# (witness kind, suite, patched object, attribute, fault); each fault
# yields at least its own kind at max_size 2 and the default depth 3. A
# check whose witnesses carry no "kind" is matched by a field name instead
WITNESS_FAULTS = [
    ("irreflexive", "strict-part-laws", PreOrder, "strict",
     lambda self, a, b: a == b or _strict(self, a, b)),
    ("strict-law", "strict-part-laws", PreOrder, "strict",
     lambda self, a, b: a != b and self.leq(a, b)),
    ("bad-witness", "finite-star-fails", PreOrder, "satisfies_star",
     lambda self: (False, self.n - 1)),
    ("empty-cone", "powerset-cone-step", hm, "inclusion_rows",
     lambda masks: (0, *_rows(masks)[1:])),
    ("cone-not-open", "powerset-cone-step", hm, "inclusion_rows",
     lambda masks: _rows(masks)[::-1]),
    ("power-value-mismatch", "powerset-cone-step", hm.Hierarchy, "power_element",
     lambda self, x: hm.MElem(_power(self, x).value - {x.value}, x.level + 1)),
    # only the top level's powers, one past the depth, are refused
    ("power-not-member", "powerset-cone-step", hm.Hierarchy, "member_level",
     lambda self, v, n: n <= SuiteConfig().depth and _member(self, v, n)),
    # only the top built level misses a value: the power of the top of the
    # level below
    ("power-not-materialized", "powerset-cone-step", hm.HierarchyLevel, "value_set",
     property(_top_level_without_its_top)),
    ("carrier-power-mismatch", "powerset-cone-step", hm.Hierarchy, "power_element",
     lambda self, x: (hm.MElem(frozenset(), 2) if x == (frozenset(self.base.labels), 1)
                      else _power(self, x))),
    # only the last whole level's power is wrong
    ("level-power-mismatch", "powerset-cone-step", hm.Hierarchy, "power_element",
     lambda self, x: (hm.MElem(frozenset(), x.level + 1)
                      if x.level == SuiteConfig().depth and _whole_level(self, x)
                      else _power(self, x))),
    # levels 1 and 2 share a marker, level 3 has another: only adjacent
    # levels overlap
    ("levels-overlap", "hierarchy-levels", hm.HierarchyLevel, "value_set",
     property(lambda self: frozenset(self.values) | {self.index // 3})),
    # only the last pair of built levels fails to nest
    ("level-not-member-of-next", "hierarchy-levels", hm.HierarchyLevel, "value_set",
     property(_top_level_without_its_top)),
    ("rank-mismatch", "hierarchy-levels", hm.Hierarchy, "rank",
     lambda self, v: _rank(self, v) + 1),
    ("member-subset-not-open", "subsets-in-m-are-open", hm.Hierarchy, "membership",
     lambda self, v, bound: hm.Membership("level", 1)),
    ("open-subset-not-member", "subsets-in-m-are-open", hm.Hierarchy, "membership",
     lambda self, v, bound: hm.Membership("outside")),
    ("bottom-union-not-empty", "union-criterion", hm, "hf_union", lambda v: v),
    ("bottom-criteria-not-false", "union-criterion", hm.Hierarchy, "union_report",
     lambda self, v, bound: replace(_union(self, v, bound), criterion_unmixed=True)),
    ("criteria-disagree", "union-criterion", hm.Hierarchy, "union_report",
     _flip_union_criterion),
    ("negative-control-failed", "basic-open-no-partition", hm, "find_open_partition",
     lambda rows, x: None),
    ("classification-not-total", "magma-set-atom-trichotomy", hm.Hierarchy, "classify",
     lambda self, v, bound: "undecided"),
    ("classification-mismatch", "magma-set-atom-trichotomy", hm.Hierarchy, "classify",
     lambda self, v, bound: "atom"),
    ("counts", "generated-opens-unbounded", sym, "members_up_to",
     lambda g, depth: _members(g, min(depth, 3))),
    ("atom", "clustered-class-saturation", sym, "gen_member",
     lambda g, z: z[1] == 0),
]


@pytest.mark.parametrize("kind, suite, target, attr, fault", WITNESS_FAULTS,
                         ids=[f[0] for f in WITNESS_FAULTS])
def test_seeded_fault_yields_its_witness_kind(monkeypatch, kind, suite, target, attr,
                                              fault):
    monkeypatch.setattr(target, attr, fault)
    report = run_suite(SuiteConfig(suites=(suite,), max_size=2))
    hits = [cx for cx in report.failures if cx.witness.get("kind") == kind
            or "kind" not in cx.witness and kind in cx.witness]
    assert hits
    blob = json.loads(json.dumps(hits[0].to_blob()))
    assert replay(blob) is False
    monkeypatch.undo()
    assert replay(blob) is True


def faulty_closure_table(verdicts):
    """A closure table whose entry s is open exactly when verdicts[s] holds:
    a rejected mask gets bit n, which lies outside every mask."""
    return lambda rows, n: [0 if ok else 1 << n for ok in verdicts]


def test_open_family_table_uses_library_predicate(monkeypatch, antichain2):
    opens = tp.enumerate_opens(antichain2)  # before the closure table is broken
    full = antichain2.full_mask
    verdicts = [s != full and tp.is_lower_open(antichain2, s) for s in range(1 << 2)]
    monkeypatch.setattr(tp, "enumerate_opens", lambda p, **kw: opens)
    monkeypatch.setattr(tp, "closure_table", faulty_closure_table(verdicts))
    witnesses = _chk_open_family(antichain2, "n=2#0", RunContext(SuiteConfig()))
    assert {"kind": "union", "x": "{a}", "y": "{b}"} in witnesses


def test_open_family_witnesses_match_cubic_loops(monkeypatch, models_by_size):
    # seeded faults in the library's openness table; the opens are the
    # masks the faulty table accepts, some dropped, so the family need not
    # be closed under unions or meets. The check must report exactly the
    # pair witnesses of the oracle's loops, in loop order.
    real = tp.is_lower_open
    checked = failing = 0
    for n in (1, 2, 3):
        for idx, p in enumerate(models_by_size[n]):
            rng = random.Random(f"open-family:{n}:{idx}")
            table = [real(p, s) != (rng.random() < 0.15) for s in range(1 << n)]
            opens = sorted((s for s in range(1, 1 << n) if table[s] and rng.random() >= 0.2),
                           key=lambda s: (s.bit_count(), s))
            monkeypatch.setattr(tp, "closure_table", faulty_closure_table(table))
            monkeypatch.setattr(tp, "enumerate_opens", lambda q, o=opens, **kw: o)
            want = []
            for kind, masks in open_family_witnesses(opens, table):
                if kind != "triple":
                    x, y = (format_atom_set(p, s) for s in masks)
                    want.append({"kind": kind, "x": x, "y": y})
            got = _chk_open_family(p, f"n={n}#{idx}", RunContext(SuiteConfig()))
            assert got == want
            checked += 1
            failing += bool(got)
    assert 0 < failing < checked


def test_open_family_pairs_decide_larger_families(monkeypatch, models_by_size):
    # with the real closure table, openness is closed under unions and
    # meets on any rows, so the oracle's triple loop fails exactly when
    # its pair loop does, and the check's witnesses are the pair list. The
    # open lists are seeded: non-open masks injected, some opens dropped
    preorders = [p for n in (1, 2, 3) for p in models_by_size[n]]
    raw = raw_row_models("open-family-pairs", 1000, 4)
    rng = random.Random("open-family-pairs")
    ctx = RunContext(SuiteConfig())
    verdicts = []
    for p in preorders + raw:
        is_open = [mask_is_open(p.pred, s) for s in range(1 << p.n)]
        opens = [s for s in range(1, 1 << p.n) if is_open[s] and rng.random() >= 0.2]
        if rng.random() < 0.3:
            opens += [s for s in range(1, 1 << p.n) if not is_open[s]][:rng.randint(1, 2)]
        opens.sort(key=lambda s: (s.bit_count(), s))
        witnesses = open_family_witnesses(opens, is_open)
        pairs = [(kind, masks) for kind, masks in witnesses if kind != "triple"]
        assert any(kind == "triple" for kind, _ in witnesses) == bool(pairs), p
        monkeypatch.setattr(tp, "enumerate_opens", lambda q, o=opens, **kw: o)
        got = _chk_open_family(p, "m", ctx)
        assert got == [{"kind": kind, "x": format_atom_set(p, x), "y": format_atom_set(p, y)}
                       for kind, (x, y) in pairs], p
        verdicts.append(bool(pairs))
    assert 0 < sum(verdicts) < len(verdicts)


def test_non_open_mask_in_open_masks_is_caught(monkeypatch):
    # the checks take bare masks, with no validation on the way;
    # {b} is not open in the chain a <= b
    chain = (0b01, 0b11)
    real = tp.enumerate_opens

    def injected(p, **kw):
        masks = real(p, **kw)
        return masks + [0b10] if p.pred == chain else masks

    monkeypatch.setattr(tp, "enumerate_opens", injected)
    report = run_suite(SuiteConfig(suites=("open-family-closure",), max_size=2))
    assert report.failures
    assert {cx.rows for cx in report.failures} == {chain}
    witnesses = [cx.witness for cx in report.failures]
    assert {"kind": "union", "x": "{b}", "y": "{b}"} in witnesses
    blob = json.loads(json.dumps(report.failures[0].to_blob()))
    assert replay(blob) is False
    monkeypatch.undo()
    assert replay(blob) is True


def test_bounded_member_outside_the_atom_list_is_an_exception(monkeypatch):
    # a bounded member one step deeper than the run's depth is not among
    # atoms_up_to(depth), so reading it as a mask raises
    real = sym.members_up_to
    monkeypatch.setattr(sym, "members_up_to",
                        lambda g, depth: [*real(g, depth), "0" * (depth + 1)])
    report = run_suite(SuiteConfig(suites=("generator-subset-semantics",)))
    cx = report.failures[0]
    assert (cx.model, cx.witness["kind"], cx.witness["type"]) == \
        ("prefix", "exception", "KeyError")
    blob = json.loads(json.dumps(cx.to_blob()))
    assert replay(blob) is False
    monkeypatch.undo()
    assert replay(blob) is True


def test_check_exception_is_a_counterexample(monkeypatch):
    # a bug that raises on one model fails the suite there and the run goes on
    real = tp.duality_failures

    def faulty(p, **kw):
        if p.pred == (0b01, 0b11):
            raise ValueError("injected fault")
        return real(p, **kw)

    monkeypatch.setattr(tp, "duality_failures", faulty)
    cfg = SuiteConfig(suites=("open-complement-duality", "class-vs-cone"), max_size=2)
    report = run_suite(cfg)
    res = {r.suite_id: r for r in report.results}
    assert res["class-vs-cone"].passed
    assert res["open-complement-duality"].models_checked == 1 + 4
    [cx] = report.failures
    assert cx.witness == {"kind": "exception", "type": "ValueError",
                          "message": "injected fault"}
    assert cx.rows == (0b01, 0b11)
    assert "counterexample_1:" in render_report(report)
    blob = json.loads(json.dumps(cx.to_blob()))
    assert replay(blob) is False
    monkeypatch.undo()
    assert replay(blob) is True


def test_every_level_space_is_searched_for_open_splits(monkeypatch):
    # report a split on any 18-row family: only level 2 of the 3-antichain
    # has 18 elements among the level spaces at n <= 3
    real = hm.find_open_partition

    def forged(rows, x):
        return (0, x) if len(rows) == 18 else real(rows, x)

    monkeypatch.setattr(hm, "find_open_partition", forged)
    report = run_suite(SuiteConfig(suites=("basic-open-no-partition",), max_size=3))
    assert report.failures
    assert {(cx.labels, cx.rows) for cx in report.failures} == {(("a", "b", "c"), (1, 2, 4))}
    assert {cx.witness["kind"] for cx in report.failures} == {"level-basic-open-splits"}
    assert {cx.witness["level"] for cx in report.failures} == {2}
    blob = json.loads(json.dumps(report.failures[0].to_blob()))
    assert replay(blob) is False
    monkeypatch.undo()
    assert replay(blob) is True


def test_minimal_characterizations_match_literal_forms(monkeypatch, models_by_size):
    # every side against its plain per-set all(...)/any(...) reading. Raw
    # rows (random over n + 1 bits) make the sides disagree on some models;
    # on the injected cases seeded non-open masks join the opens, which is
    # where the cone and class sides can part
    names = "abcdef"
    rng = random.Random("minimal-characterizations")
    raw = []
    for _ in range(1000):
        n = rng.randint(1, 5)
        raw.append(PreOrder(tuple(names[:n]),
                            tuple(rng.getrandbits(n + 1) for _ in range(n))))
    preorders = [p for n in (1, 2, 3, 4) for p in models_by_size[n]]
    cases = [(p, False) for p in preorders + raw]
    cases += [(p, True) for p in preorders[:34] + raw[:300]]
    failing = []  # per uninjected case
    parted = 0
    real_opens = tp.enumerate_opens
    for p, inject in cases:
        rel = {(names[a], p.labels[b]) for b in range(p.n) for a in bits(p.pred[b])}
        opens = open_sets_of(rel, p.labels)
        family = [p.atom_set(x) for x in opens]
        assert sorted(family) == sorted(real_opens(p))
        if inject:
            family += [s for s in rng.sample(range(1, 1 << p.n), min(3, (1 << p.n) - 1))
                       if s not in family]
        sides = minimal_characterizations_of(
            rel, p.labels, [frozenset(p.set_labels(x)) for x in family])
        want = []
        for x in family:
            brute, cone, klass = sides[frozenset(p.set_labels(x))]
            lib = tp.is_minimal_open(p, x)
            if not brute == cone == klass == lib:
                want.append({"open": format_atom_set(p, x), "brute": brute,
                             "cone": cone, "class": klass, "library": lib})
        monkeypatch.setattr(tp, "enumerate_opens", lambda q, f=family, **kw: f)
        got = _chk_minimal_characterizations(p, "m", RunContext(SuiteConfig()))
        assert got == want, p
        if inject:
            parted += any(w["cone"] != w["class"] for w in got)
        else:
            failing.append(bool(got))
    assert not any(failing[:len(preorders)])
    assert 0 < sum(failing) < len(raw)
    assert parted > 0  # only non-open sets tell cones from classes


def raw_row_models(seed, count, max_n):
    """Seeded models with random rows over n + 1 bits: unclosed, mostly
    non-reflexive, with bit n outside the carrier."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        out.append(PreOrder(tuple("abcdef"[:n]),
                            tuple(rng.getrandbits(n + 1) for _ in range(n))))
    return out


def test_shift_law_witnesses_match_literal_loop(models_by_size):
    # the table check against the 8^n loop: the same reflexive list, the
    # same failing z, and each emitted triple a literal failure
    raw = raw_row_models("shift-laws", 1000, 3)
    preorders = [p for n in (1, 2, 3) for p in models_by_size[n]]
    ctx = RunContext(SuiteConfig())
    kinds = {"reflexive": 0, "transitive": 0}
    for p in preorders + raw:
        rel = {("abcdef"[a], p.labels[b]) for b in range(p.n) for a in bits(p.pred[b])}
        subsets = [frozenset(p.set_labels(m)) for m in range(1 << p.n)]
        text = {s: format_atom_set(p, m) for m, s in enumerate(subsets)}
        reflexive, transitive = shift_law_failures(rel, subsets)
        got = _chk_shift_laws(p, "m", ctx)
        assert [w["x"] for w in got if w["kind"] == "reflexive"] == [text[x] for x in reflexive]
        triples = [(w["x"], w["y"], w["z"]) for w in got if w["kind"] == "transitive"]
        assert {z for _, _, z in triples} == {text[z] for _, _, z in transitive}, p
        assert len(triples) == len({z for _, _, z in triples})  # one per failing z
        assert set(triples) <= {tuple(text[s] for s in t) for t in transitive}
        if p in preorders:
            assert got == []
        for w in got:
            kinds[w["kind"]] += 1
    assert kinds["reflexive"] and kinds["transitive"]


def test_lifted_minimality_reads_inclusion_rows(monkeypatch, models_by_size):
    # with star forced true, the check fires exactly when the pre-order of
    # the opens under inclusion has a minimal element
    monkeypatch.setattr(PreOrder, "satisfies_star", lambda self: (True, None))
    ctx = RunContext(SuiteConfig())
    raw = raw_row_models("lifted-minimality", 1000, 5)
    verdicts = []
    for p in [p for n in (1, 2, 3, 4) for p in models_by_size[n]] + raw:
        lifted = sh.preorder_of_opens(p)  # read pointwise, not by constant_rows
        has_minimal = any(tp.is_minimal_open(lifted, s) for s in lifted.pred)
        assert bool(_chk_shift_minimal_contra(p, "m", ctx)) == has_minimal, p
        verdicts.append(has_minimal)
    assert not all(verdicts[-len(raw):])


def relabel(p, perm):
    """p with atom a moved to index perm[a] and each row's carrier bits
    moved alike; the labels stay in place, and row bits outside the
    carrier stay as they are."""
    n, full = p.n, p.full_mask
    rows = [0] * n
    for b, row in enumerate(p.pred):
        rows[perm[b]] = row & ~full | sum(1 << perm[a] for a in bits(row & full))
    return PreOrder(p.labels, tuple(rows))


CARRIER_SUITES = [s for s in SUITES.values() if s.scope == "finite" and s.max_n is None]


def test_carrier_suites_are_label_invariant(models_by_size):
    # every carrier suite states a property of the order, not of the atom
    # indices: a relabelled model gets the same verdict and the same
    # number of witnesses of each kind, closed models and raw rows alike
    assert len(CARRIER_SUITES) == 15
    ctx = RunContext(SuiteConfig())
    rng = random.Random("relabel")
    preorders = [p for n in (1, 2, 3, 4) for p in models_by_size[n]]
    raw = raw_row_models("relabel", 600, 4)
    assert len(preorders) == 389

    def kinds(suite, p):
        witnesses = _witnesses(suite, p, "m", ctx)
        return bool(witnesses), Counter(w.get("kind") for w in witnesses)
    failing = []
    for p in preorders + raw:
        want = {s.suite_id: kinds(s, p) for s in CARRIER_SUITES}
        failing.append(any(verdict for verdict, _ in want.values()))
        for _ in range(2):
            perm = rng.sample(range(p.n), p.n)
            q = relabel(p, perm)
            for s in CARRIER_SUITES:
                assert kinds(s, q) == want[s.suite_id], (s.suite_id, p, perm)
    assert not any(failing[:len(preorders)]) and any(failing[len(preorders):])


def test_carrier_suites_name_rows_outside_the_carrier():
    # on raw rows no carrier suite breaks down into an exception witness;
    # the two checks that index a label or a row with each row bit name
    # every bit past the carrier, and only those, as its own witness
    ctx = RunContext(SuiteConfig())
    outside = 0
    for p in raw_row_models("relabel", 600, 4):
        bits_out = [(b, a) for b in range(p.n) for a in bits(p.pred[b] >> p.n << p.n)]
        outside += bool(bits_out)
        for s in CARRIER_SUITES:
            witnesses = _witnesses(s, p, "m", ctx)
            assert all(w.get("kind") != "exception" for w in witnesses), (s.suite_id, p)
            if s.suite_id in ("closure-idempotence", "cone-transitivity"):
                named = [(p.atom(w["atom"]), w["bit"]) for w in witnesses
                         if w.get("kind") == "row-outside-carrier"]
                assert named == bits_out, (s.suite_id, p)
    assert outside == 457


# --- the block-wise runner and its per-block memo -----------------------------

FINITE_SUITES = [s for s in SUITES.values() if s.scope == "finite"]
MEMO_SUITES = ("finite-star-fails", "open-family-closure", "minimal-open-characterizations",
               "star-iff-no-minimal", "cones-contain-minimal", "shift-preorder-laws",
               "shifted-minimality-contrapositive")


def recording_hook(fault_seed=None):
    """A _model_hook that keeps every model it hands out, in order. With a
    seed it swaps about one model in six for seeded raw rows over n + 1
    bits: unclosed, mostly non-reflexive, often with bit n outside the
    carrier."""
    rng = random.Random(fault_seed)
    seen = []

    def hook(p):
        if fault_seed is not None and rng.random() < 1 / 6:
            p = PreOrder(p.labels, tuple(rng.getrandbits(p.n + 1) for _ in range(p.n)))
        seen.append(p)
        return p
    return hook, seen


@pytest.mark.parametrize("fault_seed", [None, "memo-faults"])
def test_memo_never_changes_a_verdict(fault_seed):
    # every finite suite on all 389 models with n <= 4: the run's witnesses
    # per model are a direct call's with a fresh context, in the same order,
    # and the capped models are the ones where the direct call stops
    cfg = SuiteConfig(suites=tuple(s.suite_id for s in FINITE_SUITES), max_size=4)
    hook, seen = recording_hook(fault_seed)
    report = run_suite(cfg, _model_hook=hook)
    assert len(seen) == 389
    counts: dict[int, int] = {}
    models = []
    for p in seen:
        models.append((f"n={p.n}#{counts.get(p.n, 0)}", p))
        counts[p.n] = counts.get(p.n, 0) + 1
    got: dict[tuple[str, str], list] = {}
    for cx in report.failures:
        got.setdefault((cx.suite, cx.model), []).append(cx.witness)
    results = {r.suite_id: r for r in report.results}
    for suite in FINITE_SUITES:
        limit = min(cfg.max_size, suite.max_n or cfg.max_size)
        capped = 0
        for name, p in models:
            if p.n > limit:
                continue
            try:
                want = _witnesses(suite, p, name, RunContext(cfg))
            except CapExceeded:
                capped += 1
                continue
            assert got.pop((suite.suite_id, name), []) == want, (suite.suite_id, name)
        assert results[suite.suite_id].models_capped == capped
    assert not got
    assert report.passed == (fault_seed is None)


def test_patched_open_masks_reaches_the_next_run(monkeypatch):
    # {b} is not open in the chain a <= b; a memo that outlived a run
    # would hand the second run the first run's open list
    cfg = SuiteConfig(suites=("open-family-closure",), max_size=2)
    assert run_suite(cfg).passed
    real = tp.enumerate_opens
    monkeypatch.setattr(tp, "enumerate_opens",
                        lambda p, **kw: real(p, **kw) + [0b10] if p.pred == (0b01, 0b11)
                        else real(p, **kw))
    assert {cx.rows for cx in run_suite(cfg).failures} == {(0b01, 0b11)}
    monkeypatch.undo()
    assert run_suite(cfg).passed


def test_once_computes_afresh_outside_the_runner(chain3):
    ctx = RunContext(SuiteConfig())
    calls = []

    def fact(p):
        calls.append(p)
        return len(calls)
    assert [ctx.once(fact, chain3) for _ in range(3)] == [1, 2, 3]


def test_memo_holds_one_block_and_shares_each_fact(monkeypatch):
    # 389 models are two blocks: the memo never holds more than one
    # block's facts, is gone after the run, and each model's open list is
    # worked out once for the three suites that read it
    real_once = RunContext.once
    sizes, fns, contexts = [], set(), set()

    def spy(self, fn, p, **tables):
        out = real_once(self, fn, p, **tables)
        if self._memo is not None:
            sizes.append(len(self._memo))
        fns.add(fn)
        contexts.add(self)
        return out
    real_opens = tp.enumerate_opens
    opened = []

    def opens(p, **kw):
        opened.append(p)
        return real_opens(p, **kw)
    monkeypatch.setattr(RunContext, "once", spy)
    monkeypatch.setattr(tp, "enumerate_opens", opens)
    assert run_suite(SuiteConfig(suites=MEMO_SUITES, max_size=4)).passed
    assert len(opened) == 389
    assert len(fns) == 4
    assert _BLOCK * len(fns) >= max(sizes) > _BLOCK
    assert [c._memo for c in contexts] == [None]


def test_hierarchy_scoped_models_are_checked_one_at_a_time(monkeypatch):
    # a model that a size-limited suite checks builds its level hierarchy,
    # so it is a block of its own: the memo then holds that one model's
    # facts; the models past every limit share blocks as before
    real_once = RunContext.once
    held: dict[int, set[int]] = {}

    def spy(self, fn, p, **tables):
        out = real_once(self, fn, p, **tables)
        held.setdefault(p.n, set()).add(len({key[1] for key in self._memo}))
        return out
    monkeypatch.setattr(RunContext, "once", spy)
    assert run_suite(SuiteConfig(max_size=4)).passed
    assert sorted(held) == [1, 2, 3, 4]
    assert all(held[n] == {1} for n in range(1, HIER_MAX_N + 1))
    assert max(held[4]) > 1


def test_each_model_builds_at_most_two_closure_tables(monkeypatch):
    # every suite reads the one shared pred table of a model, and complement
    # duality adds the succ table
    real = tp.closure_table
    calls = []

    def counting(rows, n):
        calls.append(n)
        return real(rows, n)
    monkeypatch.setattr(tp, "closure_table", counting)
    monkeypatch.setattr(sh, "closure_table", counting)
    report = run_suite(SuiteConfig(suites=tuple(s.suite_id for s in FINITE_SUITES),
                                   max_size=4))
    checked = {r.suite_id: r.models_checked for r in report.results}
    assert checked["open-complement-duality"] == 389
    assert checked["hierarchy-levels"] == 34
    assert len(calls) <= 2 * 389


def test_models_are_streamed_block_by_block(monkeypatch):
    # when the k-th model is checked, no model past its block has been
    # enumerated yet
    pulled = []

    def hook(p):
        pulled.append(p)
        return p
    real_opens = tp.enumerate_opens
    counts = []

    def opens(p, **kw):
        counts.append(len(pulled))
        return real_opens(p, **kw)
    monkeypatch.setattr(tp, "enumerate_opens", opens)
    cfg = SuiteConfig(suites=("open-family-closure",), max_size=4)
    assert run_suite(cfg, _model_hook=hook).passed
    assert len(counts) == len(pulled) == 389
    assert all(c <= (k // _BLOCK + 1) * _BLOCK for k, c in enumerate(counts))
