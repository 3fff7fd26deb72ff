# The hierarchy of magmas
# ------------------------
# Level 1: nonempty lower-open atom sets. Level n+1: nonempty
# inclusion-downward-closed sets of level-n members. Because shifting
# collapses to inclusion on opens (demo 02), one construction iterates.

from magmas import Hierarchy, MElem, build, hf_rank
from magmas.hierarchy import parse_value, render_value

anti = build("ab")  # two independent atoms
h = Hierarchy(anti)
levels = h.build(3)
print("level sizes:", [len(lv) for lv in levels])
for lv in levels[:2]:
    print(f"level {lv.index}:", [render_value(v) for v in lv.values])

# Levels never meet, and each whole level reappears as a member one up.
print("level 1 ∩ level 2 empty?",
      not levels[0].value_set & levels[1].value_set)
print("level 1 as a member of level 2?",
      levels[0].value_set in levels[1].value_set)
print("rank of every member equals its level?",
      all(hf_rank(v) == lv.index for lv in levels for v in lv.values))

# The submagmas of a magma form a magma one level up: the powerset
# operation stays inside the universe.
x = parse_value("{a}")
print("power of {a}:", render_value(h.power_element(MElem(x, 1)).value))
whole = MElem(frozenset(levels[0].values), 2)
print("power of level 1 is level 2?",
      h.power_element(whole).value == frozenset(levels[1].values))

# Membership past all finite levels: values that mix levels live one step
# past the limit exactly when each level-slice is a member two levels up.
mixed = parse_value("{{a},{{a}}}")
print("{{a},{{a}}}:", h.membership(mixed, 3).describe())

# Unions tell the two regimes apart. Bottom-level magmas hold atoms, so
# their union is the empty set, which is no magma; one level up the union
# falls back into the universe.
for text in ("{a,b}", "{{a},{b},{a,b}}"):
    rep = h.union_report(parse_value(text), 3)
    print(f"union of {text} = {render_value(rep.union_value)}",
          "| magma?", rep.criterion_union,
          "| criteria agree?", rep.consistent)

# The trichotomy: everything is an atom, a magma, or a plain set.
for text in ("a", "{a}", "{a,{a}}", "{}"):
    v = parse_value(text)
    print(f"{text!r:12} ->", h.classify(v, 3))
