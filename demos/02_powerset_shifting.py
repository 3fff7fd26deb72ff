# Shifting a dependence relation to the powerset
# -----------------------------------------------
# x is below y when every member of x depends on some member of y.
# The shifted relation is again a pre-order, and on open sets it is
# nothing but inclusion. That collapse is what lets the hierarchy in
# demo 03 iterate a single construction.

from magmas import (build, check_connection, format_atom_set, pr_plus,
                    shift_leq, shifted_is_total, shifted_opens_match)
from magmas.shifting import powerset_masks

chain = build("abc", [("a", "b"), ("b", "c")])

# Distinct subsets can be mutually below each other, so an order does not
# shift to an order: on the chain, {a,b,c} and {c} simulate one another.
full, top = chain.full_mask, chain.atom_set("c")
print("{a,b,c} below {c}:", shift_leq(chain, full, top))
print("{c} below {a,b,c}:", shift_leq(chain, top, full))

# The shifted cone of x collects every subset below x. For open x it is
# exactly the powerset of x.
two = build("ab", [("a", "b")])
open_x = two.full_mask
print("cone of {a,b}:",
      [format_atom_set(two, y) for y in pr_plus(two, open_x)])
print("equals powerset?", pr_plus(two, open_x) == powerset_masks(open_x))

# For non-open x the cone is strictly larger: {b} drags a in through the
# dependence.
not_open = two.atom_set("b")
print("cone of {b}:  ",
      [format_atom_set(two, y) for y in pr_plus(two, not_open)])

# The connection check sweeps every subset of a model once and returns
# those whose cone misses their powerset, or differs from it while they
# are open: none, here.
print("failing subsets:", check_connection(two))

# Consequences worth seeing once: a total base shifts to a total relation,
# and the shifted relation induces the same topology on the open-set
# family as plain inclusion does.
print("chain total?", chain.is_total(), "| shifted total?", shifted_is_total(chain))
print("same topology on the open-set family?", shifted_opens_match(chain))
