# Dependence relations and their open sets
# -----------------------------------------
# A carrier of atoms with a reflexive-transitive "a depends on b" relation.
# The collections that respect dependence are exactly the lower-open sets:
# take a member, and everything it depends on comes along.

from magmas import (build, enumerate_opens, enumerate_preorders, format_atom_set,
                    format_preorder, is_lower_open, minimal_opens)


def show(p, masks):
    """Render a list of atom-set masks as [{a}, {a,b}]."""
    return "[" + ", ".join(format_atom_set(p, s) for s in masks) + "]"


# A three-atom chain: a depends on b, b depends on c. Building closes the
# relation, so a <= c appears automatically.
chain = build("abc", [("a", "b"), ("b", "c")])
print(format_preorder(chain))

print("pr(c) =", chain.set_labels(chain.predecessors(2)))
# Open sets are bitmasks over the atoms; format_atom_set renders one.
print("open sets:")
for s in enumerate_opens(chain):
    print("  ", format_atom_set(chain, s))

# {b} is not open: b depends on a, which is missing.
print("{b} open?", is_lower_open(chain, chain.atom_set("b")))

# Mutual dependence fuses atoms: in a two-cycle the only magma is the
# whole carrier.
twocycle = build("ab", [("a", "b"), ("b", "a")])
print("two-cycle opens:", show(twocycle, enumerate_opens(twocycle)))

# Minimal opens are the obstruction to "no isolated collections": a finite
# carrier always has one, which is why the interesting models are infinite.
print("chain minimal opens:", show(chain, minimal_opens(chain)))
ok, witness = chain.satisfies_star()
print("every atom has a strict predecessor?", ok,
      "| first witness without one:", chain.labels[witness])

# The condition fails on every finite pre-order. Check all 29 three-atom
# models in one sweep.
print("three-atom models where the condition holds:",
      sum(1 for p in enumerate_preorders(3) if p.satisfies_star()[0]))
