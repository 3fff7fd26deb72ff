"""Independent reference computations for the tests.

Nothing here calls library code, so agreement is meaningful. Most of it
works on label pairs and frozensets, never on the library's bitmask
representations; ``open_family_witnesses`` takes plain int masks, as
the check it pins does. ``bounded_members`` reads a symbolic model only
through its own ``atoms_up_to`` and ``leq``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def closure_pairs(labels, edges):
    """Reflexive-transitive closure as a set of label pairs, by fixpoint."""
    rel = {(a, a) for a in labels}
    rel.update(edges)
    while True:
        extra = {(a, c)
                 for (a, b1) in rel for (b2, c) in rel
                 if b1 == b2 and (a, c) not in rel}
        if not extra:
            return rel
        rel |= extra


def preorder_rows_by_pattern(n):
    """Every pre-order on atoms 0..n-1 by a plain walk over edge patterns.

    Pattern bit k is the pair pairs[k] = (a, b), meaning a <= b, listed
    b-major. Returns, in pattern order, each transitive pattern as a
    tuple of rows: row b is the frozenset of atoms a with a <= b.
    """
    points = range(n)
    pairs = [(a, b) for b in points for a in points if a != b]
    out = []
    for pattern in range(1 << len(pairs)):
        rel = {(a, a) for a in points}
        rel.update(p for k, p in enumerate(pairs) if pattern >> k & 1)
        if all((a, c) in rel for (a, b) in rel for (b2, c) in rel if b == b2):
            out.append(tuple(frozenset(a for a in points if (a, b) in rel)
                             for b in points))
    return out


def transpose_rows(rows):
    """Row a of the result is the set of b whose row holds a.

    ``rows`` is a tuple of frozensets over atoms 0..len(rows)-1: with
    predecessor rows in, successor rows come out.
    """
    return tuple(frozenset(b for b, row in enumerate(rows) if a in row)
                 for a in range(len(rows)))


def preds(rel, labels, a):
    return frozenset(b for b in labels if (b, a) in rel)


def succs(rel, labels, a):
    return frozenset(b for b in labels if (a, b) in rel)


def is_down_closed(rel, labels, s):
    return all(preds(rel, labels, a) <= s for a in s)


def opens_of(rel, labels):
    """All nonempty downward-closed subsets, as frozensets of labels."""
    labels = list(labels)
    out = set()
    for r in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            s = frozenset(combo)
            if is_down_closed(rel, labels, s):
                out.add(s)
    return out


def open_family_witnesses(opens, is_open):
    """Every union, intersection and triple failure, by the plain loops.

    ``opens`` is a list of int masks and ``is_open[s]`` the verdict on
    mask s. Returns ("union", (x, y)) and ("intersection", (x, y)) over
    the pairs with x at or before y in ``opens``, then ("triple", (x, y, z))
    over every ordered triple, each in loop order.
    """
    out = []
    for i, x in enumerate(opens):
        for y in opens[i:]:
            if not is_open[x | y]:
                out.append(("union", (x, y)))
            if x & y and not is_open[x & y]:
                out.append(("intersection", (x, y)))
    for x in opens:
        for y in opens:
            for z in opens:
                meet = x & y & z
                if not is_open[x | y | z] or (meet and not is_open[meet]):
                    out.append(("triple", (x, y, z)))
    return out


def mask_is_open(rows, s):
    """Every member i of int mask s has a row, and rows[i] lies inside s."""
    members = [i for i in range(s.bit_length()) if s >> i & 1]
    return all(i < len(rows) and rows[i] | s == s for i in members)


def open_split_exists(rows, x):
    """Does int mask x split into two disjoint nonempty open masks?

    A plain walk over the submasks of x that hold its lowest bit, so each
    unordered split is tried once.
    """
    low = x & -x
    y = x
    while y:
        y = (y - 1) & x
        if y & low and mask_is_open(rows, y) and mask_is_open(rows, x ^ y):
            return True
    return False


def minimal_of(opens):
    return {x for x in opens if not any(y < x for y in opens)}


def literal_row_union(rows, x):
    """The union of rows[i] over the members i of int mask x, bit by bit."""
    out = 0
    for i in range(x.bit_length()):
        if x >> i & 1:
            out |= rows[i]
    return out


def down_closed(rel, s):
    """Every a with (a, b) in rel for some b in s lies in s."""
    return all(a in s for (a, b) in rel if b in s)


def up_closed(rel, s):
    """Every b with (a, b) in rel for some a in s lies in s."""
    return all(b in s for (a, b) in rel if a in s)


def duality_failures_of(rel, carrier):
    """The subsets s of the carrier where "s is down-closed" and "the rest
    of the carrier is up-closed" disagree.

    ``rel`` is a set of label pairs (a, b), meaning a <= b; a may lie
    outside the carrier, where no subset reaches it.
    """
    carrier = frozenset(carrier)
    return {s for s in powerset_of(carrier)
            if down_closed(rel, s) != up_closed(rel, carrier - s)}


def open_sets_of(rel, carrier):
    """The nonempty down-closed subsets of the carrier, as frozensets.

    Unlike ``opens_of``, a pair (a, b) with a outside the carrier keeps b
    out of every open.
    """
    return [x for x in powerset_of(carrier) if x and down_closed(rel, x)]


def minimal_characterizations_of(rel, carrier, family):
    """The three plain readings of minimality on each set of a family.

    ``family`` lists label sets, normally ``open_sets_of(rel, carrier)``.
    Returns {x: (brute, cone, klass)} over it: no other set of the family
    lies inside x; every member's cone {b : (b, a) in rel} equals x; every
    member's class, the b in the carrier with (b, a) and (a, b) in rel,
    equals x.
    """
    cone = {a: frozenset(b for (b, c) in rel if c == a) for a in carrier}
    klass = {a: frozenset(b for b in carrier if (b, a) in rel and (a, b) in rel)
             for a in carrier}
    return {x: (not any(y < x for y in family),
                all(cone[a] == x for a in x),
                all(klass[a] == x for a in x))
            for x in family}


def shift_pairs(rel, x, y):
    """Literal simulation test on frozensets of labels."""
    return all(any((a, b) in rel for b in y) for a in x)


def shift_law_failures(rel, subsets):
    """The literal reflexivity and transitivity failures of the shift test.

    ``subsets`` lists label sets in the order to report them. Returns the
    x with not ``shift_pairs(rel, x, x)``, then every (x, y, z) with x
    below y and y below z but x not below z, in x, y, z loop order.
    """
    below = {(x, y): shift_pairs(rel, x, y) for x in subsets for y in subsets}
    reflexive = [x for x in subsets if not below[x, x]]
    transitive = [(x, y, z) for x in subsets for y in subsets for z in subsets
                  if below[x, y] and below[y, z] and not below[x, z]]
    return reflexive, transitive


def powerset_of(s):
    """Every subset of s, the empty one included, as frozensets."""
    s = sorted(s)
    return {frozenset(c) for r in range(len(s) + 1) for c in itertools.combinations(s, r)}


def connection_failures(rel, carrier):
    """The subsets x of the carrier whose literal shifted cone fails against P(x).

    ``rel`` is a set of label pairs (a, b), meaning a <= b; it need not be
    reflexive or transitive, and a may lie outside the carrier. The cone
    of x holds every subset y of the carrier with ``shift_pairs(rel, y, x)``.
    x is open when each a with (a, b) in rel for some b in x lies in x.
    Returns {x: (subset_dir, equality_when_open)} over the failing x.
    """
    subsets = powerset_of(carrier)
    out = {}
    for x in subsets:
        cone = {y for y in subsets if shift_pairs(rel, y, x)}
        power = powerset_of(x)
        is_open = all(a in x for (a, b) in rel if b in x)
        subset_dir = power <= cone
        equality_when_open = not is_open or cone == power
        if not (subset_dir and equality_when_open):
            out[x] = (subset_dir, equality_when_open)
    return out


def literal_rank(v):
    """0 for an atom label or the empty set, else one more than the
    largest rank among the members of frozenset v."""
    if not isinstance(v, frozenset) or not v:
        return 0
    return 1 + max(literal_rank(y) for y in v)


def ideals_of(elements, below):
    """Nonempty downward-closed subsets of a finite set, as a set of frozensets.

    ``below(z, w)`` says z lies below w; it need not be reflexive or
    transitive. A set closed under it is closed under its
    reflexive-transitive closure too, so the ideals are the nonempty
    unions of the principal ones: each element's down-closure is grown to
    a fixpoint, and the family of them is then closed under union.
    """
    elements = list(elements)
    principal = set()
    for w in elements:
        down, todo = {w}, [w]
        while todo:
            y = todo.pop()
            for z in elements:
                if z not in down and below(z, y):
                    down.add(z)
                    todo.append(z)
        principal.add(frozenset(down))
    family = set()
    for d in principal:
        family |= {d} | {f | d for f in family}
    return family


def _ideals_by_subsets(elements, below):
    """``ideals_of`` by trying every subset: slow, kept to test it."""
    elements = list(elements)
    out = set()
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            s = set(combo)
            if all(below(z, w) <= (z in s) for w in s for z in elements):
                out.add(frozenset(s))
    return out


def inclusion_rows_of(masks):
    """Row i is the int mask of the j with masks[j] inside masks[i], pair by pair."""
    return tuple(sum(1 << j for j, mj in enumerate(masks) if mj | mi == mi)
                 for mi in masks)


def same_lower_open_family(rel, labels):
    """Do the literal shift test and inclusion give the opens of rel the same ideals?

    ``rel`` is a set of label pairs (a, b), meaning a <= b; it need not be
    reflexive or transitive. The opens are its nonempty downward-closed
    label sets; both ideal families are walked out in full.
    """
    opens = list(opens_of(rel, labels))
    shift = {(x, y) for x in opens for y in opens if shift_pairs(rel, x, y)}
    return (set(ideals_of(opens, lambda z, w: (z, w) in shift))
            == set(ideals_of(opens, lambda z, w: z <= w)))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def point_extensions(rel, new):
    """The ways to add point ``new`` to the partial order ``rel`` on points
    0..new-1 (a set of pairs (a, b), meaning a <= b, reflexive pairs
    included): each (below, above) pair of a down-set and an up-set of
    rel, disjoint, with every point of ``below`` under every point of
    ``above``. Each partial order on 0..new restricts to one rel and one
    such pair, so these are all of its extensions, each once."""
    points = range(new)
    subsets = [frozenset(c) for r in range(new + 1)
               for c in itertools.combinations(points, r)]
    downs = [s for s in subsets if all(a in s for (a, b) in rel if b in s)]
    ups = [s for s in subsets if all(b in s for (a, b) in rel if a in s)]
    for below in downs:
        bounds = {u for u in points
                  if u not in below and all((d, u) in rel for d in below)}
        for above in ups:
            if above <= bounds:
                yield below, above


def posets_on(k: int) -> list[frozenset]:
    """Every labeled partial order on points 0..k-1, as a frozenset of
    pairs, grown one point at a time by :func:`point_extensions`."""
    if k == 0:
        return [frozenset()]
    new = k - 1
    return [rel | {(d, new) for d in below} | {(new, u) for u in above} | {(new, new)}
            for rel in posets_on(new) for below, above in point_extensions(rel, new)]


def count_posets(k: int) -> int:
    """Labeled partial orders on k points, by one-point extension of every
    partial order on k - 1 points (only those are built); k >= 1."""
    return sum(1 for rel in posets_on(k - 1) for _ in point_extensions(rel, k - 1))


def count_posets_by_relations(k: int) -> int:
    """Labeled partial orders on k points, by filtering all 2^(k(k-1))
    relations; a cross-check of :func:`count_posets` for k <= 4."""
    points = list(range(k))
    pairs = [(i, j) for i in points for j in points if i != j]
    count = 0
    for picks in itertools.product((False, True), repeat=len(pairs)):
        rel = {(i, i) for i in points}
        rel.update(p for p, on in zip(pairs, picks) if on)
        if any((j, i) in rel and i != j for (i, j) in rel):
            continue
        if any((i, k2) not in rel
               for (i, j) in rel for (j2, k2) in rel if j == j2):
            continue
        count += 1
    return count


def count_preorders_by_partition(n: int) -> int:
    """Labeled pre-orders on n points: sum over block counts of
    (ways to partition) x (labeled posets on the blocks)."""
    return sum(stirling2(n, k) * count_posets(k) for k in range(1, n + 1))


def bounded_members(model, tips, depth):
    """The atoms up to depth below some tip, in the model's atom order:
    every atom of ``model.atoms_up_to(depth)`` tested against each tip."""
    return [z for z in model.atoms_up_to(depth) if any(model.leq(z, t) for t in tips)]
