"""Independent reference computations for the benchmark's inputs and checks.

Nothing here calls `magmas`: relations are sets of label pairs and
hierarchy values are frozensets, so agreement with the library means
something. These functions build the hierarchy-queries inputs (bases and
query values) and decide the finite-level answers the checks compare with.
"""

from __future__ import annotations

import itertools

LABELED_PREORDER_COUNTS = (1, 4, 29, 355, 6942)  # OEIS A000798, n = 1..5
ANTICHAIN3_LEVEL_SIZES = (7, 18, 81)


def preorders_up_to(max_n: int) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Every labeled pre-order on 1..max_n atoms, as (labels, predecessor rows).

    Relations are filtered as pair sets (reflexive by construction,
    transitivity tested pair by pair); rows[b] has bit a set when a <= b.
    """
    out = []
    for n in range(1, max_n + 1):
        labels = tuple("abcdefgh"[:n])
        off = [(a, b) for a in range(n) for b in range(n) if a != b]
        for picks in itertools.product((False, True), repeat=len(off)):
            rel = {(a, a) for a in range(n)}
            rel.update(pair for pair, on in zip(off, picks) if on)
            if any((a, c) not in rel for (a, b) in rel for (b2, c) in rel if b == b2):
                continue
            rows = tuple(sum(1 << a for a in range(n) if (a, b) in rel)
                         for b in range(n))
            out.append((labels, rows))
    return out


def _ideals(elems: list[frozenset]) -> list[frozenset]:
    """Nonempty subfamilies of `elems` closed downward under inclusion.

    Branches element by element in a linear extension (by size), so each
    leaf of the recursion is a distinct ideal: the work is proportional
    to the output, not to 2^len(elems).
    """
    order = sorted(elems, key=len)
    below = {y: [z for z in order if z < y] for y in order}
    out: list[frozenset] = []

    def grow(i: int, chosen: frozenset) -> None:
        if i == len(order):
            if chosen:
                out.append(chosen)
            return
        y = order[i]
        grow(i + 1, chosen)
        if all(z in chosen for z in below[y]):
            grow(i + 1, chosen | {y})

    grow(0, frozenset())
    return out


def levels(labels: tuple[str, ...], rows: tuple[int, ...], depth: int
           ) -> list[frozenset]:
    """Reference levels 1..depth as sets of hereditarily finite values."""
    n = len(labels)
    level1 = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            mask = sum(1 << i for i in combo)
            if all(not rows[i] & ~mask for i in combo):
                level1.append(frozenset(labels[i] for i in combo))
    out = [frozenset(level1)]
    while len(out) < depth:
        out.append(frozenset(_ideals(list(out[-1]))))
    return out


def in_next_level(v, top: frozenset) -> bool:
    """Is v a member of the level one above `top` (nonempty ideal of it)?"""
    if not isinstance(v, frozenset) or not v or not v <= top:
        return False
    return all(z in v for y in v for z in top if z <= y)


def finite_level(v, refs: list[frozenset]) -> int | None:
    """The finite level of v among refs[0..] plus one level past the last."""
    for k, lv in enumerate(refs, start=1):
        if v in lv:
            return k
    if in_next_level(v, refs[-1]):
        return len(refs) + 1
    return None


def direct_limit(v, refs: list[frozenset]) -> bool | None:
    """Literal limit-successor reading: nonempty, every member at a finite
    level, and downward closed inside the union of the levels.

    None when a member sits one level past the materialized ones, whose
    level cannot be listed here to test closure against.
    """
    if not isinstance(v, frozenset) or not v:
        return False
    for w in v:
        k = finite_level(w, refs)
        if k is None:
            return False
        if k > len(refs):
            return None
        for lv in refs:
            if any(z <= w and z not in v for z in lv):
                return False
    return True


def render(v) -> str:
    """Canonical text of a value; independent of set iteration order."""
    if isinstance(v, str):
        return v
    return "{" + ",".join(sorted(render(y) for y in v)) + "}"


def sorted_values(values) -> list:
    """Values in a fixed order, so seeded draws do not depend on hashing."""
    return sorted(values, key=lambda v: (len(v) if isinstance(v, frozenset) else 0,
                                         render(v)))


def hf_union(v) -> frozenset:
    """Members of members; atoms contribute nothing."""
    out: set = set()
    for y in v:
        if isinstance(y, frozenset):
            out |= y
    return frozenset(out)
