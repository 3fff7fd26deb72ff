"""Lower-open sets of a finite pre-order.

A set is lower open when it contains the predecessor cone of each of its
members. The nonempty lower-open sets are the level-1 magmas; this module
enumerates them and finds the minimal ones.

A minimal open is a predecessor cone equal to the cone of each of its
members, so :func:`minimal_opens` reads them with :func:`constant_rows`,
one pass over the atoms, and needs no enumeration.

:func:`enumerate_opens` lists them as bare bitmasks, the one
representation the library uses for a set of atoms, reading them off the
pre-order's own closure table ``PreOrder.closures`` (x is open when
``t[x]`` stays inside x) in the mask order kept once per carrier size,
faster than sorting the output of a walk. :func:`closure_table` and
:func:`downset_masks`, the subset walk that grows every hierarchy level
and every one-point extension, live in :mod:`.preorder` and are
re-exported here.

The predicates read the relation's rows directly: ``pred`` for lower
openness and down-closure, the stored transpose ``succ`` for upper
openness. One set at a time they share one loop over its members,
:func:`row_union`. A check that asks about every subset of the carrier
reads a closure table instead, which holds ``row_union`` of every mask
at one OR each, and :func:`subset_families`, which holds the subsets of
every mask as one 2^n-bit int (Knuth's broadword set families, TAOCP 4A
7.1.3); it depends on n alone, so it is built once per size.
:func:`duality_failures` decides complement duality over the whole
carrier from two such tables, and :func:`inclusion_rows` orders a family
by inclusion one column (bit) at a time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .preorder import (AtomSet, CapExceeded, PreOrder, closure_table, downset_masks,
                       mask_order)

CARRIER_CAP = 12  # carrier size past which a walk over all 2^n subsets stops


def check_carrier_cap(p: PreOrder) -> None:
    """Raise CapExceeded if p's carrier is over ``CARRIER_CAP``."""
    if p.n > CARRIER_CAP:
        raise CapExceeded(f"carrier size {p.n} exceeds subset-walk cap {CARRIER_CAP}")


def row_union(rows: Sequence[AtomSet], s: AtomSet) -> AtomSet:
    """The union of ``rows[i]`` over the members i of s.

    s is closed under the relation the rows describe exactly when this
    union stays inside s.
    """
    out = 0
    while s:
        low = s & -s
        out |= rows[low.bit_length() - 1]
        s ^= low
    return out


def is_lower_open(p: PreOrder, s: AtomSet) -> bool:
    """Downward closed: every member brings its whole predecessor cone.

    The empty set counts as open here; the magmas of level 1 are the
    nonempty opens that :func:`enumerate_opens` lists.
    """
    return not row_union(p.pred, s) & ~s


@lru_cache(maxsize=None)
def subset_families(n: int) -> tuple[int, ...]:
    """Entry x is the family of subsets of x, as an int whose bit y is set
    exactly when y is a subset of x.

    Built atom by atom, as :func:`closure_table` is: the subsets of
    x + 2^b are those of x and each of them with atom b added, which is
    the same family shifted up by 2^b bits. It depends on n alone, so it
    is built once per carrier size and shared.
    """
    t = [1]  # the empty set holds only itself
    for b in range(n):
        t += [f | f << (1 << b) for f in t]
    return tuple(t)


@lru_cache(maxsize=None)
def _ordered_masks(n: int) -> tuple[AtomSet, ...]:
    """The nonempty masks below 2^n in ``mask_order``, sorted once per n."""
    return tuple(sorted(range(1, 1 << n), key=mask_order))


def duality_failures(p: PreOrder) -> list[AtomSet]:
    """The masks s of the carrier where "s is lower open" and "the
    complement of s is upper open" disagree, in increasing order.

    Lower openness reads the pre-order's own table ``p.closures``, upper
    openness the table of the transpose ``succ``. Raises CapExceeded over
    ``CARRIER_CAP``.
    """
    check_carrier_cap(p)
    n, full = p.n, p.full_mask
    down, up = p.closures, closure_table(p.succ, n)
    return [s for s in range(1 << n)
            if (not down[s] & ~s) != (not up[full ^ s] & ~(full ^ s))]


def down_closure(p: PreOrder, s: AtomSet) -> AtomSet:
    """Union of the predecessor cones of s: the least open superset."""
    return row_union(p.pred, s)


def inclusion_rows(masks: Sequence[AtomSet]) -> tuple[AtomSet, ...]:
    """Row i is the mask of the j with masks[j] a subset of masks[i].

    These are the predecessor rows of the family ordered by inclusion.
    Read by columns: ``cols[b]`` is the mask of the j whose masks[j] holds
    bit b, so masks[j] lies inside masks[i] exactly when j is in no
    column of a bit outside masks[i]. That is one step per family member
    and bit, not one per pair of members.
    """
    every = (1 << len(masks)) - 1
    union = 0
    for m in masks:
        union |= m
    cols = [0] * union.bit_length()
    bit = 1  # 1 << j for masks[j]
    for m in masks:
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
        bit <<= 1
    rows = []
    for mi in masks:
        outside = 0
        m = union & ~mi  # the bits outside masks[i]
        while m:
            low = m & -m
            outside |= cols[low.bit_length() - 1]
            m ^= low
        rows.append(every & ~outside)
    return tuple(rows)


def enumerate_opens(p: PreOrder) -> list[AtomSet]:
    """Masks of the nonempty lower-open subsets, sorted by size then bit pattern.

    Read from the pre-order's closure table ``p.closures``: x is open
    exactly when ``t[x]`` stays inside x, bits outside the carrier
    included. The masks are visited in the order :func:`_ordered_masks`
    keeps per n.
    """
    check_carrier_cap(p)
    t = p.closures
    return [x for x in _ordered_masks(p.n) if not t[x] & ~x]


def is_minimal_open(p: PreOrder, s: AtomSet) -> bool:
    """No open set sits properly inside s.

    Decided pointwise: s is minimal exactly when it equals the
    predecessor cone of each of its members.
    """
    if not s:
        return False
    pred = p.pred
    m = s
    while m:
        low = m & -m
        if pred[low.bit_length() - 1] != s:
            return False
        m ^= low
    return True


def constant_rows(rows: Sequence[AtomSet]) -> set[AtomSet]:
    """The nonempty rows that equal the row of each of their members: the
    sets x with ``all(rows[a] == x for a in bits(x))``.

    ``holders[r]`` is the set of atoms whose row is r, so r qualifies when
    it lies inside ``holders[r]``; that also keeps it inside the carrier.
    """
    holders: dict[AtomSet, AtomSet] = {}
    for a, r in enumerate(rows):
        holders[r] = holders.get(r, 0) | 1 << a
    return {r for r, h in holders.items() if r and not r & ~h}


def minimal_opens(p: PreOrder) -> list[AtomSet]:
    """Masks of the minimal elements of the open-set family; never empty finitely.

    The :func:`constant_rows` of ``pred``, found with no enumeration and
    sorted by size then bit pattern, as :func:`enumerate_opens` sorts.
    """
    return sorted(constant_rows(p.pred), key=mask_order)

