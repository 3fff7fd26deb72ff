"""Levels of the magma hierarchy over a finite pre-order.

Level 1 is the family of nonempty lower-open atom sets; level n+1 is the
family of nonempty inclusion-downward-closed sets of level-n elements.
Levels are materialized with each element kept both as a bitmask over the
tier below (fast subset tests) and as a hereditarily finite value: an atom
label, or a frozenset of values. The membership machinery decides finite
levels recursively and emulates the first limit level and its successor
through the level-slice criterion, within an explicit bound.

A decided value is remembered once, with its level (0 for a non-member),
and each level's inclusion cones are read off its inclusion rows, once per
level, so a repeated query is one dictionary lookup. Answers that carry no
per-call data (outside, undecided, level n) are shared instances.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .preorder import (AtomSet, CapExceeded, PreOrder, bits, downset_masks, format_set,
                       mask_order)
from .topology import check_carrier_cap, inclusion_rows, is_lower_open, row_union

GROWTH_CAP = 20  # |M2| reaches 18 on the 3-atom antichain
MAX_NESTING = 100  # brace depth parse_value accepts; it recurses once per brace

HF = object  # an atom label (str) or a frozenset of HF values


def hf_rank(v: HF, memo: dict | None = None) -> int:
    """0 for atoms and the empty set, else one above the deepest member.

    ``memo``, when given, maps sets already ranked to their ranks; it is
    read first and filled in. :meth:`Hierarchy.rank` passes its own.
    """
    if isinstance(v, str):
        return 0
    if memo is not None:
        r = memo.get(v)
        if r is not None:
            return r
    r = 0
    for y in v:
        ry = 1 if isinstance(y, str) else hf_rank(y, memo) + 1
        if ry > r:
            r = ry
    if memo is not None:
        memo[v] = r
    return r


def hf_union(v: frozenset) -> frozenset:
    """Members of members; atoms inside v are non-sets and contribute nothing."""
    out: set = set()
    for y in v:
        if isinstance(y, frozenset):
            out |= y
    return frozenset(out)


def render_value(v: HF) -> str:
    if isinstance(v, str):
        return v
    parts = sorted(
        ((hf_rank(y), len(y) if isinstance(y, frozenset) else 0, render_value(y))
         for y in v)
    )
    return format_set(s for _, _, s in parts)


def parse_value(text: str) -> HF:
    """Parse a nested-brace literal like ``{{a},{a,b}}`` into an HF value.

    A value is a label, ``{}``, or ``{`` value (``,`` value)* ``}``. The
    tokens are braces, commas and labels; blanks (space, tab, newline)
    only separate them. A ``{`` nested inside ``MAX_NESTING`` others is
    refused.
    """
    tokens = re.finditer(r"[{},]|[^{}, \t\n]+", text)

    def take() -> tuple[str, int]:
        """The next token and its position; ``""`` at the end."""
        tok = next(tokens, None)
        return (tok[0], tok.start()) if tok else ("", len(text))

    def value(t: str, at: int, depth: int) -> HF:
        if t in ("", ",", "}"):
            raise ValueError(f"expected a value at position {at}")
        if t != "{":
            return t
        if depth == MAX_NESTING:
            raise ValueError(f"braces nested deeper than {MAX_NESTING} at position {at}")
        t, at = take()
        if t == "}":
            return frozenset()
        items = []
        while True:
            items.append(value(t, at, depth + 1))
            t, at = take()
            if t == "}":
                return frozenset(items)
            if t != ",":
                raise ValueError(f"expected ',' or '}}' at position {at}")
            t, at = take()

    v = value(*take(), 0)
    t, at = take()
    if t:
        raise ValueError(f"trailing input at position {at}: {text[at:]!r}")
    return v


class MElem(NamedTuple):
    """A hierarchy member together with the level it lives at.

    Immutable and hashable; being a tuple, it also compares equal to the
    plain pair ``(value, level)``.
    """

    value: frozenset
    level: int


@dataclass(frozen=True, eq=False, repr=False)
class HierarchyLevel:
    """One materialized level: elements as masks over the tier below."""

    index: int
    masks: tuple[AtomSet, ...]
    values: tuple[frozenset, ...]

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def sub_rows(self) -> tuple[AtomSet, ...]:
        """sub_rows[i] = mask of the elements included in element i."""
        return inclusion_rows(self.masks)

    @cached_property
    def cones(self) -> dict[frozenset, frozenset]:
        """cones[v] = the elements included in element v, read off sub_rows."""
        values = self.values
        return {v: frozenset(values[j] for j in bits(row))
                for v, row in zip(values, self.sub_rows)}

    @cached_property
    def value_set(self) -> frozenset:
        return frozenset(self.values)

    def __repr__(self) -> str:
        return f"HierarchyLevel({self.index}, size={len(self.masks)})"


@dataclass(frozen=True)
class Membership:
    """Where a value sits in the bounded hierarchy.

    kind is "level" (finite level ``level``), "limit" (member of the
    bounded limit-successor tier, spanning the slice levels listed),
    "outside" (in no finite level and not in the limit successor, decided
    with no later tier), or "undecided" (some member's level exceeds the
    bound, or the decision needs a tier past the limit successor, which
    the library does not build).
    """

    kind: str
    level: int | None = None
    slice_levels: tuple[int, ...] = ()

    @property
    def in_m(self) -> bool:
        return self.kind in ("level", "limit")

    def describe(self) -> str:
        if self.kind == "level":
            return f"level {self.level}"
        if self.kind == "limit":
            inner = ",".join(str(k) for k in self.slice_levels)
            return f"limit+1 (bounded; slices at levels {inner})"
        if self.kind == "outside":
            return "not a magma (within bound)"
        return "undecided (bound too small)"


_OUTSIDE = Membership("outside")
_UNDECIDED = Membership("undecided")


@lru_cache(maxsize=None)
def _at_level(n: int) -> Membership:
    """The shared answer "finite level n"."""
    return Membership("level", n)


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")


@dataclass(frozen=True)
class UnionReport:
    """The union of a hierarchy member and the three equivalent criteria.

    criterion_tier: the value sits two steps above some tier (finite
    level >= 2, or a limit member whose member-cones close up inside it).
    criterion_union: the literal union is a magma.
    criterion_unmixed: not bottom-level itself, and its members are all
    bottom-level or all higher.
    """

    membership: Membership
    union_value: frozenset
    union_membership: Membership
    criterion_tier: bool
    criterion_union: bool
    criterion_unmixed: bool
    decided: bool

    @property
    def consistent(self) -> bool:
        return (self.criterion_tier == self.criterion_union
                == self.criterion_unmixed)


class Hierarchy:
    """Materialized levels plus membership decisions over one pre-order.

    :meth:`build` grows each level as the nonempty down-closed sets of the
    tier below, by one :func:`downset_masks` walk: level 1 over the carrier,
    capped by ``topology.CARRIER_CAP``, later levels over the level below
    under inclusion, capped by growth_cap.
    Each decided value is memoized once with its level, or 0 when it is not
    a member of the level of its rank; inclusion cones are read off each
    level's inclusion rows, once per level (:attr:`HierarchyLevel.cones`),
    and handed out uncopied.
    """

    def __init__(self, base: PreOrder, *, growth_cap: int = GROWTH_CAP):
        self.base = base
        self.growth_cap = growth_cap
        self._levels: list[HierarchyLevel] = []
        # value -> its level, or 0 if not a member of level rank(value)
        self._member_cache: dict[frozenset, int] = {}
        self._rank_cache: dict[frozenset, int] = {}

    # --- level construction ------------------------------------------------

    def level(self, n: int) -> HierarchyLevel:
        if not 0 < n <= len(self._levels):
            self.build(n)
        return self._levels[n - 1]

    @property
    def built_depth(self) -> int:
        return len(self._levels)

    def build(self, depth: int) -> list[HierarchyLevel]:
        """Materialize levels 1..depth (extending what is already built)."""
        if depth < 1:
            raise ValueError("levels are numbered from 1")
        while len(self._levels) < depth:
            if self._levels:
                lv = self._levels[-1]
                if len(lv) > self.growth_cap:
                    raise CapExceeded(f"level {lv.index} has {len(lv)} elements, "
                                      f"over growth cap {self.growth_cap}")
                rows, below = lv.sub_rows, lv.values
            else:
                check_carrier_cap(self.base)
                rows, below = self.base.pred, self.base.labels
            masks = tuple(sorted(downset_masks(rows, len(below)), key=mask_order))
            values = tuple(frozenset(below[i] for i in bits(m)) for m in masks)
            self._levels.append(HierarchyLevel(len(self._levels) + 1, masks, values))
        return self._levels[:depth]

    # --- membership --------------------------------------------------------

    def rank(self, v: HF) -> int:
        """``hf_rank(v)``, memoized for the life of this hierarchy."""
        return hf_rank(v, self._rank_cache)

    def member_level(self, v: HF, n: int) -> bool:
        """Decide v in level n by the recursive characterization.

        Level 1 is nonemptiness plus lower-openness over the carrier;
        level n+1 requires every member to be a level-n element whose
        level-n inclusion cone stays inside v.
        """
        if n < 1:
            raise ValueError("levels are numbered from 1")
        if not isinstance(v, frozenset):
            return False
        hit = self._member_cache.get(v)
        if hit is not None:
            return hit == n
        # level-n members have rank exactly n; refuting early keeps deep
        # probes from materializing levels they cannot need
        if not v or self.rank(v) != n:
            return False
        if n == 1:
            ok = self._member1(v)
        else:
            ok = (all(self.member_level(y, n - 1) for y in v)
                  and all(self.level(n - 1).cones[y] <= v for y in v))
        self._member_cache[v] = n if ok else 0
        return ok

    def _member1(self, v: frozenset) -> bool:
        try:
            return is_lower_open(self.base, self.base.atom_set(v))
        except KeyError:  # a member that is not an atom label
            return False

    def finite_level_of(self, v: HF, bound: int) -> int | None:
        """v's finite level if at most bound, else None; a level-n member has rank n."""
        _check_bound(bound)
        n = self._member_cache.get(v)
        if n is None:
            n = self.rank(v)
            if 1 <= n <= bound and not self.member_level(v, n):
                return None
        return n if 1 <= n <= bound else None

    def membership(self, v: HF, bound: int) -> Membership:
        """Bounded decision: finite level, limit-successor member, or neither.

        The limit route needs every member to sit at a decided finite
        level. A member that is an atom or "outside" itself puts v
        outside, whatever its other members are. Otherwise a member whose
        rank exceeds the bound leaves the query undecided, and so does a
        member with no finite level that is not "outside": a limit member
        puts v outside M_{omega+1} but maybe inside M_{omega+2}, and the
        library builds no tier past the limit successor.
        """
        _check_bound(bound)
        if not isinstance(v, frozenset) or not v:
            return _OUTSIDE
        n = self.finite_level_of(v, bound)
        if n is not None:
            return _at_level(n)
        slices: dict[int, list] = {}  # level -> the members at that level
        # an outside member decides wherever it sits, so every member is
        # scanned; the rank test keeps the recursion below the bound
        undecided = False
        for y in v:
            if not isinstance(y, frozenset):
                return _OUTSIDE
            ly = self.finite_level_of(y, bound)
            if ly is not None:
                slices.setdefault(ly, []).append(y)
            elif self.rank(y) > bound or self.membership(y, bound).kind != "outside":
                undecided = True
            else:
                return _OUTSIDE
        if undecided:
            return _UNDECIDED
        present = sorted(slices)
        if len(present) < 2:
            # one slice: finite membership was already refuted up to the
            # bound; past it we refuse to guess
            return _OUTSIDE if present[0] + 1 <= bound else _UNDECIDED
        for k in present:
            if not self.member_level(frozenset(slices[k]), k + 1):
                return _OUTSIDE
        return Membership("limit", slice_levels=tuple(present))

    # --- powerset and union -------------------------------------------------

    def power_element(self, x: MElem) -> MElem:
        """The magma of submagmas of x, one level up.

        For a level-n member this is its inclusion cone within level n.
        """
        value, level = x
        if not self.member_level(value, level):
            raise ValueError(f"value is not a level-{level} member")
        return MElem(self.level(level).cones[value], level + 1)

    def union_report(self, v: HF, bound: int) -> UnionReport:
        mem = self.membership(v, bound)
        union = hf_union(v) if isinstance(v, frozenset) else frozenset()
        umem = self.membership(union, bound)
        decided = mem.in_m and umem.kind != "undecided"
        if mem.kind == "level":
            # a level-n member's members all sit at level n - 1
            tier = unmixed = mem.level >= 2
        elif mem.kind == "limit":
            # two steps above the limit: members clear the bottom level and
            # their inclusion cones close up inside v; each member of a
            # limit member sits at the level of its rank
            tier = all(self.rank(y) >= 2 and self.level(self.rank(y)).cones[y] <= v
                       for y in v)
            unmixed = 1 not in mem.slice_levels
        else:
            tier = unmixed = False
        return UnionReport(mem, union, umem, tier, umem.in_m, unmixed, decided)

    # --- reformulated magma principles ---------------------------------------

    def classify(self, v: HF, bound: int) -> str:
        """Trichotomy: every value is an atom, a magma, or a plain set."""
        _check_bound(bound)
        if isinstance(v, str):
            return "atom"
        if not isinstance(v, frozenset):
            raise TypeError(f"not a hereditarily finite value: {v!r}")
        mem = self.membership(v, bound)
        if mem.kind == "undecided":
            return "undecided"
        return "magma" if mem.in_m else "set"


def find_open_partition(rows: tuple[AtomSet, ...], x: AtomSet
                        ) -> tuple[AtomSet, AtomSet] | None:
    """Split x into two disjoint nonempty sets open w.r.t. rows, smaller mask first.

    rows[i] is the predecessor mask of element i in the ambient space. Two
    disjoint opens covering x make x open, and no row of one block reaches
    into the other. So x splits exactly when x is open (no bit outside the
    rows) and the rows, read as undirected edges, leave x disconnected: the
    component of x's lowest element and the rest are then the two opens.
    """
    if x >> len(rows) or row_union(rows, x) & ~x:
        return None
    comp, last = x & -x, 0  # the component of x's lowest element
    while comp != last:
        last = comp
        for j in bits(x):
            if (rows[j] | 1 << j) & comp:
                comp |= rows[j] | 1 << j
    rest = x & ~comp
    return (min(comp, rest), max(comp, rest)) if rest else None


def split_cones(rows: tuple[AtomSet, ...]) -> list[int]:
    """The elements i whose basic open ``rows[i]`` splits into two
    disjoint nonempty opens (:func:`find_open_partition`).

    Read on a carrier's ``pred`` or on a level's ``sub_rows``. Empty on
    every model: a cone's tip must fall in one block, dragging the whole
    cone with it.
    """
    return [i for i, cone in enumerate(rows)
            if find_open_partition(rows, cone) is not None]
