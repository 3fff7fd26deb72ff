"""Shifting a pre-order to the powerset of its carrier.

The shifted relation compares subsets by simulation: x is below y when
every member of x depends on some member of y. On open sets the shifted
relation collapses to plain inclusion, which is what makes the level
construction in :mod:`magmas.hierarchy` work. :func:`shifted_opens_match`
decides that collapse on the open-set family by comparing two k x k
relations, with no enumeration. ``SHIFT_CAP`` caps the carrier of
:func:`pr_plus` and :func:`shifted_is_total`, which walk every subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preorder import AtomSet, CapExceeded, PreOrder, format_atom_set, mask_order
from .topology import down_closure, inclusion_rows, is_lower_open, open_masks

SHIFT_CAP = 12


def shift_leq(p: PreOrder, x: AtomSet, y: AtomSet) -> bool:
    """x below y in the shifted relation: each a in x has some b in y above it.

    Empty x is below everything; only the empty set is below empty y.
    """
    return not x & ~down_closure(p, y)


def pr_plus(p: PreOrder, x: AtomSet) -> list[AtomSet]:
    """All subsets y of the carrier (the empty one included) below x."""
    if p.n > SHIFT_CAP:
        raise CapExceeded(
            f"carrier size {p.n} exceeds shift materialization cap {SHIFT_CAP}")
    # shift_leq(p, y, x) for every y, with x's closure computed once
    closure = down_closure(p, x)
    out = [y for y in range(1 << p.n) if not y & ~closure]
    out.sort(key=mask_order)
    return out


def powerset_masks(x: AtomSet) -> list[AtomSet]:
    """Every submask of x, the empty one included, sorted like pr_plus."""
    subs = []
    s = x
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & x
    subs.sort(key=mask_order)
    return subs


@dataclass(frozen=True)
class ConnectionCheck:
    """Powerset-versus-shifted-cone comparison for one subset."""

    subset_dir: bool            # every subset of x is below x
    equality_when_open: bool    # shifted cone equals the powerset, if x is open

    @property
    def ok(self) -> bool:
        return self.subset_dir and self.equality_when_open


def check_connection(p: PreOrder, x: AtomSet) -> ConnectionCheck:
    cone = pr_plus(p, x)
    power = powerset_masks(x)
    cone_set = set(cone)
    subset_dir = all(y in cone_set for y in power)
    return ConnectionCheck(subset_dir, not is_lower_open(p, x) or cone == power)


def shifted_is_total(p: PreOrder) -> bool:
    """Totality of the shifted relation over all subset pairs."""
    if p.n > SHIFT_CAP:
        raise CapExceeded(
            f"carrier size {p.n} exceeds shift materialization cap {SHIFT_CAP}")
    closures = [down_closure(p, s) for s in range(1 << p.n)]
    for x in range(1 << p.n):
        for y in range(x):
            if x & ~closures[y] and y & ~closures[x]:
                return False
    return True


def shifted_opens_match(p: PreOrder) -> bool:
    """Do the shifted relation and inclusion induce the same topology on M1?

    The paper's claim is that the shifted relation restricted to the open
    sets is inclusion. Two relations on one finite set have the same
    lower-open family exactly when their reflexive-transitive closures
    agree (Alexandrov): the least lower-open set holding an element is its
    cone in the closure. Inclusion is reflexive and transitive, so it is
    its own closure. The shifted rows, with each open's own bit added, are
    closed too wherever they lie inside inclusion: xj is below xi when xj
    lies inside the one set ``down_closure(p, xi)``, so in a chain of such
    steps the first open lies inside the second-to-last, hence inside the
    set the last step tests. A step outside inclusion survives any
    closure. So the closures agree exactly when the rows do, and the k
    rows are compared with no walk over the 2^k candidate sets.
    """
    opens = open_masks(p)
    shift_rows = []
    for i, xi in enumerate(opens):
        # shift_leq(p, xj, xi) for every xj, with xi's closure computed once
        closure = down_closure(p, xi)
        row = 1 << i
        for j, xj in enumerate(opens):
            if not xj & ~closure:
                row |= 1 << j
        shift_rows.append(row)
    return tuple(shift_rows) == inclusion_rows(opens)


def preorder_of_opens(p: PreOrder) -> PreOrder:
    """The open-set family of p as a pre-order under inclusion.

    Pseudo-atom labels are the rendered open sets.
    """
    opens = open_masks(p)
    labels = tuple(format_atom_set(p, s) for s in opens)
    return PreOrder(labels, inclusion_rows(opens))
