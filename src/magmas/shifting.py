"""Shifting a pre-order to the powerset of its carrier.

The shifted relation compares subsets by simulation: x is below y when
every member of x depends on some member of y, that is, when x lies
inside the down-closure of y. So the subsets below x are those of the
carrier part of x's closure, which is how :func:`pr_plus` lists them. On
open sets the shifted relation collapses to plain inclusion, which is
what makes the level construction in :mod:`magmas.hierarchy` work. One
sweep per model over all 2^n subsets, each family of subsets held as one
2^n-bit int, decides both halves of that claim: :func:`check_connection`
compares every subset's shifted cone with its powerset, and
:func:`shifted_opens_match` compares, on the open-set family, each open's
shifted row with its inclusion row. The sweep reads both sides of the
first comparison from ``topology.subset_families``: the powerset of x is
its entry at x, and the shifted cone of x is its entry at the carrier
part of x's closure, the same subsets :func:`pr_plus` lists. That sweep
and :func:`shifted_is_total` read the closures off ``PreOrder.closures``
and walk every subset, and :func:`pr_plus` can list all of them, so
``topology.CARRIER_CAP`` caps the carrier of all three.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preorder import AtomSet, PreOrder, format_atom_set, mask_order
from .topology import (check_carrier_cap, down_closure, enumerate_opens, inclusion_rows,
                       subset_families)


def shift_leq(p: PreOrder, x: AtomSet, y: AtomSet) -> bool:
    """x below y in the shifted relation: each a in x has some b in y above it.

    Empty x is below everything; only the empty set is below empty y.
    """
    return not x & ~down_closure(p, y)


def pr_plus(p: PreOrder, x: AtomSet) -> list[AtomSet]:
    """All subsets y of the carrier (the empty one included) below x."""
    check_carrier_cap(p)
    return powerset_masks(down_closure(p, x) & p.full_mask)


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


def _connection_sweep(p: PreOrder) -> tuple[list[tuple[AtomSet, ConnectionCheck]], bool]:
    """The failing subsets of :func:`check_connection` and the verdict of
    :func:`shifted_opens_match`, from one sweep over all 2^n subsets.

    The subsets are visited in increasing order, so every subset of x,
    and x's closure when x is open, comes before x.
    """
    check_carrier_cap(p)
    n, full = p.n, p.full_mask
    closure = p.closures
    power = subset_families(n)
    failing = []
    opens = 0  # the open subsets met so far, as one family
    opens_match = True
    # x = 0 always passes: its closure is empty, so its cone is power[0]
    for x in range(1, 1 << n):
        c, px = closure[x], power[x]
        cone = power[c & full]
        subset_dir = not px & ~cone
        is_open = not c & ~x
        equality_when_open = not is_open or px == cone
        if not (subset_dir and equality_when_open):
            failing.append((x, ConnectionCheck(subset_dir, equality_when_open)))
        if is_open:
            # x's shifted row over the opens (the opens inside its closure,
            # and x itself) against its inclusion row (the opens inside x)
            opens |= 1 << x
            if opens & power[c] | 1 << x != opens & px:
                opens_match = False
    return failing, opens_match


def check_connection(p: PreOrder) -> list[tuple[AtomSet, ConnectionCheck]]:
    """The subsets x of the carrier whose shifted cone fails against P(x).

    One sweep over all 2^n subsets in increasing order. A family of
    subsets is one 2^n-bit int whose bit y stands for subset y (Knuth's
    broadword set families, TAOCP 4A 7.1.3). Both sides are entries of
    :func:`~magmas.topology.subset_families`:

    - the shifted cone of x at the carrier part of x's closure: y is
      below x exactly when y lies inside that set, so the cone holds the
      subsets that :func:`pr_plus` lists;
    - the powerset of x at x itself.

    Returns each failing x with its record, in increasing order of x.
    """
    return _connection_sweep(p)[0]


def shifted_is_total(p: PreOrder) -> bool:
    """Totality of the shifted relation over all subset pairs, read from
    the closure table ``p.closures``."""
    check_carrier_cap(p)
    closures = p.closures
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
    closure. So the closures agree exactly when the rows do, and the rows
    are compared with no walk over the 2^k candidate sets.

    Each row is a family of subsets: the opens inside ``down_closure(p, x)``
    with x added, against the opens inside x. It comes from the sweep
    behind :func:`check_connection`, which meets every subset of x before
    x, so both families are complete when x is reached.
    """
    return _connection_sweep(p)[1]


def preorder_of_opens(p: PreOrder) -> PreOrder:
    """The open-set family of p as a pre-order under inclusion.

    Pseudo-atom labels are the rendered open sets.
    """
    opens = enumerate_opens(p)
    labels = tuple(format_atom_set(p, s) for s in opens)
    return PreOrder(labels, inclusion_rows(opens))
