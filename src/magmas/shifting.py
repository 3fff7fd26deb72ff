"""Shifting a pre-order to the powerset of its carrier.

The shifted relation compares subsets by simulation: x is below y when
every member of x depends on some member of y. On open sets the shifted
relation collapses to plain inclusion, which is what makes the level
construction in :mod:`magmas.hierarchy` work. :func:`shifted_opens_match`
decides that collapse on the open-set family by comparing two k x k
relations, with no enumeration. :func:`check_connection` compares every
subset's shifted cone with its powerset in one sweep per model, each
family of subsets held as one 2^n-bit int. ``SHIFT_CAP`` caps the carrier
of :func:`pr_plus`, :func:`check_connection` and :func:`shifted_is_total`,
which walk every subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preorder import AtomSet, CapExceeded, PreOrder, format_atom_set, mask_order
from .topology import down_closure, inclusion_rows, open_masks

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


def check_connection(p: PreOrder) -> list[tuple[AtomSet, ConnectionCheck]]:
    """The subsets x of the carrier whose shifted cone fails against P(x).

    One sweep over all 2^n subsets in increasing order. A family of
    subsets is one 2^n-bit int whose bit y stands for subset y (Knuth's
    broadword set families, TAOCP 4A 7.1.3). The two sides are built
    apart:

    - the cone of x from the definition of the shifted relation: y is
      below x exactly when y avoids every atom outside x's closure, so
      the cone is the AND of the "avoids b" families over those atoms;
      x depends on its closure alone, so each distinct closure builds
      its cone once (on a pre-order, one per open set and the empty one);
    - the powerset of x from x minus its lowest bit: each old member
      stays, and each gains that bit.

    Returns each failing x with its record, in increasing order of x.
    """
    if p.n > SHIFT_CAP:
        raise CapExceeded(
            f"carrier size {p.n} exceeds shift materialization cap {SHIFT_CAP}")
    n, pred = p.n, p.pred
    every = (1 << (1 << n)) - 1
    # avoid[b]: the subsets without atom b, runs of 2^b ones every 2^(b+1) bits
    avoid = [every // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1) for b in range(n)]
    closure = [0] * (1 << n)
    power = [1] * (1 << n)  # power[0] holds the empty set alone
    cones: dict[AtomSet, int] = {}
    failing = []
    # x = 0 always passes: its closure is empty, so its cone is power[0]
    for x in range(1, 1 << n):
        low = x & -x
        c = closure[x] = closure[x ^ low] | pred[low.bit_length() - 1]
        f = power[x ^ low]
        px = power[x] = f | f << low
        cone = cones.get(c)
        if cone is None:
            cone = every
            for b in range(n):
                if not c >> b & 1:
                    cone &= avoid[b]
            cones[c] = cone
        subset_dir = not px & ~cone
        equality_when_open = bool(c & ~x) or px == cone
        if not (subset_dir and equality_when_open):
            failing.append((x, ConnectionCheck(subset_dir, equality_when_open)))
    return failing


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
