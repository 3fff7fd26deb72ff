"""Finite pre-orders over named atoms.

Atoms are the indices 0..n-1 of a label list; subsets of the carrier are
plain ints used as bitmasks (bit i set = atom i present). A relation is
stored as one predecessor mask per atom: bit a of ``pred[b]`` means
a <= b ("a depends on b"). Its transpose, one successor mask per atom, is
computed once per ``PreOrder`` and kept as ``succ``, its closure table on
first read as ``closures``. ``build`` takes arbitrary edges and forms the
reflexive-transitive closure, so a built ``PreOrder`` always satisfies
reflexivity and transitivity.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

AtomSet = int

ENUM_HARD_CAP = 6

_LETTERS = string.ascii_lowercase


class CapExceeded(RuntimeError):
    """A size-capped operation was asked to exceed its cap."""


def bits(mask: AtomSet) -> Iterator[int]:
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_order(mask: AtomSet) -> tuple[int, int]:
    """Sort key of the canonical mask order: size, then bit pattern."""
    return mask.bit_count(), mask


@dataclass(frozen=True, slots=True)
class PreOrder:
    """A carrier of labeled atoms plus a predecessor-mask relation.

    Construct through :func:`build` (which closes the relation) or
    :meth:`from_pred_rows` (which validates an already-closed one);
    the raw constructor performs no checks. ``n`` and the successor rows
    ``succ`` are derived from the two fields at construction, the table of
    :attr:`closures` on first read; none of them takes part in equality,
    hashing or ``repr``.
    """

    labels: tuple[str, ...]
    pred: tuple[AtomSet, ...]
    n: int = field(init=False, repr=False, compare=False)
    # succ[a] is {b : a <= b}, the transpose of pred; bits of pred outside
    # the carrier are left out
    succ: tuple[AtomSet, ...] = field(init=False, repr=False, compare=False)
    _closures: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.labels)
        succ = [0] * n
        for b, row in enumerate(self.pred):
            bit = 1 << b
            m = row & ((1 << n) - 1)
            while m:
                low = m & -m
                succ[low.bit_length() - 1] |= bit
                m ^= low
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "succ", tuple(succ))

    @property
    def full_mask(self) -> AtomSet:
        return (1 << self.n) - 1

    @property
    def closures(self) -> tuple[AtomSet, ...]:
        """``closure_table(pred, n)``, built on first read and kept; uncapped."""
        if self._closures is None:
            object.__setattr__(self, "_closures", closure_table(self.pred, self.n))
        return self._closures

    def _check_atom(self, a: int) -> None:
        if not 0 <= a < self.n:
            raise IndexError(f"atom {a} outside carrier of size {self.n}")

    # the accessors test the range with one chained comparison and call
    # _check_atom, which raises, only when it fails

    def leq(self, a: int, b: int) -> bool:
        """a <= b, i.e. a depends on b."""
        if not 0 <= a < self.n > b >= 0:
            self._check_atom(a)
            self._check_atom(b)
        return bool(self.pred[b] >> a & 1)

    def strict(self, a: int, b: int) -> bool:
        """a < b: a <= b but not b <= a."""
        if not 0 <= a < self.n > b >= 0:
            self._check_atom(a)
            self._check_atom(b)
        return bool(self.pred[b] >> a & 1) and not self.pred[a] >> b & 1

    def predecessors(self, a: int) -> AtomSet:
        """The principal cone {b : b <= a}; always contains a."""
        if not 0 <= a < self.n:
            self._check_atom(a)
        return self.pred[a]

    def equiv_class(self, a: int) -> AtomSet:
        """Atoms mutually dependent with a."""
        if not 0 <= a < self.n:
            self._check_atom(a)
        return self.pred[a] & self.succ[a]

    def satisfies_star(self) -> tuple[bool, int | None]:
        """Does every atom have a strict predecessor?

        Returns (True, None) or (False, witness) with the first atom in
        carrier order that has none. Equivalent to the lower topology
        having no minimal open set; false on every finite carrier. The
        strict predecessors of a are its cone less its successors, read
        inside the carrier, so a row bit outside it is never a witness.
        """
        full = self.full_mask
        for a, up in enumerate(self.succ):
            if not self.pred[a] & ~up & full:
                return False, a
        return True, None

    def is_total(self) -> bool:
        return all(
            self.pred[b] >> a & 1 or self.pred[a] >> b & 1
            for a in range(self.n)
            for b in range(a + 1, self.n)
        )

    def atom(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown atom label {label!r}") from None

    def atom_set(self, labels: Iterable[str]) -> AtomSet:
        out = 0
        for lab in labels:
            out |= 1 << self.atom(lab)
        return out

    def set_labels(self, mask: AtomSet) -> list[str]:
        return [self.labels[i] for i in bits(mask)]

    @classmethod
    def from_pred_rows(cls, labels: Iterable[str], rows: Iterable[AtomSet]) -> PreOrder:
        """Wrap already-closed predecessor rows, validating D1/D2."""
        p = cls(tuple(labels), tuple(rows))
        if not p.n:
            raise ValueError("carrier must contain at least one atom")
        if len(set(p.labels)) != p.n:
            raise ValueError(f"duplicate atom label in {p.labels!r}")
        if len(p.pred) != p.n:
            raise ValueError("one predecessor row per atom required")
        for b, row in enumerate(p.pred):
            if row & ~p.full_mask:
                raise ValueError(f"row {b} has bits outside the carrier")
            if not row >> b & 1:
                raise ValueError(f"relation not reflexive at atom {b}")
            for a in bits(row):
                if p.pred[a] & ~row:
                    raise ValueError(f"relation not transitive through atom {a}")
        return p

    def __repr__(self) -> str:
        edges = [f"{a}<={b}" for a, b in _edge_labels(self)]
        return f"PreOrder({' '.join(self.labels)}; {', '.join(edges)})"


def _edge_labels(p: PreOrder) -> Iterator[tuple[str, str]]:
    """Label pairs (a, b) of the edges a <= b off the diagonal, by b. A row
    bit outside the carrier, as a fault-injected model may hold, is shown
    as ``#`` and its bit number."""
    for b in range(p.n):
        for a in bits(p.pred[b] & ~(1 << b)):
            yield (p.labels[a] if a < p.n else f"#{a}"), p.labels[b]


def _close(rows: list[AtomSet]) -> tuple[AtomSet, ...]:
    # Warshall on predecessor masks: after step k, every row holding k also
    # holds pred[k], so rows[b] contains each a reaching b through atoms <= k.
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for b, row in enumerate(rows):
            if row & bit:
                rows[b] = row | row_k
    return tuple(rows)


def closure_table(rows: Sequence[AtomSet], n: int) -> tuple[AtomSet, ...]:
    """Entry x is the union of the rows of x's members, over every mask x
    below 2^n: mask x + 2^b is mask x joined with row b, one OR each. Row
    bits outside the carrier stay in, so ``not t[x] & ~x`` is
    ``topology.is_lower_open`` on any rows, closed or raw."""
    t = [0]
    for b in range(n):
        row = rows[b]
        t += [c | row for c in t]
    return tuple(t)


def downset_masks(rows: tuple[AtomSet, ...], n: int) -> Iterator[AtomSet]:
    """All nonempty downward-closed masks of an n-element pre-order, ascending.

    ``rows[j]`` is the predecessor mask of element j, closed or raw; a row
    bit past n keeps its element out. Plain subset walk; callers cap n.
    """
    for s in range(1, 1 << n):
        m = s
        while m:
            low = m & -m
            if rows[low.bit_length() - 1] & ~s:
                break
            m ^= low
        else:
            yield s


def build(atoms: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> PreOrder:
    """Make the pre-order generated by ``edges`` (pairs (a, b) meaning a <= b).

    The result is the reflexive-transitive closure of the input; building
    again from an already-closed edge list returns the same relation.
    """
    labels = tuple(atoms)
    if not labels:
        raise ValueError("carrier must contain at least one atom")
    index: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise ValueError(f"duplicate atom label {lab!r}")
        index[lab] = i
    n = len(labels)
    rows = [1 << b for b in range(n)]
    for a_lab, b_lab in edges:
        if a_lab not in index:
            raise ValueError(f"edge endpoint {a_lab!r} is not a declared atom")
        if b_lab not in index:
            raise ValueError(f"edge endpoint {b_lab!r} is not a declared atom")
        rows[index[b_lab]] |= 1 << index[a_lab]
    return PreOrder(labels, _close(rows))


def default_labels(n: int) -> tuple[str, ...]:
    if n <= len(_LETTERS):
        return tuple(_LETTERS[:n])
    return tuple(f"a{i}" for i in range(n))


def _extensions(n: int) -> Iterator[tuple[AtomSet, ...]]:
    """Closed predecessor rows of every pre-order on n atoms, in no fixed order.

    Each pre-order on atoms 0..n-2 grows by a new atom x = n-1 in every
    consistent way: x takes a down-closed set D below it and an up-closed
    set U above it, with D below every atom of U. Old rows in U gain x, and
    x's row is D | {x}. Restricting to 0..n-2 inverts this, so each
    pre-order on n atoms appears exactly once. A generator, holding one
    model per recursion level: :func:`enumerate_preorders` packs each
    model it yields into one int, so the stream keeps one int per model.
    """
    if n == 1:
        yield (1,)
        return
    x = 1 << (n - 1)
    for rows in _extensions(n - 1):
        downs = [0, *downset_masks(rows, n - 1)]
        for rest in downs:
            # The up-closed sets are the complements of the down-closed ones.
            up = (x - 1) ^ rest
            below = x - 1
            for u in bits(up):
                below &= rows[u]
            grown = tuple(row | x if up >> b & 1 else row for b, row in enumerate(rows))
            for d in downs:
                if not d & ~below:
                    yield grown + (d | x,)


def _pattern_index(rows: tuple[AtomSet, ...]) -> int:
    """Position of a relation among the 2^(n(n-1)) off-diagonal edge patterns.

    Bit b*(n-1) + j is the j-th off-diagonal bit of row b, so the last
    row is the most significant.
    """
    n = len(rows)
    idx = 0
    for b in reversed(range(n)):
        row = rows[b]
        idx = idx << (n - 1) | row & ((1 << b) - 1) | row >> (b + 1) << b
    return idx


def _pattern_rows(idx: int, n: int) -> tuple[AtomSet, ...]:
    """The rows of edge pattern ``idx`` on n atoms, diagonal bits restored;
    the inverse of :func:`_pattern_index`."""
    chunk = (1 << (n - 1)) - 1
    rows = []
    for b in range(n):
        low, row = (1 << b) - 1, idx >> b * (n - 1) & chunk
        rows.append(row & low | (row & ~low) << 1 | 1 << b)
    return tuple(rows)


def enumerate_preorders(n: int, *, bound: int = ENUM_HARD_CAP) -> Iterator[PreOrder]:
    """Every labeled pre-order on n atoms, exactly once, in a fixed order.

    Builds the pre-orders by one-point extension, so the work grows with
    the number of pre-orders rather than with the 2^(n(n-1)) off-diagonal
    edge patterns. They come out in the order of their edge pattern read
    as a binary number (bit b*(n-1) + j: row b's j-th off-diagonal atom),
    so the stream index of a model is stable across runs and versions.
    The sort holds one packed pattern int per model, not its rows; each
    model's rows are decoded from its int as it is yielded.
    """
    if n > min(bound, ENUM_HARD_CAP):
        raise CapExceeded(
            f"carrier size {n} exceeds enumeration bound {min(bound, ENUM_HARD_CAP)}"
        )
    if n < 1:
        raise ValueError("carrier size must be positive")
    labels = default_labels(n)
    for idx in sorted(map(_pattern_index, _extensions(n))):
        yield PreOrder(labels, _pattern_rows(idx, n))


def count_preorders(n: int, *, bound: int = ENUM_HARD_CAP) -> int:
    return sum(1 for _ in enumerate_preorders(n, bound=bound))


# --- text format -----------------------------------------------------------
#
# One pre-order per file:
#
#     # comment
#     atoms: a b c
#     a <= b
#     b <= c
#
# Blank lines and '#' comments are ignored; labels are arbitrary
# non-whitespace tokens.


def parse_preorder(text: str) -> PreOrder:
    atoms: list[str] | None = None
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("atoms:"):
            if atoms is not None:
                raise ValueError(f"line {lineno}: repeated atoms: line")
            atoms = line[len("atoms:"):].split()
            continue
        if "<=" in line:
            left, _, right = line.partition("<=")
            a, b = left.split(), right.split()
            if len(a) != 1 or len(b) != 1:
                raise ValueError(f"line {lineno}: expected 'a <= b', got {raw!r}")
            edges.append((a[0], b[0]))
            continue
        raise ValueError(f"line {lineno}: unrecognized line {raw!r}")
    if atoms is None:
        raise ValueError("missing atoms: line")
    return build(atoms, edges)


def format_preorder(p: PreOrder) -> str:
    """Render in the text input format (full closed edge list, no diagonal)."""
    lines = ["atoms: " + " ".join(p.labels)]
    lines += [f"{a} <= {b}" for a, b in _edge_labels(p)]
    return "\n".join(lines) + "\n"


def load_preorder(path: str) -> PreOrder:
    with open(path, encoding="utf-8") as fh:
        return parse_preorder(fh.read())


def parse_atom_set(p: PreOrder, text: str) -> AtomSet:
    """Parse a set literal like ``{a,b}`` (braces optional, spaces allowed)."""
    body = text.strip()
    if body.startswith("{"):
        if not body.endswith("}"):
            raise ValueError(f"unbalanced braces in set literal {text!r}")
        body = body[1:-1]
    body = body.replace(",", " ")
    return p.atom_set(body.split())


def format_set(parts: Iterable[str]) -> str:
    """Brace a rendered member list: ``{a,b}``."""
    return "{" + ",".join(parts) + "}"


def format_atom_set(p: PreOrder, mask: AtomSet) -> str:
    return format_set(p.set_labels(mask))
