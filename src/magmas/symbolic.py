"""Computable infinite pre-orders and finitely generated open sets.

Finite carriers always have atoms without strict predecessors, so the
no-minimal-elements axiom only holds on infinite models. The models here
are decidable: atoms are finite binary strings (optionally tagged with a
cluster index), the relation is prefix testing, and every atom has an
explicit strict predecessor, so all three axioms can be sample-validated
and open sets can be handled through finite generator lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True, eq=False)
class SymbolicPreOrder:
    """A countable pre-ordered atom set given by decidable predicates.

    ``leq`` decides the relation, ``strict_pred`` returns a witness
    strictly below its argument (the no-minimal-elements axiom made
    computable), and ``atoms_up_to`` enumerates the atoms of bounded
    encoding depth for sampling and bounded semantics. ``cone_meet(a, b)``
    returns an atom whose principal cone is the intersection of the cones
    of a and b, or None when they are disjoint, so generated opens stay
    finitely generated under intersection. ``cones_up_to(tips, depth)``
    lists the bounded part of a union of principal cones: the atoms up to
    ``depth`` below some tip, in ``atoms_up_to`` order, each once. Every
    field is required.
    """

    name: str
    leq: Callable[[object, object], bool]
    strict_pred: Callable[[object], object]
    atoms_up_to: Callable[[int], Iterable[object]]
    random_atom: Callable[[random.Random, int, int], object]
    render_atom: Callable[[object], str]
    parse_atom: Callable[[str], object]
    cone_meet: Callable[[object, object], object | None]
    cones_up_to: Callable[[Sequence, int], list]

    def strict(self, a: object, b: object) -> bool:
        return self.leq(a, b) and not self.leq(b, a)


def _check_bitstring(s: str) -> str:
    if not s or set(s) - {"0", "1"}:
        raise ValueError(f"atom must be a nonempty binary string, got {s!r}")
    return s


def _random_bitstring(rng: random.Random, lo: int, hi: int) -> str:
    length = rng.randint(lo, hi)
    return "".join(rng.choice("01") for _ in range(length))


def _extensions_up_to(tips: Sequence[str], depth: int) -> list[str]:
    """The strings of length 1..depth that extend some tip, shortest
    first and in lexicographic order within a length; with the tips
    "0" and "1", every string up to depth.

    Built one length at a time: the extensions of the tips seen so far
    grow by one bit, and a tip of the new length joins them unless a
    shorter tip already covers it. Appending a bit keeps a sorted layer
    sorted, so the layer is sorted again only when a tip joins it.
    """
    out: list[str] = []
    layer: list[str] = []
    for length in range(1, depth + 1):
        layer = [s + c for s in layer for c in "01"]
        new = {t for t in tips if len(t) == length
               and not any(t.startswith(u) for u in tips if len(u) < length)}
        if new:
            layer += new
            layer.sort()
        out += layer
    return out


def binary_string_model() -> SymbolicPreOrder:
    """Atoms are nonempty binary strings; s <= t iff t is a prefix of s.

    Every cone is the infinite set of extensions of its tip, so its
    bounded part is listed directly, and appending "0" always gives a
    strict predecessor. Two cones are nested or disjoint, so their meet
    is the longer tip or None.
    """
    return SymbolicPreOrder(
        name="prefix",
        leq=lambda s, t: s.startswith(t),
        strict_pred=lambda t: t + "0",
        atoms_up_to=lambda depth: _extensions_up_to(("0", "1"), depth),
        random_atom=_random_bitstring,
        render_atom=lambda s: s,
        parse_atom=_check_bitstring,
        cone_meet=lambda s, t: s if s.startswith(t) else (t if t.startswith(s) else None),
        cones_up_to=_extensions_up_to,
    )


def clustered_model(k: int) -> SymbolicPreOrder:
    """Prefix model with k-fold mutual-dependence clusters.

    Atoms are (string, i) with i < k and render as ``string#i``. Every
    operation is the prefix model's applied to the string part: the
    relation ignores the tag, so each string carries one equivalence
    class of size k. An atom the model builds from a string (a strict
    predecessor, a cone meet) takes tag 0; listed atoms run through all
    k tags of each string.
    """
    if k < 2:
        raise ValueError("cluster size must be at least 2")
    base = binary_string_model()

    def parse(text: str) -> tuple[str, int]:
        s, sep, idx = text.partition("#")
        if not sep:
            raise ValueError(f"clustered atom must look like s#i, got {text!r}")
        i = int(idx)
        if not 0 <= i < k:
            raise ValueError(f"cluster index {i} outside 0..{k - 1}")
        return (base.parse_atom(s), i)

    def cone_meet(a: tuple[str, int], b: tuple[str, int]) -> tuple[str, int] | None:
        m = base.cone_meet(a[0], b[0])
        return None if m is None else (m, 0)

    return SymbolicPreOrder(
        name=f"clustered:{k}",
        leq=lambda a, b: base.leq(a[0], b[0]),
        strict_pred=lambda a: (base.strict_pred(a[0]), 0),
        atoms_up_to=lambda depth: ((s, i) for s in base.atoms_up_to(depth) for i in range(k)),
        random_atom=lambda rng, lo, hi: (base.random_atom(rng, lo, hi), rng.randrange(k)),
        render_atom=lambda a: f"{base.render_atom(a[0])}#{a[1]}",
        parse_atom=parse,
        cone_meet=cone_meet,
        cones_up_to=lambda tips, depth: [
            (s, i) for s in base.cones_up_to([a[0] for a in tips], depth) for i in range(k)],
    )


def model_by_name(name: str) -> SymbolicPreOrder:
    if name == "prefix":
        return binary_string_model()
    if name.startswith("clustered:"):
        return clustered_model(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown symbolic model {name!r} (expected prefix or clustered:k)")


@dataclass(frozen=True, eq=False)
class GenOpen:
    """A finitely generated open set over a symbolic model.

    At level 1 the generators are atoms and the set is the union of
    their cones; at level k+1 they are level-k GenOpens and the set is
    the union of their inclusion cones inside level k.
    """

    model: SymbolicPreOrder
    level: int
    generators: tuple = ()

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level must be positive")
        if not self.generators:
            raise ValueError("generator list must be nonempty")
        for g in self.generators:
            if self.level == 1 and isinstance(g, GenOpen):
                raise ValueError("level-1 generators must be atoms")
            if self.level > 1:
                if not isinstance(g, GenOpen):
                    raise ValueError("higher-level generators must be GenOpen values")
                if g.level != self.level - 1:
                    raise ValueError("generators must sit one level below")
                if g.model is not self.model:
                    raise ValueError("generators from a different model")

    def __repr__(self) -> str:
        if self.level == 1:
            inner = ",".join(self.model.render_atom(g) for g in self.generators)
            return f"<pr {inner}>"
        return "<cones " + "; ".join(repr(g) for g in self.generators) + ">"


def _check_same(g1: GenOpen, g2: GenOpen) -> None:
    if g1.model is not g2.model:
        raise ValueError("operands live in different models")
    if g1.level != g2.level:
        raise ValueError(f"level mismatch: {g1.level} vs {g2.level}")


def gen_member(g: GenOpen, z: object) -> bool:
    """Is z (an atom, or a GenOpen one level down) in the denoted set?"""
    if g.level == 1:
        if isinstance(z, GenOpen):
            raise ValueError("level-1 members are atoms")
        return any(g.model.leq(z, a) for a in g.generators)
    if not isinstance(z, GenOpen) or z.level != g.level - 1:
        raise ValueError("member must sit one level below the open")
    return any(gen_subset(z, x) for x in g.generators)


def gen_subset(g1: GenOpen, g2: GenOpen) -> bool:
    """Inclusion of denotations, decided on the generators.

    A cone is inside an open set exactly when its tip is a member, so
    it suffices that every generator of g1 is a member of g2.
    """
    _check_same(g1, g2)
    return all(gen_member(g2, a) for a in g1.generators)


def gen_equal(g1: GenOpen, g2: GenOpen) -> bool:
    """Extensional equality; distinct generator lists may denote one set."""
    return gen_subset(g1, g2) and gen_subset(g2, g1)


def gen_union(g1: GenOpen, g2: GenOpen) -> GenOpen:
    _check_same(g1, g2)
    return GenOpen(g1.model, g1.level, g1.generators + g2.generators)


def gen_intersect(g1: GenOpen, g2: GenOpen) -> GenOpen | None:
    """Pairwise meet of generator cones; None when the intersection is empty.

    Two cones meet in the cone of the meet of their tips: the model's
    ``cone_meet`` at level 1, and the intersection one level down above
    it, since the opens below two opens are those below their meet.
    """
    _check_same(g1, g2)
    meet = g1.model.cone_meet if g1.level == 1 else gen_intersect
    gens = tuple(m for x in g1.generators for y in g2.generators
                 if (m := meet(x, y)) is not None)
    return GenOpen(g1.model, g1.level, gens) if gens else None


def strict_shrink(g: GenOpen) -> GenOpen:
    """A generated open properly inside g.

    Shrinks the first generator: its strict predecessor's cone at level
    1, or the cone of its own shrink at higher levels. The old tip
    witnesses properness.
    """
    first = g.generators[0]
    if g.level == 1:
        return GenOpen(g.model, 1, (g.model.strict_pred(first),))
    return GenOpen(g.model, g.level, (strict_shrink(first),))


def members_up_to(g: GenOpen, depth: int) -> list[object]:
    """The atoms of bounded depth in a level-1 generated open, in
    ``atoms_up_to`` order, as the model's ``cones_up_to`` lists them.
    """
    if g.level != 1:
        raise ValueError("bounded enumeration is a level-1 operation")
    return g.model.cones_up_to(g.generators, depth)


@dataclass
class ModelValidation:
    """Sampled check of reflexivity, transitivity, and strict predecessors."""

    model: str
    atoms_checked: int
    triples_checked: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


EXTRA_SAMPLES = 200  # random atoms deeper than depth added to the pool
TRIPLE_SAMPLES = 500  # random triples drawn from the pool for transitivity
# the largest validation depth, and the verify harness's largest
# symbolic_depth: depth d lists about 2^(d+1) atoms per model; on a 2-core
# host the symbolic suites take about 2 s and 130 MiB at depth 16, and each
# further step about doubles the time
DEPTH_CAP = 16


def validate_model(model: SymbolicPreOrder, *, depth: int = 8,
                   seed: int = 0) -> ModelValidation:
    """Validate the axioms on all atoms up to ``depth`` plus random longer ones."""
    if depth < 1:
        raise ValueError(f"validation depth must be at least 1, got {depth}")
    if depth > DEPTH_CAP:
        raise ValueError(f"validation depth must be at most DEPTH_CAP = {DEPTH_CAP}, "
                         f"got {depth}")
    rng = random.Random(seed)
    pool = list(model.atoms_up_to(depth))
    pool.extend(model.random_atom(rng, depth + 1, depth + 8) for _ in range(EXTRA_SAMPLES))
    failures: list[str] = []
    for a in pool:
        if not model.leq(a, a):
            failures.append(f"not reflexive at {model.render_atom(a)}")
        b = model.strict_pred(a)
        if not model.strict(b, a):
            failures.append(f"strict_pred failed at {model.render_atom(a)}")
    for _ in range(TRIPLE_SAMPLES):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if model.leq(a, b) and model.leq(b, c) and not model.leq(a, c):
            failures.append(
                "not transitive at "
                + ", ".join(model.render_atom(z) for z in (a, b, c))
            )
    return ModelValidation(model.name, len(pool), TRIPLE_SAMPLES, failures)
