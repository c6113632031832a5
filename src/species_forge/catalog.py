"""The built-in species and their (co)multiplicative systems.

Maps-to-colors, set partitions, linear orders, permutations, and labeled
partitions over an inner species, each packaged as a ``CatalogEntry`` whose
declared flags are claims for the engine to verify, never trusted.

Products are disjoint unions (concatenation for linear orders); coproducts
are restrictions (first-return maps for permutations).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional

from .core import (
    Bijection, Element, GroundSet, LabeledPartitionElt, LinearOrderElt,
    MapTo, PermutationElt, SetPartitionElt, SetSpecies, decompositions, grounds,
    set_partitions,
)


# ---------------------------------------------------------------------------
# system wrappers

class MultSystem:
    """A natural family of maps P[S] x P[T] -> P[S u T], evaluated on demand.

    Images, fibers and position tables per component are cached; all are
    enumerated in the species' canonical element order.
    """

    def __init__(self, species: SetSpecies,
                 rule: Callable[[GroundSet, GroundSet, Element, Element], Element]):
        self.species = species
        self.rule = rule
        self._fibers: dict = {}
        self._tables: dict = {}
        self._memo: dict = {}   # engine.memo's reports on this system alone

    def __call__(self, S: GroundSet, T: GroundSet, x: Element, y: Element) -> Element:
        return self.rule(S, T, x, y)

    def table(self, S: GroundSet, T: GroundSet) -> list[int]:
        """mu_{S,T} on positions: entry a * dim(T) + b is the position in
        P[S u T] of mu(x_a, y_b).  A result outside P[S u T] raises ValueError."""
        if (S, T) not in self._tables:
            el = self.species.elements
            results = [self(S, T, x, y) for x in el(S) for y in el(T)]
            self._tables[S, T] = self.species.positions(S.union(T), results)
        return self._tables[S, T]

    def fiber_map(self, S: GroundSet, T: GroundSet) -> dict:
        key = (S, T)
        got = self._fibers.get(key)
        if got is None:
            got = {}
            for x in self.species.elements(S):
                for y in self.species.elements(T):
                    got.setdefault(self.rule(S, T, x, y), []).append((x, y))
            got = {g: tuple(ps) for g, ps in got.items()}
            self._fibers[key] = got
        return got

    def fiber(self, S, T, gamma: Element) -> tuple:
        return self.fiber_map(S, T).get(gamma, ())

    def image(self, S, T) -> frozenset:
        return frozenset(self.fiber_map(S, T))

    def fold(self, parts: tuple[GroundSet, ...], xs: Iterable[Element]) -> Element:
        """Iterated product over a decomposition, folded left to right."""
        xs = list(xs)
        if not parts:
            return self.species.unit_element()
        acc = xs[0]
        ground = parts[0]
        for part, x in zip(parts[1:], xs[1:]):
            acc = self.rule(ground, part, acc, x)
            ground = ground.union(part)
        return acc


class ComultSystem:
    """A natural family of maps P[S u T] -> P[S] x P[T], evaluated on demand."""

    def __init__(self, species: SetSpecies,
                 rule: Callable[[GroundSet, GroundSet, Element], tuple[Element, Element]]):
        self.species = species
        self.rule = rule
        self._fibers: dict = {}
        self._tables: dict = {}
        self._memo: dict = {}   # engine.memo's reports on this system alone

    def __call__(self, S: GroundSet, T: GroundSet, z: Element) -> tuple[Element, Element]:
        return self.rule(S, T, z)

    def table(self, S: GroundSet, T: GroundSet) -> list[tuple[int, int]]:
        """pi_{S,T} on positions: entry c is the pair of positions in P[S] and
        P[T] of pi(z_c).  A result outside them raises ValueError."""
        if (S, T) not in self._tables:
            sp = self.species
            pairs = [self(S, T, z) for z in sp.elements(S.union(T))]
            self._tables[S, T] = list(zip(sp.positions(S, [a for a, _ in pairs]),
                                          sp.positions(T, [b for _, b in pairs])))
        return self._tables[S, T]

    def fiber_map(self, S: GroundSet, T: GroundSet) -> dict:
        key = (S, T)
        got = self._fibers.get(key)
        if got is None:
            got = {}
            for z in self.species.elements(S.union(T)):
                got.setdefault(self.rule(S, T, z), []).append(z)
            got = {p: tuple(zs) for p, zs in got.items()}
            self._fibers[key] = got
        return got

    def fiber(self, S, T, pair: tuple[Element, Element]) -> tuple:
        return self.fiber_map(S, T).get(tuple(pair), ())

    def is_bijective_on(self, S, T) -> bool:
        fm = self.fiber_map(S, T)
        total = self.species.dim(S) * self.species.dim(T)
        return len(fm) == total and all(len(v) == 1 for v in fm.values())

    def fold(self, parts: tuple[GroundSet, ...], z: Element) -> tuple[Element, ...]:
        """Iterated coproduct over a decomposition, peeling parts left to right."""
        if not parts:
            return ()
        remaining = parts[0]
        for p in parts[1:]:
            remaining = remaining.union(p)
        out = []
        for part in parts[:-1]:
            remaining = remaining.minus(part)
            x, z = self.rule(part, remaining, z)
            out.append(x)
        out.append(z)
        return tuple(out)


class CatalogEntry:
    """A species together with its systems and the properties it claims."""

    def __init__(self, key: str, species: SetSpecies, mu: Optional[MultSystem],
                 pi: Optional[ComultSystem], mu_flags: frozenset = frozenset(),
                 pi_flags: frozenset = frozenset()):
        self.key = key
        self.species = species
        self.mu = mu
        self.pi = pi
        self.mu_flags = mu_flags
        self.pi_flags = pi_flags
        self._memo: dict = {}   # its mixed triples' reports (engine.memo), order_of, fmu_of


# ---------------------------------------------------------------------------
# maps to a color set (E_C), the exponential species (E = one color)

def _mapto_transport(sigma: Bijection, f: MapTo) -> MapTo:
    inv = sigma.invert()
    target = sigma.target
    return MapTo.canonical(target, tuple(f.color_of(inv.apply(t)) for t in target.labels))


def _mapto_merge(S: GroundSet, T: GroundSet, x: MapTo, y: MapTo) -> MapTo:
    ground = S.union(T)
    if x.ground is S and y.ground is T:
        # parts that do not interleave concatenate their colors
        s, t = S.labels, T.labels
        if not s or not t or s[-1] < t[0]:
            return MapTo.canonical(ground, x.colors + y.colors)
        if t[-1] < s[0]:
            return MapTo.canonical(ground, y.colors + x.colors)
    colors = tuple(x.color_of(l) if l in S else y.color_of(l) for l in ground.labels)
    return MapTo.canonical(ground, colors)


def _mapto_restrict(f: MapTo, S: GroundSet) -> MapTo:
    return MapTo.canonical(S, tuple(f.color_of(l) for l in S.labels))


def make_E_C(colors: int, key: str | None = None) -> CatalogEntry:
    """Maps to a fixed set of ``colors`` colors; product is disjoint union of
    maps, coproduct is restriction."""
    if colors < 0:
        raise ValueError("colors must be nonnegative")

    def elements(I: GroundSet):
        words = itertools.product(range(colors), repeat=len(I))
        return [MapTo.canonical(I, word) for word in words]

    sp = SetSpecies(key or f"E_C:{colors}", elements, _mapto_transport)
    mu = MultSystem(sp, _mapto_merge)
    pi = ComultSystem(sp, lambda S, T, z: (_mapto_restrict(z, S), _mapto_restrict(z, T)))
    return CatalogEntry(
        sp.name, sp, mu, pi,
        mu_flags=frozenset({"associative", "commutative", "unital", "injective", "surjective"}),
        pi_flags=frozenset({"coassociative", "cocommutative", "counital",
                            "surjective", "injective", "bijective"}),
    )


def make_E() -> CatalogEntry:
    entry = make_E_C(1, key="E")
    return entry


def make_X_C(colors: int) -> CatalogEntry:
    """One element per color on singleton sets, nothing elsewhere.

    A positive species with no systems; it exists to seed labeled partitions.
    """
    if colors < 0:
        raise ValueError("colors must be nonnegative")

    def elements(I: GroundSet):
        if len(I) != 1:
            return []
        return [MapTo.canonical(I, (c,)) for c in range(colors)]

    sp = SetSpecies(f"X_C:{colors}", elements, _mapto_transport)
    return CatalogEntry(sp.name, sp, None, None)


# ---------------------------------------------------------------------------
# set partitions (Pi)

def _partition_transport(sigma: Bijection, X: SetPartitionElt) -> SetPartitionElt:
    return SetPartitionElt.canonical(sigma.target, tuple(sigma.image_of(b) for b in X.blocks))


def _partition_restrict(Z: SetPartitionElt, S: GroundSet) -> SetPartitionElt:
    pieces = [b.intersect(S) for b in Z.blocks]
    return SetPartitionElt.canonical(S, [p for p in pieces if p.labels])


def make_Pi() -> CatalogEntry:
    """Set partitions; product is disjoint union, coproduct is induced restriction."""

    def elements(I: GroundSet):
        return [SetPartitionElt.canonical(I, blocks) for blocks in set_partitions(I)]

    sp = SetSpecies("Pi", elements, _partition_transport)
    mu = MultSystem(sp, lambda S, T, x, y:
                    SetPartitionElt.canonical(S.union(T), x.blocks + y.blocks))
    pi = ComultSystem(sp, lambda S, T, z: (_partition_restrict(z, S), _partition_restrict(z, T)))
    return CatalogEntry(
        sp.name, sp, mu, pi,
        mu_flags=frozenset({"associative", "commutative", "unital", "injective"}),
        pi_flags=frozenset({"coassociative", "cocommutative", "counital", "surjective"}),
    )


# ---------------------------------------------------------------------------
# linear orders (L)

def _order_transport(sigma: Bijection, l: LinearOrderElt) -> LinearOrderElt:
    return LinearOrderElt.canonical(sigma.target, tuple(sigma.apply(x) for x in l.seq))


def make_L() -> CatalogEntry:
    """Linear orders; product is concatenation (second factor on top),
    coproduct keeps induced relative orders."""

    def elements(I: GroundSet):
        return [LinearOrderElt.canonical(I, seq) for seq in itertools.permutations(I.labels)]

    sp = SetSpecies("L", elements, _order_transport)
    mu = MultSystem(sp, lambda S, T, x, y: LinearOrderElt.canonical(S.union(T), x.seq + y.seq))

    def restrict(S, T, z):
        return (LinearOrderElt.canonical(S, tuple(v for v in z.seq if v in S)),
                LinearOrderElt.canonical(T, tuple(v for v in z.seq if v in T)))

    pi = ComultSystem(sp, restrict)
    return CatalogEntry(
        sp.name, sp, mu, pi,
        mu_flags=frozenset({"associative", "unital", "injective"}),
        pi_flags=frozenset({"coassociative", "cocommutative", "counital", "surjective"}),
    )


# ---------------------------------------------------------------------------
# permutations (Perm)

def _perm_transport(sigma: Bijection, p: PermutationElt) -> PermutationElt:
    target = sigma.target
    inv = sigma.invert()
    return PermutationElt.canonical(
        target, tuple(sigma.apply(p.apply(inv.apply(t))) for t in target.labels))


def _first_return(p: PermutationElt, S: GroundSet) -> PermutationElt:
    keep = set(S.labels)
    images = []
    for x in S.labels:
        y = p.apply(x)
        while y not in keep:
            y = p.apply(y)
        images.append(y)
    return PermutationElt.canonical(S, tuple(images))


def make_Perm() -> CatalogEntry:
    """Permutations; product is disjoint union of cycle sets, coproduct is the
    first-return map on each part."""

    def elements(I: GroundSet):
        return [PermutationElt.canonical(I, images) for images in itertools.permutations(I.labels)]

    sp = SetSpecies("Perm", elements, _perm_transport)

    def merge(S, T, x, y):
        ground = S.union(T)
        return PermutationElt.canonical(
            ground, tuple(x.apply(l) if l in S else y.apply(l) for l in ground.labels))

    mu = MultSystem(sp, merge)
    pi = ComultSystem(sp, lambda S, T, z: (_first_return(z, S), _first_return(z, T)))
    return CatalogEntry(
        sp.name, sp, mu, pi,
        mu_flags=frozenset({"associative", "commutative", "unital", "injective"}),
        pi_flags=frozenset({"coassociative", "cocommutative", "counital", "surjective"}),
    )


# ---------------------------------------------------------------------------
# labeled partitions S(Q)

def labeled_partition_species(Q: SetSpecies, name: str) -> SetSpecies:
    """Partitions whose blocks carry elements of Q, for a positive Q.

    Elements of Q over the empty set are ignored, so any catalog species may
    seed this construction through its positive part.
    """

    def elements(I: GroundSet):
        out = []
        for blocks in set_partitions(I):
            pools = [Q.elements(b) for b in blocks]
            if any(not pool for pool in pools):
                continue
            for labels in itertools.product(*pools):
                out.append(LabeledPartitionElt.canonical(I, tuple(zip(blocks, labels))))
        return out

    def transport(sigma: Bijection, X: LabeledPartitionElt) -> LabeledPartitionElt:
        blocks = tuple(
            (sigma.image_of(b), Q.transport(sigma.restrict(b), lab))
            for b, lab in X.blocks)
        return LabeledPartitionElt.canonical(sigma.target, blocks)

    return SetSpecies(name, elements, transport)


def make_S(inner: CatalogEntry) -> CatalogEntry:
    """The species of inner-labeled set partitions with the disjoint-union product.

    No coproduct is bundled; one can be derived, when it exists, from the
    order machinery (or by inverting the product when that is bijective).
    """
    key = f"S({inner.key})"
    sp = labeled_partition_species(inner.species, key)
    mu = MultSystem(sp, lambda S, T, x, y:
                    LabeledPartitionElt.canonical(S.union(T), x.blocks + y.blocks))
    return CatalogEntry(
        key, sp, mu, None,
        mu_flags=frozenset({"associative", "commutative", "unital", "injective"}),
    )


def inverse_pi(entry: CatalogEntry) -> ComultSystem:
    """The coproduct obtained by inverting a bijective product, component-wise.

    Raises if some needed component of the product is not bijective.
    """
    mu = entry.mu
    if mu is None:
        raise ValueError(f"{entry.key} has no product to invert")

    def rule(S: GroundSet, T: GroundSet, z: Element) -> tuple[Element, Element]:
        pre = mu.fiber(S, T, z)
        if len(pre) != 1:
            raise ValueError(
                f"product of {entry.key} is not bijective on ({S},{T}): "
                f"fiber of {z} has size {len(pre)}")
        return pre[0]

    return ComultSystem(entry.species, rule)


def with_derived_pi(entry: CatalogEntry, max_n: int = 4) -> CatalogEntry:
    """Attach the inverse-of-product coproduct when every component up to
    max_n is bijective; used for labeled partitions over singleton species."""
    pi = inverse_pi(entry)
    for I in grounds(max_n):
        for S, T in decompositions(I, 2):
            for z in entry.species.elements(I):
                pi(S, T, z)
    return CatalogEntry(
        entry.key, entry.species, entry.mu, pi, entry.mu_flags,
        pi_flags=frozenset({"coassociative", "cocommutative", "counital",
                            "surjective", "injective", "bijective"}),
    )


# ---------------------------------------------------------------------------
# species spec strings

_FIXED = {"E": make_E, "Pi": make_Pi, "L": make_L, "Perm": make_Perm}
_VALID = "E | E_C:<colors> | X_C:<colors> | Perm | L | Pi | S(<spec>)"
MAX_NESTING = 8   # S(...) levels a spec may nest; each level deepens every recursion
MAX_COLORS = 16   # E_C:16 lists 16^5 (about a million) maps over {1..5}


def parse_species(spec: str) -> CatalogEntry:
    """Resolve a species spec string like ``Pi``, ``E_C:2`` or ``S(X_C:2)``."""
    return _parse(spec, MAX_NESTING)


def _parse(spec: str, levels: int) -> CatalogEntry:
    spec = spec.strip()
    if spec in _FIXED:
        return _FIXED[spec]()
    if spec.startswith("S(") and spec.endswith(")"):
        if not levels:
            raise ValueError(f"spec nests S(...) more than {MAX_NESTING} deep; "
                             f"valid specs: {_VALID}")
        return make_S(_parse(spec[2:-1], levels - 1))
    for prefix, maker in (("E_C:", make_E_C), ("X_C:", make_X_C)):
        if spec.startswith(prefix):
            arg = spec[len(prefix):]
            if not (arg.isascii() and arg.isdigit()):
                raise ValueError(f"bad color count {arg!r} in {spec!r}; valid specs: {_VALID}")
            # the length first: int() refuses more than 4,300 digits
            digits = arg.lstrip("0") or "0"
            if len(digits) > len(str(MAX_COLORS)) or int(digits) > MAX_COLORS:
                raise ValueError(f"color count of {prefix[:-1]} above {MAX_COLORS}; "
                                 f"valid specs: {_VALID}")
            return maker(int(digits))
    raise ValueError(f"unknown species {spec!r}; valid specs: {_VALID}")
