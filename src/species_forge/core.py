"""Ground sets, bijections, basis elements, and exact tensor arithmetic.

The substrate every species computation runs on: immutable value types in
canonical form (so equality is structural and iteration order never drifts)
and exact rational linear combinations.  There is no floating point anywhere
in this package: coefficients stay ``int`` until a ``Fraction`` is passed in.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# ground sets

@dataclass(frozen=True)
class GroundSet:
    """A finite set of nonnegative integer labels, stored strictly increasing."""

    labels: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        ls = self.labels
        for a, b in zip(ls, ls[1:]):
            if b <= a:
                raise ValueError(f"labels not strictly increasing: {ls}")
        if ls and ls[0] < 0:
            raise ValueError(f"labels must be nonnegative: {ls}")

    @staticmethod
    def of(labels: Iterable[int]) -> "GroundSet":
        return GroundSet(tuple(sorted(set(labels))))

    @staticmethod
    def first(n: int) -> "GroundSet":
        """The standard set {1, ..., n}."""
        return GroundSet(tuple(range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)

    def __contains__(self, x) -> bool:
        return x in self.labels

    def disjoint_from(self, other: "GroundSet") -> bool:
        return not set(self.labels) & set(other.labels)

    def union(self, other: "GroundSet") -> "GroundSet":
        return _union(self.labels, other.labels)

    def intersect(self, other: "GroundSet") -> "GroundSet":
        keep = set(other.labels)
        return GroundSet(tuple(x for x in self.labels if x in keep))

    def minus(self, other: "GroundSet") -> "GroundSet":
        drop = set(other.labels)
        return GroundSet(tuple(x for x in self.labels if x not in drop))

    def issubset(self, other: "GroundSet") -> bool:
        return set(self.labels) <= set(other.labels)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.labels)) + "}"


EMPTY = GroundSet()


@functools.lru_cache(maxsize=1 << 14)
def _union(a: tuple[int, ...], b: tuple[int, ...]) -> GroundSet:
    """The union of two disjoint label tuples, memoized; an overlap raises
    (and is not cached).  The subsets of {1..n} give 3^n disjoint pairs."""
    if not set(a).isdisjoint(b):
        raise ValueError(f"ground sets overlap: {GroundSet(a)} and {GroundSet(b)}")
    return GroundSet(tuple(sorted(a + b)))


def union_all(parts: Iterable[GroundSet]) -> GroundSet:
    out = EMPTY
    for p in parts:
        out = out.union(p)
    return out


# ---------------------------------------------------------------------------
# bijections

@dataclass(frozen=True)
class Bijection:
    """A bijection between two ground sets; images aligned with source labels."""

    source: GroundSet
    target: GroundSet
    images: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != len(self.source):
            raise ValueError("image list does not match source size")
        if tuple(sorted(self.images)) != self.target.labels:
            raise ValueError(f"images {self.images} are not a bijection onto {self.target}")

    @staticmethod
    def identity(I: GroundSet) -> "Bijection":
        return Bijection(I, I, I.labels)

    @staticmethod
    def all_endo(I: GroundSet) -> Iterator["Bijection"]:
        """All bijections I -> I, in lexicographic image order."""
        for images in itertools.permutations(I.labels):
            yield Bijection(I, I, images)

    def apply(self, x: int) -> int:
        return self.images[self.source.labels.index(x)]

    def invert(self) -> "Bijection":
        pairs = sorted(zip(self.images, self.source.labels))
        return Bijection(self.target, self.source, tuple(p[1] for p in pairs))

    def after(self, inner: "Bijection") -> "Bijection":
        """self after inner (apply inner first)."""
        if inner.target != self.source:
            raise ValueError("bijections not composable")
        return Bijection(inner.source, self.target,
                         tuple(self.apply(y) for y in inner.images))

    def restrict(self, sub: GroundSet) -> "Bijection":
        images = tuple(self.apply(x) for x in sub.labels)
        return Bijection(sub, GroundSet.of(images), images)

    def image_of(self, sub: GroundSet) -> GroundSet:
        return GroundSet.of(self.apply(x) for x in sub.labels)


# ---------------------------------------------------------------------------
# basis elements

class Element:
    """A combinatorial basis element living over a fixed ground set.

    Subclasses are canonical-form value objects: two elements are equal iff
    their payloads match structurally, and ``sort_key`` gives the fixed
    enumeration order used in reports.
    """

    ground: GroundSet

    def sort_key(self):
        raise NotImplementedError


@dataclass(frozen=True)
class UnitElement(Element):
    """The unique element over the empty set, for species with no richer payload."""

    ground: GroundSet = EMPTY

    def __post_init__(self):
        if len(self.ground) != 0:
            raise ValueError("UnitElement lives over the empty set only")

    def sort_key(self):
        return ("unit",)

    def __str__(self):
        return "1"


@dataclass(frozen=True)
class MapTo(Element):
    """A map from the ground set to colors 0..c-1, stored label-aligned."""

    ground: GroundSet
    colors: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.colors, tuple):
            object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.colors) != len(self.ground):
            raise ValueError("one color per label required")
        if any(c < 0 for c in self.colors):
            raise ValueError("colors are nonnegative indices")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "MapTo":
        d = dict(pairs)
        ground = GroundSet.of(d)
        return MapTo(ground, tuple(d[x] for x in ground.labels))

    def color_of(self, label: int) -> int:
        return self.colors[self.ground.labels.index(label)]

    def sort_key(self):
        return ("map", self.colors)

    def __str__(self):
        return "[" + ",".join(f"{l}:{c}" for l, c in zip(self.ground.labels, self.colors)) + "]"


@dataclass(frozen=True)
class SetPartitionElt(Element):
    """A set partition: disjoint nonempty blocks covering the ground set."""

    ground: GroundSet
    blocks: tuple[GroundSet, ...]

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda b: b.labels))
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if len(b) == 0:
                raise ValueError("blocks must be nonempty")
            if seen & set(b.labels):
                raise ValueError("blocks overlap")
            seen |= set(b.labels)
        if seen != set(self.ground.labels):
            raise ValueError("blocks do not cover the ground set")

    @staticmethod
    def of(blocks: Iterable[Iterable[int]]) -> "SetPartitionElt":
        bs = tuple(GroundSet.of(b) for b in blocks)
        return SetPartitionElt(union_all(bs), bs)

    def sort_key(self):
        return ("partition", tuple(b.labels for b in self.blocks))

    def __str__(self):
        if not self.blocks:
            return "{}"
        return "{" + "|".join(",".join(map(str, b.labels)) for b in self.blocks) + "}"


@dataclass(frozen=True)
class LinearOrderElt(Element):
    """A linear order of the ground set, first element first."""

    ground: GroundSet
    seq: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.seq, tuple):
            object.__setattr__(self, "seq", tuple(self.seq))
        if tuple(sorted(self.seq)) != self.ground.labels:
            raise ValueError("sequence must use each label exactly once")

    @staticmethod
    def of(seq: Sequence[int]) -> "LinearOrderElt":
        return LinearOrderElt(GroundSet.of(seq), tuple(seq))

    def sort_key(self):
        return ("order", self.seq)

    def __str__(self):
        return "(" + ",".join(map(str, self.seq)) + ")"


@dataclass(frozen=True)
class PermutationElt(Element):
    """A permutation of the ground set, stored in one-line form."""

    ground: GroundSet
    images: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))
        if tuple(sorted(self.images)) != self.ground.labels:
            raise ValueError("images must permute the ground set")

    @staticmethod
    def from_cycles(ground: GroundSet, cycles: Iterable[Sequence[int]]) -> "PermutationElt":
        mapping = {x: x for x in ground.labels}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + tuple(cyc[:1])):
                mapping[a] = b
        return PermutationElt(ground, tuple(mapping[x] for x in ground.labels))

    def apply(self, x: int) -> int:
        return self.images[self.ground.labels.index(x)]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its minimum, cycles sorted by minimum."""
        seen: set[int] = set()
        out = []
        for x in self.ground.labels:
            if x in seen:
                continue
            cyc = [x]
            seen.add(x)
            y = self.apply(x)
            while y != x:
                cyc.append(y)
                seen.add(y)
                y = self.apply(y)
            out.append(tuple(cyc))
        return tuple(out)

    def sort_key(self):
        return ("perm", self.images)

    def __str__(self):
        if not self.ground.labels:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())


@dataclass(frozen=True)
class LabeledPartitionElt(Element):
    """A set partition whose blocks each carry an element living over that block."""

    ground: GroundSet
    blocks: tuple[tuple[GroundSet, Element], ...]

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda p: p[0].labels))
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b, lab in blocks:
            if len(b) == 0:
                raise ValueError("blocks must be nonempty")
            if lab.ground != b:
                raise ValueError(f"label over {lab.ground} does not live on block {b}")
            if seen & set(b.labels):
                raise ValueError("blocks overlap")
            seen |= set(b.labels)
        if seen != set(self.ground.labels):
            raise ValueError("blocks do not cover the ground set")

    @staticmethod
    def of(blocks: Iterable[tuple[GroundSet, Element]]) -> "LabeledPartitionElt":
        bs = tuple(blocks)
        return LabeledPartitionElt(union_all(b for b, _ in bs), bs)

    def shape(self) -> SetPartitionElt:
        return SetPartitionElt(self.ground, tuple(b for b, _ in self.blocks))

    def sort_key(self):
        return ("labeled", tuple((b.labels, lab.sort_key()) for b, lab in self.blocks))

    def __str__(self):
        if not self.blocks:
            return "{}"
        return "{" + "|".join(
            ",".join(map(str, b.labels)) + ":" + str(lab) for b, lab in self.blocks) + "}"


# ---------------------------------------------------------------------------
# exact linear combinations

def _exact(c) -> int | Fraction:
    """An exact coefficient: an int or a Fraction as given, a bool as int."""
    if type(c) is int or isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


class Vec:
    """An exact rational combination of basis elements over one ground set;
    its coefficients are ints unless a Fraction was passed in."""

    __slots__ = ("ground", "terms")

    def __init__(self, ground: GroundSet, terms=()):
        acc: dict[Element, int | Fraction] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for el, c in items:
            if el.ground != ground:
                raise ValueError(f"element over {el.ground} in Vec over {ground}")
            c = _exact(c)
            if c == 0:
                continue
            c0 = acc.get(el)
            acc[el] = c if c0 is None else c0 + c
        self.ground = ground
        self.terms = {e: c for e, c in acc.items() if c != 0}

    @staticmethod
    def zero(ground: GroundSet) -> "Vec":
        return Vec(ground)

    @staticmethod
    def basis(el: Element) -> "Vec":
        return Vec(el.ground, [(el, 1)])

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, el: Element) -> int | Fraction:
        return self.terms.get(el, 0)

    def items(self) -> list[tuple[Element, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda p: p[0].sort_key())

    def __add__(self, other: "Vec") -> "Vec":
        if self.ground != other.ground:
            raise ValueError("ground sets differ")
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return Vec(self.ground, acc)

    def __sub__(self, other: "Vec") -> "Vec":
        return self + other.scale(-1)

    def __neg__(self) -> "Vec":
        return self.scale(-1)

    def scale(self, c) -> "Vec":
        c = _exact(c)
        return Vec(self.ground, {e: k * c for e, k in self.terms.items()})

    def __rmul__(self, c) -> "Vec":
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vec) and self.ground == other.ground
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("Vec is not hashable")

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.items():
            bits.append(f"{c}*{e}" if c != 1 else str(e))
        return " + ".join(bits)

    __repr__ = __str__


class TensorVec:
    """An exact combination of tuples of basis elements over disjoint parts."""

    __slots__ = ("parts", "terms")

    def __init__(self, parts: tuple[GroundSet, ...], terms=()):
        parts = tuple(parts)
        seen: set[int] = set()
        for p in parts:
            if seen & set(p.labels):
                raise ValueError("tensor parts must be pairwise disjoint")
            seen |= set(p.labels)
        acc: dict[tuple[Element, ...], int | Fraction] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for key, c in items:
            key = tuple(key)
            if len(key) != len(parts):
                raise ValueError("term arity does not match parts")
            for el, p in zip(key, parts):
                if el.ground != p:
                    raise ValueError(f"element over {el.ground} in slot for {p}")
            c = _exact(c)
            if c == 0:
                continue
            c0 = acc.get(key)
            acc[key] = c if c0 is None else c0 + c
        self.parts = parts
        self.terms = {k: c for k, c in acc.items() if c != 0}

    @staticmethod
    def zero(parts: Sequence[GroundSet]) -> "TensorVec":
        return TensorVec(tuple(parts))

    @staticmethod
    def basis(key: Sequence[Element]) -> "TensorVec":
        key = tuple(key)
        return TensorVec(tuple(e.ground for e in key), [(key, 1)])

    @staticmethod
    def tensor(*vecs: Vec) -> "TensorVec":
        parts = tuple(v.ground for v in vecs)
        terms = []
        for combo in itertools.product(*(v.terms.items() for v in vecs)):
            key = tuple(e for e, _ in combo)
            c = 1
            for _, k in combo:
                c *= k
            terms.append((key, c))
        return TensorVec(parts, terms)

    @staticmethod
    def concat(a: "TensorVec", b: "TensorVec") -> "TensorVec":
        parts = a.parts + b.parts
        terms = []
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                terms.append((ka + kb, ca * cb))
        return TensorVec(parts, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key: Sequence[Element]) -> int | Fraction:
        return self.terms.get(tuple(key), 0)

    def items(self) -> list[tuple[tuple[Element, ...], int | Fraction]]:
        return sorted(self.terms.items(), key=lambda p: tuple(e.sort_key() for e in p[0]))

    def twist(self, perm: Sequence[int]) -> "TensorVec":
        """Reorder parts: slot i of the result is slot perm[i] of self."""
        perm = tuple(perm)
        if sorted(perm) != list(range(len(self.parts))):
            raise ValueError("perm must permute the part indices")
        parts = tuple(self.parts[p] for p in perm)
        terms = [(tuple(k[p] for p in perm), c) for k, c in self.terms.items()]
        return TensorVec(parts, terms)

    def as_vec(self) -> Vec:
        if len(self.parts) != 1:
            raise ValueError("only single-part tensors convert to Vec")
        return Vec(self.parts[0], [(k[0], c) for k, c in self.terms.items()])

    def __add__(self, other: "TensorVec") -> "TensorVec":
        if self.parts != other.parts:
            raise ValueError("tensor parts differ")
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, 0) + c
        return TensorVec(self.parts, acc)

    def __sub__(self, other: "TensorVec") -> "TensorVec":
        return self + other.scale(-1)

    def scale(self, c) -> "TensorVec":
        c = _exact(c)
        return TensorVec(self.parts, {k: v * c for k, v in self.terms.items()})

    def __rmul__(self, c) -> "TensorVec":
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorVec) and self.parts == other.parts
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("TensorVec is not hashable")

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key, c in self.items():
            s = " (x) ".join(str(e) for e in key)
            bits.append(s if c == 1 else f"{c}*[{s}]")
        return " + ".join(bits)

    __repr__ = __str__


def vec_dot(a: Vec, b: Vec) -> int | Fraction:
    """Pairing in which the basis is orthonormal (conjugation is trivial over Q)."""
    if a.ground != b.ground:
        raise ValueError("ground sets differ")
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    return sum(c * big.get(e, 0) for e, c in small.items())


def tensor_dot(a: TensorVec, b: TensorVec) -> int | Fraction:
    if a.parts != b.parts:
        raise ValueError("tensor parts differ")
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    return sum(c * big.get(k, 0) for k, c in small.items())


# ---------------------------------------------------------------------------
# set species

@dataclass
class SetSpecies:
    """A set species presented by an element enumerator and a transport rule.

    ``elements_fn(I)`` must return the component over I in a deterministic
    order; ``transport_fn(sigma, x)`` must implement a functorial relabeling.
    Components and their element to position maps are cached per ground set.
    """

    name: str
    elements_fn: Callable[[GroundSet], Sequence[Element]]
    transport_fn: Callable[[Bijection, Element], Element]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def elements(self, I: GroundSet) -> tuple[Element, ...]:
        got = self._cache.get(I)
        if got is None:
            got = tuple(self.elements_fn(I))
            self._cache[I] = got
        return got

    def index(self, I: GroundSet) -> dict:
        """Each element of P[I] mapped to its position in ``elements(I)``."""
        got = self._index.get(I)
        if got is None:
            got = {x: k for k, x in enumerate(self.elements(I))}
            self._index[I] = got
        return got

    def dim(self, I: GroundSet) -> int:
        return len(self.elements(I))

    def transport(self, sigma: Bijection, x: Element) -> Element:
        return self.transport_fn(sigma, x)

    def unit_element(self) -> Element:
        es = self.elements(EMPTY)
        if len(es) != 1:
            raise ValueError(f"{self.name} is not connected: |P[empty]| = {len(es)}")
        return es[0]


# ---------------------------------------------------------------------------
# decomposition enumeration

def decompositions(I: GroundSet, k: int, nonempty: bool = False) -> list[tuple[GroundSet, ...]]:
    """Ordered k-tuples of pairwise disjoint ground sets with union I.

    Enumerated lexicographically by the membership word (the part index of
    each label in increasing label order).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    out = []
    for word in itertools.product(range(k), repeat=len(I)):
        parts: list[list[int]] = [[] for _ in range(k)]
        for lab, w in zip(I.labels, word):
            parts[w].append(lab)
        if nonempty and any(not p for p in parts):
            continue
        out.append(tuple(GroundSet(tuple(p)) for p in parts))
    return out


def nonempty_compositions(I: GroundSet) -> Iterator[tuple[GroundSet, ...]]:
    """All ordered decompositions of I into nonempty parts, every length k >= 1."""
    for k in range(1, len(I) + 1):
        yield from decompositions(I, k, nonempty=True)


def set_partitions(I: GroundSet) -> list[tuple[GroundSet, ...]]:
    """All set partitions of I as block tuples sorted by minimum element.

    Enumerated by restricted-growth strings in lexicographic order; the empty
    set has exactly one (empty) partition.
    """
    labs = I.labels
    n = len(labs)
    if n == 0:
        return [()]
    out: list[tuple[GroundSet, ...]] = []

    def rec(i: int, rgs: list[int], mx: int) -> None:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(mx + 1)]
            for lab, a in zip(labs, rgs):
                blocks[a].append(lab)
            out.append(tuple(GroundSet(tuple(b)) for b in blocks))
            return
        for a in range(mx + 2):
            rgs.append(a)
            rec(i + 1, rgs, max(mx, a))
            rgs.pop()

    rec(1, [0], 0)
    return out


# ---------------------------------------------------------------------------
# reports and the functoriality check

@dataclass
class CheckReport:
    """Outcome of one verification, in the stable shape used by every module."""

    check: str
    species: str
    n: int
    status: str                      # pass | fail | fatal | skip
    witness: object = None
    elapsed_ms: int = 0
    expected: bool | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "check": self.check,
            "species": self.species,
            "n": self.n,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.expected is not None:
            out["expected"] = self.expected
        out["elapsed_ms"] = self.elapsed_ms if include_timing else 0
        return out


class FatalInconsistency(Exception):
    """A desk-scale contradiction of a theorem: an implementation bug."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# Up to this n the exhaustive transport and naturality routes also run beside
# the table routes, and a split in verdict is fatal.
TABLE_ORACLE_MAX_N = 3


def transport_check(P: SetSpecies, I: GroundSet) -> CheckReport:
    """Verify the identity, composition and bijectivity laws of transport on I.

    Tabulates p[sigma] on indices into P[I] once per endo-bijection sigma and
    certifies p[id] = id, that each table permutes P[I], and p[sigma o s_i] =
    p[sigma] o p[s_i] for each adjacent transposition s_i, which gives
    p[sigma o tau] = p[sigma] o p[tau] by induction on a word for tau.  What
    the tables cannot certify goes to the exhaustive route over all pairs,
    which finds the witness; up to n = TABLE_ORACLE_MAX_N it always runs, and
    wherever both routes run a split raises ``FatalInconsistency``.
    Violations are reported with a witness, never raised.
    """
    certified = _transport_certified(P, I)
    if certified and len(I) > TABLE_ORACLE_MAX_N:
        return CheckReport("transport", P.name, len(I), "pass")
    rep = _transport_exhaustive(P, I)
    if rep.ok != certified:
        raise FatalInconsistency(
            f"table and exhaustive transport checks disagree for {P.name} on {I}",
            witness={"tables_certify": certified, "exhaustive": rep.witness})
    return rep


def _transport_certified(P: SetSpecies, I: GroundSet) -> bool:
    index, elems = P.index(I), P.elements(I)
    try:
        p = {s.images: [index[P.transport(s, x)] for x in elems] for s in Bijection.all_endo(I)}
    except Exception:  # a result outside P[I] or a transport that raises
        return False
    gens = [p[_swap(I.labels, i)] for i in range(len(I) - 1)]
    return p[I.labels] == list(range(len(index))) and all(
        len(set(row)) == len(row)
        and all(p[_swap(images, i)] == [row[k] for k in g] for i, g in enumerate(gens))
        for images, row in p.items())


def _swap(images: tuple, i: int) -> tuple:
    """The images of sigma o s_i, s_i exchanging the i-th and (i+1)-th labels."""
    return images[:i] + (images[i + 1], images[i]) + images[i + 2:]


def _transport_exhaustive(P: SetSpecies, I: GroundSet) -> CheckReport:
    """Every law over every element, every pair of endo-bijections composed."""
    violations: list[dict] = []
    elems = P.elements(I)
    ident = Bijection.identity(I)
    for x in elems:
        if P.transport(ident, x) != x:
            violations.append({"law": "identity", "element": str(x)})
            break
    bijections = list(Bijection.all_endo(I))
    for sigma, tau in itertools.product(bijections, repeat=2):
        comp = sigma.after(tau)
        bad = None
        for x in elems:
            if P.transport(comp, x) != P.transport(sigma, P.transport(tau, x)):
                bad = x
                break
        if bad is not None:
            violations.append({
                "law": "composition",
                "sigma": list(sigma.images), "tau": list(tau.images),
                "element": str(bad),
            })
            break
    for sigma in bijections:
        image = [P.transport(sigma, x) for x in elems]
        if sorted(str(y) for y in image) != sorted(str(x) for x in elems):
            violations.append({"law": "bijectivity", "sigma": list(sigma.images)})
            break
    status = "pass" if not violations else "fail"
    witness = violations[0] if violations else None
    return CheckReport("transport", P.name, len(I), status, witness)
