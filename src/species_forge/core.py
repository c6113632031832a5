"""Ground sets, bijections, basis elements, and exact tensor arithmetic.

The substrate every species computation runs on: immutable value types in
canonical form (so equality is structural and iteration order never drifts)
and exact rational linear combinations.  There is no floating point anywhere
in this package: coefficients stay ``int`` until a ``Fraction`` is passed in.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# immutable values

_setattr = object.__setattr__


class _Value:
    """An immutable slotted value with the fields ``_fields``.

    Copies, deep copies and pickles rebuild a value through its constructor,
    and its repr lists its fields.  Equality and hashing are per kind:

    - ``Element`` kinds share one ``__eq__`` on a stored key
      (``Element._seal``), but each writes its one-line ``__hash__`` itself:
      CPython 3.11 specializes attribute loads per code object, so one
      ``__hash__`` shared by every kind stays unspecialized, and ``Pi``'s full
      suite at n = 3 ran about 1 % slower with one.
    - ``GroundSet`` is interned, so its equality is identity: a Python-level
      ``__eq__`` would slow every ``ground != ground`` check.
    - ``Bijection`` writes its ``__eq__`` and ``__hash__`` out: bijections are
      not interned, and a stored key per bijection raised the peak memory of
      ``Pi``'s axioms at n = 6 from 28.7 to 29.5 MB."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


# ---------------------------------------------------------------------------
# ground sets

_GROUND_SETS: dict[tuple[int, ...], "GroundSet"] = {}


class GroundSet(_Value):
    """A finite set of nonnegative integer labels, stored strictly increasing.

    Canonical: there is one instance per label tuple, so equality is
    identity.  The hash is that of the field tuple ``(labels,)``, computed
    once."""

    __slots__ = ("labels", "_hash")
    _fields = ("labels",)

    def __new__(cls, labels: Iterable[int] = ()):
        if type(labels) is not tuple:
            labels = tuple(labels)
        got = _GROUND_SETS.get(labels)
        if got is not None:
            return got
        for a, b in zip(labels, labels[1:]):
            if b <= a:
                raise ValueError(f"labels not strictly increasing: {labels}")
        if labels and labels[0] < 0:
            raise ValueError(f"labels must be nonnegative: {labels}")
        self = object.__new__(cls)
        _setattr(self, "labels", labels)
        _setattr(self, "_hash", hash((labels,)))
        # setdefault: concurrent first calls still agree on one instance
        return _GROUND_SETS.setdefault(labels, self)

    def __hash__(self) -> int:
        return self._hash

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

    def union(self, other: "GroundSet") -> "GroundSet":
        return _union(self.labels, other.labels)

    def intersect(self, other: "GroundSet") -> "GroundSet":
        return _intersect(self.labels, other.labels)

    def minus(self, other: "GroundSet") -> "GroundSet":
        drop = set(other.labels)
        return GroundSet(tuple(x for x in self.labels if x not in drop))

    def issubset(self, other: "GroundSet") -> bool:
        return set(self.labels) <= set(other.labels)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.labels)) + "}"


EMPTY = GroundSet()
SOFT_CEILING = 5


def hard_ceiling() -> int:
    env = os.environ.get("SPECIES_FORGE_CEILING")
    if not env:
        return SOFT_CEILING
    try:
        ceiling = int(env)
    except ValueError:
        raise ValueError(
            f"SPECIES_FORGE_CEILING must be an integer, got {env!r}") from None
    if ceiling < 0:
        raise ValueError(f"SPECIES_FORGE_CEILING must be a nonnegative integer, got {env!r}")
    return ceiling


def guard_max_n(max_n: int) -> None:
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    if max_n > hard_ceiling():
        raise ValueError(
            f"max_n={max_n} exceeds the ceiling {hard_ceiling()}; "
            f"set SPECIES_FORGE_CEILING to override")


def grounds(max_n: int) -> list[GroundSet]:
    """{1..m} for m = 0..max_n: the ground sets of every exhaustive check.

    A negative max_n, or one above the ceiling, raises ``ValueError``, so no
    check runs past the ceiling or passes over an empty range."""
    guard_max_n(max_n)
    return [GroundSet.first(m) for m in range(max_n + 1)]


@functools.lru_cache(maxsize=1 << 14)
def _union(a: tuple[int, ...], b: tuple[int, ...]) -> GroundSet:
    """The union of two disjoint label tuples, memoized; an overlap raises
    (and is not cached).  The subsets of {1..n} give 3^n disjoint pairs."""
    if not set(a).isdisjoint(b):
        raise ValueError(f"ground sets overlap: {GroundSet(a)} and {GroundSet(b)}")
    return GroundSet(tuple(sorted(a + b)))


@functools.lru_cache(maxsize=1 << 14)
def _intersect(a: tuple[int, ...], b: tuple[int, ...]) -> GroundSet:
    """The intersection of two label tuples, memoized like ``_union``."""
    keep = set(b)
    return GroundSet(tuple(x for x in a if x in keep))


def union_all(parts: Iterable[GroundSet]) -> GroundSet:
    out = EMPTY
    for p in parts:
        out = out.union(p)
    return out


# ---------------------------------------------------------------------------
# bijections

class Bijection(_Value):
    """A bijection between two ground sets; images aligned with source labels."""

    _fields = ("source", "target", "images")
    __slots__ = _fields + ("_inverse", "_hash")

    def __init__(self, source: GroundSet, target: GroundSet, images: tuple[int, ...]):
        if not isinstance(images, tuple):
            images = tuple(images)
        if len(images) != len(source):
            raise ValueError("image list does not match source size")
        if tuple(sorted(images)) != target.labels:
            raise ValueError(f"images {images} are not a bijection onto {target}")
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "images", images)
        _setattr(self, "_inverse", None)
        _setattr(self, "_hash", hash((source, target, images)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.images) == (
                other.source, other.target, other.images)
        return NotImplemented

    def __hash__(self):
        return self._hash

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
        """The inverse, built once and kept outside the fields (so outside eq,
        hash, repr and copies)."""
        inv = self._inverse
        if inv is None:
            pairs = sorted(zip(self.images, self.source.labels))
            inv = Bijection(self.target, self.source, tuple(p[1] for p in pairs))
            _setattr(self, "_inverse", inv)
        return inv

    def after(self, inner: "Bijection") -> "Bijection":
        """self after inner (apply inner first)."""
        if inner.target != self.source:
            raise ValueError("bijections not composable")
        return Bijection(inner.source, self.target,
                         tuple(self.apply(y) for y in inner.images))

    def _images_of(self, sub: GroundSet) -> tuple[int, ...]:
        """The images of sub's labels, in label order; ValueError for a label
        outside the source."""
        at, images = self.source.labels.index, self.images
        return tuple([images[at(x)] for x in sub.labels])

    def restrict(self, sub: GroundSet) -> "Bijection":
        images = self._images_of(sub)
        return Bijection(sub, GroundSet(tuple(sorted(images))), images)

    def image_of(self, sub: GroundSet) -> GroundSet:
        return GroundSet(tuple(sorted(self._images_of(sub))))


# ---------------------------------------------------------------------------
# basis elements

_ELEMENTS: dict[tuple, "Element"] = {}


class Element(_Value):
    """A combinatorial basis element living over a fixed ground set.

    Subclasses are canonical-form value objects: each constructor validates
    its payload and ends in ``_seal``, which keeps the field tuple as
    ``_key`` and its hash as ``_hash``.  Two elements are equal iff they are
    of one kind and their keys match, and ``sort_key`` gives the fixed
    enumeration order used in reports.
    """

    __slots__ = ("_key", "_hash")
    ground: GroundSet
    # the key the constructor sorts a payload by, if it sorts it (read
    # through the class, so a plain function is not bound)
    _payload_key: Callable | None = None

    @classmethod
    def canonical(cls, ground: GroundSet, payload) -> "Element":
        """The one instance of ``cls(ground, payload)`` in a module-level
        table, keyed on ``(cls, ground, payload)`` with the payload coerced
        (and sorted) as the constructor does.

        A value seen before costs one dict lookup, and every later lookup of
        the instance in a dict matches by identity.  A new value runs the
        constructor with all its checks, so an invalid one raises the same
        error and registers nothing; a valid one is registered after
        ``_register_parts``.  Instances built by the constructor itself stay
        outside the table and still compare equal by value."""
        order = cls._payload_key
        if order is not None:
            payload = tuple(sorted(payload, key=order))
        elif type(payload) is not tuple:
            payload = tuple(payload)
        key = (cls, ground, payload)
        got = _ELEMENTS.get(key)
        if got is None:
            got = cls(ground, payload)
            got._register_parts()
            # setdefault: concurrent first calls still agree on one instance
            got = _ELEMENTS.setdefault(key, got)
        return got

    def _register_parts(self) -> None:
        """Make a newly built value, before it is registered, hold the
        registered instances of the elements inside it (none here)."""

    def _seal(self, *values) -> None:
        """Set the fields to ``values``, in ``_fields`` order, and keep their
        tuple and its hash."""
        for f, v in zip(self._fields, values):
            _setattr(self, f, v)
        _setattr(self, "_key", values)
        _setattr(self, "_hash", hash(values))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def sort_key(self):
        raise NotImplementedError


class UnitElement(Element):
    """The unique element over the empty set, for species with no richer payload."""

    __slots__ = _fields = ("ground",)

    def __init__(self, ground: GroundSet = EMPTY):
        if len(ground) != 0:
            raise ValueError("UnitElement lives over the empty set only")
        self._seal(ground)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return ("unit",)

    def __str__(self):
        return "1"


class MapTo(Element):
    """A map from the ground set to colors 0..c-1, stored label-aligned."""

    __slots__ = _fields = ("ground", "colors")

    def __init__(self, ground: GroundSet, colors: tuple[int, ...]):
        if not isinstance(colors, tuple):
            colors = tuple(colors)
        if len(colors) != len(ground.labels):
            raise ValueError("one color per label required")
        if colors and min(colors) < 0:
            raise ValueError("colors are nonnegative indices")
        self._seal(ground, colors)

    def __hash__(self):
        return self._hash

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


_labels = operator.attrgetter("labels")


def _block_labels(pair: tuple[GroundSet, Element]) -> tuple[int, ...]:
    return pair[0].labels


def _check_partition(ground: GroundSet, blocks: Sequence[GroundSet], labels=()) -> None:
    """``blocks``, sorted by labels, are nonempty, disjoint and cover
    ``ground``, and each element of ``labels`` lives over its block.  One pass
    over the sorted flat labels decides the partition; the errors come in
    this order: an empty block (it sorts first), an element off its block, an
    overlap, a label of ``ground`` in no block."""
    if blocks and not blocks[0].labels:
        raise ValueError("blocks must be nonempty")
    for b, lab in zip(blocks, labels):
        if lab.ground is not b:
            raise ValueError(f"label over {lab.ground} does not live on block {b}")
    flat = [x for b in blocks for x in b.labels]
    flat.sort()
    if tuple(flat) != ground.labels:
        if len(set(flat)) < len(flat):
            raise ValueError("blocks overlap")
        raise ValueError("blocks do not cover the ground set")


class SetPartitionElt(Element):
    """A set partition: disjoint nonempty blocks covering the ground set."""

    __slots__ = _fields = ("ground", "blocks")
    _payload_key = _labels

    def __init__(self, ground: GroundSet, blocks: tuple[GroundSet, ...]):
        blocks = tuple(sorted(blocks, key=_labels))
        _check_partition(ground, blocks)
        self._seal(ground, blocks)

    def __hash__(self):
        return self._hash

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


class LinearOrderElt(Element):
    """A linear order of the ground set, first element first."""

    __slots__ = _fields = ("ground", "seq")

    def __init__(self, ground: GroundSet, seq: tuple[int, ...]):
        if not isinstance(seq, tuple):
            seq = tuple(seq)
        if tuple(sorted(seq)) != ground.labels:
            raise ValueError("sequence must use each label exactly once")
        self._seal(ground, seq)

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(seq: Sequence[int]) -> "LinearOrderElt":
        return LinearOrderElt(GroundSet.of(seq), tuple(seq))

    def sort_key(self):
        return ("order", self.seq)

    def __str__(self):
        return "(" + ",".join(map(str, self.seq)) + ")"


class PermutationElt(Element):
    """A permutation of the ground set, stored in one-line form."""

    __slots__ = _fields = ("ground", "images")

    def __init__(self, ground: GroundSet, images: tuple[int, ...]):
        if not isinstance(images, tuple):
            images = tuple(images)
        if tuple(sorted(images)) != ground.labels:
            raise ValueError("images must permute the ground set")
        self._seal(ground, images)

    def __hash__(self):
        return self._hash

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


class LabeledPartitionElt(Element):
    """A set partition whose blocks each carry an element living over that
    block."""

    __slots__ = _fields = ("ground", "blocks")
    _payload_key = _block_labels

    def __init__(self, ground: GroundSet, blocks: tuple[tuple[GroundSet, Element], ...]):
        blocks = tuple(sorted(blocks, key=_block_labels))
        _check_partition(ground, [b for b, _ in blocks], [lab for _, lab in blocks])
        self._seal(ground, blocks)

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(blocks: Iterable[tuple[GroundSet, Element]]) -> "LabeledPartitionElt":
        bs = tuple(blocks)
        return LabeledPartitionElt(union_all(b for b, _ in bs), bs)

    def _register_parts(self) -> None:
        # reseal over the registered labels (equal, so key and hash stay):
        # a registered element holds registered labels, whoever built it
        self._seal(self.ground, tuple((b, lab.canonical(*lab._key)) for b, lab in self.blocks))

    def shape(self) -> SetPartitionElt:
        return SetPartitionElt.canonical(self.ground, tuple(b for b, _ in self.blocks))

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


def _nonzero(acc: dict) -> dict:
    """``acc`` without its zero coefficients (``acc`` itself if it has none)."""
    return {k: c for k, c in acc.items() if c != 0} if 0 in acc.values() else acc


def _added(a: dict, b: dict) -> dict:
    """The termwise sum of two dicts of nonzero coefficients, zeros dropped."""
    acc = dict(a)
    for k, c in b.items():
        acc[k] = acc.get(k, 0) + c
    return _nonzero(acc)


@functools.lru_cache(maxsize=1 << 14)
def _check_disjoint(*labels: tuple[int, ...]) -> None:
    """Raise unless the parts with these label tuples are pairwise disjoint;
    only successes are cached, keyed on the tuples (hashed in C)."""
    if len({x for p in labels for x in p}) != sum(map(len, labels)):
        raise ValueError("tensor parts must be pairwise disjoint")


def _check_grounds(ground: GroundSet, els) -> None:
    """Raise ``Vec``'s ``ValueError`` for the first of ``els`` over another
    ground set than ``ground``."""
    for el in els:
        if el.ground is not ground:
            raise ValueError(f"element over {el.ground} in Vec over {ground}")


def _check_keys(parts: tuple[GroundSet, ...], keys, slots: Sequence[int]) -> None:
    """Raise ``TensorVec``'s ``ValueError`` for the first of ``keys`` that has
    not one element per part, or whose element in one of ``slots`` lies over
    another ground set than its part."""
    n = len(parts)
    for key in keys:
        if len(key) != n:
            raise ValueError("term arity does not match parts")
        for i in slots:
            if key[i].ground is not parts[i]:
                raise ValueError(f"element over {key[i].ground} in slot for {parts[i]}")


def derived_vec(ground: GroundSet, acc: dict) -> "Vec":
    """The Vec over ``ground`` of ``acc``, a dict of exact coefficients that a
    linear map has just accumulated from checked vectors.

    Its keys are checked as the public constructor checks them, then zeros are
    dropped; nothing is accumulated again."""
    _check_grounds(ground, acc)
    return Vec(ground, _nonzero(acc), _trusted=True)


def derived_tensor(parts: tuple[GroundSet, ...], acc: dict, filled: Sequence[int]) -> "TensorVec":
    """The TensorVec over disjoint ``parts`` of ``acc``, as ``derived_vec``.

    Only the slots in ``filled`` came from rule results; the others were
    copied from a checked tensor and are not checked again."""
    _check_keys(parts, acc, filled)
    return TensorVec(parts, _nonzero(acc), _trusted=True)


class Vec:
    """An exact rational combination of basis elements over one ground set;
    its coefficients are ints unless a Fraction was passed in.

    The public constructor checks every term.  ``_trusted`` is for vectors
    derived from checked ones: ``terms`` is then a dict of nonzero exact
    coefficients over ``ground``, taken as is."""

    __slots__ = ("ground", "terms")

    def __init__(self, ground: GroundSet, terms=(), *, _trusted: bool = False):
        self.ground = ground
        if _trusted:
            self.terms = terms
            return
        acc: dict[Element, int | Fraction] = {}
        for el, c in (terms.items() if hasattr(terms, "items") else terms):
            _check_grounds(ground, (el,))
            c = c if type(c) is int else _exact(c)
            if c != 0:
                acc[el] = acc.get(el, 0) + c
        self.terms = _nonzero(acc)

    @staticmethod
    def zero(ground: GroundSet) -> "Vec":
        return Vec(ground)

    @staticmethod
    def basis(el: Element) -> "Vec":
        return Vec(el.ground, {el: 1}, _trusted=True)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, el: Element) -> int | Fraction:
        return self.terms.get(el, 0)

    def items(self) -> list[tuple[Element, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda p: p[0].sort_key())

    def __add__(self, other: "Vec") -> "Vec":
        if self.ground != other.ground:
            raise ValueError("ground sets differ")
        return Vec(self.ground, _added(self.terms, other.terms), _trusted=True)

    def __sub__(self, other: "Vec") -> "Vec":
        return self + other.scale(-1)

    def __neg__(self) -> "Vec":
        return self.scale(-1)

    def scale(self, c) -> "Vec":
        c = _exact(c)
        return Vec(self.ground, {e: k * c for e, k in self.terms.items()} if c else {},
                   _trusted=True)

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
    """An exact combination of tuples of basis elements over disjoint parts.

    As for ``Vec``, ``_trusted`` takes a tuple of disjoint parts and a dict
    of nonzero exact coefficients as they are."""

    __slots__ = ("parts", "terms")

    def __init__(self, parts: tuple[GroundSet, ...], terms=(), *, _trusted: bool = False):
        if _trusted:
            self.parts, self.terms = parts, terms
            return
        self.parts = parts = tuple(parts)
        _check_disjoint(*(p.labels for p in parts))
        acc: dict[tuple[Element, ...], int | Fraction] = {}
        slots = range(len(parts))
        for key, c in (terms.items() if hasattr(terms, "items") else terms):
            key = tuple(key)
            _check_keys(parts, (key,), slots)
            c = c if type(c) is int else _exact(c)
            if c != 0:
                acc[key] = acc.get(key, 0) + c
        self.terms = _nonzero(acc)

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
        _check_disjoint(*(p.labels for p in parts))
        # distinct factors give distinct keys, and nonzero factors a nonzero
        # product; the keys run in itertools.product's order
        terms = {(): 1}
        for v in vecs:
            terms = {k + (e,): c * ce for k, c in terms.items() for e, ce in v.terms.items()}
        return TensorVec(parts, terms, _trusted=True)

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
        terms = {tuple(k[p] for p in perm): c for k, c in self.terms.items()}
        return TensorVec(parts, terms, _trusted=True)

    def as_vec(self) -> Vec:
        if len(self.parts) != 1:
            raise ValueError("only single-part tensors convert to Vec")
        return Vec(self.parts[0], [(k[0], c) for k, c in self.terms.items()])

    def __add__(self, other: "TensorVec") -> "TensorVec":
        if self.parts != other.parts:
            raise ValueError("tensor parts differ")
        return TensorVec(self.parts, _added(self.terms, other.terms), _trusted=True)

    def __sub__(self, other: "TensorVec") -> "TensorVec":
        return self + other.scale(-1)

    def scale(self, c) -> "TensorVec":
        c = _exact(c)
        return TensorVec(self.parts, {k: v * c for k, v in self.terms.items()} if c else {},
                         _trusted=True)

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


# ---------------------------------------------------------------------------
# set species

class SetSpecies:
    """A set species presented by an element enumerator and a transport rule.

    ``elements_fn(I)`` must return the component over I in a deterministic
    order; ``transport_fn(sigma, x)`` must implement a functorial relabeling.
    Components, their element to position maps and transport tables are cached.
    """

    def __init__(self, name: str, elements_fn: Callable[[GroundSet], Sequence[Element]],
                 transport_fn: Callable[[Bijection, Element], Element]):
        self.name = name
        self.elements_fn = elements_fn
        self.transport_fn = transport_fn
        self._cache: dict = {}
        self._index: dict = {}
        self._moved: dict = {}

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

    def positions(self, I: GroundSet, results: list) -> list[int]:
        """The positions in P[I] of rule results; ValueError for one outside it."""
        index = self.index(I)
        out = [index.get(z) for z in results]
        if None in out:
            z = results[out.index(None)]
            if z.ground != I:
                raise ValueError(f"rule result {z} lives over {z.ground}, not {I}")
            raise ValueError(f"rule result {z} is not an element of {self.name}[{I}]")
        return out

    def dim(self, I: GroundSet) -> int:
        return len(self.elements(I))

    def transport(self, sigma: Bijection, x: Element) -> Element:
        return self.transport_fn(sigma, x)

    def transport_table(self, b: Bijection) -> list[int]:
        """p[b] on positions: entry k is the position in P[b.target] of the
        transport of the k-th element of P[b.source].  Built once per
        bijection, so every check of a run reads the same table; a result
        outside P[b.target] raises ValueError."""
        got = self._moved.get(b)
        if got is None:
            got = self.positions(b.target, [self.transport(b, x) for x in self.elements(b.source)])
            self._moved[b] = got
        return got

    def unit_element(self) -> Element:
        es = self.elements(EMPTY)
        if len(es) != 1:
            raise ValueError(f"{self.name} is not connected: |P[empty]| = {len(es)}")
        return es[0]


# ---------------------------------------------------------------------------
# decomposition enumeration

_DECOMPOSITIONS: dict[tuple, tuple[tuple[GroundSet, ...], ...]] = {}


def decompositions(I: GroundSet, k: int, nonempty: bool = False) -> list[tuple[GroundSet, ...]]:
    """Ordered k-tuples of pairwise disjoint ground sets with union I.

    Enumerated lexicographically by the membership word (the part index of
    each label in increasing label order).  Each ``(I, k, nonempty)`` is
    enumerated once per process and kept as a tuple in a module-level table,
    like ground sets and elements; every call returns a new list of it, so a
    caller may change its list without changing a later call's.
    """
    key = (I, k, nonempty)
    got = _DECOMPOSITIONS.get(key)
    if got is None:
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
        # setdefault: concurrent first calls still agree on one tuple
        got = _DECOMPOSITIONS.setdefault(key, tuple(out))
    return list(got)


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
    del rec     # it refers to itself through its cell: no cycle for the collector
    return out


# ---------------------------------------------------------------------------
# reports and the functoriality check

class CheckReport:
    """Outcome of one verification, in the stable shape used by every module.

    ``elapsed_ms``, ``expected`` and ``peak_rss_kb`` are set after the fact
    by the runner."""

    def __init__(self, check: str, species: str, n: int, status: str, witness: object = None,
                 elapsed_ms: int = 0, expected: bool | None = None):
        self.check = check
        self.species = species
        self.n = n
        self.status = status            # pass | fail | fatal | skip
        self.witness = witness
        self.elapsed_ms = elapsed_ms
        self.expected = expected
        self.peak_rss_kb = None     # the process's ru_maxrss after the row

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self) -> str:
        return "CheckReport(" + ", ".join(f"{k}={v!r}" for k, v in vars(self).items()) + ")"

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
        if include_timing and self.peak_rss_kb is not None:
            out["peak_rss_kb"] = self.peak_rss_kb
        return out


class FatalInconsistency(Exception):
    """A desk-scale contradiction of a theorem: an implementation bug."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# Up to this n the exhaustive transport and naturality routes, and the element
# routes of the order checks, run beside their table routes in ``cross_check``.
TABLE_ORACLE_MAX_N = 3


def cross_check(check: str, key: str, ground_sets: Iterable[GroundSet], table, element,
                oracle_max_n: int) -> CheckReport:
    """Run ``check`` over each ground set I of ``ground_sets`` in turn, by two routes.

    ``table(I)``, the fast route, returns None when the check holds over I,
    False when it fails without naming a witness, and otherwise the witness.
    ``element(I)``, the independent route, returns the first failure over I
    or None; it runs when n <= ``oracle_max_n`` and wherever ``table(I)`` is
    False.  Where both run, a split in verdict, or in witness when the table
    route named one, raises ``FatalInconsistency``.  The first failure is the
    report; a pass carries the size of the last ground set.
    """
    n = 0
    for I in ground_sets:
        n = len(I)
        witness = table(I)
        if witness is not False and n > oracle_max_n:
            if witness is not None:
                return CheckReport(check, key, n, "fail", witness)
            continue
        expected = element(I)
        if expected is None if witness is False else witness != expected:
            raise FatalInconsistency(
                f"table and element {check} checks disagree for {key} at n={n}",
                witness={"table": witness, "element": expected})
        if expected is not None:
            return CheckReport(check, key, n, "fail", expected)
    return CheckReport(check, key, n, "pass")


def transport_check(P: SetSpecies, I: GroundSet) -> CheckReport:
    """Verify the identity, composition and bijectivity laws of transport on I.

    Reads p[sigma] on indices into P[I] (``SetSpecies.transport_table``) for
    each endo-bijection sigma and certifies p[id] = id, that each table
    permutes P[I], and p[sigma o s_i] = p[sigma] o p[s_i] for each adjacent
    transposition s_i, which gives p[sigma o tau] = p[sigma] o p[tau] by
    induction on a word for tau.  The exhaustive route over all pairs finds
    the witness, and is the oracle up to n = TABLE_ORACLE_MAX_N
    (``cross_check``).  Violations are reported with a witness, never raised.
    """
    return cross_check("transport", P.name, [I], lambda I: _transport_certified(P, I),
                       lambda I: _transport_exhaustive(P, I).witness, TABLE_ORACLE_MAX_N)


def _transport_certified(P: SetSpecies, I: GroundSet) -> bool | None:
    """None when the tables certify the laws over I, else False."""
    try:
        p = {s.images: P.transport_table(s) for s in Bijection.all_endo(I)}
    except Exception:  # a result outside P[I] or a transport that raises
        return False
    gens = [p[_swap(I.labels, i)] for i in range(len(I) - 1)]
    ok = p[I.labels] == list(range(P.dim(I))) and all(
        len(set(row)) == len(row)
        and all(p[_swap(images, i)] == [row[k] for k in g] for i, g in enumerate(gens))
        for images, row in p.items())
    return None if ok else False


def _swap(images: tuple, i: int) -> tuple:
    """The images of sigma o s_i, s_i exchanging the i-th and (i+1)-th labels."""
    return images[:i] + (images[i + 1], images[i]) + images[i + 2:]


def _transport_exhaustive(P: SetSpecies, I: GroundSet) -> CheckReport:
    """Every law over every element, every pair of endo-bijections composed.

    Each ``P.transport(b, x)`` is evaluated once, at its first use, and kept
    for the call: every b is an endo-bijection of I, so the composition law
    costs |S_n| * dim transports, not 3 * |S_n|^2 * dim, and a transport
    that raises raises at the same instance."""
    violations: list[dict] = []
    elems = P.elements(I)
    move = functools.cache(P.transport)
    ident = Bijection.identity(I)
    for x in elems:
        if move(ident, x) != x:
            violations.append({"law": "identity", "element": str(x)})
            break
    bijections = list(Bijection.all_endo(I))
    for sigma, tau in itertools.product(bijections, repeat=2):
        comp = sigma.after(tau)
        bad = None
        for x in elems:
            if move(comp, x) != move(sigma, move(tau, x)):
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
        image = [move(sigma, x) for x in elems]
        if sorted(str(y) for y in image) != sorted(str(x) for x in elems):
            violations.append({"law": "bijectivity", "sigma": list(sigma.images)})
            break
    status = "pass" if not violations else "fail"
    witness = violations[0] if violations else None
    return CheckReport("transport", P.name, len(I), status, witness)
