"""Substrate tests: ground sets, bijections, decompositions, exact arithmetic."""

import copy
import itertools
import pickle
import sys
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species_forge.core import (
    EMPTY, Bijection, CheckReport, FatalInconsistency, GroundSet, LabeledPartitionElt,
    LinearOrderElt, MapTo, PermutationElt, SetPartitionElt, TensorVec, UnitElement, Vec,
    cross_check, decompositions, nonempty_compositions, set_partitions, transport_check,
)
from species_forge import core
from species_forge.catalog import make_Perm, make_Pi
from species_forge.controls import label_dropping_species


# ---------------------------------------------------------------------------
# ground sets and bijections

def test_ground_set_canonical():
    assert GroundSet.of([3, 1, 2]).labels == (1, 2, 3)
    assert len(EMPTY) == 0
    with pytest.raises(ValueError):
        GroundSet((2, 1))
    with pytest.raises(ValueError):
        GroundSet((-1, 0))


def test_ground_set_algebra():
    a, b = GroundSet.of([1, 3]), GroundSet.of([2, 5])
    assert a.union(b).labels == (1, 2, 3, 5)
    assert a.intersect(GroundSet.of([3, 4])).labels == (3,)
    assert a.minus(GroundSet.of([3])).labels == (1,)
    with pytest.raises(ValueError):
        a.union(GroundSet.of([3]))
    # unions are memoized only when disjoint: the overlap still raises
    assert a.union(b) is a.union(b) and b.union(a) == a.union(b)
    with pytest.raises(ValueError):
        a.union(GroundSet.of([3]))


def test_equal_ground_sets_are_one_object():
    a, b = GroundSet.of([1, 3]), GroundSet.of([2, 5])
    c, d = GroundSet.of([1, 2, 3]), GroundSet.of([2, 3, 4])
    assert GroundSet((1, 2)) is GroundSet([1, 2]) is GroundSet.of([2, 1, 2]) is GroundSet.first(2)
    assert GroundSet(labels=(1, 2)) is GroundSet.first(2)
    assert a.union(b) is GroundSet((1, 2, 3, 5))
    assert c.intersect(d) is GroundSet((2, 3)) and d.intersect(c) is GroundSet((2, 3))
    assert c.minus(d) is GroundSet((1,)) and c.minus(c) is EMPTY
    I = GroundSet.first(3)
    assert Bijection(I, I, (2, 3, 1)).image_of(GroundSet((1, 2))) is GroundSet((2, 3))
    for parts in decompositions(I, 3) + set_partitions(I):
        for p in parts:
            assert p is GroundSet(p.labels) is GroundSet.of(p)
    assert EMPTY is GroundSet() is GroundSet(())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=6), st.lists(st.integers(0, 6), max_size=6))
def test_ground_set_identity_is_label_equality(a, b):
    same = sorted(set(a)) == sorted(set(b))
    assert (GroundSet.of(a) is GroundSet.of(b)) == same
    assert (GroundSet.of(a) == GroundSet.of(b)) == same
    assert (GroundSet.of(a) != GroundSet.of(b)) == (not same)


@pytest.mark.parametrize("labels", [(), (1,), (1, 2), (0, 3, 7)])
def test_ground_set_hash_is_the_dataclass_hash(labels):
    assert hash(GroundSet(labels)) == hash((labels,))
    assert repr(GroundSet(labels)) == f"GroundSet(labels={labels!r})"


def test_ground_set_is_immutable_and_copies_to_itself():
    for _ in range(2):  # an invalid tuple is never registered, so it raises every time
        with pytest.raises(ValueError):
            GroundSet((2, 1))
    a = GroundSet((1, 4))
    with pytest.raises(AttributeError):
        a.labels = (1, 5)
    with pytest.raises(AttributeError):
        del a.labels
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a.labels == (1, 4)
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.deepcopy(MapTo(a, (0, 1))).ground is a


def test_concurrent_first_calls_share_one_instance():
    # labels no other test builds, so every call below races to register them
    fresh = [tuple(range(1000 + 10 * k, 1004 + 10 * k)) for k in range(1000)]
    got: dict[int, list] = {}
    gate = threading.Barrier(8)

    def build(w: int) -> None:
        gate.wait(timeout=10)
        got[w] = [GroundSet(t) for t in fresh]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(w,)) for w in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers) and len(got) == 8
    for k, t in enumerate(fresh):
        assert all(got[w][k] is GroundSet(t) for w in range(8))


def test_bijection_compose_invert():
    I = GroundSet.first(3)
    s = Bijection(I, I, (2, 3, 1))
    t = Bijection(I, I, (1, 3, 2))
    st_ = s.after(t)
    for x in I:
        assert st_.apply(x) == s.apply(t.apply(x))
    assert s.after(s.invert()).images == I.labels
    assert s.restrict(GroundSet.of([1, 3])).images == (2, 1)
    # the inverse is built once and kept off the fields
    fresh = Bijection(I, I, (2, 3, 1))
    assert s.invert() is s.invert() and s.invert() == fresh.invert()
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(Bijection(I, I, (2, 3, 1)))


def test_bijection_restrict_and_image_of_match_ground_set_of():
    I = GroundSet.first(4)
    subsets = [GroundSet(c) for k in range(5) for c in itertools.combinations(I.labels, k)]
    for sigma in Bijection.all_endo(I):
        for sub in subsets:
            images = tuple(sigma.apply(x) for x in sub.labels)
            assert sigma.image_of(sub) is GroundSet.of(images)
            r = sigma.restrict(sub)
            assert r == Bijection(sub, GroundSet.of(images), images)
            assert r.source is sub and r.target is GroundSet.of(images)


def test_bijection_refuses_labels_outside_its_source():
    sigma = Bijection(GroundSet((1, 2, 3)), GroundSet((2, 4, 6)), (4, 6, 2))
    for call in (lambda: sigma.apply(5), lambda: sigma.restrict(GroundSet((1, 5))),
                 lambda: sigma.image_of(GroundSet((0,))), lambda: sigma.image_of(GroundSet((4,)))):
        with pytest.raises(ValueError):
            call()


_A, _B, _C = GroundSet((1, 2)), GroundSet((2, 3)), GroundSet((4,))
_NONEMPTY, _OVERLAP, _COVER = ("blocks must be nonempty", "blocks overlap",
                               "blocks do not cover the ground set")


_PARTITION_ERRORS = [
    (GroundSet.first(2), (_A, EMPTY), _NONEMPTY),
    (GroundSet.first(3), (_A, _B), _OVERLAP),
    (GroundSet.first(3), (_A,), _COVER),
    (GroundSet.first(2), (GroundSet.first(3),), _COVER),
    (GroundSet.first(2), (), _COVER),
    # precedence: an empty block first, then an overlap, then a missing label
    (GroundSet.first(3), (_B, _A, EMPTY), _NONEMPTY),
    (GroundSet.first(4), (_A, EMPTY), _NONEMPTY),
    (GroundSet.first(4), (_A, _B), _OVERLAP),
    (GroundSet.first(3), (_A, _B, _C), _OVERLAP),
]


def _labeled(blocks) -> tuple:
    return tuple((b, MapTo(b, (0,) * len(b))) for b in blocks)


@pytest.mark.parametrize("ground, blocks, message", _PARTITION_ERRORS)
def test_partition_errors_and_their_precedence(ground, blocks, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SetPartitionElt(ground, blocks)
    with pytest.raises(ValueError, match=f"^{message}$"):
        LabeledPartitionElt(ground, _labeled(blocks))


def test_labeled_partition_refuses_a_label_off_its_block():
    with pytest.raises(ValueError, match="does not live on block"):
        LabeledPartitionElt(GroundSet.first(2), ((GroundSet.first(2), MapTo(GroundSet((1,)), (0,))),))


@pytest.mark.parametrize("n", range(5))
def test_partition_hashes_are_the_field_tuple_hash(n):
    I = GroundSet.first(n)
    for blocks in set_partitions(I):
        for x in (SetPartitionElt(I, blocks[::-1]),
                  LabeledPartitionElt(I, tuple((b, MapTo(b, (1,) * len(b))) for b in blocks))):
            assert hash(x) == hash((x.ground, x.blocks))


@pytest.mark.parametrize("n", range(5))
def test_order_and_permutation_hashes_are_the_field_tuple_hash(n):
    I = GroundSet.first(n)
    for images in itertools.permutations(I.labels):
        for x in (LinearOrderElt(I, list(images)), PermutationElt(I, images),
                  LinearOrderElt.canonical(I, images), PermutationElt.canonical(I, list(images))):
            assert hash(x) == hash((x.ground, images)) == hash((I, images))


# ---------------------------------------------------------------------------
# the element table: one instance per value

_OFF_BLOCK = ((GroundSet.first(2), MapTo(GroundSet((1,)), (0,))),)
_CANONICAL = [
    (MapTo, _A, [0, 1]),
    (SetPartitionElt, GroundSet.first(4), (GroundSet((2, 4)), GroundSet((1, 3)))),
    (LinearOrderElt, GroundSet.first(3), (3, 1, 2)),
    (PermutationElt, GroundSet.first(3), (2, 3, 1)),
    (LabeledPartitionElt, GroundSet.first(3), _labeled((GroundSet((3,)), _A))),
]
_CANONICAL_ERRORS = [
    (MapTo, _A, (0,)),
    (MapTo, _A, (0, -1)),
    (LinearOrderElt, _A, (1, 1)),
    (PermutationElt, _A, (1, 3)),
    (LabeledPartitionElt, GroundSet.first(2), _OFF_BLOCK),
] + [(SetPartitionElt, g, b) for g, b, _ in _PARTITION_ERRORS] + [
    (LabeledPartitionElt, g, _labeled(b)) for g, b, _ in _PARTITION_ERRORS]


@pytest.mark.parametrize("cls, ground, payload", _CANONICAL,
                         ids=[cls.__name__ for cls, _, _ in _CANONICAL])
def test_canonical_is_one_instance_per_value(cls, ground, payload):
    x = cls.canonical(ground, payload)
    built = cls(ground, payload)
    assert type(x) is cls and x is not built and x == built and built == x
    assert hash(x) == hash(built) and repr(x) == repr(built) and str(x) == str(built)
    assert cls.canonical(ground, list(payload)) is x
    assert cls.canonical(built.ground, getattr(built, cls._fields[1])) is x


def test_canonical_partition_is_one_instance_for_every_block_order():
    I = GroundSet.first(5)
    blocks = (GroundSet((1, 4)), GroundSet((2,)), GroundSet((3, 5)))
    for cls, payload in ((SetPartitionElt, blocks), (LabeledPartitionElt, _labeled(blocks))):
        first = cls.canonical(I, payload)
        assert all(cls.canonical(I, p) is first for p in itertools.permutations(payload))
        assert first == cls(I, payload)


@pytest.mark.parametrize("cls, ground, payload", _CANONICAL_ERRORS)
def test_canonical_refuses_what_the_constructor_refuses(cls, ground, payload):
    with pytest.raises(ValueError) as built:
        cls(ground, payload)
    size = len(core._ELEMENTS)
    for _ in range(2):
        with pytest.raises(ValueError) as got:
            cls.canonical(ground, payload)
        assert str(got.value) == str(built.value)
    assert len(core._ELEMENTS) == size


def test_canonical_runs_the_constructor_on_a_miss_only(monkeypatch):
    calls = []
    init = MapTo.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(MapTo, "__init__", counted)
    ground = GroundSet((101, 102))
    x = MapTo.canonical(ground, (7, 9))
    assert MapTo.canonical(ground, [7, 9]) is x and calls == [(ground, (7, 9))]


# ---------------------------------------------------------------------------
# value classes: equality and hash on the fields, repr, immutability, copies

_I2 = GroundSet((1, 2))
_P, _Q = GroundSet((1,)), GroundSet((2,))
VALUES = [
    (UnitElement(), ("ground",), "UnitElement(ground=GroundSet(labels=()))"),
    (MapTo(_I2, (0, 1)), ("ground", "colors"),
     "MapTo(ground=GroundSet(labels=(1, 2)), colors=(0, 1))"),
    (SetPartitionElt.of([[2], [1]]), ("ground", "blocks"),
     "SetPartitionElt(ground=GroundSet(labels=(1, 2)), "
     "blocks=(GroundSet(labels=(1,)), GroundSet(labels=(2,))))"),
    (LinearOrderElt.of((1, 2)), ("ground", "seq"),
     "LinearOrderElt(ground=GroundSet(labels=(1, 2)), seq=(1, 2))"),
    (PermutationElt(_I2, (1, 2)), ("ground", "images"),
     "PermutationElt(ground=GroundSet(labels=(1, 2)), images=(1, 2))"),
    (LabeledPartitionElt.of([(_Q, MapTo(_Q, (1,))), (_P, MapTo(_P, (0,)))]), ("ground", "blocks"),
     "LabeledPartitionElt(ground=GroundSet(labels=(1, 2)), blocks=("
     "(GroundSet(labels=(1,)), MapTo(ground=GroundSet(labels=(1,)), colors=(0,))), "
     "(GroundSet(labels=(2,)), MapTo(ground=GroundSet(labels=(2,)), colors=(1,)))))"),
    (Bijection(_I2, GroundSet((3, 5)), (5, 3)), ("source", "target", "images"),
     "Bijection(source=GroundSet(labels=(1, 2)), target=GroundSet(labels=(3, 5)), "
     "images=(5, 3))"),
]
_FIELDS = {type(x): fields for x, fields, _ in VALUES}


def _grounds(x) -> list:
    """Every GroundSet a value holds, in field order."""
    if isinstance(x, GroundSet):
        return [x]
    if isinstance(x, tuple):
        return [g for y in x for g in _grounds(y)]
    return [g for f in _FIELDS.get(type(x), ()) for g in _grounds(getattr(x, f))]


@pytest.mark.parametrize("x, fields, text", VALUES, ids=[type(x).__name__ for x, _, _ in VALUES])
def test_value_class_contract(x, fields, text):
    values = tuple(getattr(x, f) for f in fields)
    twin = type(x)(*values)
    assert twin is not x and twin == x and not twin != x
    assert hash(x) == hash(twin) == hash(values)
    assert repr(x) == repr(twin) == text
    assert x != values and x.__eq__(values) is NotImplemented and x != 5
    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, f, values[0])
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert tuple(getattr(x, f) for f in fields) == values
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == text
        assert all(a is b for a, b in zip(_grounds(y), _grounds(x)))
    if isinstance(x, core.Element):
        # every kind compares through Element.__eq__ on the key its
        # constructor sealed, and keeps its own one-line __hash__
        cls = type(x)
        assert "__eq__" not in vars(cls) and "__hash__" in vars(cls)
        assert x._key == tuple(getattr(x, f) for f in x._fields) == values
        # a twin built by the constructor finds the stored instance by value
        stored = x if cls is UnitElement else cls.canonical(*values)
        assert stored is not twin and {stored: 0}[twin] == 0
        P = core.SetSpecies("one", lambda I: [stored] if I is x.ground else [], lambda s, y: y)
        assert P.index(x.ground)[twin] == 0


def test_value_classes_with_equal_fields_differ_by_kind():
    order, perm = LinearOrderElt(_I2, (1, 2)), PermutationElt(_I2, (1, 2))
    assert order != perm and perm != order and hash(order) == hash(perm)
    assert len({order, perm}) == 2
    assert MapTo(EMPTY, ()) != UnitElement() and SetPartitionElt(EMPTY, ()) != UnitElement()
    assert hash(UnitElement()) == hash((EMPTY,)) == UnitElement()._hash


def test_bijection_inverse_stays_out_of_eq_hash_repr_and_copies():
    b = Bijection(_I2, GroundSet((3, 5)), (5, 3))
    text, h = repr(b), hash(b)
    inv = b.invert()
    assert repr(b) == text and hash(b) == h and b == Bijection(_I2, GroundSet((3, 5)), (5, 3))
    for c in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert c == b and c.invert() == inv and c.invert().invert() == b


def test_check_report_fields_defaults_and_equality():
    r = CheckReport("associative", "Pi", 3, "pass")
    assert (r.witness, r.elapsed_ms, r.expected) == (None, 0, None)
    assert r.ok and not CheckReport("associative", "Pi", 3, "fail").ok
    assert r == CheckReport(check="associative", species="Pi", n=3, status="pass")
    for other in (CheckReport("associative", "Pi", 3, "pass", {"x": 1}),
                  CheckReport("associative", "Pi", 3, "pass", elapsed_ms=5),
                  CheckReport("associative", "Pi", 3, "pass", expected=True),
                  CheckReport("associative", "Pi", 2, "pass")):
        assert r != other
    assert r != ("associative", "Pi", 3, "pass", None, 0, None)
    r.elapsed_ms, r.expected = 7, False
    assert (r.elapsed_ms, r.expected) == (7, False)
    assert r == CheckReport("associative", "Pi", 3, "pass", None, 7, False)
    assert r.to_json() == {"check": "associative", "species": "Pi", "n": 3, "status": "pass",
                           "expected": False, "elapsed_ms": 0}
    assert r.to_json(include_timing=True)["elapsed_ms"] == 7


# ---------------------------------------------------------------------------
# decompositions: counts against an independent recursion

def ordered_compositions_count(n: int) -> int:
    # a(n) = sum_j C(n, j) a(n - j), a(0) = 1: pick the first nonempty part
    if n == 0:
        return 1
    return sum(comb(n, j) * ordered_compositions_count(n - j) for j in range(1, n + 1))


def bell(n: int) -> int:
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell(k) for k in range(n))


@pytest.mark.parametrize("n", range(5))
def test_two_part_decompositions_count(n):
    I = GroundSet.first(n)
    assert len(decompositions(I, 2)) == 2 ** n


def test_decompositions_of_pair():
    got = decompositions(GroundSet.first(2), 2)
    as_sets = {(a.labels, b.labels) for a, b in got}
    assert as_sets == {((1, 2), ()), ((1,), (2,)), ((2,), (1,)), ((), (1, 2))}
    assert len(got) == len(set(got))


@pytest.mark.parametrize("n,expect", [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)])
def test_nonempty_composition_counts(n, expect):
    I = GroundSet.first(n)
    got = sum(1 for _ in nonempty_compositions(I)) + (1 if n == 0 else 0)
    assert got == expect == ordered_compositions_count(n)


def test_empty_set_single_decomposition():
    assert decompositions(EMPTY, 1) == [(EMPTY,)]


@pytest.mark.parametrize("n", range(6))
def test_set_partition_counts_are_bell(n):
    assert len(set_partitions(GroundSet.first(n))) == bell(n)


def test_set_partitions_blocks_sorted_by_min():
    for blocks in set_partitions(GroundSet.first(4)):
        mins = [b.labels[0] for b in blocks]
        assert mins == sorted(mins)


def test_decomposition_order_is_stable():
    first = decompositions(GroundSet.first(3), 2)
    assert first == decompositions(GroundSet.first(3), 2)


@pytest.mark.parametrize("nonempty", [False, True])
def test_decompositions_are_every_membership_word(nonempty):
    # the brute force reads each part off the word by comparison, with no
    # table and no per-part lists
    for r in range(5):
        for labels in itertools.combinations(range(1, 5), r):
            I = GroundSet(labels)
            for k in range(1, 5):
                want = []
                for word in itertools.product(range(k), repeat=r):
                    parts = tuple(GroundSet.of(x for x, w in zip(labels, word) if w == j)
                                  for j in range(k))
                    if not nonempty or all(parts):
                        want.append(parts)
                for _ in range(2):
                    got = decompositions(I, k, nonempty)
                    assert type(got) is list and got == want


def test_decompositions_survive_a_caller_changing_its_list():
    I = GroundSet.first(3)
    first = decompositions(I, 3, nonempty=True)
    want = list(first)
    first.reverse()
    first.append((EMPTY,))
    again = decompositions(I, 3, nonempty=True)
    assert again is not first and again == want
    assert all(a is b for a, b in zip(again, want))


def test_decompositions_refuse_k_below_one_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="k must be at least 1"):
            decompositions(GroundSet.first(2), 0)
    assert not any(k < 1 for _, k, _ in core._DECOMPOSITIONS)


# ---------------------------------------------------------------------------
# elements: canonical forms

def test_partition_element_canonical():
    x = SetPartitionElt.of([[2, 3], [1]])
    y = SetPartitionElt.of([[1], [3, 2]])
    assert x == y
    assert str(x) == "{1|2,3}"
    with pytest.raises(ValueError):
        SetPartitionElt(GroundSet.first(2), (GroundSet.of([1]),))


def test_permutation_cycles():
    p = PermutationElt.from_cycles(GroundSet.first(4), [(1, 3, 2, 4)])
    assert p.apply(1) == 3 and p.apply(4) == 1
    assert p.cycles() == ((1, 3, 2, 4),)
    assert str(PermutationElt.from_cycles(GroundSet.first(3), [(1, 2)])) == "(1 2)(3)"


def test_unit_element_only_over_empty():
    UnitElement()
    with pytest.raises(ValueError):
        UnitElement(GroundSet.first(1))


def test_mapto_and_order_validation():
    with pytest.raises(ValueError):
        MapTo(GroundSet.first(2), (0,))
    with pytest.raises(ValueError):
        LinearOrderElt(GroundSet.first(2), (1, 1))


# ---------------------------------------------------------------------------
# vectors and tensors

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)


def _vec(coeffs) -> Vec:
    I = GroundSet.first(2)
    els = [SetPartitionElt.of([[1], [2]]), SetPartitionElt.of([[1, 2]])]
    return Vec(I, list(zip(els, coeffs)))


@settings(max_examples=60, deadline=None)
@given(st.tuples(fractions, fractions), st.tuples(fractions, fractions),
       st.tuples(fractions, fractions), fractions, fractions)
def test_vec_space_axioms(a, b, c, s, t):
    u, v, w = _vec(a), _vec(b), _vec(c)
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert u + Vec.zero(u.ground) == u
    assert u + (-u) == Vec.zero(u.ground)
    assert (s * t) * u == Fraction(s) * (t * u)
    assert s * (u + v) == s * u + s * v
    assert (Fraction(s) + Fraction(t)) * u == s * u + t * u
    assert 1 * u == u


def test_vec_drops_zero_terms():
    v = _vec((Fraction(0), Fraction(3)))
    assert len(v.terms) == 1
    assert v.coeff(SetPartitionElt.of([[1], [2]])) == 0


def test_int_coefficients_stay_int_until_a_fraction_enters():
    x, y = SetPartitionElt.of([[1]]), SetPartitionElt.of([[2]])
    v = Vec.basis(x).scale(2) + Vec.basis(x)
    assert v.coeff(x) == 3 and type(v.coeff(x)) is int
    t = TensorVec.tensor(v, Vec.basis(y).scale(-4))
    assert t.coeff((x, y)) == -12 and type(t.coeff((x, y))) is int
    assert type((v - v).coeff(x)) is int and type(t.coeff((y, x))) is int
    half = Vec(x.ground, [(x, Fraction(1, 2))])
    assert (v + half).coeff(x) == Fraction(7, 2)
    assert type(v.scale(Fraction(2)).coeff(x)) is Fraction
    assert type(Vec(x.ground, [(x, Fraction(2))]).coeff(x)) is Fraction
    assert type(TensorVec.tensor(half, Vec.basis(y)).coeff((x, y))) is Fraction


def test_bool_coefficients_become_int_and_floats_are_rejected():
    x, y = SetPartitionElt.of([[1]]), SetPartitionElt.of([[2]])
    v = Vec(x.ground, [(x, True)])
    assert v.coeff(x) == 1 and type(v.coeff(x)) is int
    assert type(Vec.basis(x).scale(True).coeff(x)) is int
    t = TensorVec((x.ground, y.ground), [((x, y), True)])
    assert type(t.coeff((x, y))) is int
    with pytest.raises(TypeError):
        Vec(x.ground, [(x, 1.0)])
    with pytest.raises(TypeError):
        Vec.basis(x).scale(0.5)
    with pytest.raises(TypeError):
        TensorVec((x.ground, y.ground), [((x, y), 2.0)])


def test_constructors_reject_terms_over_other_ground_sets():
    # every term is checked, a zero one included; the linear maps raise the
    # same messages for their rule results
    x, y = SetPartitionElt.of([[1]]), SetPartitionElt.of([[2]])
    parts = (x.ground, y.ground)
    for build, message in (
            (lambda: Vec(x.ground, [(x, 1), (y, 0)]), "element over {2} in Vec over {1}"),
            (lambda: TensorVec(parts, [((x, y), 1), ((x, x), 0)]),
             "element over {1} in slot for {2}"),
            (lambda: TensorVec(parts, [((x,), 1)]), "term arity does not match parts")):
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == message


def test_int_and_fraction_coefficients_print_alike():
    x, y = SetPartitionElt.of([[1]]), SetPartitionElt.of([[2]])
    for c in (2, -3, 1):
        assert str(Vec(x.ground, [(x, c)])) == str(Vec(x.ground, [(x, Fraction(c))]))
        assert str(TensorVec.basis((x, y)).scale(c)) == \
            str(TensorVec.basis((x, y)).scale(Fraction(c)))
    assert str(Vec(x.ground, [(x, 2)])) == "2*{1}"


def test_tensor_bilinear():
    x = Vec.basis(SetPartitionElt.of([[1]])).scale(2)
    y = Vec.basis(SetPartitionElt.of([[2]])).scale(3)
    t = TensorVec.tensor(x, y)
    assert t.coeff((SetPartitionElt.of([[1]]), SetPartitionElt.of([[2]]))) == 6
    assert TensorVec.tensor(Vec.zero(GroundSet.of([1])), y).is_zero()


def test_tensor_twist():
    x = Vec.basis(SetPartitionElt.of([[1]]))
    y = Vec.basis(SetPartitionElt.of([[2]]))
    t = TensorVec.tensor(x, y).scale(5)
    tw = t.twist((1, 0))
    assert tw.parts == (GroundSet.of([2]), GroundSet.of([1]))
    assert tw.coeff((SetPartitionElt.of([[2]]), SetPartitionElt.of([[1]]))) == 5
    assert tw.twist((1, 0)) == t


def test_tensor_rejects_overlapping_parts():
    x = Vec.basis(SetPartitionElt.of([[1]]))
    with pytest.raises(ValueError):
        TensorVec.tensor(x, x)


# The derived vectors (tensor, twist, +, scale) skip the checks of the
# public constructor; rebuilding their terms through it must give the same.

_GROUNDS = (GroundSet.of([1]), GroundSet.of([2, 3]), GroundSet.of([4]))
_small = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))


def _vecs(G: GroundSet):
    els = [MapTo(G, cs) for cs in itertools.product((0, 1), repeat=len(G))]
    return st.lists(st.tuples(st.sampled_from(els), _small), max_size=6).map(
        lambda terms: Vec(G, terms))


def _typed(v) -> dict:
    return {k: (type(c), c) for k, c in v.terms.items()}


def _same(got, want):
    assert type(got) is type(want)
    for attr in ("ground", "parts"):
        assert getattr(got, attr, None) == getattr(want, attr, None)
    assert _typed(got) == _typed(want) and 0 not in got.terms.values()


@settings(max_examples=80, deadline=None)
@given(_vecs(_GROUNDS[0]), _vecs(_GROUNDS[0]), _vecs(_GROUNDS[1]), _vecs(_GROUNDS[2]),
       _small, st.permutations(range(3)))
def test_derived_vectors_match_the_validating_constructor(u, u2, v, w, s, perm):
    G = u.ground
    d = u2 - u                          # u + d cancels every term of u outside u2
    _same(u + d, Vec(G, [*u.terms.items(), *d.terms.items()]))
    assert u + d == u2
    _same(u.scale(s), Vec(G, [(e, c * s) for e, c in u.terms.items()]))
    t = TensorVec.tensor(u, v)
    _same(t, TensorVec((G, v.ground), [((a, b), c * e) for a, c in u.terms.items()
                                       for b, e in v.terms.items()]))
    t3 = TensorVec.tensor(u, v, w)
    _same(t3, TensorVec(t.parts + (w.ground,), [(k + (z,), c * e) for k, c in t.terms.items()
                                                for z, e in w.terms.items()]))
    _same(t3.twist(perm), TensorVec(tuple(t3.parts[p] for p in perm),
                                    [(tuple(k[p] for p in perm), c) for k, c in t3.terms.items()]))
    t2 = TensorVec.tensor(u2, v) - t
    _same(t + t2, TensorVec(t.parts, [*t.terms.items(), *t2.terms.items()]))
    _same(t.scale(s), TensorVec(t.parts, [(k, c * s) for k, c in t.terms.items()]))


@settings(max_examples=40, deadline=None)
@given(_vecs(_GROUNDS[0]), _vecs(_GROUNDS[1]), _vecs(_GROUNDS[2]))
def test_tensor_terms_run_in_product_order(u, v, w):
    # linear maps call their rules in term order, so it is part of the result
    for vecs in ((u, v), (u, v, w), (w,)):
        want = []
        for combo in itertools.product(*(x.terms.items() for x in vecs)):
            c = 1
            for _, k in combo:
                c *= k
            want.append((tuple(e for e, _ in combo), c))
        assert list(TensorVec.tensor(*vecs).terms.items()) == want


# ---------------------------------------------------------------------------
# cross_check: a fast route beside an independent one

def _cross_check_demo(table_at, element_at):
    """cross_check over {1..n}, n <= 4, with the oracle bound 2, where each
    route answers at n from its dict (None where n is absent): the report as
    (status, n, witness), and the n at which the element route ran."""
    ran = []

    def element(I):
        ran.append(len(I))
        return element_at.get(len(I))

    rep = cross_check("demo", "K", map(GroundSet.first, range(5)),
                      lambda I: table_at.get(len(I)), element, 2)
    return (rep.status, rep.n, rep.witness), ran


@pytest.mark.parametrize("table_at, element_at, report, ran", [
    pytest.param({}, {}, ("pass", 4, None), [0, 1, 2], id="holds"),
    pytest.param({2: {"w": 2}}, {2: {"w": 2}}, ("fail", 2, {"w": 2}), [0, 1, 2],
                 id="witnesses-agree-at-bound"),
    pytest.param({1: False}, {1: {"e": 1}}, ("fail", 1, {"e": 1}), [0, 1],
                 id="false-takes-element-witness-at-bound"),
    pytest.param({3: {"w": 3}}, {3: {"e": 3}}, ("fail", 3, {"w": 3}), [0, 1, 2],
                 id="table-witness-trusted-above-bound"),
    pytest.param({3: False}, {3: {"e": 3}}, ("fail", 3, {"e": 3}), [0, 1, 2, 3],
                 id="false-takes-element-witness-above-bound"),
])
def test_cross_check_reports(table_at, element_at, report, ran):
    assert _cross_check_demo(table_at, element_at) == (report, ran)


@pytest.mark.parametrize("table_at, element_at, n", [
    pytest.param({2: {"w": 2}}, {2: {"e": 2}}, 2, id="witness-split-at-bound"),
    pytest.param({}, {1: {"e": 1}}, 1, id="table-holds-element-fails"),
    pytest.param({0: {"w": 0}}, {}, 0, id="table-fails-element-holds"),
    pytest.param({2: False}, {}, 2, id="false-unconfirmed-at-bound"),
    pytest.param({4: False}, {}, 4, id="false-unconfirmed-above-bound"),
])
def test_cross_check_split_is_fatal(table_at, element_at, n):
    with pytest.raises(FatalInconsistency) as exc:
        _cross_check_demo(table_at, element_at)
    assert str(exc.value) == f"table and element demo checks disagree for K at n={n}"
    assert exc.value.witness == {"table": table_at.get(n), "element": element_at.get(n)}


# ---------------------------------------------------------------------------
# transport checks

@pytest.mark.parametrize("n", range(5))
def test_transport_check_builtins_exhaustive(n):
    from species_forge.catalog import make_E, make_E_C, make_L, make_S, make_X_C
    entries = (make_E(), make_E_C(2), make_Pi(), make_L(), make_Perm(),
               make_S(make_X_C(2)))
    for entry in entries:
        assert transport_check(entry.species, GroundSet.first(n)).status == "pass"


def test_transport_check_labeled_maps_exhaustive_n4():
    from species_forge.catalog import make_E_C, make_S
    sp = make_S(make_E_C(2)).species
    assert transport_check(sp, GroundSet.first(4)).status == "pass"


def test_transport_check_broken_species():
    rep = transport_check(label_dropping_species(), GroundSet.first(2))
    assert rep.status == "fail"
    assert rep.witness["law"] in ("identity", "composition")
