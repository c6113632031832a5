"""Substrate tests: ground sets, bijections, decompositions, exact arithmetic."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species_forge.core import (
    EMPTY, Bijection, GroundSet, LinearOrderElt, MapTo, PermutationElt,
    SetPartitionElt, TensorVec, UnitElement, Vec, decompositions,
    nonempty_compositions, set_partitions, transport_check,
)
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


def test_bijection_compose_invert():
    I = GroundSet.first(3)
    s = Bijection(I, I, (2, 3, 1))
    t = Bijection(I, I, (1, 3, 2))
    st_ = s.after(t)
    for x in I:
        assert st_.apply(x) == s.apply(t.apply(x))
    assert s.after(s.invert()).images == I.labels
    assert s.restrict(GroundSet.of([1, 3])).images == (2, 1)


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
