"""Primitives, the classification isomorphisms, and the block decomposition."""

from fractions import Fraction
from math import factorial

import pytest

from species_forge.catalog import (
    make_E_C, make_Perm, make_Pi, make_S, make_X_C, with_derived_pi,
)
from species_forge.classify import (
    check_fmu_intertwines, check_fpi_intertwines, check_primitives_match,
    check_takeuchi_closed_form, f_mu, f_pi, nabla_X_decompose,
    primitive_basis_elements, primitive_dims, primitives,
)
from species_forge.core import (
    GroundSet, LabeledPartitionElt, MapTo, PermutationElt, SetPartitionElt,
    set_partitions,
)
from species_forge.engine import hopf_from


@pytest.fixture(scope="module")
def entries():
    return {e.key: e for e in (make_E_C(2), make_Perm(), make_Pi())}


# ---------------------------------------------------------------------------
# primitive spaces

def test_primitive_dims_Pi(entries):
    h = hopf_from(entries["Pi"], "mu", "mu")
    assert primitive_dims(h, 4) == [1, 1, 1, 1]
    one_block = primitives(h, GroundSet.first(3))
    assert len(one_block) == 1
    assert one_block[0].items() == [(SetPartitionElt.of([[1, 2, 3]]), Fraction(1))]


def test_primitive_dims_Perm(entries):
    h = hopf_from(entries["Perm"], "mu", "mu")
    assert primitive_dims(h, 4) == [1, 1, 2, 6]  # (n-1)! transitive counts


def test_primitive_dims_E_C2(entries):
    h = hopf_from(entries["E_C:2"], "mu", "mu")
    assert primitive_dims(h, 3) == [2, 0, 0]


def test_primitive_dims_decomposition_order_independent(entries):
    # the kernel intersection does not depend on which triple supplies Delta
    pi = entries["Pi"]
    h1 = hopf_from(pi, "mu", "pi")
    h2 = hopf_from(pi, "pi", "pi")
    for n in range(1, 4):
        I = GroundSet.first(n)
        assert len(primitives(h1, I)) == len(primitives(h2, I))


def test_primitive_basis_elements(entries):
    one = primitive_basis_elements(entries["Pi"].mu, GroundSet.first(3))
    assert one == (SetPartitionElt.of([[1, 2, 3]]),)
    three_cycles = primitive_basis_elements(entries["Perm"].mu, GroundSet.first(3))
    assert set(three_cycles) == {
        PermutationElt.from_cycles(GroundSet.first(3), [(1, 2, 3)]),
        PermutationElt.from_cycles(GroundSet.first(3), [(1, 3, 2)])}
    ec = primitive_basis_elements(entries["E_C:2"].mu, GroundSet.first(2))
    assert ec == ()
    assert len(primitive_basis_elements(entries["E_C:2"].mu, GroundSet.first(1))) == 2


@pytest.mark.parametrize("key", ["E_C:2", "Perm", "Pi"])
def test_primitives_match_span(entries, key):
    assert check_primitives_match(entries[key], 4).ok


def test_primitives_of_S_q_are_one_block():
    entry = make_S(make_E_C(2))
    for n in range(1, 4):
        I = GroundSet.first(n)
        prim = primitive_basis_elements(entry.mu, I)
        assert all(len(X.blocks) == 1 for X in prim)
        assert len(prim) == 2 ** n  # one per label of the single block I
    assert check_primitives_match(entry, 3).ok


# ---------------------------------------------------------------------------
# f^mu

def test_fmu_Pi_multiplies_blocks(entries):
    fm = f_mu(entries["Pi"].mu, 3, species_key="Pi")
    I = GroundSet.first(3)
    one12 = SetPartitionElt.of([[1, 2]])
    one3 = SetPartitionElt.of([[3]])
    X = LabeledPartitionElt.of([(GroundSet.of([1, 2]), one12), (GroundSet.of([3]), one3)])
    assert fm.apply(X) == SetPartitionElt.of([[1, 2], [3]])
    assert fm.shape(SetPartitionElt.of([[1, 2], [3]])) == SetPartitionElt.of([[1, 2], [3]])


def test_fmu_Perm_counting_identity(entries):
    # sum over set partitions of prod (|B| - 1)! equals n!
    for n in range(5):
        I = GroundSet.first(n)
        total = 0
        for blocks in set_partitions(I):
            prod = 1
            for b in blocks:
                prod *= factorial(len(b) - 1)
            total += prod
        assert total == factorial(n)
    fm = f_mu(entries["Perm"].mu, 4, species_key="Perm")
    assert len(fm.table(GroundSet.first(4))) == 24


@pytest.mark.parametrize("key", ["E_C:2", "Perm", "Pi"])
def test_fmu_bijective_and_intertwining(entries, key):
    fm = f_mu(entries[key].mu, 3, species_key=key)
    assert check_fmu_intertwines(fm, 3).ok


def test_fmu_S_of_E_C2():
    entry = make_S(make_E_C(2))
    fm = f_mu(entry.mu, 3, species_key=entry.key)
    assert check_fmu_intertwines(fm, 3).ok
    for n in range(4):
        I = GroundSet.first(n)
        assert len(fm.table(I)) == entry.species.dim(I)


# ---------------------------------------------------------------------------
# f^pi

def test_fpi_E_C2_is_color_identity():
    ec = make_E_C(2)
    fp = f_pi(ec.pi, 3, species_key="E_C:2")
    for n in range(4):
        I = GroundSet.first(n)
        for f in ec.species.elements(I):
            # colors enumerate the singleton component in order, so the
            # normalized isomorphism is the identity on maps
            assert fp.apply(f) == f
    assert check_fpi_intertwines(fp, 3).ok


def test_fpi_S_X2():
    entry = with_derived_pi(make_S(make_X_C(2)), 3)
    fp = f_pi(entry.pi, 3, species_key=entry.key)
    assert check_fpi_intertwines(fp, 3).ok
    for n in range(4):
        for f in fp.e_c.species.elements(GroundSet.first(n)):
            want = LabeledPartitionElt.of([
                (GroundSet.of([i]), MapTo.from_pairs([(i, f.color_of(i))]))
                for i in f.ground.labels])
            assert fp.apply(f) == want, f  # singleton blocks keep their colors


def test_fpi_rejects_non_bijective():
    pi = make_Pi()
    with pytest.raises(ValueError, match="bijective"):
        f_pi(pi.pi, 2, species_key="Pi")


def test_lsd_primitive_profile():
    ec = make_E_C(3)
    h = hopf_from(ec, "pi", "pi")
    dims = primitive_dims(h, 3)
    assert dims[0] == 3 and dims[1:] == [0, 0]


# ---------------------------------------------------------------------------
# the block-product decomposition

def test_nabla_X_Pi_n2(entries):
    h = hopf_from(entries["Pi"], "mu", "mu")
    dec = nabla_X_decompose(h, GroundSet.first(2))
    dims = {tuple(tuple(b) for b in blocks): len(vecs) for blocks, vecs in dec.components}
    assert dims == {((1, 2),): 1, ((1,), (2,)): 1}
    assert dec.total_dim == 2
    assert dec.certified == {"direct_sum": True, "inverse_isomorphisms": True,
                             "kernel_straddle": True}


def test_nabla_X_Perm_n3_dims_by_type(entries):
    h = hopf_from(entries["Perm"], "mu", "mu")
    dec = nabla_X_decompose(h, GroundSet.first(3))
    by_type = {}
    for blocks, vecs in dec.components:
        t = tuple(sorted((len(b) for b in blocks), reverse=True))
        by_type[t] = by_type.get(t, 0) + len(vecs)
    assert by_type == {(3,): 2, (2, 1): 3, (1, 1, 1): 1}
    assert dec.total_dim == 6


def test_nabla_X_kernel_example(entries):
    # ker Delta_{{1},{2}} on partitions is spanned by the straddling one-block
    h = hopf_from(entries["Pi"], "mu", "mu")
    dec = nabla_X_decompose(h, GroundSet.first(2))
    straddle = [vecs for blocks, vecs in dec.components if len(blocks) == 1][0]
    assert straddle[0].items()[0][0] == SetPartitionElt.of([[1, 2]])


def test_nabla_X_json_shape(entries):
    h = hopf_from(entries["Pi"], "mu", "mu")
    dec = nabla_X_decompose(h, GroundSet.first(2))
    js = dec.to_json()
    assert js["total_dim"] == 2
    assert {"blocks": [[1, 2]], "dim": 1} in js["components"]


def test_nabla_X_requires_commutative():
    from species_forge.catalog import make_L
    h = hopf_from(make_L(), "mu", "mu")
    with pytest.raises(ValueError, match="commutative"):
        nabla_X_decompose(h, GroundSet.first(2))


# ---------------------------------------------------------------------------
# the closed-form antipode on block components

@pytest.mark.parametrize("key", ["E_C:2", "Perm", "Pi"])
def test_takeuchi_closed_form(entries, key):
    assert check_takeuchi_closed_form(entries[key], 3).ok


def test_takeuchi_closed_form_Pi_n4(entries):
    assert check_takeuchi_closed_form(entries["Pi"], 4).ok
