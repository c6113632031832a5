"""Catalog species: component counts, system evaluations, naturality."""

import itertools
import re
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from species_forge.catalog import (
    MAX_COLORS, MAX_NESTING, CatalogEntry, _mapto_merge, make_E, make_E_C, make_L, make_Perm,
    make_Pi, make_S, make_X_C, parse_species, with_derived_pi,
)
from species_forge.controls import (
    _MAKERS, _MONOIDS, _grid, blob_system, collapse_system, concat_system,
    label_dropping_species,
)
from species_forge.core import (
    Bijection, GroundSet, LabeledPartitionElt, LinearOrderElt, MapTo, PermutationElt,
    SetPartitionElt, decompositions,
)
from species_forge.engine import check_naturality


def test_E_C_counts_and_systems():
    ec = make_E_C(2)
    assert [ec.species.dim(GroundSet.first(n)) for n in range(4)] == [1, 2, 4, 8]
    f = MapTo.from_pairs([(1, 0)])
    g = MapTo.from_pairs([(2, 1)])
    assert ec.mu(GroundSet.of([1]), GroundSet.of([2]), f, g) == \
        MapTo.from_pairs([(1, 0), (2, 1)])
    h = MapTo.from_pairs([(1, 0), (2, 1), (3, 0)])
    S, T = GroundSet.of([1, 3]), GroundSet.of([2])
    assert ec.pi(S, T, h) == (MapTo.from_pairs([(1, 0), (3, 0)]),
                              MapTo.from_pairs([(2, 1)]))


def test_E_is_one_color():
    e = make_E()
    assert all(e.species.dim(GroundSet.first(n)) == 1 for n in range(5))


def test_E_C3_dims():
    ec = make_E_C(3)
    assert [ec.species.dim(GroundSet.first(n)) for n in range(5)] == [1, 3, 9, 27, 81]


def test_Pi_counts_and_systems():
    pi = make_Pi()
    assert [pi.species.dim(GroundSet.first(n)) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    x = SetPartitionElt.of([[1], [2]])
    y = SetPartitionElt.of([[3]])
    assert pi.mu(GroundSet.first(2), GroundSet.of([3]), x, y) == \
        SetPartitionElt.of([[1], [2], [3]])
    z = SetPartitionElt.of([[1, 3], [2]])
    assert pi.pi(GroundSet.of([1, 2]), GroundSet.of([3]), z) == \
        (SetPartitionElt.of([[1], [2]]), SetPartitionElt.of([[3]]))


def test_L_concatenation_and_restriction():
    L = make_L()
    l1 = LinearOrderElt.of([2, 1])
    l2 = LinearOrderElt.of([3])
    assert L.mu(GroundSet.first(2), GroundSet.of([3]), l1, l2) == \
        LinearOrderElt.of([2, 1, 3])
    l = LinearOrderElt(GroundSet.first(3), (2, 1, 3))
    got = L.pi(GroundSet.of([1, 3]), GroundSet.of([2]), l)
    assert got == (LinearOrderElt(GroundSet.of([1, 3]), (1, 3)),
                   LinearOrderElt(GroundSet.of([2]), (2,)))


def test_Perm_first_return_spec_example():
    perm = make_Perm()
    lam = PermutationElt.from_cycles(GroundSet.first(4), [(1, 3, 2, 4)])
    a, b = perm.pi(GroundSet.of([1, 2]), GroundSet.of([3, 4]), lam)
    assert a == PermutationElt.from_cycles(GroundSet.of([1, 2]), [(1, 2)])
    assert b == PermutationElt.from_cycles(GroundSet.of([3, 4]), [(3, 4)])


@pytest.mark.parametrize("n", range(5))
def test_Perm_L_counts(n):
    assert make_Perm().species.dim(GroundSet.first(n)) == factorial(n)
    assert make_L().species.dim(GroundSet.first(n)) == factorial(n)


def test_S_over_single_color_point_matches_E():
    # only all-singleton shapes admit labels, one choice each
    sq = make_S(make_X_C(1))
    for n in range(5):
        assert sq.species.dim(GroundSet.first(n)) == 1


def test_S_over_E_positive_matches_Pi_elementwise():
    sq = make_S(make_E())
    pi = make_Pi()
    for n in range(5):
        I = GroundSet.first(n)
        shapes = {X.shape() for X in sq.species.elements(I)}
        assert shapes == set(pi.species.elements(I))
        assert sq.species.dim(I) == pi.species.dim(I)


def test_S_union_product():
    sq = make_S(make_X_C(2))
    # only all-singleton shapes carry labels, so dim is 2^n
    assert sq.species.dim(GroundSet.of([2, 3])) == 4
    X = LabeledPartitionElt.of([(GroundSet.of([1]), MapTo.from_pairs([(1, 0)]))])
    Y = LabeledPartitionElt.of([(GroundSet.of([2]), MapTo.from_pairs([(2, 1)]))])
    got = sq.mu(GroundSet.of([1]), GroundSet.of([2]), X, Y)
    assert got == LabeledPartitionElt.of([
        (GroundSet.of([1]), MapTo.from_pairs([(1, 0)])),
        (GroundSet.of([2]), MapTo.from_pairs([(2, 1)]))])


def test_S_product_of_unregistered_labels_holds_registered_labels():
    # over ground sets no other test uses, so this product registers its
    # value: the registered element must hold the registered labels, not the
    # ones MapTo.from_pairs built, or the enumeration hands those out
    sq = make_S(make_X_C(2))
    S, T = GroundSet((91,)), GroundSet((92,))
    X = LabeledPartitionElt.of([(S, MapTo.from_pairs([(91, 0)]))])
    Y = LabeledPartitionElt.of([(T, MapTo.from_pairs([(92, 1)]))])
    got = sq.mu(S, T, X, Y)
    assert got is sq.mu(S, T, X, Y)
    for z in sq.species.elements(S.union(T)):
        assert all(lab is MapTo.canonical(lab.ground, lab.colors) for _, lab in z.blocks)
    assert got in sq.species.elements(S.union(T))


def _label_walk(S, T, x, y):
    ground = S.union(T)
    return MapTo.canonical(ground, tuple(
        x.color_of(l) if l in S else y.color_of(l) for l in ground.labels))


def test_mapto_merge_is_the_label_walk():
    # every disjoint (S, T) with S u T in {1..4}: the third part is the rest
    for S, T, _ in decompositions(GroundSet.first(4), 3):
        for cx in itertools.product(range(2), repeat=len(S)):
            for cy in itertools.product(range(2), repeat=len(T)):
                x, y = MapTo.canonical(S, cx), MapTo.canonical(T, cy)
                got = _mapto_merge(S, T, x, y)
                want = MapTo.from_pairs([*zip(S.labels, cx), *zip(T.labels, cy)])
                assert got is _label_walk(S, T, x, y) is MapTo.canonical(want.ground, want.colors)


def test_mapto_merge_of_a_map_off_its_part_is_the_label_walk():
    S, T = GroundSet((1,)), GroundSet((2,))
    x, y = MapTo.canonical(S, (0,)), MapTo.canonical(T, (1,))
    for bad in (MapTo.canonical(GroundSet((3,)), (1,)), MapTo(S, (1,))):
        for args in ((S, T, bad, y), (S, T, x, bad), (T, S, bad, x), (T, S, y, bad)):
            try:
                want = _label_walk(*args)
            except ValueError as e:
                with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                    _mapto_merge(*args)
            else:
                assert _mapto_merge(*args) is want
    wide = MapTo.canonical(GroundSet((1, 2)), (1, 0))
    assert _mapto_merge(S, T, wide, y) is _label_walk(S, T, wide, y)
    with pytest.raises(ValueError, match="ground sets overlap"):
        _mapto_merge(S, S, x, x)


@pytest.mark.parametrize("kind, m", [args for family, args in _grid() if family == "blob"])
def test_blob_products_are_the_monoid_products(kind, m):
    op, ident = _MONOIDS[kind](m)
    mu = blob_system(kind, m).mu
    for n in range(4):
        for S, T in decompositions(GroundSet.first(n), 2):
            for x in mu.species.elements(S):
                for y in mu.species.elements(T):
                    a, b = (x.colors or (ident,))[0], (y.colors or (ident,))[0]
                    U = S.union(T)
                    assert mu(S, T, x, y) is MapTo.canonical(U, (op(a, b),) * len(U))


def test_S_X2_derived_pi_is_bijective_inverse():
    entry = with_derived_pi(make_S(make_X_C(2)), 3)
    I = GroundSet.first(2)
    S, T = GroundSet.of([1]), GroundSet.of([2])
    for z in entry.species.elements(I):
        a, b = entry.pi(S, T, z)
        assert entry.mu(S, T, a, b) == z


@pytest.mark.parametrize("spec", ["E", "E_C:2", "Pi", "L", "Perm", "S(X_C:2)"])
def test_naturality_catalog_exhaustive_n4(spec):
    assert check_naturality(parse_species(spec), 4).status == "pass"


def test_naturality_S_of_maps_n4():
    assert check_naturality(make_S(make_E_C(2)), 4).status == "pass"


def _systems(name: str):
    """The species, mu and pi (None where it has none) of a catalog spec or
    a control."""
    if name == "broken":
        return label_dropping_species(), None, None
    if name in _CONTROLS:
        mu = _CONTROLS[name]().mu
        return mu.species, mu, None
    entry = parse_species(name)
    if entry.pi is None:
        entry = with_derived_pi(entry, 3)
    return entry.species, entry.mu, entry.pi


_CONTROLS = {"concat": lambda: concat_system(True), "blob": lambda: blob_system("zadd", 3),
             "collapse": lambda: collapse_system(2, 2)}


@pytest.mark.parametrize("name", ["E_C:2", "Pi", "L", "Perm", "S(X_C:2)", *_CONTROLS, "broken"])
def test_rule_and_transport_results_are_the_enumerated_elements(name):
    """Every construction site builds through ``Element.canonical``: each
    result is the very instance enumerated at its position, and each block
    label is the registered instance of its value, so later dict lookups
    match them by identity."""
    sp, mu, pi = _systems(name)

    def enumerated(z):
        labels = [lab for _, lab in z.blocks] if isinstance(z, LabeledPartitionElt) else []
        return z is sp.elements(z.ground)[sp.index(z.ground)[z]] and all(
            lab is MapTo.canonical(lab.ground, lab.colors) for lab in labels)

    for n in range(4):
        I = GroundSet.first(n)
        assert all(enumerated(x) for x in sp.elements(I))
        for S, T in decompositions(I, 2):
            if mu is not None:
                assert all(enumerated(mu(S, T, x, y))
                           for x in sp.elements(S) for y in sp.elements(T))
            if pi is not None:
                assert all(enumerated(z) for c in sp.elements(I) for z in pi(S, T, c))
        for sigma in Bijection.all_endo(I):
            for A, _ in decompositions(I, 2):
                tau = sigma.restrict(A)
                assert all(enumerated(sp.transport(tau, x)) for x in sp.elements(A))


def test_dims_depend_only_on_size():
    pi = make_Pi()
    assert pi.species.dim(GroundSet.of([2, 5, 9])) == pi.species.dim(GroundSet.first(3))


@pytest.mark.parametrize("spec", ["E", "E_C:2", "Pi", "L", "Perm"])
def test_declared_flags_are_verified(spec):
    from species_forge.core import decompositions
    from species_forge.engine import check_axiom, hopf_from

    entry = parse_species(spec)
    h_mu = hopf_from(entry, "mu", "mu")
    for flag, axiom in (("associative", "associative"), ("commutative", "commutative"),
                        ("unital", "unital")):
        assert check_axiom(h_mu, axiom, 3).ok == (flag in entry.mu_flags), (spec, flag)
    h_pi = hopf_from(entry, "pi", "pi")
    for flag, axiom in (("coassociative", "coassociative"),
                        ("cocommutative", "cocommutative"), ("counital", "counital")):
        assert check_axiom(h_pi, axiom, 3).ok == (flag in entry.pi_flags), (spec, flag)
    mu_inj = mu_sur = pi_inj = pi_sur = True
    for n in range(5):
        I = GroundSet.first(n)
        for S, T in decompositions(I, 2):
            fm = entry.mu.fiber_map(S, T)
            if any(len(v) > 1 for v in fm.values()):
                mu_inj = False
            if set(fm) != set(entry.species.elements(I)):
                mu_sur = False
            pm = entry.pi.fiber_map(S, T)
            if any(len(v) > 1 for v in pm.values()):
                pi_inj = False
            pairs = {(a, b) for a in entry.species.elements(S)
                     for b in entry.species.elements(T)}
            if set(pm) != pairs:
                pi_sur = False
    assert mu_inj == ("injective" in entry.mu_flags), spec
    assert mu_sur == ("surjective" in entry.mu_flags), spec
    assert pi_sur == ("surjective" in entry.pi_flags), spec
    assert (pi_inj and pi_sur) == ("bijective" in entry.pi_flags), spec


def test_ceiling_env_override(monkeypatch):
    from species_forge.core import guard_max_n, hard_ceiling

    assert hard_ceiling() == 5
    with pytest.raises(ValueError):
        guard_max_n(6)
    monkeypatch.setenv("SPECIES_FORGE_CEILING", "7")
    assert hard_ceiling() == 7
    guard_max_n(6)


def test_parse_species_errors_list_alternatives():
    with pytest.raises(ValueError, match="valid specs"):
        parse_species("Foo")
    with pytest.raises(ValueError, match="valid specs"):
        parse_species("E_C:x")
    for bad in ("E_C:\u00b2", "S(" * 400 + "E" + ")" * 400, "S(" * 2000 + "E" + ")" * 2000):
        with pytest.raises(ValueError, match="valid specs"):
            parse_species(bad)
    deepest = "S(" * MAX_NESTING + "E" + ")" * MAX_NESTING
    assert parse_species(deepest).key == deepest
    assert parse_species("S(E_C:2)").key == "S(E_C:2)"
    assert parse_species("S(S(X_C:2))").key == "S(S(X_C:2))"


_KEYED_SPECS = ["E", "E_C:0", "E_C:3", "X_C:1", "X_C:2", "Pi", "L", "Perm",
                "S(E)", "S(X_C:2)", "S(S(Pi))", "S(S(S(X_C:2)))", "S(S(S(E_C:2)))"]


@pytest.mark.parametrize("spec", _KEYED_SPECS)
def test_entry_key_is_its_species_name(spec):
    # transport rows print P.name and nabla_X_decompose messages
    # h.basis.name, so each must be the key the entry reports under
    entry = parse_species(spec)
    assert entry.key == spec == entry.species.name


def test_derived_pi_and_control_keys_are_their_species_names():
    derived = with_derived_pi(make_S(make_X_C(2)), 3)
    assert derived.key == derived.species.name == "S(X_C:2)"
    systems = [_MAKERS[family](*args) for family, args in _grid()]
    assert len(systems) == 51
    assert all(ps.key == ps.mu.species.name for ps in systems)


@pytest.mark.parametrize("prefix", ["E_C:", "X_C:"])
def test_parse_species_bounds_the_color_count(prefix):
    # rejected in the parser, before any element is listed: E_C:99999999999
    # used to list 10^11 maps, and int() refuses more than 4,300 digits
    for count in (str(MAX_COLORS + 1), "99999999999", "9" * 5000, "0" * 5000 + "17"):
        with pytest.raises(ValueError, match=f"above {MAX_COLORS}; valid specs"):
            parse_species(prefix + count)
        with pytest.raises(ValueError, match="valid specs"):
            parse_species(f"S({prefix}{count})")
    assert parse_species(f"{prefix}{MAX_COLORS}").species.dim(GroundSet.first(1)) == (
        MAX_COLORS)
    assert parse_species(prefix + "0" * 5000 + "2").key == prefix + "2"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="SE_CX:()PiLerm0123456789\u00b2\u0663", max_size=30))
def test_parse_species_returns_an_entry_or_names_the_valid_specs(spec):
    try:
        entry = parse_species(spec)
    except ValueError as exc:
        assert "valid specs" in str(exc)
    else:
        assert isinstance(entry, CatalogEntry)
