"""Axioms, self-compatibility, structure constants, antipode, duality."""

import itertools

import pytest

from species_forge import core, engine as eng
from species_forge.catalog import (
    CatalogEntry, ComultSystem, MultSystem, make_E, make_E_C, make_L, make_Perm, make_Pi,
    make_S, parse_species, with_derived_pi,
)
from species_forge.core import (
    EMPTY, CheckReport, GroundSet, LinearOrderElt, MapTo, SetPartitionElt, SetSpecies,
    TensorVec, UnitElement, Vec, decompositions,
)
from species_forge.controls import _MAKERS, _grid, blob_system, perturbed_systems
from species_forge.engine import (
    AXIOMS, FatalInconsistency, check_antipode_convolution, check_axiom,
    check_delta_nabla_identity, check_dual_tables, check_fsd,
    check_preorder_rectangle, check_self_compatible, coproduct_table,
    dual_transpose, hopf_from, iterate_delta, iterate_nabla, product_table,
    takeuchi_antipode,
)


@pytest.fixture(scope="module")
def entries():
    return {e.key: e for e in (make_E(), make_E_C(2), make_Perm(), make_Pi(), make_L())}


# ---------------------------------------------------------------------------
# the seven axioms

@pytest.mark.parametrize("key", ["E", "E_C:2", "Perm", "Pi"])
def test_all_axioms_pass(entries, key):
    h = hopf_from(entries[key], "mu", "pi")
    for axiom in AXIOMS:
        assert check_axiom(h, axiom, 3).ok, (key, axiom)


def test_L_fails_exactly_commutativity(entries):
    h = hopf_from(entries["L"], "mu", "pi")
    rep = check_axiom(h, "commutative", 3)
    assert rep.status == "fail" and rep.n == 2
    assert rep.witness["inputs"] == ["(1)", "(2)"]
    assert rep.witness["lhs"] == "(1,2)" and rep.witness["rhs"] == "(2,1)"
    for axiom in AXIOMS:
        if axiom != "commutative":
            assert check_axiom(h, axiom, 3).ok, axiom


def test_delta_mu_unitality(entries):
    pi = entries["Pi"]
    h = hopf_from(pi, "mu", "mu")
    I = GroundSet.first(2)
    lam = SetPartitionElt.of([[1, 2]])
    got = h.delta(EMPTY, I, Vec.basis(lam))
    unit = pi.species.unit_element()
    assert got == TensorVec.basis((unit, lam))


def test_delta_mu_fibers(entries):
    h = hopf_from(entries["Pi"], "mu", "mu")
    S, T = GroundSet.of([1]), GroundSet.of([2])
    split = SetPartitionElt.of([[1], [2]])
    joined = SetPartitionElt.of([[1, 2]])
    assert h.delta(S, T, Vec.basis(split)) == TensorVec.basis(
        (SetPartitionElt.of([[1]]), SetPartitionElt.of([[2]])))
    assert h.delta(S, T, Vec.basis(joined)).is_zero()


def test_nabla_pi_fiber_sum(entries):
    h = hopf_from(entries["Pi"], "pi", "mu")
    S, T = GroundSet.of([1]), GroundSet.of([2])
    got = h.nabla(S, T, TensorVec.basis((SetPartitionElt.of([[1]]),
                                         SetPartitionElt.of([[2]]))))
    assert got == Vec(GroundSet.first(2), [
        (SetPartitionElt.of([[1], [2]]), 1), (SetPartitionElt.of([[1, 2]]), 1)])


def test_nabla_pi_equals_nabla_mu_on_bijective_restriction(entries):
    ec = entries["E_C:2"]
    hm = hopf_from(ec, "mu", "pi")
    hp = hopf_from(ec, "pi", "pi")
    for n in range(4):
        I = GroundSet.first(n)
        for S, T in decompositions(I, 2):
            for x in ec.species.elements(S):
                for y in ec.species.elements(T):
                    xy = TensorVec.basis((x, y))
                    assert hm.nabla(S, T, xy) == hp.nabla(S, T, xy)


@pytest.mark.parametrize("key", ["E", "E_C:2", "Perm", "Pi", "L"])
def test_delta_nabla_identity(entries, key):
    assert check_delta_nabla_identity(hopf_from(entries[key], "mu", "pi"), 4).ok


def test_delta_nabla_identity_other_variants(entries):
    for key in ("Pi", "Perm", "E_C:2"):
        assert check_delta_nabla_identity(hopf_from(entries[key], "mu", "mu"), 3).ok
        assert check_delta_nabla_identity(hopf_from(entries[key], "pi", "mu"), 3).ok


# ---------------------------------------------------------------------------
# iterated maps

def test_iterate_identity_for_single_part(entries):
    h = hopf_from(entries["Pi"], "mu", "pi")
    I = GroundSet.first(2)
    lam = SetPartitionElt.of([[1, 2]])
    assert iterate_nabla(h, (I,), TensorVec.basis((lam,))) == Vec.basis(lam)
    assert iterate_delta(h, (I,), Vec.basis(lam)) == TensorVec.basis((lam,))


def test_iterate_nabla_singletons(entries):
    h = hopf_from(entries["Pi"], "mu", "pi")
    parts = tuple(GroundSet.of([i]) for i in (1, 2, 3))
    t = TensorVec.basis(tuple(SetPartitionElt.of([[i]]) for i in (1, 2, 3)))
    assert iterate_nabla(h, parts, t) == Vec.basis(SetPartitionElt.of([[1], [2], [3]]))


def test_iterate_nabla_L_singletons(entries):
    h = hopf_from(entries["L"], "mu", "pi")
    parts = tuple(GroundSet.of([i]) for i in (1, 2, 3))
    t = TensorVec.basis(tuple(LinearOrderElt.of([i]) for i in (1, 2, 3)))
    assert iterate_nabla(h, parts, t) == Vec.basis(LinearOrderElt.of([1, 2, 3]))


def test_permuted_parts_witness_noncommutativity(entries):
    h = hopf_from(entries["L"], "mu", "pi")
    a = TensorVec.basis((LinearOrderElt.of([1]), LinearOrderElt.of([2])))
    b = TensorVec.basis((LinearOrderElt.of([2]), LinearOrderElt.of([1])))
    assert iterate_nabla(h, a.parts, a) != iterate_nabla(h, b.parts, b)


def test_iterate_matches_fold(entries):
    # the interleave pair is neither associative nor coassociative, so only
    # the left-to-right bracketing of the folds agrees with it
    inter = _interleave_system()
    cases = [hopf_from(entries[key], "mu", "pi") for key in ("E", "E_C:2", "Pi", "L", "Perm")]
    cases.append(eng.LinearizedHopf("interleave", inter.species, inter,
                                    _reversing_split(inter.species)))
    for h in cases:
        mu, pi = h.product, h.coproduct
        for n in range(4):
            I = GroundSet.first(n)
            for k in (1, 2, 3):
                for parts in decompositions(I, k):
                    for xs in itertools.product(*(h.basis.elements(p) for p in parts)):
                        assert iterate_nabla(h, parts, TensorVec.basis(xs)) == \
                            Vec.basis(mu.fold(parts, xs)), (h.name, parts, xs)
                    for z in h.basis.elements(I):
                        assert iterate_delta(h, parts, Vec.basis(z)) == \
                            TensorVec.basis(pi.fold(parts, z)), (h.name, parts, z)


# ---------------------------------------------------------------------------
# self-compatibility

@pytest.mark.parametrize("key,ok", [("E", True), ("E_C:2", True), ("Perm", True),
                                    ("Pi", True), ("L", False)])
def test_selfcompat_catalog(entries, key, ok):
    rep = check_self_compatible(entries[key].mu, "both", 3, species_key=key)
    assert (rep.status == "pass") is ok


def test_selfcompat_modes_agree_on_perturbed_systems():
    systems = perturbed_systems(seed=0, count=50)
    assert len(systems) >= 50
    seen = set()
    for ps in systems:
        rep = check_self_compatible(ps.mu, "both", 3, species_key=ps.key)
        assert rep.status == "fail", ps.key
        local = rep.witness["local"] if "local" in rep.witness else rep.witness
        assert local["condition"] == {"commutative": "commutative",
                                      "injective": "injective",
                                      "image": "image"}[ps.breaks], ps.key
        seen.add(ps.breaks)
    assert seen == {"commutative", "injective", "image"}


def test_selfcompat_seeded_variation():
    a = [ps.key for ps in perturbed_systems(seed=1, count=50)]
    b = [ps.key for ps in perturbed_systems(seed=1, count=50)]
    assert a == b  # deterministic for a fixed seed


def test_S_union_is_self_compatible():
    entry = make_S(make_E_C(2))
    assert check_self_compatible(entry.mu, "both", 3, species_key=entry.key).ok


def test_S_union_ssd_triple_is_fsd():
    entry = make_S(make_E_C(2))
    assert check_fsd(hopf_from(entry, "mu", "mu"), 3).ok


def _interleave_system():
    # a product that is not even associative: it alternates the two sequences
    from species_forge.catalog import MultSystem
    from species_forge.core import LinearOrderElt, SetSpecies
    import itertools as it

    def elements(I):
        return [LinearOrderElt(I, seq) for seq in it.permutations(I.labels)]

    def transport(sigma, l):
        return LinearOrderElt(sigma.target, tuple(sigma.apply(x) for x in l.seq))

    sp = SetSpecies("interleave", elements, transport)

    def rule(S, T, x, y):
        seq, a, b = [], list(x.seq), list(y.seq)
        while a or b:
            if a:
                seq.append(a.pop(0))
            if b:
                seq.append(b.pop(0))
        return LinearOrderElt(S.union(T), tuple(seq))

    return MultSystem(sp, rule)


def _reversing_split(sp):
    # restriction with the right-hand factor reversed: not coassociative
    def rule(S, T, z):
        left = tuple(x for x in z.seq if x in S.labels)
        right = tuple(x for x in z.seq if x in T.labels)
        return LinearOrderElt(S, left), LinearOrderElt(T, right[::-1])

    return ComultSystem(sp, rule)


def test_selfcompat_precondition_reported():
    # a product that is not even associative is skipped with the reason
    rep = check_self_compatible(_interleave_system(), "both", 3,
                                species_key="interleave")
    assert rep.status == "skip"
    assert rep.witness["precondition"]["axiom"] == "associative"


def test_mode_disagreement_is_fatal(monkeypatch, entries):
    from species_forge import engine as eng

    monkeypatch.setattr(eng, "_selfcompat_local", lambda mu, max_n: (False, {"forced": True}))
    with pytest.raises(FatalInconsistency):
        eng.check_self_compatible(entries["Pi"].mu, "both", 2, species_key="Pi")


# ---------------------------------------------------------------------------
# structure constants and FSD

def test_fsd_pi_ssd_triple(entries):
    assert check_fsd(hopf_from(entries["Pi"], "mu", "mu"), 3).ok


def test_fsd_constants_zero_one(entries):
    h = hopf_from(entries["Pi"], "mu", "mu")
    I = GroundSet.first(3)
    for S, T in decompositions(I, 2):
        for table in (product_table(h, S, T), coproduct_table(h, S, T)):
            assert set(table.values()) <= {1}


def test_fsd_fails_for_mixed_Pi(entries):
    rep = check_fsd(hopf_from(entries["Pi"], "mu", "pi"), 2)
    assert rep.status == "fail"
    # splitting the one-block partition: coproduct constant with no product mate
    assert rep.witness["coproduct_constant"] == "1"
    assert rep.witness["product_constant"] == "0"


def test_fsd_mixed_E_C(entries):
    assert check_fsd(hopf_from(entries["E_C:2"], "mu", "pi"), 3).ok


def test_fsd_requires_hopf_compatibility(entries):
    rep = check_fsd(hopf_from(entries["L"], "mu", "mu"), 2)
    assert rep.status == "fail"
    assert rep.witness["reason"] == "not hopf compatible"


def test_fsd_implies_coco(entries):
    for key in ("E", "E_C:2", "Perm", "Pi", "L"):
        entry = entries[key]
        for p, c in (("mu", "mu"), ("mu", "pi"), ("pi", "mu"), ("pi", "pi")):
            h = hopf_from(entry, p, c)
            if check_fsd(h, 3).ok:
                assert check_axiom(h, "commutative", 3).ok, (key, p, c)
                assert check_axiom(h, "cocommutative", 3).ok, (key, p, c)


# ---------------------------------------------------------------------------
# the elementary SSD characterization

def test_ssd_conditions_commutative_entries(entries):
    from species_forge.engine import check_ssd_conditions
    for key in ("E", "E_C:2", "Perm", "Pi"):
        assert check_ssd_conditions(hopf_from(entries[key], "mu", "mu"), 3).ok, key
    entry = make_S(make_E_C(2))
    assert check_ssd_conditions(hopf_from(entry, "mu", "mu"), 3).ok


def test_ssd_conditions_fail_b_for_mixed_Pi(entries):
    from species_forge.engine import check_ssd_conditions
    rep = check_ssd_conditions(hopf_from(entries["Pi"], "mu", "pi"), 2)
    assert rep.status == "fail" and rep.witness["condition"] == "b"
    assert rep.witness["element"] == "{1,2}"  # straddles, yet the coproduct keeps it


def test_ssd_conditions_fail_a_for_fiber_product(entries):
    from species_forge.engine import check_ssd_conditions
    rep = check_ssd_conditions(hopf_from(entries["Pi"], "pi", "mu"), 2)
    assert rep.status == "fail" and rep.witness["condition"] == "a"


# ---------------------------------------------------------------------------
# Takeuchi's antipode

def test_takeuchi_on_singleton_is_negation(entries):
    for key in ("Pi", "Perm", "E_C:2"):
        h = hopf_from(entries[key], "mu", "mu")
        I = GroundSet.first(1)
        for lam in entries[key].species.elements(I):
            assert takeuchi_antipode(h, I, Vec.basis(lam)) == Vec.basis(lam).scale(-1)


def test_takeuchi_empty_set_is_identity(entries):
    h = hopf_from(entries["Pi"], "mu", "mu")
    unit = entries["Pi"].species.unit_element()
    assert takeuchi_antipode(h, EMPTY, Vec.basis(unit)) == Vec.basis(unit)


@pytest.mark.parametrize("n", range(5))
def test_takeuchi_Pi_closed_form(entries, n):
    h = hopf_from(entries["Pi"], "mu", "mu")
    I = GroundSet.first(n)
    for lam in entries["Pi"].species.elements(I):
        got = takeuchi_antipode(h, I, Vec.basis(lam))
        assert got == Vec.basis(lam).scale((-1) ** len(lam.blocks))


@pytest.mark.parametrize("key", ["Pi", "E_C:2", "Perm"])
def test_antipode_convolution(entries, key):
    assert check_antipode_convolution(hopf_from(entries[key], "mu", "mu"), 3).ok


def test_antipode_convolution_mixed_triple(entries):
    assert check_antipode_convolution(hopf_from(entries["Pi"], "mu", "pi"), 3).ok


# ---------------------------------------------------------------------------
# duality

@pytest.mark.parametrize("key", ["E", "E_C:2", "Perm", "Pi"])
def test_dual_transpose_tables(entries, key):
    h = hopf_from(entries[key], "mu", "pi")
    assert check_dual_tables(h, 3).ok
    hd = dual_transpose(h)
    h2 = hopf_from(entries[key], "pi", "mu")
    I = GroundSet.first(3)
    for S, T in decompositions(I, 2):
        assert product_table(hd, S, T) == product_table(h2, S, T)
        assert coproduct_table(hd, S, T) == coproduct_table(h2, S, T)


def test_dual_transpose_involution(entries):
    h = hopf_from(entries["Pi"], "mu", "pi")
    hdd = dual_transpose(dual_transpose(h))
    I = GroundSet.first(3)
    for S, T in decompositions(I, 2):
        assert product_table(hdd, S, T) == product_table(h, S, T)
        assert coproduct_table(hdd, S, T) == coproduct_table(h, S, T)


def test_dual_of_fsd_equals_itself(entries):
    h = hopf_from(entries["Pi"], "mu", "mu")
    hd = dual_transpose(h)
    I = GroundSet.first(3)
    for S, T in decompositions(I, 2):
        assert product_table(hd, S, T) == product_table(h, S, T)


# ---------------------------------------------------------------------------
# the tables read from mu, pi and their fibers

_ALL_VARIANTS = [("mu", "mu"), ("mu", "pi"), ("pi", "mu"), ("pi", "pi")]


def _graph(entry, system, S, T):
    """The triples (x, y, z) with mu(x, y) = z, or with pi(z) = (x, y),
    found by brute force over p[S] x p[T] x p[S u T]."""
    sp, I = entry.species, S.union(T)
    if system == "mu":
        return {(x, y, z) for x in sp.elements(S) for y in sp.elements(T)
                for z in sp.elements(I) if entry.mu(S, T, x, y) == z}
    return {(x, y, z) for x in sp.elements(S) for y in sp.elements(T)
            for z in sp.elements(I) if entry.pi(S, T, z) == (x, y)}


@pytest.mark.parametrize("key", ["E", "E_C:2", "Pi", "L", "Perm"])
@pytest.mark.parametrize("variant", _ALL_VARIANTS, ids="-".join)
def test_tables_are_the_graphs_of_mu_and_pi(entries, key, variant):
    entry = entries[key]
    p, c = variant
    h = hopf_from(entry, p, c)
    for n in range(4):
        for S, T in decompositions(GroundSet.first(n), 2):
            prod, cop = product_table(h, S, T), coproduct_table(h, S, T)
            assert set(prod.values()) <= {1} and set(cop.values()) <= {1}
            assert set(prod) == _graph(entry, p, S, T), (n, S, T)
            assert set(cop) == _graph(entry, c, S, T), (n, S, T)


@pytest.mark.parametrize("key", ["E", "E_C:2", "Pi", "L", "Perm"])
@pytest.mark.parametrize("variant", _ALL_VARIANTS, ids="-".join)
def test_dual_transpose_swaps_the_variant(entries, key, variant):
    p, c = variant
    h = hopf_from(entries[key], p, c)
    hd = dual_transpose(h)
    assert hd.product is h.coproduct and hd.coproduct is h.product
    swapped = hopf_from(entries[key], c, p)
    for n in range(4):
        for S, T in decompositions(GroundSet.first(n), 2):
            assert product_table(hd, S, T) == coproduct_table(h, S, T) \
                == product_table(swapped, S, T)
            assert coproduct_table(hd, S, T) == product_table(h, S, T) \
                == coproduct_table(swapped, S, T)


# ---------------------------------------------------------------------------
# the rectangle behind the order

def test_preorder_rectangle_Pi_n4(entries):
    assert check_preorder_rectangle(entries["Pi"], 4).ok


def test_preorder_rectangle_Perm_n4(entries):
    assert check_preorder_rectangle(entries["Perm"], 4).ok


# ---------------------------------------------------------------------------
# the kernels of check_axiom and the linear checkers behind them

# diagram -> (parts per decomposition, kernel, linear checker, public check)
_DIAGRAMS = {
    **{axiom: (*eng._AXIOM_ROUTES[axiom],
               lambda h, n, axiom=axiom: check_axiom(h, axiom, n))
       for axiom in AXIOMS},
    "delta_nabla_identity": (2, eng._delta_nabla_terms, eng._delta_nabla_linear,
                             check_delta_nabla_identity),
}


def _route_report(checker, h, parts, max_n):
    """(status, n, witness) of one route, looping n as check_axiom does."""
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        witness = checker(h, I, decompositions(I, parts) if parts else ())
        if witness is not None:
            return "fail", n, witness
    return "pass", max_n, None


def _assert_routes_agree(h, max_n=3):
    """The kernel, the linear checker and the public check report the same
    (status, n, witness) for every diagram; returns the failing diagrams."""
    failing = []
    for name, (parts, kernel, linear, check) in _DIAGRAMS.items():
        fast = _route_report(kernel, h, parts, max_n)
        assert fast == _route_report(linear, h, parts, max_n), (h.name, name)
        rep = check(h, max_n)
        assert (rep.status, rep.n, rep.witness) == fast, (h.name, name)
        if fast[0] == "fail":
            failing.append(name)
    return failing


@pytest.mark.parametrize("family,args", _grid(), ids=str)
def test_routes_agree_on_control_systems(family, args):
    ps = _MAKERS[family](*args)
    entry = CatalogEntry(ps.key, ps.mu.species, ps.mu, None)
    _assert_routes_agree(hopf_from(entry, "mu", "mu"))


def test_concat_and_mirror_systems_are_named_apart():
    # the self-compatibility checks name a system after its species
    names = []
    for mirrored in (False, True):
        mu = _MAKERS["concat"](mirrored).mu
        entry = CatalogEntry(mu.species.name, mu.species, mu, None)
        names.append(hopf_from(entry, "mu", "mu").name)
    assert names == ["orders[concat][nabla^mu,Delta^mu]",
                     "orders[mirror][nabla^mu,Delta^mu]"]


# (spec, variant) -> the diagrams that fail at n <= 3; every other passes
_CATALOG_FAILURES = {
    ("L", "mu-pi"): ["commutative"],
    ("L", "mu-mu"): ["commutative", "cocommutative", "hopf_compatible"],
    ("L", "pi-mu"): ["cocommutative"],
    **{(spec, "pi-pi"): ["hopf_compatible", "delta_nabla_identity"]
       for spec in ("Pi", "L", "Perm")},
}


@pytest.mark.parametrize("spec,variant", [
    (spec, "-".join(variant))
    for spec in ("E", "E_C:2", "Pi", "L", "Perm", "S(X_C:2)")
    for variant in _ALL_VARIANTS
] + [("S(E_C:2)", "mu-mu")])
def test_routes_agree_on_catalog(spec, variant):
    entry = parse_species(spec)
    if spec == "S(X_C:2)":
        entry = with_derived_pi(entry, 3)
    failing = _assert_routes_agree(hopf_from(entry, *variant.split("-")))
    assert failing == _CATALOG_FAILURES.get((spec, variant), [])


def test_routes_agree_on_non_associative_system():
    mu = _interleave_system()
    entry = CatalogEntry("interleave", mu.species, mu, None)
    h = hopf_from(entry, "mu", "mu")
    assert _assert_routes_agree(h) == ["associative", "commutative", "coassociative",
                                       "cocommutative", "hopf_compatible"]
    assert check_axiom(h, "associative", 3).status == "fail"


def test_set_level_split_from_oracle_is_fatal(monkeypatch, entries):
    for name in ("associative", "coassociative", "delta_nabla_identity"):
        parts, kernel, linear, check = _DIAGRAMS[name]

        def lies_at_2(h, I, decs, kernel=kernel):
            return {"forced": True} if len(I) == 2 else kernel(h, I, decs)

        with monkeypatch.context() as m:
            if name == "delta_nabla_identity":
                m.setattr(eng, "_delta_nabla_terms", lies_at_2)
            else:
                m.setitem(eng._AXIOM_ROUTES, name, (parts, lies_at_2, linear))
            for variant in _ALL_VARIANTS:
                with pytest.raises(FatalInconsistency):
                    check(hopf_from(entries["Pi"], *variant), 3)


def test_oracle_stops_after_small_n(monkeypatch, entries):
    parts, kernel, linear = eng._AXIOM_ROUTES["associative"]
    seen = []

    def linear_seen(h, I, decs):
        seen.append(len(I))
        return linear(h, I, decs)

    monkeypatch.setitem(eng._AXIOM_ROUTES, "associative", (parts, kernel, linear_seen))
    assert check_axiom(hopf_from(entries["Pi"], "pi", "mu"), "associative", 4).ok
    assert seen == list(range(eng.ORACLE_MAX_N + 1))


def test_set_level_rejects_result_over_wrong_ground(entries):
    pi_entry = entries["Pi"]
    sp = pi_entry.species
    drops_y = MultSystem(sp, lambda S, T, x, y: x)
    swaps = ComultSystem(sp, lambda S, T, z: pi_entry.pi(S, T, z)[::-1])
    I = GroundSet.first(2)
    for axiom, entry, variants in (
            ("associative", CatalogEntry("bad", sp, drops_y, pi_entry.pi),
             [("mu", "pi"), ("mu", "mu")]),
            ("coassociative", CatalogEntry("bad", sp, pi_entry.mu, swaps),
             [("mu", "pi"), ("pi", "pi")])):
        for variant in variants:
            h = hopf_from(entry, *variant)
            kernel = eng._AXIOM_ROUTES[axiom][1]
            with pytest.raises(ValueError, match="lives over"):
                kernel(h, I, decompositions(I, 3))
            with pytest.raises(ValueError, match="lives over"):
                check_axiom(h, axiom, 2)


def test_fiber_kernel_split_from_oracle_is_fatal(monkeypatch, entries):
    parts, kernel, linear = eng._AXIOM_ROUTES["hopf_compatible"]

    def lies_at_2(h, I, decs):
        return {"forced": True} if len(I) == 2 else kernel(h, I, decs)

    monkeypatch.setitem(eng._AXIOM_ROUTES, "hopf_compatible", (parts, lies_at_2, linear))
    with pytest.raises(FatalInconsistency):
        check_axiom(hopf_from(entries["Pi"], "mu", "mu"), "hopf_compatible", 3)
    with pytest.raises(FatalInconsistency):
        check_self_compatible(entries["Pi"].mu, "direct", 3)


def test_fiber_kernel_rejects_result_over_wrong_ground(entries):
    sp = entries["Pi"].species
    drops_y = MultSystem(sp, lambda S, T, x, y: x)
    h = hopf_from(CatalogEntry("bad", sp, drops_y, None), "mu", "mu")
    I = GroundSet.first(1)
    with pytest.raises(ValueError, match="lives over"):
        eng._hopf_terms(h, I, decompositions(I, 2))
    with pytest.raises(ValueError, match="lives over"):
        check_axiom(h, "hopf_compatible", 2)


def test_fiber_kernel_counts_multiplicities():
    # On singletons mu(-, unit) sends color 0 to 1 and colors 1, 2 to 0, so at
    # n = 1 both paths of the diagram hold one pair: once on top, twice below.
    from species_forge.catalog import _mapto_merge
    from species_forge.core import MapTo
    sp = make_E_C(3).species
    g = (1, 0, 0)

    def rule(S, T, x, y):
        if len(S) == 1 and not T:
            return MapTo(S, (g[x.colors[0]],))
        return _mapto_merge(S, T, x, y)

    h = hopf_from(CatalogEntry("twice", sp, MultSystem(sp, rule), None), "mu", "mu")
    assert "hopf_compatible" in _assert_routes_agree(h, max_n=1)
    rep = check_axiom(h, "hopf_compatible", 1)
    assert rep.witness["bottom"] == f"2*[{rep.witness['top']}]"


def test_nabla_pi_kernel_counts_multiplicities(entries):
    # nabla^pi sends {1} (x) {2} to {1|2} + {1,2}, and Delta^pi splits both
    # into {1} (x) {2}: the two sides share their one pair, counted 2 and 1.
    h = hopf_from(entries["Pi"], "pi", "pi")
    rep = check_axiom(h, "hopf_compatible", 3)
    assert (rep.status, rep.n) == ("fail", 2)
    assert rep.witness["top"] == "2*[{1} (x) {2}]"
    assert rep.witness["bottom"] == "{1} (x) {2}"
    assert check_delta_nabla_identity(h, 3).witness["got"] == "2*[{1} (x) {2}]"


# ---------------------------------------------------------------------------
# negative controls for the table routes of transport and naturality

def _twisted_L(twist):
    """Linear orders whose transport is reversed under every sigma for which
    ``twist(sigma)`` holds, and correct under every other."""
    good = make_L().species

    def transport(sigma, l):
        got = good.transport(sigma, l)
        return LinearOrderElt(got.ground, got.seq[::-1]) if twist(sigma) else got

    return SetSpecies("twisted", good.elements_fn, transport)


def _three_cycle(n):
    """Twist only the 3-cycle (1 2 3) of {1..n}: the identity and every adjacent
    transposition, on every ground set, keep their transport."""
    cycle = (2, 3, 1) + tuple(range(4, n + 1))
    return lambda s: s.source == s.target == GroundSet.first(n) and s.images == cycle


def _off_young(i):
    """Twist every endo-bijection moving its first i labels off themselves.
    That set is a union of left cosets of the subgroup the s_j, j != i,
    generate, so every violation of p[sigma o s] = p[sigma] o p[s] has s = s_i:
    a route that skipped s_i would certify this transport."""
    return lambda s: (s.source == s.target
                      and set(s.images[:i]) != set(s.source.labels[:i]))


@pytest.mark.parametrize("n, twist", [
    *(pytest.param(n, _three_cycle(n), id=f"three_cycle-n{n}") for n in (3, 4)),
    *(pytest.param(n, _off_young(i), id=f"off_young{i}-n{n}") for n in (3, 4) for i in range(1, n)),
])
def test_transport_controls_fail_as_the_exhaustive_route(n, twist):
    sp, I = _twisted_L(twist), GroundSet.first(n)
    rep = core.transport_check(sp, I)
    assert rep.status == "fail"
    assert rep == core._transport_exhaustive(sp, I)


def test_transport_three_cycle_breaks_composition_only():
    rep = core.transport_check(_twisted_L(_three_cycle(4)), GroundSet.first(4))
    assert rep.witness["law"] == "composition"
    assert core.transport_check(_twisted_L(_three_cycle(4)), GroundSet.first(3)).ok


def _twisted_entry(n, system):
    # The squares compose, so a system that fails naturality under a single
    # sigma needs a transport that does not: here only the 3-cycle, a
    # non-generator, breaks any square.
    sp, L = _twisted_L(_three_cycle(n)), make_L()
    mu = MultSystem(sp, L.mu.rule) if system == "mu" else None
    pi = ComultSystem(sp, L.pi.rule) if system == "pi" else None
    return CatalogEntry(f"twisted-{system}", sp, mu, pi)


@pytest.mark.parametrize("system", ["mu", "pi"])
@pytest.mark.parametrize("n", [3, 4])
def test_naturality_controls_fail_as_the_exhaustive_route(n, system):
    entry = _twisted_entry(n, system)
    rep = eng.check_naturality(entry, n)
    witness = eng._naturality_exhaustive(entry, GroundSet.first(n))
    assert rep == CheckReport("naturality", entry.key, n, "fail", witness)
    assert witness["system"] == system and witness["sigma"] == [2, 3, 1] + list(range(4, n + 1))
    assert eng.check_naturality(entry, n - 1).ok


def test_lying_table_routes_are_fatal_at_small_n(monkeypatch):
    I = GroundSet.first(3)
    monkeypatch.setattr(core, "_transport_certified", lambda P, I: True)
    with pytest.raises(FatalInconsistency, match="transport"):
        core.transport_check(_twisted_L(_three_cycle(3)), I)
    monkeypatch.setattr(core, "_transport_certified", lambda P, I: False)
    with pytest.raises(FatalInconsistency, match="transport"):
        core.transport_check(make_L().species, I)
    monkeypatch.setattr(eng, "_natural_by_tables", lambda entry, I: True)
    for system in ("mu", "pi"):
        with pytest.raises(FatalInconsistency, match="naturality"):
            eng.check_naturality(_twisted_entry(3, system), 3)
    monkeypatch.setattr(eng, "_natural_by_tables", lambda entry, I: False)
    with pytest.raises(FatalInconsistency, match="naturality"):
        eng.check_naturality(make_L(), 3)


# ---------------------------------------------------------------------------
# the position kernels past the oracle

_TABLE_AXIOMS = ("associative", "coassociative")


def test_non_associative_blob_fails_past_the_oracle():
    # a AND NOT b on {0, 1}: the two bracketings differ only for a = c = 1,
    # so only with three nonempty parts and only at the last element of P[T]
    sp = blob_system("zmax", 2).mu.species

    def rule(S, T, x, y):
        if not S or not T:
            return x if S else y
        return MapTo(S.union(T), (x.colors[0] & (1 - y.colors[0]),) * (len(S) + len(T)))

    h = hopf_from(CatalogEntry("blob[andnot]", sp, MultSystem(sp, rule), None), "mu", "mu")
    assert check_axiom(h, "associative", 2).ok
    I = GroundSet.first(3)
    witness = eng._assoc_terms(h, I, decompositions(I, 3))
    assert witness["inputs"] == ["[1:1]", "[2:0]", "[3:1]"]
    assert check_axiom(h, "associative", 3) == CheckReport(
        "associative", h.name, 3, "fail", witness)


def _levels():
    """A species that fails associativity and coassociativity only at the
    last instance at n = 3: the decomposition (empty, empty, I) and the last
    element of P[I].

    Over the empty set: e0 and e1.  Over a nonempty set: constant maps, to
    {0, 1} below three points and to {0, 1, 2, 3} on three.  mu takes the
    minimum of two values, e1 moves 3 to 2 on three points, and e1 e1 = e0;
    pi restricts a value v to min(v, 1), and splits off the empty set as e0
    while moving 3 to 2 and 2 to 1 on three points."""
    e0, e1 = MapTo(EMPTY, ()), UnitElement()

    def const(I, v):
        return MapTo(I, (v,) * len(I))

    def elements(I):
        return [const(I, v) for v in range(4 if len(I) == 3 else 2)] if I else [e0, e1]

    def mu(S, T, x, y):
        if not S and not T:
            return e0 if (x == e1) == (y == e1) else e1
        if not S:
            return const(T, 2) if x == e1 and len(T) == 3 and y.colors[0] == 3 else y
        return const(S.union(T), min(x.colors[0], y.colors[0])) if T else x

    def pi(S, T, z):
        if not S and T:
            v = z.colors[0]
            return e0, const(T, {3: 2, 2: 1}.get(v, v))
        if not T:
            return z, e0
        return const(S, min(z.colors[0], 1)), const(T, min(z.colors[0], 1))

    sp = SetSpecies("levels", elements, lambda sigma, x: x)
    return eng.LinearizedHopf("levels", sp, MultSystem(sp, mu), ComultSystem(sp, pi))


@pytest.mark.parametrize("axiom", _TABLE_AXIOMS)
def test_table_routes_fail_past_the_oracle_at_the_last_instance(axiom):
    # A kernel that skipped the last decomposition, or the last element, would
    # pass n = 3 here, where it runs without the linear oracle.
    h = _levels()
    parts, kernel, _ = eng._AXIOM_ROUTES[axiom]
    assert check_axiom(h, axiom, 2).ok
    I = GroundSet.first(3)
    decs = decompositions(I, parts)
    witness = kernel(h, I, decs)
    assert witness["decomposition"] == [[], [], [1, 2, 3]] == [list(p) for p in decs[-1]]
    assert witness["inputs"][-1] == "[1:3,2:3,3:3]" == str(h.basis.elements(I)[-1])
    assert check_axiom(h, axiom, 3) == CheckReport(axiom, "levels", 3, "fail", witness)


def test_table_routes_leave_wrong_ground_to_the_kernel(entries):
    # the results live over the wrong ground set only on three points, past
    # the oracle: compiling the table raises
    pi_entry = entries["Pi"]
    sp, mu, pi = pi_entry.species, pi_entry.mu, pi_entry.pi
    drops_y = MultSystem(sp, lambda S, T, x, y: x if len(S) == 2 and T else mu(S, T, x, y))
    swaps = ComultSystem(sp, lambda S, T, z: pi(S, T, z)[::-1] if len(z.ground) == 3
                         else pi(S, T, z))
    h = eng.LinearizedHopf("bad", sp, drops_y, swaps)
    for axiom in _TABLE_AXIOMS:
        assert check_axiom(h, axiom, 2).ok
        with pytest.raises(ValueError, match="lives over"):
            check_axiom(h, axiom, 3)


def _stray_color(stray):
    """E_C:2 whose product returns the constant color 2, so no element of
    P[S u T], on nonempty S and T with ``stray(S u T)``."""
    entry = make_E_C(2)

    def rule(S, T, x, y):
        if S and T and stray(S.union(T)):
            return MapTo(S.union(T), (2,) * (len(S) + len(T)))
        return entry.mu(S, T, x, y)

    return CatalogEntry("stray", entry.species, MultSystem(entry.species, rule), entry.pi)


@pytest.mark.parametrize("axiom,variant", [
    ("associative", ("mu", "pi")), ("associative", ("mu", "mu")),
    ("hopf_compatible", ("mu", "pi")), ("hopf_compatible", ("mu", "mu")),
    ("hopf_compatible", ("pi", "mu")), ("commutative", ("mu", "pi")),
], ids=str)
def test_result_outside_its_component_raises_at_every_n(axiom, variant):
    everywhere = hopf_from(_stray_color(lambda I: True), *variant)
    with pytest.raises(ValueError, match="is not an element of E_C:2"):
        check_axiom(everywhere, axiom, 2)
    on_three = hopf_from(_stray_color(lambda I: len(I) == 3), *variant)
    assert check_axiom(on_three, axiom, 2).ok
    with pytest.raises(ValueError, match="is not an element of E_C:2"):
        check_axiom(on_three, axiom, 3)


def test_result_outside_its_component_is_an_error_row():
    from species_forge.cli import Runner
    entry = _stray_color(lambda I: len(I) == 3)
    r = Runner(entry, 3, 0, False)
    rep = r.run(False, check_axiom, hopf_from(entry, "mu", "pi"), "associative", 3)
    assert (rep.check, rep.status, rep.witness["error"]) == ("associative", "fail", "ValueError")
    assert rep.witness["message"] == (
        "rule result [1:2,2:2,3:2] is not an element of E_C:2[{1,2,3}]")
    assert r.exit_code() == 1


def test_delta_mu_fails_hopf_compatibility_past_the_oracle():
    # mu flips the color of a one-point first factor against a two-point
    # second one, so (nabla^pi, Delta^mu) first fails on three points
    entry = make_E_C(2)

    def rule(S, T, x, y):
        if len(S) == 1 and len(T) == 2:
            x = MapTo(S, (1 - x.colors[0],))
        return entry.mu(S, T, x, y)

    flip = CatalogEntry("flip", entry.species, MultSystem(entry.species, rule), entry.pi)
    h = hopf_from(flip, "pi", "mu")
    assert check_axiom(h, "hopf_compatible", 2).ok
    assert check_axiom(h, "hopf_compatible", 3) == CheckReport(
        "hopf_compatible", h.name, 3, "fail",
        {"R": [1, 2], "Rp": [3], "S": [1], "Sp": [2, 3], "inputs": ["[1:0,2:0]", "[3:0]"],
         "top": "[1:1] (x) [2:0,3:0]", "bottom": "[1:0] (x) [2:0,3:0]"})


def test_result_outside_its_component_is_a_naturality_error_row():
    from species_forge.cli import Runner
    for n in (2, 3):
        entry = _stray_color(lambda I, n=n: len(I) == n)
        r = Runner(entry, n, 0, False)
        rep = r.run(False, eng.check_naturality, entry, n)
        assert (rep.check, rep.status, rep.witness["error"]) == ("naturality", "fail", "ValueError")
        assert rep.witness["message"].endswith(f"is not an element of E_C:2[{GroundSet.first(n)}]")
        assert r.exit_code() == 1


# ---------------------------------------------------------------------------
# local self-compatibility and the rectangle on positions, with their element
# oracles

def _pi_mutant():
    """Pi whose pi sends {1|2,3} over ({1,2}, {3}) to ({1,2}, {3}), not
    ({1|2}, {3}): one value changed, on three points."""
    entry = make_Pi()
    z, S = SetPartitionElt.of([[1], [2, 3]]), GroundSet.of([1, 2])

    def rule(S_, T_, w):
        if S_ == S and w == z:
            return SetPartitionElt.of([[1, 2]]), SetPartitionElt.of([[3]])
        return entry.pi(S_, T_, w)

    return CatalogEntry("Pi-mutant", entry.species, entry.mu, ComultSystem(entry.species, rule))


def _counit_mutant():
    """Pi whose pi over ({}, {1,2,3}) sends the last element to the first:
    not counital, which the rectangle sees only at its last S-decomposition."""
    entry = make_Pi()
    I = GroundSet.first(3)
    first, last = entry.species.elements(I)[0], entry.species.elements(I)[-1]

    def rule(S, T, w):
        if T == I and w == last:
            return entry.pi(S, T, first)
        return entry.pi(S, T, w)

    return CatalogEntry("Pi-counit", entry.species, entry.mu, ComultSystem(entry.species, rule))


def _glued():
    """Pi whose product of two nonempty factors is the one-block partition:
    associative, unital and commutative, but not injective."""
    entry = make_Pi()

    def rule(S, T, x, y):
        if S and T:
            return SetPartitionElt.of([S.union(T).labels])
        return entry.mu(S, T, x, y)

    return CatalogEntry("Pi-glued", entry.species, MultSystem(entry.species, rule), entry.pi)


def _faded():
    """E_C:2 whose product of two nonempty factors has color 0 everywhere."""
    entry = make_E_C(2)

    def rule(S, T, x, y):
        if S and T:
            return MapTo(S.union(T), (0,) * (len(S) + len(T)))
        return entry.mu(S, T, x, y)

    return CatalogEntry("E_C:2-faded", entry.species, MultSystem(entry.species, rule), entry.pi)


def _local_agree(mu, max_n=3):
    fast = _route_report(eng._local_terms, eng._mu_mu(mu), 2, max_n)
    assert fast == _route_report(eng._local_elements, eng._mu_mu(mu), 2, max_n), mu.species.name
    return fast


def _rectangle_agree(entry, max_n=3):
    h = eng.LinearizedHopf(entry.key, entry.species, entry.mu, entry.pi)
    fast = _route_report(eng._rectangle_terms, h, 0, max_n)
    assert fast == _route_report(eng._rectangle_elements, h, 0, max_n), entry.key
    return fast


@pytest.mark.parametrize("family,args", _grid(), ids=str)
def test_local_routes_agree_on_control_systems(family, args):
    ps = _MAKERS[family](*args)
    status, _, witness = _local_agree(ps.mu)
    assert status == "fail" and witness["condition"] == ps.breaks
    assert check_self_compatible(ps.mu, "local", 3, species_key=ps.key).witness == witness


def test_local_routes_agree_on_catalog_and_mutants():
    for spec in ("E", "E_C:2", "Pi", "L", "Perm", "S(E_C:2)"):
        assert _local_agree(parse_species(spec).mu)[0] == ("fail" if spec == "L" else "pass")
    assert _local_agree(_glued().mu) == ("fail", 3, {
        "mode": "local", "condition": "injective", "n": 3,
        "collision": [["{1,2}", "{3}"], ["{1|2}", "{3}"]], "value": "{1,2,3}"})
    assert _local_agree(_faded().mu) == ("fail", 2, {
        "mode": "local", "condition": "injective", "n": 2,
        "collision": [["[1:0]", "[2:0]"], ["[1:0]", "[2:1]"]], "value": "[1:0,2:0]"})
    assert _local_agree(make_L().mu)[2]["condition"] == "commutative"


def test_rectangle_routes_agree_on_catalog_and_mutants():
    for spec in ("E", "E_C:2", "Pi", "L", "Perm"):
        assert _rectangle_agree(parse_species(spec)) == ("pass", 3, None)
    assert _rectangle_agree(with_derived_pi(parse_species("S(X_C:2)"), 3))[0] == "pass"
    # the witnesses the element route gave before the table route existed
    assert _rectangle_agree(_pi_mutant()) == ("fail", 3, {
        "R_parts": [[1], [2, 3]], "S_parts": [[1, 2], [3]], "inputs": ["{1}", "{2,3}"],
        "lhs": ["{1,2}", "{3}"], "rhs": ["{1|2}", "{3}"]})
    assert _rectangle_agree(_glued()) == ("fail", 3, {
        "R_parts": [[1, 2], [3]], "S_parts": [[1, 2], [3]], "inputs": ["{1|2}", "{3}"],
        "lhs": ["{1,2}", "{3}"], "rhs": ["{1|2}", "{3}"]})
    assert _rectangle_agree(_faded()) == ("fail", 2, {
        "R_parts": [[1], [2]], "S_parts": [[1], [2]], "inputs": ["[1:0]", "[2:1]"],
        "lhs": ["[1:0]", "[2:0]"], "rhs": ["[1:0]", "[2:1]"]})
    status, n, witness = _rectangle_agree(_counit_mutant())
    assert (status, n, witness["S_parts"]) == ("fail", 3, [[], [1, 2, 3]])
    rep = check_preorder_rectangle(_pi_mutant(), 3)
    assert (rep.status, rep.n) == ("fail", 3) and rep.witness["S_parts"] == [[1, 2], [3]]


def test_element_oracles_run_in_every_call(monkeypatch, entries):
    seen = []
    for name in ("_local_elements", "_rectangle_elements"):
        def spy(h, I, decs, route=getattr(eng, name)):
            seen.append(len(I))
            return route(h, I, decs)
        monkeypatch.setattr(eng, name, spy)
    for _ in range(2):
        assert check_self_compatible(entries["Pi"].mu, "local", 3, species_key="Pi").ok
        assert check_preorder_rectangle(entries["Pi"], 3).ok
    assert seen == list(range(eng.ORACLE_MAX_N + 1)) * 4


@pytest.mark.parametrize("name", ["_local_terms", "_rectangle_terms"])
def test_table_split_from_element_oracle_is_fatal(monkeypatch, entries, name):
    route = getattr(eng, name)

    def lies_at(n):
        return lambda h, I, decs: {"forced": True} if len(I) == n else route(h, I, decs)

    def check():
        if name == "_local_terms":
            return check_self_compatible(entries["Pi"].mu, "local", 3, species_key="Pi")
        return check_preorder_rectangle(entries["Pi"], 3)

    monkeypatch.setattr(eng, name, lies_at(eng.ORACLE_MAX_N))
    with pytest.raises(FatalInconsistency, match="table and element"):
        check()
    # past the oracle the table route alone decides
    monkeypatch.setattr(eng, name, lies_at(eng.ORACLE_MAX_N + 1))
    rep = check()
    assert (rep.status, rep.witness) == ("fail", {"forced": True})
