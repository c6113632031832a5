"""Axioms, self-compatibility, structure constants, antipode, duality."""

import functools
import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from species_forge import core, engine as eng
from species_forge.catalog import (
    CatalogEntry, ComultSystem, MultSystem, make_E, make_E_C, make_L, make_Perm, make_Pi,
    make_S, make_X_C, parse_species, with_derived_pi,
)
from species_forge.core import (
    EMPTY, Bijection, CheckReport, GroundSet, LinearOrderElt, MapTo, SetPartitionElt, SetSpecies,
    TensorVec, UnitElement, Vec, decompositions,
)
from species_forge.controls import (
    _MAKERS, _grid, blob_system, collapse_system, concat_system, perturbed_systems,
)
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


@pytest.mark.parametrize("system", ["interleave", "Pi"])
def test_invalid_mode_raises_before_the_precondition(monkeypatch, entries, system):
    # the interleave product fails the precondition; Pi's passes it
    mu = _interleave_system() if system == "interleave" else entries["Pi"].mu
    calls = []
    monkeypatch.setattr(eng, "check_axiom", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="mode must be"):
        check_self_compatible(mu, "bogus", 3, species_key=system)
    assert calls == []


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
    assert rep.witness == {
        "S": [1], "T": [2], "entry": ["{1}", "{2}", "{1,2}"],
        "product_constant": "0", "coproduct_constant": "1",
        "form_mismatch": {"S": [1], "T": [2], "x": "{1}", "y": "{2}", "z": "{1,2}",
                          "form_left": "0", "form_right": "1"}}


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


def _variants(key):
    entry = with_derived_pi(make_S(make_X_C(2)), 3) if key == "S(X_C:2)" else parse_species(key)
    return [hopf_from(entry, p, c) for p, c in _ALL_VARIANTS]


@pytest.mark.parametrize("key", ["E", "E_C:2", "Pi", "L", "Perm", "S(X_C:2)"])
def test_fsd_element_route_finds_the_witness_without_the_oracle(monkeypatch, key):
    # with no oracle bound the element route runs only where the position
    # kernel fails, and finds the same first witness (the mu-pi and pi-mu
    # failures of Pi, L and Perm)
    want = [check_fsd(h, 3) for h in _variants(key)]
    monkeypatch.setattr(eng, "ORACLE_MAX_N", -1)
    got = [check_fsd(h, 3) for h in _variants(key)]
    assert [(r.status, r.n, r.witness) for r in got] == \
        [(r.status, r.n, r.witness) for r in want]


def test_ssd_conditions_run_hopf_compatibility_once(monkeypatch, entries):
    from species_forge.engine import check_ssd_conditions
    axioms, real = [], eng.check_axiom

    def spy(h, axiom, max_n=eng.DEFAULT_MAX_N):
        axioms.append(axiom)
        return real(h, axiom, max_n)

    monkeypatch.setattr(eng, "check_axiom", spy)
    assert check_ssd_conditions(hopf_from(entries["Pi"], "mu", "mu"), 3).ok
    assert axioms == ["hopf_compatible"]


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


# the axioms whose kernels decide on one system and never name a witness
_ONE_SIDED = tuple(axiom for axiom in AXIOMS if axiom != "hopf_compatible")


def _route_report(checker, h, parts, max_n):
    """(status, n, witness) of one route, looping n as check_axiom does."""
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        witness = checker(h, I, decompositions(I, parts) if parts else ())
        if witness is not None:
            return "fail", n, witness
    return "pass", max_n, None


def _assert_routes_agree(h, max_n=3):
    """The kernel and the linear checker fail at the same n, with the same
    witness except that a one-sided kernel returns False, and the public check
    reports the linear checker's (status, n, witness); returns the failing
    diagrams."""
    failing = []
    for name, (parts, kernel, linear, check) in _DIAGRAMS.items():
        fast = _route_report(kernel, h, parts, max_n)
        slow = _route_report(linear, h, parts, max_n)
        want = (*slow[:2], False) if name in _ONE_SIDED and slow[0] == "fail" else slow
        assert fast == want, (h.name, name)
        rep = check(h, max_n)
        assert (rep.status, rep.n, rep.witness) == slow, (h.name, name)
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


@pytest.mark.parametrize("family,args", _grid(), ids=str)
def test_linear_oracle_agrees_on_the_whole_control_grid(family, args):
    # at n <= ORACLE_MAX_N cross_check runs the kernel and the linear oracle
    # together, and a split in verdict or witness raises FatalInconsistency;
    # the collapse systems first fail Hopf compatibility on three points
    ps = _MAKERS[family](*args)
    h = eng._mu_mu(ps.mu)
    assert check_axiom(h, "associative", 2).ok and check_axiom(h, "unital", 2).ok
    rep = check_axiom(h, "hopf_compatible", 2)
    assert (rep.status, rep.n) == (("pass", 2) if ps.breaks == "image" else ("fail", 2))


def test_kernel_that_misses_a_control_failure_is_fatal(monkeypatch):
    parts, kernel, linear = eng._AXIOM_ROUTES["hopf_compatible"]

    def misses_at_2(h, I, decs):
        return None if len(I) == 2 else kernel(h, I, decs)

    monkeypatch.setitem(eng._AXIOM_ROUTES, "hopf_compatible", (parts, misses_at_2, linear))
    h = eng._mu_mu(_MAKERS["concat"](False).mu)
    with pytest.raises(FatalInconsistency):
        check_axiom(h, "hopf_compatible", 2)


def _assoc_by_vectors(h, I, decs):
    # _assoc with both sides built as vectors: xy (x) z and x (x) yz through
    # TensorVec.tensor, then the public nabla; the same memos, so the same
    # rule calls
    for R, S, T in decs:
        RS, ST, yzs = R.union(S), S.union(T), {}
        RST = RS.union(T)
        for x in h.basis.elements(R):
            for b, y in enumerate(h.basis.elements(S)):
                xy = None
                for c, z in enumerate(h.basis.elements(T)):
                    if xy is None:
                        xy = eng._nabla_basis(h, R, S, x, y)
                    lhs = h.nabla(RS, T, TensorVec.tensor(xy, Vec.basis(z)))
                    if (b, c) not in yzs:
                        yzs[b, c] = eng._nabla_basis(h, S, T, y, z)
                    rhs = h.nabla(R, ST, TensorVec.tensor(Vec.basis(x), yzs[b, c]))
                    if lhs != rhs:
                        return {"decomposition": [list(R), list(S), list(T)],
                                "inputs": [str(x), str(y), str(z)],
                                "lhs": str(lhs), "rhs": str(rhs)}
    return None


def _hopf_compat_by_tensors(h, I, decs):
    # _hopf_compat with its bottom path built as tensors: dx (x) dy through
    # the public constructor, its twist to (A, A', B, B'), then nabla at slot
    # 0 and at slot 1; the same memos, so the same rule calls
    for R, Rp in decs:
        xys = {}
        for S, Sp in decs:
            A, B = R.intersect(S), R.intersect(Sp)
            Ap, Bp = Rp.intersect(S), Rp.intersect(Sp)
            dys = {}
            for a, x in enumerate(h.basis.elements(R)):
                dx = eng._delta_basis(h, A, B, x)
                for b, y in enumerate(h.basis.elements(Rp)):
                    if (a, b) not in xys:
                        xys[a, b] = eng._nabla_basis(h, R, Rp, x, y)
                    top = h.delta(S, Sp, xys[a, b])
                    if b not in dys:
                        dys[b] = eng._delta_basis(h, Ap, Bp, y)
                    four = TensorVec(dx.parts + dys[b].parts, [
                        (k + l, c * e) for k, c in dx.terms.items()
                        for l, e in dys[b].terms.items()]).twist((0, 2, 1, 3))
                    bottom = eng.apply_nabla_at(h, eng.apply_nabla_at(h, four, 0), 1)
                    if top != bottom:
                        return {"R": list(R), "Rp": list(Rp), "S": list(S), "Sp": list(Sp),
                                "inputs": [str(x), str(y)],
                                "top": str(top), "bottom": str(bottom)}
    return None


class _LoggedHopf(eng.LinearizedHopf):
    """A LinearizedHopf that logs every rule call, in order."""

    def __init__(self, h):
        super().__init__(h.name, h.basis, h.product, h.coproduct)
        self.calls = []

    def products(self, S, T, x, y):
        self.calls.append(("nabla", S, T, x, y))
        return super().products(S, T, x, y)

    def splits(self, S, T, z):
        self.calls.append(("delta", S, T, z))
        return super().splits(S, T, z)


def _logged_run(h, checker, I, parts, catch=False):
    """What ``checker`` returns over I on a logged copy of h, and the rule
    calls it made, in order; with ``catch``, an error it raises is returned
    as its message, else it propagates."""
    logged = _LoggedHopf(h)
    try:
        got = checker(logged, I, decompositions(I, parts) if parts else ())
    except Exception as exc:
        if not catch:
            raise
        got = f"{type(exc).__name__}: {exc}"
    return got, logged.calls


def _assert_logged_routes_agree(h, route, reference, parts, max_n=eng.ORACLE_MAX_N):
    """``route`` and ``reference`` raise nothing and return the same witness
    over {1..n}, n <= max_n, after the same rule calls in the same order."""
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        assert _logged_run(h, route, I, parts) == _logged_run(h, reference, I, parts), (h.name, n)


def _assert_bottom_routes_agree(h):
    _assert_logged_routes_agree(h, eng._hopf_compat, _hopf_compat_by_tensors, 2)


@pytest.mark.parametrize("family,args", _grid(), ids=str)
def test_hopf_bottom_path_matches_the_tensor_route_on_control_systems(family, args):
    _assert_bottom_routes_agree(eng._mu_mu(_MAKERS[family](*args).mu))


@pytest.mark.parametrize("spec", ["Pi", "E_C:2", "S(X_C:2)"])
def test_hopf_bottom_path_matches_the_tensor_route_on_catalog(spec):
    entry = parse_species(spec)
    if spec == "S(X_C:2)":
        entry = with_derived_pi(entry, 3)
    for variant in _ALL_VARIANTS:
        _assert_bottom_routes_agree(hopf_from(entry, *variant))


@pytest.mark.parametrize("family,args", _grid(), ids=str)
def test_assoc_matches_the_vector_route_on_control_systems(family, args):
    h = eng._mu_mu(_MAKERS[family](*args).mu)
    _assert_logged_routes_agree(h, eng._assoc, _assoc_by_vectors, 3)


@pytest.mark.parametrize("spec,variant", [
    (spec, "-".join(variant))
    for spec in ("E", "E_C:2", "Pi", "L", "Perm", "S(X_C:2)")
    for variant in _ALL_VARIANTS
] + [("S(E_C:2)", "mu-mu")])
def test_assoc_matches_the_vector_route_on_catalog(spec, variant):
    entry = parse_species(spec)
    if spec == "S(X_C:2)":
        entry = with_derived_pi(entry, 3)
    h = hopf_from(entry, *variant.split("-"))
    _assert_logged_routes_agree(h, eng._assoc, _assoc_by_vectors, 3)


def test_assoc_matches_the_vector_route_on_a_non_associative_system():
    # the interleaving product fails at n = 3, where the witnesses must agree
    mu = _interleave_system()
    h = hopf_from(CatalogEntry("interleave", mu.species, mu, None), "mu", "mu")
    _assert_logged_routes_agree(h, eng._assoc, _assoc_by_vectors, 3, max_n=3)
    assert eng._assoc(h, GroundSet.first(3), decompositions(GroundSet.first(3), 3))


def _unital_by_vectors(h, I, decs):
    # _unital with both sides built as vectors and compared with Vec.basis(x)
    try:
        u = h.unit()
    except ValueError as exc:
        return {"error": str(exc)}
    for x in h.basis.elements(I):
        left = eng._nabla_basis(h, EMPTY, I, u, x)
        right = eng._nabla_basis(h, I, EMPTY, x, u)
        if left != Vec.basis(x) or right != Vec.basis(x):
            return {"inputs": [str(x)], "left": str(left), "right": str(right)}
    return None


def _coarsest_system():
    """Pi's species with x y the one-block partition of S u T: associative,
    but x 1 = x fails at the first x with two blocks."""
    sp = make_Pi().species
    mu = MultSystem(sp, lambda S, T, x, y: sp.elements(S.union(T))[0])
    return hopf_from(CatalogEntry("coarsest", sp, mu, None), "mu", "mu")


@pytest.mark.parametrize("family,args", _grid(), ids=str)
def test_unital_matches_the_vector_route_on_control_systems(family, args):
    h = eng._mu_mu(_MAKERS[family](*args).mu)
    _assert_logged_routes_agree(h, eng._unital, _unital_by_vectors, 0)


@pytest.mark.parametrize("spec,variant", [
    (spec, "-".join(variant))
    for spec in ("E", "E_C:2", "Pi", "L", "Perm", "S(X_C:2)")
    for variant in _ALL_VARIANTS
] + [("S(E_C:2)", "mu-mu")])
def test_unital_matches_the_vector_route_on_catalog(spec, variant):
    entry = parse_species(spec)
    if spec == "S(X_C:2)":
        entry = with_derived_pi(entry, 3)
    h = hopf_from(entry, *variant.split("-"))
    _assert_logged_routes_agree(h, eng._unital, _unital_by_vectors, 0)


def test_unital_matches_the_vector_route_on_a_non_unital_system():
    h = _coarsest_system()
    _assert_logged_routes_agree(h, eng._unital, _unital_by_vectors, 0)
    witness = eng._unital(h, GroundSet.first(2), ())
    assert witness == {"inputs": ["{1|2}"], "left": "{1,2}", "right": "{1,2}"}


class _Rotating(eng.LinearizedHopf):
    """h whose rules list their terms rotated one more place each time they
    are called with the same arguments: the same linear maps, with the two
    sides of an instance listed in different orders."""

    def __init__(self, h):
        super().__init__(h.name, h.basis, h.product, h.coproduct)
        self.calls = Counter()

    def _turned(self, call, terms):
        self.calls[call] += 1
        k = self.calls[call] % len(terms) if terms else 0
        return terms[k:] + terms[:k]

    def products(self, S, T, x, y):
        return self._turned((S, T, x, y), super().products(S, T, x, y))

    def splits(self, S, T, z):
        return self._turned((S, T, z), super().splits(S, T, z))


class _Doubling(eng.LinearizedHopf):
    """h whose products onto ``points`` points from an empty and a full part
    list each term twice."""

    def __init__(self, h, points):
        super().__init__(h.name, h.basis, h.product, h.coproduct)
        self.points = points

    def products(self, S, T, x, y):
        terms = super().products(S, T, x, y)
        return terms * 2 if len(S) + len(T) == self.points and not (S and T) else terms


def _counters_built(monkeypatch):
    """A list that gains one entry per Counter the engine builds from now on."""
    built = []

    class Counted(Counter):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(eng, "Counter", Counted)
    return built


@pytest.mark.parametrize("route,reference,parts", [
    (eng._assoc, _assoc_by_vectors, 3), (eng._hopf_compat, _hopf_compat_by_tensors, 2)],
    ids=["assoc", "hopf_compat"])
def test_oracles_count_sides_listed_in_another_order(monkeypatch, route, reference, parts):
    # Pi's (nabla^pi, Delta^mu) holds both diagrams, and its products and
    # splits have several terms at n = 2; rotated, some instance lists its
    # sides in two orders, which only the counts find equal
    I = GroundSet.first(2)
    h = hopf_from(make_Pi(), "pi", "mu")
    assert reference(_Rotating(h), I, decompositions(I, parts)) is None
    built = _counters_built(monkeypatch)
    assert route(_Rotating(h), I, decompositions(I, parts)) is None
    assert built


@pytest.mark.parametrize("points", [1, 2])
@pytest.mark.parametrize("route,reference,parts", [
    (eng._assoc, _assoc_by_vectors, 3), (eng._unital, _unital_by_vectors, 0),
    (eng._hopf_compat, _hopf_compat_by_tensors, 2)],
    ids=["assoc", "unital", "hopf_compat"])
def test_oracles_print_a_doubled_term_as_their_vector_routes(route, reference, parts, points):
    # _assoc fails at n = points with both sides counted, _unital with both
    # counted 2, the Hopf diagram at n = 2 with its bottom counted 4 (one
    # point) or its top counted 2 (two)
    h = _Doubling(hopf_from(make_Pi(), "mu", "pi"), points)
    for n in range(eng.ORACLE_MAX_N + 1):
        I = GroundSet.first(n)
        decs = decompositions(I, parts) if parts else ()
        witness = route(h, I, decs)
        assert witness == reference(h, I, decs), n
        if witness is not None:
            break
    assert n == 2 if route is eng._hopf_compat else n == points
    assert any(side[:2] in ("2*", "4*") for side in witness.values() if isinstance(side, str))


def _wrong_at_call(entry, k):
    """entry's (nabla^mu, Delta^pi) whose k-th rule call, counted from 1 over
    both systems, gives a result over other ground sets (unless all its parts
    are empty): mu returns an input, pi its pair reversed."""
    count = itertools.count(1)
    sp = entry.species

    def mu(S, T, x, y):
        return entry.mu(S, T, x, y) if next(count) != k else (y if S else x)

    def pi(S, T, z):
        pair = entry.pi(S, T, z)
        return pair if next(count) != k else pair[::-1]

    return eng.LinearizedHopf("wrong", sp, MultSystem(sp, mu), ComultSystem(sp, pi))


@pytest.mark.parametrize("route,reference,parts", [
    (eng._assoc, _assoc_by_vectors, 3), (eng._hopf_compat, _hopf_compat_by_tensors, 2)],
    ids=["assoc", "hopf_compat"])
def test_oracles_check_a_bad_rule_result_as_their_vector_routes(route, reference, parts):
    # whichever ground or key check sees the bad result first, the error and
    # the rule calls made before it agree
    entry = make_Pi()
    I = GroundSet.first(2)
    calls = len(_logged_run(hopf_from(entry, "mu", "pi"), route, I, parts)[1])
    errors = 0
    for k in range(1, calls + 1):
        got, want = (_logged_run(_wrong_at_call(entry, k), r, I, parts, catch=True)
                     for r in (route, reference))
        assert got == want, k
        errors += isinstance(got[0], str)
    assert errors > calls // 2   # most of the bad results lie over another ground set


def test_unital_checks_a_bad_rule_result_as_its_vector_route():
    # as test_oracles_check_a_bad_rule_result_as_their_vector_routes; each
    # bad result is the unit, over EMPTY, on either side
    entry = make_Pi()
    I = GroundSet.first(2)
    calls = len(_logged_run(hopf_from(entry, "mu", "pi"), eng._unital, I, 0)[1])
    errors = 0
    for k in range(1, calls + 1):
        got, want = (_logged_run(_wrong_at_call(entry, k), r, I, 0, catch=True)
                     for r in (eng._unital, _unital_by_vectors))
        assert got == want, k
        errors += isinstance(got[0], str)
    assert errors == calls == 4


def _vectors_built(monkeypatch):
    """A list that gains one entry per Vec or TensorVec built from now on."""
    built = []
    for cls in (Vec, TensorVec):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_assoc_and_hopf_oracles_build_vectors_only_for_a_witness(monkeypatch):
    # each instance is listed as rule results: a passing instance builds no
    # vector, a failing one the witness's two (Hopf compatibility fails for
    # Pi's (nabla^pi, Delta^pi), concat, blob, L's (nabla^mu, Delta^mu) and
    # the coarsest product, unitality for the coarsest product)
    systems = ([hopf_from(make_Pi(), *variant) for variant in _ALL_VARIANTS]
               + [eng._mu_mu(ps.mu) for ps in (concat_system(False), blob_system("zadd", 3),
                                               collapse_system(2, 2))]
               + [hopf_from(make_L(), "mu", "mu"), _coarsest_system()])
    built = _vectors_built(monkeypatch)
    witnesses = Counter()
    for h in systems:
        for oracle, parts, kind in ((eng._assoc, 3, "Vec"), (eng._unital, 0, "Vec"),
                                    (eng._hopf_compat, 2, "TensorVec")):
            for n in range(eng.ORACLE_MAX_N + 1):
                I = GroundSet.first(n)
                del built[:]
                witness = oracle(h, I, decompositions(I, parts) if parts else ())
                assert built == ([] if witness is None else [kind, kind]), \
                    (h.name, oracle.__name__, n)
                witnesses[oracle.__name__] += witness is not None
    assert witnesses == {"_assoc": 0, "_unital": 1, "_hopf_compat": 5}


@pytest.mark.parametrize("label,message", [
    (1, "element over {} in slot for {1}"),   # first bad result merges A and A'
    (2, "element over {} in slot for {2}"),   # first bad result merges B and B'
])
def test_hopf_bottom_path_rejects_rule_results_over_wrong_ground(entries, label, message):
    # mu(x, y) = x on (empty, {label}) alone, which only the bottom path asks
    # for on {1,2}: on (empty, {1}) first when merging A and A', on
    # (empty, {2}) first when merging B and B'
    pi_entry = entries["Pi"]
    sp, one = pi_entry.species, GroundSet.of([label])
    drops_y = MultSystem(sp, lambda S, T, x, y: x if (S, T) == (EMPTY, one)
                         else pi_entry.mu(S, T, x, y))
    h = eng.LinearizedHopf("bad", sp, drops_y, pi_entry.pi)
    I = GroundSet.first(2)
    for route in (eng._hopf_compat, _hopf_compat_by_tensors):
        _raises(ValueError, message, lambda: route(h, I, decompositions(I, 2)))


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


@pytest.mark.parametrize("variant", ["-".join(v) for v in _ALL_VARIANTS])
def test_routes_agree_on_a_pi_that_fails_past_the_oracle(variant):
    # Pi with one value of pi changed on three points: the axioms that read
    # pi fail at n = 3, where the kernel runs without the linear oracle
    product, coproduct = variant.split("-")
    failing = _assert_routes_agree(hopf_from(_pi_mutant(), product, coproduct))
    assert ("commutative" in failing) == (product == "pi")
    assert ("cocommutative" in failing) == (coproduct == "pi")


def test_routes_agree_on_non_associative_system():
    mu = _interleave_system()
    entry = CatalogEntry("interleave", mu.species, mu, None)
    h = hopf_from(entry, "mu", "mu")
    assert _assert_routes_agree(h) == ["associative", "commutative", "coassociative",
                                       "cocommutative", "hopf_compatible"]
    assert check_axiom(h, "associative", 3).status == "fail"


# co-axiom -> the product-side axiom it becomes on the dual
_TRANSPOSED = {"coassociative": "associative", "cocommutative": "commutative",
               "counital": "unital"}


def _assert_co_axioms_transpose(h, max_n):
    """Each co-axiom of h decides as its product-side axiom on the dual, whose
    product is h's coproduct transposed."""
    hd = dual_transpose(h)
    for co, axiom in _TRANSPOSED.items():
        rep, dual = check_axiom(h, co, max_n), check_axiom(hd, axiom, max_n)
        assert (rep.status, rep.n) == (dual.status, dual.n), (h.name, co)


@pytest.mark.parametrize("spec,variant", [
    (spec, "-".join(variant))
    for spec in ("E", "E_C:2", "Pi", "L", "Perm", "S(X_C:2)")
    for variant in _ALL_VARIANTS
] + [("S(E_C:2)", "mu-mu")])
def test_co_axioms_are_the_axioms_of_the_dual_on_catalog(spec, variant):
    entry = parse_species(spec)
    if spec == "S(X_C:2)":
        entry = with_derived_pi(entry, 4)
    _assert_co_axioms_transpose(hopf_from(entry, *variant.split("-")), 4)


@pytest.mark.parametrize("family,args", _grid(), ids=str)
def test_co_axioms_are_the_axioms_of_the_dual_on_control_systems(family, args):
    _assert_co_axioms_transpose(eng._mu_mu(_MAKERS[family](*args).mu), 3)


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


def _raises(exc_type, message, apply):
    with pytest.raises(exc_type) as got:
        apply()
    assert str(got.value) == message


def test_linear_maps_reject_rule_results_over_wrong_ground(entries):
    # every map checks the rule results it adds with the public constructors'
    # messages: mu(x, y) = x lands over S, pi reversed puts T's part first
    pi_entry = entries["Pi"]
    sp = pi_entry.species
    drops_y = MultSystem(sp, lambda S, T, x, y: x)
    swaps = ComultSystem(sp, lambda S, T, z: pi_entry.pi(S, T, z)[::-1])
    h = eng.LinearizedHopf("bad", sp, drops_y, swaps)
    S, T = GroundSet.of([1]), GroundSet.of([2])
    x, y = SetPartitionElt.of([[1]]), SetPartitionElt.of([[2]])
    xy = TensorVec.basis((x, y))
    z = SetPartitionElt.of([[1], [2]])
    in_vec = "element over {1} in Vec over {1,2}"
    in_slot = "element over {2} in slot for {1}"
    for apply, message in (
            (lambda: h.nabla(S, T, xy), in_vec),
            (lambda: eng._nabla_basis(h, S, T, x, y), in_vec),
            (lambda: eng.apply_nabla_at(h, xy, 0), "element over {1} in slot for {1,2}"),
            (lambda: h.delta(S, T, Vec.basis(z)), in_slot),
            (lambda: eng._delta_basis(h, S, T, z), in_slot),
            (lambda: eng.apply_delta_at(h, TensorVec.basis((z,)), 0, S, T), in_slot)):
        _raises(ValueError, message, apply)
    # a pi whose first part is right and whose second repeats it
    h = eng.LinearizedHopf("bad", sp, drops_y,
                           ComultSystem(sp, lambda S, T, z: pi_entry.pi(S, T, z)[:1] * 2))
    for apply in (lambda: h.delta(S, T, Vec.basis(z)),
                  lambda: eng._delta_basis(h, S, T, z),
                  lambda: eng.apply_delta_at(h, TensorVec.basis((z,)), 0, S, T)):
        _raises(ValueError, "element over {1} in slot for {2}", apply)
    # _assoc applies nabla to xy (x) z through its own accumulator: here mu
    # drops y only onto {1,2,3}, so nabla_{{1,2},{3}} is the first bad result
    last_drops_y = MultSystem(sp, lambda S, T, x, y: x if len(S.union(T)) == 3
                              else pi_entry.mu(S, T, x, y))
    h3 = eng.LinearizedHopf("bad", sp, last_drops_y, pi_entry.pi)
    _raises(ValueError, "element over {1,2} in Vec over {1,2,3}",
            lambda: eng._assoc(h3, GroundSet.first(3), [(S, T, GroundSet.of([3]))]))


def test_linear_maps_reject_a_split_of_the_wrong_arity(entries):
    pi_entry = entries["Pi"]
    sp = pi_entry.species
    three = ComultSystem(sp, lambda S, T, z: pi_entry.pi(S, T, z) + (sp.unit_element(),))
    h = eng.LinearizedHopf("bad", sp, pi_entry.mu, three)
    S, T = GroundSet.of([1]), GroundSet.of([2])
    z = SetPartitionElt.of([[1], [2]])
    for apply in (lambda: h.delta(S, T, Vec.basis(z)),
                  lambda: eng._delta_basis(h, S, T, z),
                  lambda: eng.apply_delta_at(h, TensorVec.basis((z,)), 0, S, T)):
        _raises(ValueError, "term arity does not match parts", apply)


def test_linear_maps_check_rule_results_after_every_rule_call(entries):
    # as in the public constructors, the results are checked once all terms
    # are in: a rule that raises on the second term wins over a bad first one
    sp = entries["Pi"].species
    S, T = GroundSet.of([1, 2]), GroundSet.of([3])
    first, second = sp.elements(S)
    w = SetPartitionElt.of([[3]])

    def rule(S, T, x, y):
        if x == first:
            return x
        raise RuntimeError("second term")

    h = eng.LinearizedHopf("bad", sp, MultSystem(sp, rule), entries["Pi"].pi)
    t = TensorVec((S, T), [((first, w), 1), ((second, w), 1)])
    _raises(RuntimeError, "second term", lambda: h.nabla(S, T, t))
    _raises(RuntimeError, "second term", lambda: eng.apply_nabla_at(h, t, 0))


def test_linear_maps_drop_cancelled_terms():
    # max of constant colors: x0 (x) y and x1 (x) y have one product, so their
    # difference maps to zero, which has no terms
    mu = blob_system("zmax", 2).mu
    sp = mu.species
    h = eng.LinearizedHopf("blob", sp, mu, mu)
    S, T = GroundSet.of([1]), GroundSet.of([2])
    (x0, x1), y = sp.elements(S), sp.elements(T)[1]
    t = TensorVec((S, T), [((x0, y), 1), ((x1, y), -1)])
    assert h.nabla(S, T, t).terms == {}
    assert eng.apply_nabla_at(h, t, 0).terms == {}


def test_delta_rejects_overlapping_parts(entries):
    # a pi that never looks at S and T gives pairs over them; the tensor over
    # an overlapping (S, T) is still refused: delta forms S u T first
    sp = entries["Pi"].species
    blind = ComultSystem(sp, lambda S, T, z: (sp.elements(S)[0], sp.elements(T)[0]))
    h = eng.LinearizedHopf("bad", sp, entries["Pi"].mu, blind)
    S, T = GroundSet.of([1, 2]), GroundSet.of([2])
    z = SetPartitionElt.of([[1, 2]])
    _raises(ValueError, "ground sets overlap: {1,2} and {2}", lambda: h.delta(S, T, Vec.basis(z)))
    _raises(ValueError, "tensor parts must be pairwise disjoint",
            lambda: eng._delta_basis(h, S, T, z))


@pytest.mark.parametrize("key", ["E_C:2", "Pi"])
def test_nabla_and_delta_reject_inputs_over_other_ground_sets(entries, key):
    h = hopf_from(entries[key])
    sp = entries[key].species
    one, two, three = (GroundSet.of([i]) for i in (1, 2, 3))
    v = Vec.basis(sp.elements(GroundSet.first(3))[0])
    _raises(ValueError, "vector ground does not match S u T", lambda: h.delta(one, two, v))
    t = TensorVec.basis((sp.elements(one)[0], sp.elements(three)[0]))
    _raises(ValueError, "tensor parts do not match (S, T)", lambda: h.nabla(one, two, t))


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


def test_transport_tables_are_shared_per_bijection():
    entry = make_Perm()
    sp, I, calls = entry.species, GroundSet.first(4), []
    rule = sp.transport_fn

    def counted(sigma, x):
        calls.append(sigma)
        return rule(sigma, x)

    sp.transport_fn = counted
    assert eng._natural_by_tables(entry, I) is None
    assert calls
    calls.clear()
    assert eng._natural_by_tables(entry, I) is None
    assert core._transport_certified(sp, I) is None
    assert core.transport_check(sp, I).ok  # above the oracle: tables only
    assert calls == []
    sigma = Bijection(I, I, (2, 3, 4, 1))
    assert sp.transport_table(sigma) is sp.transport_table(Bijection(I, I, (2, 3, 4, 1)))


def test_lying_table_routes_are_fatal_at_small_n(monkeypatch):
    I = GroundSet.first(3)
    monkeypatch.setattr(core, "_transport_certified", lambda P, I: None)
    with pytest.raises(FatalInconsistency, match="transport"):
        core.transport_check(_twisted_L(_three_cycle(3)), I)
    monkeypatch.setattr(core, "_transport_certified", lambda P, I: False)
    with pytest.raises(FatalInconsistency, match="transport"):
        core.transport_check(make_L().species, I)
    monkeypatch.setattr(eng, "_natural_by_tables", lambda entry, I: None)
    for system in ("mu", "pi"):
        with pytest.raises(FatalInconsistency, match="naturality .* at n=3"):
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
    _, kernel, linear = eng._AXIOM_ROUTES["associative"]
    assert kernel(h, I, decompositions(I, 3)) is False
    witness = linear(h, I, decompositions(I, 3))
    assert witness["inputs"] == ["[1:1]", "[2:0]", "[3:1]"]
    assert check_axiom(h, "associative", 3) == CheckReport(
        "associative", h.name, 3, "fail", witness)


def _one_sided_unit_mutant(system, side, I=GroundSet.first(3)):
    """Pi whose mu (unit on the ``side`` of the product) or pi (over
    ({}, I) or (I, {}), by ``side``) sends the last element of P[I] to the
    first, I = {1,2,3} by default: the (co)unit axioms that read it fail over
    I only, on that one side."""
    entry = make_Pi()
    first, last = entry.species.elements(I)[0], entry.species.elements(I)[-1]

    def hit(S, T):
        return (not S and T == I) if side == "left" else (S == I and not T)

    def mu(S, T, x, y):
        if hit(S, T) and (y if side == "left" else x) == last:
            return first
        return entry.mu(S, T, x, y)

    def pi(S, T, w):
        return entry.pi(S, T, first if hit(S, T) and w == last else w)

    sp = entry.species
    if system == "mu":
        return CatalogEntry("Pi-unit", sp, MultSystem(sp, mu), entry.pi)
    return CatalogEntry("Pi-counit", sp, entry.mu, ComultSystem(sp, pi))


@pytest.mark.parametrize("system", ["mu", "pi"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_unit_kernels_fail_past_the_oracle_on_either_side(system, side):
    # at n = 3 no oracle runs beside the kernel: one that read one side only
    # would pass here
    entry = _one_sided_unit_mutant(system, side)
    broken = getattr(entry, system)
    for variant in _ALL_VARIANTS:
        h = hopf_from(entry, *variant)
        for axiom, read in (("unital", h.product), ("counital", h.coproduct)):
            assert check_axiom(h, axiom, 2).ok
            rep = check_axiom(h, axiom, 3)
            assert (rep.status, rep.n) == (("fail", 3) if read is broken else ("pass", 3))


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
    parts, kernel, linear = eng._AXIOM_ROUTES[axiom]
    assert check_axiom(h, axiom, 2).ok
    I = GroundSet.first(3)
    decs = decompositions(I, parts)
    assert kernel(h, I, decs) is False
    assert kernel(h, I, decs[:-1]) is None
    witness = linear(h, I, decs)
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
    ("coassociative", ("mu", "mu")), ("coassociative", ("pi", "mu")),
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
    from species_forge.cli import SUITE_TABLE, Runner
    entry = _stray_color(lambda I: len(I) == 3)
    r = Runner(entry, 3, 0, False)
    row = next(row for row in SUITE_TABLE["axioms"].rows if row.name == "associative")
    rep = r.run(row, hopf_from(entry, "mu", "pi"))
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
    from species_forge.cli import SUITE_TABLE, Runner
    row = next(row for row in SUITE_TABLE["axioms"].rows if row.name == "naturality")
    for n in (2, 3):
        entry = _stray_color(lambda I, n=n: len(I) == n)
        r = Runner(entry, n, 0, False)
        rep = r.run(row)
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
    """The element route's (status, n, witness).  With the oracle off, the row
    asks the element route only where the Hopf kernel fails, and a kernel
    failure the element route does not confirm is fatal: so the row reports
    the same only if the kernel fails first at the same n."""
    h = eng.LinearizedHopf(entry.key, entry.species, entry.mu, entry.pi)
    slow = _route_report(eng._rectangle_elements, h, 0, max_n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "ORACLE_MAX_N", -1)
        rep = check_preorder_rectangle(entry, max_n)
    assert (rep.status, rep.n, rep.witness) == slow, entry.key
    return slow


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


def test_rectangle_routes_agree_on_catalog_and_mutants(monkeypatch, entries):
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
    # the fast route is the Hopf kernel of (nabla^mu, Delta^pi) over I = {1..m}
    # first, then over the other subsets of I that contain m, by size, then
    # lexicographically: a J without m was decided at m = max(J)
    seen, hopfs = [], set()

    def spy(h, J, decs, route=eng._hopf_terms):
        assert (h.product, h.coproduct, decs) == (entries["Pi"].mu, entries["Pi"].pi,
                                                  decompositions(J, 2))
        seen.append(J.labels)
        hopfs.add(id(h))
        return route(h, J, decs)

    builds = []

    def readers(h, build=eng._position_readers):
        builds.append(h._readers is None)
        return build(h)

    monkeypatch.setattr(eng, "_hopf_terms", spy)
    monkeypatch.setattr(eng, "_position_readers", readers)
    assert check_preorder_rectangle(entries["Pi"], 3).ok
    assert seen == [(), (1,), (1, 2), (2,), (1, 2, 3), (3,), (1, 3), (2, 3)]
    # one row, one set of position readers, built at the kernel's first call
    assert len(hopfs) == 1 and builds == [True] + [False] * (len(seen) - 1)
    # over m = 0..6 each of the 64 subsets of {1..6} is decided once
    seen.clear()
    monkeypatch.setenv("SPECIES_FORGE_CEILING", "6")
    monkeypatch.setattr(eng, "_hopf_terms", lambda h, J, decs: seen.append(J) and None)
    assert check_preorder_rectangle(entries["Pi"], 6).ok
    assert len(seen) == len(set(seen)) == 64


def test_position_readers_are_built_once_per_triple_and_free_it(monkeypatch, entries):
    # every check of one triple reads the readers kept on it at first use,
    # and they do not refer back to it: dropping the triple frees it at once
    builds = []

    def readers(h, build=eng._position_readers):
        builds.append(h._readers is None)
        return build(h)

    monkeypatch.setattr(eng, "_position_readers", readers)
    h = hopf_from(entries["Pi"], "mu", "pi")
    assert check_axiom(h, "hopf_compatible", 4).ok
    assert check_delta_nabla_identity(h, 4).ok
    assert builds[0] and not any(builds[1:]) and len(builds) > 2
    kept = weakref.ref(h)
    gc.disable()
    try:
        del h
        assert kept() is None
    finally:
        gc.enable()


def _rectangle_sides(entry, R, S, xs):
    """The two sides of the rectangle on elements: pi.fold over S of mu.fold
    over R, and per part of S the mu.fold of the cells R_i n S_j."""
    mu, pi = entry.mu, entry.pi
    cells = [pi.fold(tuple(Ri.intersect(Sj) for Sj in S), x) for Ri, x in zip(R, xs)]
    return (tuple(pi.fold(S, mu.fold(R, xs))),
            tuple(mu.fold(tuple(Ri.intersect(Sj) for Ri in R), col)
                  for Sj, col in zip(S, zip(*cells))))


def _rectangle_fails(entry, J):
    """Some k x l instance of the rectangle over J fails, k, l in {2, 3}."""
    for k, l in itertools.product((2, 3), repeat=2):
        for R in decompositions(J, k):
            for xs in itertools.product(*map(entry.species.elements, R)):
                for S in decompositions(J, l):
                    lhs, rhs = _rectangle_sides(entry, R, S, xs)
                    if lhs != rhs:
                        return True
    return False


def _single_value_mutant(entry, rng):
    """``entry`` with one value of mu or pi over a disjoint pair of subsets of
    {1,2,3} replaced by another element, all drawn from ``rng``."""
    sp = entry.species
    while True:
        S, T, _ = rng.choice(decompositions(GroundSet.first(3), 3))
        if rng.random() < 0.5:
            key = (S, T, rng.choice(sp.elements(S)), rng.choice(sp.elements(T)))
            others = [z for z in sp.elements(S.union(T)) if z != entry.mu(*key)]
            if others:
                new = rng.choice(others)
                mu = MultSystem(sp, lambda *args: new if args == key else entry.mu(*args))
                return CatalogEntry(entry.key + "-mu", sp, mu, entry.pi)
        else:
            key = (S, T, rng.choice(sp.elements(S.union(T))))
            others = [p for p in itertools.product(sp.elements(S), sp.elements(T))
                      if p != tuple(entry.pi(*key))]
            if others:
                new = rng.choice(others)
                pi = ComultSystem(sp, lambda *args: new if args == key else entry.pi(*args))
                return CatalogEntry(entry.key + "-pi", sp, entry.mu, pi)


def test_rectangle_row_is_the_exhaustive_rectangle_over_every_subset_on_mutants():
    # every one of these mutants breaks the rectangle, some at n = 2, where the
    # element oracle runs beside the kernel, and some at n = 3, where it runs
    # only because the kernel failed
    rng, failed_at = random.Random(2201), []
    for spec, count in (("E_C:2", 12), ("L", 12), ("Pi", 6)):
        for _ in range(count):
            entry = _single_value_mutant(parse_species(spec), rng)
            rep = check_preorder_rectangle(entry, 3)  # a split would raise
            first = next((m for m in range(4) if any(
                _rectangle_fails(entry, GroundSet(labels)) for size in range(m + 1)
                for labels in itertools.combinations(range(1, m + 1), size))), None)
            assert (rep.status, rep.n) == ("fail", first), entry.key
            failed_at.append(first)
            w, sp = rep.witness, entry.species
            R, S = (tuple(map(GroundSet.of, w[side])) for side in ("R_parts", "S_parts"))
            xs = [next(x for x in sp.elements(Ri) if str(x) == s) for Ri, s in zip(R, w["inputs"])]
            lhs, rhs = _rectangle_sides(entry, R, S, xs)
            assert lhs != rhs and [w["lhs"], w["rhs"]] == [list(map(str, lhs)), list(map(str, rhs))]
    assert set(failed_at) == {2, 3}


def test_element_oracles_run_in_every_call(monkeypatch, entries):
    seen = []
    for name in ("_local_elements", "_rectangle_elements", "_fsd_elements"):
        def spy(h, I, decs, route=getattr(eng, name)):
            seen.append(len(I))
            return route(h, I, decs)
        monkeypatch.setattr(eng, name, spy)
    for _ in range(2):
        assert check_self_compatible(entries["Pi"].mu, "local", 3, species_key="Pi").ok
        assert check_preorder_rectangle(entries["Pi"], 3).ok
        assert check_fsd(hopf_from(entries["Pi"], "mu", "mu"), 3).ok
    assert seen == list(range(eng.ORACLE_MAX_N + 1)) * 6
    # past the bound the FSD element route runs only where the kernel fails:
    # Pi's mu-pi triple fails at n = 2
    seen.clear()
    monkeypatch.setattr(eng, "ORACLE_MAX_N", 0)
    rep = check_fsd(hopf_from(entries["Pi"], "mu", "pi"), 3)
    assert (rep.status, rep.n, seen) == ("fail", 2, [0, 2])


@pytest.mark.parametrize("name", ["_local_terms", "_hopf_terms", "_fsd_terms"])
def test_table_split_from_element_oracle_is_fatal(monkeypatch, entries, name):
    route = getattr(eng, name)

    def lie(h, I, decs):
        # the FSD kernel never names a witness: it flips None and False; the
        # rectangle keeps no witness of the Hopf kernel it runs over every J,
        # so flipping that kernel over each J of size n flips the row at n
        if name == "_fsd_terms":
            return False if route(h, I, decs) is None else None
        if name == "_hopf_terms":
            return {"forced": True} if route(h, I, decs) is None else None
        return {"forced": True}

    def lies_at(n):
        return lambda h, I, decs: lie(h, I, decs) if len(I) == n else route(h, I, decs)

    def check(variant=("mu", "mu")):
        if name == "_local_terms":
            return check_self_compatible(entries["Pi"].mu, "local", 3, species_key="Pi")
        if name == "_fsd_terms":
            return check_fsd(hopf_from(entries["Pi"], *variant), 3)
        return check_preorder_rectangle(entries["Pi"], 3)

    monkeypatch.setattr(eng, name, lies_at(eng.ORACLE_MAX_N))
    with pytest.raises(FatalInconsistency, match="table and element"):
        check()
    if name == "_fsd_terms":
        # the reverse flip is fatal too (Pi's mu-pi triple fails at n = 2)
        with pytest.raises(FatalInconsistency, match="table and element fsd"):
            check(("mu", "pi"))
    monkeypatch.setattr(eng, name, lies_at(eng.ORACLE_MAX_N + 1))
    if name == "_local_terms":
        # past the oracle the table route alone decides
        rep = check()
        assert (rep.status, rep.witness) == ("fail", {"forced": True})
        return
    # past the oracle a False is fatal unless the element route confirms it
    row = "fsd" if name == "_fsd_terms" else "preorder_rectangle"
    with pytest.raises(FatalInconsistency, match=f"{row} checks .* at n={eng.ORACLE_MAX_N + 1}"):
        check()


# ---------------------------------------------------------------------------
# the oracles read the rules, never the compiled tables

_ORACLE_SPECIES = {
    "E_C:2": lambda: make_E_C(2),
    "Pi": make_Pi,
    "L": make_L,
    "Perm": make_Perm,
    "S(X_C:2)": lambda: with_derived_pi(make_S(make_X_C(2)), eng.ORACLE_MAX_N),
}
# linear checker or element route -> parts per decomposition, 0 for none
_DIAGRAM_ORACLES = {eng._assoc: 3, eng._comm: 2, eng._unital: 0, eng._coassoc: 3,
                    eng._cocomm: 2, eng._counital: 0, eng._hopf_compat: 2,
                    eng._delta_nabla_linear: 2, eng._fsd_elements: 2}


def _oracle_results(entry, max_n):
    """What every engine and core oracle returns over {1..n}, n <= max_n, on
    each variant it takes: a witness, None, or the error it raised."""
    def result(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    out = []
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        out.append(result(eng._naturality_exhaustive, entry, I))
        out.append(result(lambda: core._transport_exhaustive(entry.species, I).witness))
        for p, c in itertools.product(("mu", "pi"), repeat=2):
            h = hopf_from(entry, p, c)
            for oracle, parts in _DIAGRAM_ORACLES.items():
                out.append(result(oracle, h, I, decompositions(I, parts) if parts else ()))
            if p == "mu":
                out.append(result(eng._local_elements, h, I, decompositions(I, 2)))
            if (p, c) == ("mu", "pi"):
                out.append(result(eng._rectangle_elements, h, I, ()))
    return out


def _refuse_the_compiled_tables(monkeypatch):
    """Make every position table and reader raise when read."""
    def refuse(name):
        def read(*args, **kwargs):
            raise AssertionError(f"an oracle read {name}")
        return read

    for owner, name in ((MultSystem, "table"), (ComultSystem, "table"),
                        (SetSpecies, "transport_table"), (SetSpecies, "positions"),
                        (eng, "_position_readers")):
        monkeypatch.setattr(owner, name, refuse(name))


@pytest.mark.parametrize("key", sorted(_ORACLE_SPECIES))
def test_oracles_ignore_the_compiled_tables(monkeypatch, key):
    # ROADMAP item 11, narrowed to the engine and core oracles: on a fresh
    # entry, with every position table and reader refusing to be read, each
    # oracle answers as before
    want = _oracle_results(_ORACLE_SPECIES[key](), eng.ORACLE_MAX_N)
    _refuse_the_compiled_tables(monkeypatch)
    assert _oracle_results(_ORACLE_SPECIES[key](), eng.ORACLE_MAX_N) == want


_CONTROL_ORACLES = {eng._assoc: 3, eng._hopf_compat: 2, eng._comm: 2, eng._unital: 0,
                    eng._local_elements: 2}


@pytest.mark.parametrize("make", [lambda: concat_system(False), lambda: blob_system("zadd", 3),
                                  lambda: collapse_system(2, 2)],
                         ids=["concat", "blob[zadd:3]", "collapse[c=2,d=2]"])
def test_oracles_ignore_the_compiled_tables_on_control_systems(monkeypatch, make):
    # the oracles that run on every control system, on a fresh one each time
    def results():
        h = eng._mu_mu(make().mu)
        return [oracle(h, I, decompositions(I, parts) if parts else ())
                for I in map(GroundSet.first, range(eng.ORACLE_MAX_N + 1))
                for oracle, parts in _CONTROL_ORACLES.items()]

    want = results()
    _refuse_the_compiled_tables(monkeypatch)
    assert results() == want


# ---------------------------------------------------------------------------
# the nonempty-block walk against the full walk
#
# The kernels skip the decompositions with an empty block once the unit and
# counit hold over every subset of I.  These references walk every
# decomposition, as the kernels did before the skip.

def _full_mu_associative(mu, I, decs):
    dim = mu.species.dim
    for R, S, T in decs:
        rs, st = mu.table(R, S), mu.table(S, T)
        left, right = mu.table(R.union(S), T), mu.table(R, S.union(T))
        dT, dST = dim(T), dim(S.union(T))
        if ([left[u * dT + c] for u in rs for c in range(dT)]
                != [right[a * dST + v] for a in range(dim(R)) for v in st]):
            return False
    return None


def _full_pi_coassociative(pi, I, decs):
    for R, S, T in decs:
        left, rs = pi.table(R.union(S), T), pi.table(R, S)
        right, st = pi.table(R, S.union(T)), pi.table(S, T)
        if [rs[u] + (t,) for u, t in left] != [(r,) + st[v] for r, v in right]:
            return False
    return None


def _full_hopf_terms(h, I, decs):
    products, splits = eng._position_readers(h)
    el, dim = h.basis.elements, h.basis.dim
    for R, Rp in decs:
        dRp, xy = dim(Rp), products(R, Rp)
        for S, Sp in decs:
            A, B = R.intersect(S), R.intersect(Sp)
            Ap, Bp = Rp.intersect(S), Rp.intersect(Sp)
            dz, dx, dy = splits(S, Sp), splits(A, B), splits(Ap, Bp)
            mA, mB, wA, wB = products(A, Ap), products(B, Bp), dim(Ap), dim(Bp)
            for a in range(dim(R)):
                for b in range(dRp):
                    top = [p for z in xy[a * dRp + b] for p in dz[z]]
                    bottom = [(c, d) for s, t in dx[a] for sp, tp in dy[b]
                              for c in mA[s * wA + sp] for d in mB[t * wB + tp]]
                    if top != bottom and Counter(top) != Counter(bottom):
                        return {"R": list(R), "Rp": list(Rp), "S": list(S), "Sp": list(Sp),
                                "inputs": [str(el(R)[a]), str(el(Rp)[b])],
                                "top": eng._printed(h.basis, (S, Sp), top),
                                "bottom": eng._printed(h.basis, (S, Sp), bottom)}
    return None


def _full_local_terms(h, I, decs):
    mu, el, dim, n = h.product, h.basis.elements, h.basis.dim, len(I)
    for S, T in decs:
        dS, dT, st, ts = dim(S), dim(T), mu.table(S, T), mu.table(T, S)
        seen = {}
        for a in range(dS):
            for b in range(dT):
                z, zz = st[a * dT + b], ts[b * dS + a]
                if z != zz:
                    return {"mode": "local", "condition": "commutative", "n": n,
                            "inputs": [str(el(S)[a]), str(el(T)[b])],
                            "lhs": str(el(I)[z]), "rhs": str(el(I)[zz])}
                if z in seen:
                    p, q = seen[z]
                    return {"mode": "local", "condition": "injective", "n": n,
                            "collision": [[str(el(S)[p]), str(el(T)[q])],
                                          [str(el(S)[a]), str(el(T)[b])]],
                            "value": str(el(I)[z])}
                seen[z] = (a, b)
    image = functools.cache(lambda S, T: frozenset(mu.table(S, T)))
    for S, Sp in decs:
        width, products = dim(Sp), mu.table(S, Sp)
        for A, B in decs:
            img, img_s = image(A, B), image(A.intersect(S), B.intersect(S))
            img_sp = image(A.intersect(Sp), B.intersect(Sp))
            for k, z in enumerate(products):
                a, b = divmod(k, width)
                if z in img and (a not in img_s or b not in img_sp):
                    return {"mode": "local", "condition": "image", "n": n,
                            "S": list(S), "Sp": list(Sp), "A": list(A), "B": list(B),
                            "inputs": [str(el(S)[a]), str(el(Sp)[b])]}
    return None


# (route name, parts per decomposition, the kernel, its full-walk reference)
_WALKS = [
    ("associative", 3, eng._AXIOM_ROUTES["associative"][1],
     eng._reading("product", _full_mu_associative, _full_pi_coassociative)),
    ("coassociative", 3, eng._AXIOM_ROUTES["coassociative"][1],
     eng._reading("coproduct", _full_mu_associative, _full_pi_coassociative)),
    ("hopf_compatible", 2, eng._hopf_terms, _full_hopf_terms),
]


def _walks_agree(h, max_n, local=False):
    """Each kernel's (status, n, witness) equals its full walk's; returns them
    by route name."""
    walks = _WALKS + ([("local", 2, eng._local_terms, _full_local_terms)] if local else [])
    got = {}
    for name, parts, kernel, full in walks:
        got[name] = _route_report(kernel, h, parts, max_n)
        assert got[name] == _route_report(full, h, parts, max_n), (h.name, name)
    return got


@pytest.mark.parametrize("family,args", _grid(), ids=str)
def test_nonempty_walk_agrees_with_the_full_walk_on_the_control_grid(family, args):
    ps = _MAKERS[family](*args)
    got = _walks_agree(eng._mu_mu(ps.mu), 3, local=True)
    assert got["associative"] == got["coassociative"] == ("pass", 3, None)
    assert got["local"][0] == "fail" and got["local"][2]["condition"] == ps.breaks


@pytest.mark.parametrize("spec", ["E", "E_C:2", "Pi", "L", "Perm", "S(X_C:2)", "S(E_C:2)"])
def test_nonempty_walk_agrees_with_the_full_walk_on_every_catalog_variant(spec):
    entry = parse_species(spec)
    if entry.pi is None:
        try:
            entry = with_derived_pi(entry, 4)
        except ValueError:   # S(E_C:2): its product is not bijective
            pass
    for variant in _ALL_VARIANTS:
        if all(getattr(entry, kind) is not None for kind in variant):
            _walks_agree(hopf_from(entry, *variant), 4, local=variant == ("mu", "mu"))


def test_nonempty_walk_skips_the_empty_blocks_of_a_unital_counital_triple():
    # 6 of the 27 triples and 6 of the 8 pairs at n = 3
    h = hopf_from(make_Pi(), "mu", "pi")
    units = [eng._AXIOM_ROUTES[axiom][1] for axiom in ("unital", "counital")]
    for parts, kept in ((2, 6), (3, 6)):
        decs = decompositions(GroundSet.first(3), parts)
        narrowed = eng._nonempty_blocks(decs, h, *units)
        assert narrowed == [d for d in decs if all(len(p) for p in d)]
        assert len(narrowed) == kept


@pytest.mark.parametrize("system", ["mu", "pi"])
def test_a_unit_that_fails_off_the_initial_segment_takes_the_full_walk(system):
    # check_axiom's (co)unit rows read {1..m} only and pass; at n = 3 no
    # oracle runs beside the kernels, so a kernel that decided the (co)unit
    # there only would skip instances it has not proved
    entry = _one_sided_unit_mutant(system, "left", GroundSet.of([2, 3]))
    broken, I = getattr(entry, system), GroundSet.first(3)
    units = [eng._AXIOM_ROUTES[axiom][1] for axiom in ("unital", "counital")]
    for variant in _ALL_VARIANTS:
        h = hopf_from(entry, *variant)
        assert check_axiom(h, "unital", 3).ok and check_axiom(h, "counital", 3).ok
        got = _walks_agree(h, 3, local=variant == ("mu", "mu"))
        before = _walks_agree(hopf_from(make_Pi(), *variant), 3)
        for name, read in (("associative", (h.product,)), ("coassociative", (h.coproduct,)),
                           ("hopf_compatible", (h.product, h.coproduct))):
            if broken not in read:
                assert got[name] == before[name], (variant, name)
            elif before[name][0] == "pass":
                assert got[name][:2] == ("fail", 3), (variant, name)
        decs = decompositions(I, 2)
        assert (eng._nonempty_blocks(decs, h, *units) is decs) == (
            broken in (h.product, h.coproduct))
        rep = check_axiom(h, "hopf_compatible", 3)
        assert (rep.status, rep.n, rep.witness) == got["hopf_compatible"], variant


def test_an_exchange_failure_past_the_oracle_keeps_the_kernel_witness():
    # the flip mutant of test_delta_mu_fails_hopf_compatibility_past_the_oracle
    # first fails on three points, at an instance of nonempty blocks that the
    # full walk reaches after instances with an empty block
    entry = make_E_C(2)

    def rule(S, T, x, y):
        if len(S) == 1 and len(T) == 2:
            x = MapTo(S, (1 - x.colors[0],))
        return entry.mu(S, T, x, y)

    flip = CatalogEntry("flip", entry.species, MultSystem(entry.species, rule), entry.pi)
    failed = 0
    for variant in _ALL_VARIANTS:
        h = hopf_from(flip, *variant)
        got = _walks_agree(h, 3)["hopf_compatible"]
        rep = check_axiom(h, "hopf_compatible", 3)
        assert (rep.status, rep.n, rep.witness) == got, variant
        failed += got[:2] == ("fail", 3)
    assert failed
    h = hopf_from(flip, "pi", "mu")
    I = GroundSet.first(3)
    assert eng._hopf_terms(h, I, decompositions(I, 2)) == {
        "R": [1, 2], "Rp": [3], "S": [1], "Sp": [2, 3], "inputs": ["[1:0,2:0]", "[3:0]"],
        "top": "[1:1] (x) [2:0,3:0]", "bottom": "[1:0] (x) [2:0,3:0]"}
