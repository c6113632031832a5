"""The order, its lattice/interval properties, reconstruction, and the bases."""

import itertools
import random
from collections import Counter

import pytest

from species_forge import order as order_mod
from species_forge.catalog import (
    MultSystem, _mapto_merge, make_E_C, make_Perm, make_Pi, make_S, make_X_C,
    with_derived_pi,
)
from species_forge.classify import f_mu
from species_forge.cli import main
from species_forge.core import (
    Bijection, GroundSet, MapTo, PermutationElt, SetPartitionElt, TensorVec, Vec,
    decompositions,
)
from species_forge.engine import FatalInconsistency, hopf_from
from species_forge.order import (
    OrderSlice, SpeciesOrder, check_AB, check_all_lower_lattices, check_basis_change_matrices,
    check_basis_theorem, check_lower_lattice, check_order_transport,
    check_pq_unitriangular, check_reconstruct_roundtrip,
    hasse_dot, pq_tables, reconstruct_pi,
)


@pytest.fixture(scope="module")
def entries():
    return {e.key: e for e in (make_E_C(2), make_Perm(), make_Pi())}


@pytest.fixture(scope="module")
def orders(entries):
    return {k: SpeciesOrder(e.mu, e.pi, k) for k, e in entries.items()}


# ---------------------------------------------------------------------------
# independent oracles

def refines(x: SetPartitionElt, y: SetPartitionElt) -> bool:
    return all(any(set(b.labels) <= set(c.labels) for c in y.blocks) for b in x.blocks)


def cyclic_rotations(word):
    return [word[i:] + word[:i] for i in range(len(word))]


def cycles_equal(a, b):
    return len(a) == len(b) and tuple(b) in cyclic_rotations(tuple(a))


def is_shuffle_pair(c, a, b):
    """c is a shuffle of cycles a and b, by the subsequence definition."""
    n, k = len(c), len(a)
    if k + len(b) != n:
        return False
    for word in cyclic_rotations(tuple(c)):
        for keep in itertools.combinations(range(n), k):
            sub = tuple(word[i] for i in keep)
            rest = tuple(word[i] for i in range(n) if i not in keep)
            if cycles_equal(sub, a) and cycles_equal(rest, b):
                return True
    return False


def is_shuffle(c, parts):
    parts = [tuple(p) for p in parts]
    if len(parts) == 1:
        return cycles_equal(c, parts[0])
    a = parts[0]
    rest = parts[1:]
    # c is a shuffle of a and some shuffle b of the rest: enumerate b directly
    rest_support = [x for p in rest for x in p]
    if len(parts) == 2:
        return is_shuffle_pair(c, a, rest[0])
    for b_perm in itertools.permutations(rest_support):
        b = b_perm
        if not is_shuffle(b, rest):
            continue
        if is_shuffle_pair(c, a, b):
            return True
    return False


def perm_le_shuffle(lam: PermutationElt, lam2: PermutationElt) -> bool:
    """lam below lam2: every cycle of lam2 shuffles the lam-cycles it covers."""
    lam_cycles = lam.cycles()
    for c in lam2.cycles():
        support = set(c)
        inside = [cy for cy in lam_cycles if set(cy) <= support]
        if sum(len(cy) for cy in inside) != len(support):
            return False
        if not is_shuffle(c, inside):
            return False
    return True


# ---------------------------------------------------------------------------
# computing the order

@pytest.mark.parametrize("n", range(5))
def test_Pi_order_is_refinement(orders, entries, n):
    sl = orders["Pi"].slice(GroundSet.first(n))
    expected = {(a, b) for a in sl.elements for b in sl.elements
                if a != b and refines(a, b)}
    assert set(sl.strict) == expected


@pytest.mark.parametrize("n", range(4))
def test_E_C_order_is_empty(orders, n):
    assert not orders["E_C:2"].slice(GroundSet.first(n)).strict


@pytest.mark.parametrize("n", range(5))
def test_Perm_order_matches_shuffle_oracle(orders, n):
    sl = orders["Perm"].slice(GroundSet.first(n))
    expected = {(a, b) for a in sl.elements for b in sl.elements
                if a != b and perm_le_shuffle(a, b)}
    assert set(sl.strict) == expected


def test_paper_six_shuffles(orders):
    I = GroundSet.first(4)
    sl = orders["Perm"].slice(I)
    lam = PermutationElt.from_cycles(I, [(1, 2), (3, 4)])
    above = {b for a, b in sl.strict if a == lam and len(b.cycles()) == 1}
    want = {PermutationElt.from_cycles(I, [c]) for c in
            [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4),
             (1, 4, 2, 3), (1, 3, 4, 2), (1, 4, 3, 2)]}
    assert above == want


@pytest.mark.parametrize("key", ["E_C:2", "Perm", "Pi"])
def test_order_transport_invariance(orders, key):
    assert check_order_transport(orders[key], 4).ok


def test_closure_is_reachability_without_diagonal():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 8)
        elements = list(range(k))
        pairs = {(a, b) for a in elements for b in elements
                 if a != b and rng.random() < 0.2}
        want = set()
        for a in elements:
            seen, stack = set(), [a]
            while stack:
                x = stack.pop()
                for b, c in pairs:
                    if b == x and c not in seen:
                        seen.add(c)
                        stack.append(c)
            want |= {(a, c) for c in seen if c != a}
        assert order_mod._transitive_closure(pairs, elements) == want


def test_closure_keeps_cycles_for_the_antisymmetry_check():
    assert order_mod._transitive_closure({(0, 1), (1, 2), (2, 0)}, range(3)) == {
        (a, b) for a in range(3) for b in range(3) if a != b}


def test_closure_mismatch_is_fatal(monkeypatch, entries):
    real = order_mod._transitive_closure

    def drops_one(pairs, elements):
        out = real(pairs, elements)
        out.discard(min(out, key=lambda p: (p[0].sort_key(), p[1].sort_key())))
        return out

    monkeypatch.setattr(order_mod, "_transitive_closure", drops_one)
    e = entries["Pi"]
    with pytest.raises(FatalInconsistency, match="order closure mismatch"):
        order_mod.compute_order(e.mu, e.pi, GroundSet.first(3))


def test_cyclic_relation_is_fatal(entries):
    # the complement of the merged coloring: folding sends z to its
    # complement, and the complement back to z
    base = entries["E_C:2"]

    def flip(S, T, x, y):
        merged = _mapto_merge(S, T, x, y)
        return MapTo(merged.ground, tuple(1 - c for c in merged.colors))

    mu = MultSystem(base.species, flip)
    with pytest.raises(FatalInconsistency, match="not antisymmetric"):
        order_mod.compute_order(mu, base.pi, GroundSet.first(2))


def test_transport_witness_matches_pairwise_route(entries):
    e = entries["Pi"]
    so = SpeciesOrder(e.mu, e.pi, "Pi")
    I = GroundSet.first(3)
    sl = so.slice(I)
    a = min(sl.elements, key=lambda x: x.sort_key())
    b = max(sl.elements, key=lambda x: x.sort_key())
    strict = frozenset(sl.strict - {(a, b)})
    so._slices[I] = OrderSlice(I, sl.elements, strict)
    rep = check_order_transport(so, 3)
    assert rep.status == "fail" and rep.n == 3
    first = next(sigma for sigma in Bijection.all_endo(I)
                 if {(e.species.transport(sigma, x), e.species.transport(sigma, y))
                     for x, y in strict} != strict)
    assert rep.witness == {"sigma": list(first.images)}


def test_full_suite_computes_each_slice_once(monkeypatch, capsys):
    # S(X_C:2) has a derived pi: one derived entry serves every suite step
    real = order_mod.compute_order
    for spec in ("Pi", "S(X_C:2)"):
        calls = Counter()

        def counted(mu, pi, I, species_key=None):
            calls[I] += 1
            return real(mu, pi, I, species_key)

        monkeypatch.setattr(order_mod, "compute_order", counted)
        assert main(["check", "--species", spec, "--suite", "full", "--max-n", "3"]) == 0
        capsys.readouterr()
        assert set(calls.values()) == {1}, spec
        assert {GroundSet.first(n) for n in range(4)} <= set(calls), spec


# ---------------------------------------------------------------------------
# the two lemma properties relating the order to products and coproducts

@pytest.mark.parametrize("key", ["Pi", "Perm"])
def test_order_factorization_lemma(entries, orders, key):
    entry, so = entries[key], orders[key]
    for n in range(5):
        I = GroundSet.first(n)
        sl = so.slice(I)
        for S, T in decompositions(I, 2):
            sls, slt = so.slice(S), so.slice(T)
            fibered = entry.mu.fiber_map(S, T)
            for alpha in entry.species.elements(S):
                for beta in entry.species.elements(T):
                    prod = entry.mu(S, T, alpha, beta)
                    for lam in entry.species.elements(I):
                        # (a): lam below the product iff lam factors below
                        lhs = sl.le(lam, prod)
                        rhs = any(
                            sls.le(a2, alpha) and slt.le(b2, beta)
                            for (a2, b2) in fibered.get(lam, ()))
                        assert lhs == rhs, (key, n, str(lam))
                        # (b): product below lam iff the coproduct dominates
                        a2, b2 = entry.pi(S, T, lam)
                        lhs2 = sl.le(prod, lam)
                        rhs2 = sls.le(alpha, a2) and slt.le(beta, b2)
                        assert lhs2 == rhs2, (key, n, str(lam))


# ---------------------------------------------------------------------------
# lattice structure of lower intervals

@pytest.mark.parametrize("key", ["E_C:2", "Perm", "Pi"])
def test_lower_intervals_are_lattices(entries, key):
    rep = check_all_lower_lattices(entries[key], 4)
    assert rep.ok


def test_Pi_lower_intervals_are_full_refinement_lattices(orders):
    I = GroundSet.first(4)
    sl = orders["Pi"].slice(I)
    top = SetPartitionElt.of([[1, 2, 3, 4]])
    assert set(sl.down(top)) == set(sl.elements)


def test_Perm_interval_shape_comparability(entries, orders):
    entry = entries["Perm"]
    fm = f_mu(entry.mu, 4, check_preconditions=False, species_key="Perm")
    so = orders["Perm"]
    I = GroundSet.first(4)
    for lam in entry.species.elements(I):
        rep = check_lower_lattice(so, entry.mu, entry.pi, I, lam, fm)
        assert rep.ok
        assert rep.witness["shape_map_injective"] is True


def test_Perm_shape_map_image_observed(entries, orders):
    # surfaced, not asserted by any theorem: record what n <= 4 actually shows
    rep = check_all_lower_lattices(entries["Perm"], 4)
    assert rep.witness["shape_map_surjective_everywhere"] is True


# ---------------------------------------------------------------------------
# properties (A), (B) and reconstruction

@pytest.mark.parametrize("key", ["E_C:2", "Perm", "Pi"])
def test_properties_AB(orders, entries, key):
    assert check_AB(orders[key], entries[key].mu, 4).ok


@pytest.mark.parametrize("key", ["Perm", "Pi"])
def test_reconstruct_roundtrip(entries, key):
    assert check_reconstruct_roundtrip(entries[key], 4).ok


def test_reconstruct_E_C_forces_restriction(entries, orders):
    entry = entries["E_C:2"]
    rebuilt = reconstruct_pi(orders["E_C:2"], entry.mu)
    I = GroundSet.first(3)
    for S, T in decompositions(I, 2):
        for lam in entry.species.elements(I):
            assert rebuilt(S, T, lam) == entry.pi(S, T, lam)


def test_reconstruct_S_X2_roundtrip():
    entry = with_derived_pi(make_S(make_X_C(2)), 3)
    assert check_reconstruct_roundtrip(entry, 3).ok


# ---------------------------------------------------------------------------
# p and q bases

def test_pq_tables_Pi_n2(orders):
    t = pq_tables(orders["Pi"], GroundSet.first(2))
    split = SetPartitionElt.of([[1], [2]])
    block = SetPartitionElt.of([[1, 2]])
    assert t.p[split] == Vec(GroundSet.first(2), [(split, 1), (block, 1)])
    assert t.p[block] == Vec.basis(block)
    assert t.q[block] == Vec(GroundSet.first(2), [(split, 1), (block, 2)])
    assert t.q[split] == t.p[split]


@pytest.mark.parametrize("key", ["E_C:2", "Perm", "Pi"])
def test_pq_unitriangular(orders, key):
    assert check_pq_unitriangular(orders[key], 4).ok


@pytest.mark.parametrize("key", ["Perm", "Pi"])
def test_basis_theorem_identities(entries, key):
    assert check_basis_theorem(entries[key], 4).ok


def test_basis_theorem_zero_case(entries, orders):
    # the mu-coproduct kills p of anything outside the product image
    entry = entries["Pi"]
    h = hopf_from(entry, "pi", "mu")
    I = GroundSet.first(2)
    t = pq_tables(orders["Pi"], I)
    block = SetPartitionElt.of([[1, 2]])
    S, T = GroundSet.of([1]), GroundSet.of([2])
    assert h.delta(S, T, t.p[block]) == TensorVec.zero((S, T))


@pytest.mark.parametrize("key", ["Perm", "Pi"])
def test_basis_change_matrices(entries, key):
    assert check_basis_change_matrices(entries[key], 3).ok


# ---------------------------------------------------------------------------
# Hasse export

def cover_count(strict, elements):
    covers = 0
    for a, b in strict:
        if not any((a, c) in strict and (c, b) in strict for c in elements):
            covers += 1
    return covers


def test_hasse_Pi_n3(orders):
    sl = orders["Pi"].slice(GroundSet.first(3))
    dot = hasse_dot(orders["Pi"], GroundSet.first(3))
    assert dot.startswith('digraph "Pi_3"')
    assert dot.count(";") == 5 + cover_count(sl.strict, sl.elements) + 1  # nodes+edges+rankdir
    assert dot.count("->") == 6 == cover_count(sl.strict, sl.elements)


def test_hasse_E_C2_n2_isolated(orders):
    dot = hasse_dot(orders["E_C:2"], GroundSet.first(2))
    assert dot.count("->") == 0
    assert dot.count('";') == 4


def test_hasse_Perm_n3(orders):
    sl = orders["Perm"].slice(GroundSet.first(3))
    dot = hasse_dot(orders["Perm"], GroundSet.first(3))
    assert dot.count("->") == 9 == cover_count(sl.strict, sl.elements)
    assert '"(1 2)(3)" -> "(1 2 3)";' in dot


def test_hasse_deterministic(orders):
    a = hasse_dot(orders["Pi"], GroundSet.first(3))
    b = hasse_dot(orders["Pi"], GroundSet.first(3))
    assert a == b
