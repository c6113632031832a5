"""The order, its lattice/interval properties, reconstruction, and the bases."""

import itertools
import random
from collections import Counter

import pytest

from species_forge import order as order_mod
from species_forge.catalog import (
    CatalogEntry, ComultSystem, MultSystem, _mapto_merge, make_E, make_E_C, make_Perm, make_Pi, make_S, make_X_C,
    with_derived_pi,
)
from species_forge.classify import f_mu
from species_forge.cli import main
from species_forge.core import (
    TABLE_ORACLE_MAX_N, Bijection, GroundSet, MapTo, PermutationElt, SetPartitionElt, TensorVec,
    Vec, decompositions, set_partitions,
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
    so._slices[I] = OrderSlice(I, so.mu.species, strict)
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
    assert sl.downs[sl.index[top]] == (1 << len(sl.elements)) - 1


def test_Perm_interval_shape_comparability(entries, orders):
    entry = entries["Perm"]
    fm = f_mu(entry.mu, 4, species_key="Perm")
    so = orders["Perm"]
    I = GroundSet.first(4)
    for lam in entry.species.elements(I):
        rep = check_lower_lattice(so, I, lam, fm)
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

_PQ_SPECIES = {
    "Pi": make_Pi,
    "Perm": make_Perm,
    "E_C:2": lambda: make_E_C(2),
    "S(X_C:2)": lambda: with_derived_pi(make_S(make_X_C(2)), 4),
}


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


@pytest.mark.parametrize("key", sorted(_PQ_SPECIES))
def test_pq_unitriangular_routes_agree_on_catalog(key):
    so = order_mod.order_of(_PQ_SPECIES[key]())
    for n in range(5):
        I = GroundSet.first(n)
        assert order_mod._pq_positions(so, I) is None and order_mod._pq_vecs(so, I) is None


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("law", ["antisymmetry", "transitivity"])
def test_pq_unitriangular_doctored_slice_fails_with_vec_witness(n, law):
    # E_C:2's order is discrete; the doctored slice over {1..n} holds a
    # 2-cycle a < b < a, or a < b < c without a < c.  The masks see it
    # (beyond TABLE_ORACLE_MAX_N alone) and the Vec route names a, whose p is
    # a + b, in the shape the check always gave
    entry = make_E_C(2)
    so = order_mod.order_of(entry)
    I = GroundSet.first(n)
    a, b, c = entry.species.elements(I)[:3]
    pairs = [(a, b), (b, a)] if law == "antisymmetry" else [(a, b), (b, c)]
    _doctor(so, I, add=[(str(x), str(y)) for x, y in pairs])
    assert order_mod._pq_positions(so, I) is False
    rep = check_pq_unitriangular(so, 4)
    want = {"basis": "p", "lambda": str(a), "vec": str(Vec(I, [(a, 1), (b, 1)]))}
    assert (rep.status, rep.n, rep.witness) == ("fail", n, want)


@pytest.mark.parametrize("n", [2, 5])
def test_pq_unitriangular_rows_lying_is_fatal(monkeypatch, n):
    # the Vec route runs at n <= TABLE_ORACLE_MAX_N, and beyond it only where
    # the rows report a failure
    real, seen = order_mod._pq_vecs, []
    monkeypatch.setattr(order_mod, "_pq_positions",
                        lambda so, I: False if len(I) == n else None)
    monkeypatch.setattr(order_mod, "_pq_vecs", lambda so, I: seen.append(len(I)) or real(so, I))
    with pytest.raises(FatalInconsistency,
                       match=f"table and element pq_unitriangular checks disagree .* at n={n}"):
        check_pq_unitriangular(order_mod.order_of(make_Pi()), 5)
    assert seen == ([0, 1, 2] if n == 2 else [0, 1, 2, 3, 5])


def test_pq_tables_built_once_per_slice(monkeypatch):
    # the three bases rows share one set of Vec tables per ground set
    built = []
    real = order_mod.PQTables

    def counted(I, p, q):
        built.append(I)
        return real(I, p, q)

    monkeypatch.setattr(order_mod, "PQTables", counted)
    entry = make_Perm()
    so = order_mod.order_of(entry)
    assert check_pq_unitriangular(so, 3).ok and check_basis_theorem(entry, 3).ok
    assert check_basis_change_matrices(entry, 3).ok
    assert len(built) == len(set(built)) == 8  # every subset of {1,2,3}
    assert pq_tables(so, GroundSet.first(3)) is pq_tables(so, GroundSet.first(3))


@pytest.mark.parametrize("key", ["Pi", "Perm"])
def test_bases_build_vec_tables_only_at_oracle_sizes(monkeypatch, key):
    # past TABLE_ORACLE_MAX_N the bases rows read only the masks and rows
    built = []
    real = order_mod.PQTables
    monkeypatch.setattr(order_mod, "PQTables",
                        lambda I, p, q: built.append(len(I)) or real(I, p, q))
    entry = _PQ_SPECIES[key]()
    assert check_pq_unitriangular(order_mod.order_of(entry), 5).ok
    assert check_basis_theorem(entry, 5).ok
    assert built and max(built) <= TABLE_ORACLE_MAX_N


def _order_oracles(entry, max_n):
    """What the order oracles that read only ``strict`` return over {1..n},
    n <= max_n: the p/q and basis Vec routes (None, or the message raised),
    (A)/(B) on elements, and each lower-interval report."""
    so, h = order_mod.order_of(entry), hopf_from(entry, "pi", "mu")
    fmu = f_mu(entry.mu, max_n, species_key=entry.key)
    out = []
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        try:
            basis = order_mod._basis_vecs(so, h, I)
        except FatalInconsistency as exc:
            basis = str(exc)
        lattices = [order_mod._lower_lattice_elements(so, I, lam, fmu)
                    for lam in entry.species.elements(I)]
        out.append((order_mod._pq_vecs(so, I), basis,
                    order_mod._AB_elements(so, entry.mu, I),
                    [(rep.status, rep.witness) for rep in lattices]))
    return out


@pytest.mark.parametrize("key", sorted(_PQ_SPECIES))
def test_order_oracles_ignore_the_masks(monkeypatch, key):
    # the element routes share only strict with the mask routes: with every
    # mask view a slice stores complemented, they answer the same; the views
    # are pinned, so one stored later is scrambled here or fails this test
    want = _order_oracles(_PQ_SPECIES[key](), TABLE_ORACLE_MAX_N)
    real = order_mod.compute_order

    def scrambled(*args):
        sl = real(*args)
        full = (1 << len(sl.elements)) - 1
        views = {name for name, view in vars(sl).items() if isinstance(view, list)}
        assert views == {"ups", "downs"}
        for name in views:
            setattr(sl, name, [full ^ m for m in getattr(sl, name)])
        return sl

    monkeypatch.setattr(order_mod, "compute_order", scrambled)
    assert _order_oracles(_PQ_SPECIES[key](), TABLE_ORACLE_MAX_N) == want


# the p/q identities on positions, against the Vec route

@pytest.mark.parametrize("key", sorted(_PQ_SPECIES))
def test_integer_rows_are_the_pq_tables(key):
    so = order_mod.order_of(_PQ_SPECIES[key]())
    for n in range(5):
        I = GroundSet.first(n)
        sl, t = so.slice(I), pq_tables(so, I)
        positions = range(len(sl.elements))
        for k, lam in enumerate(sl.elements):
            assert [t.p[lam].coeff(e) for e in sl.elements] == [sl.ups[k] >> f & 1 for f in positions]
            assert [t.q[lam].coeff(e) for e in sl.elements] == sl.q_rows[k]
            assert sl.downs[k] == sum(1 << f for f in positions if sl.le(sl.elements[f], lam))


def _basis_routes(entry, max_n):
    """Per n <= max_n, the position route's verdict and the Vec route's
    (None, or the message it raised)."""
    so, h = order_mod.order_of(entry), hopf_from(entry, "pi", "mu")
    out = []
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        fast = order_mod._basis_positions(so, I)
        try:
            slow = order_mod._basis_vecs(so, h, I)
        except FatalInconsistency as exc:
            slow = str(exc)
        out.append((fast, slow))
    return out


def _one_value_changed(entry, rng):
    """``entry`` with one value of mu or pi over a pair of disjoint subsets of
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
                return CatalogEntry(entry.key, sp, mu, entry.pi)
        else:
            key = (S, T, rng.choice(sp.elements(S.union(T))))
            others = [p for p in itertools.product(sp.elements(S), sp.elements(T))
                      if p != tuple(entry.pi(*key))]
            if others:
                new = rng.choice(others)
                pi = ComultSystem(sp, lambda *args: new if args == key else entry.pi(*args))
                return CatalogEntry(entry.key, sp, entry.mu, pi)


@pytest.mark.parametrize("key", sorted(_PQ_SPECIES))
def test_basis_routes_agree_on_catalog(key):
    assert _basis_routes(_PQ_SPECIES[key](), 4) == [(None, None)] * 5


def test_basis_routes_agree_on_mutants():
    rng, failures = random.Random(2301), Counter()
    for make in (make_Pi, make_Perm, lambda: make_E_C(2)) * 12:
        entry = _one_value_changed(make(), rng)
        try:
            routes = _basis_routes(entry, 3)
        except FatalInconsistency:  # the mutant's order is not a partial order
            continue
        for fast, slow in routes:
            assert fast in (None, False) and (fast is None) == (slow is None), entry.key
            if slow is not None:
                failures[slow.split()[0]] += 1
                break
    assert set(failures) == {"p-product", "q-product"}


@pytest.mark.parametrize("n", [2, 4])
def test_basis_position_route_lying_is_fatal(monkeypatch, n):
    # at n = 2 the Vec route runs beside the positions; at n = 4, beyond
    # TABLE_ORACLE_MAX_N, it runs because they report a failure, and finds none
    real = order_mod._basis_positions
    monkeypatch.setattr(order_mod, "_basis_positions",
                        lambda so, I: False if len(I) == n else real(so, I))
    with pytest.raises(FatalInconsistency,
                       match=f"table and element basis_identities checks disagree .* at n={n}"):
        check_basis_theorem(make_Pi(), 4)


@pytest.mark.parametrize("view", ["ups", "downs", "q_rows"])
def test_each_basis_comparison_reads_its_view(view):
    # p-product reads ups, p-coproduct downs, q-product (and q-coproduct)
    # q_rows: one changed entry of one of them over {1..4} must be seen
    entry = make_Pi()
    so = order_mod.order_of(entry)
    assert check_basis_theorem(entry, 4).ok
    I = GroundSet.first(4)
    sl = so.slice(I)
    c = entry.mu.table(GroundSet.of([1, 2]), GroundSet.of([3, 4]))[0]  # a product
    if view == "q_rows":
        sl.q_rows[c][c] += 1
    else:
        getattr(sl, view)[c] ^= 1 << (c + 1) % len(sl.elements)
    assert order_mod._basis_positions(so, I) is False


def test_swapped_pi_table_fails_the_position_route():
    entry = make_Pi()
    so = order_mod.order_of(entry)
    assert check_basis_theorem(entry, 4).ok  # every slice and table built
    I, S, T = GroundSet.first(4), GroundSet.of([1, 2]), GroundSet.of([3, 4])
    table = entry.pi.table(S, T)
    j = next(j for j, pair in enumerate(table) if pair != table[0])
    table[0], table[j] = table[j], table[0]
    assert order_mod._basis_positions(so, I) is False
    # the Vec route reads the rules, not the tables, so the row splits
    with pytest.raises(FatalInconsistency,
                       match="table and element basis_identities checks disagree .* at n=4"):
        check_basis_theorem(entry, 4)


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


# ---------------------------------------------------------------------------
# failure witnesses, pinned on doctored slices (each a partial order)

def _doctor(so, I, add=(), drop=()):
    """Replace the slice of ``so`` over I: the pairs in ``drop`` removed and
    those in ``add`` added, each element named by its str."""
    sl = so.slice(I)
    named = {str(e): e for e in sl.elements}

    def pairs(names):
        return {(named[a], named[b]) for a, b in names}

    so._slices[I] = OrderSlice(I, so.mu.species, frozenset((sl.strict - pairs(drop)) | pairs(add)))


def _pi_unbalanced():
    """(A:bijection) fails: {1|2|3} no longer below {1,2|3}."""
    e = make_Pi()
    _doctor(order_mod.order_of(e), GroundSet.first(3), drop=[("{1|2|3}", "{1,2|3}")])
    return e, 3


def _E_C_twisted():
    """(A:order) fails: the singleton orders reversed, and {1,2} totally
    ordered so that every rectangle still maps onto its lower interval."""
    e = make_E_C(2)
    so = order_mod.order_of(e)
    _doctor(so, GroundSet.of([1]), add=[("[1:1]", "[1:0]")])
    _doctor(so, GroundSet.of([2]), add=[("[2:1]", "[2:0]")])
    chain = ["[1:1,2:1]", "[1:0,2:1]", "[1:1,2:0]", "[1:0,2:0]"]
    _doctor(so, GroundSet.first(2), add=list(itertools.combinations(chain, 2)))
    return e, 2


def _pi_two_maxima():
    """(B) fails: {1,2|3,4} no longer below the top."""
    e = make_Pi()
    _doctor(order_mod.order_of(e), GroundSet.first(4), drop=[("{1,2|3,4}", "{1,2,3,4}")])
    return e, 4


_E_C3 = ("[1:0,2:0,3:0]", "[1:0,2:0,3:1]", "[1:0,2:1,3:0]",
         "[1:0,2:1,3:1]", "[1:1,2:0,3:0]", "[1:1,2:0,3:1]")


def _E_C_no_meet():
    """Below the top, a and b have two maximal lower bounds c1 and c2."""
    e = make_E_C(2)
    top, a, b, c1, c2, bot = _E_C3
    add = [(x, top) for x in (a, b, c1, c2, bot)]
    add += [(c, x) for c in (c1, c2, bot) for x in (a, b)] + [(bot, c1), (bot, c2)]
    _doctor(order_mod.order_of(e), GroundSet.first(3), add=add)
    return e, 3


def _E_C_one_pair():
    """A comparable pair whose shapes are equal."""
    e = make_E_C(2)
    _doctor(order_mod.order_of(e), GroundSet.first(2), add=[("[1:0,2:1]", "[1:0,2:0]")])
    return e, 2


def _pi_skewed():
    """{1,2|3} < {1,3|2} added, which is transitive."""
    e = make_Pi()
    _doctor(order_mod.order_of(e), GroundSet.first(3), add=[("{1,2|3}", "{1,3|2}")])
    return e, 3


def test_AB_bijection_witness():
    e, n = _pi_unbalanced()
    rep = check_AB(order_mod.order_of(e), e.mu, n)
    assert (rep.status, rep.n) == ("fail", 3)
    assert rep.witness == {"property": "A:bijection", "S": [1, 2], "T": [3],
                           "inputs": ["{1,2}", "{3}"]}


def test_AB_order_witness():
    e, n = _E_C_twisted()
    rep = check_AB(order_mod.order_of(e), e.mu, n)
    assert (rep.status, rep.n) == ("fail", 2)
    assert rep.witness == {"property": "A:order", "S": [1], "T": [2],
                           "pairs": [["[1:0]", "[2:1]"], ["[1:1]", "[2:0]"]]}


def test_AB_B_witness_has_two_maxima():
    e, n = _pi_two_maxima()
    rep = check_AB(order_mod.order_of(e), e.mu, n)
    assert (rep.status, rep.n) == ("fail", 4)
    assert rep.witness == {"property": "B", "S": [1, 2], "T": [3, 4], "lambda": "{1,2,3,4}",
                           "maximal": ["{1,2|3|4}", "{1|2|3,4}"]}


def test_AB_non_injective_product_witness(entries, orders):
    # {1,2} and {1|2} times {3} give one product: the rectangle of ({1,2},
    # {3}) covers the lower interval of its product twice
    e = entries["Pi"]
    S, T = GroundSet.of([1, 2]), GroundSet.of([3])

    def merging(S2, T2, x, y):
        return e.mu(S2, T2, SetPartitionElt.of([[1], [2]]) if (S2, T2) == (S, T) else x, y)

    rep = check_AB(orders["Pi"], MultSystem(e.species, merging), 3)
    assert (rep.status, rep.n) == ("fail", 3)
    assert rep.witness == {"property": "A:bijection", "S": [1, 2], "T": [3],
                           "inputs": ["{1,2}", "{3}"]}


def test_lower_lattice_maximal_lower_bounds_witness():
    e, n = _E_C_no_meet()
    rep = check_all_lower_lattices(e, n)
    top, a, b, c1, c2, _ = _E_C3
    assert (rep.status, rep.n) == ("fail", 3)
    assert rep.witness == {"lambda": top, "pair": [a, b], "maximal_lower_bounds": [c1, c2]}


def test_lower_lattice_shape_comparability_witness():
    e, n = _E_C_one_pair()
    rep = check_all_lower_lattices(e, n)
    assert (rep.status, rep.n) == ("fail", 2)
    assert rep.witness == {"lambda": "[1:0,2:0]", "law": "shape comparability",
                           "pair": ["[1:0,2:0]", "[1:0,2:1]"], "shapes": ["{1|2}", "{1|2}"]}


def test_reconstruct_roundtrip_witness():
    e, n = _pi_skewed()
    rep = check_reconstruct_roundtrip(e, n)
    assert (rep.status, rep.n) == ("fail", 3)
    assert rep.witness == {"S": [1, 2], "T": [3], "lambda": "{1,3|2}",
                           "rebuilt": ["{1,2}", "{3}"], "original": ["{1|2}", "{3}"]}


def test_hasse_covers_of_doctored_slice():
    e, n = _pi_skewed()
    dot = hasse_dot(order_mod.order_of(e), GroundSet.first(n))
    assert [line for line in dot.splitlines() if "->" in line] == [
        '  "{1|2|3}" -> "{1|2,3}";', '  "{1|2|3}" -> "{1,2|3}";',
        '  "{1|2,3}" -> "{1,2,3}";', '  "{1,2|3}" -> "{1,3|2}";',
        '  "{1,3|2}" -> "{1,2,3}";']


# ---------------------------------------------------------------------------
# the mask routes against the element routes

def _outcome(run):
    """(status, n, witness) of a report (or of a tuple), or the error raised."""
    try:
        got = run()
    except ValueError as exc:
        return ("error", str(exc))
    return got if isinstance(got, tuple) else (got.status, got.n, got.witness)


def _first_failure(max_n, witness_at):
    for n in range(max_n + 1):
        w = witness_at(GroundSet.first(n))
        if w is not None:
            return ("fail", n, w)
    return ("pass", max_n, None)


def _lower_lattices_by_elements(entry, so, max_n):
    fmu = f_mu(entry.mu, max_n, species_key=entry.key)
    surjective = True
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        for lam in entry.species.elements(I):
            rep = order_mod._lower_lattice_elements(so, I, lam, fmu)
            if not rep.ok:
                return (rep.status, rep.n, rep.witness)
            surjective = surjective and rep.witness["shape_map_surjective"]
    return ("pass", max_n, {"shape_map_surjective_everywhere": surjective})


_AGREEMENT_CASES = {
    "Pi": lambda: (make_Pi(), 3),
    "Perm": lambda: (make_Perm(), 3),
    "E_C:2": lambda: (make_E_C(2), 3),
    "E": lambda: (make_E(), 3),
    "S(X_C:2)": lambda: (with_derived_pi(make_S(make_X_C(2)), 3), 3),
    "doctored A:bijection": _pi_unbalanced,
    "doctored A:order": _E_C_twisted,
    "doctored B": _pi_two_maxima,
    "doctored meet": _E_C_no_meet,
    "doctored shapes": _E_C_one_pair,
    "doctored roundtrip": _pi_skewed,
}


@pytest.mark.parametrize("case", sorted(_AGREEMENT_CASES))
def test_mask_and_element_routes_agree(monkeypatch, case):
    entry, max_n = _AGREEMENT_CASES[case]()
    so, sp = order_mod.order_of(entry), entry.species
    by_elements = {
        "order_transport": _first_failure(
            max_n, lambda I: order_mod._transport_elements(sp, so.slice(I))),
        "property_AB": _first_failure(
            max_n, lambda I: order_mod._AB_elements(so, entry.mu, I)),
        "reconstruct_roundtrip": _outcome(lambda: _first_failure(
            max_n, lambda I: order_mod._roundtrip_elements(so, entry, I))),
        "lower_lattice": _lower_lattices_by_elements(entry, so, max_n),
    }
    # the masks alone decide; the element routes then run only for a witness
    monkeypatch.setattr(order_mod, "TABLE_ORACLE_MAX_N", -1)
    by_masks = {
        "order_transport": _outcome(lambda: check_order_transport(so, max_n)),
        "property_AB": _outcome(lambda: check_AB(so, entry.mu, max_n)),
        "reconstruct_roundtrip": _outcome(lambda: check_reconstruct_roundtrip(entry, max_n)),
        "lower_lattice": _outcome(lambda: check_all_lower_lattices(entry, max_n)),
    }
    assert by_masks == by_elements
    for n in range(max_n + 1):  # the meets alone, without shapes
        I = GroundSet.first(n)
        for lam in entry.species.elements(I):
            rep = order_mod._lower_lattice_elements(so, I, lam, None)
            assert order_mod._lower_lattice_masks(so.slice(I), lam, None) == (
                rep.witness if rep.ok else None)
    if not case.startswith("doctored"):
        for n in range(max_n + 1):
            I = GroundSet.first(n)
            assert so.slice(I).strict == order_mod._order_elements(
                entry.mu, entry.pi, I, entry.key, set_partitions(I),
                decompositions(I, 2, nonempty=True))


def _flipped(verdict):
    """A mask route's lie: False (fails, no witness) for None (holds), and
    None for False."""
    return False if verdict is None else None


# per mask route: the size of the ground set it was called on, its lie, and
# a check that reaches it at n = 3
_LIES = {
    "_order_tables": (lambda a: len(a[2]), lambda strict: strict - {min(strict, key=str)},
                     lambda e: SpeciesOrder(e.mu, e.pi, "Pi").slice(GroundSet.first(3))),
    "_transport_masks": (lambda a: len(a[1].I), _flipped,
                         lambda e: check_order_transport(order_mod.order_of(e), 3)),
    "_lower_lattice_masks": (lambda a: len(a[0].I), lambda info: None,
                             lambda e: check_all_lower_lattices(e, 3)),
    "_AB_masks": (lambda a: len(a[2]), _flipped,
                  lambda e: check_AB(order_mod.order_of(e), e.mu, 3)),
    "_roundtrip_masks": (lambda a: len(a[3]), _flipped,
                         lambda e: check_reconstruct_roundtrip(e, 3)),
}


@pytest.mark.parametrize("route", sorted(_LIES))
def test_mask_route_lying_at_n3_is_fatal(monkeypatch, route):
    size, lie, run = _LIES[route]
    real = getattr(order_mod, route)

    def lying(*args):
        got = real(*args)
        return lie(got) if size(args) == 3 else got

    monkeypatch.setattr(order_mod, route, lying)
    with pytest.raises(FatalInconsistency, match="disagree"):
        run(make_Pi())


def test_mask_route_failure_unconfirmed_above_the_oracle_is_fatal(monkeypatch):
    # above TABLE_ORACLE_MAX_N the element route runs only where the masks
    # report a failure, and it must find one
    monkeypatch.setattr(order_mod, "_transport_masks",
                        lambda sp, sl: None if len(sl.I) < 4 else False)
    with pytest.raises(FatalInconsistency, match="disagree .* at n=4"):
        check_order_transport(order_mod.order_of(make_Pi()), 4)
