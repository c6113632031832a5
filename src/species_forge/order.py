"""The partial order carried by a commutative linearized pair, and its uses.

Each component order is computed twice: once by the full product-after-
coproduct formula over all set partitions, and once as the transitive closure
of the two-block relation.  The two must coincide (that is the minimality
claim), and the result must be a strict partial order; a miss is fatal.
A catalog entry's order is built once, by ``order_of``, and kept on the
entry, so each slice is computed (by both routes) once per run.

On top of the order: lower-interval lattice checks, the two interval
properties that let the coproduct be rebuilt from the product alone, the
upper/lower summation bases p and q with the four product/coproduct
identities they satisfy, and Hasse-diagram export.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .catalog import CatalogEntry, ComultSystem, MultSystem
from .core import (
    Bijection, CheckReport, Element, GroundSet, SetPartitionElt, TensorVec,
    Vec, decompositions, set_partitions,
)
from .engine import (
    DEFAULT_MAX_N, FatalInconsistency, LinearizedHopf, guard_max_n, hopf_from,
)
from .classify import FMu, f_mu


# ---------------------------------------------------------------------------
# computing the order

@dataclass
class OrderSlice:
    """The strict order on one component, as a set of (smaller, larger) pairs."""

    I: GroundSet
    elements: tuple[Element, ...]
    strict: frozenset

    def lt(self, a: Element, b: Element) -> bool:
        return (a, b) in self.strict

    def le(self, a: Element, b: Element) -> bool:
        return a == b or (a, b) in self.strict

    def down(self, lam: Element) -> list[Element]:
        return [e for e in self.elements if self.le(e, lam)]

    def up(self, lam: Element) -> list[Element]:
        return [e for e in self.elements if self.le(lam, e)]

    def covers(self) -> list[tuple[Element, Element]]:
        """Pairs a < b with nothing strictly between, in element order."""
        out = []
        for a, b in sorted(self.strict,
                           key=lambda p: (p[0].sort_key(), p[1].sort_key())):
            if not any(self.lt(a, c) and self.lt(c, b) for c in self.elements):
                out.append((a, b))
        return out


def _transitive_closure(pairs: set, elements) -> set:
    """Warshall over successor sets; the diagonal is left out, so a cycle
    shows up as a pair and its reverse."""
    succ = {e: set() for e in elements}
    for a, b in pairs:
        succ[a].add(b)
    for k in elements:
        for e in elements:
            if k in succ[e]:
                succ[e] |= succ[k]
    return {(a, b) for a in elements for b in succ[a] if a != b}


def compute_order(mu: MultSystem, pi: ComultSystem, I: GroundSet,
                  species_key: str | None = None) -> OrderSlice:
    """The relation lambda = mu o pi (lambda') over all partitions of I.

    Verifies that this already equals the transitive closure of the two-block
    relation and that it is a strict partial order; disagreement is fatal.
    """
    key = species_key or mu.species.name
    elements = mu.species.elements(I)
    kfold: set = set()
    for blocks in set_partitions(I):
        if len(blocks) < 2:
            continue
        for lam2 in elements:
            lam = mu.fold(blocks, pi.fold(blocks, lam2))
            if lam != lam2:
                kfold.add((lam, lam2))
    pairrel: set = set()
    for S, T in decompositions(I, 2, nonempty=True):
        for lam2 in elements:
            a, b = pi(S, T, lam2)
            lam = mu(S, T, a, b)
            if lam != lam2:
                pairrel.add((lam, lam2))
    closure = _transitive_closure(pairrel, elements)
    if closure != kfold:
        raise FatalInconsistency(
            f"order closure mismatch for {key} over {I}",
            witness={"closure_only": [f"{a} < {b}" for a, b in sorted(
                closure - kfold, key=lambda p: (p[0].sort_key(), p[1].sort_key()))],
                "kfold_only": [f"{a} < {b}" for a, b in sorted(
                    kfold - closure, key=lambda p: (p[0].sort_key(), p[1].sort_key()))]})
    for a, b in kfold:
        if (b, a) in kfold:
            raise FatalInconsistency(
                f"order is not antisymmetric for {key} over {I}",
                witness={"pair": [str(a), str(b)]})
    return OrderSlice(I, elements, frozenset(kfold))


class SpeciesOrder:
    """The order as a family over all ground sets, computed and cached lazily."""

    def __init__(self, mu: MultSystem, pi: ComultSystem, species_key: str | None = None):
        self.mu = mu
        self.pi = pi
        self.key = species_key or mu.species.name
        self._slices: dict[GroundSet, OrderSlice] = {}

    def slice(self, I: GroundSet) -> OrderSlice:
        if I not in self._slices:
            self._slices[I] = compute_order(self.mu, self.pi, I, self.key)
        return self._slices[I]


def order_of(entry: CatalogEntry) -> SpeciesOrder:
    """The entry's order, built on first use and kept on the entry."""
    if entry._order is None:
        entry._order = SpeciesOrder(entry.mu, entry.pi, entry.key)
    return entry._order


def check_order_transport(order: SpeciesOrder, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """(a, b) in the order iff (sigma a, sigma b) is, for every endo-bijection."""
    guard_max_n(max_n)
    sp = order.mu.species
    for n in range(max_n + 1):
        sl = order.slice(GroundSet.first(n))
        for sigma in Bijection.all_endo(sl.I):
            image = {e: sp.transport(sigma, e) for e in sl.elements}
            moved = {(image[a], image[b]) for a, b in sl.strict}
            if moved != sl.strict:
                return CheckReport("order_transport", order.key, n, "fail",
                                   {"sigma": list(sigma.images)})
    return CheckReport("order_transport", order.key, max_n, "pass")


# ---------------------------------------------------------------------------
# lower intervals

def check_lower_lattice(order: SpeciesOrder, mu: MultSystem, pi: ComultSystem,
                        I: GroundSet, lam: Element, fmu: FMu | None = None) -> CheckReport:
    """Meets exist in the lower interval of lam, and comparability inside it
    agrees with refinement of shapes.

    The witness always carries the interval size; the shape-map image data
    (injective / surjective onto the refinements of sh(lam)) is surfaced in
    the report without being asserted.
    """
    key = order.key
    sl = order.slice(I)
    interval = sl.down(lam)
    for a, b in itertools.combinations(interval, 2):
        lower = [c for c in interval if sl.le(c, a) and sl.le(c, b)]
        maximal = [c for c in lower
                   if not any(sl.lt(c, d) for d in lower)]
        if len(maximal) != 1:
            return CheckReport(
                "lower_lattice", key, len(I), "fail",
                {"lambda": str(lam), "pair": [str(a), str(b)],
                 "maximal_lower_bounds": [str(m) for m in maximal]})
    info: dict = {"lambda": str(lam), "interval_size": len(interval)}
    if fmu is not None:
        shapes = {e: fmu.shape(e) for e in interval}
        for a, b in itertools.permutations(interval, 2):
            if sl.le(a, b) != _refines(shapes[a], shapes[b]):
                return CheckReport(
                    "lower_lattice", key, len(I), "fail",
                    {"lambda": str(lam), "law": "shape comparability",
                     "pair": [str(a), str(b)],
                     "shapes": [str(shapes[a]), str(shapes[b])]})
        target = [SetPartitionElt(I, blocks) for blocks in set_partitions(I)
                  if _refines(SetPartitionElt(I, blocks), shapes[lam])]
        image = set(shapes.values())
        info["shape_map_injective"] = len(image) == len(interval)
        info["shape_map_surjective"] = image == set(target)
    return CheckReport("lower_lattice", key, len(I), "pass", info)


def _refines(x: SetPartitionElt, y: SetPartitionElt) -> bool:
    """x <= y in refinement: every block of x sits inside a block of y."""
    return all(any(b.issubset(c) for c in y.blocks) for b in x.blocks)


def check_all_lower_lattices(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    guard_max_n(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("lower_lattice", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    order = order_of(entry)
    fmu = f_mu(entry.mu, max_n, check_preconditions=False, species_key=entry.key)
    surjective_everywhere = True
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        for lam in entry.species.elements(I):
            rep = check_lower_lattice(order, entry.mu, entry.pi, I, lam, fmu)
            if rep.status != "pass":
                return rep
            if rep.witness and rep.witness.get("shape_map_surjective") is False:
                surjective_everywhere = False
    return CheckReport("lower_lattice", entry.key, max_n, "pass",
                       {"shape_map_surjective_everywhere": surjective_everywhere})


# ---------------------------------------------------------------------------
# interval properties (A) and (B), and rebuilding pi from the order

def check_AB(order: SpeciesOrder, mu: MultSystem, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """(A): products give poset isomorphisms of lower-interval rectangles.
    (B): below any element, the product image has a unique maximal point."""
    guard_max_n(max_n)
    key = order.key
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        sl = order.slice(I)
        for S, T in decompositions(I, 2):
            sls, slt = order.slice(S), order.slice(T)
            for lam in mu.species.elements(S):
                for lam2 in mu.species.elements(T):
                    down_s = sls.down(lam)
                    down_t = slt.down(lam2)
                    prod = mu(S, T, lam, lam2)
                    target = sl.down(prod)
                    mapped = {}
                    for a in down_s:
                        for b in down_t:
                            mapped[(a, b)] = mu(S, T, a, b)
                    if sorted(map(lambda e: e.sort_key(), mapped.values())) != \
                            sorted(map(lambda e: e.sort_key(), target)):
                        return CheckReport(
                            "property_AB", key, n, "fail",
                            {"property": "A:bijection", "S": list(S), "T": list(T),
                             "inputs": [str(lam), str(lam2)]})
                    for (a, b), (c, d) in itertools.product(mapped, repeat=2):
                        left = sls.le(a, c) and slt.le(b, d)
                        right = sl.le(mapped[(a, b)], mapped[(c, d)])
                        if left != right:
                            return CheckReport(
                                "property_AB", key, n, "fail",
                                {"property": "A:order", "S": list(S), "T": list(T),
                                 "pairs": [[str(a), str(b)], [str(c), str(d)]]})
            image = mu.image(S, T)
            for lam in mu.species.elements(I):
                below = [e for e in image if sl.le(e, lam)]
                maximal = [e for e in below if not any(sl.lt(e, d) for d in below)]
                if len(maximal) != 1:
                    return CheckReport(
                        "property_AB", key, n, "fail",
                        {"property": "B", "S": list(S), "T": list(T), "lambda": str(lam),
                         "maximal": [str(m) for m in maximal]})
    return CheckReport("property_AB", key, max_n, "pass")


def reconstruct_pi(order: SpeciesOrder, mu: MultSystem) -> ComultSystem:
    """The unique coproduct whose component at (S, T) sends lam to the
    product preimage of the greatest element of the image below lam.

    Undefined (raises) where the maximal element is not unique; that is
    property (B) failing, which is reported, never guessed around.
    """

    def rule(S: GroundSet, T: GroundSet, lam: Element):
        sl = order.slice(S.union(T))
        image = mu.image(S, T)
        below = [e for e in image if sl.le(e, lam)]
        maximal = [e for e in below if not any(sl.lt(e, d) for d in below)]
        if len(maximal) != 1:
            raise ValueError(
                f"no unique maximal product image below {lam} on ({S},{T}); "
                f"candidates {[str(m) for m in maximal]}")
        fiber = mu.fiber(S, T, maximal[0])
        if len(fiber) != 1:
            raise ValueError(f"product not injective at {maximal[0]}")
        return fiber[0]

    return ComultSystem(mu.species, rule)


def check_reconstruct_roundtrip(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """reconstruct_pi(compute_order(mu, pi), mu) = pi, elementwise."""
    guard_max_n(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("reconstruct_roundtrip", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    order = order_of(entry)
    rebuilt = reconstruct_pi(order, entry.mu)
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        for S, T in decompositions(I, 2):
            for lam in entry.species.elements(I):
                if rebuilt(S, T, lam) != entry.pi(S, T, lam):
                    return CheckReport(
                        "reconstruct_roundtrip", entry.key, n, "fail",
                        {"S": list(S), "T": list(T), "lambda": str(lam),
                         "rebuilt": [str(e) for e in rebuilt(S, T, lam)],
                         "original": [str(e) for e in entry.pi(S, T, lam)]})
    return CheckReport("reconstruct_roundtrip", entry.key, max_n, "pass")


# ---------------------------------------------------------------------------
# the p and q bases

@dataclass
class PQTables:
    I: GroundSet
    p: dict     # Element -> Vec
    q: dict     # Element -> Vec


def pq_tables(order: SpeciesOrder, I: GroundSet) -> PQTables:
    """p sums everything above an element; q sums p over everything below."""
    sl = order.slice(I)
    p = {lam: Vec(I, [(e, 1) for e in sl.up(lam)]) for lam in sl.elements}
    q = {}
    for lam in sl.elements:
        acc = Vec.zero(I)
        for e in sl.down(lam):
            acc = acc + p[e]
        q[lam] = acc
    return PQTables(I, p, q)


def _p_product(h_pi_mu: LinearizedHopf, mu: MultSystem, tab, S: GroundSet, T: GroundSet,
               a: Element, b: Element) -> tuple[Vec, Vec]:
    """Both sides of the p-product identity nabla^pi(p_a (x) p_b) = p_{mu(a,b)},
    with ``tab`` giving the p/q tables of a ground set."""
    got = h_pi_mu.nabla(S, T, TensorVec.tensor(tab(S).p[a], tab(T).p[b]))
    return got, tab(S.union(T)).p[mu(S, T, a, b)]


def check_pq_unitriangular(order: SpeciesOrder, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """p is unitriangular over the element basis; q is unitriangular over p."""
    guard_max_n(max_n)
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        sl = order.slice(I)
        tables = pq_tables(order, I)
        for lam in sl.elements:
            pv = tables.p[lam]
            if pv.coeff(lam) != 1 or any(
                    not sl.le(lam, e) for e in pv.terms):
                return CheckReport("pq_unitriangular", order.key, n, "fail",
                                   {"basis": "p", "lambda": str(lam), "vec": str(pv)})
        # q in the p basis: coefficient of p_e in q_lam is [e <= lam]
        for lam in sl.elements:
            expanded = Vec.zero(I)
            for e in sl.down(lam):
                expanded = expanded + tables.p[e]
            if expanded != tables.q[lam]:
                return CheckReport("pq_unitriangular", order.key, n, "fail",
                                   {"basis": "q", "lambda": str(lam)})
    return CheckReport("pq_unitriangular", order.key, max_n, "pass")


def check_basis_theorem(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """The four identities tying the p and q bases to the three Hopf variants.

    In the p basis the mixed product acts like mu and the mu-coproduct splits
    products (or kills non-products); in the q basis both act exactly like
    the original pair (mu, pi).  Any failure is fatal.
    """
    guard_max_n(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("basis_identities", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    order = order_of(entry)
    h_pi_mu = hopf_from(entry, "pi", "mu")   # product nabla^pi, coproduct Delta^mu
    tab = functools.cache(lambda I: pq_tables(order, I))
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        ti = tab(I)
        for S, T in decompositions(I, 2):
            ts, tt = tab(S), tab(T)
            mu_image = entry.mu.image(S, T)
            for a in entry.species.elements(S):
                for b in entry.species.elements(T):
                    got, want = _p_product(h_pi_mu, entry.mu, tab, S, T, a, b)
                    if got != want:
                        raise FatalInconsistency(
                            f"p-product identity fails for {entry.key}",
                            witness={"S": list(S), "T": list(T),
                                     "inputs": [str(a), str(b)],
                                     "got": str(got), "want": str(want)})
                    wantq = ti.q[entry.mu(S, T, a, b)]
                    gotq = h_pi_mu.nabla(S, T, TensorVec.tensor(ts.q[a], tt.q[b]))
                    if gotq != wantq:
                        raise FatalInconsistency(
                            f"q-product identity fails for {entry.key}",
                            witness={"S": list(S), "T": list(T),
                                     "inputs": [str(a), str(b)]})
            for lam in entry.species.elements(I):
                got = h_pi_mu.delta(S, T, ti.p[lam])
                fiber = entry.mu.fiber(S, T, lam)
                if lam in mu_image:
                    a, b = fiber[0]
                    want = TensorVec.tensor(ts.p[a], tt.p[b])
                else:
                    want = TensorVec.zero((S, T))
                if got != want:
                    raise FatalInconsistency(
                        f"p-coproduct identity fails for {entry.key}",
                        witness={"S": list(S), "T": list(T), "lambda": str(lam),
                                 "got": str(got), "want": str(want)})
                a2, b2 = entry.pi(S, T, lam)
                if h_pi_mu.delta(S, T, ti.q[lam]) != TensorVec.tensor(ts.q[a2], tt.q[b2]):
                    raise FatalInconsistency(
                        f"q-coproduct identity fails for {entry.key}",
                        witness={"S": list(S), "T": list(T), "lambda": str(lam)})
    return CheckReport("basis_identities", entry.key, max_n, "pass")


def check_basis_change_matrices(entry: CatalogEntry, max_n: int = 3) -> CheckReport:
    """The p-basis change of basis conjugates the mixed variant's product
    into the self-dual variant's: the p-product identity of
    ``check_basis_theorem``, reported as a fail row instead of raised."""
    guard_max_n(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("basis_change", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    order = order_of(entry)
    h = hopf_from(entry, "pi", "mu")
    tab = functools.cache(lambda I: pq_tables(order, I))
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        for S, T in decompositions(I, 2):
            for a in entry.species.elements(S):
                for b in entry.species.elements(T):
                    got, want = _p_product(h, entry.mu, tab, S, T, a, b)
                    if got != want:
                        return CheckReport(
                            "basis_change", entry.key, n, "fail",
                            {"S": list(S), "T": list(T), "inputs": [str(a), str(b)]})
    return CheckReport("basis_change", entry.key, max_n, "pass")


# ---------------------------------------------------------------------------
# Hasse diagrams

def hasse_dot(order: SpeciesOrder, I: GroundSet, species_key: str | None = None) -> str:
    """Cover relations of the component order as DOT text, edges upward."""
    key = species_key or order.key
    sl = order.slice(I)
    lines = [f'digraph "{key}_{len(I)}" {{', "  rankdir=BT;"]
    for e in sl.elements:
        lines.append(f'  "{e}";')
    for a, b in sl.covers():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
