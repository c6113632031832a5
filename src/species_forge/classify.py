"""Primitive elements and the classification isomorphisms.

Primitives are computed two independent ways (exact kernel intersection of
all proper coproduct components, and the set-level complement of proper
product images) and the spans must coincide.  On top of them sit the
classification maps: the labeled-partition isomorphism attached to any
commutative, injective, image-closed product, the maps-to-colors isomorphism
attached to any bijective cocommutative coproduct, and the block-product
decomposition of the whole space with its direct-sum certificate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .catalog import (CatalogEntry, ComultSystem, MultSystem, labeled_partition_species,
                      make_E_C)
from .core import (
    Bijection, CheckReport, Element, GroundSet, LabeledPartitionElt,
    SetSpecies, TensorVec, Vec, decompositions, grounds, set_partitions,
)
from .engine import (
    DEFAULT_MAX_N, FatalInconsistency, LinearizedHopf, hopf_from, iterate_nabla, memo,
    takeuchi_antipode,
)


# ---------------------------------------------------------------------------
# coordinates

def _coords(v: Vec, index: dict) -> dict[int, int | Fraction]:
    """v as a sparse ``linalg`` row: its coefficients keyed by position."""
    return {index[e]: c for e, c in v.terms.items()}


def _vec_from_coords(basis: SetSpecies, I: GroundSet, coords) -> Vec:
    els = basis.elements(I)
    return Vec(I, [(els[i], c) for i, c in enumerate(coords) if c != 0])


def _coproduct_rows(h: LinearizedHopf, S: GroundSet, T: GroundSet, index: dict) -> list:
    """The matrix of Delta_{S,T} as sparse rows: a row per basis pair of (S, T)
    that occurs in some Delta_{S,T}(e), a column per element e of p[S u T]
    (numbered by ``index``), and 1 where the pair occurs.  The pairs that
    occur nowhere would give all-zero rows, which change no kernel."""
    rows: dict = {}
    for e, j in index.items():
        for pair in h.splits(S, T, e):
            rows.setdefault(pair, {})[j] = 1
    return list(rows.values())


# ---------------------------------------------------------------------------
# primitive elements

def primitives(h: LinearizedHopf, I: GroundSet) -> list[Vec]:
    """An exact basis of the intersection of ker Delta_{S,T} over proper
    decompositions of I; deterministic via the fixed elimination pivoting."""
    if len(I) == 0:
        return []
    index = h.basis.index(I)
    rows = []
    for S, T in decompositions(I, 2, nonempty=True):
        rows.extend(_coproduct_rows(h, S, T, index))
    return [_vec_from_coords(h.basis, I, v) for v in linalg.kernel_basis(rows, len(index))]


def primitives_of(h: LinearizedHopf, I: GroundSet) -> list[Vec]:
    """``primitives(h, I)`` once per run, for every caller in the package:
    kept in h's ``_memo`` and keyed by the triple's name and basis and I, as
    ``engine.memo`` keeps reports; ``primitives`` is looked up at each call."""
    key = ("primitives", h.name, h.basis, I)
    if key not in h._memo:
        h._memo[key] = primitives(h, I)
    return h._memo[key]


def primitive_dims(h: LinearizedHopf, max_n: int) -> list[int]:
    return [len(primitives_of(h, I)) for I in grounds(max_n)[1:]]


def primitive_basis_elements(mu: MultSystem, I: GroundSet) -> tuple[Element, ...]:
    """Basis elements of P[I] lying in no proper product image."""
    if len(I) == 0:
        return ()
    reached: set[Element] = set()
    for S, T in decompositions(I, 2, nonempty=True):
        reached |= mu.image(S, T)
    return tuple(x for x in mu.species.elements(I) if x not in reached)


def primitive_basis_species(mu: MultSystem) -> SetSpecies:
    sp = mu.species
    return SetSpecies(
        f"Prim({sp.name})",
        lambda I: primitive_basis_elements(mu, I),
        sp.transport_fn,
    )


def check_primitives_match(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """span(primitive basis) equals the kernel-intersection primitives."""
    Is = grounds(max_n)[1:]
    if entry.mu is None:
        return CheckReport("primitives_match", entry.key, max_n, "skip",
                           {"reason": "no multiplicative system"})
    h = hopf_from(entry, "mu", "mu")
    for I in Is:
        index = entry.species.index(I)
        kernel = [_coords(v, index) for v in primitives_of(h, I)]
        setp = [_coords(Vec.basis(e), index) for e in primitive_basis_elements(entry.mu, I)]
        if len(kernel) != len(setp) or not linalg.spans_equal(kernel, setp, len(index)):
            return CheckReport(
                "primitives_match", entry.key, len(I), "fail",
                {"kernel_dim": len(kernel), "set_basis_dim": len(setp)})
    return CheckReport("primitives_match", entry.key, max_n, "pass")


# ---------------------------------------------------------------------------
# the labeled-partition isomorphism f^mu

class _Tabulated:
    """An isomorphism onto P tabulated per ground set on demand: ``forward[I]``
    maps its source elements over I onto P[I] and ``inverse[I]`` maps back.
    ``build(I)`` returns the forward table and asserts bijectivity there."""

    def __init__(self, build):
        self._build = build
        self.forward: dict = {}
        self.inverse: dict = {}

    def table(self, I: GroundSet) -> dict:
        if I not in self.forward:
            fwd = self._build(I)
            self.forward[I] = fwd
            self.inverse[I] = {el: x for x, el in fwd.items()}
        return self.forward[I]

    def apply(self, x: Element) -> Element:
        return self.table(x.ground)[x]

    def invert(self, el: Element) -> Element:
        self.table(el.ground)
        return self.inverse[el.ground][el]


class FMu(_Tabulated):
    """The multiplicative-system isomorphism from labeled partitions onto P.

    Building a component asserts bijectivity there, which cannot fail for a
    self-compatible product short of an implementation bug.
    """

    def __init__(self, mu: MultSystem, sq: SetSpecies, key: str):
        super().__init__(lambda I: _fmu_component(mu, sq, I, key))
        self.mu, self.sq, self.key = mu, sq, key

    def shape(self, el: Element):
        return self.invert(el).shape()


def _multiply_blocks(mu: MultSystem, X: LabeledPartitionElt, reverse: bool = False) -> Element:
    blocks = X.blocks[::-1] if reverse else X.blocks
    if not blocks:
        return mu.species.unit_element()
    parts = tuple(b for b, _ in blocks)
    labels = tuple(lab for _, lab in blocks)
    return mu.fold(parts, labels)


def _fmu_component(mu: MultSystem, sq: SetSpecies, I: GroundSet, key: str) -> dict:
    fwd = {}
    for X in sq.elements(I):
        el = _multiply_blocks(mu, X)
        fwd[X] = el
        if _multiply_blocks(mu, X, reverse=True) != el:
            raise FatalInconsistency(
                f"f_mu block product for {key} depends on the block order",
                witness={"X": str(X)})
    targets = set(fwd.values())
    if len(targets) != len(fwd) or targets != set(mu.species.elements(I)):
        raise FatalInconsistency(
            f"f_mu is not a bijection for {key} over {I}",
            witness={"labeled": len(fwd), "hit": len(targets),
                     "dim": mu.species.dim(I)})
    return fwd


def f_mu(mu: MultSystem, max_n: int = DEFAULT_MAX_N, *, species_key: str | None = None) -> FMu:
    """Build the block-product map from Q-labeled partitions onto P and verify
    it is a bijection intertwining disjoint union with the product.

    Raises ``ValueError`` where mu is not self-compatible up to min(max_n, 3).
    Non-bijectivity on any checked component is fatal: for an associative,
    unital, Hopf self-compatible product this cannot happen.
    """
    Is = grounds(max_n)
    key = species_key or mu.species.name
    rep = memo("check_self_compatible", mu, "both", min(max_n, 3), key)
    if rep.status != "pass":
        raise ValueError(f"f_mu preconditions fail for {key}: {rep.status} {rep.witness}")
    q = primitive_basis_species(mu)
    fm = FMu(mu, labeled_partition_species(q, f"S({q.name})"), key)
    for I in Is:
        fm.table(I)
    return fm


def fmu_of(entry: CatalogEntry, max_n: int) -> FMu:
    """The entry's ``f_mu`` up to max_n, built on first use and kept on the entry."""
    if ("f_mu", max_n) not in entry._memo:
        entry._memo["f_mu", max_n] = f_mu(entry.mu, max_n, species_key=entry.key)
    return entry._memo["f_mu", max_n]


def check_fmu_intertwines(fm: FMu, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """f(X u Y) = mu(f X, f Y) and transport-equivariance, exhaustively."""
    key, sq, mu = fm.key, fm.sq, fm.mu
    for I in grounds(max_n):
        for S, T in decompositions(I, 2):
            for X in sq.elements(S):
                for Y in sq.elements(T):
                    union = LabeledPartitionElt.canonical(I, X.blocks + Y.blocks)
                    if fm.table(I)[union] != mu(S, T, fm.apply(X), fm.apply(Y)):
                        return CheckReport(
                            "fmu_intertwines", key, len(I), "fail",
                            {"law": "product", "X": str(X), "Y": str(Y)})
        for sigma in Bijection.all_endo(I):
            for X in sq.elements(I):
                if fm.table(I)[sq.transport(sigma, X)] != \
                        mu.species.transport(sigma, fm.apply(X)):
                    return CheckReport(
                        "fmu_intertwines", key, len(I), "fail",
                        {"law": "transport", "sigma": list(sigma.images), "X": str(X)})
    return CheckReport("fmu_intertwines", key, max_n, "pass")


# ---------------------------------------------------------------------------
# the maps-to-colors isomorphism f^pi

class FPi(_Tabulated):
    """The comultiplicative-system isomorphism from maps-to-colors onto P."""

    def __init__(self, pi: ComultSystem, colors: tuple[Element, ...],
                 e_c: CatalogEntry, build, key: str):
        super().__init__(build)
        self.pi, self.key = pi, key
        self.colors = colors   # the component over {1}, fixing the color order
        self.e_c = e_c


def _inverted_mu(pi: ComultSystem) -> MultSystem:
    def rule(S, T, x, y):
        fiber = pi.fiber(S, T, (x, y))
        if len(fiber) != 1:
            raise ValueError(
                f"coproduct is not bijective on ({S},{T}): fiber size {len(fiber)}")
        return fiber[0]
    return MultSystem(pi.species, rule)


def first_non_bijective(pi: ComultSystem, max_n: int) -> tuple[GroundSet, GroundSet] | None:
    """The first (S, T), by size of S u T, on which pi is not a bijection,
    or None when it is one on every 2-decomposition up to max_n."""
    for I in grounds(max_n):
        for S, T in decompositions(I, 2):
            if not pi.is_bijective_on(S, T):
                return S, T
    return None


def f_pi(pi: ComultSystem, max_n: int = 3, *, species_key: str | None = None) -> FPi:
    """Build the unique isomorphism from maps-to-colors onto (P, pi) with the
    singleton normalization f(1 -> c) = c.

    f(phi) is the product, under the inverted coproduct, of the singletons
    {i}, each carrying the color phi(i) transported from {1} onto {i}: the
    block product f^mu would give on the partition into singletons.
    """
    Is = grounds(max_n)
    key = species_key or pi.species.name
    sp = pi.species
    h = hopf_from(CatalogEntry(key, sp, None, pi), "pi", "pi")
    for axiom in ("coassociative", "counital", "cocommutative"):
        rep = memo("check_axiom", h, axiom, min(max_n, 3))
        if not rep.ok:
            raise ValueError(f"f_pi precondition {axiom} fails for {key}: {rep.witness}")
    split = first_non_bijective(pi, max_n)
    if split is not None:
        raise ValueError(f"f_pi precondition fails: {key} coproduct is "
                         f"not bijective on ({split[0]},{split[1]})")

    mu = _inverted_mu(pi)
    one = GroundSet.of([1])
    colors = tuple(sp.elements(one))
    e_c = make_E_C(len(colors))

    def build(I: GroundSet) -> dict:
        singletons = tuple(GroundSet.of([i]) for i in I.labels)
        moves = [Bijection(one, b, b.labels) for b in singletons]
        fwd = {}
        for f in e_c.species.elements(I):
            fwd[f] = mu.fold(singletons, [sp.transport(sigma, colors[c])
                                          for sigma, c in zip(moves, f.colors)])
        hit = set(fwd.values())
        if len(hit) != len(fwd) or hit != set(sp.elements(I)):
            raise FatalInconsistency(
                f"f_pi is not a bijection for {key} over {I}",
                witness={"maps": len(fwd), "hit": len(hit), "dim": sp.dim(I)})
        return fwd

    fp = FPi(pi, colors, e_c, build, key)
    for I in Is:
        fp.table(I)
    return fp


def check_fpi_intertwines(fp: FPi, max_n: int = 3) -> CheckReport:
    """(f x f) o rho = pi o f on every component, plus the normalization."""
    Is = grounds(max_n)
    key, rho = fp.key, fp.e_c.pi
    one = GroundSet.of([1])
    for idx, f in enumerate(fp.e_c.species.elements(one)):
        if fp.apply(f) != fp.colors[idx]:
            return CheckReport("fpi_intertwines", key, 1, "fail",
                               {"law": "normalization", "input": str(f)})
    for I in Is:
        for S, T in decompositions(I, 2):
            for f in fp.e_c.species.elements(I):
                fa, fb = rho(S, T, f)
                if (fp.table(S)[fa], fp.table(T)[fb]) != fp.pi(S, T, fp.apply(f)):
                    return CheckReport(
                        "fpi_intertwines", key, len(I), "fail",
                        {"law": "coproduct", "S": list(S), "T": list(T), "input": str(f)})
    return CheckReport("fpi_intertwines", key, max_n, "pass")


# ---------------------------------------------------------------------------
# the block-product decomposition of p[I]

class NablaXDecomposition:
    """Spanning data for each block-product subspace, plus the certificates."""

    def __init__(self, I: GroundSet, components: list, total_dim: int, certified: dict):
        self.I = I
        self.components = components    # (blocks, [Vec, ...])
        self.total_dim = total_dim
        self.certified = certified

    def to_json(self) -> dict:
        return {
            "I": list(self.I),
            "components": [
                {"blocks": [list(b) for b in blocks], "dim": len(vecs)}
                for blocks, vecs in self.components],
            "total_dim": self.total_dim,
            "certified": self.certified,
        }


def nabla_X_decompose(h: LinearizedHopf, I: GroundSet) -> NablaXDecomposition:
    """Split p[I] into block products of primitives, one summand per set
    partition, and certify the direct sum, the inverse-isomorphism property,
    and the straddling-block description of coproduct kernels.

    Any failed certificate is fatal for commutative input: each one is a
    theorem at this scale.
    """
    key = h.basis.name
    rep = memo("check_axiom", h, "commutative", len(I))
    if not rep.ok:
        raise ValueError(f"nabla_X_decompose needs a commutative product: {rep.witness}")

    def prim(B: GroundSet) -> list[Vec]:
        return primitives_of(h, B)

    index = h.basis.index(I)
    dim = len(index)

    # hypothesis p = 1 + q + r: primitives and proper product images fill p[I]
    if len(I) > 0:
        q_rows = [_coords(v, index) for v in prim(I)]
        r_rows = []
        for S, T in decompositions(I, 2, nonempty=True):
            for x in h.basis.elements(S):
                for y in h.basis.elements(T):
                    row = {index[z]: 1 for z in h.products(S, T, x, y)}
                    if row:
                        r_rows.append(row)
        r_rank = linalg.rank(r_rows, dim)
        if len(q_rows) + r_rank != dim or linalg.rank(q_rows + r_rows, dim) != dim:
            raise FatalInconsistency(
                f"p != 1 + q + r for {key} over {I}",
                witness={"q_dim": len(q_rows), "r_rank": r_rank, "dim": dim})

    components: list = []
    spans: dict[tuple, list[Vec]] = {}
    all_rows = []
    for blocks in set_partitions(I):
        vecs = spans_on(h, blocks, prim)
        components.append((blocks, vecs))
        spans[blocks] = vecs
        all_rows.extend(_coords(v, index) for v in vecs)

    total = sum(len(vecs) for _, vecs in components)
    direct_sum = total == dim and linalg.rank(all_rows, dim) == dim
    if not direct_sum:
        raise FatalInconsistency(
            f"block-product subspaces do not sum directly for {key} over {I}",
            witness={"total_span": total, "rank": linalg.rank(all_rows, dim), "dim": dim})

    # (b): nabla/Delta restrict to inverse isomorphisms between summands
    inverse_iso = True
    for S, T in decompositions(I, 2, nonempty=True):
        ys = {Y: spans_on(h, Y, prim) for Y in set_partitions(T)}
        for X in set_partitions(S):
            us = spans_on(h, X, prim)
            for Y, ws in ys.items():
                target_rows = [_coords(v, index) for v in spans[
                    tuple(sorted(X + Y, key=lambda b: b.labels))]]
                for u in us:
                    for w in ws:
                        prod = h.nabla(S, T, TensorVec.tensor(u, w))
                        if not linalg.in_span(target_rows, dim, _coords(prod, index)):
                            inverse_iso = False
                        if h.delta(S, T, prod) != TensorVec.tensor(u, w):
                            inverse_iso = False
    if not inverse_iso:
        raise FatalInconsistency(f"inverse-isomorphism certificate failed for {key} over {I}")

    # (c): ker Delta_{S,T} is the sum over partitions with a straddling block
    kernel_ok = True
    for S, T in decompositions(I, 2, nonempty=True):
        ker_dim = len(linalg.kernel_basis(_coproduct_rows(h, S, T, index), dim))
        straddle_dim = 0
        for blocks, vecs in components:
            if any(not (b.issubset(S) or b.issubset(T)) for b in blocks):
                straddle_dim += len(vecs)
                for v in vecs:
                    if not h.delta(S, T, v).is_zero():
                        kernel_ok = False
        if straddle_dim != ker_dim:
            kernel_ok = False
    if not kernel_ok:
        raise FatalInconsistency(f"kernel certificate failed for {key} over {I}")

    return NablaXDecomposition(
        I, components, total,
        {"direct_sum": direct_sum, "inverse_isomorphisms": inverse_iso,
         "kernel_straddle": kernel_ok})


def spans_on(h: LinearizedHopf, X: tuple, prim) -> list[Vec]:
    """The block products of primitives over the set partition X: one
    iterated product per choice of a primitive ``prim(b)`` on each block."""
    vecs = []
    pools = [prim(b) for b in X]
    for combo in itertools.product(*pools):
        if combo:
            v = iterate_nabla(h, X, TensorVec.tensor(*combo))
        else:
            v = Vec.basis(h.unit())
        vecs.append(v)
    return vecs


# ---------------------------------------------------------------------------
# the antipode in closed form

def check_takeuchi_closed_form(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """On the self-dual triple, Takeuchi's sum acts on a basis element as the
    sign (-1)^k, k the number of blocks of its labeled-partition preimage."""
    Is = grounds(max_n)
    if entry.mu is None:
        return CheckReport("takeuchi_closed_form", entry.key, max_n, "skip",
                           {"reason": "no multiplicative system"})
    h = hopf_from(entry, "mu", "mu")
    fm = fmu_of(entry, max_n)
    for I in Is:
        for lam in entry.species.elements(I):
            k = len(fm.invert(lam).blocks)
            got = takeuchi_antipode(h, I, Vec.basis(lam))
            want = Vec.basis(lam).scale((-1) ** k)
            if got != want:
                return CheckReport(
                    "takeuchi_closed_form", entry.key, len(I), "fail",
                    {"input": str(lam), "blocks": k, "got": str(got), "want": str(want)})
    return CheckReport("takeuchi_closed_form", entry.key, max_n, "pass")
