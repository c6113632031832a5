"""The partial order carried by a commutative linearized pair, and its uses.

Each component order is computed twice: once by the full product-after-
coproduct formula over all set partitions, and once as the transitive closure
of the two-block relation.  The two must coincide (that is the minimality
claim), and the result must be a strict partial order; a miss is fatal.
A catalog entry's order is built once, by ``order_of``, and kept on the
entry, so each slice is computed (by both routes) once per run.

The order is built and checked on positions in ``elements(I)``: the folds are
chains of compiled mu/pi table lookups, the closure is Warshall on bitmasks,
and each slice keeps, per position, the bitmask of the elements above it or
equal to it and of those below it or equal to it.  Transport (on the species'
transport tables), the lower-interval lattices, (A)/(B), the round trip and
the p/q bases (p as the masks of the elements above, q as integer rows of
common-lower-bound counts) are decided on those masks: the unitriangularity
of p and q as the partial-order axioms, and the four basis identities with
nabla^pi and Delta^mu read off the compiled tables.  Each keeps its element
route, which reads only ``le``/``lt``, that is the pairs in ``strict`` (the
p/q routes on ``Vec``s built from ``le``, the only place those live):
``core.cross_check`` runs it up to n = TABLE_ORACLE_MAX_N, and wherever the
masks see a failure, to find the witness (the lattices do the same, and
compare the data they surface too).  The other mask routes rely on what
``compute_order`` certifies, that the relation is a strict partial order.

On top of the order: lower-interval lattice checks, the two interval
properties that let the coproduct be rebuilt from the product alone, the
upper/lower summation bases p and q with the four product/coproduct
identities they satisfy, and Hasse-diagram export.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .catalog import CatalogEntry, ComultSystem, MultSystem
from .core import (
    TABLE_ORACLE_MAX_N, Bijection, CheckReport, Element, GroundSet, SetPartitionElt,
    SetSpecies, TensorVec, Vec, cross_check, decompositions, grounds, set_partitions,
)
from .engine import DEFAULT_MAX_N, FatalInconsistency, LinearizedHopf, hopf_from
from .classify import FMu, fmu_of


# ---------------------------------------------------------------------------
# computing the order

def _bits(mask: int) -> list[int]:
    """The positions set in ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _pair_key(p):
    return p[0].sort_key(), p[1].sort_key()


class OrderSlice:
    """The strict order on one component, as a set of (smaller, larger) pairs.

    Derived from ``strict`` once: ``index``, the species' own
    (``SetSpecies.index``), maps each element to its position in
    ``elements``; bit j of ``ups[k]`` is set when elements[k] <=
    elements[j], and bit j of ``downs[k]`` when elements[j] <= elements[k], so
    ``ups[k]`` is the support of p at k.  The mask routes read these and the
    views built on them, clearing bit k where they need the strict relation;
    the element routes read only ``le``/``lt``.  ``_shapes`` keeps
    ``_shape_table`` per f_mu map.
    """

    def __init__(self, I: GroundSet, species: SetSpecies, strict: frozenset):
        self.I = I
        self.elements = species.elements(I)
        self.strict = strict
        self._shapes: dict = {}
        self.index = species.index(I)
        self.ups = [1 << k for k in range(len(self.elements))]
        self.downs = self.ups[:]
        for a, b in strict:
            i, j = self.index[a], self.index[b]
            self.ups[i] |= 1 << j
            self.downs[j] |= 1 << i

    def lt(self, a: Element, b: Element) -> bool:
        return (a, b) in self.strict

    def le(self, a: Element, b: Element) -> bool:
        return a == b or (a, b) in self.strict

    @functools.cached_property
    def q_rows(self) -> list[list[int]]:
        """Entry f of row k is the coefficient of position f in q at k: the
        number of positions below both k and f, so the rows are symmetric."""
        downs = self.downs
        return [[(d & e).bit_count() for e in downs] for d in downs]

    def covers(self) -> list[tuple[Element, Element]]:
        """Pairs a < b with nothing strictly between, in element order."""
        el, downs = self.elements, self.downs
        return sorted(((el[i], el[j]) for i, up in enumerate(self.ups)
                       for j in _bits(up & ~(1 << i)) if up & downs[j] == 1 << i | 1 << j),
                      key=_pair_key)

    @functools.cached_property
    def meetless(self) -> list[int]:
        """Bit b of entry a is set when the common lower bounds of a and b
        have no greatest element."""
        le = self.downs
        principal = set(le)
        out = [0] * len(le)
        for a, la in enumerate(le):
            for b in range(a + 1, len(le)):
                if la & le[b] not in principal:
                    out[a] |= 1 << b
                    out[b] |= 1 << a
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
    Computed on the compiled tables, with the element route as the oracle
    for n <= TABLE_ORACLE_MAX_N (``FatalInconsistency`` on a split).
    """
    key = species_key or mu.species.name
    partitions = set_partitions(I)
    pairs = decompositions(I, 2, nonempty=True)
    strict = _order_tables(mu, pi, I, key, partitions, pairs)
    if len(I) <= TABLE_ORACLE_MAX_N:
        expected = _order_elements(mu, pi, I, key, partitions, pairs)
        if expected != strict:
            raise FatalInconsistency(
                f"table and element order routes disagree for {key} over {I}",
                witness={"table_only": _printed_pairs(strict - expected),
                         "element_only": _printed_pairs(expected - strict)})
    return OrderSlice(I, mu.species, strict)


def _printed_pairs(pairs) -> list[str]:
    return [f"{a} < {b}" for a, b in sorted(pairs, key=_pair_key)]


def _certified(key: str, I: GroundSet, closure: set, kfold: set) -> frozenset:
    """``kfold``, once it is the closure and antisymmetric; fatal otherwise."""
    if closure != kfold:
        raise FatalInconsistency(
            f"order closure mismatch for {key} over {I}",
            witness={"closure_only": _printed_pairs(closure - kfold),
                     "kfold_only": _printed_pairs(kfold - closure)})
    for a, b in kfold:
        if (b, a) in kfold:
            raise FatalInconsistency(
                f"order is not antisymmetric for {key} over {I}",
                witness={"pair": [str(a), str(b)]})
    return frozenset(kfold)


def _fold_positions(steps, xs) -> int:
    """mu.fold of the positions ``xs`` along ``steps``, the (table, width)
    lookups after the first part."""
    acc = xs[0]
    for (table, width), x in zip(steps, xs[1:]):
        acc = table[acc * width + x]
    return acc


def _order_tables(mu, pi, I, key, partitions, pairs) -> frozenset:
    """The order on positions: mu.fold and pi.fold over the blocks of each
    partition are chains of table lookups, built once per partition, and the
    closure of the two-block relation is Warshall on successor masks."""
    elements = mu.species.elements(I)
    size, dim = len(elements), mu.species.dim
    kfold = [0] * size
    for blocks in partitions:
        if len(blocks) < 2:
            continue
        steps, ground = [], blocks[0]
        for part in blocks[1:]:
            steps.append((mu.table(ground, part), dim(part)))
            ground = ground.union(part)
        peels, rest = [], I
        for part in blocks[:-1]:
            rest = rest.minus(part)
            peels.append(pi.table(part, rest))
        for c in range(size):
            xs, r = [], c
            for table in peels:  # peel the next block off the rest
                x, r = table[r]
                xs.append(x)
            xs.append(r)
            lam = _fold_positions(steps, xs)
            if lam != c:
                kfold[lam] |= 1 << c
    succ = [0] * size
    for S, T in pairs:
        table, width = mu.table(S, T), mu.species.dim(T)
        for c, (a, b) in enumerate(pi.table(S, T)):
            lam = table[a * width + b]
            if lam != c:
                succ[lam] |= 1 << c
    for k in range(size):
        bit, row = 1 << k, succ[k]
        for e in range(size):
            if succ[e] & bit:
                succ[e] |= row

    def pairs_of(masks):
        return {(elements[i], elements[j]) for i, up in enumerate(masks) for j in _bits(up)}

    return _certified(key, I, pairs_of(m & ~(1 << e) for e, m in enumerate(succ)),
                      pairs_of(kfold))


def _order_elements(mu, pi, I, key, partitions, pairs) -> frozenset:
    """The order as element pairs, every fold evaluated on elements."""
    elements = mu.species.elements(I)
    kfold: set = set()
    for blocks in partitions:
        if len(blocks) < 2:
            continue
        for lam2 in elements:
            lam = mu.fold(blocks, pi.fold(blocks, lam2))
            if lam != lam2:
                kfold.add((lam, lam2))
    pairrel: set = set()
    for S, T in pairs:
        for lam2 in elements:
            a, b = pi(S, T, lam2)
            lam = mu(S, T, a, b)
            if lam != lam2:
                pairrel.add((lam, lam2))
    return _certified(key, I, _transitive_closure(pairrel, elements), kfold)


class SpeciesOrder:
    """The order as a family over all ground sets, computed and cached lazily."""

    def __init__(self, mu: MultSystem, pi: ComultSystem, species_key: str | None = None):
        self.mu = mu
        self.pi = pi
        self.key = species_key or mu.species.name
        self._slices: dict[GroundSet, OrderSlice] = {}
        self._pq: dict[GroundSet, PQTables] = {}

    def slice(self, I: GroundSet) -> OrderSlice:
        if I not in self._slices:
            self._slices[I] = compute_order(self.mu, self.pi, I, self.key)
        return self._slices[I]


def order_of(entry: CatalogEntry) -> SpeciesOrder:
    """The entry's order, built on first use and kept on the entry."""
    if "order" not in entry._memo:
        entry._memo["order"] = SpeciesOrder(entry.mu, entry.pi, entry.key)
    return entry._memo["order"]


def check_order_transport(order: SpeciesOrder, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """(a, b) in the order iff (sigma a, sigma b) is, for every endo-bijection.

    Decided on the masks, with the species' transport table of each sigma."""
    sp = order.mu.species
    return cross_check("order_transport", order.key, grounds(max_n),
                       lambda I: _transport_masks(sp, order.slice(I)),
                       lambda I: _transport_elements(sp, order.slice(I)), TABLE_ORACLE_MAX_N)


def _transport_masks(sp, sl: OrderSlice) -> bool | None:
    """None when every sigma, by a one-to-one table, moves the ``ups`` masks,
    and so the strict relation, onto themselves; ``bit[i]`` moves i itself."""
    ups = [_bits(m & ~(1 << k)) for k, m in enumerate(sl.ups)]
    for sigma in Bijection.all_endo(sl.I):
        try:
            p = sp.transport_table(sigma)
        except ValueError:  # a transport result outside the component
            return False
        if len(set(p)) != len(p):
            return False
        bit = [1 << k for k in p]
        moved = [0] * len(p)
        for i, up in enumerate(ups):
            moved[p[i]] = sum((bit[j] for j in up), bit[i])
        if moved != sl.ups:
            return False
    return None


def _transport_elements(sp, sl: OrderSlice) -> dict | None:
    """The first sigma that moves the pairs of ``strict`` off themselves."""
    for sigma in Bijection.all_endo(sl.I):
        image = {e: sp.transport(sigma, e) for e in sl.elements}
        moved = {(image[a], image[b]) for a, b in sl.strict}
        if moved != sl.strict:
            return {"sigma": list(sigma.images)}
    return None


# ---------------------------------------------------------------------------
# lower intervals

def check_lower_lattice(order: SpeciesOrder, I: GroundSet, lam: Element,
                        fmu: FMu | None = None) -> CheckReport:
    """Meets exist in the lower interval of lam, and comparability inside it
    agrees with refinement of shapes.

    The witness always carries the interval size; the shape-map image data
    (injective / surjective onto the refinements of sh(lam)) is surfaced in
    the report without being asserted.  Decided on the masks: the meet of a
    and b is the greatest element of ``le[a] & le[b]``, and refinement of
    shapes is tabulated once per slice and fmu.  The element route runs up
    to n = TABLE_ORACLE_MAX_N and wherever the masks see a failure, and a
    split (in verdict or in the data surfaced) raises ``FatalInconsistency``.
    """
    info = _lower_lattice_masks(order.slice(I), lam, fmu)
    if info is not None and len(I) > TABLE_ORACLE_MAX_N:
        return CheckReport("lower_lattice", order.key, len(I), "pass", info)
    rep = _lower_lattice_elements(order, I, lam, fmu)
    if (rep.witness if rep.ok else None) != info:
        raise FatalInconsistency(
            f"mask and element lower lattice checks disagree for {order.key} at {lam}",
            witness={"masks": info, "element": rep.witness})
    return rep


def _lower_lattice_masks(sl: OrderSlice, lam: Element, fmu: FMu | None) -> dict | None:
    """The pass witness of the lower interval of lam, or None where the
    masks see a failure."""
    k = sl.index[lam]
    down = sl.downs[k]
    interval = _bits(down)
    if any(sl.meetless[a] & down for a in interval):
        return None
    info: dict = {"lambda": str(lam), "interval_size": len(interval)}
    if fmu is not None:
        shape, coarser, finer = _shape_table(sl, fmu)
        if any((sl.ups[a] ^ coarser[a]) & down & ~(1 << a) for a in interval):
            return None
        image = 0
        for a in interval:
            image |= 1 << shape[a]
        info["shape_map_injective"] = image.bit_count() == len(interval)
        info["shape_map_surjective"] = image == finer[shape[k]]
    return info


def _refinement(I: GroundSet) -> tuple[dict, list[int]]:
    """The set partitions of I, each mapped to its position in
    ``set_partitions(I)``, and per position the mask of the partitions that
    refine it."""
    shapes = [SetPartitionElt.canonical(I, blocks) for blocks in set_partitions(I)]
    finer = [sum(1 << j for j, x in enumerate(shapes) if _refines(x, y)) for y in shapes]
    return {x: j for j, x in enumerate(shapes)}, finer


def _shape_table(sl: OrderSlice, fmu: FMu):
    """Per position of sl: the position of its shape among the set
    partitions of I, and the mask of the positions whose shapes its shape
    refines; with the ``finer`` masks of ``_refinement``.  Built once per
    slice and fmu."""
    got = sl._shapes.get(fmu)
    if got is None:
        position, finer = _refinement(sl.I)
        shape = [position[fmu.shape(e)] for e in sl.elements]
        with_shape = [0] * len(finer)
        for a, s in enumerate(shape):
            with_shape[s] |= 1 << a
        coarser = {s: sum(m for t, m in enumerate(with_shape) if finer[t] >> s & 1)
                   for s in set(shape)}
        got = sl._shapes[fmu] = shape, [coarser[s] for s in shape], finer
    return got


def _lower_lattice_elements(order: SpeciesOrder, I: GroundSet, lam: Element,
                            fmu: FMu | None) -> CheckReport:
    """The report on the lower interval of lam, on elements."""
    key = order.key
    sl = order.slice(I)
    interval = [e for e in sl.elements if sl.le(e, lam)]
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
        partitions = (SetPartitionElt.canonical(I, blocks) for blocks in set_partitions(I))
        target = [x for x in partitions if _refines(x, shapes[lam])]
        image = set(shapes.values())
        info["shape_map_injective"] = len(image) == len(interval)
        info["shape_map_surjective"] = image == set(target)
    return CheckReport("lower_lattice", key, len(I), "pass", info)


def _refines(x: SetPartitionElt, y: SetPartitionElt) -> bool:
    """x <= y in refinement: every block of x sits inside a block of y."""
    return all(any(b.issubset(c) for c in y.blocks) for b in x.blocks)


def check_all_lower_lattices(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    Is = grounds(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("lower_lattice", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    order = order_of(entry)
    fmu = fmu_of(entry, max_n)
    surjective_everywhere = True
    for I in Is:
        for lam in entry.species.elements(I):
            rep = check_lower_lattice(order, I, lam, fmu)
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
    (B): below any element, the product image has a unique maximal point.

    Decided on the masks and the compiled mu tables."""
    return cross_check("property_AB", order.key, grounds(max_n),
                       lambda I: _AB_masks(order, mu, I), lambda I: _AB_elements(order, mu, I),
                       TABLE_ORACLE_MAX_N)


def _greatest_in_image(sl: OrderSlice, image: int) -> list[int | None]:
    """Per position lam, the greatest position of ``image`` below lam (the
    unique maximal one), or None."""
    top = {sl.downs[m] & image: m for m in _bits(image)}
    return [top.get(down & image) for down in sl.downs]


def _AB_masks(order: SpeciesOrder, mu: MultSystem, I: GroundSet) -> bool | None:
    """None when (A) and (B) hold over I, else False: mu maps each rectangle
    of lower intervals one to one onto the lower interval of its product,
    and every element has a greatest product image below it.

    The order half of (A) is not compared, because on partial orders it
    follows: if x <= x' in a rectangle, x lies in rect(x'), whose image is
    the lower interval of mu(x'); if mu(x) <= mu(x'), then mu(x) = mu(z) for
    some z in rect(x'), which lies in the rectangle, and injectivity there
    gives x = z <= x'."""
    sl = order.slice(I)
    for S, T in decompositions(I, 2):
        sls, slt = order.slice(S), order.slice(T)
        table, width = mu.table(S, T), len(slt.elements)
        for lam, down_s in enumerate(sls.downs):
            rows = _bits(down_s)
            for lam2, down_t in enumerate(slt.downs):
                cols = _bits(down_t)
                prod = table[lam * width + lam2]
                mapped = {table[a * width + b] for a in rows for b in cols}
                if len(mapped) != len(rows) * len(cols) or \
                        sum(1 << c for c in mapped) != sl.downs[prod]:
                    return False
        if None in _greatest_in_image(sl, sum(1 << c for c in set(table))):
            return False
    return None


def _AB_elements(order: SpeciesOrder, mu: MultSystem, I: GroundSet) -> dict | None:
    """The first failure of (A) or (B) over I, on elements."""
    sl = order.slice(I)
    for S, T in decompositions(I, 2):
        sls, slt = order.slice(S), order.slice(T)
        for lam in mu.species.elements(S):
            for lam2 in mu.species.elements(T):
                down_s = [e for e in sls.elements if sls.le(e, lam)]
                down_t = [e for e in slt.elements if slt.le(e, lam2)]
                prod = mu(S, T, lam, lam2)
                target = [e for e in sl.elements if sl.le(e, prod)]
                mapped = {}
                for a in down_s:
                    for b in down_t:
                        mapped[(a, b)] = mu(S, T, a, b)
                if sorted(map(lambda e: e.sort_key(), mapped.values())) != \
                        sorted(map(lambda e: e.sort_key(), target)):
                    return {"property": "A:bijection", "S": list(S), "T": list(T),
                            "inputs": [str(lam), str(lam2)]}
                for (a, b), (c, d) in itertools.product(mapped, repeat=2):
                    left = sls.le(a, c) and slt.le(b, d)
                    right = sl.le(mapped[(a, b)], mapped[(c, d)])
                    if left != right:
                        return {"property": "A:order", "S": list(S), "T": list(T),
                                "pairs": [[str(a), str(b)], [str(c), str(d)]]}
        image = mu.image(S, T)
        for lam in mu.species.elements(I):
            below = [e for e in image if sl.le(e, lam)]
            maximal = [e for e in below if not any(sl.lt(e, d) for d in below)]
            if len(maximal) != 1:
                return {"property": "B", "S": list(S), "T": list(T), "lambda": str(lam),
                        "maximal": [str(m) for m in maximal]}
    return None


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
    """reconstruct_pi(compute_order(mu, pi), mu) = pi, elementwise.

    Decided against the compiled pi tables, with the greatest image below
    each element read off the masks; the element route raises where the
    reconstruction is undefined."""
    Is = grounds(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("reconstruct_roundtrip", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    order = order_of(entry)
    return cross_check("reconstruct_roundtrip", entry.key, Is,
                       lambda I: _roundtrip_masks(order, entry.mu, entry.pi, I),
                       lambda I: _roundtrip_elements(order, entry, I), TABLE_ORACLE_MAX_N)


def _roundtrip_masks(order: SpeciesOrder, mu: MultSystem, pi: ComultSystem,
                     I: GroundSet) -> bool | None:
    """None when, for every (S, T) and lam, the greatest product image below
    lam has one preimage under mu, and it is pi(lam); else False."""
    sl = order.slice(I)
    for S, T in decompositions(I, 2):
        table, width = mu.table(S, T), order.mu.species.dim(T)
        preimage: dict = {}
        for k, c in enumerate(table):
            preimage[c] = None if c in preimage else divmod(k, width)
        greatest = _greatest_in_image(sl, sum(1 << c for c in preimage))
        if [preimage.get(m) for m in greatest] != pi.table(S, T):
            return False
    return None


def _roundtrip_elements(order: SpeciesOrder, entry: CatalogEntry, I: GroundSet) -> dict | None:
    """The first lam whose reconstructed coproduct is not pi(lam), on
    elements; raises where the reconstruction is undefined."""
    rebuilt = reconstruct_pi(order, entry.mu)
    for S, T in decompositions(I, 2):
        for lam in entry.species.elements(S.union(T)):
            if rebuilt(S, T, lam) != entry.pi(S, T, lam):
                return {"S": list(S), "T": list(T), "lambda": str(lam),
                        "rebuilt": [str(e) for e in rebuilt(S, T, lam)],
                        "original": [str(e) for e in entry.pi(S, T, lam)]}
    return None


# ---------------------------------------------------------------------------
# the p and q bases

class PQTables:
    def __init__(self, I: GroundSet, p: dict, q: dict):
        self.I = I
        self.p = p      # Element -> Vec
        self.q = q      # Element -> Vec


def pq_tables(order: SpeciesOrder, I: GroundSet) -> PQTables:
    """p sums everything above an element; q sums p over everything below.

    Built from ``le`` over the elements, never from the masks, for the Vec
    routes of the bases rows, which run at n <= TABLE_ORACLE_MAX_N and where
    a mask route sees a failure.  Built once per slice and kept on the order."""
    got = order._pq.get(I)
    if got is None:
        sl = order.slice(I)
        el = sl.elements
        p = {lam: Vec(I, [(e, 1) for e in el if sl.le(lam, e)]) for lam in el}
        q = {lam: sum((p[e] for e in el if sl.le(e, lam)), Vec.zero(I)) for lam in el}
        got = order._pq[I] = PQTables(I, p, q)
    return got


def _p_product(h_pi_mu: LinearizedHopf, mu: MultSystem, tables, S: GroundSet, T: GroundSet,
               a: Element, b: Element) -> tuple[Vec, Vec]:
    """Both sides of the p-product identity nabla^pi(p_a (x) p_b) = p_{mu(a,b)},
    with ``tables`` the p/q tables over S, T and S u T."""
    ts, tt, ti = tables
    got = h_pi_mu.nabla(S, T, TensorVec.tensor(ts.p[a], tt.p[b]))
    return got, ti.p[mu(S, T, a, b)]


def check_pq_unitriangular(order: SpeciesOrder, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """p is unitriangular over the element basis; q is unitriangular over p.

    Decided as the partial-order axioms on the masks; the Vec route runs up
    to n = TABLE_ORACLE_MAX_N and wherever the masks see a failure, and names
    the witness."""
    return cross_check("pq_unitriangular", order.key, grounds(max_n),
                       lambda I: _pq_positions(order, I), lambda I: _pq_vecs(order, I),
                       TABLE_ORACLE_MAX_N)


def _pq_positions(order: SpeciesOrder, I: GroundSet) -> bool | None:
    """None when <= is a partial order over I, else False: for each position
    k, ``ups[k] & downs[k]`` is k alone (antisymmetry), and ``ups[f]`` lies
    inside ``ups[k]`` for each f in ``ups[k]`` (transitivity).

    Then <= has a linear extension.  In it, p_k (1 on ``ups[k]``) is 1 at k
    and 0 before k, so p is unitriangular over the element basis; and q_k is
    p_k plus the p_f with f < k, each before k, so q is unitriangular over
    p.  ``ups[k]`` holds k by construction, so reflexivity needs no check."""
    sl = order.slice(I)
    ups, downs = sl.ups, sl.downs
    for k, up in enumerate(ups):
        if up & downs[k] != 1 << k or any(ups[f] & ~up for f in _bits(up)):
            return False
    return None


def _pq_vecs(order: SpeciesOrder, I: GroundSet) -> dict | None:
    """The first failure over I on Vecs: p_lam is 1 at lam; for each other
    term e, lam is not in supp(p_e) and supp(p_e) lies inside supp(p_lam);
    and q_lam re-sums as p_e over the e <= lam."""
    sl, tables = order.slice(I), pq_tables(order, I)
    p = tables.p
    for lam in sl.elements:
        pv = p[lam]
        if pv.coeff(lam) != 1 or any(
                e != lam and (lam in p[e].terms or not p[e].terms.keys() <= pv.terms.keys())
                for e in pv.terms):
            return {"basis": "p", "lambda": str(lam), "vec": str(pv)}
    for lam in sl.elements:
        if sum((p[e] for e in sl.elements if sl.le(e, lam)), Vec.zero(I)) != tables.q[lam]:
            return {"basis": "q", "lambda": str(lam)}
    return None


def check_basis_theorem(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """The four identities tying the p and q bases to the three Hopf variants.

    In the p basis the mixed product acts like mu and the mu-coproduct splits
    products (or kills non-products); in the q basis both act exactly like
    the original pair (mu, pi).  Any failure is fatal.  Decided on the masks
    and the compiled mu/pi tables; the Vec route runs up to n =
    TABLE_ORACLE_MAX_N and wherever the positions see a failure, and raises
    the failure it finds (a split raises too).
    """
    Is = grounds(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("basis_identities", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    order = order_of(entry)
    h_pi_mu = hopf_from(entry, "pi", "mu")   # product nabla^pi, coproduct Delta^mu
    return cross_check("basis_identities", entry.key, Is,
                       lambda I: _basis_positions(order, I),
                       lambda I: _basis_vecs(order, h_pi_mu, I), TABLE_ORACLE_MAX_N)


def _basis_positions(order: SpeciesOrder, I: GroundSet) -> bool | None:
    """None when the four identities hold over I, else False.

    p_k is the mask ``ups[k]`` and q_k the row ``q_rows[k]``.  nabla^pi(x (x)
    y) sums the z with pi(z) = (x, y), and Delta^mu(z) the pairs of the
    mu-fiber of z, so per (S, T):
    p-product: the z with pi(z) in ups[a] x ups[b] make up ups[mu(a, b)];
    p-coproduct: mu(x, y) lies above lam iff lam is a product whose first
    fiber pair (a, b) has a <= x and b <= y, which is compared per (x, y) as
    masks of lam;
    q-product: q_S[a][s] * q_T[b][t] = q_I[mu(a, b)][z] for each z, with
    (s, t) = pi(z).  Since the q rows are symmetric, the q-coproduct
    identity q_I[lam][mu(x, y)] = q_S[s][x] * q_T[t][y], with (s, t) =
    pi(lam), is the q-product identity at (x, y) and z = lam.  Each sum of
    masks below adds disjoint masks: a z has one pi(z), and a product one
    first fiber pair."""
    mu, pi = order.mu, order.pi
    sl = order.slice(I)
    for S, T in decompositions(I, 2):
        sls, slt = order.slice(S), order.slice(T)
        table, split, width = mu.table(S, T), pi.table(S, T), len(slt.elements)
        with_s, with_t = [0] * len(sls.elements), [0] * width
        for z, (s, t) in enumerate(split):
            with_s[s] |= 1 << z
            with_t[t] |= 1 << z
        over_s = [sum(with_s[x] for x in _bits(m)) for m in sls.ups]
        over_t = [sum(with_t[y] for y in _bits(m)) for m in slt.ups]
        if [u & v for u in over_s for v in over_t] != [sl.ups[c] for c in table]:
            return False
        first_s, first_t, seen = [0] * len(sls.elements), [0] * width, 0
        for k, c in enumerate(table):
            if not seen >> c & 1:
                seen |= 1 << c
                first_s[k // width] |= 1 << c
                first_t[k % width] |= 1 << c
        under_s = [sum(first_s[a] for a in _bits(m)) for m in sls.downs]
        under_t = [sum(first_t[b] for b in _bits(m)) for m in slt.downs]
        if [u & v for u in under_s for v in under_t] != [sl.downs[c] for c in table]:
            return False
        cols_s = [[row[s] for s, _ in split] for row in sls.q_rows]
        cols_t = [[row[t] for _, t in split] for row in slt.q_rows]
        if any(list(map(operator.mul, u, v)) != sl.q_rows[c]
               for (u, v), c in zip(itertools.product(cols_s, cols_t), table)):
            return False
    return None


def _basis_vecs(order: SpeciesOrder, h_pi_mu: LinearizedHopf, I: GroundSet) -> None:
    """The four identities over I on Vecs; the first failure raises."""
    mu, pi, sp = order.mu, order.pi, order.mu.species
    key = order.key
    ti = pq_tables(order, I)
    for S, T in decompositions(I, 2):
        ts, tt = pq_tables(order, S), pq_tables(order, T)
        mu_image = mu.image(S, T)
        for a in sp.elements(S):
            for b in sp.elements(T):
                got, want = _p_product(h_pi_mu, mu, (ts, tt, ti), S, T, a, b)
                if got != want:
                    raise FatalInconsistency(
                        f"p-product identity fails for {key}",
                        witness={"S": list(S), "T": list(T),
                                 "inputs": [str(a), str(b)],
                                 "got": str(got), "want": str(want)})
                wantq = ti.q[mu(S, T, a, b)]
                gotq = h_pi_mu.nabla(S, T, TensorVec.tensor(ts.q[a], tt.q[b]))
                if gotq != wantq:
                    raise FatalInconsistency(
                        f"q-product identity fails for {key}",
                        witness={"S": list(S), "T": list(T),
                                 "inputs": [str(a), str(b)]})
        for lam in sp.elements(I):
            got = h_pi_mu.delta(S, T, ti.p[lam])
            fiber = mu.fiber(S, T, lam)
            if lam in mu_image:
                a, b = fiber[0]
                want = TensorVec.tensor(ts.p[a], tt.p[b])
            else:
                want = TensorVec.zero((S, T))
            if got != want:
                raise FatalInconsistency(
                    f"p-coproduct identity fails for {key}",
                    witness={"S": list(S), "T": list(T), "lambda": str(lam),
                             "got": str(got), "want": str(want)})
            a2, b2 = pi(S, T, lam)
            if h_pi_mu.delta(S, T, ti.q[lam]) != TensorVec.tensor(ts.q[a2], tt.q[b2]):
                raise FatalInconsistency(
                    f"q-coproduct identity fails for {key}",
                    witness={"S": list(S), "T": list(T), "lambda": str(lam)})
    return None


def check_basis_change_matrices(entry: CatalogEntry, max_n: int = 3) -> CheckReport:
    """The p-basis change of basis conjugates the mixed variant's product
    into the self-dual variant's: the p-product identity of
    ``check_basis_theorem``, reported as a fail row instead of raised."""
    Is = grounds(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("basis_change", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    order = order_of(entry)
    h = hopf_from(entry, "pi", "mu")
    for I in Is:
        for S, T in decompositions(I, 2):
            tables = pq_tables(order, S), pq_tables(order, T), pq_tables(order, I)
            for a in entry.species.elements(S):
                for b in entry.species.elements(T):
                    got, want = _p_product(h, entry.mu, tables, S, T, a, b)
                    if got != want:
                        return CheckReport(
                            "basis_change", entry.key, len(I), "fail",
                            {"S": list(S), "T": list(T), "inputs": [str(a), str(b)]})
    return CheckReport("basis_change", entry.key, max_n, "pass")


# ---------------------------------------------------------------------------
# Hasse diagrams

def hasse_dot(order: SpeciesOrder, I: GroundSet) -> str:
    """Cover relations of the component order as DOT text, edges upward."""
    sl = order.slice(I)
    lines = [f'digraph "{order.key}_{len(I)}" {{', "  rankdir=BT;"]
    for e in sl.elements:
        lines.append(f'  "{e}";')
    for a, b in sl.covers():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
