"""Linearized Hopf structures and exhaustive desk-scale verification.

Linearizes a multiplicative system mu and a comultiplicative system pi on a
species basis: a ``LinearizedHopf`` holds the system its product comes from
and the one its coproduct comes from, and reads the four (co)products'
structure constants, each 0 or 1, straight from mu, pi and their fibers.
Checks every axiom by brute force over all decompositions of {1..n}:
(co)associativity, (co)commutativity, (co)unitality and Hopf compatibility,
each compared as multisets of basis positions read from the compiled mu and
pi tables (the linear route, on elements, is the oracle for n <= 2);
Hopf self-compatibility (two independent routes that must agree; the local
one compares positions of the mu tables), structure constants, free
self-duality, the invariant form, Takeuchi's antipode, duality by
transposition (which swaps the systems), and the preorder rectangle on the
mu and pi tables.  The local route and the rectangle keep their element
routes as the oracle for n <= 2.

A check that contradicts a theorem that is supposed to hold at desk scale
raises ``FatalInconsistency``: that always means an implementation bug, and
continuing would poison everything downstream.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .catalog import CatalogEntry, ComultSystem, MultSystem, _positions
from .core import (
    EMPTY, TABLE_ORACLE_MAX_N, Bijection, CheckReport, Element, FatalInconsistency,
    GroundSet, SetSpecies, TensorVec, Vec, decompositions, nonempty_compositions,
    tensor_dot, union_all, vec_dot,
)

DEFAULT_MAX_N = 4
SOFT_CEILING = 5


def hard_ceiling() -> int:
    env = os.environ.get("SPECIES_FORGE_CEILING")
    if not env:
        return SOFT_CEILING
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"SPECIES_FORGE_CEILING must be an integer, got {env!r}") from None


def guard_max_n(max_n: int) -> None:
    if max_n > hard_ceiling():
        raise ValueError(
            f"max_n={max_n} exceeds the ceiling {hard_ceiling()}; "
            f"set SPECIES_FORGE_CEILING to override")


# ---------------------------------------------------------------------------
# the linearized (co)products
#
# A product is a MultSystem (nabla^mu sends x (x) y to mu(x, y)) or a
# ComultSystem (nabla^pi sends it to the sum of the pi-fiber of (x, y)).  A
# coproduct is a ComultSystem (Delta^pi sends z to pi(z)) or a MultSystem
# (Delta^mu sends it to the sum of the mu-fiber of z).  So every structure
# constant is 0 or 1, and the two readers return the basis terms that carry
# a 1.

@dataclass
class LinearizedHopf:
    """A species basis with the systems its product and coproduct linearize."""

    name: str
    basis: SetSpecies
    product: MultSystem | ComultSystem
    coproduct: ComultSystem | MultSystem

    def unit(self) -> Element:
        return self.basis.unit_element()

    def products(self, S: GroundSet, T: GroundSet, x: Element, y: Element) -> tuple:
        """The basis elements of nabla_{S,T}(x (x) y), each with coefficient 1."""
        if isinstance(self.product, MultSystem):
            return (self.product(S, T, x, y),)
        return self.product.fiber(S, T, (x, y))

    def splits(self, S: GroundSet, T: GroundSet, z: Element) -> tuple:
        """The basis pairs of Delta_{S,T}(z), each with coefficient 1."""
        if isinstance(self.coproduct, ComultSystem):
            return (self.coproduct(S, T, z),)
        return self.coproduct.fiber(S, T, z)

    def nabla(self, S: GroundSet, T: GroundSet, t: TensorVec) -> Vec:
        acc: dict = {}
        for (x, y), c in t.terms.items():
            for z in self.products(S, T, x, y):
                acc[z] = acc.get(z, 0) + c
        return Vec(S.union(T), acc)

    def delta(self, S: GroundSet, T: GroundSet, v: Vec) -> TensorVec:
        acc: dict = {}
        for z, c in v.terms.items():
            for pair in self.splits(S, T, z):
                acc[pair] = acc.get(pair, 0) + c
        return TensorVec((S, T), acc)


_SYSTEM_NAMES = {"mu": "multiplicative", "pi": "comultiplicative"}


def hopf_from(entry: CatalogEntry, product: str = "mu", coproduct: str = "pi") -> LinearizedHopf:
    """Assemble one of the triples (nabla^mu|nabla^pi, Delta^mu|Delta^pi)."""
    systems = {"mu": entry.mu, "pi": entry.pi}
    if product not in systems or coproduct not in systems:
        raise ValueError(f"unknown variant ({product},{coproduct})")
    for kind in (product, coproduct):
        if systems[kind] is None:
            raise ValueError(f"{entry.key} has no {_SYSTEM_NAMES[kind]} system")
    name = f"{entry.key}[nabla^{product},Delta^{coproduct}]"
    return LinearizedHopf(name, entry.species, systems[product], systems[coproduct])


def _nabla_basis(h: LinearizedHopf, S: GroundSet, T: GroundSet, x: Element, y: Element) -> Vec:
    """nabla_{S,T}(x (x) y) as a vector."""
    return Vec(S.union(T), [(z, 1) for z in h.products(S, T, x, y)])


def _delta_basis(h: LinearizedHopf, S: GroundSet, T: GroundSet, z: Element) -> TensorVec:
    """Delta_{S,T}(z) as a tensor."""
    return TensorVec((S, T), [(pair, 1) for pair in h.splits(S, T, z)])


# ---------------------------------------------------------------------------
# tensor-position application and iterated maps

def apply_nabla_at(h: LinearizedHopf, t: TensorVec, pos: int) -> TensorVec:
    """id (x) ... (x) nabla (x) ... (x) id, merging slots pos and pos+1."""
    S, T = t.parts[pos], t.parts[pos + 1]
    parts = t.parts[:pos] + (S.union(T),) + t.parts[pos + 2:]
    acc: dict = {}
    for key, c in t.terms.items():
        head, tail = key[:pos], key[pos + 2:]
        for e in h.products(S, T, key[pos], key[pos + 1]):
            k = head + (e,) + tail
            acc[k] = acc.get(k, 0) + c
    return TensorVec(parts, acc)


def apply_delta_at(h: LinearizedHopf, t: TensorVec, pos: int,
                   S: GroundSet, T: GroundSet) -> TensorVec:
    """id (x) ... (x) Delta_{S,T} (x) ... (x) id, splitting slot pos."""
    if t.parts[pos] != S.union(T):
        raise ValueError("slot does not match S u T")
    parts = t.parts[:pos] + (S, T) + t.parts[pos + 1:]
    acc: dict = {}
    for key, c in t.terms.items():
        head, tail = key[:pos], key[pos + 1:]
        for pair in h.splits(S, T, key[pos]):
            k = head + pair + tail
            acc[k] = acc.get(k, 0) + c
    return TensorVec(parts, acc)


def iterate_nabla(h: LinearizedHopf, parts: tuple[GroundSet, ...], t: TensorVec) -> Vec:
    """The iterated product over a decomposition, folded left to right like
    ``MultSystem.fold``: slot 0 absorbs the next slot, k-1 times.  One
    bracketing suffices once associativity holds (generalized associativity)."""
    parts = tuple(parts)
    if t.parts != parts:
        raise ValueError("tensor parts do not match the decomposition")
    if not parts:
        raise ValueError("need at least one part")
    for _ in parts[1:]:
        t = apply_nabla_at(h, t, 0)
    return t.as_vec()


def iterate_delta(h: LinearizedHopf, parts: tuple[GroundSet, ...], v: Vec) -> TensorVec:
    """The iterated coproduct over a decomposition, peeling parts left to
    right like ``ComultSystem.fold``: slot i splits into parts[i] and the rest."""
    parts = tuple(parts)
    rest = union_all(parts)
    if v.ground != rest:
        raise ValueError("vector ground does not match the decomposition")
    if not parts:
        raise ValueError("need at least one part")
    t = TensorVec((rest,), [((z,), c) for z, c in v.terms.items()])
    for i, part in enumerate(parts[:-1]):
        rest = rest.minus(part)
        t = apply_delta_at(h, t, i, part, rest)
    return t


# ---------------------------------------------------------------------------
# axiom checks
#
# Every structure constant of the four (co)products is 0 or 1, so both sides
# of a diagram are sums of basis terms with nonnegative integer coefficients:
# nothing cancels, and the diagram holds exactly when the two multisets of
# terms are equal.  One kernel per diagram (``_*_terms``) compares them on
# basis positions, for all four variants, reading the terms from the compiled
# mu and pi tables: as lists first (one term a side for nabla^mu and
# Delta^pi), counted only when the lists differ.  Elements appear only in a
# witness, whose failing side prints as the Vec or TensorVec of its multiset,
# as in the linear checkers, which build the vectors from mu, pi and their
# fibers and run beside the kernel up to ORACLE_MAX_N.

# Up to this n the linear checker (or, for the local self-compatibility
# conditions and the rectangle, the element route) also runs beside the
# kernel, and a split in verdict or witness is fatal.
ORACLE_MAX_N = 2


def check_axiom(h: LinearizedHopf, axiom: str, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """Exhaustively verify one defining diagram over every {1..n}, n <= max_n.

    The witness, when present, is the first (hence size-minimal) failing
    instance in the fixed enumeration order.  The diagram is compared as
    multisets of basis positions, with the linear checker as an oracle for
    n <= ORACLE_MAX_N (``FatalInconsistency`` on a split).  A mu or pi result
    outside its component raises ``ValueError``, at every n.
    """
    guard_max_n(max_n)
    route = _AXIOM_ROUTES.get(axiom)
    if route is None:
        raise ValueError(f"unknown axiom {axiom!r}; one of {AXIOMS}")
    return _check_diagram(h, axiom, max_n, *route)


def _check_diagram(h: LinearizedHopf, name: str, max_n: int, parts: int,
                   kernel, oracle) -> CheckReport:
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        decs = decompositions(I, parts) if parts else ()
        witness = kernel(h, I, decs)
        if n <= ORACLE_MAX_N:
            expected = oracle(h, I, decs)
            if expected != witness:
                raise FatalInconsistency(
                    f"table and element {name} checks disagree for {h.name} at n={n}",
                    witness={"table": witness, "element": expected})
        if witness is not None:
            return CheckReport(name, h.name, n, "fail", witness)
    return CheckReport(name, h.name, max_n, "pass")


def _position_readers(h: LinearizedHopf):
    """``products(S, T)`` and ``splits(S, T)``, each built once per (S, T):
    entry a * dim(T) + b of the first holds the terms of nabla_{S,T}(x_a (x)
    y_b) as positions in P[S u T], entry c of the second the terms of
    Delta_{S,T}(z_c) as pairs of positions in P[S] and P[T].  nabla^mu and
    Delta^pi read their system's table; nabla^pi and Delta^mu invert the other
    system's table, which keeps each fiber in the species' element order."""
    dim = h.basis.dim

    @functools.cache
    def products(S, T):
        if isinstance(h.product, MultSystem):
            return [(c,) for c in h.product.table(S, T)]
        width, fibers = dim(T), [[] for _ in range(dim(S) * dim(T))]
        for c, (a, b) in enumerate(h.product.table(S, T)):
            fibers[a * width + b].append(c)
        return list(map(tuple, fibers))

    @functools.cache
    def splits(S, T):
        if isinstance(h.coproduct, ComultSystem):
            return [(p,) for p in h.coproduct.table(S, T)]
        width, fibers = dim(T), [[] for _ in range(dim(S.union(T)))]
        for k, c in enumerate(h.coproduct.table(S, T)):
            fibers[c].append(divmod(k, width))
        return list(map(tuple, fibers))

    return products, splits


def _printed(sp: SetSpecies, over, terms) -> str:
    """The sum of the position ``terms`` as a Vec over one ground set or a
    TensorVec over parts."""
    if isinstance(over, GroundSet):
        el = sp.elements(over)
        return str(Vec(over, Counter(el[w] for w in terms)))
    els = [sp.elements(part) for part in over]
    return str(TensorVec(over, Counter(tuple(e[k] for e, k in zip(els, key)) for key in terms)))


def _assoc_terms(h, I, decs):
    products, _ = _position_readers(h)
    el, dim = h.basis.elements, h.basis.dim
    for R, S, T in decs:
        RS, ST = R.union(S), S.union(T)
        dS, dT, dST = dim(S), dim(T), dim(ST)
        xy, yz, left, right = products(R, S), products(S, T), products(RS, T), products(R, ST)
        for a in range(dim(R)):
            for b in range(dS):
                ab = xy[a * dS + b]
                for c in range(dT):
                    lhs = [w for u in ab for w in left[u * dT + c]]
                    rhs = [w for v in yz[b * dT + c] for w in right[a * dST + v]]
                    if lhs != rhs and Counter(lhs) != Counter(rhs):
                        return {"decomposition": [list(R), list(S), list(T)],
                                "inputs": [str(el(R)[a]), str(el(S)[b]), str(el(T)[c])],
                                "lhs": _printed(h.basis, I, lhs),
                                "rhs": _printed(h.basis, I, rhs)}
    return None


def _comm_terms(h, I, decs):
    products, _ = _position_readers(h)
    el, dim = h.basis.elements, h.basis.dim
    for S, T in decs:
        dS, dT, st, ts = dim(S), dim(T), products(S, T), products(T, S)
        for a in range(dS):
            for b in range(dT):
                lhs, rhs = st[a * dT + b], ts[b * dS + a]
                if lhs != rhs and Counter(lhs) != Counter(rhs):
                    return {"decomposition": [list(S), list(T)],
                            "inputs": [str(el(S)[a]), str(el(T)[b])],
                            "lhs": _printed(h.basis, I, lhs), "rhs": _printed(h.basis, I, rhs)}
    return None


def _unital_terms(h, I, decs):
    # the unit is the one element of P[empty], at position 0
    try:
        h.unit()
    except ValueError as exc:
        return {"error": str(exc)}
    products, _ = _position_readers(h)
    left, right = products(EMPTY, I), products(I, EMPTY)
    for c, x in enumerate(h.basis.elements(I)):
        if left[c] != (c,) or right[c] != (c,):
            return {"inputs": [str(x)], "left": _printed(h.basis, I, left[c]),
                    "right": _printed(h.basis, I, right[c])}
    return None


def _coassoc_terms(h, I, decs):
    _, splits = _position_readers(h)
    pi = h.coproduct if isinstance(h.coproduct, ComultSystem) else None
    for R, S, T in decs:
        if pi is not None:  # Delta^pi: a single triple a side
            left, rs = pi.table(R.union(S), T), pi.table(R, S)
            right, st = pi.table(R, S.union(T)), pi.table(S, T)
            for c, ((u, t), (r, v)) in enumerate(zip(left, right)):
                if rs[u] + (t,) != (r,) + st[v]:
                    return _coassoc_witness(h, I, (R, S, T), c, [rs[u] + (t,)], [(r,) + st[v]])
            continue
        left, rs = splits(R.union(S), T), splits(R, S)
        right, st = splits(R, S.union(T)), splits(S, T)
        for c in range(len(left)):
            lhs = [(a, b, t) for u, t in left[c] for a, b in rs[u]]
            rhs = [(r, a, b) for r, v in right[c] for a, b in st[v]]
            if lhs != rhs and Counter(lhs) != Counter(rhs):
                return _coassoc_witness(h, I, (R, S, T), c, lhs, rhs)
    return None


def _coassoc_witness(h, I, parts, c, lhs, rhs):
    return {"decomposition": [list(p) for p in parts],
            "inputs": [str(h.basis.elements(I)[c])],
            "lhs": _printed(h.basis, parts, lhs), "rhs": _printed(h.basis, parts, rhs)}


def _cocomm_terms(h, I, decs):
    _, splits = _position_readers(h)
    for S, T in decs:
        st, ts = splits(S, T), splits(T, S)
        for c, z in enumerate(h.basis.elements(I)):
            lhs, rhs = list(st[c]), [(b, a) for a, b in ts[c]]
            if lhs != rhs and Counter(lhs) != Counter(rhs):
                return {"decomposition": [list(S), list(T)],
                        "inputs": [str(z)],
                        "lhs": _printed(h.basis, (S, T), lhs),
                        "rhs": _printed(h.basis, (S, T), rhs)}
    return None


def _counital_terms(h, I, decs):
    try:
        h.unit()
    except ValueError as exc:
        return {"error": str(exc)}
    _, splits = _position_readers(h)
    left, right = splits(EMPTY, I), splits(I, EMPTY)
    for c, z in enumerate(h.basis.elements(I)):
        if left[c] != ((0, c),) or right[c] != ((c, 0),):
            return {"inputs": [str(z)], "left": _printed(h.basis, (EMPTY, I), left[c]),
                    "right": _printed(h.basis, (I, EMPTY), right[c])}
    return None


def _hopf_terms(h, I, decs):
    # The twist of _hopf_compat: the bottom path multiplies the A-parts of x
    # and y together, then the B-parts.
    products, splits = _position_readers(h)
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
                                "top": _printed(h.basis, (S, Sp), top),
                                "bottom": _printed(h.basis, (S, Sp), bottom)}
    return None


def _delta_nabla_terms(h, I, decs):
    products, splits = _position_readers(h)
    el, dim = h.basis.elements, h.basis.dim
    for S, T in decs:
        dT, st, back = dim(T), products(S, T), splits(S, T)
        for a in range(dim(S)):
            for b in range(dT):
                got = [p for z in st[a * dT + b] for p in back[z]]
                if got != [(a, b)]:
                    return {"S": list(S), "T": list(T),
                            "inputs": [str(el(S)[a]), str(el(T)[b])],
                            "got": _printed(h.basis, (S, T), got)}
    return None


# The linear checkers, the kernels' reference: each builds its diagram's
# vectors, and runs only for n <= ORACLE_MAX_N.

def _assoc(h, I, decs):
    for R, S, T in decs:
        for x in h.basis.elements(R):
            for y in h.basis.elements(S):
                for z in h.basis.elements(T):
                    xy = _nabla_basis(h, R, S, x, y)
                    lhs = h.nabla(R.union(S), T, TensorVec.tensor(xy, Vec.basis(z)))
                    yz = _nabla_basis(h, S, T, y, z)
                    rhs = h.nabla(R, S.union(T), TensorVec.tensor(Vec.basis(x), yz))
                    if lhs != rhs:
                        return {"decomposition": [list(R), list(S), list(T)],
                                "inputs": [str(x), str(y), str(z)],
                                "lhs": str(lhs), "rhs": str(rhs)}
    return None


def _comm(h, I, decs):
    for S, T in decs:
        for x in h.basis.elements(S):
            for y in h.basis.elements(T):
                lhs = _nabla_basis(h, S, T, x, y)
                rhs = _nabla_basis(h, T, S, y, x)
                if lhs != rhs:
                    return {"decomposition": [list(S), list(T)],
                            "inputs": [str(x), str(y)],
                            "lhs": str(lhs), "rhs": str(rhs)}
    return None


def _unital(h, I, decs):
    try:
        u = h.unit()
    except ValueError as exc:
        return {"error": str(exc)}
    for x in h.basis.elements(I):
        left = _nabla_basis(h, EMPTY, I, u, x)
        right = _nabla_basis(h, I, EMPTY, x, u)
        if left != Vec.basis(x) or right != Vec.basis(x):
            return {"inputs": [str(x)], "left": str(left), "right": str(right)}
    return None


def _coassoc(h, I, decs):
    for R, S, T in decs:
        for z in h.basis.elements(I):
            t1 = _delta_basis(h, R.union(S), T, z)
            lhs = apply_delta_at(h, t1, 0, R, S)
            t2 = _delta_basis(h, R, S.union(T), z)
            rhs = apply_delta_at(h, t2, 1, S, T)
            if lhs != rhs:
                return {"decomposition": [list(R), list(S), list(T)],
                        "inputs": [str(z)], "lhs": str(lhs), "rhs": str(rhs)}
    return None


def _cocomm(h, I, decs):
    for S, T in decs:
        for z in h.basis.elements(I):
            lhs = _delta_basis(h, S, T, z)
            rhs = _delta_basis(h, T, S, z).twist((1, 0))
            if lhs != rhs:
                return {"decomposition": [list(S), list(T)],
                        "inputs": [str(z)], "lhs": str(lhs), "rhs": str(rhs)}
    return None


def _counital(h, I, decs):
    try:
        u = h.unit()
    except ValueError as exc:
        return {"error": str(exc)}
    for z in h.basis.elements(I):
        left = _delta_basis(h, EMPTY, I, z)
        right = _delta_basis(h, I, EMPTY, z)
        if left != TensorVec.basis((u, z)) or right != TensorVec.basis((z, u)):
            return {"inputs": [str(z)], "left": str(left), "right": str(right)}
    return None


def _hopf_compat(h, I, decs):
    # The bottom path twists (A, B, A', B') -> (A, A', B, B'); this is the
    # displayed convention, and _hopf_terms follows it.
    for R, Rp in decs:
        for S, Sp in decs:
            A, B = R.intersect(S), R.intersect(Sp)
            Ap, Bp = Rp.intersect(S), Rp.intersect(Sp)
            for x in h.basis.elements(R):
                dx = _delta_basis(h, A, B, x)
                for y in h.basis.elements(Rp):
                    top = h.delta(S, Sp, _nabla_basis(h, R, Rp, x, y))
                    dy = _delta_basis(h, Ap, Bp, y)
                    four = TensorVec.concat(dx, dy).twist((0, 2, 1, 3))
                    merged = apply_nabla_at(h, four, 0)   # (A u A', B, B')
                    bottom = apply_nabla_at(h, merged, 1)  # (A u A', B u B')
                    if top != bottom:
                        return {"R": list(R), "Rp": list(Rp), "S": list(S), "Sp": list(Sp),
                                "inputs": [str(x), str(y)],
                                "top": str(top), "bottom": str(bottom)}
    return None


# axiom -> (parts per decomposition, 0 for none; kernel; linear checker)
_AXIOM_ROUTES = {
    "associative": (3, _assoc_terms, _assoc),
    "commutative": (2, _comm_terms, _comm),
    "unital": (0, _unital_terms, _unital),
    "coassociative": (3, _coassoc_terms, _coassoc),
    "cocommutative": (2, _cocomm_terms, _cocomm),
    "counital": (0, _counital_terms, _counital),
    "hopf_compatible": (2, _hopf_terms, _hopf_compat),
}
AXIOMS = tuple(_AXIOM_ROUTES)


def check_delta_nabla_identity(h: LinearizedHopf, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """Delta_{S,T} o nabla_{S,T} = id on all basis tensors, checked like an axiom."""
    guard_max_n(max_n)
    return _check_diagram(h, "delta_nabla_identity", max_n, 2,
                          _delta_nabla_terms, _delta_nabla_linear)


def _delta_nabla_linear(h, I, decs):
    for S, T in decs:
        for x in h.basis.elements(S):
            for y in h.basis.elements(T):
                got = h.delta(S, T, _nabla_basis(h, S, T, x, y))
                if got != TensorVec.basis((x, y)):
                    return {"S": list(S), "T": list(T),
                            "inputs": [str(x), str(y)], "got": str(got)}
    return None


def check_naturality(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """The naturality squares of mu and pi under every endo-bijection sigma.

    mu and pi are read from their compiled tables, and each restricted
    transport sigma|S : S -> sigma(S) is tabulated once, so a square is a few
    lookups.  What the tables cannot certify goes to the exhaustive route, which finds
    the first failing square; up to n = TABLE_ORACLE_MAX_N it always runs,
    and wherever both routes run a split raises ``FatalInconsistency``.  A mu
    or pi result outside its component raises ``ValueError``, at every n.
    """
    guard_max_n(max_n)
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        certified = _natural_by_tables(entry, I)
        if certified and n > TABLE_ORACLE_MAX_N:
            continue
        witness = _naturality_exhaustive(entry, I)
        if certified != (witness is None):
            raise FatalInconsistency(
                f"table and exhaustive naturality checks disagree for {entry.key} at n={n}",
                witness={"tables_certify": certified, "exhaustive": witness})
        if witness is not None:
            return CheckReport("naturality", entry.key, n, "fail", witness)
    return CheckReport("naturality", entry.key, max_n, "pass")


def _natural_by_tables(entry: CatalogEntry, I: GroundSet) -> bool:
    """Whether every square over I holds on the index tables."""
    sp, mu, pi = entry.species, entry.mu, entry.pi
    moved: dict = {}

    def table(b: Bijection) -> list[int]:
        if b not in moved:
            moved[b] = _positions(sp, b.target, [sp.transport(b, x) for x in sp.elements(b.source)])
        return moved[b]

    decs = decompositions(I, 2)
    for sigma in Bijection.all_endo(I):
        p = table(sigma)
        for S, T in decs:
            rs, rt = sigma.restrict(S), sigma.restrict(T)
            ps, pt, Sp, Tp = table(rs), table(rt), rs.target, rt.target
            if mu is not None:
                mt, mp, width = mu.table(S, T), mu.table(Sp, Tp), sp.dim(Tp)
                if [p[k] for k in mt] != [mp[a * width + b] for a in ps for b in pt]:
                    return False
            if pi is not None:
                pp = pi.table(Sp, Tp)
                if [(ps[a], pt[b]) for a, b in pi.table(S, T)] != [pp[k] for k in p]:
                    return False
    return True


def _naturality_exhaustive(entry: CatalogEntry, I: GroundSet) -> Optional[dict]:
    """The first failing square over I, every map evaluated on elements."""
    sp = entry.species
    for sigma in Bijection.all_endo(I):
        for S, T in decompositions(I, 2):
            Sp, Tp = sigma.image_of(S), sigma.image_of(T)
            rs, rt = sigma.restrict(S), sigma.restrict(T)
            if entry.mu is not None:
                for x in sp.elements(S):
                    for y in sp.elements(T):
                        lhs = sp.transport(sigma, entry.mu(S, T, x, y))
                        rhs = entry.mu(Sp, Tp, sp.transport(rs, x), sp.transport(rt, y))
                        if lhs != rhs:
                            return {"system": "mu", "sigma": list(sigma.images),
                                    "S": list(S), "T": list(T),
                                    "inputs": [str(x), str(y)],
                                    "lhs": str(lhs), "rhs": str(rhs)}
            if entry.pi is not None:
                for z in sp.elements(I):
                    za, zb = entry.pi(S, T, z)
                    lhs2 = (sp.transport(rs, za), sp.transport(rt, zb))
                    rhs2 = entry.pi(Sp, Tp, sp.transport(sigma, z))
                    if lhs2 != rhs2:
                        return {"system": "pi", "sigma": list(sigma.images),
                                "S": list(S), "T": list(T), "input": str(z)}
    return None


# ---------------------------------------------------------------------------
# Hopf self-compatibility, two ways

def check_self_compatible(mu: MultSystem, mode: str = "both",
                          max_n: int = DEFAULT_MAX_N,
                          species_key: str | None = None) -> CheckReport:
    """Is (nabla^mu, Delta^mu) a Hopf-compatible pair?

    ``direct`` checks the exchange diagram itself; ``local`` checks the three
    conditions that characterize it (commutative, injective, and closure of
    images under common refinements).  ``both`` runs the two and raises
    ``FatalInconsistency`` if they ever disagree, because their equivalence
    is a theorem that desk-scale computation cannot contradict.
    """
    guard_max_n(max_n)
    key = species_key or mu.species.name
    pre = _selfcompat_precondition(mu, max_n)
    if pre is not None:
        return CheckReport("self_compatible", key, max_n, "skip",
                           {"precondition": pre})
    if mode not in ("direct", "local", "both"):
        raise ValueError("mode must be direct, local, or both")
    direct = local = None
    if mode in ("direct", "both"):
        direct = _selfcompat_direct(mu, max_n)
    if mode in ("local", "both"):
        local = _selfcompat_local(mu, max_n)
    if mode == "direct":
        ok, witness = direct
    elif mode == "local":
        ok, witness = local
    else:
        if direct[0] != local[0]:
            raise FatalInconsistency(
                f"self-compatibility modes disagree for {key}: "
                f"direct={direct[0]} local={local[0]}",
                witness={"direct": direct[1], "local": local[1]})
        ok, witness = direct[0], (direct[1] or local[1])
        if witness is not None and local[1] is not None:
            witness = {"direct": direct[1], "local": local[1]}
    return CheckReport(f"self_compatible[{mode}]", key, max_n,
                       "pass" if ok else "fail", witness)


def _mu_mu(mu: MultSystem) -> LinearizedHopf:
    """(nabla^mu, Delta^mu) on mu's own species."""
    return hopf_from(CatalogEntry(mu.species.name, mu.species, mu, None), "mu", "mu")


def _selfcompat_precondition(mu: MultSystem, max_n: int) -> Optional[dict]:
    h = _mu_mu(mu)
    for axiom in ("associative", "unital"):
        rep = check_axiom(h, axiom, max_n)
        if not rep.ok:
            return {"axiom": axiom, "witness": rep.witness}
    return None


def _selfcompat_direct(mu: MultSystem, max_n: int):
    rep = check_axiom(_mu_mu(mu), "hopf_compatible", max_n)
    return rep.ok, None if rep.ok else {"mode": "direct", "n": rep.n, **rep.witness}


def _selfcompat_local(mu: MultSystem, max_n: int):
    """The three local conditions on positions of the compiled mu tables, with
    the element route as the oracle for n <= ORACLE_MAX_N."""
    rep = _check_diagram(_mu_mu(mu), "self_compatible[local]", max_n, 2,
                         _local_terms, _local_elements)
    return rep.ok, rep.witness


def _local_terms(h, I, decs):
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


def _local_elements(h, I, decs):
    mu, sp, n = h.product, h.basis, len(I)
    for S, T in decs:
        seen = {}
        for x in sp.elements(S):
            for y in sp.elements(T):
                z = mu(S, T, x, y)
                zz = mu(T, S, y, x)
                if z != zz:
                    return {"mode": "local", "condition": "commutative", "n": n,
                            "inputs": [str(x), str(y)],
                            "lhs": str(z), "rhs": str(zz)}
                if z in seen:
                    return {"mode": "local", "condition": "injective", "n": n,
                            "collision": [list(map(str, seen[z])), [str(x), str(y)]],
                            "value": str(z)}
                seen[z] = (x, y)
    for S, Sp in decs:
        for A, B in decs:
            image = mu.image(A, B)
            img_s = mu.image(A.intersect(S), B.intersect(S))
            img_sp = mu.image(A.intersect(Sp), B.intersect(Sp))
            for lam in sp.elements(S):
                for lam2 in sp.elements(Sp):
                    if mu(S, Sp, lam, lam2) not in image:
                        continue
                    if lam not in img_s or lam2 not in img_sp:
                        return {"mode": "local", "condition": "image", "n": n,
                                "S": list(S), "Sp": list(Sp), "A": list(A), "B": list(B),
                                "inputs": [str(lam), str(lam2)]}
    return None


# ---------------------------------------------------------------------------
# structure constants, free self-duality, the invariant form

@dataclass
class StructureConstants:
    """Product and coproduct tables over one decomposition (S, T)."""

    S: GroundSet
    T: GroundSet
    product: dict      # (x, y, z) -> 1
    coproduct: dict    # (x, y, z) -> 1


def product_table(h: LinearizedHopf, S: GroundSet, T: GroundSet) -> dict:
    return {(x, y, z): 1 for x in h.basis.elements(S) for y in h.basis.elements(T)
            for z in h.products(S, T, x, y)}


def coproduct_table(h: LinearizedHopf, S: GroundSet, T: GroundSet) -> dict:
    return {(x, y, z): 1 for z in h.basis.elements(S.union(T))
            for x, y in h.splits(S, T, z)}


def structure_constants(h: LinearizedHopf, S: GroundSet, T: GroundSet) -> StructureConstants:
    return StructureConstants(S, T, product_table(h, S, T), coproduct_table(h, S, T))


def check_fsd(h: LinearizedHopf, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """Free self-duality: the product and coproduct tables coincide.

    Requires Hopf compatibility first (self-duality is a property of Hopf
    monoids), then runs two routes that must agree: direct table comparison,
    and invariance of the basis pairing <nabla x, y> = <x, Delta y>.
    """
    guard_max_n(max_n)
    rep = check_axiom(h, "hopf_compatible", max_n)
    if not rep.ok:
        return CheckReport("fsd", h.name, rep.n, "fail",
                           {"reason": "not hopf compatible", **rep.witness})
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        for S, T in decompositions(I, 2):
            sc = structure_constants(h, S, T)
            by_tables = sc.product == sc.coproduct
            mismatch = None
            zs = [(z, Vec.basis(z)) for z in h.basis.elements(I)]
            deltas = [h.delta(S, T, bz) for _, bz in zs]
            for x, y in itertools.product(h.basis.elements(S), h.basis.elements(T)):
                tv = TensorVec.basis((x, y))
                left = h.nabla(S, T, tv)
                for (z, bz), dz in zip(zs, deltas):
                    lhs, rhs = vec_dot(left, bz), tensor_dot(tv, dz)
                    if lhs != rhs:
                        mismatch = {"S": list(S), "T": list(T),
                                    "x": str(x), "y": str(y), "z": str(z),
                                    "form_left": str(lhs), "form_right": str(rhs)}
                        break
                if mismatch:
                    break
            by_form = mismatch is None
            if by_tables != by_form:
                raise FatalInconsistency(
                    f"FSD routes disagree for {h.name} on ({S},{T})",
                    witness={"tables": by_tables, "form": by_form})
            if not by_tables:
                keys = set(sc.product) ^ set(sc.coproduct)
                sample = next(iter(sorted(
                    keys or {k for k in sc.product if sc.product[k] != sc.coproduct.get(k)},
                    key=lambda k: (k[0].sort_key(), k[1].sort_key(), k[2].sort_key()))))
                return CheckReport(
                    "fsd", h.name, n, "fail",
                    {"S": list(S), "T": list(T),
                     "entry": [str(sample[0]), str(sample[1]), str(sample[2])],
                     "product_constant": str(sc.product.get(sample, 0)),
                     "coproduct_constant": str(sc.coproduct.get(sample, 0)),
                     "form_mismatch": mismatch})
    return CheckReport("fsd", h.name, max_n, "pass")


def check_ssd_conditions(h: LinearizedHopf, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """The elementary characterization of strong self-duality in this basis:
    (a) basis elements multiply to single basis elements, and (b) every basis
    element is a basis product or is killed by the coproduct.

    For a Hopf-compatible triple this is equivalent to self-duality with a
    linearized product, so the outcome is cross-checked against the
    structure-constant route; a split verdict is fatal.
    """
    guard_max_n(max_n)
    witness_a = witness_b = None
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        for S, T in decompositions(I, 2):
            reached = set()
            for x in h.basis.elements(S):
                for y in h.basis.elements(T):
                    zs = h.products(S, T, x, y)
                    if len(zs) != 1:
                        witness_a = witness_a or {
                            "condition": "a", "S": list(S), "T": list(T),
                            "inputs": [str(x), str(y)],
                            "product": str(_nabla_basis(h, S, T, x, y))}
                    else:
                        reached.add(zs[0])
            for z in h.basis.elements(I):
                if z not in reached and h.splits(S, T, z):
                    witness_b = witness_b or {
                        "condition": "b", "S": list(S), "T": list(T),
                        "element": str(z)}
    ok = witness_a is None and witness_b is None
    if witness_a is None and check_axiom(h, "hopf_compatible", max_n).ok:
        # with a linearized product on a Hopf triple, (b) must match FSD
        fsd_ok = check_fsd(h, max_n).ok
        if (witness_b is None) != fsd_ok:
            raise FatalInconsistency(
                f"SSD characterizations disagree for {h.name}",
                witness={"conditions": witness_b is None, "fsd": fsd_ok,
                         "witness": witness_b})
    return CheckReport("ssd_conditions", h.name, max_n,
                       "pass" if ok else "fail", witness_a or witness_b)


# ---------------------------------------------------------------------------
# Takeuchi's antipode

def takeuchi_antipode(h: LinearizedHopf, I: GroundSet, v: Vec) -> Vec:
    """The alternating sum over ordered decompositions into nonempty parts."""
    if v.ground != I:
        raise ValueError("vector does not live over I")
    if len(I) == 0:
        return v
    out = Vec.zero(I)
    for parts in nonempty_compositions(I):
        sign = -1 if len(parts) % 2 else 1
        for z, c in v.terms.items():
            w = iterate_nabla(h, parts, iterate_delta(h, parts, Vec.basis(z)))
            out = out + w.scale(c * sign)
    return out


def antipode_table(h: LinearizedHopf, I: GroundSet) -> dict:
    return {z: takeuchi_antipode(h, I, Vec.basis(z)) for z in h.basis.elements(I)}


def check_antipode_convolution(h: LinearizedHopf, max_n: int = 3) -> CheckReport:
    """nabla o (S (x) id) o Delta summed over decompositions is unit o counit."""
    guard_max_n(max_n)
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        cache = {}
        for lam in h.basis.elements(I):
            total = Vec.zero(I)
            for S, T in decompositions(I, 2):
                if S not in cache:
                    cache[S] = antipode_table(h, S)
                split = _delta_basis(h, S, T, lam)
                for (a, b), c in split.terms.items():
                    sa = cache[S][a]
                    total = total + h.nabla(S, T, TensorVec.tensor(sa, Vec.basis(b))).scale(c)
            want = Vec.basis(lam) if n == 0 else Vec.zero(I)
            if total != want:
                return CheckReport("antipode_convolution", h.name, n, "fail",
                                   {"input": str(lam), "got": str(total)})
    return CheckReport("antipode_convolution", h.name, max_n, "pass")


# ---------------------------------------------------------------------------
# duality by transposition

def dual_transpose(h: LinearizedHopf) -> LinearizedHopf:
    """The Hopf structure whose product constants are h's coproduct constants
    transposed, and vice versa."""
    return LinearizedHopf(f"dual({h.name})", h.basis, h.coproduct, h.product)


def check_dual_tables(h: LinearizedHopf, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """The dual's tables equal the original's with the roles exchanged."""
    guard_max_n(max_n)
    hd = dual_transpose(h)
    for n in range(max_n + 1):
        I = GroundSet.first(n)
        for S, T in decompositions(I, 2):
            if (product_table(hd, S, T) != coproduct_table(h, S, T)
                    or coproduct_table(hd, S, T) != product_table(h, S, T)):
                return CheckReport("dual_tables", h.name, n, "fail",
                                   {"S": list(S), "T": list(T)})
    return CheckReport("dual_tables", h.name, max_n, "pass")


# ---------------------------------------------------------------------------
# the product-coproduct rectangle over two decompositions

# With one part, mu.fold returns its element and pi.fold returns (z,), so
# both sides of the rectangle are the same expression: only 2..3 parts are
# compared.
RECTANGLE_PARTS = (2, 3)


def check_preorder_rectangle(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """mu-then-pi over crossed decompositions equals per-part pi, twist,
    per-part mu; the set-level rectangle behind transitivity of the order.

    Compared on positions of the compiled mu and pi tables, with the element
    route as the oracle for n <= ORACLE_MAX_N (``FatalInconsistency`` on a
    split); a mu or pi result outside its component raises ``ValueError``."""
    guard_max_n(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("preorder_rectangle", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    h = LinearizedHopf(entry.key, entry.species, entry.mu, entry.pi)
    return _check_diagram(h, "preorder_rectangle", max_n, 0,
                          _rectangle_terms, _rectangle_elements)


def _rectangle_terms(h, I, decs):
    mu, pi, el, dim = h.product, h.coproduct, h.basis.elements, h.basis.dim

    @functools.cache
    def mu_steps(parts):
        """mu.fold over ``parts`` as (table, width) lookups after the first part."""
        steps, ground = [], parts[0]
        for part in parts[1:]:
            steps.append((mu.table(ground, part), dim(part)))
            ground = ground.union(part)
        return steps

    @functools.cache
    def pi_folds(parts):
        """pi.fold over ``parts`` of every position of P[union], as position tuples."""
        rest, tables = union_all(parts), []
        size = dim(rest)
        for part in parts[:-1]:
            rest = rest.minus(part)
            tables.append(pi.table(part, rest))
        folds = []
        for c in range(size):
            xs, r = [], c
            for table in tables:  # peel the next part off the rest
                x, r = table[r]
                xs.append(x)
            folds.append((*xs, r))
        return folds

    def fold(steps, xs):
        acc = xs[0]
        for (table, width), x in zip(steps, xs[1:]):
            acc = table[acc * width + x]
        return acc

    for k in RECTANGLE_PARTS:
        rdecs = decompositions(I, k)
        for l in RECTANGLE_PARTS:
            sdecs = decompositions(I, l)
            for rparts in rdecs:
                plans = []
                for sparts in sdecs:
                    grid = [tuple(R.intersect(Sj) for Sj in sparts) for R in rparts]
                    plans.append((sparts, pi_folds(sparts), [pi_folds(row) for row in grid],
                                  [mu_steps(col) for col in zip(*grid)]))
                steps = mu_steps(rparts)
                for xs in itertools.product(*(range(dim(R)) for R in rparts)):
                    lam = fold(steps, xs)
                    for sparts, lhs_of, cells_of, cols in plans:
                        lhs = lhs_of[lam]
                        cells = [of[x] for of, x in zip(cells_of, xs)]
                        rhs = tuple(fold(col, row) for col, row in zip(cols, zip(*cells)))
                        if lhs != rhs:
                            return {"R_parts": [list(R) for R in rparts],
                                    "S_parts": [list(S) for S in sparts],
                                    "inputs": [str(el(R)[x]) for R, x in zip(rparts, xs)],
                                    "lhs": [str(el(S)[p]) for S, p in zip(sparts, lhs)],
                                    "rhs": [str(el(S)[p]) for S, p in zip(sparts, rhs)]}
    return None


def _rectangle_elements(h, I, decs):
    mu, pi, sp = h.product, h.coproduct, h.basis
    for k in RECTANGLE_PARTS:
        rdecs = decompositions(I, k)
        for l in RECTANGLE_PARTS:
            sdecs = decompositions(I, l)
            for rparts in rdecs:
                pools = [sp.elements(R) for R in rparts]
                for xs in itertools.product(*pools):
                    lam = mu.fold(rparts, xs)
                    for sparts in sdecs:
                        lhs = pi.fold(sparts, lam)
                        cells = [pi.fold(tuple(R.intersect(Sj) for Sj in sparts), x)
                                 for R, x in zip(rparts, xs)]
                        rhs = tuple(
                            mu.fold(tuple(R.intersect(Sj) for R in rparts),
                                    tuple(cells[i][j] for i in range(k)))
                            for j, Sj in enumerate(sparts))
                        if tuple(lhs) != rhs:
                            return {"R_parts": [list(R) for R in rparts],
                                    "S_parts": [list(S) for S in sparts],
                                    "inputs": [str(x) for x in xs],
                                    "lhs": [str(e) for e in lhs],
                                    "rhs": [str(e) for e in rhs]}
    return None
