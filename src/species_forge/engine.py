"""Linearized Hopf structures and exhaustive desk-scale verification.

Linearizes a multiplicative system mu and a comultiplicative system pi on a
species basis: a ``LinearizedHopf`` holds the system its product comes from
and the one its coproduct comes from, and reads the four (co)products'
structure constants, each 0 or 1, straight from mu, pi and their fibers.
Checks every axiom by brute force over all decompositions of {1..n}:
(co)associativity, (co)commutativity and (co)unitality on the compiled table
of the one system their side reads, Hopf compatibility as multisets of basis
positions (the linear route, on elements, is the oracle for n <= 2 and the
witness finder of the one-sided axioms);
Hopf self-compatibility (two independent routes that must agree; the local
one compares positions of the mu tables), structure constants, free
self-duality (product and coproduct constants compared on positions),
Takeuchi's antipode, duality by transposition (which swaps the systems), and
the preorder rectangle, decided by the Hopf kernel of (nabla^mu, Delta^pi)
over every subset of {1..n}.  The local route, free self-duality and the
rectangle keep their element routes as the oracle for n <= 2.

A check that contradicts a theorem that is supposed to hold at desk scale
raises ``FatalInconsistency``: that always means an implementation bug, and
continuing would poison everything downstream.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Optional

from .catalog import CatalogEntry, ComultSystem, MultSystem
from .core import (
    EMPTY, TABLE_ORACLE_MAX_N, Bijection, CheckReport, Element, FatalInconsistency,
    GroundSet, SetSpecies, TensorVec, Vec, _check_disjoint, _check_grounds, _check_keys,
    cross_check, decompositions, derived_tensor, derived_vec, grounds, nonempty_compositions,
    union_all,
)

DEFAULT_MAX_N = 4


# ---------------------------------------------------------------------------
# the linearized (co)products
#
# A product is a MultSystem (nabla^mu sends x (x) y to mu(x, y)) or a
# ComultSystem (nabla^pi sends it to the sum of the pi-fiber of (x, y)).  A
# coproduct is a ComultSystem (Delta^pi sends z to pi(z)) or a MultSystem
# (Delta^mu sends it to the sum of the mu-fiber of z).  So every structure
# constant is 0 or 1, and the two readers return the basis terms that carry
# a 1.

class LinearizedHopf:
    """A species basis with the systems its product and coproduct linearize."""

    def __init__(self, name: str, basis: SetSpecies, product: MultSystem | ComultSystem,
                 coproduct: ComultSystem | MultSystem):
        self.name = name
        self.basis = basis
        self.product = product
        self.coproduct = coproduct
        self._readers = None  # _position_readers, built at first use and kept

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
        if t.parts != (S, T):
            raise ValueError("tensor parts do not match (S, T)")
        acc: dict = {}
        for (x, y), c in t.terms.items():
            for z in self.products(S, T, x, y):
                acc[z] = acc.get(z, 0) + c
        return derived_vec(S.union(T), acc)

    def delta(self, S: GroundSet, T: GroundSet, v: Vec) -> TensorVec:
        if v.ground is not S.union(T):
            raise ValueError("vector ground does not match S u T")
        acc: dict = {}
        for z, c in v.terms.items():
            for pair in self.splits(S, T, z):
                acc[pair] = acc.get(pair, 0) + c
        return derived_tensor((S, T), acc, (0, 1))


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
    acc: dict = {}
    for z in h.products(S, T, x, y):
        acc[z] = acc.get(z, 0) + 1
    return derived_vec(S.union(T), acc)


def _delta_basis(h: LinearizedHopf, S: GroundSet, T: GroundSet, z: Element) -> TensorVec:
    """Delta_{S,T}(z) as a tensor."""
    return TensorVec((S, T), _split_terms(h, S, T, z), _trusted=True)


# The terms of Delta_{S,T}(z), checked as derived_tensor checks them; each
# coefficient counts a rule result, so none is zero.

def _split_terms(h: LinearizedHopf, S: GroundSet, T: GroundSet, z: Element) -> dict:
    acc: dict = {}
    for pair in h.splits(S, T, z):
        pair = tuple(pair)
        acc[pair] = acc.get(pair, 0) + 1
    _check_disjoint(S.labels, T.labels)
    _check_keys((S, T), acc, (0, 1))
    return acc


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
    return derived_tensor(parts, acc, (pos,))


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
    return derived_tensor(parts, acc, (pos, pos + 1))


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
# Each one-sided axiom is decided on the compiled table of the one system its
# side reads (``_reading``): ``_mu_associative``, ..., ``_pi_counital`` compare
# two maps on integers and return None (holds over I) or False (fails), never
# a witness.  Hopf compatibility mixes the two sides, so ``_hopf_terms``
# compares its diagram as multisets of basis positions for all four variants
# (every constant is 0 or 1, so nothing cancels), as lists first, counted only
# when they differ.  ``_check_diagram`` hands a kernel and its linear checker,
# which builds the vectors from mu, pi and their fibers, to
# ``core.cross_check``: the checker runs up to ORACLE_MAX_N and wherever the
# kernel returns False, so it names every one-sided witness.
#
# The (co)associativity and Hopf kernels, and the local self-compatibility
# conditions, first decide the unit and counit they rely on over every subset
# of I, by the "unital" and "counital" kernels (``_nonempty_blocks``).  Where
# these hold, an instance with an empty block holds too (each kernel's
# docstring has the proof), so the kernel compares only the decompositions
# into nonempty blocks; elsewhere it walks them all.  The first failing
# instance is the same either way, and every table the walk over all of decs
# reads is still compiled, so a result outside its component raises at every
# n.  The oracles walk every decomposition.

# Up to this n the linear checker (or, for the local self-compatibility
# conditions and the rectangle, the element route) also runs beside the
# kernel, and a split in verdict or witness is fatal.
ORACLE_MAX_N = 2


def check_axiom(h: LinearizedHopf, axiom: str, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """Exhaustively verify one defining diagram over every {1..n}, n <= max_n.

    The witness, when present, is the first (hence size-minimal) failing
    instance in the fixed enumeration order.  The kernel compares positions
    of the compiled tables, with the linear checker as an oracle for
    n <= ORACLE_MAX_N (``FatalInconsistency`` on a split) and as the witness
    finder where the kernel names none.  A mu or pi result outside its
    component raises ``ValueError``, at every n.
    """
    Is = grounds(max_n)
    route = _AXIOM_ROUTES.get(axiom)
    if route is None:
        raise ValueError(f"unknown axiom {axiom!r}; one of {AXIOMS}")
    return _check_diagram(h, axiom, Is, *route)


def _check_diagram(h: LinearizedHopf, name: str, Is: list[GroundSet], parts: int,
                   kernel, oracle) -> CheckReport:
    # one decompositions(I, parts) call per n, shared by both routes: a traced
    # check_axiom must see sum_{m<=n} 3^m triples from decompositions(I, 3)
    decs = functools.cache(lambda I: decompositions(I, parts) if parts else ())
    return cross_check(name, h.name, Is,
                       lambda I: kernel(h, I, decs(I)), lambda I: oracle(h, I, decs(I)),
                       ORACLE_MAX_N)


def _nonempty_blocks(decs, structure, *units):
    """``decs`` narrowed to its decompositions into nonempty blocks once each
    of ``units``, the kernel of a unit or counit axiom, holds for
    ``structure`` over every subset X of I; otherwise ``decs`` itself.

    Every X is the first block of a decomposition in decs (I - X is the
    second), so the subsets come from decs and no enumeration is added.  A
    unit kernel compiles the tables it reads, over every X, before the walk."""
    subsets = dict.fromkeys(d[0] for d in decs)
    if all(unit(structure, X, ()) is None for unit in units for X in subsets):
        return [d for d in decs if EMPTY not in d]
    return decs


def _mu_associative(mu, I, decs):
    """mu is associative over every triple (R, S, T) of decs.

    A triple with an empty block holds once mu is unital over every subset
    of I (``_mu_unital``), with e the unit: for R empty both sides are
    mu_{S,T}(y, z), since mu(e, y) = y and mu(e, mu(y, z)) = mu(y, z); for S
    empty both are mu_{R,T}(x, z), and for T empty both are mu_{R,S}(x, y).
    So only the triples of nonempty blocks are compared.  The tables of I's
    splits (R, T), which no such triple reads at n = 2, are compiled first,
    so every table of the walk over all of decs is compiled and a result
    outside its component raises ``ValueError`` at every n."""
    for R, S, T in decs:
        if S is EMPTY:
            mu.table(R, T)
    dim = mu.species.dim
    for R, S, T in _nonempty_blocks(decs, mu, _mu_unital):
        rs, st = mu.table(R, S), mu.table(S, T)
        left, right = mu.table(R.union(S), T), mu.table(R, S.union(T))
        dT, dST = dim(T), dim(S.union(T))
        if ([left[u * dT + c] for u in rs for c in range(dT)]
                != [right[a * dST + v] for a in range(dim(R)) for v in st]):
            return False
    return None


def _mu_commutative(mu, I, decs):
    dim = mu.species.dim
    for S, T in decs:
        dS, dT, st, ts = dim(S), dim(T), mu.table(S, T), mu.table(T, S)
        if st != [ts[b * dS + a] for a in range(dS) for b in range(dT)]:
            return False
    return None


def _mu_unital(mu, I, decs):
    # the unit is the one element of P[empty], at position 0
    if mu.species.dim(EMPTY) != 1:
        return False
    left, right = mu.table(EMPTY, I), mu.table(I, EMPTY)
    return None if left == list(range(mu.species.dim(I))) == right else False


def _pi_coassociative(pi, I, decs):
    """pi is coassociative over every triple (R, S, T) of decs.

    A triple with an empty block holds once pi is counital over every subset
    of I (``_pi_counital``), with e the counit's element: for R empty both
    sides are (e,) + pi_{S,T}(z), since pi(u) = (e, u) over (empty, S) and
    pi(z) = (e, z) over (empty, S u T); for S empty both are pi_{R,T}(z)
    with e between its parts, and for T empty both are pi_{R,S}(z) + (e,).
    So only the triples of nonempty blocks are compared, after the tables of
    I's splits are compiled, as in ``_mu_associative``."""
    for R, S, T in decs:
        if S is EMPTY:
            pi.table(R, T)
    for R, S, T in _nonempty_blocks(decs, pi, _pi_counital):
        left, rs = pi.table(R.union(S), T), pi.table(R, S)
        right, st = pi.table(R, S.union(T)), pi.table(S, T)
        if [rs[u] + (t,) for u, t in left] != [(r,) + st[v] for r, v in right]:
            return False
    return None


def _pi_cocommutative(pi, I, decs):
    for S, T in decs:
        if pi.table(S, T) != [(a, b) for b, a in pi.table(T, S)]:
            return False
    return None


def _pi_counital(pi, I, decs):
    if pi.species.dim(EMPTY) != 1:
        return False
    left, right, d = pi.table(EMPTY, I), pi.table(I, EMPTY), pi.species.dim(I)
    return None if (left == [(0, c) for c in range(d)]
                    and right == [(c, 0) for c in range(d)]) else False


def _position_readers(h: LinearizedHopf):
    """``products(S, T)`` and ``splits(S, T)`` for ``_hopf_terms``,
    ``_delta_nabla_terms`` and ``_fsd_terms``, each built once per (S, T) and
    kept on h at first use, so every check of one triple shares them:
    entry a * dim(T) + b of the first holds the terms of nabla_{S,T}(x_a (x)
    y_b) as positions in P[S u T], entry c of the second the terms of
    Delta_{S,T}(z_c) as pairs of positions in P[S] and P[T].  nabla^mu and
    Delta^pi read their system's table; nabla^pi and Delta^mu invert the other
    system's table, which keeps each fiber in the species' element order."""
    if h._readers is not None:
        return h._readers
    # nothing below refers to h, so h is freed without a cyclic collection
    dim, product, coproduct = h.basis.dim, h.product, h.coproduct

    @functools.cache
    def products(S, T):
        if isinstance(product, MultSystem):
            return [(c,) for c in product.table(S, T)]
        width, fibers = dim(T), [[] for _ in range(dim(S) * dim(T))]
        for c, (a, b) in enumerate(product.table(S, T)):
            fibers[a * width + b].append(c)
        return list(map(tuple, fibers))

    @functools.cache
    def splits(S, T):
        if isinstance(coproduct, ComultSystem):
            return [(p,) for p in coproduct.table(S, T)]
        width, fibers = dim(T), [[] for _ in range(dim(S.union(T)))]
        for k, c in enumerate(coproduct.table(S, T)):
            fibers[c].append(divmod(k, width))
        return list(map(tuple, fibers))

    h._readers = products, splits
    return h._readers


def _printed(sp: SetSpecies, over, terms) -> str:
    """The sum of the position ``terms`` as a Vec over one ground set or a
    TensorVec over parts."""
    if isinstance(over, GroundSet):
        el = sp.elements(over)
        return str(Vec(over, Counter(el[w] for w in terms)))
    els = [sp.elements(part) for part in over]
    return str(TensorVec(over, Counter(tuple(e[k] for e, k in zip(els, key)) for key in terms)))


def _hopf_terms(h, I, decs):
    """The exchange diagram of h over every pair of decompositions (R, R'),
    (S, S') of decs, compared on positions, with the twist of
    ``_hopf_compat``: the bottom path multiplies the A-parts of x and y
    together, then the B-parts.

    An instance with an empty block holds once nabla is unital and Delta
    counital over every subset of I (the ``unital`` and ``counital``
    kernels), with e the unit: for R empty, x = e and both sides are
    Delta_{S,S'}(y), by nabla(e (x) y) = y and Delta_{empty,empty}(e) = e (x)
    e; for S empty both are e (x) nabla_{R,R'}(x (x) y), by Delta_{empty,X}(z)
    = e (x) z and nabla(e (x) e) = e; R' or S' empty is the mirror image.
    So only the instances of nonempty blocks are compared.  Every table the
    walk over all of decs reads is still compiled: the pairs with an empty
    block by the (co)unit kernels, the others by the nonempty instances."""
    products, splits = _position_readers(h)
    el, dim = h.basis.elements, h.basis.dim
    decs = _nonempty_blocks(decs, h, _AXIOM_ROUTES["unital"][1], _AXIOM_ROUTES["counital"][1])
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


# The linear checkers, the kernels' reference, run only for n <= ORACLE_MAX_N.
# _assoc, _unital and _hopf_compat, which run on every control system, list
# each side of an instance as the rule results it sums (every constant is 0 or
# 1, so nothing cancels), compare the lists and count them only when they
# differ, as _hopf_terms does.  Rule results are ground-checked where they
# come in; a Vec or TensorVec is built only for a witness, from the counts.
# The others, run only on catalog entries (about 1 ms a row), use the public
# linear maps.

def _assoc(h, I, decs):
    # Each memo is filled on first use, so the rules are called in the same
    # order as without it, and a rule that raises raises at the same instance.
    # The sides are nabla(xy (x) z) and nabla(x (x) yz), in TensorVec.tensor's
    # order, without building them.
    for R, S, T in decs:
        RS, ST, yzs = R.union(S), S.union(T), {}
        RST = RS.union(T)
        for x in h.basis.elements(R):
            for b, y in enumerate(h.basis.elements(S)):
                xy = None
                for c, z in enumerate(h.basis.elements(T)):
                    if xy is None:
                        xy = h.products(R, S, x, y)
                        _check_grounds(RS, xy)
                    lhs = [e for w in xy for e in h.products(RS, T, w, z)]
                    _check_grounds(RST, lhs)
                    if (b, c) not in yzs:
                        yzs[b, c] = h.products(S, T, y, z)
                        _check_grounds(ST, yzs[b, c])
                    rhs = [e for w in yzs[b, c] for e in h.products(R, ST, x, w)]
                    if lhs != rhs and Counter(lhs) != Counter(rhs):
                        return {"decomposition": [list(R), list(S), list(T)],
                                "inputs": [str(x), str(y), str(z)],
                                "lhs": str(derived_vec(RST, Counter(lhs))),
                                "rhs": str(derived_vec(RST, Counter(rhs)))}
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
        left = h.products(EMPTY, I, u, x)
        _check_grounds(I, left)
        right = h.products(I, EMPTY, x, u)
        _check_grounds(I, right)
        if left != (x,) or right != (x,):
            return {"inputs": [str(x)], "left": str(derived_vec(I, Counter(left))),
                    "right": str(derived_vec(I, Counter(right)))}
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
    # displayed convention, and _hopf_terms follows it.  The bottom multiplies
    # the A-parts of dx (x) dy, in twisted order, into merged terms keyed
    # (e, v, v'), then the B-parts once per key, repeated by its count
    # (positive, so none cancel); the memos are filled on first use, and the
    # rule results checked, as in _assoc.
    for R, Rp in decs:
        xys = {}
        for S, Sp in decs:
            A, B = R.intersect(S), R.intersect(Sp)
            Ap, Bp = Rp.intersect(S), Rp.intersect(Sp)
            dys = {}
            for a, x in enumerate(h.basis.elements(R)):
                dx = _split_terms(h, A, B, x).items()
                for b, y in enumerate(h.basis.elements(Rp)):
                    if (a, b) not in xys:
                        xys[a, b] = h.products(R, Rp, x, y)
                        _check_grounds(R.union(Rp), xys[a, b])
                    top = [p for z in xys[a, b] for p in h.splits(S, Sp, z)]
                    _check_keys((S, Sp), top, (0, 1))
                    if b not in dys:
                        dys[b] = _split_terms(h, Ap, Bp, y).items()
                    merged: dict = {}
                    for (u, v), c in dx:
                        for (up, vp), cp in dys[b]:
                            for e in h.products(A, Ap, u, up):
                                k = (e, v, vp)
                                merged[k] = merged.get(k, 0) + c * cp
                    _check_keys((S, B, Bp), merged, (0,))     # (A u A', B, B')
                    bottom = []
                    for (e, v, vp), c in merged.items():
                        for f in h.products(B, Bp, v, vp):
                            bottom += [(e, f)] * c
                    if top != bottom and Counter(top) != Counter(bottom):
                        return {"R": list(R), "Rp": list(Rp), "S": list(S), "Sp": list(Sp),
                                "inputs": [str(x), str(y)],
                                "top": str(derived_tensor((S, Sp), Counter(top), (0, 1))),
                                "bottom": str(derived_tensor((S, Sp), Counter(bottom), (1,)))}
    return None


def _reading(side: str, mu_kernel, pi_kernel):
    """The kernel of a one-sided axiom on h's ``side`` (``product`` or
    ``coproduct``) alone: ``mu_kernel`` on a MultSystem, ``pi_kernel`` on a
    ComultSystem.

    nabla^mu and Delta^pi are the graphs of the maps mu and pi, and nabla^pi
    and Delta^mu those graphs transposed: z is a term of nabla^pi(x (x) y) iff
    pi(z) = (x, y).  So both sides of a one-sided diagram count the same
    tuples from opposite ends, each count 0 or 1 since mu and pi are maps, and
    the axiom is the matching one of the set-level monoid mu or comonoid pi:
    nabla^pi is associative iff pi is coassociative, Delta^mu coassociative
    iff mu is associative, and likewise for (co)commutativity and
    (co)unitality."""
    def kernel(h, I, decs):
        system = getattr(h, side)
        return (mu_kernel if isinstance(system, MultSystem) else pi_kernel)(system, I, decs)
    return kernel


# axiom -> (parts per decomposition, 0 for none; kernel; linear checker); an
# axiom and its co-axiom share one pair of mu and pi kernels
_AXIOM_ROUTES = {
    "associative": (3, _reading("product", _mu_associative, _pi_coassociative), _assoc),
    "commutative": (2, _reading("product", _mu_commutative, _pi_cocommutative), _comm),
    "unital": (0, _reading("product", _mu_unital, _pi_counital), _unital),
    "coassociative": (3, _reading("coproduct", _mu_associative, _pi_coassociative), _coassoc),
    "cocommutative": (2, _reading("coproduct", _mu_commutative, _pi_cocommutative), _cocomm),
    "counital": (0, _reading("coproduct", _mu_unital, _pi_counital), _counital),
    "hopf_compatible": (2, _hopf_terms, _hopf_compat),
}
AXIOMS = tuple(_AXIOM_ROUTES)


def check_delta_nabla_identity(h: LinearizedHopf, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """Delta_{S,T} o nabla_{S,T} = id on all basis tensors, checked like an axiom."""
    return _check_diagram(h, "delta_nabla_identity", grounds(max_n), 2,
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
    transport sigma|S : S -> sigma(S) from ``SetSpecies.transport_table``, so
    a square is a few lookups.  The exhaustive route finds the witness, and
    is the oracle up to n = TABLE_ORACLE_MAX_N (``cross_check``).  A mu, pi
    or transport result outside its component raises ``ValueError``, at
    every n.
    """
    return cross_check("naturality", entry.key, grounds(max_n),
                       lambda I: _natural_by_tables(entry, I),
                       lambda I: _naturality_exhaustive(entry, I), TABLE_ORACLE_MAX_N)


def _natural_by_tables(entry: CatalogEntry, I: GroundSet) -> bool | None:
    """None when every square over I holds on the index tables, else False."""
    sp, mu, pi = entry.species, entry.mu, entry.pi
    table = sp.transport_table
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
    return None


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
    Is = grounds(max_n)
    if mode not in ("direct", "local", "both"):
        raise ValueError("mode must be direct, local, or both")
    key = species_key or mu.species.name
    pre = _selfcompat_precondition(mu, max_n)
    if pre is not None:
        return CheckReport("self_compatible", key, max_n, "skip",
                           {"precondition": pre})
    if mode == "direct":
        ok, witness = _selfcompat_direct(mu, max_n)
    elif mode == "local":
        ok, witness = _selfcompat_local(mu, Is)
    else:
        direct, local = _selfcompat_direct(mu, max_n), _selfcompat_local(mu, Is)
        ok, both = direct[0], {"direct": direct[1], "local": local[1]}
        if ok != local[0]:
            raise FatalInconsistency(f"self-compatibility modes disagree for {key}: "
                                     f"direct={ok} local={local[0]}", witness=both)
        witness = None if ok else both
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


def _selfcompat_local(mu: MultSystem, Is: list[GroundSet]):
    """The three local conditions on positions of the compiled mu tables, with
    the element route as the oracle for n <= ORACLE_MAX_N."""
    rep = _check_diagram(_mu_mu(mu), "self_compatible[local]", Is, 2,
                         _local_terms, _local_elements)
    return rep.ok, rep.witness


def _local_terms(h, I, decs):
    """The three local conditions over the decompositions of decs.

    A decomposition with an empty block satisfies each of them once mu is
    unital over every subset of I (the ``unital`` kernel), with e the unit:
    mu_{empty,T} and mu_{T,empty} are both the identity of P[T], so they
    commute and are injective.  In the image condition, for S empty, a = e
    is the image e of mu_{empty,empty} and b = mu(e, b) is in the image of
    mu_{A,B} by hypothesis; for A empty, the images of mu_{empty,S} and
    mu_{empty,S'} are all of P[S] and P[S']; S' or B empty is the mirror
    image.  So only decompositions of nonempty blocks are walked.
    The tables of the pairs with an empty block are compiled by the unit
    kernel, the others by the nonempty ones."""
    mu, el, dim, n = h.product, h.basis.elements, h.basis.dim, len(I)
    decs = _nonempty_blocks(decs, h, _AXIOM_ROUTES["unital"][1])
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
# structure constants and free self-duality
#
# Every structure constant is 0 or 1, so free self-duality is the equality of
# two relations: z_c is a term of nabla_{S,T}(x_a (x) y_b) exactly when
# (x_a, y_b) is a term of Delta_{S,T}(z_c).  The invariant-form pairings
# <nabla(x (x) y), z> and <x (x) y, Delta z> are these two constants.

def product_table(h: LinearizedHopf, S: GroundSet, T: GroundSet) -> dict:
    return {(x, y, z): 1 for x in h.basis.elements(S) for y in h.basis.elements(T)
            for z in h.products(S, T, x, y)}


def coproduct_table(h: LinearizedHopf, S: GroundSet, T: GroundSet) -> dict:
    return {(x, y, z): 1 for z in h.basis.elements(S.union(T))
            for x, y in h.splits(S, T, z)}


def constant_sort_key(key: tuple) -> tuple:
    """The sort key of a structure constant's (x, y, z)."""
    return tuple(e.sort_key() for e in key)


def check_fsd(h: LinearizedHopf, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """Free self-duality: the product and coproduct structure constants coincide.

    Requires Hopf compatibility first (self-duality is a property of Hopf
    monoids).  Then, over every (S, T), the terms of nabla_{S,T} and of
    Delta_{S,T} are compared as one relation on basis positions, with the
    element tables (``product_table``, ``coproduct_table``) as the oracle for
    n <= ORACLE_MAX_N and as the witness finder.
    """
    rep = check_axiom(h, "hopf_compatible", max_n)
    if not rep.ok:
        return CheckReport("fsd", h.name, rep.n, "fail",
                           {"reason": "not hopf compatible", **rep.witness})
    return _fsd_tables(h, max_n)


def _fsd_tables(h: LinearizedHopf, max_n: int) -> CheckReport:
    return _check_diagram(h, "fsd", grounds(max_n), 2, _fsd_terms, _fsd_elements)


def _fsd_terms(h, I, decs):
    products, splits = _position_readers(h)
    for S, T in decs:
        width = h.basis.dim(T)
        by_product = sorted((c, k) for k, cs in enumerate(products(S, T)) for c in cs)
        by_coproduct = sorted((c, a * width + b)
                              for c, pairs in enumerate(splits(S, T)) for a, b in pairs)
        if by_product != by_coproduct:
            return False
    return None


def _fsd_elements(h, I, decs):
    el = h.basis.elements
    for S, T in decs:
        prod, cop = product_table(h, S, T), coproduct_table(h, S, T)
        keys = prod.keys() ^ cop.keys()
        if not keys:
            continue
        entry = min(keys, key=constant_sort_key)
        x, y, z = next(k for k in itertools.product(el(S), el(T), el(I)) if k in keys)
        return {"S": list(S), "T": list(T), "entry": [str(e) for e in entry],
                "product_constant": str(prod.get(entry, 0)),
                "coproduct_constant": str(cop.get(entry, 0)),
                "form_mismatch": {"S": list(S), "T": list(T),
                                  "x": str(x), "y": str(y), "z": str(z),
                                  "form_left": str(prod.get((x, y, z), 0)),
                                  "form_right": str(cop.get((x, y, z), 0))}}
    return None


def check_ssd_conditions(h: LinearizedHopf, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """The elementary characterization of strong self-duality in this basis,
    read on elements: (a) basis elements multiply to single basis elements,
    and (b) every basis element is a basis product or is killed by the
    coproduct.

    For a Hopf-compatible triple with a linearized product, (b) is equivalent
    to free self-duality, so it is cross-checked against ``check_fsd``'s
    comparison on positions (``_fsd_tables``); a split verdict is fatal.
    """
    witness_a = witness_b = None
    for I in grounds(max_n):
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
        fsd_ok = _fsd_tables(h, max_n).ok
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
    cache = {}  # S -> Takeuchi's table over S, shared by every n
    for I in grounds(max_n):
        for lam in h.basis.elements(I):
            total = Vec.zero(I)
            for S, T in decompositions(I, 2):
                if S not in cache:
                    cache[S] = antipode_table(h, S)
                split = _delta_basis(h, S, T, lam)
                for (a, b), c in split.terms.items():
                    sa = cache[S][a]
                    total = total + h.nabla(S, T, TensorVec.tensor(sa, Vec.basis(b))).scale(c)
            want = Vec.basis(lam) if len(I) == 0 else Vec.zero(I)
            if total != want:
                return CheckReport("antipode_convolution", h.name, len(I), "fail",
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
    hd = dual_transpose(h)
    for I in grounds(max_n):
        for S, T in decompositions(I, 2):
            if (product_table(hd, S, T) != coproduct_table(h, S, T)
                    or coproduct_table(hd, S, T) != product_table(h, S, T)):
                return CheckReport("dual_tables", h.name, len(I), "fail",
                                   {"S": list(S), "T": list(T)})
    return CheckReport("dual_tables", h.name, max_n, "pass")


# ---------------------------------------------------------------------------
# the product-coproduct rectangle over two decompositions

# With one part, mu.fold returns its element and pi.fold returns (z,), so
# both sides of the rectangle are the same expression: only 2..3 parts are
# compared.
RECTANGLE_PARTS = (2, 3)


def check_preorder_rectangle(entry: CatalogEntry, max_n: int = DEFAULT_MAX_N) -> CheckReport:
    """mu-then-pi over crossed decompositions R, S of J equals per-part pi,
    twist, per-part mu, for every J inside {1..m}, m <= max_n: the set-level
    rectangle behind transitivity of the order.

    The 2x2 instances are the Hopf compatibility of (nabla^mu, Delta^pi),
    which ``_hopf_terms`` decides on positions, and they give every k x l
    instance, since mu.fold and pi.fold are left folds.  With J' = R_1 u
    ... u R_{k-1}, peeling R_k off R splits the k x l instance over J into
    the 2 x l one over J for (J', R_k) and the (k-1) x l one over J'.
    Peeling S_1 off S splits a 2 x l instance over J into the 2x2 one over J
    for (S_1, J - S_1) and the 2 x (l-1) one over J - S_1.  With one part
    both sides are the same.
    Only the folds' definitions are used: no (co)associativity, unit or
    naturality.  At each m only the J that contain m are decided (J = I =
    {} at m = 0), since the others were decided at m = max(J); the Hopf
    readers are built once per row.  The kernel names no witness; the
    element route, over the same Js (I first) and every k, l in
    RECTANGLE_PARTS, is the oracle for m <= ORACLE_MAX_N
    (``FatalInconsistency`` on a split) and the witness finder.  A mu or
    pi result outside its component raises ``ValueError``.
    """
    Is = grounds(max_n)
    if entry.mu is None or entry.pi is None:
        return CheckReport("preorder_rectangle", entry.key, max_n, "skip",
                           {"reason": "needs both systems"})
    h = LinearizedHopf(entry.key, entry.species, entry.mu, entry.pi)

    def kernel(h, I, decs):
        failed = any(_hopf_terms(h, J, decompositions(J, 2)) for J in _subgrounds(I))
        return False if failed else None

    return _check_diagram(h, "preorder_rectangle", Is, 0, kernel, _rectangle_elements)


def _subgrounds(I: GroundSet):
    """The J inside I = {1..m} that contain m (only J = I at m = 0): I, then
    the others by size, then lexicographically.  Over m = 0..n each J inside
    {1..n} comes once, at m = max(J), so the first failing m is the one
    found by deciding every J inside {1..m} at each m."""
    yield I
    for size in range(1, len(I)):
        for labels in itertools.combinations(I.labels[:-1], size - 1):
            yield GroundSet(labels + I.labels[-1:])


def _rectangle_elements(h, I, decs):
    mu, pi, sp = h.product, h.coproduct, h.basis
    for J, k, l in itertools.product(_subgrounds(I), RECTANGLE_PARTS, RECTANGLE_PARTS):
        rdecs, sdecs = decompositions(J, k), decompositions(J, l)
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
