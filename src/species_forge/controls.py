"""Seeded negative controls.

Perturbed multiplicative systems that stay associative and unital but break
exactly one of the three conditions characterizing Hopf self-compatibility,
so the direct and local checkers can be cross-validated on failures as well
as successes:

* concatenation systems on linear orders break commutativity only;
* constant-map "blob" systems driven by a commutative monoid table break
  injectivity only;
* "collapse" systems identify distinct primitive-times-point products across
  overlapping decompositions, breaking the image condition only.

Blob and collapse systems are finite families indexed by small parameters;
the seed picks which members run.  Collapse species are defined only up to
three points, which is the scale these controls are checked at.

Also here: a deliberately broken species whose transport forgets block
labels, used as the negative control for the functoriality checker.
"""

from __future__ import annotations

import itertools
import random

from .catalog import (
    MultSystem, _mapto_merge, _mapto_transport, labeled_partition_species,
    make_L, make_X_C,
)
from .core import (
    EMPTY, Bijection, Element, GroundSet, LabeledPartitionElt, LinearOrderElt,
    MapTo, SetSpecies,
)


class PerturbedSystem:
    def __init__(self, key: str, mu: MultSystem, breaks: str):
        self.key = key
        self.mu = mu
        self.breaks = breaks    # commutative | injective | image


# ---------------------------------------------------------------------------
# family 1: concatenation orders (break commutativity)

def concat_system(mirrored: bool) -> PerturbedSystem:
    L = make_L().species
    key = f"orders[{'mirror' if mirrored else 'concat'}]"
    sp = SetSpecies(key, L.elements_fn, L.transport_fn)

    def rule(S, T, x, y):
        seq = y.seq + x.seq if mirrored else x.seq + y.seq
        return LinearOrderElt.canonical(S.union(T), seq)

    return PerturbedSystem(key, MultSystem(sp, rule), "commutative")


# ---------------------------------------------------------------------------
# family 2: monoid blobs (break injectivity)

_MONOIDS = {
    "zadd": lambda m: (lambda a, b: (a + b) % m, 0),
    "zmax": lambda m: (lambda a, b: max(a, b), 0),
    "band": lambda m: (lambda a, b: a & b, m - 1),
    "bor": lambda m: (lambda a, b: a | b, 0),
}


def blob_system(kind: str, m: int) -> PerturbedSystem:
    """Constant maps to {0..m-1} multiplied through a commutative monoid table.

    The ``m x m`` table is built once; the product of colors ``a`` and ``b``
    over ``S u T`` is the enumerated constant map of color ``table[a][b]``,
    the instance ``MapTo.canonical`` registers for it."""
    op, _ident = _MONOIDS[kind](m)
    table = [[op(a, b) for b in range(m)] for a in range(m)]

    def elements(I: GroundSet):
        if len(I) == 0:
            return [MapTo.canonical(EMPTY, ())]
        return [MapTo.canonical(I, (v,) * len(I)) for v in range(m)]

    def transport(sigma: Bijection, f: MapTo):
        return MapTo.canonical(sigma.target, f.colors[:1] * len(sigma.target))

    sp = SetSpecies(f"blob[{kind}:{m}]", elements, transport)

    def rule(S, T, x, y):
        if not S.labels:
            return y
        if not T.labels:
            return x
        return sp.elements(S.union(T))[table[x.colors[0]][y.colors[0]]]

    return PerturbedSystem(sp.name, MultSystem(sp, rule), "injective")


# ---------------------------------------------------------------------------
# family 3: collapse species (break the image condition)

def _wrap(I: GroundSet, value: int) -> LabeledPartitionElt:
    # one-block labeled partition carrying a constant map: transport-stable
    return LabeledPartitionElt.canonical(I, ((I, MapTo.canonical(I, (value,) * len(I))),))


def collapse_system(c: int, d: int) -> PerturbedSystem:
    """Colored points (c colors) with d extra primitives on each two-point set
    whose products with a point collapse across decompositions.

    The system is commutative and injective, yet an element of the image of
    one decomposition's product factors over a crossing decomposition whose
    first factor is primitive; scoped to ground sets of at most three points.
    """

    def elements(I: GroundSet):
        n = len(I)
        if n == 0:
            return [MapTo.canonical(EMPTY, ())]
        if n == 1:
            return [MapTo.canonical(I, (a,)) for a in range(c)]
        if n == 2:
            maps = [MapTo.canonical(I, w) for w in itertools.product(range(c), repeat=2)]
            return maps + [_wrap(I, m) for m in range(d)]
        if n == 3:
            maps = [MapTo.canonical(I, w) for w in itertools.product(range(c), repeat=3)]
            return maps + [_wrap(I, m * c + a) for m in range(d) for a in range(c)]
        raise ValueError("collapse species is defined only up to three points")

    def transport(sigma: Bijection, x: Element):
        if isinstance(x, LabeledPartitionElt):
            return _wrap(sigma.target, x.blocks[0][1].colors[0])
        return _mapto_transport(sigma, x)

    sp = SetSpecies(f"collapse[c={c},d={d}]", elements, transport)

    def rule(S, T, x, y):
        if not S.labels:
            return y
        if not T.labels:
            return x
        if isinstance(x, MapTo) and isinstance(y, MapTo):
            return _mapto_merge(S, T, x, y)
        if isinstance(x, LabeledPartitionElt) and isinstance(y, MapTo) and len(T.labels) == 1:
            m = x.blocks[0][1].colors[0]
            return _wrap(S.union(T), m * c + y.colors[0])
        if isinstance(y, LabeledPartitionElt) and isinstance(x, MapTo) and len(S.labels) == 1:
            m = y.blocks[0][1].colors[0]
            return _wrap(S.union(T), m * c + x.colors[0])
        raise ValueError(f"no product for {x} and {y}")

    return PerturbedSystem(sp.name, MultSystem(sp, rule), "image")


# ---------------------------------------------------------------------------
# the seeded pool

def _grid() -> list[tuple[str, tuple]]:
    grid: list[tuple[str, tuple]] = [("concat", (False,)), ("concat", (True,))]
    for kind in ("zadd", "zmax"):
        for m in range(2, 11):
            grid.append(("blob", (kind, m)))
    for kind in ("band", "bor"):
        for k in (1, 2, 3):
            grid.append(("blob", (kind, 2 ** k)))
    for c in range(1, 6):
        for d in range(1, 6):
            grid.append(("collapse", (c, d)))
    return grid


_MAKERS = {"concat": concat_system, "blob": blob_system, "collapse": collapse_system}


def perturbed_systems(seed: int = 0, count: int = 50) -> list[PerturbedSystem]:
    """A seeded selection of perturbed systems, at least one per family."""
    grid = _grid()
    rng = random.Random(seed)
    rng.shuffle(grid)
    count = min(count, len(grid))
    chosen = grid[:count]
    for family in ("concat", "blob", "collapse"):
        if not any(f == family for f, _ in chosen):
            extra = next(item for item in grid if item[0] == family)
            chosen[rng.randrange(count)] = extra
    chosen.sort(key=lambda item: (item[0], item[1]))
    return [_MAKERS[f](*args) for f, args in chosen]


# ---------------------------------------------------------------------------
# broken species for the functoriality checker

def label_dropping_species() -> SetSpecies:
    """Labeled partitions over two colors whose transport resets every block
    label to color zero; the identity law fails on any element with a
    nonzero label."""
    good = labeled_partition_species(make_X_C(2).species, "broken")

    def transport(sigma: Bijection, X: LabeledPartitionElt):
        blocks = tuple(
            (sigma.image_of(b), MapTo.canonical(sigma.image_of(b), (0,)))
            for b, _ in X.blocks)
        return LabeledPartitionElt.canonical(sigma.target, blocks)

    return SetSpecies("broken", good.elements_fn, transport)
