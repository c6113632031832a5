"""Exact elimination, cross-checked against an independent implementation."""

import random
from fractions import Fraction

import pytest
import sympy

from species_forge import linalg
from species_forge.catalog import parse_species
from species_forge.classify import primitives
from species_forge.core import GroundSet
from species_forge.engine import hopf_from


def random_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        for v in linalg.kernel_basis(m, cols):
            for row in m:
                assert sum(a * x for a, x in zip(row, v)) == 0


def test_rank_and_nullity_match_sympy():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m])
        assert linalg.rank(m, cols) == sm.rank()
        assert len(linalg.kernel_basis(m, cols)) == cols - sm.rank()


def test_kernel_is_deterministic():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.kernel_basis(m, 3) == linalg.kernel_basis(m, 3)
    assert linalg.kernel_basis(m, 3) == [(Fraction(-1), Fraction(-1), Fraction(1))]


def test_in_span_and_spans_equal():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert linalg.in_span(rows, 3, [1, 1, 2])
    assert not linalg.in_span(rows, 3, [1, 1, 3])
    assert linalg.spans_equal(rows, [[1, 1, 2], [1, -1, 0]], 3)
    assert not linalg.spans_equal(rows, [[1, 0, 0]], 3)


def test_rank_zero_matrix():
    assert linalg.rank([[0, 0]], 2) == 0
    assert len(linalg.kernel_basis([[0, 0]], 2)) == 2


def _sympy_nullspace(m, cols):
    sm = sympy.Matrix(len(m), cols, [sympy.Rational(x.numerator, x.denominator)
                                     for row in m for x in map(Fraction, row)])
    kernel = [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in sm.nullspace()]
    return kernel, sm.rank()


def _degenerate_matrix(rng):
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    m = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3)), rng.randint(1, 4))
          for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [Fraction(0)] * cols
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = Fraction(0)
    if rng.random() < 0.3:
        m.append(list(m[rng.randrange(len(m))]))
    return m, cols


def test_kernel_and_rank_equal_sympy_on_degenerate_matrices():
    # sympy's nullspace vector has 1 at its free column and 0 at the others,
    # so both bases must agree vector for vector, not just in span
    rng = random.Random(2024)
    for _ in range(200):
        m, cols = _degenerate_matrix(rng)
        kernel, r = _sympy_nullspace(m, cols)
        assert linalg.kernel_basis(m, cols) == kernel
        assert linalg.rank(m, cols) == r


@pytest.mark.parametrize("spec", ["Perm", "L", "Pi", "E_C:2"])
def test_kernel_and_rank_equal_sympy_on_coproduct_matrices(monkeypatch, spec):
    seen = []
    real = linalg.kernel_basis

    def spy(rows, ncols):
        seen.append((rows, ncols))
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", spy)
    h = hopf_from(parse_species(spec), "mu", "mu")
    for n in range(1, 5):
        primitives(h, GroundSet.first(n))
    assert len(seen) == 4
    for rows, ncols in seen:
        kernel, r = _sympy_nullspace(rows, ncols)
        assert real(rows, ncols) == kernel
        assert linalg.rank(rows, ncols) == r
