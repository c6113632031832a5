"""Exact elimination, cross-checked against an independent implementation."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from species_forge import linalg
from species_forge.catalog import parse_species
from species_forge.classify import primitives
from species_forge.core import GroundSet
from species_forge.engine import hopf_from


def _sparse(m):
    """Dense rows as the sparse rows linalg takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _dense(m, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in m]


def random_matrix(rng, rows, cols):
    return _sparse([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                    for _ in range(rows)])


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        for v in linalg.kernel_basis(m, cols):
            for row in _dense(m, cols):
                assert sum(a * x for a, x in zip(row, v)) == 0


def test_rank_and_nullity_match_sympy():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in _dense(m, cols)])
        assert linalg.rank(m, cols) == sm.rank()
        assert len(linalg.kernel_basis(m, cols)) == cols - sm.rank()


def test_kernel_is_deterministic():
    m = _sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.kernel_basis(m, 3) == linalg.kernel_basis(m, 3)
    assert linalg.kernel_basis(m, 3) == [(Fraction(-1), Fraction(-1), Fraction(1))]


def test_in_span_and_spans_equal():
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert linalg.in_span(rows, 3, {0: 1, 1: 1, 2: 2})
    assert not linalg.in_span(rows, 3, {0: 1, 1: 1, 2: 3})
    assert linalg.spans_equal(rows, [{0: 1, 1: 1, 2: 2}, {0: 1, 1: -1}], 3)
    assert not linalg.spans_equal(rows, [{0: 1}], 3)


def test_rank_zero_matrix():
    assert linalg.rank([{}], 2) == 0
    assert len(linalg.kernel_basis([{}], 2)) == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda cols: st.tuples(
           st.just(cols),
           st.lists(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=cols,
                             max_size=cols), max_size=6),
           st.lists(st.tuples(st.integers(0, 6), st.lists(st.integers(0, cols - 1),
                                                          max_size=cols)), max_size=4))))
def test_zero_rows_change_no_kernel_or_rank(case):
    # a zero row is an empty dict or names its columns with 0; with no rows
    # at all the kernel is the whole space, one unit vector per column
    cols, dense, zeros = case
    m = _sparse(dense)
    padded = list(m)
    for at, named in zeros:
        padded.insert(min(at, len(padded)), dict.fromkeys(named, Fraction(0)))
    assert linalg.kernel_basis(padded, cols) == linalg.kernel_basis(m, cols)
    assert linalg.rank(padded, cols) == linalg.rank(m, cols)
    units = [tuple(Fraction(int(i == j)) for i in range(cols)) for j in range(cols)]
    assert linalg.kernel_basis([], cols) == linalg.kernel_basis([{}], cols) == units
    assert linalg.rank([], cols) == linalg.rank([{}], cols) == 0


def _sympy_nullspace(m, cols):
    # sympy takes the sparse rows densified
    sm = sympy.Matrix(len(m), cols, [sympy.Rational(x.numerator, x.denominator)
                                     for row in _dense(m, cols) for x in map(Fraction, row)])
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
    return _sparse(m), cols


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
