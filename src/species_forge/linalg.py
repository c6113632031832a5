"""Exact rational linear algebra.

Sparse fraction-free elimination: rows are dicts from column to nonzero
``int``, denominators cleared over each row's nonzero entries.  Rows are
added one at a time; a new row is reduced against the stored rows, keyed by
leading column, by integer cross-multiplication and division by its gcd, and
whatever remains is stored.  Kernels, ranks, and span membership all come
from this elimination.

The kernel basis does not depend on how the elimination ran: the pivot
columns are the leading columns of the reduced row echelon form of the row
space, and for each free column f there is exactly one kernel vector with 1
at f and 0 at every other free column.  So every basis this module hands out
is reproducible across runs, platforms and row orders.

Matrices are sequences of rows; entries may be ints or Fractions.  Nothing
here mutates its inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _sparse_int_row(row: Sequence) -> dict[int, int]:
    nonzero = {j: Fraction(x) for j, x in enumerate(row) if x}
    scale = lcm(*(x.denominator for x in nonzero.values()))
    return {j: int(x * scale) for j, x in nonzero.items()}


def echelon(rows: Sequence[Sequence], ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse integer row echelon form of the row space.

    Returns (rows, pivot_columns), sorted by pivot: rows[i] maps columns to
    nonzero ints and its smallest column is pivot_columns[i].
    """
    by_lead: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _sparse_int_row(row)
        while r:
            lead = min(r)
            p = by_lead.get(lead)
            if p is None:
                by_lead[lead] = r
                break
            a, b = p[lead], r[lead]
            r = {j: a * x for j, x in r.items()}
            for j, x in p.items():
                y = r.get(j, 0) - b * x
                if y:
                    r[j] = y
                else:
                    r.pop(j, None)
            g = gcd(*r.values())
            if g > 1:
                r = {j: x // g for j, x in r.items()}
    pivots = sorted(by_lead)
    return [by_lead[c] for c in pivots], pivots


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    _, pivots = echelon(rows, ncols)
    return len(pivots)


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {v : M v = 0}, one vector per free column.

    Each basis vector has coefficient 1 at its free column and 0 at the other
    free columns, which determines it; it is found by sparse back
    substitution.
    """
    m, pivots = echelon(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: Fraction(1)}
        for row, pc in zip(reversed(m), reversed(pivots)):
            s = sum(x * v[j] for j, x in row.items() if j != pc and j in v)
            if s:
                v[pc] = Fraction(-s, row[pc])
        basis.append(tuple(v.get(j, Fraction(0)) for j in range(ncols)))
    return basis


def in_span(rows: Sequence[Sequence], ncols: int, v: Sequence) -> bool:
    base = rank(rows, ncols)
    return rank(list(rows) + [list(v)], ncols) == base


def spans_equal(rows_a: Sequence[Sequence], rows_b: Sequence[Sequence], ncols: int) -> bool:
    ra = rank(rows_a, ncols)
    rb = rank(rows_b, ncols)
    if ra != rb:
        return False
    return rank(list(rows_a) + list(rows_b), ncols) == ra
