"""Exact rational linear algebra.

Sparse fraction-free elimination.  A row is a dict from column to an
``int`` or ``Fraction`` entry; a column it does not name holds 0, so an
all-zero row is an empty dict.  There is no dense input: the vector that
``in_span`` tests is a row too.  Each row's denominators are cleared over
its entries.  Rows are added one at a time; a new row is reduced against the
stored rows, keyed by leading column, by integer cross-multiplication and
division by its gcd, and whatever remains is stored.  Kernels, ranks, and
span membership all come from this elimination.

The kernel basis does not depend on how the elimination ran: the pivot
columns are the leading columns of the reduced row echelon form of the row
space, and for each free column f there is exactly one kernel vector with 1
at f and 0 at every other free column.  So every basis this module hands out
is reproducible across runs, platforms and row orders.

Matrices are sequences of rows, and an empty sequence has the whole space as
its kernel.  Kernel vectors come back dense, one entry per column.  Nothing
here mutates its inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Row = Mapping[int, "int | Fraction"]


def _int_row(row: Row) -> dict[int, int]:
    """The row's nonzero entries scaled to ints by the lcm of their
    denominators."""
    scale = lcm(*(x.denominator for x in row.values()))
    return {j: int(x * scale) for j, x in row.items() if x}


def echelon(rows: Sequence[Row], ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse integer row echelon form of the row space.

    Returns (rows, pivot_columns), sorted by pivot: rows[i] maps columns to
    nonzero ints and its smallest column is pivot_columns[i].
    """
    by_lead: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _int_row(row)
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


def rank(rows: Sequence[Row], ncols: int) -> int:
    _, pivots = echelon(rows, ncols)
    return len(pivots)


def kernel_basis(rows: Sequence[Row], ncols: int) -> list[tuple[Fraction, ...]]:
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


def in_span(rows: Sequence[Row], ncols: int, v: Row) -> bool:
    base = rank(rows, ncols)
    return rank([*rows, v], ncols) == base


def spans_equal(rows_a: Sequence[Row], rows_b: Sequence[Row], ncols: int) -> bool:
    ra = rank(rows_a, ncols)
    rb = rank(rows_b, ncols)
    if ra != rb:
        return False
    return rank([*rows_a, *rows_b], ncols) == ra
