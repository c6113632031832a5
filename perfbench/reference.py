"""A fixed piece of pure-Python work that measures how fast the host is now.

Usage: python3 perfbench/reference.py

The benchmark runs this script, in a fresh process, before and after every
timed invocation, and scales the invocation's wall time by how long the
script took around it (see ``run.py``).  On a shared host the speed of a
CPU drifts by tens of percent over minutes, and this script slows down with
it; species-forge's code never runs here, so a change to the program does
not move the reference.

The work resembles the certifier's: small-integer arithmetic, set
partitions held as frozensets in dicts (hashing and allocation), and exact
elimination over ``Fraction``.  It prints a checksum, which the benchmark
compares with ``CHECKSUM`` so that a broken interpreter is not taken for a
fast one.
"""

from __future__ import annotations

import random
from fractions import Fraction

CHECKSUM = "9164 21147 42"


def arithmetic() -> int:
    total = 0
    for i in range(600_000):
        total += i * i % 7
    return total % 10_007


def set_partitions(items: tuple):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield (frozenset((first,)),) + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + (blocks[i] | {first},) + blocks[i + 1:]


def partitions() -> int:
    by_shape: dict[frozenset, int] = {}
    for blocks in set_partitions(tuple(range(9))):
        key = frozenset(blocks)
        by_shape[key] = by_shape.get(key, 0) + len(blocks)
    return len(by_shape)


def elimination(n: int = 14, extra: int = 4) -> int:
    """Rank of a fixed random rational n x (n + extra) matrix."""
    rng = random.Random(7)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + extra)]
            for _ in range(n)]
    pivot = 0
    for col in range(n + extra):
        src = next((i for i in range(pivot, n) if rows[i][col]), None)
        if src is None:
            continue
        rows[pivot], rows[src] = rows[src], rows[pivot]
        for i in range(n):
            if i != pivot and rows[i][col]:
                f = rows[i][col] / rows[pivot][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pivot])]
        pivot += 1
    return pivot


def main() -> None:
    print(arithmetic(), partitions(), sum(elimination() for _ in range(3)))


if __name__ == "__main__":
    main()
