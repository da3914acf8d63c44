"""GF(2) column arithmetic behind the evenness machinery.

A column is a Python int used as a bitset over the side index: bit r is
set when the column's facet lies over side r. The only nontrivial
operation is a left-to-right dependency scan that either certifies the
columns independent or stops at the first column that is a GF(2)
combination of earlier ones and reports that combination, an int bitset
over column positions.

The basis is keyed by each vector's lowest set bit (its pivot) and holds
the vector with its combination over column positions. A new column is
XORed with the basis vector at its lowest bit until that bit is a new
pivot or the column is zero. The earlier columns are independent, so the
reported combination is the unique expression of the dependent column in
them. A basis outlives one scan: :func:`drop_column` takes one column out
of it, and the scan can resume past the last column it reached.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "active_backend",
    "bit_indices",
    "scan",
    "drop_column",
    "first_dependency",
]

# pivot (lowest set bit, as an int) -> (vector, combination of columns)
Basis = dict[int, tuple[int, int]]


def active_backend() -> str:
    """Name of the scan kernel; there is one."""
    return "python-int"


def bit_indices(vec: int) -> list[int]:
    """Indices of the set bits of an int bitset, ascending."""
    out: list[int] = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


def scan(columns: Iterable[int], basis: Basis, start: int = 0) -> tuple[int, int]:
    """Add columns start, start + 1, ... to the basis until one depends on it.

    Returns (j, combination) for the first column j that reduces to zero,
    the combination an int bitset over column positions that holds j, or
    (-1, 0) once every column went in. Independent columns stay in the
    basis; the dependent one does not.
    """
    get = basis.get
    for j, v in enumerate(columns, start):
        c = 1 << j
        while v:
            low = v & -v
            hit = get(low)
            if hit is None:
                basis[low] = (v, c)
                break
            v ^= hit[0]
            c ^= hit[1]
        else:
            return j, c
    return -1, 0


def drop_column(basis: Basis, x: int) -> None:
    """Take column x out of the basis, which must span it.

    Of the vectors whose combination holds x, the one with the largest
    pivot is XORed into the others and dropped. Each other vector's lowest
    bit lies below that pivot, so no pivot moves; afterwards no
    combination holds x, and the vectors stay independent and span the
    remaining columns.
    """
    holders = [low for low, (_, c) in basis.items() if c >> x & 1]
    top = max(holders)
    v_top, c_top = basis.pop(top)
    for low in holders:
        if low != top:
            v, c = basis[low]
            basis[low] = (v ^ v_top, c ^ c_top)


def first_dependency(columns: Sequence[int]) -> tuple[int, int]:
    """Scan columns with a fresh basis: (j, combination) or (-1, 0).

    The combination is an int bitset over column indices and always
    contains the reported column j itself.
    """
    return scan(columns, {})
