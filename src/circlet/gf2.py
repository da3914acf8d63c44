"""Bit-packed GF(2) column arithmetic behind the evenness machinery.

Columns are bitsets over the side index, packed 64 rows to a uint64 word,
one matrix row per column: shape (n_cols, n_words). The only nontrivial
operation is a left-to-right dependency scan that either certifies the
columns independent or stops at the first column that is a GF(2)
combination of earlier ones and reports that combination.

The scan works on Python ints: each column becomes one int bitset, and
the basis is keyed by each vector's lowest set bit (its pivot) and holds
the vector with its combination over column positions. A new column is
XORed with the basis vector at its lowest bit until that bit is a new
pivot or the column is zero. The earlier columns are independent, so the
reported combination is the unique expression of the dependent column in
them. A basis outlives one scan: :func:`drop_column` takes one column out
of it, and the scan can resume past the last column it reached.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "active_backend",
    "pack_ints",
    "pack_from_indices",
    "xor_select",
    "bit_indices",
    "int_columns",
    "scan",
    "drop_column",
    "first_dependency",
]

_WORD = 64

# pivot (lowest set bit, as an int) -> (vector, combination of columns)
Basis = dict[int, tuple[int, int]]


def active_backend() -> str:
    """Name of the scan kernel; there is one."""
    return "python-int"


def pack_ints(values: Sequence[int], n_rows: int) -> np.ndarray:
    """Int bitsets over n_rows rows as a writable (len(values), n_words) array."""
    n_words = max(1, -(-n_rows // _WORD))
    n_bytes = 8 * n_words
    raw = bytearray(b"".join(v.to_bytes(n_bytes, "little") for v in values))
    words = np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=False)
    return words.reshape(len(values), n_words)


def pack_from_indices(
    rows_per_col: Sequence[Iterable[int]], n_rows: int
) -> np.ndarray:
    """Pack per-column row-index lists into a (n_cols, n_words) matrix."""
    ints = []
    for rows in rows_per_col:
        v = 0
        for r in rows:
            r = index(r)
            if not 0 <= r < n_rows:
                raise ValueError(f"row index {r} outside [0, {n_rows})")
            v |= 1 << r
        ints.append(v)
    return pack_ints(ints, n_rows)


def xor_select(packed: np.ndarray, which: Sequence[int]) -> np.ndarray:
    """XOR of the selected columns; all-zero iff they sum to zero."""
    if len(which) == 0:
        return np.zeros(packed.shape[1], dtype=np.uint64)
    return np.bitwise_xor.reduce(packed[list(which)], axis=0)


def bit_indices(vec: int | np.ndarray) -> list[int]:
    """Indices of the set bits of an int bitset or one packed vector, ascending."""
    if isinstance(vec, np.ndarray):
        vec = next(int_columns(vec.reshape(1, -1)))
    out: list[int] = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


def int_columns(cols: np.ndarray) -> Iterator[int]:
    """Each column of a packed matrix as one int bitset, made as it is reached."""
    n_cols, n_words = cols.shape
    row_bytes = 8 * n_words
    flat = np.ascontiguousarray(cols, dtype="<u8").reshape(-1)
    data = memoryview(flat.view(np.uint8))
    from_bytes = int.from_bytes
    for j in range(n_cols):
        yield from_bytes(data[j * row_bytes : (j + 1) * row_bytes], "little")


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


def first_dependency(cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Left-to-right scan. Returns (col index, combination) or (-1, zeros).

    The combination is packed over column indices and always contains the
    reported column itself.
    """
    j, c = scan(int_columns(cols), {})  # (-1, 0) packs to zeros
    return j, pack_ints([c], cols.shape[0])[0]
