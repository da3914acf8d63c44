"""Bit-packed GF(2) column arithmetic behind the evenness machinery.

Columns are bitsets over the side index, packed 64 rows to a uint64 word,
one matrix row per column: shape (n_cols, n_words). The only nontrivial
operation is a left-to-right dependency scan that either certifies the
columns independent or stops at the first column that is a GF(2)
combination of earlier ones and reports that combination.

The scan works on Python ints: each column becomes one int bitset when
the scan reaches it, and the basis is keyed by each vector's lowest set
bit. A new column is XORed with the basis vector at its lowest bit until
that bit is a new pivot or the column is zero. The earlier columns are
independent, so the reported combination is the unique expression of the
dependent column in them.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "active_backend",
    "pack_from_indices",
    "xor_select",
    "bit_indices",
    "first_dependency",
]

_WORD = 64


def active_backend() -> str:
    """Name of the scan kernel; there is one."""
    return "python-int"


def _n_words(n_bits: int) -> int:
    return max(1, -(-n_bits // _WORD))


def _pack_ints(values: Sequence[int], n_words: int) -> np.ndarray:
    """Pack int bitsets into a writable (len(values), n_words) uint64 array."""
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
    return _pack_ints(ints, _n_words(n_rows))


def xor_select(packed: np.ndarray, which: Sequence[int]) -> np.ndarray:
    """XOR of the selected columns; all-zero iff they sum to zero."""
    if len(which) == 0:
        return np.zeros(packed.shape[1], dtype=np.uint64)
    return np.bitwise_xor.reduce(packed[list(which)], axis=0)


def bit_indices(vec: np.ndarray) -> list[int]:
    """Indices of the set bits of one packed vector, ascending."""
    out: list[int] = []
    for w, word in enumerate(vec):
        x = int(word)
        while x:
            low = x & -x
            out.append((w << 6) + low.bit_length() - 1)
            x ^= low
    return out


def first_dependency(cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Left-to-right scan. Returns (col index, combination) or (-1, zeros).

    The combination is packed over column indices and always contains the
    reported column itself.
    """
    n_cols, n_words = cols.shape
    row_bytes = 8 * n_words
    flat = np.ascontiguousarray(cols, dtype="<u8").reshape(-1)
    data = memoryview(flat.view(np.uint8))
    from_bytes = int.from_bytes
    # lowest set bit -> (vector, combination of columns giving it)
    basis: dict[int, tuple[int, int]] = {}
    for j in range(n_cols):
        v = from_bytes(data[j * row_bytes : (j + 1) * row_bytes], "little")
        c = 1 << j
        while v:
            low = v & -v
            hit = basis.get(low)
            if hit is None:
                basis[low] = (v, c)
                break
            v ^= hit[0]
            c ^= hit[1]
        else:
            return j, _pack_ints([c], _n_words(n_cols))[0]
    return -1, np.zeros(_n_words(n_cols), dtype=np.uint64)
