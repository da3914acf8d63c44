import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet import gf2


def dense_rank_gf2(columns: list[int]) -> int:
    """Gaussian elimination over big-int bitmasks, the dullest way."""
    basis: list[int] = []
    rank = 0
    for v in columns:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            rank += 1
    return rank


def first_dependent_index(columns: list[int]) -> int:
    """Smallest j whose prefix [0..j] is linearly dependent, else -1."""
    for j in range(len(columns)):
        if dense_rank_gf2(columns[: j + 1]) <= j:
            return j
    return -1


def column_ints(packed: np.ndarray) -> list[int]:
    out = []
    for row in packed:
        acc = 0
        for w, word in enumerate(row):
            acc |= int(word) << (64 * w)
        out.append(acc)
    return out


def check_scan_result(packed: np.ndarray):
    """The scan matches the dense oracle and reports a zero combination."""
    j, combo = gf2.first_dependency(packed)
    cols = column_ints(packed)
    assert j == first_dependent_index(cols)
    if j >= 0:
        support = gf2.bit_indices(combo)
        assert support
        assert max(support) == j
        assert all(0 <= b <= j for b in support)
        acc = 0
        for b in support:
            acc ^= cols[b]
        assert acc == 0
    else:
        assert not combo.any()
    return j


# ---- fixed cases ------------------------------------------------------


def test_pack_from_indices_layout():
    packed = gf2.pack_from_indices([[0, 63], [64], []], n_rows=65)
    assert packed.shape == (3, 2)
    assert packed[0, 0] == (1 | (1 << 63))
    assert packed[1, 1] == 1
    assert packed[2].sum() == 0


def test_pack_accepts_numpy_indices_and_repeated_rows():
    rows = np.array([70, 3, 70, 3, 0], dtype=np.int64)
    packed = gf2.pack_from_indices([rows, rows[:1]], n_rows=130)
    assert packed.dtype == np.uint64
    assert packed.shape == (2, 3)
    assert gf2.bit_indices(packed[0]) == [0, 3, 70]
    assert gf2.bit_indices(packed[1]) == [70]


def test_pack_rejects_out_of_range():
    with pytest.raises(ValueError):
        gf2.pack_from_indices([[5]], n_rows=5)
    with pytest.raises(ValueError):
        gf2.pack_from_indices([[-1]], n_rows=5)


def test_xor_select_and_bit_indices():
    packed = gf2.pack_from_indices([[0], [1], [0, 1]], n_rows=2)
    assert gf2.xor_select(packed, [0, 1, 2]).sum() == 0
    assert gf2.bit_indices(gf2.xor_select(packed, [0, 1])) == [0, 1]
    assert gf2.xor_select(packed, []).sum() == 0


def test_independent_columns_report_no_dependency():
    packed = gf2.pack_from_indices([[0], [1], [2]], n_rows=3)
    assert check_scan_result(packed) == -1


def test_duplicate_column_is_first_dependency():
    packed = gf2.pack_from_indices([[0, 1], [2], [0, 1]], n_rows=3)
    j = check_scan_result(packed)
    assert j == 2
    _, combo = gf2.first_dependency(packed)
    assert gf2.bit_indices(combo) == [0, 2]


def test_zero_column_is_immediately_dependent():
    packed = gf2.pack_from_indices([[], [0]], n_rows=1)
    j = check_scan_result(packed)
    assert j == 0
    _, combo = gf2.first_dependency(packed)
    assert gf2.bit_indices(combo) == [0]


def test_triangle_boundary_dependency():
    # edges ab, bc, ca as rows; the three columns sum to zero
    packed = gf2.pack_from_indices([[0, 2], [0, 1], [1, 2]], n_rows=3)
    j = check_scan_result(packed)
    assert j == 2
    _, combo = gf2.first_dependency(packed)
    assert gf2.bit_indices(combo) == [0, 1, 2]


def test_empty_matrix():
    empty = np.zeros((0, 1), dtype=np.uint64)
    j, combo = gf2.first_dependency(empty)
    assert j == -1
    assert not combo.any()


def test_scan_across_word_boundaries():
    # 130 rows forces three words per column
    cols = [[i, i + 1] for i in range(129)]
    cols.append([0, 129])
    packed = gf2.pack_from_indices(cols, n_rows=130)
    j = check_scan_result(packed)
    assert j == 129


# ---- randomized agreement with the dense oracle -----------------------


def test_backend_agreement_random_matrices():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        n_rows = int(rng.integers(1, 200))
        n_cols = int(rng.integers(1, 40))
        density = rng.uniform(0.02, 0.5)
        cols = []
        for _ in range(n_cols):
            mask = rng.random(n_rows) < density
            cols.append(list(np.nonzero(mask)[0]))
        packed = gf2.pack_from_indices(cols, n_rows=n_rows)
        check_scan_result(packed)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 80).flatmap(
        lambda n_rows: st.lists(
            st.lists(st.integers(0, n_rows - 1), max_size=n_rows, unique=True),
            min_size=1,
            max_size=16,
        ).map(lambda cols: (n_rows, cols))
    )
)
def test_backend_agreement_property(case):
    n_rows, cols = case
    packed = gf2.pack_from_indices(cols, n_rows=n_rows)
    check_scan_result(packed)


# ---- a basis kept across scans: dropping columns ----------------------


def check_basis(basis: gf2.Basis, cols: list[int]):
    """Vectors keyed by their lowest bit, independent, and each the XOR
    of the columns its combination names."""
    for low, (v, c) in basis.items():
        assert v & -v == low
        acc = 0
        for b in gf2.bit_indices(c):
            acc ^= cols[b]
        assert acc == v
    assert dense_rank_gf2([v for v, _ in basis.values()]) == len(basis)


def test_scan_resumes_on_a_kept_basis():
    cols = [0b011, 0b110, 0b100, 0b101, 0b100]
    basis: gf2.Basis = {}
    j, combo = gf2.scan(cols, basis)
    assert (j, gf2.bit_indices(combo)) == (3, [0, 1, 3])
    gf2.drop_column(basis, 0)
    gf2.drop_column(basis, 1)
    assert basis == {0b100: (0b100, 1 << 2)}
    j, combo = gf2.scan(cols[4:], basis, 4)
    assert (j, gf2.bit_indices(combo)) == (4, [2, 4])
    assert gf2.scan([], basis, 5) == (-1, 0)


def test_drop_column_random_matrices():
    rng = random.Random(4321)
    for _ in range(80):
        n_rows = rng.randrange(1, 70)
        cols = [rng.getrandbits(n_rows) for _ in range(rng.randrange(1, 40))]
        basis: gf2.Basis = {}
        j, _ = gf2.scan(cols, basis)
        prefix = list(range(len(cols) if j < 0 else j))
        assert len(basis) == len(prefix)
        check_basis(basis, cols)
        gone = 0
        for x in rng.sample(prefix, len(prefix)):
            pivots = set(basis)
            gf2.drop_column(basis, x)
            gone |= 1 << x
            assert len(basis) == len(pivots) - 1 and set(basis) < pivots
            assert not any(c & gone for _, c in basis.values())
            check_basis(basis, cols)
            # the kept vectors span the remaining prefix columns
            rest = [cols[p] for p in prefix if not gone >> p & 1]
            assert dense_rank_gf2(rest + [v for v, _ in basis.values()]) == len(rest)
