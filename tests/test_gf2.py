import random

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


def columns_from_rows(rows_per_col) -> list[int]:
    """Each column's row-index list as one int bitset."""
    return [sum(1 << r for r in set(rows)) for rows in rows_per_col]


def check_scan_result(cols: list[int]):
    """The scan matches the dense oracle and reports a zero combination."""
    j, combo = gf2.first_dependency(cols)
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
        assert combo == 0
    return j


# ---- fixed cases ------------------------------------------------------


def test_bit_indices():
    assert gf2.bit_indices(0) == []
    assert gf2.bit_indices(0b1011) == [0, 1, 3]
    assert gf2.bit_indices(1 | 1 << 63 | 1 << 64 | 1 << 200) == [0, 63, 64, 200]


def test_independent_columns_report_no_dependency():
    cols = columns_from_rows([[0], [1], [2]])
    assert check_scan_result(cols) == -1


def test_duplicate_column_is_first_dependency():
    cols = columns_from_rows([[0, 1], [2], [0, 1]])
    j = check_scan_result(cols)
    assert j == 2
    _, combo = gf2.first_dependency(cols)
    assert gf2.bit_indices(combo) == [0, 2]


def test_zero_column_is_immediately_dependent():
    cols = columns_from_rows([[], [0]])
    j = check_scan_result(cols)
    assert j == 0
    _, combo = gf2.first_dependency(cols)
    assert gf2.bit_indices(combo) == [0]


def test_triangle_boundary_dependency():
    # edges ab, bc, ca as rows; the three columns sum to zero
    cols = columns_from_rows([[0, 2], [0, 1], [1, 2]])
    j = check_scan_result(cols)
    assert j == 2
    _, combo = gf2.first_dependency(cols)
    assert gf2.bit_indices(combo) == [0, 1, 2]


def test_empty_matrix():
    assert gf2.first_dependency([]) == (-1, 0)


def test_scan_across_word_boundaries():
    # 130 rows: columns wider than two 64-bit words
    rows = [[i, i + 1] for i in range(129)]
    rows.append([0, 129])
    j = check_scan_result(columns_from_rows(rows))
    assert j == 129


# ---- randomized agreement with the dense oracle -----------------------


def test_scan_matches_dense_rank_random_matrices():
    rng = random.Random(1234)
    for _ in range(60):
        n_rows = rng.randrange(1, 200)
        n_cols = rng.randrange(1, 40)
        density = rng.uniform(0.02, 0.5)
        rows = [
            [r for r in range(n_rows) if rng.random() < density]
            for _ in range(n_cols)
        ]
        check_scan_result(columns_from_rows(rows))


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
def test_scan_matches_dense_rank_property(case):
    _, rows = case
    check_scan_result(columns_from_rows(rows))


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
