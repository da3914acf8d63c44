from itertools import combinations

import pytest

import builders
import oracles
from circlet import (
    cell,
    decompose_into_circlets,
    extract_circlet,
    find_even_subset,
    gf2,
    incidence_matrix,
    is_even_subset,
    require_circlet,
    validate_decomposition,
)
from circlet.complexes import build_complex
from circlet.errors import (
    NotCirclet,
    NotEven,
    NotPure,
    UnknownFacet,
    ZeroDimensional,
)
from circlet.families import cycle, simplex_skeleton

DELTA52_PARTS = (
    ("1-2-4", "1-2-5", "1-3-4", "1-3-5", "2-3-4", "2-3-5"),
    ("1-4-5", "1-4-6", "1-5-6", "2-4-5", "2-4-6", "2-5-6"),
    ("3-4-5", "3-4-6", "3-5-6", "4-5-6"),
    ("1-2-3", "1-2-6", "1-3-6", "2-3-6"),
)


# ---- incidence matrices -----------------------------------------------


def test_incidence_shapes(tetra, delta52):
    assert incidence_matrix(tetra).shape == (6, 4)
    assert incidence_matrix(delta52).shape == (15, 20)
    assert incidence_matrix(cycle(4)).shape == (4, 4)


def test_incidence_dense_weights(tetra):
    m = incidence_matrix(tetra)
    rows = [gf2.bit_indices(c) for c in m.columns]
    assert [len(r) for r in rows] == [3, 3, 3, 3]
    assert [sum(i in r for r in rows) for i in range(6)] == [2] * 6


def test_incidence_rows_and_columns_sorted(delta52):
    m = incidence_matrix(delta52)
    assert list(m.side_ids) == sorted(m.side_ids)
    assert list(m.facet_ids) == sorted(m.facet_ids)


def test_incidence_matches_boundaries(octahedron):
    m = incidence_matrix(octahedron)
    for j, f in enumerate(m.facet_ids):
        rows = {m.side_ids[i] for i in gf2.bit_indices(m.columns[j])}
        assert rows == set(octahedron.boundary(f))


def test_packed_matches_int_columns():
    k = simplex_skeleton(13, 2)  # 78 sides: columns wider than 64 bits
    m = incidence_matrix(k)
    rows = [gf2.bit_indices(c) for c in m.columns]
    assert max(max(r) for r in rows) >= 64
    assert [{m.side_ids[i] for i in r} for r in rows] == [
        set(k.boundary(f)) for f in m.facet_ids
    ]


def test_column_index_unknown_facet(tetra):
    m = incidence_matrix(tetra)
    with pytest.raises(UnknownFacet):
        m.column_index(["9-9-9"])


def test_incidence_rejects_points():
    with pytest.raises(ZeroDimensional):
        incidence_matrix(build_complex([cell("a", 0)]))


# ---- even subsets against the exhaustive oracle -----------------------


def test_is_even_subset_exhaustive(tetra, octahedron):
    for k in (tetra, octahedron):
        m = incidence_matrix(k)
        facets = k.facets
        for r in range(len(facets) + 1):
            for combo in combinations(facets, r):
                assert is_even_subset(m, combo) == oracles.is_even_facet_set(
                    k, combo
                )


def test_find_even_subset_exhaustive(delta42):
    m = incidence_matrix(delta42)
    facets = delta42.facets
    evens = oracles.all_even_facet_sets(delta42)
    for r in range(len(facets) + 1):
        for combo in combinations(facets, r):
            found = find_even_subset(m, combo)
            has_even = any(e <= set(combo) for e in evens)
            if found is None:
                assert not has_even
            else:
                assert has_even
                assert found <= set(combo)
                assert oracles.is_even_facet_set(delta42, found)


# ---- circlet extraction -----------------------------------------------


def test_extract_from_every_even_set(delta42):
    m = incidence_matrix(delta42)
    for start in oracles.all_even_facet_sets(delta42):
        got = extract_circlet(m, start)
        assert got <= start
        assert oracles.is_minimal_even_set(delta42, got)


def test_extract_full_set_when_already_minimal(octahedron, tetra, c34):
    for k in (octahedron, tetra, c34):
        m = incidence_matrix(k)
        assert extract_circlet(m, k.facets) == frozenset(k.facets)


def test_extract_rejects_uneven_start(delta52):
    m = incidence_matrix(delta52)
    with pytest.raises(NotEven):
        extract_circlet(m, ["1-2-3"])


# ---- decomposition ----------------------------------------------------


def test_decompose_delta52_frozen(delta52):
    dec = decompose_into_circlets(delta52)
    assert dec.parts == DELTA52_PARTS
    assert dec.all_facets() == frozenset(delta52.facets)
    assert decompose_into_circlets(delta52).parts == dec.parts


def test_decompose_single_circlets(tetra, octahedron, cube):
    for k in (tetra, octahedron, cube):
        dec = decompose_into_circlets(k)
        assert len(dec.parts) == 1
        assert dec.parts[0] == k.facets


def test_decompose_parts_are_oracle_minimal(delta52):
    for part in decompose_into_circlets(delta52).parts:
        assert oracles.is_minimal_even_set(delta52, part)


def test_decompose_one_dimensional():
    assert decompose_into_circlets(cycle(5)).parts == (
        ("e0-1", "e0-4", "e1-2", "e2-3", "e3-4"),
    )
    two_tri = build_complex(
        builders.merge_cells(
            builders.labeled_cycle(3, "a", share="z"),
            builders.labeled_cycle(3, "b", share="z"),
        )
    )
    dec = decompose_into_circlets(two_tri)
    assert dec.parts == (("be0", "be1", "be2"), ("ae0", "ae1", "ae2"))


def test_decompose_random_families():
    from circlet.families import random_even

    for seed in range(3):
        k = random_even(seed, 3)
        dec = decompose_into_circlets(k)
        assert dec.all_facets() == frozenset(k.facets)
        flat = [f for p in dec.parts for f in p]
        assert len(flat) == len(set(flat))
        for part in dec.parts:
            assert oracles.is_minimal_even_set(k, part)


def test_decompose_grid_into_cycles(grid):
    dec = decompose_into_circlets(grid)
    assert dec.all_facets() == frozenset(grid.facets)
    for part in dec.parts:
        assert oracles.is_minimal_even_set(grid, part)


def test_decompose_rejects_uneven(delta42):
    with pytest.raises(NotEven):
        decompose_into_circlets(delta42)
    with pytest.raises(NotEven):
        decompose_into_circlets(builders.path_graph())


def test_decompose_rejects_impure():
    with pytest.raises(NotPure):
        decompose_into_circlets(builders.triangle_with_extra_vertex())


# ---- decomposition validation -----------------------------------------


def test_validate_decomposition_accepts_frozen(delta52):
    assert validate_decomposition(delta52, DELTA52_PARTS).passed


def test_validate_decomposition_partition_violations(delta52):
    report = validate_decomposition(delta52, DELTA52_PARTS[:3])
    assert not report.passed
    assert {v.rule for v in report.violations} == {"partition"}

    doubled = (DELTA52_PARTS[0],) + DELTA52_PARTS
    report = validate_decomposition(delta52, doubled)
    assert {v.rule for v in report.violations} == {"partition"}

    stray = DELTA52_PARTS[:3] + (DELTA52_PARTS[3] + ("9-9-9",),)
    report = validate_decomposition(delta52, stray)
    assert {v.rule for v in report.violations} == {"partition"}


def test_validate_decomposition_even_violation(delta52):
    a = list(DELTA52_PARTS[2])
    b = list(DELTA52_PARTS[3])
    a[0], b[0] = b[0], a[0]
    report = validate_decomposition(
        delta52, (DELTA52_PARTS[0], DELTA52_PARTS[1], tuple(a), tuple(b))
    )
    assert not report.passed
    assert "even" in {v.rule for v in report.violations}


def test_validate_decomposition_minimal_violation(delta52):
    merged = tuple(sorted(DELTA52_PARTS[2] + DELTA52_PARTS[3]))
    report = validate_decomposition(
        delta52, (DELTA52_PARTS[0], DELTA52_PARTS[1], merged)
    )
    assert not report.passed
    assert "minimal" in {v.rule for v in report.violations}


# ---- circlet gate -----------------------------------------------------


def test_require_circlet_accepts(octahedron, tetra, cube, c34):
    for k in (octahedron, tetra, cube, c34, cycle(5)):
        m = require_circlet(k)
        assert m.shape[1] == len(k.facets)


def test_require_circlet_rejects(delta52, delta42):
    with pytest.raises(NotCirclet):
        require_circlet(delta52)  # even but splits further
    with pytest.raises(NotCirclet):
        require_circlet(delta42)  # odd degrees
    with pytest.raises(NotCirclet):
        require_circlet(builders.triangle_with_extra_vertex())
    with pytest.raises(NotCirclet):
        require_circlet(build_complex([cell("a", 0)]))
