import re

import pytest

import builders
import oracles
from circlet import (
    CircletDecomposition,
    CoverMap,
    Gluing,
    build_glued_complex,
    canonical_gluing,
    cover_circlet,
    covers,
    decompose_into_circlets,
    dual_multigraph,
    euler_characteristic,
    euler_cover,
    gluing_from_cover,
    merge_covers,
    side_tour,
    strong_components,
    verify_cover,
)
from circlet.complexes import build_complex, degree_profile
from circlet.errors import (
    BadParameters,
    DualNotSimple,
    GluingMismatch,
    InvalidCover,
    NoSharedSide,
    NotCirclet,
    NotEven,
    NotFacetDisjoint,
    NotPseudomanifold,
    NotPure,
    NotStronglyConnected,
    OddFacet,
    ParseError,
    ZeroDimensional,
)
from circlet.families import cycle, random_even, simplex_skeleton


def two_triangles_at_z():
    return build_complex(
        builders.merge_cells(
            builders.labeled_cycle(3, "a", share="z"),
            builders.labeled_cycle(3, "b", share="z"),
        )
    )


def assert_pseudomanifold(m):
    assert m.is_pure
    assert set(m.side_degrees.values()) == {2}
    assert len(strong_components(m)) == 1


# ---- gluings ----------------------------------------------------------


def test_canonical_gluing_octahedron(octahedron):
    g = canonical_gluing(octahedron)
    assert set(g.pairs) == set(octahedron.sides)
    for s in octahedron.sides:
        assert len(g.pairs[s]) == 1
        a, b = g.pairs[s][0]
        assert a < b
        assert {a, b} == set(octahedron.facets_over(s))
    assert sum(len(p) for p in g.pairs.values()) == 12


def test_canonical_gluing_pairs_consecutive(delta52):
    g = canonical_gluing(delta52)
    for s in delta52.sides:
        over = delta52.facets_over(s)
        assert g.pairs[s] == ((over[0], over[1]), (over[2], over[3]))


def test_seeded_gluing_deterministic(delta52):
    a = canonical_gluing(delta52, "seeded", 7)
    b = canonical_gluing(delta52, "seeded", 7)
    c = canonical_gluing(delta52, "seeded", 8)
    assert a == b
    assert a != c


def test_gluing_rejects_unknown_strategy(delta52):
    with pytest.raises(BadParameters):
        canonical_gluing(delta52, "zigzag")


def test_gluing_rejects_uneven(delta42):
    with pytest.raises(NotEven):
        canonical_gluing(delta42)


# ---- building the glued complex ---------------------------------------


def test_build_glued_counts(delta52, octahedron):
    glued, cover = build_glued_complex(delta52, canonical_gluing(delta52))
    m = glued.complex
    assert [len(m.cells_of_dim(r)) for r in range(3)] == [6, 30, 20]
    assert m is cover.source
    glued, _ = build_glued_complex(octahedron, canonical_gluing(octahedron))
    assert [len(glued.complex.cells_of_dim(r)) for r in range(3)] == [6, 12, 8]


def test_side_copy_count_is_half_degree_sum(delta52):
    glued, _ = build_glued_complex(delta52, canonical_gluing(delta52))
    total = sum(delta52.side_degrees.values())
    assert len(glued.complex.sides) == total // 2


def test_glued_bookkeeping(delta52):
    glued, cover = build_glued_complex(delta52, canonical_gluing(delta52))
    for copy, (base, j) in glued.copy_index.items():
        assert cover.cell_map[copy] == base
        assert copy == f"{base}#{j}"
    assert sorted(glued.facet_base.values()) == sorted(delta52.facets)
    for r in range(delta52.dim - 1):
        for cid in delta52.cells_of_dim(r):
            assert cover.cell_map[cid] == cid


def test_glued_side_copies_have_degree_two(delta52):
    # a bare gluing guarantees degree two everywhere, but not
    # connectivity; stitching components together is euler_cover's job
    glued, _ = build_glued_complex(delta52, canonical_gluing(delta52))
    m = glued.complex
    assert m.is_pure
    assert set(m.side_degrees.values()) == {2}
    assert len(strong_components(m)) == 4


def test_build_rejects_corrupt_gluing(octahedron):
    g = canonical_gluing(octahedron)
    pairs = dict(g.pairs)
    s = octahedron.sides[0]
    a, b = pairs[s][0]
    pairs[s] = ((a, a),)
    with pytest.raises(GluingMismatch):
        build_glued_complex(octahedron, Gluing(pairs=pairs))
    del pairs[s]
    with pytest.raises(GluingMismatch):
        build_glued_complex(octahedron, Gluing(pairs=pairs))


def test_build_rejects_points():
    points = build_complex([builders.cell("a", 0), builders.cell("b", 0)])
    with pytest.raises(ZeroDimensional):
        build_glued_complex(points, Gluing(pairs={}))


# ---- circlet covers ---------------------------------------------------


def test_cover_circlet_verifies(octahedron, tetra, c34):
    for k in (octahedron, tetra, c34, cycle(5)):
        cover = cover_circlet(k)
        report = verify_cover(cover)
        assert report.passed, report.violations
        assert_pseudomanifold(cover.source)


def test_cover_circlet_octahedron_is_a_twin(octahedron):
    cover = cover_circlet(octahedron)
    m = cover.source
    assert [len(m.cells_of_dim(r)) for r in range(3)] == [6, 12, 8]
    assert euler_characteristic(m) == 2


def test_cover_circlet_rejects_decomposable(delta52):
    with pytest.raises(NotCirclet):
        cover_circlet(delta52)


# ---- gluing round trips -----------------------------------------------


def test_gluing_round_trip(delta52, octahedron, cube):
    for k in (delta52, octahedron, cube):
        for strategy, seed in (("canonical", 0), ("seeded", 3), ("seeded", 11)):
            g = canonical_gluing(k, strategy, seed)
            _, cover = build_glued_complex(k, g)
            assert gluing_from_cover(cover) == g


def test_gluing_from_cover_rejects_tampering(octahedron):
    cover = cover_circlet(octahedron)
    cm = dict(cover.cell_map)
    f1, f2 = sorted(x for x in cm if x.endswith("^"))[:2]
    cm[f1] = cm[f2]
    with pytest.raises(InvalidCover):
        gluing_from_cover(CoverMap(cover.source, cover.target, cm))


# ---- merging ----------------------------------------------------------


def test_merge_two_triangles_into_hexagon():
    tri_a = build_complex(builders.labeled_cycle(3, "a", share="z"))
    tri_b = build_complex(builders.labeled_cycle(3, "b", share="z"))
    merged = merge_covers(cover_circlet(tri_a), cover_circlet(tri_b), "z")
    m = merged.source
    assert [len(m.cells_of_dim(r)) for r in range(2)] == [6, 6]
    assert euler_characteristic(m) == 0
    assert_pseudomanifold(m)
    assert verify_cover(merged).passed
    assert len(side_tour(m).sides) == 6


def test_merge_needs_disjoint_facets(octahedron):
    cover = cover_circlet(octahedron)
    with pytest.raises(NotFacetDisjoint):
        merge_covers(cover, cover, octahedron.sides[0])


def test_merge_needs_a_shared_side():
    tri_a = build_complex(builders.labeled_cycle(3, "a"))
    tri_b = build_complex(builders.labeled_cycle(3, "b"))
    with pytest.raises(NoSharedSide):
        merge_covers(cover_circlet(tri_a), cover_circlet(tri_b), "av0")


# ---- the cover construction -------------------------------------------


def test_euler_cover_delta52(delta52):
    cover = euler_cover(delta52)
    m = cover.source
    assert cover.target is delta52
    assert [len(m.cells_of_dim(r)) for r in range(3)] == [6, 30, 20]
    assert euler_characteristic(m) == -4
    assert_pseudomanifold(m)
    report = verify_cover(cover)
    assert report.passed, report.violations


def test_euler_cover_preimage_counts(delta52):
    cover = euler_cover(delta52)
    for s in delta52.sides:
        assert len(cover.preimage(s)) == delta52.side_degrees[s] // 2
    for f in delta52.facets:
        assert len(cover.preimage(f)) == 1
    for v in delta52.cells_of_dim(0):
        assert cover.preimage(v) == (v,)


def test_euler_cover_on_single_circlet_matches(octahedron):
    direct = cover_circlet(octahedron)
    via_cover = euler_cover(octahedron)
    assert via_cover.source == direct.source
    assert dict(via_cover.cell_map) == dict(direct.cell_map)


def test_euler_cover_seeded(delta52, c34):
    for seed in range(4):
        cover = euler_cover(delta52, strategy="seeded", seed=seed)
        assert verify_cover(cover).passed
        assert_pseudomanifold(cover.source)
    again = euler_cover(delta52, strategy="seeded", seed=2)
    assert again.source == euler_cover(delta52, strategy="seeded", seed=2).source


def test_euler_cover_seed_matters_on_thick_sides(c34):
    # inside each circlet of delta52 every side has degree two, so seeds
    # cannot change anything there; the finned circlet's spine edges have
    # degree four and really give the seed a choice
    a = euler_cover(c34, strategy="seeded", seed=5)
    b = euler_cover(c34, strategy="seeded", seed=6)
    # the id scheme keeps the map itself stable; the attachments move
    assert dict(a.cell_map) == dict(b.cell_map)
    assert a.source != b.source
    for cover in (a, b):
        assert verify_cover(cover).passed
        assert_pseudomanifold(cover.source)


def test_euler_cover_random_families():
    for seed in range(3):
        k = random_even(seed, 4)
        cover = euler_cover(k)
        assert verify_cover(cover).passed
        assert_pseudomanifold(cover.source)


def test_euler_cover_rejections(delta42):
    with pytest.raises(NotPure):
        euler_cover(builders.triangle_with_extra_vertex())
    with pytest.raises(NotEven):
        euler_cover(delta42)
    two_squares = build_complex(
        builders.merge_cells(
            builders.labeled_cycle(4, "a"), builders.labeled_cycle(4, "b")
        )
    )
    with pytest.raises(NotStronglyConnected):
        euler_cover(two_squares)


def _adjacent_parts(k):
    """The circlets of k, and the first two (in peel order) sharing a side."""
    parts = list(decompose_into_circlets(k).parts)
    sides = [set().union(*(k.boundary(f) for f in p)) for p in parts]
    for j in range(1, len(parts)):
        for i in range(j):
            if sides[i] & sides[j]:
                return parts, i, j
    raise AssertionError("no two circlets share a side")


@pytest.mark.parametrize("damage", ["merge", "split"])
def test_euler_cover_checks_every_part(monkeypatch, damage):
    # two adjacent circlets as one part is even but not minimal; a circlet
    # split in two gives two parts that are not even
    k = random_even(1, 6)
    parts, i, j = _adjacent_parts(k)
    if damage == "merge":
        bad = [tuple(sorted(parts[i] + parts[j]))]
        bad += [p for n, p in enumerate(parts) if n not in (i, j)]
    else:
        bad = [parts[i][:1], parts[i][1:]]
        bad += [p for n, p in enumerate(parts) if n != i]
    assert len(bad) >= 3  # still the multi-circlet branch
    monkeypatch.setattr(
        covers, "decompose_into_circlets", lambda _: CircletDecomposition(tuple(bad))
    )
    with pytest.raises(NotCirclet):
        euler_cover(k)
    with pytest.raises(NotCirclet):
        euler_cover(k, strategy="seeded", seed=3)


def test_euler_cover_rejects_unknown_strategy():
    with pytest.raises(BadParameters):
        euler_cover(random_even(1, 4), strategy="shuffled")
    with pytest.raises(BadParameters):
        euler_cover(simplex_skeleton(4, 2), strategy="shuffled")


@pytest.mark.parametrize("clash", ["1-2#1", "1-2-3^"])
def test_input_id_clashing_with_a_generated_id(clash):
    # vertex 1 takes the id of edge 1-2's first copy, or of a facet lift
    k = builders.renamed(simplex_skeleton(4, 2), "1", clash)
    assert degree_profile(k).is_even
    with pytest.raises(ParseError, match=re.escape(repr(clash))):
        euler_cover(k)
    with pytest.raises(ParseError):
        build_glued_complex(k, canonical_gluing(k))


# ---- cover verification -----------------------------------------------


def test_verify_flags_duplicate_facet_image(octahedron):
    cover = cover_circlet(octahedron)
    cm = dict(cover.cell_map)
    f1, f2 = sorted(x for x in cm if x.endswith("^"))[:2]
    cm[f1] = cm[f2]
    report = verify_cover(CoverMap(cover.source, cover.target, cm))
    assert not report.passed
    assert "e-facet-bijection" in {v.rule for v in report.violations}


def test_verify_flags_moved_base_vertex(octahedron):
    cover = cover_circlet(octahedron)
    cm = dict(cover.cell_map)
    v0, v1 = sorted(octahedron.cells_of_dim(0))[:2]
    cm[v0] = v1
    report = verify_cover(CoverMap(cover.source, cover.target, cm))
    assert not report.passed
    assert "d-base-skeleton" in {v.rule for v in report.violations}


def test_verify_flags_swapped_facet_images(octahedron):
    cover = cover_circlet(octahedron)
    cm = dict(cover.cell_map)
    f1, f2 = sorted(x for x in cm if x.endswith("^"))[:2]
    cm[f1], cm[f2] = cm[f2], cm[f1]
    report = verify_cover(CoverMap(cover.source, cover.target, cm))
    assert not report.passed
    assert "f-cellular" in {v.rule for v in report.violations}


def test_verify_flags_impure_source(octahedron):
    cover = cover_circlet(octahedron)
    extra = list(cover.source) + [builders.cell("stray", 0)]
    cm = dict(cover.cell_map)
    cm["stray"] = sorted(octahedron.cells_of_dim(0))[0]
    report = verify_cover(
        CoverMap(build_complex(extra), cover.target, cm)
    )
    assert not report.passed
    assert "a-source-pure" in {v.rule for v in report.violations}


# ---- side tours -------------------------------------------------------


def test_cube_tour(cube):
    tour = side_tour(cube)
    assert len(tour.sides) == 12
    assert sorted(tour.sides) == sorted(cube.sides)
    assert tour.sides[0] == min(cube.sides)
    for i, s in enumerate(tour.sides):
        t = tour.sides[(i + 1) % len(tour.sides)]
        shared = set(cube.facets_over(s)) & set(cube.facets_over(t))
        assert shared, (s, t)
    assert side_tour(cube).sides == tour.sides


def test_cycle_tour():
    tour = side_tour(cycle(5))
    assert len(tour.sides) == 5
    assert sorted(tour.sides) == ["v0", "v1", "v2", "v3", "v4"]


def test_tour_on_cover_source(cube):
    # square facets keep the per-facet side count even, so the cover
    # source of the cube boundary can be toured
    cover = cover_circlet(cube)
    tour = side_tour(cover.source)
    assert sorted(tour.sides) == sorted(cover.source.sides)


def test_tour_rejections(octahedron, tetra, delta52, grid):
    with pytest.raises(OddFacet):
        side_tour(octahedron)  # triangles have three sides
    with pytest.raises(OddFacet):
        side_tour(tetra)
    with pytest.raises(NotPseudomanifold):
        side_tour(delta52)  # side degrees four
    with pytest.raises(NotPseudomanifold):
        side_tour(grid)
    with pytest.raises(DualNotSimple):
        side_tour(builders.two_cycle())
    two_squares = build_complex(
        builders.merge_cells(
            builders.labeled_cycle(4, "a"), builders.labeled_cycle(4, "b")
        )
    )
    with pytest.raises(NotPseudomanifold):
        side_tour(two_squares)
