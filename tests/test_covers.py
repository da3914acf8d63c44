import hashlib
import re

import pytest

import builders
import oracles
from circlet import (
    CircletError,
    CoverMap,
    build_glued_complex,
    canonical_gluing,
    cover_circlet,
    decompose_into_circlets,
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
from circlet.families import (
    cycle,
    finned_circlet,
    random_even,
    random_even_multigraph,
    simplex_skeleton,
)
from circlet.serialize import cover_from_dict, cover_to_dict


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
    assert set(g) == set(octahedron.sides)
    for s in octahedron.sides:
        assert len(g[s]) == 1
        a, b = g[s][0]
        assert a < b
        assert {a, b} == set(octahedron.facets_over(s))
    assert sum(len(p) for p in g.values()) == 12


def test_canonical_gluing_pairs_consecutive(delta52):
    g = canonical_gluing(delta52)
    for s in delta52.sides:
        over = delta52.facets_over(s)
        assert g[s] == ((over[0], over[1]), (over[2], over[3]))


def test_seeded_gluing_deterministic(delta52):
    a = canonical_gluing(delta52, seed=7)
    b = canonical_gluing(delta52, seed=7)
    c = canonical_gluing(delta52, seed=8)
    assert a == b
    assert a != c


def test_gluing_rejects_unknown_strategy(delta52):
    # random.Random takes a str seed, so only a keyword-only seed keeps a
    # stale positional strategy name from becoming one
    with pytest.raises(TypeError):
        canonical_gluing(delta52, "zigzag")
    with pytest.raises(TypeError):
        canonical_gluing(delta52, strategy="seeded")
    with pytest.raises(TypeError):
        cover_circlet(delta52, 7)


def test_gluing_rejects_uneven(delta42):
    with pytest.raises(NotEven):
        canonical_gluing(delta42)


# ---- building the glued complex ---------------------------------------


def test_build_glued_counts(delta52, octahedron):
    cover = build_glued_complex(delta52, canonical_gluing(delta52))
    m = cover.source
    assert [len(m.cells_of_dim(r)) for r in range(3)] == [6, 30, 20]
    assert cover.target is delta52
    m = build_glued_complex(octahedron, canonical_gluing(octahedron)).source
    assert [len(m.cells_of_dim(r)) for r in range(3)] == [6, 12, 8]


def test_side_copy_count_is_half_degree_sum(delta52):
    cover = build_glued_complex(delta52, canonical_gluing(delta52))
    total = sum(delta52.side_degrees.values())
    assert len(cover.source.sides) == total // 2


def test_glued_bookkeeping(delta52):
    g = canonical_gluing(delta52)
    cover = build_glued_complex(delta52, g)
    expected = {f"{s}#{j}": s for s in g for j in range(1, len(g[s]) + 1)}
    expected.update((f"{f}^", f) for f in delta52.facets)
    expected.update(
        (cid, cid)
        for r in range(delta52.dim - 1)
        for cid in delta52.cells_of_dim(r)
    )
    assert cover.cell_map == expected
    assert set(cover.source.sides) == {c for c in expected if "#" in c}
    assert set(cover.source.facets) == {c for c in expected if c.endswith("^")}


def test_glued_side_copies_have_degree_two(delta52):
    # a bare gluing guarantees degree two everywhere, but not
    # connectivity; stitching components together is euler_cover's job
    m = build_glued_complex(delta52, canonical_gluing(delta52)).source
    assert m.is_pure
    assert set(m.side_degrees.values()) == {2}
    assert len(strong_components(m)) == 4


def _corrupt(k, how):
    """A canonical gluing of k with one defect, named by ``how``."""
    g = canonical_gluing(k)
    s = k.sides[0]
    (a, b), *rest = g[s]
    stranger = next(f for f in k.facets if f not in k.facets_over(s))
    if how == "repeated facet":
        g[s] = ((a, a), *rest)
    elif how == "missing side":
        del g[s]
    elif how == "extra side":
        g["no-such-side"] = ()
    elif how == "non-facet id":
        g[s] = ((a, k.corners[0]), *rest)
    elif how == "facet not over side":
        g[s] = ((a, stranger), *rest)
    elif how == "two sides":  # the first side in id order is reported
        g[s] = ((a, stranger), *rest)
        (c, _), *more = g[k.sides[2]]
        g[k.sides[2]] = ((c, c), *more)
    return g


def test_build_rejects_corrupt_gluing(octahedron):
    # class and message of each defect, on a circlet and on a fold of five
    sides = "gluing sides differ from the complex's sides"
    for k, repeat, partition in [
        (
            octahedron,
            "pair at 'n1-n2' repeats facet 'n1-n2-n3'",
            "pairs at 'n1-n2' do not partition its facets",
        ),
        (
            random_even(1, 5),
            "pair at 'g0.1-2' repeats facet 'g0.1-2-3'",
            "pairs at 'g0.1-2' do not partition its facets",
        ),
    ]:
        expected = {
            "repeated facet": repeat,
            "missing side": sides,
            "extra side": sides,
            "non-facet id": partition,
            "facet not over side": partition,
            "two sides": partition,
        }
        for how, message in expected.items():
            g = _corrupt(k, how)
            with pytest.raises(GluingMismatch) as info:
                build_glued_complex(k, g)
            assert type(info.value) is GluingMismatch, how
            assert str(info.value) == message, how
            # the per-side checks the build names its faults with, alone
            with pytest.raises(GluingMismatch) as ref:
                oracles.check_gluing_by_sides(k, g)
            assert type(ref.value) is GluingMismatch, how
            assert str(ref.value) == message, how


MALFORMED_PAIRS = {
    "three-tuple": lambda a, b, c: ((a, b, c),),
    "one-tuple": lambda a, b, c: ((a,),),
    "string pair": lambda a, b, c: ("abc",),
    "string": lambda a, b, c: "abc",
    "none": lambda a, b, c: None,
    "number": lambda a, b, c: 5,
    "number in a pair": lambda a, b, c: ((a, 5),),
    "unhashable id": lambda a, b, c: ((a, [b]),),
}


@pytest.mark.parametrize("how", sorted(MALFORMED_PAIRS))
def test_build_names_malformed_pairs(how):
    # a gluing error, not a bare ValueError or TypeError, at the first
    # malformed side in id order, even with a later side wrong too
    k = random_even(3, 3)
    g = canonical_gluing(k)
    s, later = k.sides[1], k.sides[-1]
    g[s] = MALFORMED_PAIRS[how](*k.facets_over(s)[:2], k.facets[0])
    (a, _), *rest = g[later]
    g[later] = ((a, a), *rest)
    with pytest.raises(GluingMismatch) as info:
        build_glued_complex(k, g)
    assert str(info.value) == f"pairs at {s!r} are not pairs of facet ids"
    # an earlier wrong side is still named first
    g[k.sides[0]] = ()
    with pytest.raises(GluingMismatch) as info:
        build_glued_complex(k, g)
    first = k.sides[0]
    assert str(info.value) == f"pairs at {first!r} do not partition its facets"


def test_build_rejects_points():
    points = build_complex([builders.cell("a", 0), builders.cell("b", 0)])
    with pytest.raises(ZeroDimensional):
        build_glued_complex(points, {})


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
        for seed in (None, 3, 11):
            g = canonical_gluing(k, seed=seed)
            assert gluing_from_cover(build_glued_complex(k, g)) == g


def test_gluing_round_trip_keeps_copy_order():
    # spine sides of degree 24 get copies #1..#12, where "#10" < "#2" as text
    k = finned_circlet(3, 24)
    g = canonical_gluing(k, seed=5)
    assert gluing_from_cover(build_glued_complex(k, g)) == g
    # digit runs past int()'s default 4300-digit limit still compare
    vertices = ["v" + "1" * 5000 + str(i) for i in range(3)]
    k = build_complex(
        [builders.cell(v, 0) for v in vertices]
        + [
            builders.cell(f"e{i}", 1, (vertices[i - 1], vertices[i]))
            for i in range(3)
        ]
    )
    g = canonical_gluing(k)
    assert gluing_from_cover(build_glued_complex(k, g)) == g


def test_gluing_from_cover_rejects_tampering(octahedron):
    cover = cover_circlet(octahedron)

    def read_back(cell_map=None, source=None):
        cm = dict(cover.cell_map, **(cell_map or {}))
        return gluing_from_cover(CoverMap(source or cover.source, octahedron, cm))

    f1, f2 = "n1-n2-n3^", "n1-n2-p3^"
    with pytest.raises(InvalidCover) as exc:
        read_back({f1: cover.cell_map[f2]})
    assert str(exc.value) == (
        "boundary image of 'n1-n2-n3^' differs from boundary of 'n1-n2-p3'"
    )
    with pytest.raises(InvalidCover) as exc:
        read_back({f1: "n1-n2"})
    assert str(exc.value) == "'n1-n2-n3^' (dim 2) maps to dim 1"
    # a moved vertex shows at the side copies over it, through rule (f)
    with pytest.raises(InvalidCover) as exc:
        read_back({"n1": "n2"})
    assert str(exc.value) == (
        "boundary image of 'n1-n2#1' differs from boundary of 'n1-n2'"
    )
    with pytest.raises(InvalidCover) as exc:
        read_back(source=cover_circlet(cycle(4)).source)
    assert str(exc.value) == "source and target dimensions unusable"


def test_gluing_from_cover_ignores_map_keys_that_are_not_source_cells(
    octahedron,
):
    # no rule of verify_cover reads a key outside the source; the loader
    # rejects one, naming the smallest, and in the library it makes no pair
    cover = cover_circlet(octahedron)
    doc = cover_to_dict(cover)
    doc["map"] += [{"from": "ghost", "to": "n1-n2"}, {"from": "g", "to": "n1"}]
    with pytest.raises(ParseError) as exc:
        cover_from_dict(doc)
    assert str(exc.value) == "map names 'g', which is not a source cell"
    tri_a = build_complex(builders.labeled_cycle(3, "a", share="z"))
    tri_b = build_complex(builders.labeled_cycle(3, "b", share="z"))
    cover_a, cover_b = cover_circlet(tri_a), cover_circlet(tri_b)
    ghosted = CoverMap(
        cover_a.source, cover_a.target, dict(cover_a.cell_map, ghost="z")
    )
    assert cover_to_dict(merge_covers(ghosted, cover_b, "z")) == cover_to_dict(
        merge_covers(cover_a, cover_b, "z")
    )


def test_gluing_from_cover_rejects_a_double_cover():
    # a hexagon wound twice round a triangle is cellular, but two edges
    # lie over each edge of the triangle
    tri = build_complex(builders.labeled_cycle(3, "t"))
    hexagon = build_complex(builders.labeled_cycle(6, "h"))
    cm = {f"h{kind}{i}": f"t{kind}{i % 3}" for kind in "ve" for i in range(6)}
    with pytest.raises(InvalidCover) as exc:
        gluing_from_cover(CoverMap(hexagon, tri, cm))
    assert str(exc.value) == "facet map is not a bijection onto the target facets"


def test_gluing_from_cover_rejects_a_side_copy_of_degree_3():
    cover = euler_cover(two_triangles_at_z())
    # reattach be2^ from z#2 to z#1, which then lies under three edges
    cells = [
        builders.cell("be2^", 1, ("bv2#1", "z#1")) if c.id == "be2^" else c
        for c in cover.source
    ]
    moved = CoverMap(build_complex(cells), cover.target, cover.cell_map)
    with pytest.raises(InvalidCover) as exc:
        gluing_from_cover(moved)
    assert str(exc.value) == "source side 'z#1' has degree 3, expected 2"


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
    # a side both targets name, but with different endpoints in each
    tet = simplex_skeleton(4, 2)
    apart = build_complex(
        builders.relabeled(tet, lambda cid: cid if cid == "1-2" else f"b{cid}")
    )
    with pytest.raises(InvalidCover) as exc:
        merge_covers(cover_circlet(tet), cover_circlet(apart), "1-2")
    assert str(exc.value) == "targets disagree on cell '1-2'"


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
        cover = euler_cover(delta52, seed=seed)
        assert verify_cover(cover).passed
        assert_pseudomanifold(cover.source)
    again = euler_cover(delta52, seed=2)
    assert again.source == euler_cover(delta52, seed=2).source


def test_euler_cover_seed_matters_on_thick_sides(c34):
    # inside each circlet of delta52 every side has degree two, so seeds
    # cannot change anything there; the finned circlet's spine edges have
    # degree four and really give the seed a choice
    a = euler_cover(c34, seed=5)
    b = euler_cover(c34, seed=6)
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
    # two components of three circlets each: the fold stops after the first
    k = random_even(0, 3)
    twice = build_complex(
        [c for tag in "ab" for c in builders.relabeled(k, lambda cid: tag + cid)]
    )
    assert len(decompose_into_circlets(twice).parts) == 6
    for seed in (None, 3):
        with pytest.raises(NotStronglyConnected) as exc:
            euler_cover(twice, seed=seed)
        assert str(exc.value) == "cover needs one dual component"


def test_euler_cover_rejects_unknown_strategy(delta52):
    with pytest.raises(TypeError):
        euler_cover(delta52, 7)
    with pytest.raises(TypeError):
        euler_cover(delta52, "seeded")
    with pytest.raises(TypeError):
        euler_cover(delta52, strategy="seeded")


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


def test_verify_compares_facet_images_as_sets():
    # each source facet has three sides over two target sides, two of them
    # mapped to s1: its side images equal its target's boundary as a set,
    # so rule (f) stays quiet while (g) and (h) report
    cell = builders.cell
    target = build_complex(
        [cell("u", 0), cell("v", 0), cell("s1", 1, "uv"), cell("s2", 1, "uv")]
        + [cell("F", 2, ["s1", "s2"]), cell("G", 2, ["s1", "s2"])]
    )
    source = build_complex(
        [cell("u", 0), cell("v", 0)]
        + [cell(x, 1, "uv") for x in "xyz"]
        + [cell("F^", 2, "xyz"), cell("G^", 2, "xyz")]
    )
    cm = {"u": "u", "v": "v", "x": "s1", "y": "s1", "z": "s2", "F^": "F", "G^": "G"}
    cover = CoverMap(source, target, cm)
    report = verify_cover(cover)
    assert report == oracles.verify_by_links(cover)
    assert [(v.rule, v.cells) for v in report.violations] == [
        ("g-preimage-count", ("s1",)),
        ("h-corner-link", ("u", "F^")),
        ("h-corner-link", ("u", "G^")),
        ("h-corner-link", ("v", "F^")),
        ("h-corner-link", ("v", "G^")),
    ]
    assert report.violations[0].message == "side 's1' of degree 2 has 2 preimages"


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


def _tour_outcome(m):
    """The tour as checked sides, or the error's class and message."""
    try:
        sides = side_tour(m).sides
    except CircletError as exc:
        return f"{type(exc).__name__}: {exc}"
    assert sorted(sides) == sorted(m.sides)
    for s, t in zip(sides, sides[1:] + sides[:1]):
        assert set(m.facets_over(s)) & set(m.facets_over(t)), (s, t)
    return "tour " + " ".join(sides)


def test_tour_outcomes_on_cover_sources():
    sources = [euler_cover(random_even_multigraph(s)).source for s in range(200)]
    sources += [
        euler_cover(random_even(seed, size)).source
        for seed, size in ((0, 2), (5, 1), (20, 2), (20, 3))
    ]
    outcomes = [_tour_outcome(m) for m in sources]
    kinds = [o.split()[0] for o in outcomes]
    assert kinds[:200].count("tour") == 182
    assert kinds[:200].count("DualNotSimple:") == 18
    assert kinds[200:] == ["OddFacet:", "tour", "tour", "tour"]
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "705f13c81ee3000644cab42354e6b591879f9906cbf9c3fd2c22e6b2fa0e2e48"


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
    with pytest.raises(NotPseudomanifold, match="^not pure$"):
        side_tour(builders.triangle_with_extra_vertex())
