import pytest

import oracles
from circlet import (
    Cell,
    bridges,
    cell,
    corner_link,
    degree_profile,
    dual_multigraph,
    euler_characteristic,
    induced_subcomplex,
    serialize,
    strong_components,
    validate_regularity,
)
from circlet.complexes import Complex, build_complex
from circlet.errors import (
    BadDimension,
    BadParameters,
    DanglingReference,
    DuplicateCellId,
    EmptyBoundary,
    EmptyComplex,
    EmptyFacetSet,
    NonRegularEdge,
    NotAFacet,
    NotPure,
    ParseError,
    ZeroDimensional,
)
from circlet.families import simplex_skeleton


def labeled_cycle(n, tag, share=None):
    """Cycle cells with ids distinct per tag; vertex 0 optionally shared."""
    vs = [share if (i == 0 and share) else f"{tag}v{i}" for i in range(n)]
    out = [cell(v, 0) for v in vs]
    out += [cell(f"{tag}e{i}", 1, [vs[i], vs[(i + 1) % n]]) for i in range(n)]
    return out


def triangle_with_extra_vertex():
    return build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("c", 0),
            cell("z", 0),
            cell("ab", 1, ["a", "b"]),
            cell("bc", 1, ["b", "c"]),
            cell("ca", 1, ["c", "a"]),
            cell("f", 2, ["ab", "bc", "ca"]),
        ]
    )


# ---- construction and validation at build time ------------------------


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateCellId):
        build_complex([cell("v", 0), cell("v", 0)])


def test_dangling_boundary_rejected():
    with pytest.raises(DanglingReference):
        build_complex([cell("a", 0), cell("e", 1, ["a", "missing"])])


def test_zero_cell_with_boundary_rejected():
    with pytest.raises(BadDimension):
        build_complex([cell("a", 0), cell("b", 0, ["a"])])


def test_boundary_must_sit_one_dimension_down():
    with pytest.raises(BadDimension):
        build_complex(
            [
                cell("a", 0),
                cell("b", 0),
                cell("e", 1, ["a", "b"]),
                cell("f", 2, ["e", "a"]),
            ]
        )


def test_edge_needs_two_endpoints():
    with pytest.raises(NonRegularEdge):
        build_complex([cell("a", 0), cell("loop", 1, ["a"])])


def test_empty_boundary_rejected():
    with pytest.raises(EmptyBoundary):
        build_complex([cell("a", 0), cell("e", 1, [])])


def test_empty_complex_rejected():
    with pytest.raises(EmptyComplex):
        build_complex([])


def test_negative_dimension_rejected():
    with pytest.raises(BadDimension):
        build_complex([cell("a", -1)])


def test_plain_tuples_are_checked_as_cells():
    # plain tuples are stored as Cells, so the whole API answers
    a, b = ("a", 0, frozenset()), ("b", 0, frozenset())
    edge = ("e", 1, frozenset({"a", "b"}))
    k = Complex([a, b, edge])
    assert len(k) == 3
    assert all(type(c) is Cell for c in k)
    assert k.boundary("e") == ("a", "b")
    assert k.cell("e").id == "e"
    assert serialize.complex_json(k) == serialize.dumps(serialize.complex_to_dict(k))
    assert k == Complex([cell("a", 0), cell("b", 0), cell("e", 1, ["a", "b"])])
    with pytest.raises(DanglingReference, match="'e' references missing cell 'z'"):
        Complex([a, ("e", 1, frozenset({"a", "z"}))])
    with pytest.raises(BadDimension, match=r"'f' \(dim 2\) references 'a' of dim 0"):
        Complex([a, b, edge, ("f", 2, frozenset({"a", "e"}))])


def test_cells_are_kept_as_given():
    # a Cell whose boundary is a sorted tuple is not copied; any other
    # boundary is accepted and sorted into one
    a, e, listed = cell("a", 0), cell("e", 1, "ab"), Cell("g", 1, ["b", "a"])
    k = Complex([a, cell("b", 0), e, listed])
    assert k.cell("a") is a and k.cell("e") is e
    assert k.cell("g") == ("g", 1, ("a", "b"))
    assert k.facets_over("a") == ("e", "g")


def test_a_face_listed_twice_is_a_parse_error():
    # a set would drop the repeat: a loop edge, or a face over two edges
    # whose sides read degree 2, written to a file no loader takes back
    a, b, e, g = cell("a", 0), cell("b", 0), cell("e", 1, "ab"), cell("g", 1, "ab")
    with pytest.raises(ParseError) as info:
        Complex([a, Cell("e", 1, ("a", "a"))])
    assert str(info.value) == "cell 'e' lists 'a' more than once in its boundary"
    with pytest.raises(ParseError) as info:
        Complex([a, b, e, g, Cell("f", 2, ["e", "e", "g", "g"])])
    assert str(info.value) == "cell 'f' lists 'e' more than once in its boundary"
    # the factory still folds a repeat into one face
    assert cell("e", 1, ["b", "a", "b"]).boundary == ("a", "b")


@pytest.mark.parametrize(
    "missing, error, message",
    [
        ("a", DanglingReference, "cell 't' references missing cell 'a'"),
        ("x", BadDimension, "cell 't' (dim 2) references 'b' of dim 0"),
    ],
)
def test_mixed_bad_faces_name_the_smallest(missing, error, message):
    # 't' lies over a missing face and over 'b', two dimensions down
    cells = [
        cell("t", 2, ["e", "b", missing]),
        cell("e", 1, ["b", "c"]),
        cell("b", 0),
        cell("c", 0),
    ]
    with pytest.raises(error) as info:
        Complex(cells)
    assert str(info.value) == message
    doc = {
        "dimension": 2,
        "cells": [
            {"id": c.id, "dim": c.dim, "boundary": sorted(c.boundary)} for c in cells
        ],
    }
    assert not oracles.reads_in_one_pass(doc)
    with pytest.raises(error) as info:
        serialize.complex_from_dict(doc)
    assert str(info.value) == message


def test_build_complex_is_the_class():
    assert build_complex is Complex


def test_complex_is_immutable(tetra):
    with pytest.raises(AttributeError):
        tetra.dim = 3
    with pytest.raises(AttributeError):
        tetra.anything = 1


def test_every_slot_is_set_by_construction(tetra, delta52):
    # construction sets all five slots: the dimension, three tables and
    # _kept, where the side degrees and the decomposition are kept on
    # first ask; a slot left unset would raise AttributeError on first read
    assert len(Complex.__slots__) == 5
    for k in (tetra, delta52, build_complex([cell("a", 0)])):
        for name in Complex.__slots__:
            getattr(k, name)


def test_cell_factory_coerces_types():
    c = cell("e", 1, ["b", "a"])
    assert c.boundary == ("a", "b")
    assert c.dim == 1
    n = cell(7, True, [2, 1])
    assert n == Cell("7", 1, ("1", "2"))
    assert type(n.id) is str and type(n.dim) is int
    assert all(type(b) is str for b in n.boundary)


def test_cell_is_a_frozen_hashable_named_tuple():
    c = cell("e", 1, ["a", "b"])
    with pytest.raises(AttributeError):
        c.id = "x"
    with pytest.raises(AttributeError):
        c.anything = 1
    twin = Cell("e", 1, ("a", "b"))
    assert c == twin and hash(c) == hash(twin) and len({c, twin}) == 1
    assert c != cell("e", 1, ["a", "c"])
    # deliberate: a Cell is the tuple (id, dim, boundary)
    assert c == ("e", 1, ("a", "b"))
    cid, dim, boundary = c
    assert (cid, dim, boundary) == (c.id, c.dim, c.boundary)
    assert c._replace(id="f") == cell("f", 1, ["a", "b"])


def test_iteration_order_and_equality(tetra):
    ids = [c.id for c in tetra]
    assert ids == sorted(ids, key=lambda i: (tetra.cell(i).dim, i))
    rebuilt = build_complex(list(tetra))
    assert rebuilt == tetra
    assert rebuilt != build_complex([cell("a", 0)])
    assert tetra != list(tetra)
    assert repr(tetra) == "Complex(dim=2, cells=[4,6,4])"


# ---- queries ----------------------------------------------------------


def test_closure_of_a_facet(tetra):
    assert sorted(tetra.closure("1-2-3")) == [
        "1",
        "1-2",
        "1-2-3",
        "1-3",
        "2",
        "2-3",
        "3",
    ]
    assert tetra._kept.keys() <= {"side_degrees", "decomposition"}


def test_closure_walks_any_depth():
    # one cell per dimension up to 3000, each over the one below it: a
    # recursive walk would pass the interpreter's recursion limit
    cells = [cell("a", 0), cell("b", 0), cell("c1", 1, ["a", "b"])]
    cells += [cell(f"c{r}", r, [f"c{r - 1}"]) for r in range(2, 3001)]
    k = build_complex(cells)
    assert len(k.closure("c3000")) == 3002
    assert k.closure("c2") == {"a", "b", "c1", "c2"}
    assert k._kept == {}


def test_cell_counts(delta52):
    assert [len(delta52.cells_of_dim(r)) for r in range(3)] == [6, 15, 20]
    assert len(delta52.facets) == 20
    assert len(delta52.sides) == 15
    assert len(delta52.corners) == 6


def test_facets_over_is_sorted(delta52):
    for s in delta52.sides:
        over = delta52.facets_over(s)
        assert list(over) == sorted(over)
        assert len(over) == 4


def test_side_degrees(delta52, cube, c34):
    assert set(delta52.side_degrees.values()) == {4}
    assert set(cube.side_degrees.values()) == {2}
    assert delta52.side_degrees is delta52.side_degrees  # kept on first read
    k = simplex_skeleton(4, 2)
    with pytest.raises(TypeError):
        k.side_degrees["1-2"] = 3
    assert degree_profile(k).is_even
    hist = degree_profile(c34).histogram()
    assert hist == {2: 24, 4: 3}


def test_purity(delta52):
    assert delta52.is_pure
    impure = triangle_with_extra_vertex()
    assert not impure.is_pure
    profile = degree_profile(impure)
    assert not profile.is_pure and not profile.is_even


def test_degree_profile_on_points_rejected():
    points = build_complex([cell("a", 0), cell("b", 0)])
    with pytest.raises(ZeroDimensional):
        degree_profile(points)


def test_euler_characteristic(delta52, cube, octahedron, c34, grid):
    assert euler_characteristic(delta52) == 11
    assert euler_characteristic(cube) == 2
    assert euler_characteristic(octahedron) == 2
    assert euler_characteristic(c34) == 1
    assert euler_characteristic(grid) == -8


# ---- subcomplexes -----------------------------------------------------


def test_induced_subcomplex(delta52):
    ind = induced_subcomplex(delta52, ["1-2-3", "1-2-4", "1-3-4", "2-3-4"])
    assert [len(ind.cells_of_dim(r)) for r in range(3)] == [4, 6, 4]
    assert set(ind.cells_of_dim(0)) == {"1", "2", "3", "4"}
    with pytest.raises(NotAFacet):
        induced_subcomplex(delta52, ["1-2"])
    with pytest.raises(NotAFacet):
        induced_subcomplex(delta52, ["nope"])
    with pytest.raises(EmptyFacetSet):
        induced_subcomplex(delta52, [])


# ---- regularity checks ------------------------------------------------


def test_regularity_passes_on_fixtures(delta52, cube, octahedron, c34):
    for k in (delta52, cube, octahedron, c34):
        report = validate_regularity(k)
        assert report.passed
        assert report.violations == ()


def test_diamond_violation_open_path_boundary():
    k = build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("c", 0),
            cell("ab", 1, ["a", "b"]),
            cell("bc", 1, ["b", "c"]),
            cell("f", 2, ["ab", "bc"]),
        ]
    )
    report = validate_regularity(k)
    assert not report.passed
    rules = {v.rule for v in report.violations}
    assert "diamond" in rules


def test_boundary_connected_violation_two_circles():
    # boundary made of two disjoint digons: diamond holds, connectivity fails
    k = build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("c", 0),
            cell("d", 0),
            cell("e1", 1, ["a", "b"]),
            cell("e2", 1, ["a", "b"]),
            cell("e3", 1, ["c", "d"]),
            cell("e4", 1, ["c", "d"]),
            cell("f", 2, ["e1", "e2", "e3", "e4"]),
        ]
    )
    report = validate_regularity(k)
    rules = {v.rule for v in report.violations}
    assert rules == {"boundary-connected"}


def test_diamond_violation_in_dimension_three(tetra):
    cells = list(tetra)
    cells.append(cell("1-2-3-4", 3, ["1-2-3", "1-2-4", "1-3-4"]))
    report = validate_regularity(build_complex(cells))
    assert not report.passed
    assert any(
        v.rule == "diamond" and v.cells[0] == "1-2-3-4"
        for v in report.violations
    )


def test_dropping_a_side_breaks_regularity(cube):
    cells = []
    for c in cube:
        if c.id == "**0":
            cells.append(cell(c.id, 2, sorted(c.boundary)[:-1]))
        else:
            cells.append(c)
    report = validate_regularity(build_complex(cells))
    assert not report.passed
    assert any(v.rule == "diamond" for v in report.violations)


def test_regularity_reads_no_closures(monkeypatch, delta52, cube):
    def refuse(self, cell_id):
        raise AssertionError("closure called")

    monkeypatch.setattr(Complex, "closure", refuse)
    for k in (delta52, cube):
        assert validate_regularity(k).passed


# ---- dual multigraph, components, bridges -----------------------------


def test_dual_counts(delta52, cube):
    g = dual_multigraph(delta52)
    assert len(g.vertices) == 20
    assert len(g.edges) == 90
    assert len(dual_multigraph(cube).edges) == 12


def test_dual_edges_sorted_and_oriented(delta52):
    g = dual_multigraph(delta52)
    assert all(e.left < e.right for e in g.edges)
    assert list(g.edges) == sorted(g.edges, key=lambda e: (e.side, e.left, e.right))


def test_dual_needs_pure_positive_dim():
    with pytest.raises(ZeroDimensional):
        dual_multigraph(build_complex([cell("a", 0)]))
    with pytest.raises(NotPure):
        dual_multigraph(triangle_with_extra_vertex())


def test_strong_components_match_bfs_oracle(delta52, cube, octahedron, grid, c34):
    for k in (delta52, cube, octahedron, grid, c34):
        assert strong_components(k) == oracles.facet_components(k)
    two = build_complex(labeled_cycle(4, "a") + labeled_cycle(4, "b"))
    assert len(strong_components(two)) == 2
    assert strong_components(two) == oracles.facet_components(two)


def test_bridges_on_a_path_graph():
    k = build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("c", 0),
            cell("ab", 1, ["a", "b"]),
            cell("bc", 1, ["b", "c"]),
        ]
    )
    g = dual_multigraph(k)
    found = bridges(g)
    assert [tuple(e) for e in found] == [("ab", "bc", "b")]
    assert oracles.bridges_by_deletion(g) == [0]


def test_bridges_match_deletion_oracle(delta52, cube, octahedron, grid, c34):
    for k in (delta52, cube, octahedron, grid, c34):
        g = dual_multigraph(k)
        lib = sorted(tuple(e) for e in bridges(g))
        ora = sorted(tuple(g.edges[i]) for i in oracles.bridges_by_deletion(g))
        assert lib == ora


def test_parallel_dual_edges_are_never_bridges():
    k = build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("e1", 1, ["a", "b"]),
            cell("e2", 1, ["a", "b"]),
        ]
    )
    g = dual_multigraph(k)
    assert len(g.edges) == 2
    assert bridges(g) == []
    assert oracles.bridges_by_deletion(g) == []


# ---- corner links -----------------------------------------------------


def test_corner_links_on_closed_surfaces(cube, octahedron):
    link = corner_link(cube, "000")
    assert len(link.vertices) == 3
    assert len(link.edges) == 3
    link = corner_link(octahedron, octahedron.cells_of_dim(0)[0])
    assert len(link.vertices) == 4
    assert len(link.edges) == 4
    # every vertex meets exactly two sides inside each incident facet
    for corner in cube.corners:
        adj = corner_link(cube, corner).adjacency()
        assert all(len(nbrs) == 2 for nbrs in adj.values())


def test_corner_link_rejects_non_corner(cube):
    with pytest.raises(BadParameters):
        corner_link(cube, "**0")
    with pytest.raises(BadParameters):
        corner_link(cube, "missing")


def test_complex_repr_like_queries(delta52):
    c = delta52.cell("1-2-3")
    assert c.dim == 2
    assert delta52.boundary("1-2-3") == ("1-2", "1-3", "2-3")
    assert isinstance(delta52, Complex)
