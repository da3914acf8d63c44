import enum
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import oracles
from circlet import (
    build_complex,
    cell,
    cover_circlet,
    decompose_into_circlets,
    dual_multigraph,
    euler_cover,
    serialize,
    side_tour,
    validate_regularity,
    verify_cover,
)
from circlet.complexes import Cell
from circlet.covers import CoverMap
from circlet.errors import (
    BadDimension,
    DanglingReference,
    DuplicateCellId,
    EmptyBoundary,
    EmptyComplex,
    NonRegularEdge,
    ParseError,
)
from circlet.families import (
    cycle,
    finned_circlet,
    random_even,
    random_even_multigraph,
)


# ---- complexes --------------------------------------------------------


def test_complex_round_trip(delta52, cube, c34, grid):
    for k in (delta52, cube, c34, grid):
        doc = serialize.complex_to_dict(k)
        assert serialize.complex_from_dict(doc) == k


def test_dumps_byte_identical(delta52):
    a = serialize.dumps(serialize.complex_to_dict(delta52))
    b = serialize.dumps(serialize.complex_to_dict(delta52))
    assert a == b
    assert a.endswith("\n")


ODD_TEXT = st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800", "😀"]
)
TEXT = st.text() | ODD_TEXT
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | TEXT
)
KEYS = TEXT | st.integers() | st.booleans() | st.none() | st.floats()
# cells and map entries: strings, ints and lists of strings under str keys
FLAT = st.dictionaries(
    TEXT, TEXT | st.integers() | st.lists(TEXT) | st.booleans()
)
DOCS = st.recursive(
    SCALARS | FLAT,
    lambda kids: (
        st.lists(kids)
        | st.tuples(kids, kids)
        | st.dictionaries(TEXT, kids)
        | st.dictionaries(KEYS, kids)
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(doc=DOCS)
def test_dumps_matches_the_stdlib_encoder(doc):
    assert serialize.dumps(doc) == oracles.dumps_stdlib(doc)


class Level(enum.IntEnum):
    ONE = 1


class Tag(str):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        (),
        [[], {}, [[]], {"a": {}}],
        {"id": "a", "dim": 0, "boundary": []},
        {"id": "a", "dim": True, "boundary": ["b", "c"]},
        {"from": "a", "to": "b", "x": 1.5, "y": ["z"]},
        {"a": "b", 1: "c", "d": ["e"]},
        {"outer": [{"k": 1, 2: [3, {"d": [4.5]}]}]},
        {"a": Level.ONE, "b": [Level.ONE, 2]},
        {Tag("k"): Tag("v"), "w": [Tag("x")]},
        {"a": 1, "1": 2, 1: 3, None: 4, True: 5, 2.5: 6},
        [float("nan"), float("inf"), -0.0, 1e300],
        ["a", ("b", "c"), None, False, -(10**30)],
        # lists of dicts that are not like-keyed rows
        [{"a": True}, {"a": 1}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": []}, {"a": ["x"]}],
        [{Tag("k"): Tag("v")}],
        ({"a": "b"},),
        [{}, {}],
        [{"a": "b"}, "c"],
        [{1: "a"}, {1: "a"}],
        [{"a": 1}, 5],
        [{"a": 1}, "a"],
    ],
)
def test_dumps_matches_the_stdlib_encoder_on_edge_shapes(doc):
    assert serialize.dumps(doc) == oracles.dumps_stdlib(doc)
    assert serialize.dumps({"k": doc}) == oracles.dumps_stdlib({"k": doc})


# a list of dicts with one key order (cells, map entries, violations) is
# written a column at a time; DOCS seldom draws two dicts with equal keys
COLUMNS = st.sampled_from([TEXT, st.integers(), st.lists(TEXT)])
ODD_VALUES = st.sampled_from([True, Level.ONE, 1.5, None, {"n": [1]}, Tag("t")])


@st.composite
def row_lists(draw):
    """1-6 like-keyed dicts, one of them sometimes made unlike the rest."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    kinds = [draw(COLUMNS) for _ in keys]
    rows = [
        {key: draw(kind) for key, kind in zip(keys, kinds)}
        for _ in range(draw(st.integers(1, 6)))
    ]
    i = draw(st.integers(0, len(rows) - 1))
    key = draw(st.sampled_from(keys))
    change = draw(st.sampled_from([None, None, "swap", "drop", "value", "row"]))
    if change == "swap" and len(keys) > 1:
        items = list(rows[i].items())
        items[0], items[-1] = items[-1], items[0]
        rows[i] = dict(items)
    elif change == "drop":
        del rows[i][key]
    elif change == "value":
        rows[i][key] = draw(ODD_VALUES)
    elif change == "row":
        rows[i] = draw(SCALARS | st.lists(TEXT))
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=row_lists())
def test_dumps_matches_the_stdlib_encoder_on_row_lists(rows):
    assert serialize.dumps(rows) == oracles.dumps_stdlib(rows)
    assert serialize.dumps({"k": rows}) == oracles.dumps_stdlib({"k": rows})


def test_dumps_rejects_what_the_stdlib_rejects():
    for doc in ({"a": object()}, [{1, 2}], {("k",): 1}):
        with pytest.raises(TypeError):
            oracles.dumps_stdlib(doc)
        with pytest.raises(TypeError):
            serialize.dumps(doc)


def test_cells_listed_in_dim_then_id_order(cube):
    doc = serialize.complex_to_dict(cube)
    keys = [(c["dim"], c["id"]) for c in doc["cells"]]
    assert keys == sorted(keys)


def test_file_round_trip(tmp_path, octahedron):
    path = tmp_path / "octa.json"
    serialize.save_complex(octahedron, path)
    assert path.read_text() == serialize.dumps(serialize.complex_to_dict(octahedron))
    assert serialize.load_complex(path) == octahedron


def test_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        serialize.complex_from_dict([])
    with pytest.raises(ParseError):
        serialize.complex_from_dict({"cells": []})
    with pytest.raises(ParseError):
        serialize.complex_from_dict({"dimension": "two", "cells": []})
    with pytest.raises(ParseError):
        serialize.complex_from_dict(
            {"dimension": 0, "cells": [{"id": "a", "dim": 0}]}
        )
    with pytest.raises(ParseError):
        serialize.complex_from_dict(
            {
                "dimension": 2,
                "cells": [{"id": "a", "dim": 0, "boundary": []}],
            }
        )
    doc = serialize.cover_to_dict(cover_circlet(cycle(4)))
    doc["map"] = {}
    with pytest.raises(ParseError, match="'map' must be a list"):
        serialize.cover_from_dict(doc)
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        serialize.load_complex(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        serialize.load_complex(bad)
    # a boundary naming an id twice: a set would drop the repeat and load
    # a digon or a plain edge
    digon = [
        {"id": "a", "dim": 0, "boundary": []},
        {"id": "b", "dim": 0, "boundary": []},
        {"id": "e", "dim": 1, "boundary": ["a", "b"]},
        {"id": "g", "dim": 1, "boundary": ["b", "a"]},
    ]
    for repeat, message in (
        ({"id": "f", "dim": 2, "boundary": ["g", "e", "g", "e"]}, "'f' lists 'e'"),
        ({"id": "x", "dim": 1, "boundary": ["a", "b", "b"]}, "'x' lists 'b'"),
    ):
        doc = {"dimension": repeat["dim"], "cells": [*digon, repeat]}
        with pytest.raises(ParseError, match=message):
            serialize.complex_from_dict(doc)
    # a cover whose source holds such a cell fails to load too
    doc = serialize.cover_to_dict(cover_circlet(cycle(4)))
    doc["source"]["cells"][-1]["boundary"] *= 2
    with pytest.raises(ParseError, match="more than once in its boundary"):
        serialize.cover_from_dict(doc)


class CountedStr(str):
    """A str that counts the equality tests made on it."""

    calls = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        CountedStr.calls += 1
        return str.__eq__(self, other)


def test_repeated_boundary_id_is_found_in_one_pass(monkeypatch):
    # one edge over n distinct ids and a repeat: counting each id's
    # occurrences makes about n * n equality tests, a hostile file's hang
    n = 1000
    ids = [CountedStr(f"v{i}") for i in range(n)]
    vertices = [{"id": v, "dim": 0, "boundary": []} for v in ids]
    edge = {"id": "e", "dim": 1, "boundary": [*ids, CountedStr("v7")]}
    monkeypatch.setattr(CountedStr, "calls", 0)
    with pytest.raises(
        ParseError, match="^cell 'e' lists 'v7' more than once in its boundary$"
    ):
        serialize.complex_from_dict({"dimension": 1, "cells": [*vertices, edge]})
    assert CountedStr.calls < 10 * n


def test_boolean_dimensions_rejected(tetra):
    # JSON true is a Python int equal to 1; it must not pass as a dimension
    doc = serialize.complex_to_dict(tetra)
    for entry in doc["cells"]:
        if entry["dim"] == 1:
            entry["dim"] = True
    with pytest.raises(ParseError):
        serialize.complex_from_dict(doc)
    doc = serialize.complex_to_dict(cycle(3))
    doc["dimension"] = True
    with pytest.raises(ParseError):
        serialize.complex_from_dict(doc)


# ---- the one pass for canonical documents ------------------------------


class Entry(dict):
    pass


def entry(doc, cid):
    return next(e for e in doc["cells"] if e["id"] == cid)


def tag_ids(doc):
    for e in doc["cells"]:
        e["id"], e["boundary"] = Tag(e["id"]), [*map(Tag, e["boundary"])]


def put(doc, new):
    """Insert a cell entry where (dim, id) order puts it."""
    at = sum((e["dim"], e["id"]) < (new["dim"], new["id"]) for e in doc["cells"])
    doc["cells"].insert(at, new)


def lift_faces(doc):
    """Move the 2-cells to dimension 3, over the edges."""
    for e in doc["cells"]:
        if e["dim"] == 2:
            e["dim"] = 3


# edits of the tetrahedron's canonical document (ids "1", "1-2", "1-2-3"),
# each either a fault or a subclass, with the class the general path raises
HAND_MADE = {
    "bool-dim": (lambda d: entry(d, "1-2").update(dim=True), ParseError),
    "bool-dim-0": (lambda d: entry(d, "1").update(dim=False), ParseError),
    "float-dim": (lambda d: entry(d, "1-2-3").update(dim=2.0), ParseError),
    "dict-subclass-entry": (
        lambda d: d["cells"].__setitem__(5, Entry(d["cells"][5])), None,
    ),
    "str-subclass-ids": (tag_ids, None),
    "str-subclass-face": (
        lambda d: entry(d, "1-2").update(boundary=["1", Tag("2")]), None,
    ),
    "repeated-boundary-id": (
        lambda d: entry(d, "1-2-3")["boundary"].append("1-2"), ParseError,
    ),
    "dangling": (
        lambda d: entry(d, "1-2").update(boundary=["1", "9"]), DanglingReference,
    ),
    "two-down": (
        lambda d: entry(d, "1-2-3").update(boundary=["1", "1-3", "2-3"]), BadDimension,
    ),
    "same-dim": (lambda d: entry(d, "1-3").update(boundary=["1", "1-2"]), BadDimension),
    "one-up": (lambda d: entry(d, "1-2").update(boundary=["1", "1-2-3"]), BadDimension),
    "id-across-dims": (
        lambda d: put(d, {"id": "1", "dim": 2, "boundary": ["1-2", "1-3", "2-3"]}),
        DuplicateCellId,
    ),
    "id-across-dims-later": (
        lambda d: put(d, {"id": "3-4", "dim": 2, "boundary": ["1-2", "1-3", "2-3"]}),
        DuplicateCellId,
    ),
    "id-twice-in-a-dim": (
        lambda d: put(d, {"id": "1-2", "dim": 1, "boundary": ["1", "2"]}),
        DuplicateCellId,
    ),
    "3-endpoint-edge": (
        lambda d: entry(d, "1-2").update(boundary=["1", "2", "3"]), NonRegularEdge,
    ),
    "1-endpoint-edge": (
        lambda d: entry(d, "1-2").update(boundary=["1"]), NonRegularEdge,
    ),
    "empty-boundary": (lambda d: entry(d, "1-2-3").update(boundary=[]), EmptyBoundary),
    "empty-edge": (lambda d: entry(d, "1-2").update(boundary=[]), EmptyBoundary),
    "0-cell-boundary": (lambda d: entry(d, "2").update(boundary=["1"]), BadDimension),
    "negative-dim": (
        lambda d: put(d, {"id": "z", "dim": -1, "boundary": []}), BadDimension,
    ),
    "gap": (lift_faces, BadDimension),
    "gap-declared": (
        lambda d: lift_faces(d) or d.update(dimension=3), BadDimension,
    ),
    "no-vertices": (
        lambda d: d.update(cells=[e for e in d["cells"] if e["dim"]]), DanglingReference,
    ),
    "dimension-over": (lambda d: d.update(dimension=3), ParseError),
    "dimension-under": (lambda d: d.update(dimension=1), ParseError),
    "empty-cells": (lambda d: d.update(cells=[]), EmptyComplex),
    "empty-cells-dim-0": (lambda d: d.update(cells=[], dimension=0), EmptyComplex),
    "unhashable-face": (
        lambda d: entry(d, "1-2").update(boundary=["1", ["2"]]), ParseError,
    ),
    "int-face": (lambda d: entry(d, "1-2").update(boundary=["1", 2]), ParseError),
    "no-boundary-key": (lambda d: entry(d, "1-2").pop("boundary"), ParseError),
    "edges-swapped": (
        lambda d: d["cells"].insert(4, d["cells"].pop(5)), None,
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_loader_names_faults_as_the_general_path(tetra, case):
    edit, error = HAND_MADE[case]
    doc = serialize.complex_to_dict(tetra)
    edit(doc)
    assert not oracles.reads_in_one_pass(doc)
    want = oracles.load_outcome(oracles.complex_by_general_path, doc)
    assert oracles.load_outcome(serialize.complex_from_dict, doc) == want
    if error is None:
        assert want == oracles.tables(tetra)
    else:
        assert want[0] is error


# canonical tetrahedron edits with the class and message the loader must
# raise: malformed entries are named in document order, before any fault
# between cells
PRECEDENCE = {
    "dangling-then-bool-dim": (
        [("1-2", {"boundary": ["1", "9"]}), ("1-2-3", {"dim": True})],
        ParseError,
        "bad cell entry for id '1-2-3'",
    ),
    "dangling-only": (
        [("1-2", {"boundary": ["1", "9"]})],
        DanglingReference,
        "cell '1-2' references missing cell '9'",
    ),
    "two-malformed": (
        [("1-3", {"boundary": ["1", 3]}), ("1-2-4", {"dim": True})],
        ParseError,
        "bad cell entry for id '1-3'",
    ),
    "repeat-then-bool-dim": (
        [("1-2", {"boundary": ["1", "2", "1"]}), ("2-4", {"dim": False})],
        ParseError,
        "cell '1-2' lists '1' more than once in its boundary",
    ),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_loader_fault_precedence(tetra, case):
    edits, error, message = PRECEDENCE[case]
    doc = serialize.complex_to_dict(tetra)
    for cid, fields in edits:
        entry(doc, cid).update(fields)
    with pytest.raises(error) as info:
        serialize.complex_from_dict(doc)
    assert type(info.value) is error
    assert str(info.value) == message


# ---- decompositions ---------------------------------------------------


def test_decomposition_round_trip(delta52):
    dec = decompose_into_circlets(delta52)
    doc = serialize.decomposition_to_dict(dec)
    assert doc == {"parts": [list(part) for part in dec.parts]}
    assert json.loads(serialize.dumps(doc)) == doc


# ---- covers -----------------------------------------------------------


def test_cover_round_trip(delta52):
    cover = euler_cover(delta52)
    doc = serialize.cover_to_dict(cover)
    back = serialize.cover_from_dict(doc)
    assert back.source == cover.source
    assert back.target == cover.target
    assert dict(back.cell_map) == dict(cover.cell_map)
    assert verify_cover(back).passed


def test_cover_map_entries_sorted(octahedron):
    doc = serialize.cover_to_dict(cover_circlet(octahedron))
    froms = [e["from"] for e in doc["map"]]
    assert froms == sorted(froms)


def test_cover_with_target_by_reference(tmp_path, octahedron):
    cover = cover_circlet(octahedron)
    target_path = tmp_path / "base.json"
    serialize.save_complex(octahedron, target_path)
    doc = serialize.cover_to_dict(cover)
    doc["target"] = "base.json"
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(serialize.dumps(doc))
    back = serialize.load_cover(cover_path)
    assert back.target == octahedron
    assert verify_cover(back).passed


def test_cover_parse_errors():
    with pytest.raises(ParseError):
        serialize.cover_from_dict({"source": {}, "map": []})
    with pytest.raises(ParseError):
        serialize.cover_from_dict("nope")
    base = {
        "source": {"dimension": 0, "cells": [{"id": "a", "dim": 0, "boundary": []}]},
        "target": {"dimension": 0, "cells": [{"id": "a", "dim": 0, "boundary": []}]},
    }
    with pytest.raises(ParseError):
        serialize.cover_from_dict({**base, "map": [{"from": "a"}]})
    with pytest.raises(ParseError):
        serialize.cover_from_dict(
            {
                **base,
                "map": [
                    {"from": "a", "to": "a"},
                    {"from": "a", "to": "a"},
                ],
            }
        )


# ---- the template emitters --------------------------------------------

# id prefixes that need escaping, or that sort apart from numeric order
# once a number follows them (s#2 after s#10)
AWKWARD = ['"', "\\", "\x07", "\u00e9", "\u2028", "\U0001f600", "s#"]


def awkward_ids(k, rng):
    """k with every id renamed to an awkward prefix and a number."""
    ids = [c.id for c in k]
    fresh = [f"{rng.choice(AWKWARD)}{i}" for i in range(len(ids))]
    rng.shuffle(fresh)
    name = dict(zip(ids, fresh))
    return build_complex(
        [cell(name[c.id], c.dim, [name[b] for b in c.boundary]) for c in k]
    )


COMPLEXES = st.builds(
    random_even, st.integers(0, 10**6), st.integers(1, 8)
) | st.builds(random_even_multigraph, st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(
    k=COMPLEXES,
    rng=st.randoms(),
    rename=st.booleans(),
    seed=st.sampled_from([None, 3, 7]),
)
def test_emitters_match_the_reference(k, rng, rename, seed):
    if rename:
        k = awkward_ids(k, rng)
    assert serialize.complex_json(k) == serialize.dumps(serialize.complex_to_dict(k))
    cover = euler_cover(k, seed=seed)
    expected = serialize.dumps(serialize.cover_to_dict(cover))
    assert serialize.cover_json(cover) == expected


@pytest.mark.parametrize(
    "family, a, b",
    [(random_even, 1, 80), (random_even, 7919, 80), (finned_circlet, 20, 8)],
)
def test_writers_agree_at_workload_size(family, a, b):
    # the size of the benchmark's largest fold rung and circuit input
    cover = euler_cover(family(a, b))
    doc = serialize.cover_to_dict(cover)
    assert serialize.dumps(doc) == serialize.cover_json(cover) == oracles.dumps_stdlib(doc)
    # a tampered cover's violations are rows of a string, a list and a string
    cell_map = dict(cover.cell_map)
    f1, f2 = list(cover.source.facets)[:2]
    cell_map[f1] = cell_map[f2]
    report = serialize.report_to_dict(
        verify_cover(CoverMap(cover.source, cover.target, cell_map))
    )
    assert len(report["violations"]) > 1
    assert serialize.dumps(report) == oracles.dumps_stdlib(report)


def test_emitters_on_a_point_and_an_empty_map():
    point = build_complex([cell("p", 0)])
    empty = CoverMap(source=point, target=point, cell_map={})
    assert serialize.complex_json(point) == serialize.dumps(serialize.complex_to_dict(point))
    assert serialize.cover_json(empty) == serialize.dumps(serialize.cover_to_dict(empty))


def test_emitters_write_dims_as_integers():
    # a bool dim is outside the loader's contract; the emitter writes the
    # integer, which loads back to an equal complex, where the reference
    # writes a JSON boolean that the loader rejects
    k = build_complex(
        [
            Cell("a", False, frozenset()),
            Cell("b", 0, frozenset()),
            Cell("e", True, frozenset({"a", "b"})),
        ]
    )
    text = serialize.complex_json(k)
    assert '"dim": true' not in text and '"dimension": 1,' in text
    assert serialize.complex_from_dict(json.loads(text)) == k
    reference = serialize.dumps(serialize.complex_to_dict(k))
    assert '"dim": true' in reference
    with pytest.raises(ParseError):
        serialize.complex_from_dict(json.loads(reference))


def test_emitters_reject_non_string_ids():
    k = build_complex([Cell(1, 0, frozenset())])
    with pytest.raises(TypeError):
        serialize.complex_json(k)
    point = build_complex([cell("p", 0)])
    with pytest.raises(TypeError):
        serialize.cover_json(CoverMap(source=point, target=point, cell_map={"p": 1}))


# ---- tours and reports ------------------------------------------------


def test_tour_and_report_docs(cube):
    tour = side_tour(cube)
    listed = serialize.tour_to_list(tour)
    assert listed == list(tour.sides)
    json.dumps(listed)

    report = validate_regularity(cube)
    doc = serialize.report_to_dict(report)
    assert doc == {"passed": True, "violations": []}


def test_report_doc_with_violations():
    from circlet import cell
    from circlet.complexes import build_complex

    bad = build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("c", 0),
            cell("ab", 1, ["a", "b"]),
            cell("bc", 1, ["b", "c"]),
            cell("f", 2, ["ab", "bc"]),
        ]
    )
    doc = serialize.report_to_dict(validate_regularity(bad))
    assert doc["passed"] is False
    assert doc["violations"]
    entry = doc["violations"][0]
    assert set(entry) == {"rule", "cells", "message"}
    json.dumps(doc)


# ---- DOT export -------------------------------------------------------


def test_dual_to_dot_simple(cube):
    dot = serialize.dual_to_dot(dual_multigraph(cube))
    assert dot.startswith("graph dual {")
    assert dot.rstrip().endswith("}")
    assert dot.count(" -- ") == 12
    assert '"**0" -- "**1"' not in dot  # opposite faces share no edge
    assert "x2" not in dot


def test_dual_to_dot_parallel_edges():
    dot = serialize.dual_to_dot(dual_multigraph(builders.two_cycle()))
    assert dot.count(" -- ") == 1
    assert 'label="x2: a, b"' in dot
    assert "penwidth=1.6" in dot


def test_dual_to_dot_escapes_quotes_and_backslashes():
    # a triangle whose edge (facet) and vertex (side) ids hold " and a
    # trailing \; raw, each would end its quoted DOT string early
    k = build_complex(
        [
            cell("a", 0),
            cell('v"', 0),
            cell("w\\", 0),
            cell('e"1', 1, ["a", 'v"']),
            cell("x\\", 1, ['v"', "w\\"]),
            cell("ok", 1, ["w\\", "a"]),
        ]
    )
    dot = serialize.dual_to_dot(dual_multigraph(k))
    quoted = r'"((?:[^"\\]|\\.)*)"'
    statement = re.compile(
        rf"  {quoted}(?: -- {quoted} \[label={quoted}, penwidth=[\d.]+\])?;"
    )
    lines = dot.splitlines()
    assert lines[0] == "graph dual {" and lines[-1] == "}"
    names = []
    for line in lines[1:-1]:
        match = statement.fullmatch(line)
        assert match, line
        names += [re.sub(r"\\(.)", r"\1", g) for g in match.groups() if g]
    assert set(names) == {'e"1', "x\\", "ok", "a", 'v"', "w\\"}
