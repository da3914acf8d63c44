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
from circlet.errors import ParseError
from circlet.families import cycle, random_even, random_even_multigraph


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
    ],
)
def test_dumps_matches_the_stdlib_encoder_on_edge_shapes(doc):
    assert serialize.dumps(doc) == oracles.dumps_stdlib(doc)


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
