"""JSON file formats and DOT export.

All emitters are canonical: cells sorted by (dim, id), boundaries and
map entries sorted by id, two-space indentation. Loading a canonical
file and saving it again reproduces it byte for byte.

Two writers produce that text. :func:`complex_json` and
:func:`cover_json` write complex and cover documents straight from the
cells, one template per cell; ``save_complex`` and the CLI's ``cover``
and ``generate`` use them. :func:`dumps` writes every other document
(reports, decompositions, tours, errors) from plain dicts and lists: a
list of like-keyed objects a column at a time, a lone object by plain
recursion. ``dumps(complex_to_dict(k))`` and ``dumps(cover_to_dict(c))``
stay as the reference the emitters must equal byte for byte.

:func:`complex_from_dict` reads a canonical document (cells in strict
(dim, id) order from dimension 0, each boundary strictly increasing) in
one pass, building the tables as it checks each cell. Any other document is checked entry by entry, and then
``Complex`` sorts the cells by (dim, id) and checks them together.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any

from .complexes import (
    Cell,
    Complex,
    DualMultigraph,
    ValidationReport,
    _sorted_faces,
    build_complex,
)
from .covers import CoverMap, SideTour
from .errors import ParseError
from .matroid import CircletDecomposition

__all__ = [
    "complex_to_dict",
    "complex_json",
    "complex_from_dict",
    "save_complex",
    "load_complex",
    "decomposition_to_dict",
    "cover_to_dict",
    "cover_json",
    "cover_from_dict",
    "load_cover",
    "tour_to_list",
    "report_to_dict",
    "dumps",
    "dual_to_dot",
]


_escape = json.encoder.encode_basestring_ascii  # C: quote and escape a str
_is_str = str.__instancecheck__


def dumps(doc: Any) -> str:
    """Canonical JSON text: 2-space indent, ASCII escapes, trailing newline.

    The text is exactly ``json.dumps(doc, indent=2) + "\\n"``. The stdlib
    encodes with its generator-based Python encoder whenever ``indent``
    is set, so this writes the same text into one list instead, every
    string through the C escaper. A list of strings is joined in one
    piece; a list of objects with one key order whose columns are all
    strings, all ints or all lists of strings (cells, map entries,
    violations) is written a column at a time; a lone object goes by
    plain recursion. Floats, int subclasses, non-string keys and anything
    else go to ``json.dumps``.
    """
    out: list[str] = []
    _encode(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _encode(o: Any, out: list[str], nl: str) -> None:
    """Append the text of o; ``nl`` is a newline and the indent of its line."""
    kind = type(o)
    if kind is str:
        out.append(_escape(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif kind is int:  # int subclasses fall through to json.dumps
        out.append(int.__repr__(o))
    elif isinstance(o, dict) and o:
        if not all(map(_is_str, o)):
            out.append(json.dumps(o, indent=2).replace("\n", nl))
            return
        inner = nl + "  "
        sep = "," + inner
        lead = "{" + inner
        for key, value in o.items():
            out.append(f"{lead}{_escape(key)}: ")
            _encode(value, out, inner)
            lead = sep
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)) and o:
        inner = nl + "  "
        sep = "," + inner
        if all(map(_is_str, o)):
            out.append(f"[{inner}{sep.join(map(_escape, o))}{nl}]")
            return
        if (text := _rows(o, nl)) is not None:
            out.append(text)
            return
        lead = "[" + inner
        for item in o:
            out.append(lead)
            _encode(item, out, inner)
            lead = sep
        out.append(nl + "]")
    else:  # floats, int and str subclasses, empty containers: one line
        out.append(json.dumps(o))


def _rows(o: list | tuple, nl: str) -> str | None:
    """The text of list o at ``nl``, written a column at a time, or None.

    Every item must be a non-empty dict with the first item's str keys in
    the same order, and each column all ``str``, all ``int`` or all lists
    of strings: the shapes of cells, map entries and violations.
    """
    first = o[0]
    if type(first) is not dict or not first or not all(map(_is_str, first)):
        return None
    keys = list(first)
    if set(map(type, o)) != {dict} or not all(map(keys.__eq__, map(list, o))):
        return None
    i1, i2, i3 = (nl + "  " * n for n in range(1, 4))
    join = ("," + i3).join
    columns, head = [], "{" + i2
    for key in keys:
        col = list(map(itemgetter(key), o))
        kinds = set(map(type, col))
        if kinds == {str}:
            texts = map(_escape, col)
        elif kinds == {int}:
            texts = map(int.__repr__, col)
        elif kinds == {list} and all(map(_is_str, chain.from_iterable(col))):
            texts = [f"[{i3}{join(map(_escape, v))}{i2}]" if v else "[]" for v in col]
        else:
            return None
        columns.append(map(f"{head}{_escape(key)}: ".__add__, texts))
        head = "," + i2
    rows = f"{i1}}},{i1}".join(map("".join, zip(*columns)))
    return f"[{i1}{rows}{i1}}}{nl}]"


# ---- complexes --------------------------------------------------------


def complex_to_dict(k: Complex) -> dict[str, Any]:
    cells = [
        {"id": c.id, "dim": c.dim, "boundary": list(c.boundary)}
        for c in k
    ]
    return {"dimension": k.dim, "cells": cells}


def _complex_text(k: Complex, nl: str) -> str:
    """The complex document as :func:`dumps` indents it after ``nl``."""
    i1, i2, i3, i4 = (nl + "  " * n for n in range(1, 5))
    head = f'{{{i3}"id": '
    dim = f',{i3}"dim": '
    leaf = f',{i3}"boundary": []{i2}}}'
    wide = f',{i3}"boundary": [{i4}'
    tail = f'{i3}]{i2}}}'
    esc, join = _escape, ("," + i4).join
    cells = [
        f"{head}{esc(cid)}{dim}{r:d}{wide}{join(map(esc, boundary))}{tail}"
        if boundary
        else f"{head}{esc(cid)}{dim}{r:d}{leaf}"
        for cid, r, boundary in k
    ]
    body = ("," + i2).join(cells)
    return f'{{{i1}"dimension": {k.dim:d},{i1}"cells": [{i2}{body}{i1}]{nl}}}'


def complex_json(k: Complex) -> str:
    """``dumps(complex_to_dict(k))``, written straight from the cells.

    Ids must be ``str`` (else TypeError). Dims are written as integers: a
    hand-built ``bool`` dim comes out as 0 or 1, which loads back to an
    equal complex, where the reference writes a boolean the loader rejects.
    """
    return _complex_text(k, "\n") + "\n"


def complex_from_dict(doc: Any) -> Complex:
    """Load a complex document: a canonical one in one pass, any other (or
    any fault) entry by entry, where the first malformed entry in document
    order raises ParseError before ``Complex`` checks the cells."""
    if not isinstance(doc, dict):
        raise ParseError("complex document must be a JSON object")
    try:
        dimension = doc["dimension"]
        raw_cells = doc["cells"]
    except KeyError as exc:
        raise ParseError(f"complex document missing key: {exc}") from exc
    if (
        not isinstance(dimension, int)
        or isinstance(dimension, bool)  # JSON true/false load as ints
        or not isinstance(raw_cells, list)
    ):
        raise ParseError("bad types for 'dimension' or 'cells'")
    if (k := _canonical_complex(raw_cells, dimension)) is not None:
        return k
    k = build_complex([_checked_cell(entry) for entry in raw_cells])
    if k.dim != dimension:
        raise ParseError(
            f"declared dimension {dimension} but cells reach {k.dim}"
        )
    return k


def _checked_cell(entry: Any) -> Cell:
    """The Cell of one document entry; ParseError names a malformed entry."""
    if not isinstance(entry, dict):
        raise ParseError("each cell must be a JSON object")
    try:
        cid, dim, boundary = entry["id"], entry["dim"], entry["boundary"]
    except KeyError as exc:
        raise ParseError(f"cell entry missing key {exc}") from exc
    if (
        not isinstance(cid, str)
        or not isinstance(dim, int)
        or isinstance(dim, bool)  # JSON true/false load as ints
        or not isinstance(boundary, list)
        or not all(isinstance(b, str) for b in boundary)
    ):
        raise ParseError(f"bad cell entry for id {cid!r}")
    return Cell(cid, dim, _sorted_faces(cid, boundary))


_fields = itemgetter("id", "dim", "boundary")


def _canonical_complex(raw_cells: Any, dimension: int) -> Complex | None:
    """The complex of cells in strict (dim, id) order from dimension 0, or None.

    One pass: each entry is type-checked, made a Cell, and made a coface of
    its boundary ids, found among the previous dimension's ids alone. At
    the first thing a canonical file cannot hold (cells or faces out of
    order, a subclass of dict, str, int or list, any fault) it returns None.
    """
    if type(raw_cells) is not list:
        return None
    cells: dict[str, Cell] = {}
    by_dim, ids = [], []  # ids per dimension, in order
    levels, below = [], {}  # per dimension below this one: id -> cofaces
    r, last = 0, ""  # the dimension and id of the last entry
    new = tuple.__new__
    try:
        for entry in raw_cells:
            if type(entry) is not dict:
                return None
            cid, dim, faces = _fields(entry)
            if type(cid) is not str or type(dim) is not int or type(faces) is not list:
                return None
            if dim != r:
                if dim != r + 1 or not ids:
                    return None
                by_dim.append(tuple(ids))
                below = {b: [] for b in ids}  # cofaces, filled from this dimension
                levels.append(below)
                ids, r = [], dim
            elif cid <= last and ids:
                return None
            last, prev = cid, ""
            for b in faces:
                if type(b) is not str or b <= prev:  # "" goes the general way
                    return None
                below[b].append(cid)
                prev = b
            # faces were found one dimension down in increasing order; left
            # to check: a face on every cell above dimension 0, 2 on an edge
            if dim and not faces or dim == 1 and len(faces) != 2:
                return None
            ids.append(cid)
            cells[cid] = new(Cell, (cid, dim, tuple(faces)))
    except KeyError:  # a missing key, or a face not one dimension down
        return None
    by_dim.append(tuple(ids))
    if not ids or len(by_dim) != dimension + 1 or len(cells) < sum(map(len, by_dim)):
        return None  # empty, a declared dimension off, or an id seen twice
    cofaces = {b: tuple(up) for level in levels for b, up in level.items() if up}
    return Complex.__new__(Complex)._fill(cells, tuple(by_dim), cofaces)


def save_complex(k: Complex, path: str | Path) -> None:
    Path(path).write_text(complex_json(k))


def _read_json(path: str | Path) -> Any:
    """Parse a JSON file; any failure to read or parse it is a ParseError."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: bad bytes, NUL in path
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def load_complex(path: str | Path) -> Complex:
    return complex_from_dict(_read_json(path))


# ---- decompositions ---------------------------------------------------


def decomposition_to_dict(d: CircletDecomposition) -> dict[str, Any]:
    return {"parts": [list(part) for part in d.parts]}


# ---- covers -----------------------------------------------------------


def cover_to_dict(cover: CoverMap) -> dict[str, Any]:
    entries = [
        {"from": src, "to": cover.cell_map[src]}
        for src in sorted(cover.cell_map)
    ]
    return {
        "source": complex_to_dict(cover.source),
        "target": complex_to_dict(cover.target),
        "map": entries,
    }


def cover_json(cover: CoverMap) -> str:
    """``dumps(cover_to_dict(cover))``; map ids must be ``str`` too."""
    m, esc, nl = cover.cell_map, _escape, "\n  "
    entries = ",\n    ".join([
        f'{{\n      "from": {esc(s)},\n      "to": {esc(m[s])}\n    }}'
        for s in sorted(m)
    ])
    source, target = _complex_text(cover.source, nl), _complex_text(cover.target, nl)
    body = f"[\n    {entries}\n  ]" if m else "[]"
    return f'{{{nl}"source": {source},{nl}"target": {target},{nl}"map": {body}\n}}\n'


def cover_from_dict(doc: Any, base_dir: Path | None = None) -> CoverMap:
    """Parse a cover; the target may be inline or name a regular file."""
    if not isinstance(doc, dict):
        raise ParseError("cover document must be a JSON object")
    for key in ("source", "target", "map"):
        if key not in doc:
            raise ParseError(f"cover document missing {key!r}")
    source = complex_from_dict(doc["source"])
    target_doc = doc["target"]
    if isinstance(target_doc, str):
        ref = Path(target_doc)
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        if not ref.is_file():  # a FIFO or a device could block or never end
            raise ParseError(f"cover target {ref} is not a regular file")
        target = load_complex(ref)
    else:
        target = complex_from_dict(target_doc)
    if not isinstance(doc["map"], list):
        raise ParseError("cover 'map' must be a list")
    cell_map: dict[str, str] = {}
    for entry in doc["map"]:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("from"), str)
            or not isinstance(entry.get("to"), str)
        ):
            raise ParseError("each map entry needs string 'from' and 'to'")
        if entry["from"] in cell_map:
            raise ParseError(f"map lists {entry['from']!r} twice")
        cell_map[entry["from"]] = entry["to"]
    if stray := cell_map.keys() - source._cells.keys():
        raise ParseError(f"map names {min(stray)!r}, which is not a source cell")
    return CoverMap(source=source, target=target, cell_map=cell_map)


def load_cover(path: str | Path) -> CoverMap:
    return cover_from_dict(_read_json(path), base_dir=Path(path).parent)


# ---- tours and reports ------------------------------------------------


def tour_to_list(tour: SideTour) -> list[str]:
    return list(tour.sides)


def report_to_dict(report: ValidationReport) -> dict[str, Any]:
    return {
        "passed": report.passed,
        "violations": [
            {"rule": v.rule, "cells": list(v.cells), "message": v.message}
            for v in report.violations
        ],
    }


# ---- DOT --------------------------------------------------------------


def _dot_quote(s: str) -> str:
    """``s`` as a quoted DOT string: backslashes and quotes escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dual_to_dot(g: DualMultigraph) -> str:
    """Render a dual multigraph; parallel edges collapse to one line.

    Each facet pair gets a single edge labeled with its shared sides and,
    when there are several, a multiplicity marker and a heavier stroke.
    """
    lines = ["graph dual {"]
    for v in g.vertices:
        lines.append(f"  {_dot_quote(v)};")
    grouped: dict[tuple[str, str], list[str]] = {}
    for e in g.edges:
        grouped.setdefault((e.left, e.right), []).append(e.side)
    for (a, b), sides in sorted(grouped.items()):
        sides = sorted(sides)
        label = ", ".join(sides)
        if len(sides) > 1:
            label = f"x{len(sides)}: {label}"
        width = 1.0 + 0.6 * (len(sides) - 1)
        lines.append(
            f"  {_dot_quote(a)} -- {_dot_quote(b)} "
            f"[label={_dot_quote(label)}, penwidth={width:.1f}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
