"""Face-poset model of finite regular CW-complexes.

A complex is stored through its covering relation: each cell lists the ids
of the cells one dimension down on its boundary sphere, as a tuple in
increasing order: the cyclic GC untracks such a tuple, never a frozenset.
Construction builds three tables: the cells by id, the ids per
dimension, and the coface map (the same relation read upward). Side
degrees and the decomposition are computed on first request and kept, the
rest on every request; a Complex never changes, so instances are safe to
share and every query gives the same answer twice.

Vocabulary used throughout: with n the dimension of the complex, *facets*
are the n-cells, *sides* the (n-1)-cells, *corners* the (n-2)-cells. The
*degree* of a side is the number of facets it lies under. A complex is
*pure* when every cell lies under some facet and *even* when it is pure
and every side degree is positive and even.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
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

__all__ = [
    "Cell",
    "cell",
    "Complex",
    "build_complex",
    "Violation",
    "ValidationReport",
    "validate_regularity",
    "induced_subcomplex",
    "DegreeProfile",
    "degree_profile",
    "DualEdge",
    "DualMultigraph",
    "dual_multigraph",
    "corner_link",
    "strong_components",
    "bridges",
    "euler_characteristic",
]


class Cell(NamedTuple):
    """One cell: an id, a dimension, and the ids one dimension down (in a
    complex, a tuple in increasing order, which the cyclic GC untracks)."""

    id: str
    dim: int
    boundary: tuple[str, ...]


def cell(id: str, dim: int, boundary: Iterable[str] = ()) -> Cell:
    """Terse Cell factory: any iterable boundary, deduplicated and sorted."""
    return Cell(str(id), int(dim), tuple(sorted(set(map(str, boundary)))))


def _sorted_faces(cid: str, boundary: Collection[str]) -> tuple[str, ...]:
    """The boundary as a sorted tuple; ParseError if it lists a face twice."""
    faces = tuple(sorted(set(boundary)))
    if len(faces) < len(boundary):  # over one face twice: not regular
        twice = min(b for b, n in Counter(boundary).items() if n > 1)
        raise ParseError(f"cell {cid!r} lists {twice!r} more than once in its boundary")
    return faces


class Complex:
    """Immutable face poset with cached derived structure.

    Construction builds three tables and nothing else: the cells by id,
    the ids per dimension, and the coface map, the boundary relation
    inverted (cell -> the cells one dimension up, sorted). Purity, side
    degrees, :meth:`facets_over` and :func:`corner_link` read the coface
    map, never scanning. The side degrees (as a read-only view) and the
    circlet decomposition (:func:`circlet.matroid.decompose_into_circlets`)
    are kept once asked for, each by its producer under its own key of
    ``_kept``; nothing else is kept.

    ``build_complex`` is this class. The constructor stores each entry as
    a ``Cell`` (``Cell._make`` of a plain tuple), sorts them by (dim, id)
    and names the smallest face that is not an id one dimension down. It
    keeps a ``Cell`` whose boundary is a strictly increasing tuple, sorts
    any other boundary into one (ParseError if it lists a face twice), and
    raises DuplicateCellId, DanglingReference, BadDimension,
    NonRegularEdge, EmptyBoundary or EmptyComplex on malformed input.
    :func:`circlet.covers.build_glued_complex` (from a complex already
    checked) and :func:`circlet.serialize.complex_from_dict` (on a
    canonical document) write the tables themselves and set them with
    ``_fill``.
    Cell ids are opaque strings; every tie anywhere in the library is
    broken by lexicographic id order, so all outputs are deterministic.
    """

    __slots__ = ("dim", "_cells", "_by_dim", "_cofaces", "_kept")

    def __init__(self, cells: Iterable[Cell]):
        ordered = sorted(cells, key=itemgetter(1, 0))
        if not ordered:
            raise EmptyComplex("a complex needs at least one cell")
        if set(map(type, ordered)) != {Cell}:  # plain tuples are stored as Cells
            ordered = [c if type(c) is Cell else Cell._make(c) for c in ordered]

        table: dict[str, Cell] = {c[0]: c for c in ordered}
        if len(table) != len(ordered):
            seen: set[str] = set()
            for cid, _, _ in ordered:
                if cid in seen:
                    raise DuplicateCellId(f"cell id {cid!r} appears twice")
                seen.add(cid)

        groups = {r: list(group) for r, group in groupby(ordered, itemgetter(1))}
        by_dim = {r: tuple(map(itemgetter(0), group)) for r, group in groups.items()}
        cofaces: dict[str, tuple[str, ...]] = {}
        for dim, group in groups.items():
            # the faces allowed, to their cofaces: ids one dimension down
            below: dict[str, list[str]] = {b: [] for b in by_dim.get(dim - 1, ())}
            for cid, _, boundary in group:
                if dim < 0:
                    raise BadDimension(f"cell {cid!r} has negative dimension")
                if dim == 0:
                    if boundary:
                        raise BadDimension(f"0-cell {cid!r} has a nonempty boundary")
                elif not boundary:
                    raise EmptyBoundary(f"{dim}-cell {cid!r} has an empty boundary")
                ascending, last = type(boundary) is tuple, ""
                try:
                    for b in boundary:
                        below[b].append(cid)
                        if b <= last:
                            ascending = False
                        last = b
                except KeyError:
                    # the smallest, so the message does not follow hash order
                    b = min(b for b in boundary if b not in below)
                    if b not in table:
                        raise DanglingReference(
                            f"cell {cid!r} references missing cell {b!r}"
                        ) from None
                    raise BadDimension(
                        f"cell {cid!r} (dim {dim}) references {b!r} "
                        f"of dim {table[b][1]}"
                    ) from None
                if not ascending:  # ParseError on a face listed twice
                    table[cid] = Cell(cid, dim, _sorted_faces(cid, boundary))
                if dim == 1 and len(boundary) != 2:
                    raise NonRegularEdge(
                        f"1-cell {cid!r} has {len(boundary)} endpoints, needs 2"
                    )
            cofaces.update((b, tuple(over)) for b, over in below.items() if over)
        self._fill(table, tuple(by_dim.values()), cofaces)

    def _fill(self, cells: dict, by_dim: tuple, cofaces: dict) -> Complex:
        """Set every slot from finished (dim, id)-ordered tables; no checks."""
        object.__setattr__(self, "dim", len(by_dim) - 1)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_by_dim", by_dim)
        object.__setattr__(self, "_cofaces", cofaces)
        object.__setattr__(self, "_kept", {})
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Complex is immutable")

    # ---- basic queries ------------------------------------------------

    def __contains__(self, cell_id: str) -> bool:
        return cell_id in self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())  # filled in (dim, id) order

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return self._cells == other._cells

    def __repr__(self) -> str:
        counts = ",".join(str(len(ids)) for ids in self._by_dim)
        return f"Complex(dim={self.dim}, cells=[{counts}])"

    def cell(self, cell_id: str) -> Cell:
        return self._cells[cell_id]

    def boundary(self, cell_id: str) -> tuple[str, ...]:
        return self._cells[cell_id].boundary

    def closure(self, cell_id: str) -> frozenset[str]:
        """All cells under cell_id, itself included; computed on each call."""
        cells = self._cells
        seen = {cell_id}
        todo = [cell_id]
        while todo:
            for b in cells[todo.pop()][2]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        return frozenset(seen)

    def cells_of_dim(self, r: int) -> tuple[str, ...]:
        if 0 <= r <= self.dim:
            return self._by_dim[r]
        return ()

    @property
    def facets(self) -> tuple[str, ...]:
        return self._by_dim[self.dim]

    @property
    def sides(self) -> tuple[str, ...]:
        return self.cells_of_dim(self.dim - 1)

    @property
    def corners(self) -> tuple[str, ...]:
        return self.cells_of_dim(self.dim - 2)

    @property
    def side_degrees(self) -> Mapping[str, int]:
        """Side -> number of facets over it; counted once, kept read-only."""
        got = self._kept.get("side_degrees")
        if got is None:
            cofaces = self._cofaces
            got = self._kept["side_degrees"] = MappingProxyType(
                {s: len(cofaces.get(s, ())) for s in self.sides}
            )
        return got

    @property
    def is_pure(self) -> bool:
        # pure exactly when every cell below the facets has a coface
        return len(self._cofaces) + len(self.facets) == len(self._cells)

    def facets_over(self, side_id: str) -> tuple[str, ...]:
        """Sorted facets whose boundary holds the side; () for a non-side."""
        c = self._cells.get(side_id)
        return self._cofaces.get(side_id, ()) if c and c[1] == self.dim - 1 else ()


build_complex = Complex


# ---- regularity validation -------------------------------------------


class Violation(NamedTuple):
    rule: str
    cells: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural check: pass flag plus itemized violations."""

    passed: bool
    violations: tuple[Violation, ...]

    @staticmethod
    def from_violations(violations: Sequence[Violation]) -> "ValidationReport":
        vs = tuple(violations)
        return ValidationReport(passed=not vs, violations=vs)


def validate_regularity(k: Complex) -> ValidationReport:
    """Check the necessary local conditions for a regular CW structure.

    Two rules, reported rather than raised, read off the covering
    relation (the (r-2)-faces of an r-cell are the boundary members of
    its (r-1)-faces):

    * ``diamond``: inside every r-cell (r >= 2), each (r-2)-face lies
      under exactly two of the cell's (r-1)-faces.
    * ``boundary-connected``: the (r-1)-faces of an r-cell (r >= 2) form
      a connected graph under shared (r-2)-faces.

    No rule asks that every proper face lie under an (r-1)-face: below
    a cell, its closure is the union of its faces' closures.

    A pass is necessary, not sufficient: these are the poset-visible
    consequences of regularity, so a complex that fails is certainly not
    regular while a pass only means no local obstruction was found.
    """
    violations: list[Violation] = []
    for r in range(2, k.dim + 1):
        for gid in k.cells_of_dim(r):
            faces = k.boundary(gid)
            under: dict[str, list[str]] = {}  # (r-2)-face -> faces over it
            for b in faces:
                for a in k.boundary(b):
                    under.setdefault(a, []).append(b)

            for aid in sorted(under):
                count = len(under[aid])
                if count != 2:
                    violations.append(
                        Violation(
                            "diamond",
                            (gid, aid),
                            f"{r - 2}-cell {aid!r} lies under {count} of the "
                            f"{r - 1}-faces of {gid!r}, expected 2",
                        )
                    )

            seen = {faces[0]}
            todo = list(seen)
            while todo:
                for a in k.boundary(todo.pop()):
                    for other in under[a]:
                        if other not in seen:
                            seen.add(other)
                            todo.append(other)
            if len(seen) != len(faces):
                violations.append(
                    Violation(
                        "boundary-connected",
                        (gid,),
                        f"the {r - 1}-faces of {gid!r} split into "
                        "disconnected groups",
                    )
                )
    return ValidationReport.from_violations(violations)


# ---- subcomplex constructions ----------------------------------------


def induced_subcomplex(k: Complex, facet_ids: Iterable[str]) -> Complex:
    """Closure of a facet set: those facets plus every cell under them."""
    wanted = sorted(set(facet_ids))
    if not wanted:
        raise EmptyFacetSet("need at least one facet")
    top = set(k.facets)
    keep: set[str] = set()
    for f in wanted:
        if f not in top:
            raise NotAFacet(f"{f!r} is not a {k.dim}-cell of the complex")
        keep |= k.closure(f)
    return Complex([k.cell(cid) for cid in keep])


# ---- degrees and evenness --------------------------------------------


@dataclass(frozen=True)
class DegreeProfile:
    degrees: Mapping[str, int]
    is_pure: bool
    is_even: bool

    def histogram(self) -> dict[int, int]:
        out: Counter[int] = Counter(self.degrees.values())
        return dict(sorted(out.items()))


def degree_profile(k: Complex) -> DegreeProfile:
    """Side degrees plus the pure/even verdicts. Needs dimension >= 1."""
    if k.dim == 0:
        raise ZeroDimensional("0-dimensional complexes have no sides")
    degrees = k.side_degrees  # a read-only view, shared
    pure = k.is_pure
    even = pure and all(d > 0 and d % 2 == 0 for d in degrees.values())
    return DegreeProfile(degrees=degrees, is_pure=pure, is_even=even)


# ---- dual multigraph --------------------------------------------------


class DualEdge(NamedTuple):
    left: str
    right: str
    side: str


@dataclass(frozen=True)
class DualMultigraph:
    """Vertices are facet ids; one edge per (facet pair, shared side)."""

    vertices: tuple[str, ...]
    edges: tuple[DualEdge, ...]

    def adjacency(self) -> dict[str, list[tuple[int, str]]]:
        """vertex -> list of (edge index, other endpoint)."""
        adj: dict[str, list[tuple[int, str]]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            adj[e.left].append((i, e.right))
            adj[e.right].append((i, e.left))
        return adj


def _pair_edges(k: Complex, sides: Iterable[str]) -> tuple[DualEdge, ...]:
    """One edge per pair of facets over each side.

    Sides come sorted and every coface list is sorted, so the edges come
    out ordered by (side, left, right) without a sort.
    """
    edges = []
    for s in sides:
        over = k._cofaces.get(s, ())
        for i, left in enumerate(over):
            for right in over[i + 1 :]:
                edges.append(DualEdge(left, right, s))
    return tuple(edges)


def dual_multigraph(k: Complex) -> DualMultigraph:
    """The side-adjacency multigraph on facets.

    A side of degree d contributes d*(d-1)/2 parallel-free edges, one per
    unordered facet pair over it; parallel edges between a pair arise from
    distinct shared sides. Requires a pure complex of dimension >= 1.
    Built afresh on every call: only ``export-dual`` reads it.
    """
    if k.dim == 0:
        raise ZeroDimensional("0-dimensional complexes have no dual")
    if not k.is_pure:
        raise NotPure("dual multigraph needs a pure complex")
    return DualMultigraph(vertices=k.facets, edges=_pair_edges(k, k.sides))


def corner_link(k: Complex, corner_id: str) -> DualMultigraph:
    """The multigraph around one corner: facets over it, edges per side.

    Vertices are the facets whose closure contains the corner; every side
    over the corner contributes one edge per pair of facets sharing it.
    In a pseudomanifold this graph is 2-regular, a disjoint union of
    cycles.
    """
    if corner_id not in k or k.cell(corner_id).dim != k.dim - 2:
        raise BadParameters(f"{corner_id!r} is not an (n-2)-cell")
    # a facet holds the corner exactly when one of its sides does
    sides = k._cofaces.get(corner_id, ())
    verts = tuple(sorted({f for s in sides for f in k._cofaces.get(s, ())}))
    return DualMultigraph(vertices=verts, edges=_pair_edges(k, sides))


def strong_components(k: Complex) -> list[frozenset[str]]:
    """Connected components of the dual multigraph, as facet-id sets.

    Components are ordered by their smallest facet id. A complex with one
    component is called strongly connected. Not kept: no caller asks twice.
    """
    if k.dim == 0:
        raise ZeroDimensional("0-dimensional complexes have no dual")
    if not k.is_pure:
        raise NotPure("strong components need a pure complex")
    # a search from each unseen facet in id order: the first facet of a
    # new component is its smallest, so components come out in order;
    # each side's facets are read once, however many facets it lies under
    cells, cofaces = k._cells, k._cofaces
    seen: set[str] = set()
    crossed: set[str] = set()
    comps = []
    for f in k.facets:
        if f in seen:
            continue
        seen.add(f)
        found = [f]
        for g in found:  # the list is its own queue
            for s in cells[g][2]:
                if s in crossed:
                    continue
                crossed.add(s)
                for h in cofaces[s]:
                    if h not in seen:
                        seen.add(h)
                        found.append(h)
        comps.append(frozenset(found))
    return comps


def bridges(g: DualMultigraph) -> list[DualEdge]:
    """Cut edges of a multigraph, in the graph's edge order.

    Parallel edges are never bridges; the DFS skips only the single edge
    it arrived by, so a second edge between the same endpoints keeps the
    pair 2-edge-connected.
    """
    adj = g.adjacency()
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    out: set[int] = set()
    counter = 0
    for root in g.vertices:
        if root in disc:
            continue
        # iterative DFS; stack holds (vertex, arriving edge index, iterator)
        disc[root] = low[root] = counter
        counter += 1
        stack: list[tuple[str, int, Iterator[tuple[int, str]]]] = [
            (root, -1, iter(adj[root]))
        ]
        while stack:
            v, via, it = stack[-1]
            advanced = False
            for ei, w in it:
                if ei == via:
                    continue
                if w not in disc:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, ei, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        out.add(via)
    return [e for i, e in enumerate(g.edges) if i in out]


def euler_characteristic(k: Complex) -> int:
    """Alternating sum of cell counts by dimension."""
    return sum(
        (-1) ** r * len(k.cells_of_dim(r)) for r in range(k.dim + 1)
    )
