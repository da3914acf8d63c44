"""Deterministic generator families for fixtures, demos and benchmarks.

Every generator returns a freshly built Complex with stable ids, so two
calls with equal parameters produce byte-identical serializations, and
refuses parameters that would build more than 10^6 cells. The random
families draw from one seeded RNG and are reproducible the same way.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from math import comb
from typing import Iterable, Sequence

from .complexes import Cell, Complex, build_complex, cell
from .errors import BadParameters

__all__ = [
    "FAMILIES",
    "generate",
    "cycle",
    "triangular_grid",
    "simplex_skeleton",
    "hypercube_skeleton",
    "crosspolytope_skeleton",
    "finned_circlet",
    "random_even",
    "random_even_multigraph",
]

# a generated cell took 0.9-1.1 KB with its JSON text, measured at 2e5 to
# 3e5 cells, so one generator call stays near 1 GB
_MAX_CELLS = 10**6


def _within_cap(family: str, counts: Iterable[int]) -> None:
    """Raise BadParameters as soon as the running sum of the counts, read
    lazily in order of dimension, passes the cap; later ones go unread."""
    if any(total > _MAX_CELLS for total in itertools.accumulate(counts)):
        raise BadParameters(f"{family} would build more than {_MAX_CELLS} cells")


def cycle(n: int) -> Complex:
    """The n-cycle as a 1-complex: vertices v0..v(n-1), edges ei-j."""
    if n < 3:
        raise BadParameters("cycle needs n >= 3")
    _within_cap("cycle", (2 * n,))
    cells = [cell(f"v{i}", 0) for i in range(n)]
    for i in range(n):
        j = (i + 1) % n
        a, b = min(i, j), max(i, j)
        cells.append(cell(f"e{a}-{b}", 1, (f"v{a}", f"v{b}")))
    return build_complex(cells)


def triangular_grid(rows: int) -> Complex:
    """Triangle subdivided into rows^2 small triangles, edges only.

    Corner vertices have degree 2, boundary vertices 4, interior 6, so
    the graph is even and connected for every rows >= 1. rows=3 gives
    the 10-vertex, 18-edge grid used as the standard 1-dimensional
    fixture.
    """
    if rows < 1:
        raise BadParameters("triangular_grid needs rows >= 1")
    _within_cap("triangular_grid", ((rows + 1) * (2 * rows + 1),))
    cells: list[Cell] = []
    for i in range(rows + 1):
        for j in range(i + 1):
            cells.append(cell(f"v{i}.{j}", 0))

    def edge(i1: int, j1: int, i2: int, j2: int) -> Cell:
        a, b = sorted([(i1, j1), (i2, j2)])
        return cell(
            f"e{a[0]}.{a[1]}-{b[0]}.{b[1]}",
            1,
            (f"v{a[0]}.{a[1]}", f"v{b[0]}.{b[1]}"),
        )

    for i in range(rows + 1):
        for j in range(i):
            cells.append(edge(i, j, i, j + 1))
    for i in range(rows):
        for j in range(i + 1):
            cells.append(edge(i, j, i + 1, j))
            cells.append(edge(i, j, i + 1, j + 1))
    return build_complex(cells)


def _subset_complex(labels: list[str], k: int, keep=None) -> Complex:
    """Label subsets of size 1..k+1 as cells, ids joined with dashes.

    An r-cell is an (r+1)-subset, labels in the order given, that ``keep``
    accepts (all of them when it is None); its boundary is all one-smaller
    subsets.
    """
    cells: list[Cell] = []
    for r in range(k + 1):
        for combo in itertools.combinations(labels, r + 1):
            if keep is None or keep(combo):
                faces = itertools.combinations(combo, r) if r else ()
                cells.append(cell("-".join(combo), r, map("-".join, faces)))
    return build_complex(cells)


def simplex_skeleton(v: int, k: int) -> Complex:
    """The k-skeleton of the simplex on v vertices labeled 1..v.

    Every vertex subset is a face; ids list the labels in numeric order.
    """
    if v < 1 or not 0 <= k <= v - 1:
        raise BadParameters("simplex_skeleton needs v >= 1, 0 <= k <= v-1")
    _within_cap("simplex_skeleton", (comb(v, i) for i in range(1, k + 2)))
    return _subset_complex([str(i) for i in range(1, v + 1)], k)


def hypercube_skeleton(d: int, k: int) -> Complex:
    """The k-skeleton of the d-cube; cells are words over 0, 1, *.

    A word with r stars is an r-cell; its boundary words fix one star.
    hypercube_skeleton(3, 2) is the cube boundary surface.
    """
    if d < 1 or not 0 <= k <= d:
        raise BadParameters("hypercube_skeleton needs d >= 1, 0 <= k <= d")
    # 2^bits passes the cap already, so no count needs a longer shift
    bits = _MAX_CELLS.bit_length()
    counts = (comb(d, i) << min(d - i, bits) for i in range(k + 1))
    _within_cap("hypercube_skeleton", counts)
    cells: list[Cell] = []
    for r in range(k + 1):
        for stars in itertools.combinations(range(d), r):
            free = [i for i in range(d) if i not in stars]
            for bits in itertools.product("01", repeat=d - r):
                word = ["*"] * d
                for pos, b in zip(free, bits):
                    word[pos] = b
                wid = "".join(word)
                boundary = []
                for pos in stars:
                    for b in "01":
                        sub = word.copy()
                        sub[pos] = b
                        boundary.append("".join(sub))
                cells.append(cell(wid, r, boundary))
    return build_complex(cells)


def crosspolytope_skeleton(d: int, k: int) -> Complex:
    """The k-skeleton of the d-dimensional cross-polytope.

    Vertices are p1..pd and n1..nd; a proper face is any antipode-free
    vertex subset, so the r-cells are the (r+1)-subsets hitting no axis
    twice. k can go up to d-1; crosspolytope_skeleton(3, 2) is the
    octahedron boundary.
    """
    if d < 1 or not 0 <= k <= d - 1:
        raise BadParameters(
            "crosspolytope_skeleton needs d >= 1, 0 <= k <= d-1"
        )
    _within_cap("crosspolytope_skeleton", (comb(d, i) << i for i in range(1, k + 2)))
    verts = sorted(f"{sign}{i}" for sign in "pn" for i in range(1, d + 1))

    def antipode_free(combo: tuple[str, ...]) -> bool:
        return len({v[1:] for v in combo}) == len(combo)

    return _subset_complex(verts, k, antipode_free)


def finned_circlet(k: int, m: int) -> Complex:
    """The finned wheel: k*m squares around a k-spine, capped by a km-gon.

    m fins of k squares each share a central cycle of k spine edges; the
    outer rim, one cycle through all km fin tips (successive fins joined
    end to start), bounds a single km-gon. Spine edges get degree m, all
    other edges degree 2, so the complex is even, and it is minimal:
    needs k >= 3 and m >= 4 even.
    """
    if k < 3 or m < 4 or m % 2 != 0:
        raise BadParameters("finned_circlet needs k >= 3 and even m >= 4")
    _within_cap("finned_circlet", (2 * k + 4 * m * k + 1,))
    cells: list[Cell] = []
    for t in range(k):
        cells.append(cell(f"c{t}", 0))
    for i in range(m):
        for t in range(k):
            cells.append(cell(f"l{i}.{t}", 0))

    def leaf(i: int, t: int) -> str:
        # the twist: walking past the last layer lands on the next fin
        if t == k:
            return f"l{(i + 1) % m}.0"
        return f"l{i}.{t}"

    for t in range(k):
        cells.append(cell(f"s{t}", 1, (f"c{t}", f"c{(t + 1) % k}")))
    for i in range(m):
        for t in range(k):
            cells.append(cell(f"r{i}.{t}", 1, (f"c{t}", f"l{i}.{t}")))
            cells.append(cell(f"o{i}.{t}", 1, (leaf(i, t), leaf(i, t + 1))))

    def rung(i: int, t: int) -> str:
        if t == k:
            return f"r{(i + 1) % m}.0"
        return f"r{i}.{t}"

    for i in range(m):
        for t in range(k):
            cells.append(
                cell(
                    f"q{i}.{t}",
                    2,
                    (f"s{t}", f"o{i}.{t}", rung(i, t), rung(i, t + 1)),
                )
            )
    rim = tuple(f"o{i}.{t}" for i in range(m) for t in range(k))
    cells.append(cell("cap", 2, rim))
    return build_complex(cells)


# ---- random families --------------------------------------------------


@functools.cache
def _library_circlets() -> tuple[Complex, ...]:
    # built once per process: complexes never change
    return (
        simplex_skeleton(4, 2),
        crosspolytope_skeleton(3, 2),
        hypercube_skeleton(3, 2),
    )


def _relabel(k: Complex, prefix: str, identify: dict[str, str]) -> list[Cell]:
    """Copy cells with a fresh prefix except for the identified ones."""

    def rename(cid: str) -> str:
        return identify.get(cid, f"{prefix}{cid}")

    return [
        Cell(rename(c.id), c.dim, frozenset(rename(b) for b in c.boundary))
        for c in k
    ]


def random_even(seed: int, size: int) -> Complex:
    """A random even strongly connected 2-complex, reproducible by seed.

    Built by gluing `size` library circlets (tetrahedron, octahedron and
    cube boundaries) one at a time along a single shared edge, chosen at
    random. Each gluing raises the shared edge degree by 2, so evenness
    is preserved, and sharing a side keeps the dual connected.
    """
    if size < 1:
        raise BadParameters("random_even needs size >= 1")
    _within_cap("random_even", (26 * size,))  # 26: the most any piece adds
    rng = random.Random(seed)
    library = _library_circlets()
    base = rng.choice(library)
    current: dict[str, Cell] = {
        c.id: c for c in _relabel(base, "g0.", {})
    }
    edges = sorted(cid for cid, c in current.items() if c.dim == 1)
    for step in range(1, size):
        piece = rng.choice(library)
        host_edge = rng.choice(edges)
        piece_edge = rng.choice(piece.sides)
        hu, hv = sorted(current[host_edge].boundary)
        pu, pv = sorted(piece.boundary(piece_edge))
        identify = {piece_edge: host_edge, pu: hu, pv: hv}
        for c in _relabel(piece, f"g{step}.", identify):
            if c.id not in current:
                current[c.id] = c
                if c.dim == 1:
                    bisect.insort(edges, c.id)
    return build_complex(current.values())


def random_even_multigraph(seed: int) -> Complex:
    """A random even connected multigraph, reproducible by seed.

    Cycles of 2 to 5 vertices (2-cycles of parallel edges allowed) glued
    at shared vertices, staying at or under 12 vertices. Every vertex
    degree stays even, so the result always carries a closed walk
    through every edge.
    """
    rng = random.Random(seed)

    def raw_cycle(n: int, tag: str, shared: str | None) -> list[Cell]:
        names = [shared if i == 0 and shared else f"{tag}v{i}" for i in range(n)]
        cells = [cell(v, 0) for v in names if shared is None or v != shared]
        for i in range(n):
            u, w = names[i], names[(i + 1) % n]
            cells.append(cell(f"{tag}e{i}", 1, (u, w)))
        return cells

    first = rng.randint(2, 5)
    current: dict[str, Cell] = {c.id: c for c in raw_cycle(first, "a0.", None)}
    vertices = sorted(c.id for c in current.values() if c.dim == 0)
    tags = "abcdefghijklmnop"
    step = 0
    while True:
        step += 1
        budget = 12 - len(vertices)
        if budget < 1 or step >= len(tags) or rng.random() < 0.3:
            break
        n = rng.randint(2, min(5, budget + 1))
        shared = rng.choice(vertices)
        for c in raw_cycle(n, f"{tags[step]}{step}.", shared):
            if c.id not in current:
                current[c.id] = c
                if c.dim == 0:
                    bisect.insort(vertices, c.id)
    return build_complex(current.values())


FAMILIES = {
    "cycle": (cycle, 1),
    "triangular_grid": (triangular_grid, 1),
    "simplex_skeleton": (simplex_skeleton, 2),
    "hypercube_skeleton": (hypercube_skeleton, 2),
    "crosspolytope_skeleton": (crosspolytope_skeleton, 2),
    "finned_circlet": (finned_circlet, 2),
    "random_even": (random_even, 2),
}


def generate(family: str, params: Sequence[int]) -> Complex:
    """Build the named family at the given integer parameters."""
    entry = FAMILIES.get(family)
    if entry is None:
        raise BadParameters(f"unknown family {family!r}")
    fn, arity = entry
    if len(params) != arity:
        raise BadParameters(
            f"{family} takes {arity} parameter(s), got {len(params)}"
        )
    return fn(*params)
