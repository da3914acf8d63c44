"""Pseudomanifold covers of even complexes.

The central move: around every side of an even complex, split the facets
into pairs. Replacing each side by one copy per pair, with every facet
reattached to the copy its pair owns, yields a new complex in which every
side has degree exactly 2, together with a projection back onto the
original that is the identity below the side level and a bijection on
facets. Circlets admit such covers with strongly connected total space,
and covers of facet-disjoint pieces merge across a shared side by
re-pairing one copy from each piece, so every strongly connected even
complex acquires a pseudomanifold cover.

For covers passing rules (b), (e), (f) and (g) of verify_cover, gluings
and covers determine each other: the pair carried by each side copy can
be read back off a cover, and rebuilding from that gluing reproduces the
cover verbatim.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import Mapping, Sequence

from .complexes import (
    Cell,
    Complex,
    ValidationReport,
    Violation,
    build_complex,
    corner_link,  # not used here; kept because perfbench/tracer.py wraps it
    degree_profile,
    strong_components,
)
from .errors import (
    DualNotSimple,
    GluingMismatch,
    InvalidCover,
    NoSharedSide,
    NotEven,
    NotFacetDisjoint,
    NotPseudomanifold,
    NotPure,
    NotStronglyConnected,
    OddFacet,
    ParseError,
    ZeroDimensional,
)
from .matroid import decompose_into_circlets, require_circlet

__all__ = [
    "CoverMap",
    "SideTour",
    "canonical_gluing",
    "build_glued_complex",
    "cover_circlet",
    "merge_covers",
    "euler_cover",
    "gluing_from_cover",
    "verify_cover",
    "side_tour",
]


# ---- gluings ----------------------------------------------------------

# A gluing: per side, an ordered partition of its facets into unordered
# pairs. ``g[s]`` is a sequence of 2-tuples; each inner pair is sorted, the
# outer order is meaningful (it numbers the side copies).
_Gluing = dict[str, Sequence[tuple[str, str]]]


def _pair_up(over: list[str], rng: random.Random | None) -> list[tuple[str, str]]:
    """Consecutive facets as sorted pairs; shuffles ``over`` first if rng is set."""
    if rng is not None:
        rng.shuffle(over)
    return [(a, b) if a < b else (b, a) for a, b in zip(over[::2], over[1::2])]


def canonical_gluing(k: Complex, *, seed: int | None = None) -> _Gluing:
    """Pair the facets around every side of an even complex.

    With no seed, consecutive facets in id order are paired; a seed
    shuffles each side's facet list first with one RNG seeded once, sides
    visited in id order, so the seed fully determines the result.
    """
    rng = None if seed is None else random.Random(seed)
    profile = degree_profile(k)
    if not profile.is_even:
        raise NotEven("gluing needs every side degree positive and even")
    return {s: tuple(_pair_up(list(k.facets_over(s)), rng)) for s in k.sides}


# ---- glued complexes --------------------------------------------------


@dataclass(frozen=True)
class CoverMap:
    """A cellular projection from a glued complex onto its base."""

    source: Complex
    target: Complex
    cell_map: Mapping[str, str]

    @cached_property
    def _preimages(self) -> dict[str, tuple[str, ...]]:
        """Target id -> sorted source ids, inverted once on first use."""
        inverse: dict[str, list[str]] = {}
        for c, t in self.cell_map.items():
            inverse.setdefault(t, []).append(c)
        return {t: tuple(sorted(cs)) for t, cs in inverse.items()}

    def preimage(self, target_id: str) -> tuple[str, ...]:
        """Sorted source cells mapped to target_id; () for an unknown id."""
        return self._preimages.get(target_id, ())


def _name_gluing_fault(k: Complex, g: _Gluing) -> None:
    """Raise for the first wrong side in id order, its pairs sorted."""
    for s in k.sides:
        try:
            for a, b in g[s]:
                if a == b:
                    raise GluingMismatch(f"pair at {s!r} repeats facet {a!r}")
            if tuple(sorted(chain.from_iterable(g[s]))) != k.facets_over(s):
                raise GluingMismatch(f"pairs at {s!r} do not partition its facets")
        except (TypeError, ValueError):
            bad = f"pairs at {s!r} are not pairs of facet ids"
            raise GluingMismatch(bad) from None


def build_glued_complex(k: Complex, g: _Gluing) -> CoverMap:
    """The cover a gluing describes: the glued complex projected onto k.

    Cells of dimension at most n-2 are taken over verbatim. Every side s
    becomes copies s#1 .. s#r (r pairs), each attached exactly like s.
    Every facet f becomes f^, attached to the copy of each of its sides
    whose pair contains f. Side copies end up with degree exactly 2.
    A kept cell whose id is also a generated id raises ParseError.
    The source's tables are written here from k's; the gluing is checked
    per facet lift, and a fault found so is then named side by side.
    """
    if k.dim == 0:
        raise ZeroDimensional("cannot glue a 0-dimensional complex")
    if len(g) != len(k.sides) or not all(map(g.__contains__, k.sides)):
        raise GluingMismatch("gluing sides differ from the complex's sides")
    n, k_cells, k_cofaces = k.dim, k._cells, k._cofaces
    low = len(k_cells) - len(k.sides) - len(k.facets)  # kept: k's first cells
    cells = dict(islice(k_cells.items(), low))
    cell_map: dict[str, str] = {cid: cid for cid in cells}
    # facet -> its lift's id and, per side, the copy its pair there owns
    lifts = {f: (f"{f}^", {}) for f in k.facets}
    copies = []  # (id, cell, its two lifts in id order), in side order
    new = tuple.__new__  # new(Cell, fields) skips Cell.__new__: half the cost
    try:
        for s in k.sides:
            for j, (a, b) in enumerate(g[s], start=1):
                cid = f"{s}#{j}"
                cell_map[cid] = s
                (la, over_a), (lb, over_b) = lifts[a], lifts[b]
                over_a[s] = over_b[s] = cid
                copy = new(Cell, (cid, n - 1, k_cells[s][2]))
                copies.append((cid, copy, (la, lb) if la < lb else (lb, la)))
        # each lift gets one copy of each of its sides, in side order, none twice
        faulty = any(tuple(o) != k_cells[f][2] for f, (_, o) in lifts.items())
        faulty |= 2 * len(copies) != sum(len(o) for _, o in lifts.values())
    except (KeyError, TypeError, ValueError):  # a non-facet, or not a pair
        faulty = True
    if faulty:
        _name_gluing_fault(k, g)
    copies.sort(key=itemgetter(0))
    lift_cells = sorted(
        (new(Cell, (fid, n, tuple(sorted(o.values())))) for fid, o in lifts.values()),
        key=itemgetter(0),
    )
    cell_map.update((fid, f) for f, (fid, _) in lifts.items())
    cells.update((cid, copy) for cid, copy, _ in copies)
    cells.update((c[0], c) for c in lift_cells)
    # copy ids end in #<j> and lift ids in ^, so a clash is with a kept id
    if len(cells) != low + len(copies) + len(lift_cells):
        made = {c[0] for c in chain(copies, lift_cells)}
        raise ParseError(
            f"cell id {min(made.intersection(islice(k_cells, low)))!r} is also "
            "the id of a side copy or facet lift in the cover; rename it"
        )
    # (dim, id) order, each tuple sorted: k's cofaces below the corners,
    # then the copies over each corner and the two lifts over each copy
    below = islice(k_cells, low - len(k.corners))
    cofaces = {cid: k_cofaces[cid] for cid in below if cid in k_cofaces}
    up: dict[str, list[str]] = {cid: [] for cid in k.corners}
    for cid, copy, _ in copies:
        for b in copy[2]:
            up[b].append(cid)
    cofaces.update((cid, tuple(ids)) for cid, ids in up.items() if ids)
    cofaces.update((cid, pair) for cid, _, pair in copies)
    top = tuple(c[0] for c in copies), tuple(c[0] for c in lift_cells)
    source = Complex.__new__(Complex)._fill(cells, k._by_dim[: n - 1] + top, cofaces)
    return CoverMap(source=source, target=k, cell_map=cell_map)


def cover_circlet(c: Complex, *, seed: int | None = None) -> CoverMap:
    """A pseudomanifold cover of a single circlet."""
    require_circlet(c)
    return build_glued_complex(c, canonical_gluing(c, seed=seed))


# ---- reading a gluing back off a cover -------------------------------


def gluing_from_cover(cover: CoverMap) -> _Gluing:
    """Recover the gluing a cover encodes.

    Each source side lies under exactly two facets; their images form one
    pair around the image side. Pair order follows the source side ids
    by length, then as text: copy order for the copies s#1 .. s#r built
    here, and a fixed order for any other ids. The first violation of
    rule (b), (e), (f) or (g) of :func:`verify_cover` raises InvalidCover
    with its message; those rules make the pairs at each side partition
    its facets. Rules (c) and (h) are not asked for: a glued non-circlet
    need not be a pseudomanifold.
    """
    m, k, phi = cover.source, cover.target, cover.cell_map
    if m.dim != k.dim or k.dim == 0:
        raise InvalidCover("source and target dimensions unusable")
    for v in verify_cover(cover).violations:
        if v.rule[0] in "befg":
            raise InvalidCover(v.message)
    # group the source's own sides, not every key mapped to a side: no
    # rule reads a map key that is not a source cell, so it makes no pair
    copies: dict[str, list[str]] = {s: [] for s in k.sides}
    for c in m.sides:
        copies[phi[c]].append(c)
    return {
        s: tuple(
            tuple(sorted(map(phi.__getitem__, m.facets_over(c))))
            for c in sorted(cs, key=lambda c: (len(c), c))
        )
        for s, cs in copies.items()
    }


# ---- merging covers ---------------------------------------------------


def _repair(first: tuple[str, str], other: tuple[str, str]) -> tuple[tuple, tuple]:
    """{sigma, tau} and {mu, lambda} re-paired as {sigma, mu}, {tau, lambda}."""
    (sigma, tau), (mu, lam) = first, other
    return (min(sigma, mu), max(sigma, mu)), (min(tau, lam), max(tau, lam))


def merge_covers(
    cover_l: CoverMap, cover_c: CoverMap, side_id: str
) -> CoverMap:
    """Combine covers of facet-disjoint complexes across a shared side.

    The merged gluing concatenates both pair lists at every side; at the
    chosen shared side the first pair {sigma, tau} of the left cover and
    the first pair {mu, lambda} of the right cover (ids sorted inside
    each pair) are replaced in place by {sigma, mu} and {tau, lambda}.
    The result is the rebuilt cover of the union complex.
    """
    l_target, c_target = cover_l.target, cover_c.target
    overlap = set(l_target.facets) & set(c_target.facets)
    if overlap:
        raise NotFacetDisjoint(f"targets share facets {sorted(overlap)[:4]}")
    if side_id not in l_target.sides or side_id not in c_target.sides:
        raise NoSharedSide(f"{side_id!r} is not a side of both targets")
    merged_cells: dict[str, Cell] = {c.id: c for c in l_target}
    for c in c_target:
        mine = merged_cells.get(c.id)
        if mine is not None and mine != c:
            raise InvalidCover(f"targets disagree on cell {c.id!r}")
        merged_cells[c.id] = c

    pairs = {s: list(p) for s, p in gluing_from_cover(cover_l).items()}
    for s, p in gluing_from_cover(cover_c).items():
        here = pairs.setdefault(s, [])
        if s == side_id:
            here[0], head = _repair(here[0], p[0])
            p = (head, *p[1:])
        here += p
    return build_glued_complex(build_complex(merged_cells.values()), pairs)


# ---- the main construction -------------------------------------------


def euler_cover(k: Complex, *, seed: int | None = None) -> CoverMap:
    """A pseudomanifold cover of a strongly connected even complex.

    Decomposes into circlets and folds their gluings, read straight off
    ``k`` in one pass over the sides in id order: each circlet pairs its
    facets per side as :func:`canonical_gluing` with the same seed would
    on it alone, so a seed shuffles with a fresh RNG per circlet. A
    breadth-first walk from the lexicographically first circlet crosses
    each side shared by several circlets once and ranks them, neighbours
    in lexicographic order. At a shared side their pair lists are
    concatenated in rank order, and each circlet is re-paired with the
    first pair there, by :func:`merge_covers`' own step, at the smallest
    side it shares with one ranked before it. One build of the folded
    gluing gives the merge chain's cover. Connectivity is read off the
    walk: a dual component of an even set is even, so each circlet is
    one, and the walk reaches them all exactly when ``k`` is strongly
    connected. The parts are the peel's fundamental circuits, circlets by
    construction, so none is checked again here.
    """
    profile = degree_profile(k)
    if not profile.is_pure:
        raise NotPure("cover needs a pure complex")
    if not profile.is_even:
        raise NotEven("cover needs every side degree positive and even")

    # parts by rank, so the smallest index is the lexicographically first
    parts = sorted(decompose_into_circlets(k).parts)
    part_of = {f: i for i, p in enumerate(parts) for f in p}.__getitem__
    rngs = [None if seed is None else random.Random(seed) for _ in parts]
    pairs: dict[str, Sequence[tuple[str, str]]] = {}
    shared: dict[str, dict[int, list[str]]] = {}  # circlet -> its facets there
    sides_of: list[list[str]] = [[] for _ in parts]  # each one's shared sides
    for s in k.sides:  # so each circlet's RNG meets its sides in id order
        over = k._cofaces[s]  # in id order, as each circlet's facets are
        if seed is None and len(over) == 2:  # circlets are even: one has both
            pairs[s] = (over,)
            continue
        at = list(map(part_of, over))
        if at.count(at[0]) == len(at):
            pairs[s] = _pair_up(list(over), rngs[at[0]])
            continue
        groups = shared[s] = {}
        for f, i in zip(over, at):
            groups.setdefault(i, []).append(f)
        for i, fs in groups.items():
            sides_of[i].append(s)
            if seed is not None:
                rngs[i].shuffle(fs)
    # breadth-first, the list its own queue: a side is crossed from the
    # first of its circlets dequeued, which sees all of them
    order, seen, crossed = [0], {0}, set()
    for i in order:
        fresh = [s for s in sides_of[i] if s not in crossed]
        crossed.update(fresh)
        near = {j for s in fresh for j in shared[s]} - seen
        seen |= near
        order += sorted(near)
    if len(order) < len(parts):
        raise NotStronglyConnected("cover needs one dual component")
    rank = {i: r for r, i in enumerate(order)}.__getitem__
    joined = set()  # sides come in id order: each circlet joins at its smallest
    for s, groups in shared.items():
        flat: list[str] = []
        heads = []  # the first pair of each circlet joining here
        for i in sorted(groups, key=rank):
            if flat and i not in joined:
                joined.add(i)
                heads.append(len(flat) // 2)
            flat += groups[i]
        # each circlet has an even number of facets here: no pair spans two
        got = pairs[s] = _pair_up(flat, None)
        for j in heads:
            got[0], got[j] = _repair(got[0], got[j])
    return build_glued_complex(k, pairs)


# ---- verification -----------------------------------------------------


def verify_cover(cover: CoverMap) -> ValidationReport:
    """Check the eight structural properties of a pseudomanifold cover.

    Rules, reported independently: (a) source pure, (b) every source side
    degree 2, (c) source strongly connected, (d) source and target agree
    below the side level with the map the identity there, (e) facets in
    bijection, (f) the map is cellular (dimension kept, boundary of the
    image is the image of the boundary), (g) each target side has
    degree/2 preimages, (h) the link of every source corner is 2-regular.

    Rule (d) is checked first and reported in its place. When it finds
    nothing, every source cell below the side level maps to itself and
    equals its target cell. Every cell on the boundary of such a cell,
    or of a side, lies below the side level too. So (f) cannot fire
    below the side level: it reads only the cells from the side level
    up, and takes the boundary of a side as the image of that boundary.
    When (d) reports anything, (f) reads every cell in full.

    Rule (h) reads the coface tables, not :func:`corner_link`: in the link
    of a corner, a facet over a side s above it meets the other
    ``len(cofaces(s)) - 1`` facets over s, so its degree is that sum over
    the sides above the corner it lies over. Facets whose degree is not 2
    are reported in id order.
    """
    m, k, phi = cover.source, cover.target, cover.cell_map
    n = k.dim
    source_cells, target_cells = m._cells, k._cells
    cofaces, target_cofaces = m._cofaces.get, k._cofaces.get
    v: list[Violation] = []

    # (d) first, for (f) to read; it is reported after (c)
    low_m = {cid for r in range(n - 1) for cid in m.cells_of_dim(r)}
    low_k = {cid for r in range(n - 1) for cid in k.cells_of_dim(r)}
    if low_m != low_k:
        diff = sorted(low_m ^ low_k)
        base = [
            Violation(
                "d-base-skeleton",
                tuple(diff[:6]),
                "cells below the side level differ between source and "
                "target",
            )
        ]
    else:
        moved = [
            cid
            for cid in low_m
            if phi.get(cid) != cid or source_cells[cid] != target_cells[cid]
        ]
        base = [
            Violation(
                "d-base-skeleton",
                (cid,),
                f"{cid!r} is not carried over identically",
            )
            for cid in sorted(moved)
        ]

    structural_ok = True
    image, target_cell = phi.get, target_cells.get
    # (dim, id) order puts the cells below the side level first; with (d)
    # passed, (f) skips them and takes a side's boundary as its own image
    skip, settled = (0, 0) if base else (len(low_m), n)
    for cid, dim, boundary in islice(source_cells.values(), skip, None):
        img = image(cid)
        tc = target_cell(img)
        if tc is None:  # a missing image (None) too
            v.append(
                Violation(
                    "f-cellular", (cid,), f"{cid!r} has no valid image"
                )
            )
            structural_ok = False
            continue
        if tc[1] != dim:
            v.append(
                Violation(
                    "f-cellular",
                    (cid, img),
                    f"{cid!r} (dim {dim}) maps to dim {tc[1]}",
                )
            )
            structural_ok = False
            continue
        # a side's boundary is its own image; a facet's images form a set
        got = boundary if dim < settled else set(map(image, boundary))
        if got != (tc[2] if dim < settled else set(tc[2])):
            v.append(
                Violation(
                    "f-cellular",
                    (cid, img),
                    f"boundary image of {cid!r} differs from boundary of "
                    f"{img!r}",
                )
            )

    if not m.is_pure:
        v.append(Violation("a-source-pure", (), "source is not pure"))
    if m.dim >= 1:
        for s in m.sides:
            d = len(cofaces(s, ()))
            if d != 2:
                v.append(
                    Violation(
                        "b-side-degree",
                        (s,),
                        f"source side {s!r} has degree {d}, expected 2",
                    )
                )
        if m.is_pure and len(strong_components(m)) != 1:
            v.append(
                Violation(
                    "c-source-connected",
                    (),
                    "source dual multigraph is disconnected",
                )
            )

    v += base

    if structural_ok:
        facet_images = [phi[f] for f in m.facets]
        distinct = set(facet_images)
        if len(distinct) != len(facet_images) or distinct != set(k.facets):
            v.append(
                Violation(
                    "e-facet-bijection",
                    (),
                    "facet map is not a bijection onto the target facets",
                )
            )

        preimages = Counter(map(phi.__getitem__, m.sides))
        for s in k.sides:
            deg = len(target_cofaces(s, ()))
            got = preimages.get(s, 0)
            if deg != 2 * got:
                v.append(
                    Violation(
                        "g-preimage-count",
                        (s,),
                        f"side {s!r} of degree {deg} has {got} preimages",
                    )
                )

    for corner in m.corners:
        degree: dict[str, int] = {}
        for s in cofaces(corner, ()):
            over = cofaces(s, ())
            for f in over:
                degree[f] = degree.get(f, 0) + len(over) - 1
        if set(degree.values()) <= {2}:
            continue
        for f in sorted(f for f, d in degree.items() if d != 2):
            v.append(
                Violation(
                    "h-corner-link",
                    (corner, f),
                    f"corner {corner!r} has degree {degree[f]} "
                    f"at facet {f!r}, expected 2",
                )
            )
    return ValidationReport.from_violations(v)


# ---- side tours -------------------------------------------------------


@dataclass(frozen=True)
class SideTour:
    """A cyclic order on all sides; consecutive ones share a facet."""

    sides: tuple[str, ...]


def side_tour(m: Complex) -> SideTour:
    """Visit every side of a pseudomanifold once, facet by facet.

    Needs three things: the complex is a pseudomanifold, no two facets
    share more than one side, and every facet has an even number of
    sides. Then the dual multigraph (facets as vertices, one edge per
    side) is connected with even degrees, so it carries a closed walk
    using every edge once; that walk read off by edge labels is the tour.
    The returned rotation and direction are canonical, so the tour is
    deterministic.
    """
    profile = degree_profile(m)
    if not profile.is_pure:
        raise NotPseudomanifold("not pure")
    bad = sorted(s for s, d in profile.degrees.items() if d != 2)
    if bad:
        raise NotPseudomanifold(f"side degrees not all 2, e.g. {bad[0]!r}")
    if len(strong_components(m)) != 1:
        raise NotPseudomanifold("dual multigraph is disconnected")

    sides = m.sides
    paired: set[tuple[str, str]] = set()
    adj: dict[str, list[tuple[int, str]]] = {f: [] for f in m.facets}
    for i, s in enumerate(sides):
        a, b = m.facets_over(s)
        if (a, b) in paired:
            raise DualNotSimple(f"facets {a!r}, {b!r} share several sides")
        paired.add((a, b))
        adj[a].append((i, b))
        adj[b].append((i, a))
    for f in m.facets:
        if len(m.boundary(f)) % 2 != 0:
            raise OddFacet(f"facet {f!r} has {len(m.boundary(f))} sides")

    # Hierholzer's walk; one iterator per facet resumes past used edges
    walks = {f: iter(edges) for f, edges in adj.items()}
    used = [False] * len(sides)
    stack: list[tuple[str, int]] = [(m.facets[0], -1)]
    out: list[int] = []
    while stack:
        vertex, via = stack[-1]
        for ei, w in walks[vertex]:
            if not used[ei]:
                used[ei] = True
                stack.append((w, ei))
                break
        else:
            stack.pop()
            if via >= 0:
                out.append(via)
    seq = [sides[i] for i in reversed(out)]

    # canonical form: rotate the smallest side to the front, then pick
    # the smaller of the two directions
    pivot = seq.index(min(seq))
    forward = seq[pivot:] + seq[:pivot]
    backward = [forward[0]] + forward[1:][::-1]
    return SideTour(sides=tuple(min(forward, backward)))
