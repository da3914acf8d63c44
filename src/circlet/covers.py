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

Gluings and covers determine each other: the pair carried by each side
copy can be read back off a cover, and rebuilding from that gluing
reproduces the cover verbatim.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

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
from .matroid import decompose_into_circlets, require_circlet, validate_decomposition

__all__ = [
    "Gluing",
    "GluedComplex",
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


def side_copy_id(side_id: str, index: int) -> str:
    """Id of the index-th copy of a side in a glued complex (1-based)."""
    return f"{side_id}#{index}"


def facet_lift_id(facet_id: str) -> str:
    """Id of the unique facet lift in a glued complex."""
    return f"{facet_id}^"


def _natural_key(cell_id: str) -> tuple:
    """Sort key comparing embedded digit runs numerically.

    Keeps side copies in copy order: "s#2" before "s#10". Split always
    alternates text and number runs, so keys of any two ids compare.
    """
    parts = re.split(r"(\d+)", cell_id)
    return tuple(int(p) if i % 2 else p for i, p in enumerate(parts))


# ---- gluings ----------------------------------------------------------


@dataclass(frozen=True)
class Gluing:
    """Per side, an ordered partition of its facets into unordered pairs.

    ``pairs[s]`` is a tuple of 2-tuples; each inner pair is sorted, the
    outer order is meaningful (it numbers the side copies).
    """

    pairs: Mapping[str, tuple[tuple[str, str], ...]]


def _rng(strategy: str, seed: int) -> random.Random | None:
    """The shuffling RNG of a gluing strategy: None for ``canonical``."""
    if strategy not in ("canonical", "seeded"):
        raise BadParameters(f"unknown strategy {strategy!r}")
    return random.Random(seed) if strategy == "seeded" else None


def _pair_up(over: list[str], rng: random.Random | None) -> list[tuple[str, str]]:
    """Consecutive facets as sorted pairs; shuffles ``over`` first if rng is set."""
    if rng is not None:
        rng.shuffle(over)
    return [(min(a, b), max(a, b)) for a, b in zip(over[::2], over[1::2])]


def canonical_gluing(
    k: Complex, strategy: str = "canonical", seed: int = 0
) -> Gluing:
    """Pair the facets around every side of an even complex.

    ``canonical`` pairs consecutive facets in id order; ``seeded``
    shuffles each side's facet list first with one RNG seeded once, sides
    visited in id order, so a seed fully determines the result.
    """
    rng = _rng(strategy, seed)
    profile = degree_profile(k)
    if not profile.is_even:
        raise NotEven("gluing needs every side degree positive and even")
    return Gluing({s: tuple(_pair_up(list(k.facets_over(s)), rng)) for s in k.sides})


# ---- glued complexes --------------------------------------------------


@dataclass(frozen=True)
class CoverMap:
    """A cellular projection from a glued complex onto its base."""

    source: Complex
    target: Complex
    cell_map: Mapping[str, str]

    def preimage(self, target_id: str) -> tuple[str, ...]:
        return tuple(
            sorted(c for c, t in self.cell_map.items() if t == target_id)
        )


@dataclass(frozen=True)
class GluedComplex:
    """The total space of a gluing plus its bookkeeping.

    ``copy_index`` sends each side copy to (base side, 1-based index);
    ``facet_base`` sends each facet lift to the facet it covers.
    """

    complex: Complex
    copy_index: Mapping[str, tuple[str, int]]
    facet_base: Mapping[str, str]


def _check_gluing(k: Complex, g: Gluing) -> None:
    if set(g.pairs) != set(k.sides):
        raise GluingMismatch("gluing sides differ from the complex's sides")
    for s in k.sides:
        flat: list[str] = []
        for a, b in g.pairs[s]:
            if a == b:
                raise GluingMismatch(f"pair at {s!r} repeats facet {a!r}")
            flat += [a, b]
        if sorted(flat) != sorted(k.facets_over(s)):
            raise GluingMismatch(
                f"pairs at {s!r} do not partition its facets"
            )


def build_glued_complex(
    k: Complex, g: Gluing
) -> tuple[GluedComplex, CoverMap]:
    """Materialize the complex a gluing describes, plus its projection.

    Cells of dimension at most n-2 are taken over verbatim. Every side s
    becomes copies s#1 .. s#r (r pairs), each attached exactly like s.
    Every facet f becomes f^, attached to the copy of each of its sides
    whose pair contains f. Side copies end up with degree exactly 2.
    A kept cell whose id is also a generated id raises ParseError.
    """
    if k.dim == 0:
        raise ZeroDimensional("cannot glue a 0-dimensional complex")
    _check_gluing(k, g)
    n = k.dim
    cells: list[Cell] = [
        k.cell(cid) for r in range(n - 1) for cid in k.cells_of_dim(r)
    ]
    cell_map: dict[str, str] = {c.id: c.id for c in cells}
    kept = set(cell_map)
    copy_index: dict[str, tuple[str, int]] = {}
    copy_of: dict[tuple[str, str], str] = {}  # (side, facet) -> side copy
    for s in k.sides:
        base_boundary = k.boundary(s)
        for j, pair in enumerate(g.pairs[s], start=1):
            cid = side_copy_id(s, j)
            cells.append(Cell(cid, n - 1, base_boundary))
            cell_map[cid] = s
            copy_index[cid] = (s, j)
            for f in pair:
                copy_of[s, f] = cid
    facet_base: dict[str, str] = {}
    for f in k.facets:
        fid = facet_lift_id(f)
        boundary = frozenset(copy_of[s, f] for s in k.boundary(f))
        cells.append(Cell(fid, n, boundary))
        cell_map[fid] = f
        facet_base[fid] = f
    clash = kept.intersection([*copy_index, *facet_base])
    if clash:
        raise ParseError(
            f"cell id {min(clash)!r} is also the id of a side copy or "
            "facet lift in the cover; rename it"
        )
    m = build_complex(cells)
    glued = GluedComplex(complex=m, copy_index=copy_index, facet_base=facet_base)
    return glued, CoverMap(source=m, target=k, cell_map=cell_map)


def cover_circlet(
    c: Complex, strategy: str = "canonical", seed: int = 0
) -> CoverMap:
    """A pseudomanifold cover of a single circlet."""
    require_circlet(c)
    g = canonical_gluing(c, strategy=strategy, seed=seed)
    _, cover = build_glued_complex(c, g)
    return cover


# ---- reading a gluing back off a cover -------------------------------


def gluing_from_cover(cover: CoverMap) -> Gluing:
    """Recover the gluing a cover encodes.

    Each source side lies under exactly two facets; their images form one
    pair around the image side. Pair order follows the source side ids
    with digit runs compared numerically, which matches copy order for
    covers built here. Structural violations raise InvalidCover.
    """
    m, k, phi = cover.source, cover.target, cover.cell_map
    if m.dim != k.dim or k.dim == 0:
        raise InvalidCover("source and target dimensions unusable")
    target_facets = set(k.facets)
    images: dict[str, str] = {}
    for f in m.facets:
        img = phi.get(f)
        if img not in target_facets:
            raise InvalidCover(f"facet {f!r} maps to non-facet {img!r}")
        images[f] = img
    if sorted(images.values()) != sorted(target_facets):
        raise InvalidCover("facet map is not a bijection")

    by_side: dict[str, list[str]] = {s: [] for s in k.sides}
    for s_hat in m.sides:
        img = phi.get(s_hat)
        if img not in by_side:
            raise InvalidCover(f"side {s_hat!r} maps to non-side {img!r}")
        by_side[img].append(s_hat)

    pairs: dict[str, tuple[tuple[str, str], ...]] = {}
    for s in k.sides:
        ordered = sorted(by_side[s], key=_natural_key)
        chunk: list[tuple[str, str]] = []
        for s_hat in ordered:
            over = m.facets_over(s_hat)
            if len(over) != 2:
                raise InvalidCover(
                    f"side copy {s_hat!r} lies under {len(over)} facets"
                )
            a, b = sorted(images[f] for f in over)
            if a == b:
                raise InvalidCover(
                    f"side copy {s_hat!r} pairs {a!r} with itself"
                )
            chunk.append((a, b))
        flat = [f for p in chunk for f in p]
        if sorted(flat) != sorted(k.facets_over(s)):
            raise InvalidCover(f"pairs at {s!r} do not partition its facets")
        pairs[s] = tuple(chunk)
    return Gluing(pairs=pairs)


# ---- merging covers ---------------------------------------------------


def _repair(left: list[tuple[str, str]], right: list[tuple[str, str]]) -> None:
    """First pairs {sigma, tau}, {mu, lambda} become {sigma, mu}, {tau, lambda}."""
    (sigma, tau), (mu, lam) = left[0], right[0]
    left[0] = (min(sigma, mu), max(sigma, mu))
    right[0] = (min(tau, lam), max(tau, lam))


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
    union = build_complex(merged_cells.values())

    g_l = gluing_from_cover(cover_l)
    g_c = gluing_from_cover(cover_c)
    pairs: dict[str, tuple[tuple[str, str], ...]] = {}
    for s in union.sides:
        left = list(g_l.pairs.get(s, ()))
        right = list(g_c.pairs.get(s, ()))
        if s == side_id:
            _repair(left, right)
        pairs[s] = tuple(left + right)
    _, cover = build_glued_complex(union, Gluing(pairs=pairs))
    return cover


# ---- the main construction -------------------------------------------


def euler_cover(
    k: Complex, strategy: str = "canonical", seed: int = 0
) -> CoverMap:
    """A pseudomanifold cover of a strongly connected even complex.

    Decomposes into circlets and folds their gluings, read straight off
    ``k``, in breadth-first order over the circlet adjacency graph (shared
    sides), circlets taken in lexicographic order: each pairs its facets
    per side as :func:`canonical_gluing` on it alone would, the pair lists
    are concatenated per side, and each circlet is re-paired with those
    before it at the smallest side they share, as :func:`merge_covers`
    does. One build of the folded gluing gives the merge chain's cover.
    """
    profile = degree_profile(k)
    if not profile.is_pure:
        raise NotPure("cover needs a pure complex")
    if not profile.is_even:
        raise NotEven("cover needs every side degree positive and even")
    if len(strong_components(k)) != 1:
        raise NotStronglyConnected("cover needs one dual component")

    # parts by rank, so the smallest index is the lexicographically first
    parts = sorted(tuple(p) for p in decompose_into_circlets(k).parts)
    if len(parts) == 1:
        return cover_circlet(k, strategy=strategy, seed=seed)
    report = validate_decomposition(k, parts)  # one incidence matrix
    if not report.passed:
        raise NotCirclet(report.violations[0].message)

    part_of = {f: i for i, p in enumerate(parts) for f in p}
    # per part, (side, its facets over the side) in side order
    sides_of: list[list[tuple[str, list[str]]]] = [[] for _ in parts]
    parts_at: dict[str, list[int]] = {}
    for s in k.sides:
        by_part: dict[int, list[str]] = {}
        for f in k.facets_over(s):
            by_part.setdefault(part_of[f], []).append(f)
        parts_at[s] = list(by_part)
        for i, over in by_part.items():
            sides_of[i].append((s, over))

    fold_order, seen = [0], {0}
    for i in fold_order:  # breadth-first: the list is its own queue
        near = {j for s, _ in sides_of[i] for j in parts_at[s]} - seen
        seen |= near
        fold_order += sorted(near)

    pairs: dict[str, list[tuple[str, str]]] = {}
    for i in fold_order:
        rng = _rng(strategy, seed)
        piece = {s: _pair_up(over, rng) for s, over in sides_of[i]}
        if pairs:
            shared = next(s for s in piece if s in pairs)
            _repair(pairs[shared], piece[shared])
        for s, p in piece.items():
            pairs.setdefault(s, []).extend(p)
    gluing = Gluing(pairs={s: tuple(p) for s, p in pairs.items()})
    return build_glued_complex(k, gluing)[1]


# ---- verification -----------------------------------------------------


def verify_cover(cover: CoverMap) -> ValidationReport:
    """Check the eight structural properties of a pseudomanifold cover.

    Rules, reported independently: (a) source pure, (b) every source side
    degree 2, (c) source strongly connected, (d) source and target agree
    below the side level with the map the identity there, (e) facets in
    bijection, (f) the map is cellular (dimension kept, boundary of the
    image is the image of the boundary), (g) each target side has
    degree/2 preimages, (h) the link of every source corner is 2-regular.

    Rule (h) reads the coface tables, not :func:`corner_link`: in the link
    of a corner, a facet over a side s above it meets the other
    ``len(cofaces(s)) - 1`` facets over s, so its degree is that sum over
    the sides above the corner it lies over. Facets whose degree is not 2
    are reported in id order.
    """
    m, k, phi = cover.source, cover.target, cover.cell_map
    n = k.dim
    v: list[Violation] = []

    structural_ok = True
    image, target_cell = phi.get, k.cell
    for c in m:
        img = image(c.id)
        try:
            tc = target_cell(img)
        except KeyError:  # a missing image (None) too
            v.append(
                Violation(
                    "f-cellular", (c.id,), f"{c.id!r} has no valid image"
                )
            )
            structural_ok = False
            continue
        if tc.dim != c.dim:
            v.append(
                Violation(
                    "f-cellular",
                    (c.id, img),
                    f"{c.id!r} (dim {c.dim}) maps to dim {tc.dim}",
                )
            )
            structural_ok = False
            continue
        if set(map(image, c.boundary)) != tc.boundary:
            v.append(
                Violation(
                    "f-cellular",
                    (c.id, img),
                    f"boundary image of {c.id!r} differs from boundary of "
                    f"{img!r}",
                )
            )

    if not m.is_pure:
        v.append(Violation("a-source-pure", (), "source is not pure"))
    if m.dim >= 1:
        for s, d in m.side_degrees.items():
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

    low_m = {cid for r in range(n - 1) for cid in m.cells_of_dim(r)}
    low_k = {cid for r in range(n - 1) for cid in k.cells_of_dim(r)}
    if low_m != low_k:
        diff = sorted(low_m ^ low_k)
        v.append(
            Violation(
                "d-base-skeleton",
                tuple(diff[:6]),
                "cells below the side level differ between source and "
                "target",
            )
        )
    else:
        for cid in sorted(low_m):
            if phi.get(cid) != cid or m.cell(cid) != k.cell(cid):
                v.append(
                    Violation(
                        "d-base-skeleton",
                        (cid,),
                        f"{cid!r} is not carried over identically",
                    )
                )

    if structural_ok:
        facet_images = sorted(phi[f] for f in m.facets if phi[f] in k)
        if facet_images != sorted(set(facet_images)) or set(
            facet_images
        ) != set(k.facets):
            v.append(
                Violation(
                    "e-facet-bijection",
                    (),
                    "facet map is not a bijection onto the target facets",
                )
            )

        if n >= 1:
            preimages: dict[str, int] = {s: 0 for s in k.sides}
            for s_hat in m.sides:
                img = phi[s_hat]
                if img in preimages:
                    preimages[img] += 1
            for s in k.sides:
                deg = k.side_degrees[s]
                if deg % 2 != 0 or preimages[s] != deg // 2:
                    v.append(
                        Violation(
                            "g-preimage-count",
                            (s,),
                            f"side {s!r} of degree {deg} has "
                            f"{preimages[s]} preimages",
                        )
                    )

    if m.dim >= 2:
        cofaces = m.cofaces
        for corner in m.corners:
            degree: dict[str, int] = {}
            for s in cofaces(corner):
                over = cofaces(s)
                for f in over:
                    degree[f] = degree.get(f, 0) + len(over) - 1
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

    ends: dict[str, tuple[str, str]] = {}
    pair_count: dict[tuple[str, str], int] = {}
    for s in m.sides:
        a, b = m.facets_over(s)
        ends[s] = (a, b)
        pair_count[(a, b)] = pair_count.get((a, b), 0) + 1
        if pair_count[(a, b)] > 1:
            raise DualNotSimple(f"facets {a!r}, {b!r} share several sides")
    for f in m.facets:
        if len(m.boundary(f)) % 2 != 0:
            raise OddFacet(f"facet {f!r} has {len(m.boundary(f))} sides")

    sides = m.sides
    adj: dict[str, deque[tuple[int, str]]] = {f: deque() for f in m.facets}
    for i, s in enumerate(sides):
        a, b = ends[s]
        adj[a].append((i, b))
        adj[b].append((i, a))
    used = [False] * len(sides)
    stack: list[tuple[str, int]] = [(m.facets[0], -1)]
    out: list[int] = []
    while stack:
        vertex, via = stack[-1]
        nxt = None
        q = adj[vertex]
        while q:
            ei, w = q[0]
            if used[ei]:
                q.popleft()
                continue
            used[ei] = True
            q.popleft()
            nxt = (w, ei)
            break
        if nxt is None:
            stack.pop()
            if via >= 0:
                out.append(via)
        else:
            stack.append(nxt)
    if len(out) != len(sides):
        raise NotPseudomanifold("no closed walk through every side exists")
    seq = [sides[i] for i in reversed(out)]

    # canonical form: rotate the smallest side to the front, then pick
    # the smaller of the two directions
    pivot = seq.index(min(seq))
    forward = seq[pivot:] + seq[:pivot]
    backward = [forward[0]] + forward[1:][::-1]
    return SideTour(sides=tuple(min(forward, backward)))
