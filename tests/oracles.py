"""Brute-force reference implementations used to cross-check the library.

Everything here trades speed for obviousness: exhaustive enumeration,
edge deletion, plain breadth-first search. Keep these independent of the
algorithms under test; they may only read the data structures. The last
sections keep algorithms the library replaced by direct forms, built
from library primitives, as references for the replacements, and the
stdlib encoder the canonical JSON emitter must match, and the loader's
general path, which the one-pass load of canonical documents must match.
"""

import json
from collections import deque
from functools import reduce
from itertools import chain, combinations
from operator import xor
from unittest import mock

from circlet import (
    Cell,
    Complex,
    CoverMap,
    DualEdge,
    DualMultigraph,
    ValidationReport,
    Violation,
    build_glued_complex,
    canonical_gluing,
    corner_link,
    cover_circlet,
    decompose_into_circlets,
    find_even_subset,
    gf2,
    incidence_matrix,
    induced_subcomplex,
    merge_covers,
    require_circlet,
    strong_components,
)
from circlet import serialize
from circlet.errors import GluingMismatch, ParseError


# ---- GF(2) parity by exhaustive enumeration ---------------------------


def facet_side_masks(k: Complex) -> tuple[list[str], list[int]]:
    """Each facet's boundary as an integer bitmask over the sorted sides."""
    side_pos = {s: i for i, s in enumerate(k.sides)}
    facets = list(k.facets)
    masks = []
    for f in facets:
        bits = 0
        for s in k.boundary(f):
            bits |= 1 << side_pos[s]
        masks.append(bits)
    return facets, masks


def is_even_facet_set(k: Complex, subset) -> bool:
    """True when every side under the subset gains an even facet count."""
    facets, masks = facet_side_masks(k)
    chosen = set(subset)
    if not chosen:
        return False
    acc = 0
    for f, m in zip(facets, masks):
        if f in chosen:
            acc ^= m
    return acc == 0


def all_even_facet_sets(k: Complex) -> list[frozenset[str]]:
    """Every nonempty even facet subset, by scanning all 2^n subsets."""
    facets, masks = facet_side_masks(k)
    n = len(facets)
    if n > 20:
        raise ValueError("exhaustive scan capped at 20 facets")
    found = []
    for pick in range(1, 1 << n):
        acc = 0
        for i in range(n):
            if pick >> i & 1:
                acc ^= masks[i]
        if acc == 0:
            found.append(frozenset(facets[i] for i in range(n) if pick >> i & 1))
    return found


def minimal_even_facet_sets(k: Complex) -> list[frozenset[str]]:
    """The inclusion-minimal members of all_even_facet_sets."""
    sets = all_even_facet_sets(k)
    return [s for s in sets if not any(t < s for t in sets)]


def is_minimal_even_set(k: Complex, subset) -> bool:
    """Even, and no proper nonempty subset is even. Exhaustive over 2^|S|."""
    chosen = sorted(set(subset))
    if not is_even_facet_set(k, chosen):
        return False
    for r in range(1, len(chosen)):
        for smaller in combinations(chosen, r):
            if is_even_facet_set(k, smaller):
                return False
    return True


# ---- classical Euler circuits on 1-complexes --------------------------


def euler_circuit(graph: Complex) -> list[str] | None:
    """An Eulerian circuit of a 1-complex as an edge-id list, or None.

    Straight textbook approach: follow unused edges from a start vertex,
    splicing detours into the walk until every edge is used. None when
    some vertex has odd degree or the edges are not connected.
    """
    incident: dict[str, list[str]] = {v: [] for v in graph.cells_of_dim(0)}
    for e in graph.cells_of_dim(1):
        for v in graph.boundary(e):
            incident[v].append(e)
    if any(len(es) % 2 for es in incident.values()):
        return None
    edges = list(graph.cells_of_dim(1))
    if not edges:
        return []

    def other_end(edge: str, v: str) -> str:
        ends = sorted(graph.boundary(edge))
        if len(ends) == 1:
            return v
        return ends[1] if ends[0] == v else ends[0]

    start = min(v for v, es in incident.items() if es)
    used: set[str] = set()
    cursor = {v: 0 for v in incident}
    walk_vertices = [start]
    walk_edges: list[str] = []
    stack_v = [start]
    stack_e: list[str] = []
    while stack_v:
        v = stack_v[-1]
        found = None
        while cursor[v] < len(incident[v]):
            e = incident[v][cursor[v]]
            if e not in used:
                found = e
                break
            cursor[v] += 1
        if found is None:
            stack_v.pop()
            if stack_e:
                walk_edges.append(stack_e.pop())
        else:
            used.add(found)
            stack_v.append(other_end(found, v))
            stack_e.append(found)
    if len(walk_edges) != len(edges):
        return None
    return walk_edges[::-1]


# ---- connectivity by plain BFS ----------------------------------------


def facet_components(k: Complex) -> list[frozenset[str]]:
    """Groups of facets reachable through shared sides, smallest id first."""
    neighbours: dict[str, set[str]] = {f: set() for f in k.facets}
    for s in k.sides:
        over = k.facets_over(s)
        for a in over:
            for b in over:
                if a != b:
                    neighbours[a].add(b)
    seen: set[str] = set()
    groups = []
    for f in k.facets:
        if f in seen:
            continue
        queue = deque([f])
        group = {f}
        seen.add(f)
        while queue:
            cur = queue.popleft()
            for nxt in neighbours[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    group.add(nxt)
                    queue.append(nxt)
        groups.append(frozenset(group))
    return sorted(groups, key=min)


def multigraph_components(g: DualMultigraph, skip_edge: int | None = None) -> int:
    """Connected component count, optionally ignoring one edge by index."""
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        if i == skip_edge:
            continue
        adj[e.left].append(e.right)
        adj[e.right].append(e.left)
    seen: set[str] = set()
    count = 0
    for v in g.vertices:
        if v in seen:
            continue
        count += 1
        queue = deque([v])
        seen.add(v)
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return count


def bridges_by_deletion(g: DualMultigraph) -> list[int]:
    """Indices of edges whose removal raises the component count."""
    base = multigraph_components(g)
    out = []
    for i in range(len(g.edges)):
        if multigraph_components(g, skip_edge=i) > base:
            out.append(i)
    return out


# ---- closures built eagerly, bottom-up ---------------------------------


def closures_bottom_up(k: Complex) -> dict[str, frozenset[str]]:
    """Every cell's closure, built eagerly in (dim, id) order."""
    out: dict[str, frozenset[str]] = {}
    for c in k:
        acc = {c.id}
        for b in c.boundary:
            acc |= out[b]
        out[c.id] = frozenset(acc)
    return out


# ---- lookups by scanning every cell or map entry ----------------------


def facets_over_by_scan(k: Complex, cell_id: str) -> tuple[str, ...]:
    """Facets whose boundary lists cell_id, found by reading every facet."""
    return tuple(f for f in k.facets if cell_id in k.boundary(f))


def dual_multigraph_by_scan(k: Complex) -> DualMultigraph:
    """The dual multigraph from facet scans: one edge per facet pair over
    each side, sorted by (side, left, right)."""
    edges = [
        DualEdge(a, b, s)
        for s in k.sides
        for a, b in combinations(facets_over_by_scan(k, s), 2)
    ]
    edges.sort(key=lambda e: (e.side, e.left, e.right))
    return DualMultigraph(vertices=k.facets, edges=tuple(edges))


def corner_link_by_scan(k: Complex, corner_id: str) -> DualMultigraph:
    """The link of a corner from closures: facets over it, edges per side."""
    verts = tuple(f for f in k.facets if corner_id in k.closure(f))
    edges = []
    for s in k.sides:
        if corner_id not in k.closure(s):
            continue
        over = [f for f in verts if s in k.boundary(f)]
        for a, b in combinations(over, 2):
            edges.append(DualEdge(a, b, s))
    edges.sort(key=lambda e: (e.side, e.left, e.right))
    return DualMultigraph(vertices=verts, edges=tuple(edges))


def preimage_by_scan(cover: CoverMap, target_id: str) -> tuple[str, ...]:
    """Source cells mapped to target_id, found by reading the whole map."""
    return tuple(sorted(c for c, t in cover.cell_map.items() if t == target_id))


# ---- replaced algorithms, kept as references --------------------------


def shrink_by_deletion(m, facet_ids) -> frozenset[str]:
    """Shrink an even facet set until no single facet can be spared.

    Scans facets in id order; whenever dropping one still leaves an even
    subset, replaces the working set by that subset and restarts.
    """
    current = frozenset(facet_ids)
    while True:
        for f in sorted(current):
            found = find_even_subset(m, current - {f})
            if found is not None:
                current = found
                break
        else:
            return current


def decompose_by_deletion(k: Complex) -> tuple[tuple[str, ...], ...]:
    """Peel circlets off an even complex with shrink_by_deletion."""
    m = incidence_matrix(k)
    remaining = set(k.facets)
    parts = []
    while remaining:
        circlet = shrink_by_deletion(m, remaining)
        parts.append(tuple(sorted(circlet)))
        remaining -= circlet
    return tuple(parts)


def decompose_by_rescan(k: Complex) -> tuple[tuple[str, ...], ...]:
    """Peel circlets off an even complex with one fresh scan per peel.

    ``alive`` holds the column positions of the remaining facets after the
    smallest one; each peel scans those columns from the first, and the
    first dependency's bits index into ``alive``. What is left after the
    last dependency, with the smallest facet, is the last part.
    """
    m = incidence_matrix(k)
    facets, cols = m.facet_ids, m.columns
    alive = list(range(1, len(facets)))
    parts = []
    while alive:
        j, combo = gf2.first_dependency([cols[p] for p in alive])
        if j < 0:
            break
        peeled = [alive[b] for b in gf2.bit_indices(combo)]
        parts.append(tuple(facets[p] for p in peeled))
        gone = set(peeled)
        alive = [p for p in alive if p not in gone]
    last = [0, *alive]
    assert not reduce(xor, (cols[p] for p in last), 0)
    parts.append(tuple(facets[p] for p in last))
    return tuple(parts)


def validate_by_extraction(k: Complex, parts) -> ValidationReport:
    """validate_decomposition with column XORs and one extraction per part.

    Each part S is even when its int columns XOR to zero, and minimal
    when find_even_subset finds nothing in S - {min S}; otherwise the
    report names what it found.
    """
    listed = [tuple(sorted(set(p))) for p in parts]
    violations = []
    seen: set[str] = set()
    top = set(k.facets)
    for i, part in enumerate(listed):
        overlap = seen & set(part)
        if overlap:
            violations.append(
                Violation(
                    "partition",
                    tuple(sorted(overlap)),
                    f"part {i} reuses facets {sorted(overlap)}",
                )
            )
        stray = set(part) - top
        if stray:
            violations.append(
                Violation(
                    "partition",
                    tuple(sorted(stray)),
                    f"part {i} lists non-facets {sorted(stray)}",
                )
            )
        seen |= set(part)
    missing = top - seen
    if missing:
        violations.append(
            Violation(
                "partition",
                tuple(sorted(missing)),
                f"facets not covered: {sorted(missing)}",
            )
        )
    if violations:
        return ValidationReport.from_violations(violations)
    m = incidence_matrix(k)
    for i, part in enumerate(listed):
        idx = m.column_index(part)
        if not idx or reduce(xor, (m.columns[q] for q in idx)):
            violations.append(
                Violation("even", part, f"part {i} is not an even subset")
            )
            continue
        shrunk = find_even_subset(m, set(part) - {part[0]})
        if shrunk is not None:
            violations.append(
                Violation(
                    "minimal",
                    part,
                    f"part {i} properly contains the even subset "
                    f"{sorted(shrunk)}",
                )
            )
    return ValidationReport.from_violations(violations)


def fold_by_merges(k: Complex, *, seed=None) -> CoverMap:
    """A cover as a chain of merge_covers calls, one per circlet after the first.

    Circlets are covered one by one and merged in breadth-first order over
    shared sides, from the smallest circlet, across the smallest side the
    union so far shares with the next one; every merge rebuilds the union.
    """
    parts = decompose_by_deletion(k)
    if len(parts) == 1:
        return cover_circlet(k, seed=seed)
    subs = [induced_subcomplex(k, p) for p in parts]
    order = sorted(range(len(parts)), key=lambda i: parts[i])
    fold = [order[0]]
    queue = deque(fold)
    while queue:
        i = queue.popleft()
        for j in order:
            if j not in fold and set(subs[i].sides) & set(subs[j].sides):
                fold.append(j)
                queue.append(j)
    cover = cover_circlet(subs[fold[0]], seed=seed)
    for i in fold[1:]:
        nxt = cover_circlet(subs[i], seed=seed)
        shared = sorted(set(cover.target.sides) & set(subs[i].sides))
        cover = merge_covers(cover, nxt, shared[0])
    assert set(cover.target.facets) == set(k.facets)
    return CoverMap(source=cover.source, target=k, cell_map=cover.cell_map)


def fold_plan(k: Complex) -> list[tuple[Complex, str | None]]:
    """Each circlet as an induced subcomplex, in fold order, with its re-pair side.

    Circlets are folded in breadth-first order over shared sides
    (neighbours in sorted-part order, from the smallest part); each one
    after the first re-pairs at the smallest side it shares with those
    before it, the first at None.
    """
    parts = [tuple(p) for p in decompose_into_circlets(k).parts]
    subs = [induced_subcomplex(k, p) for p in parts]
    side_sets = [set(sub.sides) for sub in subs]
    order = sorted(range(len(parts)), key=parts.__getitem__)
    fold, seen = order[:1], set(order[:1])
    for i in fold:
        for j in order:
            if j not in seen and side_sets[i] & side_sets[j]:
                seen.add(j)
                fold.append(j)
    plan, before = [], set()
    for i in fold:
        plan.append((subs[i], min(side_sets[i] & before) if before else None))
        before |= side_sets[i]
    return plan


def fold_by_subcomplexes(k: Complex, *, seed=None) -> CoverMap:
    """A cover folded from one induced subcomplex and gluing per circlet.

    Each circlet of :func:`fold_plan` is checked by require_circlet and
    paired by canonical_gluing; pair lists are concatenated per side in
    fold order, each circlet first re-paired with those before it at its
    re-pair side; one build at the end.
    """
    plan = fold_plan(k)
    if len(plan) == 1:
        return cover_circlet(k, seed=seed)
    pairs: dict[str, list[tuple[str, str]]] = {}
    for sub, shared in plan:
        require_circlet(sub)
        g = canonical_gluing(sub, seed=seed)
        piece = {s: list(p) for s, p in g.items()}
        if shared is not None:
            (sigma, tau), (mu, lam) = pairs[shared][0], piece[shared][0]
            pairs[shared][0] = tuple(sorted((sigma, mu)))
            piece[shared][0] = tuple(sorted((tau, lam)))
        for s, p in piece.items():
            pairs.setdefault(s, []).extend(p)
    return build_glued_complex(k, {s: tuple(p) for s, p in pairs.items()})


def check_gluing_by_sides(k: Complex, g: dict) -> None:
    """build_glued_complex's gluing checks as first written, side by side.

    The gluing's sides must be the complex's; then, sides in id order, no
    pair may repeat a facet, and a side's pairs, flattened and sorted,
    must be the facets over it. The first fault raises GluingMismatch.
    """
    if set(g) != set(k.sides):
        raise GluingMismatch("gluing sides differ from the complex's sides")
    for s in k.sides:
        pairs = g[s]
        for a, b in pairs:
            if a == b:
                raise GluingMismatch(f"pair at {s!r} repeats facet {a!r}")
        if tuple(sorted(chain.from_iterable(pairs))) != k.facets_over(s):
            raise GluingMismatch(f"pairs at {s!r} do not partition its facets")


def build_glued_by_copy_map(k: Complex, g: dict) -> CoverMap:
    """build_glued_complex as first written: side copies first, each one
    recorded per (side, facet), then every facet lift looks its sides'
    copies up in that map. Expects a gluing that partitions the facets
    around every side.
    """
    n = k.dim
    cells = [k.cell(cid) for r in range(n - 1) for cid in k.cells_of_dim(r)]
    cell_map = {c.id: c.id for c in cells}
    kept = set(cell_map)
    generated = []
    copy_of = {}  # (side, facet) -> side copy
    for s in k.sides:
        for j, pair in enumerate(g[s], start=1):
            cid = f"{s}#{j}"
            cells.append(Cell(cid, n - 1, k.boundary(s)))
            cell_map[cid] = s
            generated.append(cid)
            for f in pair:
                copy_of[s, f] = cid
    for f in k.facets:
        fid = f"{f}^"
        cells.append(Cell(fid, n, frozenset(copy_of[s, f] for s in k.boundary(f))))
        cell_map[fid] = f
        generated.append(fid)
    clash = kept.intersection(generated)
    if clash:
        raise ParseError(
            f"cell id {min(clash)!r} is also the id of a side copy or "
            "facet lift in the cover; rename it"
        )
    return CoverMap(source=Complex(cells), target=k, cell_map=cell_map)


# ---- regularity from full closures ------------------------------------


def validate_by_closures(k: Complex) -> ValidationReport:
    """validate_regularity as first written: from full closures, with a
    third rule, ``boundary-pure``, that the rewrite dropped.

    Each r-cell compares its closure with its faces' closures: faces of
    the cell under none of its (r-1)-faces are ``boundary-pure``
    violations, (r-2)-cells under other than two of them ``diamond`` ones,
    and the (r-1)-faces are linked when their closures share an
    (r-2)-cell. The first rule cannot fire, since the closure below a
    cell is the union of its faces' closures; the tests confirm it never
    does.
    """
    violations: list[Violation] = []
    for r in range(2, k.dim + 1):
        for gid in k.cells_of_dim(r):
            faces = k.boundary(gid)
            sub_closures = {b: k.closure(b) for b in faces}
            proper = k.closure(gid) - {gid}

            covered: set[str] = set()
            for cl in sub_closures.values():
                covered |= cl
            stranded = sorted(proper - covered)
            if stranded:
                violations.append(
                    Violation(
                        "boundary-pure",
                        (gid, *stranded),
                        f"faces of {gid!r} not under any of its "
                        f"{r - 1}-faces: {stranded}",
                    )
                )

            for aid in sorted(x for x in proper if k.cell(x).dim == r - 2):
                count = sum(1 for cl in sub_closures.values() if aid in cl)
                if count != 2:
                    violations.append(
                        Violation(
                            "diamond",
                            (gid, aid),
                            f"{r - 2}-cell {aid!r} lies under {count} of the "
                            f"{r - 1}-faces of {gid!r}, expected 2",
                        )
                    )

            if len(faces) > 1:
                order = sorted(faces)
                seen = {order[0]}
                queue = deque(seen)
                while queue:
                    b = queue.popleft()
                    for other in order:
                        if other not in seen and any(
                            k.cell(x).dim == r - 2
                            for x in sub_closures[b] & sub_closures[other]
                        ):
                            seen.add(other)
                            queue.append(other)
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


# ---- cover verification through corner links -----------------------


def verify_by_links(cover: CoverMap) -> ValidationReport:
    """verify_cover with one corner_link multigraph per corner for rule (h).

    Each link's edges are tallied per endpoint and every vertex whose
    tally is not 2 is reported, vertices in id order.

    Rules, reported independently: (a) source pure, (b) every source side
    degree 2, (c) source strongly connected, (d) source and target agree
    below the side level with the map the identity there, (e) facets in
    bijection, (f) the map is cellular (dimension kept, boundary of the
    image is the image of the boundary), (g) each target side has
    degree/2 preimages, (h) the link of every source corner is 2-regular.
    """
    m, k, phi = cover.source, cover.target, cover.cell_map
    n = k.dim
    v: list[Violation] = []

    structural_ok = True
    for c in m:
        img = phi.get(c.id)
        if img is None or img not in k:
            v.append(
                Violation(
                    "f-cellular", (c.id,), f"{c.id!r} has no valid image"
                )
            )
            structural_ok = False
            continue
        target_cell = k.cell(img)
        if target_cell.dim != c.dim:
            v.append(
                Violation(
                    "f-cellular",
                    (c.id, img),
                    f"{c.id!r} (dim {c.dim}) maps to dim {target_cell.dim}",
                )
            )
            structural_ok = False
            continue
        image_boundary = {phi.get(b) for b in c.boundary}
        if image_boundary != set(target_cell.boundary):
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

    low_m = {c.id for c in m if c.dim <= n - 2}
    low_k = {c.id for c in k if c.dim <= n - 2}
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
        for corner in m.corners:
            link = corner_link(m, corner)
            bad = {}
            for e in link.edges:
                bad[e.left] = bad.get(e.left, 0) + 1
                bad[e.right] = bad.get(e.right, 0) + 1
            for f in link.vertices:
                if bad.get(f, 0) != 2:
                    v.append(
                        Violation(
                            "h-corner-link",
                            (corner, f),
                            f"corner {corner!r} has degree {bad.get(f, 0)} "
                            f"at facet {f!r}, expected 2",
                        )
                    )
    return ValidationReport.from_violations(v)


# ---- construction order ----------------------------------------------


def cells_by_dim_and_id(cells) -> list:
    """Cells in the order Complex validates them: one sort on (dim, id)."""
    return sorted(cells, key=lambda c: (c.dim, c.id))


def first_repeated_id(cells) -> str | None:
    """The id DuplicateCellId names: the first repeat in (dim, id) order."""
    seen = set()
    for c in cells_by_dim_and_id(cells):
        if c.id in seen:
            return c.id
        seen.add(c.id)
    return None


def first_dangling_cell(cells) -> str | None:
    """The cell DanglingReference names: the first in (dim, id) order
    whose boundary lists an id no cell has."""
    ids = {c.id for c in cells}
    for c in cells_by_dim_and_id(cells):
        if not ids.issuperset(c.boundary):
            return c.id
    return None


# ---- canonical JSON ---------------------------------------------------


def dumps_stdlib(doc) -> str:
    """The canonical text by definition: the stdlib encoder, indent 2."""
    return json.dumps(doc, indent=2) + "\n"


# ---- loading by the general path --------------------------------------


def complex_by_general_path(doc) -> Complex:
    """complex_from_dict with its one pass for canonical documents off:
    every document is read entry by entry, then sorted and checked by
    Complex, as any non-canonical document is."""
    with mock.patch.object(serialize, "_canonical_complex", lambda *_: None):
        return serialize.complex_from_dict(doc)


def reads_in_one_pass(doc) -> bool:
    """Whether complex_from_dict reads doc in its pass for canonical files."""
    try:
        return serialize._canonical_complex(doc["cells"], doc["dimension"]) is not None
    except (KeyError, TypeError):  # not a dict, or no int dimension
        return False


def tables(k: Complex) -> tuple:
    """A complex's dimension and its three tables, order included."""
    return k.dim, list(k._cells.items()), k._by_dim, list(k._cofaces.items())


def load_outcome(load, doc) -> tuple:
    """The tables load(doc) builds, or the class and message it raises."""
    try:
        return tables(load(doc))
    except Exception as exc:
        return type(exc), str(exc)
