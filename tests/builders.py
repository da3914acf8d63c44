"""Small hand-built complexes shared across test modules."""

import random
from collections import Counter
from itertools import combinations, count

from circlet import Cell, cell
from circlet.complexes import Complex, build_complex
from circlet.families import finned_circlet


def labeled_cycle(n, tag, share=None):
    """Cycle cells with ids distinct per tag; vertex 0 optionally shared."""
    vs = [share if (i == 0 and share) else f"{tag}v{i}" for i in range(n)]
    out = [cell(v, 0) for v in vs]
    out += [cell(f"{tag}e{i}", 1, [vs[i], vs[(i + 1) % n]]) for i in range(n)]
    return out


def merge_cells(*cell_lists):
    """Concatenate cell lists, collapsing identical duplicates (shared ids)."""
    seen = {}
    for cells in cell_lists:
        for c in cells:
            if c.id in seen:
                assert seen[c.id] == c, f"conflicting duplicate {c.id!r}"
            else:
                seen[c.id] = c
    return list(seen.values())


def two_cycle():
    """Two parallel edges between two vertices."""
    return build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("e1", 1, ["a", "b"]),
            cell("e2", 1, ["a", "b"]),
        ]
    )


def triangle_with_extra_vertex():
    """A full triangle plus one vertex no facet contains."""
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


def path_graph():
    """Two edges meeting at one middle vertex."""
    return build_complex(
        [
            cell("a", 0),
            cell("b", 0),
            cell("c", 0),
            cell("ab", 1, ["a", "b"]),
            cell("bc", 1, ["b", "c"]),
        ]
    )


def relabeled(k, name):
    """The cells of k with every id, boundaries included, passed through name."""
    return [cell(name(c.id), c.dim, [name(b) for b in c.boundary]) for c in k]


def renamed(k, old, new):
    """The complex k with the cell id old replaced by new everywhere."""
    return build_complex(relabeled(k, lambda cid: new if cid == old else cid))


def finned_chain(copies, k=3, m=4):
    """Copies of finned_circlet(k, m), each sharing a rim edge with the last.

    Every copy is one circlet whose spine edges lie under m of its own
    facets, so a seeded gluing shuffles more than two facets there.
    """
    base = finned_circlet(k, m)
    cells = {}
    for i in range(copies):
        identify = {}
        if i:
            # rim edge o0.0 of this copy is rim edge o1.0 of the one before
            a, b = sorted(base.boundary("o0.0"))
            c, d = sorted(base.boundary("o1.0"))
            last = f"p{i - 1}."
            identify = {"o0.0": last + "o1.0", a: last + c, b: last + d}

        def name(cid, identify=identify, i=i):
            return identify.get(cid, f"p{i}.{cid}")

        for x in base:
            cells.setdefault(name(x.id), cell(name(x.id), x.dim, map(name, x.boundary)))
    return build_complex(cells.values())


def random_boundary(seed, v, d, p):
    """The mod-2 boundary of a random set of (d+1)-simplices on labels 1..v.

    Each (d+2)-subset of the labels is drawn when ``rng.random() < p``, one
    draw per subset in ``itertools.combinations`` order. The facets are the
    (d+1)-subsets under an odd number of drawn simplices, and the cells are
    their closure, ids joined by dashes as in ``simplex_skeleton``. Every
    side lies under an even number of facets, since the boundary of a
    boundary is zero; sides can be thick and circlets need not be
    pseudomanifolds. None when no facet is left.
    """
    rng = random.Random(seed)
    under = Counter()
    for simplex in combinations([str(i) for i in range(1, v + 1)], d + 2):
        if rng.random() < p:
            under.update(combinations(simplex, d + 1))
    facets = [f for f, n in under.items() if n % 2]
    if not facets:
        return None
    closure = {c for f in facets for r in range(1, d + 2) for c in combinations(f, r)}
    return build_complex(
        cell("-".join(c), len(c) - 1, map("-".join, combinations(c, len(c) - 1)))
        if len(c) > 1
        else cell(c[0], 0)
        for c in closure
    )


def cw_mutate(k, rng, moves=4):
    """k after random moves that keep it even and regular but not simplicial.

    * thicken: two new facets over one facet's boundary;
    * pillow: a new side s' over the boundary of a side s, and two new
      facets over {s, s'};
    * merge: two facets whose closures meet exactly in the closure of a
      side of degree 2 become one facet over the rest of their sides, and
      that side goes. A side of degree 2 puts both its facets in one
      circlet, so the minimal even sets before and after correspond one
      to one.

    New cells are named x0, x1, ...; a merge with no candidate pair is
    skipped.
    """
    cells = {c.id: c for c in k}
    n = k.dim
    fresh = (f"x{i}" for i in count())
    for _ in range(moves):
        current = Complex(cells.values())
        move = rng.choice(["thicken", "pillow", "merge"])
        if move == "thicken":
            faces = current.boundary(rng.choice(current.facets))
            for x in (next(fresh), next(fresh)):
                cells[x] = Cell(x, n, faces)
        elif move == "pillow":
            s = current.cell(rng.choice(current.sides))
            twin = next(fresh)
            cells[twin] = Cell(twin, n - 1, s.boundary)
            for x in (next(fresh), next(fresh)):
                cells[x] = Cell(x, n, frozenset({s.id, twin}))
        else:
            closure = current.closure
            joins = [
                (s, *current.facets_over(s))
                for s in current.sides
                if current.side_degrees[s] == 2
            ]
            joins = [j for j in joins if closure(j[1]) & closure(j[2]) == closure(j[0])]
            if joins:
                s, f, g = rng.choice(joins)
                x = next(fresh)
                faces = cells.pop(f).boundary | cells.pop(g).boundary
                cells[x] = Cell(x, n, faces - {s})
                del cells[s]
    return Complex(cells.values())
