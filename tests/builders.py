"""Small hand-built complexes shared across test modules."""

from circlet import cell
from circlet.complexes import build_complex
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
