"""Even facet subsets as GF(2) column dependencies.

The side/facet incidence matrix of a pure complex turns evenness into
linear algebra: a nonempty facet set induces an even subcomplex exactly
when its incidence columns XOR to zero, because a side missing from the
induced subcomplex contributes degree zero and every present side must
be covered an even number of times. Minimal nonempty such sets are the
circlets; they are the circuits of a binary matroid on the facets, and
every even complex splits into facet-disjoint circlets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from operator import xor
from typing import Iterable, Sequence

from . import gf2
from .complexes import Complex, ValidationReport, Violation, degree_profile
from .errors import NotCirclet, NotEven, NotPure, UnknownFacet, ZeroDimensional

__all__ = [
    "IncidenceMatrixGF2",
    "incidence_matrix",
    "is_even_subset",
    "find_even_subset",
    "extract_circlet",
    "CircletDecomposition",
    "decompose_into_circlets",
    "validate_decomposition",
    "require_circlet",
]


@dataclass(frozen=True)
class IncidenceMatrixGF2:
    """Side rows by facet columns over GF(2), one int bitset per column.

    Rows and columns are sorted by id; ``columns[j]`` holds column j as a
    bitset over row indices.
    """

    side_ids: tuple[str, ...]
    facet_ids: tuple[str, ...]
    columns: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.side_ids), len(self.facet_ids)

    @cached_property
    def _columns(self) -> dict[str, int]:
        return {f: j for j, f in enumerate(self.facet_ids)}

    def column_index(self, facet_ids: Iterable[str]) -> list[int]:
        lookup = self._columns
        out = []
        for f in facet_ids:
            j = lookup.get(f)
            if j is None:
                raise UnknownFacet(f"{f!r} is not a facet column")
            out.append(j)
        return out


def incidence_matrix(k: Complex) -> IncidenceMatrixGF2:
    """Build the side/facet incidence matrix of a complex of dim >= 1."""
    if k.dim == 0:
        raise ZeroDimensional("0-dimensional complexes have no sides")
    sides = k.sides
    facets = k.facets
    bit = {s: 1 << i for i, s in enumerate(sides)}
    # a boundary names each side once, so the sum of its bits is their OR
    columns = tuple(sum(bit[s] for s in k.boundary(f)) for f in facets)
    return IncidenceMatrixGF2(side_ids=sides, facet_ids=facets, columns=columns)


def is_even_subset(m: IncidenceMatrixGF2, facet_ids: Iterable[str]) -> bool:
    """True iff the set is nonempty and its columns XOR to zero."""
    idx = m.column_index(facet_ids)
    cols = m.columns
    return bool(idx) and not reduce(xor, (cols[j] for j in idx))


def find_even_subset(
    m: IncidenceMatrixGF2, facet_ids: Iterable[str]
) -> frozenset[str] | None:
    """Some nonempty even subset of the given facets, or None.

    Deterministic: columns are scanned in id order and the answer is the
    support of the dependency on the first column that is not independent
    of the earlier ones.
    """
    chosen = sorted(set(facet_ids))
    idx = m.column_index(chosen)
    j, combo = gf2.first_dependency([m.columns[q] for q in idx])
    if j < 0:
        return None
    return frozenset(chosen[b] for b in gf2.bit_indices(combo))


def extract_circlet(
    m: IncidenceMatrixGF2, facet_ids: Iterable[str]
) -> frozenset[str]:
    """A minimal even subset (a circlet) of an even facet set S, in one scan.

    Returns the even subset :func:`_smaller_even_subset` finds, or S when it
    finds none.
    """
    current = sorted(set(facet_ids))
    if not is_even_subset(m, current):
        raise NotEven("starting facet set is not even")
    return frozenset(_smaller_even_subset(m, current) or current)


def _smaller_even_subset(
    m: IncidenceMatrixGF2, part: Sequence[str]
) -> list[str] | None:
    """A proper even subset of an even facet set in id order, or None.

    One scan over ``part[1:]``: its first dependency is a fundamental
    circuit, hence minimal, and is returned in id order. If there is none,
    the part is minimal, as a proper even T puts T or part - T in part[1:].
    """
    cols = m.columns
    rest = m.column_index(part[1:])
    j, combo = gf2.scan((cols[q] for q in rest), {}, 1)
    return None if j < 0 else [part[b] for b in gf2.bit_indices(combo)]


@dataclass(frozen=True)
class CircletDecomposition:
    """Ordered partition of the facets into circlets, in peel order."""

    parts: tuple[tuple[str, ...], ...]

    def all_facets(self) -> frozenset[str]:
        return frozenset(f for part in self.parts for f in part)


def decompose_into_circlets(k: Complex) -> CircletDecomposition:
    """Peel circlets off an even complex until no facet remains.

    One elimination pass over the columns after the smallest facet, which
    is never peeled, in id order. When column j depends on the basis of
    the remaining columns before it, its combination is their fundamental
    circuit C, the next part. Each column of C other than j is dropped
    from the basis (:func:`gf2.drop_column`), which then spans the
    remaining columns before j + 1, and the scan resumes there. That is
    the dependency a fresh scan of the remaining columns would stop at,
    so the parts and their order are those of rescanning from the first
    column after every peel. Every circuit XORs to zero, so the remainder
    stays even; once the scan finds no dependency, the smallest facet with
    what is left is the last circlet, and the one evenness check is made
    there.
    """
    profile = degree_profile(k)
    if not profile.is_pure:
        raise NotPure("decomposition needs a pure complex")
    if not profile.is_even:
        raise NotEven("decomposition needs every side degree positive even")
    m = incidence_matrix(k)
    facets, cols = m.facet_ids, m.columns
    rest = islice(cols, 1, None)  # one iterator: each scan resumes at j + 1
    basis: gf2.Basis = {}
    peeled: set[int] = set()
    parts: list[tuple[str, ...]] = []
    j = 0
    while True:
        j, combo = gf2.scan(rest, basis, j + 1)
        if j < 0:
            break
        circuit = gf2.bit_indices(combo)
        parts.append(tuple(facets[p] for p in circuit))
        peeled.update(circuit)
        for x in circuit[:-1]:  # the last is j, which never entered the basis
            gf2.drop_column(basis, x)
    last = [p for p in range(len(facets)) if p not in peeled]
    if reduce(xor, (cols[p] for p in last)):
        raise NotEven("starting facet set is not even")
    parts.append(tuple(facets[p] for p in last))
    return CircletDecomposition(parts=tuple(parts))


def validate_decomposition(
    k: Complex, parts: Iterable[Iterable[str]]
) -> ValidationReport:
    """Check a proposed partition against the circlet-decomposition rules.

    Rules reported: ``partition`` (parts disjoint and covering the facets
    exactly), ``even`` (every part an even subset), ``minimal`` (no part
    has a proper nonempty even subset).
    """
    listed = [tuple(sorted(set(p))) for p in parts]
    violations: list[Violation] = []
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
        if not is_even_subset(m, part):
            violations.append(
                Violation("even", part, f"part {i} is not an even subset")
            )
            continue
        smaller = _smaller_even_subset(m, part)
        if smaller is not None:
            violations.append(
                Violation(
                    "minimal",
                    part,
                    f"part {i} properly contains the even subset {smaller}",
                )
            )
    return ValidationReport.from_violations(violations)


def require_circlet(k: Complex) -> IncidenceMatrixGF2:
    """Assert a complex is a circlet; returns its incidence matrix.

    A circlet is pure, even, and minimal: no proper nonempty facet subset
    is even. Raises NotCirclet otherwise.
    """
    try:
        profile = degree_profile(k)
    except ZeroDimensional as exc:
        raise NotCirclet(str(exc)) from exc
    if not profile.is_pure:
        raise NotCirclet("not pure, so not a circlet")
    if not profile.is_even:
        raise NotCirclet("not even, so not a circlet")
    m = incidence_matrix(k)
    if _smaller_even_subset(m, m.facet_ids) is not None:
        raise NotCirclet("a proper even facet subset exists")
    return m
