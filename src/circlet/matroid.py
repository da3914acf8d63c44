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
        ids = iter(facet_ids)
        for f in ids:
            j = lookup.get(f)
            if j is None:
                # the smallest unknown id, so the message is the same in any
                # iteration order; the ids before f are all known
                bad = min(g for g in (f, *ids) if g not in lookup)
                raise UnknownFacet(f"{bad!r} is not a facet column")
            out.append(j)
        return out


def incidence_matrix(k: Complex) -> IncidenceMatrixGF2:
    """The side/facet incidence matrix of a complex of dim >= 1, built afresh."""
    if k.dim == 0:
        raise ZeroDimensional("0-dimensional complexes have no sides")
    sides, facets = k.sides, k.facets
    bit = {s: 1 << i for i, s in enumerate(sides)}
    # a boundary names each side once, so the sum of its bits is their OR
    columns = tuple(sum(bit[s] for s in k.boundary(f)) for f in facets)
    return IncidenceMatrixGF2(sides, facets, columns)


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
    circuit = _first_circuit(m, sorted(set(facet_ids)))
    return None if circuit is None else frozenset(circuit)


def extract_circlet(
    m: IncidenceMatrixGF2, facet_ids: Iterable[str]
) -> frozenset[str]:
    """A minimal even subset (a circlet) of an even facet set S, in one scan.

    Returns the first circuit of S minus its smallest facet, or S when
    there is none: a proper even T of S puts T or S - T in that rest.
    """
    current = sorted(set(facet_ids))
    if not is_even_subset(m, current):
        raise NotEven("starting facet set is not even")
    return frozenset(_first_circuit(m, current[1:]) or current)


def _first_circuit(m: IncidenceMatrixGF2, ids: Sequence[str]) -> list[str] | None:
    """The first circuit among the ids' columns, in id order, or None.

    One fresh scan: its first dependency is a fundamental circuit, hence
    minimal.
    """
    cols = m.columns
    j, combo = gf2.scan((cols[q] for q in m.column_index(ids)), {})
    return None if j < 0 else [ids[b] for b in gf2.bit_indices(combo)]


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
    what is left is the last circlet. Evenness is checked once, on k's
    side degrees, before the scan.

    The decomposition is kept on k, so later calls, those of
    :func:`circlet.covers.euler_cover` among them, return it without
    peeling again. Only a success is kept: NotPure and NotEven are raised
    afresh on every call.
    """
    if (cached := k._kept.get("decomposition")) is not None:
        return cached
    profile = degree_profile(k)
    if not profile.is_pure:
        raise NotPure("decomposition needs a pure complex")
    if not profile.is_even:
        raise NotEven("decomposition needs every side degree positive and even")
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
    parts.append(tuple(facets[p] for p in range(len(facets)) if p not in peeled))
    d = k._kept["decomposition"] = CircletDecomposition(parts=tuple(parts))
    return d


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
        smaller = _first_circuit(m, part[1:])
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
    if _first_circuit(m, m.facet_ids[1:]) is not None:
        raise NotCirclet("a proper even facet subset exists")
    return m
