"""The binding acceptance checks, one test per criterion.

Each test prints one pass/fail line and enforces its time budget.
Criterion 7 reuses the pseudomanifolds built by criteria 3 and 5; when
it runs alone it rebuilds them outside its own timed window.
"""

import time
from contextlib import contextmanager
from itertools import combinations, product

from circlet import (
    bridges,
    decompose_into_circlets,
    degree_profile,
    dual_multigraph,
    euler_characteristic,
    euler_cover,
    extract_circlet,
    incidence_matrix,
    induced_subcomplex,
    side_tour,
    strong_components,
    validate_decomposition,
    verify_cover,
)
from circlet.families import (
    crosspolytope_skeleton,
    finned_circlet,
    hypercube_skeleton,
    random_even,
    random_even_multigraph,
    simplex_skeleton,
    triangular_grid,
)

import oracles

MULTIGRAPH_SEEDS = range(50)

# pseudomanifold sources stashed for criterion 7 keyed by a label
_SOURCES: dict[str, object] = {}

# one line per criterion; conftest echoes these in the terminal summary
# so they stay visible when capture hides per-test stdout on green runs
RESULT_LINES: list[str] = []


def _record(line: str) -> None:
    print(line)
    RESULT_LINES.append(line)


@contextmanager
def criterion(num: int, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _record(f"criterion {num}: FAIL ({elapsed:.3f}s, limit {limit:g}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit
    verdict = "PASS" if ok else "FAIL (over budget)"
    _record(f"criterion {num}: {verdict} ({elapsed:.3f}s, limit {limit:g}s)")
    assert ok, f"criterion {num} took {elapsed:.3f}s, limit {limit:g}s"


def delta52_cover_source():
    if "delta52" not in _SOURCES:
        _SOURCES["delta52"] = euler_cover(simplex_skeleton(6, 2)).source
    return _SOURCES["delta52"]


def classical_cover_sources():
    if "grid" not in _SOURCES:
        _SOURCES["grid"] = euler_cover(triangular_grid(3)).source
        for seed in MULTIGRAPH_SEEDS:
            k = random_even_multigraph(seed)
            _SOURCES[f"mg{seed}"] = euler_cover(k).source
    return [_SOURCES["grid"]] + [_SOURCES[f"mg{s}"] for s in MULTIGRAPH_SEEDS]


def test_criterion_01_delta52_analysis():
    with criterion(1, 1.0):
        k = simplex_skeleton(6, 2)
        assert len(k.cells_of_dim(0)) == 6
        assert len(k.cells_of_dim(1)) == 15
        assert len(k.cells_of_dim(2)) == 20
        profile = degree_profile(k)
        assert profile.histogram() == {4: 15}
        assert profile.is_pure and profile.is_even
        assert len(strong_components(k)) == 1


def test_criterion_02_delta52_decomposition():
    with criterion(2, 5.0):
        k = simplex_skeleton(6, 2)
        dec = decompose_into_circlets(k)
        flat = [f for part in dec.parts for f in part]
        assert len(flat) == 20
        assert len(set(flat)) == 20
        assert set(flat) == set(k.facets)
        for part in dec.parts:
            assert oracles.is_minimal_even_set(k, part)

        # the hand partition: three tetrahedron boundaries plus one
        # octahedron boundary on antipodal vertex pairs
        def tetra(vs):
            return tuple(
                "-".join(str(x) for x in sorted(c))
                for c in combinations(sorted(vs), 3)
            )

        hand = [
            tetra({1, 2, 4, 5}),
            tetra({1, 3, 4, 6}),
            tetra({2, 3, 5, 6}),
            tuple(
                sorted(
                    "-".join(str(x) for x in sorted(t))
                    for t in product((1, 4), (2, 5), (3, 6))
                )
            ),
        ]
        report = validate_decomposition(k, hand)
        assert report.passed, report.violations


def test_criterion_03_delta52_cover():
    with criterion(3, 1.0):
        k = simplex_skeleton(6, 2)
        cover = euler_cover(k)
        m = cover.source
        assert [len(m.cells_of_dim(r)) for r in range(3)] == [6, 30, 20]
        assert set(m.side_degrees.values()) == {2}
        assert len(strong_components(m)) == 1
        assert euler_characteristic(m) == -4
        report = verify_cover(cover)
        assert report.passed, report.violations
    _SOURCES["delta52"] = m


def test_criterion_04_finned_circlet():
    with criterion(4, 10.0):
        k = finned_circlet(3, 4)
        assert len(k.facets) == 13
        degs = k.side_degrees
        spines = {s for s, d in degs.items() if d == 4}
        assert spines == {"s0", "s1", "s2"}
        assert all(d == 2 for s, d in degs.items() if s not in spines)

        m = incidence_matrix(k)
        assert extract_circlet(m, k.facets) == frozenset(k.facets)

        # scan all 2^12 facet sets containing the 12-gon cap: none but
        # the full set is even; no cap-free set is even either
        facets, masks = oracles.facet_side_masks(k)
        pos = {f: i for i, f in enumerate(facets)}
        cap_mask = masks[pos["cap"]]
        squares = [masks[pos[f]] for f in facets if f != "cap"]
        n = len(squares)
        assert n == 12
        full = (1 << n) - 1
        for pick in range(1 << n):
            acc = cap_mask
            rest = pick
            while rest:
                low = rest & -rest
                acc ^= squares[low.bit_length() - 1]
                rest ^= low
            assert (acc == 0) == (pick == full)
        for pick in range(1, 1 << n):
            acc = 0
            rest = pick
            while rest:
                low = rest & -rest
                acc ^= squares[low.bit_length() - 1]
                rest ^= low
            assert acc != 0


def test_criterion_05_classical_euler_equivalence():
    with criterion(5, 5.0):
        cases = [triangular_grid(3)]
        cases += [random_even_multigraph(seed) for seed in MULTIGRAPH_SEEDS]
        sources = []
        for k in cases:
            cover = euler_cover(k)
            m = cover.source
            n_edges = len(k.cells_of_dim(1))
            assert len(m.cells_of_dim(1)) == n_edges
            assert set(m.side_degrees.values()) == {2}
            assert len(strong_components(m)) == 1
            circuit = oracles.euler_circuit(k)
            assert circuit is not None
            assert len(circuit) == n_edges
            assert sorted(circuit) == sorted(k.cells_of_dim(1))
            sources.append(m)
    _SOURCES["grid"] = sources[0]
    for seed, m in zip(MULTIGRAPH_SEEDS, sources[1:]):
        _SOURCES[f"mg{seed}"] = m


def test_criterion_06_matroid_axioms():
    with criterion(6, 10.0):
        k = simplex_skeleton(5, 2)
        assert len(k.facets) == 10
        circuits = oracles.minimal_even_facet_sets(k)
        assert len(circuits) == 15
        # (a) incomparability
        for c1 in circuits:
            for c2 in circuits:
                if c1 != c2:
                    assert not c1 < c2
        # (b) exchange across any shared facet
        for c1 in circuits:
            for c2 in circuits:
                if c1 == c2:
                    continue
                for f in c1 & c2:
                    pool = (c1 | c2) - {f}
                    assert any(d <= pool for d in circuits), (c1, c2, f)
        # symmetric differences stay even, seen by both the raw parity
        # oracle and the library's induced-subcomplex profile
        for c1, c2 in combinations(circuits, 2):
            if not c1 & c2:
                continue
            sym = c1 ^ c2
            assert sym
            assert oracles.is_even_facet_set(k, sym)
            assert degree_profile(induced_subcomplex(k, sorted(sym))).is_even


def test_criterion_07_covers_are_bridgeless():
    fixtures = [
        delta52_cover_source(),
        *classical_cover_sources(),
        crosspolytope_skeleton(3, 2),
        hypercube_skeleton(3, 2),
    ]
    with criterion(7, 1.0):
        for m in fixtures:
            assert set(m.side_degrees.values()) == {2}
            assert len(strong_components(m)) == 1
            assert bridges(dual_multigraph(m)) == []


def test_criterion_08_decompose_cover_verify_round_trip():
    with criterion(8, 30.0):
        for seed in range(25):
            k = random_even(seed, 3 + seed % 3)
            dec = decompose_into_circlets(k)
            assert dec.all_facets() == frozenset(k.facets)
            cover = euler_cover(k)
            report = verify_cover(cover)
            assert report.passed, (seed, report.violations)
            for s in k.sides:
                assert k.side_degrees[s] == 2 * len(cover.preimage(s)), (
                    seed,
                    s,
                )


def test_criterion_09_cube_side_tour():
    with criterion(9, 1.0):
        cube = hypercube_skeleton(3, 2)
        tour = side_tour(cube)
        assert len(tour.sides) == 12
        assert sorted(tour.sides) == sorted(cube.sides)
        for i, s in enumerate(tour.sides):
            t = tour.sides[(i + 1) % len(tour.sides)]
            assert set(cube.facets_over(s)) & set(cube.facets_over(t)), (s, t)
