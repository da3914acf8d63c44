"""The library's direct algorithms against the references in oracles.py.

Lookups read the coface map built at construction; the references scan
every cell. Strong components are a search from each facet in id order,
checked on disjoint unions whose ids interleave. A cover's preimages
come from its map inverted once; the reference scans the map. Closures
are computed on request; the reference builds them all bottom-up.
Circlet extraction is one GF(2) scan, and decomposition one elimination
pass; the references shrink by deletion or rescan after every peel, and
the part checks of validate_decomposition are matched against one
extraction per part on mutated partitions. euler_cover folds the
circlets' pairings straight off the complex and builds once; the
references chain merge_covers (small inputs) or fold one induced
subcomplex and gluing per circlet (inputs of benchmark size).
build_glued_complex hands each side copy to its pair's facet lifts as it
makes it; the reference keys every copy by (side, facet) and looks the
lifts' boundaries up afterwards, on canonical, seeded and folded gluings
and on ids renamed so that lifts and copies sort unlike their bases.
verify_cover counts corner-link degrees off the coface tables; the
reference builds each corner's link multigraph, on covers, mutated cell
maps, swapped ends and moved source edges. validate_regularity reads two
levels of the boundary relation; the reference compares full closures,
on the families and on complexes whose boundaries were mangled at
random. complex_from_dict reads a canonical document in one pass; the
reference is its general path, which sorts and checks the cells after
reading them, on every family, random and CW-moved complexes and their
covers, and on the same documents shuffled. side_tour walks the coface
table; the reference walks its own adjacency lists of the dual, on cover
sources of random draws, the skeleton, finned and CW-moved cases and
their covers, glued non-circlets and the golden inputs. Each pair must
agree exactly.
"""

import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import oracles
from circlet import (
    Cell,
    Complex,
    CoverMap,
    build_glued_complex,
    canonical_gluing,
    corner_link,
    decompose_into_circlets,
    degree_profile,
    dual_multigraph,
    euler_cover,
    extract_circlet,
    gluing_from_cover,
    incidence_matrix,
    serialize,
    side_tour,
    strong_components,
    validate_decomposition,
    validate_regularity,
    verify_cover,
)
from circlet.errors import (
    BadParameters,
    CircletError,
    DanglingReference,
    DualNotSimple,
    DuplicateCellId,
    NotPseudomanifold,
    NotPure,
    NotStronglyConnected,
    OddFacet,
    ParseError,
    ZeroDimensional,
)
from circlet.families import (
    crosspolytope_skeleton,
    cycle,
    finned_circlet,
    hypercube_skeleton,
    random_even,
    random_even_multigraph,
    simplex_skeleton,
    triangular_grid,
)
from circlet.serialize import cover_to_dict

# no seed (the canonical pairing in id order), then two seeds
SEEDS = [None, 3, 7]
SEED_IDS = ["canonical-0", "seeded-3", "seeded-7"]


LOOKUP_CASES = {
    "delta4_2": lambda: simplex_skeleton(5, 2),
    "delta5_3": lambda: simplex_skeleton(6, 3),
    "finned3_4": lambda: finned_circlet(3, 4),
    "grid3": lambda: triangular_grid(3),
    "random_even4_5": lambda: random_even(4, 5),
    "cover_source": lambda: euler_cover(random_even(4, 5)).source,
    "not_pure": builders.triangle_with_extra_vertex,
    "path": builders.path_graph,
    "two_cycle": builders.two_cycle,
    "points": lambda: Complex([Cell(v, 0, frozenset()) for v in "bca"]),
    "multigraph3": lambda: random_even_multigraph(3),
}


# ---- lookups ----------------------------------------------------------


@pytest.mark.parametrize("case", sorted(LOOKUP_CASES))
def test_facets_over_matches_scan(case):
    k = LOOKUP_CASES[case]()
    for cid in [c.id for c in k] + ["no-such-cell"]:
        assert k.facets_over(cid) == oracles.facets_over_by_scan(k, cid)
    for s in k.sides:
        assert k.side_degrees[s] == len(oracles.facets_over_by_scan(k, s))
    under = set().union(*(k.closure(f) for f in k.facets))
    assert k.is_pure == (under == {c.id for c in k})


@pytest.mark.parametrize("case", sorted(LOOKUP_CASES))
def test_closure_matches_bottom_up(case):
    k = LOOKUP_CASES[case]()
    expected = oracles.closures_bottom_up(k)
    # both orders: no answer may depend on an earlier call
    for cid in [*reversed(expected), *expected]:
        assert k.closure(cid) == expected[cid]
    with pytest.raises(KeyError):
        k.closure("no-such-cell")


@pytest.mark.parametrize("case", sorted(LOOKUP_CASES))
def test_corner_link_matches_scan(case):
    k = LOOKUP_CASES[case]()
    for cid in k.corners:
        assert corner_link(k, cid) == oracles.corner_link_by_scan(k, cid)
    for cid in (*k.sides, *k.facets, "no-such-cell"):
        with pytest.raises(BadParameters):
            corner_link(k, cid)


@pytest.mark.parametrize("case", sorted(LOOKUP_CASES))
def test_dual_multigraph_matches_scan(case):
    k = LOOKUP_CASES[case]()
    if k.dim == 0:
        with pytest.raises(ZeroDimensional):
            dual_multigraph(k)
        with pytest.raises(ZeroDimensional):
            strong_components(k)
    elif k.is_pure:
        assert dual_multigraph(k) == oracles.dual_multigraph_by_scan(k)
    else:
        with pytest.raises(NotPure):
            strong_components(k)


@settings(max_examples=30, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(1, 8)),
        min_size=2,
        max_size=3,
    ),
    rng=st.randoms(),
)
def test_strong_components_match_search_on_unions(pieces, rng):
    # disjoint copies of strongly connected complexes, every cell renamed
    # from one shuffled pool, so the pieces' facet ids interleave
    parts = [random_even(n, size) for n, size in pieces]
    pool = [f"c{i}" for i in range(sum(map(len, parts)))]
    rng.shuffle(pool)
    names = iter(pool)
    cells, groups = [], []
    for k in parts:
        rename = {c.id: next(names) for c in k}
        cells += [
            Cell(rename[c.id], c.dim, frozenset(map(rename.get, c.boundary)))
            for c in k
        ]
        groups.append(frozenset(map(rename.get, k.facets)))
    union = Complex(cells)
    comps = strong_components(union)
    assert comps == oracles.facet_components(union)
    assert comps == sorted(groups, key=min)
    assert strong_components(union) == comps  # the kept copy


PREIMAGE_CASES = {
    "random_even1_10": lambda: euler_cover(random_even(1, 10)),
    "multigraph5": lambda: euler_cover(random_even_multigraph(5)),
    "delta6_3": lambda: euler_cover(simplex_skeleton(7, 3)),
    "finned3_20": lambda: euler_cover(finned_circlet(3, 20)),
}


@pytest.mark.parametrize("case", sorted(PREIMAGE_CASES))
def test_preimage_matches_scan(case):
    cover = PREIMAGE_CASES[case]()
    # mutated maps send several cells, or none, to one target cell
    for c in [cover, *mutated_covers(cover, random.Random(case))]:
        for cid in [t.id for t in c.target] + ["no-such-cell"]:
            assert c.preimage(cid) == oracles.preimage_by_scan(c, cid)


# ---- regularity -------------------------------------------------------


REGULARITY_CASES = {
    "delta5_2": lambda: simplex_skeleton(6, 2),
    "delta5_3": lambda: simplex_skeleton(6, 3),
    "delta5_4": lambda: simplex_skeleton(6, 4),
    "cube4_3": lambda: hypercube_skeleton(4, 3),
    "cross4_3": lambda: crosspolytope_skeleton(4, 3),
    "finned3_4": lambda: finned_circlet(3, 4),
    "random_even4_5": lambda: random_even(4, 5),
    "cover_source": lambda: euler_cover(random_even(4, 5)).source,
}


def mangled(k, rng):
    """k with one to three cells of dimension >= 1 given a new boundary:
    a face dropped, a cell one dimension down added, or one swapped for
    another. None when the result does not build."""
    cells = {c.id: c for c in k}
    for _ in range(rng.randint(1, 3)):
        c = rng.choice([x for x in cells.values() if x.dim >= 1])
        faces = set(c.boundary)
        roll = rng.random()
        if roll < 2 / 3:
            faces.discard(rng.choice(sorted(faces)))
        if roll > 1 / 3:
            faces.add(rng.choice(k.cells_of_dim(c.dim - 1)))
        cells[c.id] = Cell(c.id, c.dim, frozenset(faces))
    try:
        return Complex(cells.values())
    except CircletError:
        return None


@pytest.mark.parametrize("case", sorted(REGULARITY_CASES))
def test_regularity_matches_closures(case):
    k = REGULARITY_CASES[case]()
    assert validate_regularity(k) == oracles.validate_by_closures(k)
    rng = random.Random(case)
    rules = set()
    for _ in range(100):
        m = mangled(k, rng)
        if m is not None:
            report = validate_regularity(m)
            assert report == oracles.validate_by_closures(m)
            rules.update(v.rule for v in report.violations)
    assert rules == {"diamond", "boundary-connected"}


# ---- construction order ----------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 10**6),
    size=st.integers(1, 6),
    cover=st.booleans(),
    rng=st.randoms(),
)
def test_shuffled_cells_build_the_same_complex(n, size, cover, rng):
    k = random_even(n, size)
    if cover:
        k = euler_cover(k).source  # ids like "1-2#10" and "1-2-3^"
    cells = list(k)
    rng.shuffle(cells)
    shuffled = Complex(cells)
    assert shuffled == k
    assert list(shuffled) == oracles.cells_by_dim_and_id(cells) == list(k)
    assert list(shuffled._cofaces.items()) == list(k._cofaces.items())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 10**6), extra=st.integers(1, 3), rng=st.randoms())
def test_shuffled_cells_name_the_same_bad_cell(n, extra, rng):
    cells = list(random_even(n, 3))
    # repeats of existing ids, some at another dimension
    repeats = [
        Cell(c.id, rng.choice([c.dim, 0]), c.boundary)
        for c in rng.sample(cells, extra)
    ]
    broken = cells + repeats
    rng.shuffle(broken)
    first = oracles.first_repeated_id(broken)
    with pytest.raises(DuplicateCellId, match=re.escape(repr(first))):
        Complex(broken)
    # new cells of every dimension, each with one missing boundary id
    lower = [c for c in cells if c.dim < 2]
    strays = [
        Cell(f"{c.id}*{i}", c.dim + 1, frozenset({c.id, f"missing{i}"}))
        for i, c in enumerate(rng.sample(lower, extra))
    ]
    broken = cells + strays
    rng.shuffle(broken)
    first = oracles.first_dangling_cell(broken)
    with pytest.raises(DanglingReference, match=re.escape(f"cell {first!r} ")):
        Complex(broken)


# ---- circlet extraction -----------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: simplex_skeleton(4, 2),
        lambda: simplex_skeleton(5, 2),
        lambda: finned_circlet(3, 4),
        lambda: random_even(2, 2),
        lambda: random_even_multigraph(5),
    ],
    ids=["delta3_2", "delta4_2", "finned3_4", "random_even2_2", "multigraph5"],
)
def test_extract_circlet_matches_shrink_on_every_even_set(make):
    k = make()
    m = incidence_matrix(k)
    for subset in oracles.all_even_facet_sets(k):
        expected = oracles.shrink_by_deletion(m, subset)
        assert extract_circlet(m, subset) == expected
        assert oracles.is_minimal_even_set(k, expected)


# ---- decompositions and covers ----------------------------------------


def assert_matches_references(k, seed):
    parts = decompose_into_circlets(k).parts
    assert parts == oracles.decompose_by_deletion(k)
    got = cover_to_dict(euler_cover(k, seed=seed))
    assert got == cover_to_dict(oracles.fold_by_merges(k, seed=seed))
    # fold_by_merges shares merge_covers' step with euler_cover; this one
    # re-pairs and concatenates with its own code
    assert got == cover_to_dict(oracles.fold_by_subcomplexes(k, seed=seed))


def test_many_small_circlets_match_deletion():
    # 220 facets peel into 35 circlets of at most 8 facets each
    k = simplex_skeleton(12, 2)
    assert decompose_into_circlets(k).parts == oracles.decompose_by_deletion(k)


# the skeletons' long independent prefixes keep many vectors in the basis,
# so each peel drops columns from combinations that several vectors share
RESCAN_CASES = {
    "delta11_2": lambda: simplex_skeleton(12, 2),
    "delta19_2": lambda: simplex_skeleton(20, 2),
    "delta8_3": lambda: simplex_skeleton(9, 3),
    "cube6_3": lambda: hypercube_skeleton(6, 3),
    "cross5_3": lambda: crosspolytope_skeleton(5, 3),
    "finned20_8": lambda: finned_circlet(20, 8),
    "finned_chain8": lambda: builders.finned_chain(8),
}


@pytest.mark.parametrize("case", sorted(RESCAN_CASES))
def test_one_pass_peels_match_rescan(case):
    k = RESCAN_CASES[case]()
    assert decompose_into_circlets(k).parts == oracles.decompose_by_rescan(k)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 10**6), size=st.integers(1, 60))
def test_random_even_peels_match_rescan(n, size):
    k = random_even(n, size)
    assert decompose_into_circlets(k).parts == oracles.decompose_by_rescan(k)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 10**6))
def test_random_even_multigraph_peels_match_rescan(n):
    k = random_even_multigraph(n)
    assert decompose_into_circlets(k).parts == oracles.decompose_by_rescan(k)


def mutated_partitions(parts, facets, rng):
    """Wrong partitions of the facets, each from one edit of the right one."""
    parts = [list(p) for p in parts]
    out = []
    if len(parts) > 1:
        i, j = rng.sample(range(len(parts)), 2)
        merged = [p for t, p in enumerate(parts) if t not in (i, j)]
        out.append([parts[i] + parts[j], *merged])  # two parts merged
        a, b = rng.choice(parts[i]), rng.choice(parts[j])
        swapped = [list(p) for p in parts]
        swapped[i][swapped[i].index(a)] = b  # facets swapped across parts
        swapped[j][swapped[j].index(b)] = a
        out.append(swapped)
        out.append(parts[:i] + parts[i + 1 :])  # a part left out
        reused = [list(p) for p in parts]
        reused[j].append(a)  # a facet in two parts
        out.append(reused)
    i = rng.randrange(len(parts))
    if len(parts[i]) > 1:
        cut = rng.randrange(1, len(parts[i]))
        shuffled = rng.sample(parts[i], len(parts[i]))
        split = [shuffled[:cut], shuffled[cut:]]
        out.append(parts[:i] + split + parts[i + 1 :])  # a part split
    out.append([*parts, ["no-such-facet"]])  # a stray id
    out.append([*parts, []])  # an empty part
    out.append([list(facets)])  # everything as one part
    return out


PART_CHECK_CASES = {
    **{f"random_even{s}_6": (lambda s=s: random_even(s, 6)) for s in range(8)},
    "multigraph3": lambda: random_even_multigraph(3),
    "delta5_2": lambda: simplex_skeleton(6, 2),
    "delta7_2": lambda: simplex_skeleton(8, 2),
    "delta6_3": lambda: simplex_skeleton(7, 3),
    "cube5_2": lambda: hypercube_skeleton(5, 2),
    "finned_chain3": lambda: builders.finned_chain(3),
}


@pytest.mark.parametrize("case", sorted(PART_CHECK_CASES))
def test_part_checks_match_extraction(case):
    k = PART_CHECK_CASES[case]()
    parts = decompose_into_circlets(k).parts
    rng = random.Random(len(k.facets))
    partitions = [parts]
    for _ in range(6):
        partitions += mutated_partitions(parts, k.facets, rng)
    for p in partitions:
        assert validate_decomposition(k, p) == oracles.validate_by_extraction(k, p)


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), size=st.integers(1, 12))
def test_random_even_matches_references(seed, n, size):
    assert_matches_references(random_even(n, size), seed)


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6))
def test_random_even_multigraph_matches_references(seed, n):
    assert_matches_references(random_even_multigraph(n), seed)


# circlets in the skeletons share several sides with those folded before
# them, so the choice of the smallest shared side is exercised; in the
# finned chain each circlet has sides under four of its own facets, so a
# seeded pairing depends on each circlet's own shuffle
@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@pytest.mark.parametrize(
    "make",
    [
        lambda: simplex_skeleton(6, 2),
        lambda: simplex_skeleton(8, 2),
        lambda: simplex_skeleton(7, 3),
        lambda: crosspolytope_skeleton(4, 2),
        lambda: hypercube_skeleton(5, 2),
        lambda: builders.finned_chain(3),
    ],
    ids=[
        "delta5_2",
        "delta7_2",
        "delta6_3",
        "cross4_2",
        "cube5_2",
        "finned_chain3",
    ],
)
def test_skeletons_match_references(make, seed):
    assert_matches_references(make(), seed)


# fold_by_merges rebuilds the union per circlet, too slow at these sizes
FOLD_SIZE_CASES = {
    **{
        f"random_even{s}_{n}": (lambda s=s, n=n: random_even(s, n))
        for n in (40, 80)
        for s in (1, 2, 3)
    },
    "delta8_3": lambda: simplex_skeleton(9, 3),
    "cube6_3": lambda: hypercube_skeleton(6, 3),
    "finned_chain8": lambda: builders.finned_chain(8),
    # one circlet whose spine sides lie under 8 of its facets, as built
    # and with its ids shuffled, so that id order is not build order
    "finned20_8": lambda: finned_circlet(20, 8),
    "finned20_8_renamed": lambda: awkwardly_renamed(
        finned_circlet(20, 8), random.Random(20)
    ),
}


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@pytest.mark.parametrize("case", sorted(FOLD_SIZE_CASES))
def test_fold_sizes_match_subcomplex_fold(case, seed):
    k = FOLD_SIZE_CASES[case]()
    assert cover_to_dict(euler_cover(k, seed=seed)) == cover_to_dict(
        oracles.fold_by_subcomplexes(k, seed=seed)
    )


# mod-2 boundaries of random simplices: sides under up to 6 facets,
# circlets that are not pseudomanifolds, and dimension 3
BOUNDARY_DRAWS = [(7, 1, 0.3), (7, 2, 0.25), (8, 2, 0.15), (7, 3, 0.2), (9, 2, 0.05)]


def fold_branches(k):
    """Whether k's fold has a side under three or more circlets, a circlet
    re-paired past its smallest shared side, and a side two re-pair at."""
    plan = oracles.fold_plan(k)
    under = Counter(s for sub, _ in plan for s in sub.sides)
    at = Counter(side for _, side in plan if side is not None)
    past = any(
        side is not None and side > min(s for s in sub.sides if under[s] > 1)
        for sub, side in plan
    )
    return max(under.values()) >= 3, past, max(at.values(), default=0) >= 2


def test_fold_cases_reach_every_join_rule():
    # euler_cover joins the circlets at a shared side in rank order, each
    # at its re-pair side; these cases must keep every branch of that
    ks = [make() for make in FOLD_SIZE_CASES.values()]
    ks += [
        k
        for shape in BOUNDARY_DRAWS
        for seed in range(6)
        if (k := builders.random_boundary(seed, *shape)) is not None
    ]
    reached = [sum(got) for got in zip(*map(fold_branches, ks))]
    assert all(reached), reached


@pytest.mark.parametrize("v, d, p", BOUNDARY_DRAWS)
def test_random_boundaries_match_references(v, d, p):
    for seed in range(6):
        k = builders.random_boundary(seed, v, d, p)
        if k is None:
            continue
        assert validate_regularity(k).passed
        if len(k.facets) <= 16:
            # one partition into minimal even sets, not the list of them all
            minimal = set(oracles.minimal_even_facet_sets(k))
            parts = decompose_into_circlets(k).parts
            assert {frozenset(q) for q in parts} <= minimal
            assert sorted(f for q in parts for f in q) == sorted(k.facets)
        for s in SEEDS:
            assert_matches_references(k, s)
            assert_verify_matches_links(euler_cover(k, seed=s), seed)


# the same draws after random CW moves: facets over one boundary, digon
# pillows, facets with more sides than a simplex (29 draws: one is empty)
CW_DRAWS = [
    (*shape, seed)
    for shape in BOUNDARY_DRAWS
    for seed in range(6)
    if builders.random_boundary(seed, *shape) is not None
]


def cw_draw(v, d, p, seed):
    base = builders.random_boundary(seed, v, d, p)
    return builders.cw_mutate(base, random.Random(seed))


@pytest.mark.parametrize("v, d, p, seed", CW_DRAWS)
def test_cw_mutations_match_references(v, d, p, seed):
    k = cw_draw(v, d, p, seed)
    assert validate_regularity(k).passed and degree_profile(k).is_even
    if len(k.facets) <= 18:
        minimal = set(oracles.minimal_even_facet_sets(k))
        parts = decompose_into_circlets(k).parts
        assert {frozenset(q) for q in parts} <= minimal
        assert sorted(f for q in parts for f in q) == sorted(k.facets)
    for s in SEEDS:
        assert_matches_references(k, s)
        assert_verify_matches_links(euler_cover(k, seed=s), seed)
        assert_covers_build_agree(k, s)


def test_cw_mutations_leave_the_simplicial_world():
    ks = [cw_draw(*draw) for draw in CW_DRAWS]
    shared = sum(len({k.boundary(f) for f in k.facets}) < len(k.facets) for k in ks)
    wide = sum(any(len(k.boundary(f)) > k.dim + 1 for f in k.facets) for k in ks)
    assert (len(ks), shared, wide) == (29, 27, 12)


def back_to_cover_source(cid):
    """A second cover's id read as the first cover's: s#1 -> s, f^ -> f."""
    return cid[:-2] if cid.endswith("#1") else cid[:-1] if cid.endswith("^") else cid


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_cover_of_a_cover_is_itself(seed):
    # a cover's source is a strongly connected pseudomanifold: one circlet,
    # every side under two facets, so covering it again only renames it
    for draw in CW_DRAWS:
        m = euler_cover(cw_draw(*draw), seed=seed).source
        assert len(decompose_into_circlets(m).parts) == 1
        again = euler_cover(m, seed=seed)
        assert again.target is m
        names = {c.id: back_to_cover_source(c.id) for c in again.source}
        assert again.cell_map == names
        assert Complex(
            Cell(names[c.id], c.dim, frozenset(map(names.get, c.boundary)))
            for c in again.source
        ) == m
        assert verify_cover(again).passed


def test_disconnected_boundary_has_no_cover():
    k = builders.random_boundary(18, 9, 2, 0.05)
    assert len(k.facets) == 8 and len(strong_components(k)) == 2
    with pytest.raises(NotStronglyConnected, match="cover needs one dual component"):
        euler_cover(k)


# ---- glued build --------------------------------------------------------


def awkwardly_renamed(k, rng):
    """k with ids whose lifts and copies sort unlike the ids they come from.

    Per dimension, in a random order, facets become f, f0, f1, ... (f < f0
    and f1 < f10, but f0^ < f^ and f10^ < f1^), sides become s, s#1, s#2,
    ... (s#10 < s#2, like generated copies), and lower cells v<r>.<i>.
    """
    names = {}
    for r in range(k.dim + 1):
        ids = list(k.cells_of_dim(r))
        rng.shuffle(ids)
        for i, cid in enumerate(ids):
            if r == k.dim:
                names[cid] = f"f{i - 1}" if i else "f"
            elif r == k.dim - 1:
                names[cid] = f"s#{i}" if i else "s"
            else:
                names[cid] = f"v{r}.{i}"
    return Complex(
        [Cell(names[c.id], c.dim, frozenset(map(names.get, c.boundary))) for c in k]
    )


def assert_constructor_tables(m):
    """m's tables are those the constructor builds from its cells, in order.

    Complex equality compares the cell tables as dicts; this compares the
    order of every table too, coface tuples included.
    """
    ref = Complex(list(m))
    assert m.dim == ref.dim
    assert list(m._cells.items()) == list(ref._cells.items())
    assert m._by_dim == ref._by_dim
    assert list(m._cofaces.items()) == list(ref._cofaces.items())


def assert_glued_builds_agree(k, g):
    cover = build_glued_complex(k, g)
    ref = oracles.build_glued_by_copy_map(k, g)
    assert cover.source == ref.source
    assert_constructor_tables(cover.source)
    assert cover.cell_map == ref.cell_map
    assert cover.target is k


def assert_covers_build_agree(k, seed):
    """A canonical gluing of k and euler_cover's fold, each built both ways."""
    assert_glued_builds_agree(k, canonical_gluing(k, seed=seed))
    cover = euler_cover(k, seed=seed)
    assert_constructor_tables(cover.source)
    assert_glued_builds_agree(k, gluing_from_cover(cover))


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 10**6),
    size=st.integers(1, 12),
    rename=st.booleans(),
    rng=st.randoms(),
)
def test_glued_build_matches_copy_map(seed, n, size, rename, rng):
    k = random_even(n, size)
    if rename:
        k = awkwardly_renamed(k, rng)
    # one pairing of the whole complex, and the fold over its circlets
    assert_covers_build_agree(k, seed)


GLUED_CASES = {
    "finned3_20": lambda: finned_circlet(3, 20),  # 10 copies: s#2 and s#10
    "finned_chain4": lambda: builders.finned_chain(4),
    "delta6_3": lambda: simplex_skeleton(7, 3),
    "multigraph5": lambda: random_even_multigraph(5),
    # 1-dimensional: two vertices under 20 parallel edges, nothing kept
    "dipole20": lambda: Complex(
        [Cell(v, 0, frozenset()) for v in ("s", "s#1")]
        + [Cell(f"f{i}", 1, frozenset({"s", "s#1"})) for i in range(20)]
    ),
}


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@pytest.mark.parametrize("rename", [False, True])
@pytest.mark.parametrize("case", sorted(GLUED_CASES))
def test_glued_cases_match_copy_map(case, rename, seed):
    k = GLUED_CASES[case]()
    if rename:
        k = awkwardly_renamed(k, random.Random(seed or 0))
    assert_covers_build_agree(k, seed)


@pytest.mark.parametrize("seed", range(20))
def test_glued_id_clash_matches_copy_map(seed):
    # a lower cell renamed to a side copy's or a facet lift's id
    rng = random.Random(seed)
    k = random_even(seed, 3)
    victim = rng.choice(k.cells_of_dim(0))
    taken = rng.choice([f"{rng.choice(k.sides)}#1", f"{rng.choice(k.facets)}^"])
    k = builders.renamed(k, victim, taken)
    g = canonical_gluing(k)
    with pytest.raises(ParseError) as got:
        build_glued_complex(k, g)
    with pytest.raises(ParseError) as ref:
        oracles.build_glued_by_copy_map(k, g)
    assert str(got.value) == str(ref.value) == (
        f"cell id {taken!r} is also the id of a side copy or facet lift in "
        "the cover; rename it"
    )


def gluing_outcome(check, k, g):
    """The class and message ``check(k, g)`` raises, or None."""
    try:
        check(k, g)
    except CircletError as e:
        return type(e), str(e)
    return None


def corrupted(k, g, rng):
    """Copies of gluing g, each with one defect at a random side.

    A facet traded with one in a pair at another side, a pair dropped, a
    pair given twice, and a facet replaced by one not over the side.
    """
    s, t = rng.sample(k.sides, 2)
    i, j = rng.randrange(len(g[s])), rng.randrange(len(g[t]))
    (a, b), (c, d) = g[s][i], g[t][j]
    swapped = {**g, s: (*g[s][:i], (c, b), *g[s][i + 1 :])}
    swapped[t] = (*g[t][:j], (a, d), *g[t][j + 1 :])
    out = [
        swapped,
        {**g, s: g[s][:i] + g[s][i + 1 :]},
        {**g, s: (*g[s], g[s][i])},
    ]
    strangers = sorted(set(k.facets) - set(k.facets_over(s)))
    if strangers:
        stranger = (rng.choice(strangers), b)
        out.append({**g, s: (*g[s][:i], stranger, *g[s][i + 1 :])})
    return out


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), size=st.integers(2, 8), rng=st.randoms())
def test_gluing_checks_match_sides(seed, n, size, rng):
    # the build finds faults per facet lift, then names them side by side
    k = random_even(n, size)
    for g in (canonical_gluing(k, seed=seed), gluing_from_cover(euler_cover(k))):
        assert gluing_outcome(oracles.check_gluing_by_sides, k, g) is None
        for bad in corrupted(k, g, rng):
            want = gluing_outcome(oracles.check_gluing_by_sides, k, bad)
            assert gluing_outcome(build_glued_complex, k, bad) == want
            if want is None:  # a trade of one facet for itself
                assert_glued_builds_agree(k, bad)


# ---- cover verification ----------------------------------------------


def mutated_covers(cover, rng, rounds=4):
    """Wrong covers, each from one edit of the right one.

    Per round, at a random dimension, one cell's image is swapped with
    another cell's of that dimension, replaced by a random target cell,
    deleted, or replaced by an unknown id. Then source and target trade
    places, with the map kept and inverted, so the source is the base
    complex, whose corner links are seldom 2-regular. Last, the map stays
    and one source edge has an endpoint moved (see :func:`moved_edge`).
    """
    cm = dict(cover.cell_map)
    m = cover.source
    targets = [c.id for c in cover.target]
    maps = []
    for _ in range(rounds):
        r = rng.choice([r for r in range(m.dim + 1) if len(m.cells_of_dim(r)) > 1])
        a, b = rng.sample(m.cells_of_dim(r), 2)
        swapped = {**cm, a: cm[b], b: cm[a]}
        reassigned = {**cm, a: rng.choice(targets)}
        deleted = {x: y for x, y in cm.items() if x != a}
        unknown = {**cm, a: "no-such-cell"}
        maps += [swapped, reassigned, deleted, unknown]
    out = [CoverMap(cover.source, cover.target, x) for x in maps]
    inverse = {y: x for x, y in sorted(cm.items())}
    out += [CoverMap(cover.target, cover.source, x) for x in (cm, inverse)]
    if len(m.cells_of_dim(0)) > 2:
        out.append(moved_edge(cover, rng))
    return out


def moved_edge(cover, rng):
    """The cover with one endpoint of one source edge moved elsewhere.

    From dimension 3 up the edge lies below the side level, where rule (d)
    fails and rule (f) has to read the cells it would otherwise skip.
    """
    m = cover.source
    edge = m.cell(rng.choice(m.cells_of_dim(1)))
    stays = rng.choice(sorted(edge.boundary))
    to = rng.choice([v for v in m.cells_of_dim(0) if v not in edge.boundary])
    moved = Cell(edge.id, 1, frozenset({stays, to}))
    source = Complex([moved if c.id == edge.id else c for c in m])
    return CoverMap(source, cover.target, cover.cell_map)


def assert_verify_matches_links(cover, seed):
    rng = random.Random(seed)
    for c in [cover, *mutated_covers(cover, rng)]:
        assert verify_cover(c) == oracles.verify_by_links(c)


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), size=st.integers(1, 12))
def test_random_even_verify_matches_links(seed, n, size):
    assert_verify_matches_links(euler_cover(random_even(n, size), seed=seed), n)


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6))
def test_random_even_multigraph_verify_matches_links(seed, n):
    k = random_even_multigraph(n)
    assert_verify_matches_links(euler_cover(k, seed=seed), n)


VERIFY_CASES = {
    "delta5_2": lambda: simplex_skeleton(6, 2),
    "delta6_3": lambda: simplex_skeleton(7, 3),
    "cube5_2": lambda: hypercube_skeleton(5, 2),
    "cross4_2": lambda: crosspolytope_skeleton(4, 2),
    "finned3_4": lambda: finned_circlet(3, 4),
    "finned_chain3": lambda: builders.finned_chain(3),
    "grid3": lambda: triangular_grid(3),
    "cube4_3": lambda: hypercube_skeleton(4, 3),
}


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_skeleton_verify_matches_links(case):
    k = VERIFY_CASES[case]()
    for seed in SEEDS:
        assert_verify_matches_links(euler_cover(k, seed=seed), seed or 0)


@pytest.mark.parametrize("seed", range(4))
def test_glued_non_circlet_fails_source_connected(seed):
    # one canonical gluing of a two-circlet complex keeps the circlets apart
    k = random_even(seed, 2)
    cover = build_glued_complex(k, canonical_gluing(k))
    report = verify_cover(cover)
    assert "c-source-connected" in {v.rule for v in report.violations}
    assert report == oracles.verify_by_links(cover)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "make",
    [lambda: simplex_skeleton(7, 3), lambda: hypercube_skeleton(4, 3)],
    ids=["delta6_3", "cube4_3"],
)
def test_moved_edge_fails_base_and_cellular(make, seed):
    cover = moved_edge(euler_cover(make()), random.Random(seed))
    report = verify_cover(cover)
    assert report == oracles.verify_by_links(cover)
    rules = {v.rule for v in report.violations}
    assert {"d-base-skeleton", "f-cellular"} <= rules


# ---- side tours --------------------------------------------------------


def tour_outcome(tour, m):
    """The sides tour(m) visits in order, or the class and message it raises."""
    try:
        return tour(m).sides
    except CircletError as e:
        return type(e), str(e)


@pytest.mark.parametrize("seed", SEEDS[:2], ids=SEED_IDS[:2])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), size=st.integers(1, 12))
def test_random_cover_tours_match_dual(seed, n, size):
    for k in (random_even(n, size), random_even_multigraph(n)):
        m = euler_cover(k, seed=seed).source
        assert tour_outcome(side_tour, m) == tour_outcome(oracles.side_tour_by_dual, m)


def tour_cases():
    """Complexes to tour, by name: the skeleton, finned and CW-moved cases
    with their cover sources at seeds None and 3, glued non-circlets,
    whose sources are disconnected, and every golden input that loads."""
    ks = {name: make() for name, make in VERIFY_CASES.items()}
    ks.update((f"cw{i}", cw_draw(*draw)) for i, draw in enumerate(CW_DRAWS))
    cases = {}
    for name, k in ks.items():
        cases[name] = k
        for seed in SEEDS[:2]:
            cases[f"{name}-cover-{seed}"] = euler_cover(k, seed=seed).source
    for seed in range(4):
        k = random_even(seed, 2)
        cases[f"glued{seed}"] = build_glued_complex(k, canonical_gluing(k)).source
    for path in sorted((Path(__file__).parent / "golden" / "inputs").glob("*.json")):
        try:
            cases[path.stem] = serialize.load_complex(path)
        except CircletError:
            continue
    return cases


def test_tours_match_dual():
    reached = set()
    for name, m in tour_cases().items():
        got = tour_outcome(side_tour, m)
        assert got == tour_outcome(oracles.side_tour_by_dual, m), name
        if got == (NotPseudomanifold, "dual multigraph is disconnected"):
            reached.add("disconnected")
        else:
            reached.add(got[0] if isinstance(got[0], type) else "tour")
    assert reached >= {"tour", OddFacet, DualNotSimple, "disconnected"}, reached


# ---- loading ----------------------------------------------------------


def assert_loads_in_one_pass(k, rng):
    """k's canonical document loads in one pass to the tables the general
    path builds, in order; shuffled, it takes the general path to k."""
    doc = json.loads(serialize.complex_json(k))
    fast = serialize._canonical_complex(doc["cells"], doc["dimension"])
    assert fast is not None  # canonical: the one pass took it
    loaded = serialize.complex_from_dict(doc)
    assert_constructor_tables(loaded)
    want = oracles.tables(oracles.complex_by_general_path(doc))
    assert oracles.tables(loaded) == oracles.tables(fast) == want
    assert want == oracles.tables(k)
    ids = [e["id"] for e in doc["cells"]]
    rng.shuffle(doc["cells"])
    for entry in doc["cells"]:
        rng.shuffle(entry["boundary"])
    if [e["id"] for e in doc["cells"]] != ids:
        assert not oracles.reads_in_one_pass(doc)
    shuffled = serialize.complex_from_dict(doc)
    assert shuffled == k
    assert_constructor_tables(shuffled)
    assert oracles.tables(shuffled) == want


def assert_covers_load_in_one_pass(k, rng):
    """k and the source and target of its cover, each loaded both ways."""
    assert_loads_in_one_pass(k, rng)
    cover = euler_cover(k, seed=rng.choice(SEEDS))
    loaded = serialize.cover_from_dict(json.loads(serialize.cover_json(cover)))
    for m, back in ((cover.source, loaded.source), (cover.target, loaded.target)):
        assert oracles.tables(back) == oracles.tables(m)
        assert_loads_in_one_pass(m, rng)


# every generate family, in dimensions 1 to 4
FAMILY_CASES = {
    "cycle7": lambda: cycle(7),
    "grid3": lambda: triangular_grid(3),
    "finned3_4": lambda: finned_circlet(3, 4),
    "random_even1_4": lambda: random_even(1, 4),
    **{f"delta6_{r}": lambda r=r: simplex_skeleton(6, r) for r in range(1, 5)},
    **{f"cube4_{r}": lambda r=r: hypercube_skeleton(4, r) for r in range(1, 5)},
    **{f"cross5_{r}": lambda r=r: crosspolytope_skeleton(5, r) for r in range(1, 5)},
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_families_load_in_one_pass(case):
    k = FAMILY_CASES[case]()
    rng = random.Random(case)
    assert_loads_in_one_pass(k, rng)
    if degree_profile(k).is_even and len(strong_components(k)) == 1:
        assert_covers_load_in_one_pass(k, rng)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), size=st.integers(1, 12), rng=st.randoms())
def test_random_even_loads_in_one_pass(n, size, rng):
    assert_covers_load_in_one_pass(random_even(n, size), rng)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), rng=st.randoms())
def test_random_even_multigraph_loads_in_one_pass(n, rng):
    assert_covers_load_in_one_pass(random_even_multigraph(n), rng)


@pytest.mark.parametrize("v, d, p, seed", CW_DRAWS)
def test_cw_mutations_load_in_one_pass(v, d, p, seed):
    assert_covers_load_in_one_pass(cw_draw(v, d, p, seed), random.Random(seed))
