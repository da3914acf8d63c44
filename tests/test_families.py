import hashlib
from math import comb

import pytest

from circlet import (
    degree_profile,
    euler_characteristic,
    require_circlet,
    serialize,
    strong_components,
    validate_regularity,
)
from circlet import families
from circlet.cli import main
from circlet.errors import BadParameters
from circlet.families import (
    FAMILIES,
    crosspolytope_skeleton,
    cycle,
    finned_circlet,
    generate,
    hypercube_skeleton,
    random_even,
    random_even_multigraph,
    simplex_skeleton,
    triangular_grid,
)


def counts(k):
    return [len(k.cells_of_dim(r)) for r in range(k.dim + 1)]


# ---- individual generators --------------------------------------------


def test_cycle():
    k = cycle(6)
    assert counts(k) == [6, 6]
    assert set(degree_profile(k).histogram()) == {2}
    assert k.facets[0] == "e0-1"
    with pytest.raises(BadParameters):
        cycle(2)


def test_triangular_grid():
    k = triangular_grid(3)
    assert counts(k) == [10, 18]
    assert degree_profile(k).histogram() == {2: 3, 4: 6, 6: 1}
    assert degree_profile(k).is_even
    assert len(strong_components(k)) == 1
    assert counts(triangular_grid(1)) == [3, 3]
    assert "v0.0" in k.cells_of_dim(0)
    with pytest.raises(BadParameters):
        triangular_grid(0)


def test_simplex_skeleton():
    assert counts(simplex_skeleton(6, 2)) == [6, 15, 20]
    assert counts(simplex_skeleton(5, 2)) == [5, 10, 10]
    assert counts(simplex_skeleton(4, 2)) == [4, 6, 4]
    assert counts(simplex_skeleton(4, 3)) == [4, 6, 4, 1]
    assert simplex_skeleton(5, 2).facets[:2] == ("1-2-3", "1-2-4")
    with pytest.raises(BadParameters):
        simplex_skeleton(3, 3)
    with pytest.raises(BadParameters):
        simplex_skeleton(0, 0)


def test_hypercube_skeleton():
    assert counts(hypercube_skeleton(3, 2)) == [8, 12, 6]
    assert counts(hypercube_skeleton(4, 2)) == [16, 32, 24]
    assert counts(hypercube_skeleton(3, 3)) == [8, 12, 6, 1]
    assert hypercube_skeleton(3, 2).facets == (
        "**0",
        "**1",
        "*0*",
        "*1*",
        "0**",
        "1**",
    )
    with pytest.raises(BadParameters):
        hypercube_skeleton(3, 4)
    with pytest.raises(BadParameters):
        hypercube_skeleton(0, 0)


def test_crosspolytope_skeleton():
    assert counts(crosspolytope_skeleton(3, 2)) == [6, 12, 8]
    assert counts(crosspolytope_skeleton(4, 3)) == [8, 24, 32, 16]
    assert crosspolytope_skeleton(3, 2).facets[0] == "n1-n2-n3"
    with pytest.raises(BadParameters):
        crosspolytope_skeleton(3, 3)


def test_subset_ids_where_string_and_numeric_order_differ():
    # ids list labels in label order ("1-2-10"), cells sort as strings
    simplex = simplex_skeleton(11, 2)
    assert simplex.boundary("1-2-10") == ("1-10", "1-2", "2-10")
    assert simplex.facets[:2] == ("1-10-11", "1-2-10")
    cross = crosspolytope_skeleton(10, 2)
    assert cross.facets[:2] == ("n1-n10-n2", "n1-n10-n3")
    assert len(cross.facets) == 960
    digests = [
        hashlib.sha256(serialize.complex_json(k).encode()).hexdigest()
        for k in (simplex, cross)
    ]
    assert digests == [
        "8a7d9b55bee15a05e9b96a5341e761beeaf22de77ad54ebda03bf0aa1b9539f4",
        "e478cf0a98fbfba9d542bc67620a3b895c57c0c2974c59bfcd390f2adb7e053d",
    ]


def test_skeleta_are_regular():
    for k in (
        simplex_skeleton(6, 2),
        hypercube_skeleton(4, 2),
        crosspolytope_skeleton(4, 3),
        hypercube_skeleton(3, 3),
    ):
        assert validate_regularity(k).passed


def test_finned_circlet_profiles():
    expected = {
        (3, 4): ([15, 27, 13], {2: 24, 4: 3}),
        (3, 6): ([21, 39, 19], {2: 36, 6: 3}),
        (4, 4): ([20, 36, 17], {2: 32, 4: 4}),
    }
    for (kk, m), (cnt, hist) in expected.items():
        k = finned_circlet(kk, m)
        assert counts(k) == cnt
        assert degree_profile(k).histogram() == hist
        assert euler_characteristic(k) == 1
        assert validate_regularity(k).passed
        require_circlet(k)


def test_finned_circlet_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        finned_circlet(2, 4)
    with pytest.raises(BadParameters):
        finned_circlet(3, 5)
    with pytest.raises(BadParameters):
        finned_circlet(3, 2)


def test_random_even():
    for seed in (0, 5):
        k = random_even(seed, 4)
        profile = degree_profile(k)
        assert profile.is_pure and profile.is_even
        assert len(strong_components(k)) == 1
        assert validate_regularity(k).passed
    with pytest.raises(BadParameters):
        random_even(0, 0)


def test_random_even_deterministic():
    a = serialize.dumps(serialize.complex_to_dict(random_even(3, 4)))
    b = serialize.dumps(serialize.complex_to_dict(random_even(3, 4)))
    assert a == b
    c = serialize.dumps(serialize.complex_to_dict(random_even(4, 4)))
    assert a != c


def test_random_even_multigraph():
    for seed in range(6):
        k = random_even_multigraph(seed)
        assert k.dim == 1
        assert len(k.cells_of_dim(0)) <= 12
        assert all(d % 2 == 0 for d in degree_profile(k).histogram())
        assert len(strong_components(k)) == 1
    one = serialize.dumps(serialize.complex_to_dict(random_even_multigraph(2)))
    two = serialize.dumps(serialize.complex_to_dict(random_even_multigraph(2)))
    assert one == two


# ---- dispatch ---------------------------------------------------------


def test_generate_dispatch():
    assert generate("cycle", [5]) == cycle(5)
    assert generate("simplex_skeleton", (5, 2)) == simplex_skeleton(5, 2)
    assert set(FAMILIES) == {
        "cycle",
        "triangular_grid",
        "simplex_skeleton",
        "hypercube_skeleton",
        "crosspolytope_skeleton",
        "finned_circlet",
        "random_even",
    }


def test_generate_rejects_unknown_family():
    with pytest.raises(BadParameters, match="^unknown family 'moebius'$"):
        generate("moebius", (3,))


def test_generate_rejects_wrong_arity():
    with pytest.raises(BadParameters, match=r"^cycle takes 1 parameter\(s\), got 2$"):
        generate("cycle", (5, 2))
    with pytest.raises(
        BadParameters, match=r"^simplex_skeleton takes 2 parameter\(s\), got 1$"
    ):
        generate("simplex_skeleton", [5])


# ---- the cell cap -----------------------------------------------------


def cell_count(family, a, b=None):
    """Cells of a family member, in closed form (the sums run in full)."""
    if family == "cycle":
        return 2 * a
    if family == "triangular_grid":
        return (a + 1) * (2 * a + 1)
    if family == "simplex_skeleton":
        return sum(comb(a, i + 1) for i in range(b + 1))
    if family == "hypercube_skeleton":
        return sum(comb(a, i) * 2 ** (a - i) for i in range(b + 1))
    if family == "crosspolytope_skeleton":
        return sum(comb(a, i + 1) * 2 ** (i + 1) for i in range(b + 1))
    if family == "finned_circlet":
        return a * (4 * b + 2) + 1
    assert family == "random_even"
    return 26 * b  # an upper bound: every library circlet has 14 or 26 cells


SMALL = {
    "cycle": [(3,), (7,)],
    "triangular_grid": [(1,), (4,)],
    "simplex_skeleton": [(1, 0), (5, 2), (6, 5)],
    "hypercube_skeleton": [(1, 0), (3, 2), (4, 4)],
    "crosspolytope_skeleton": [(1, 0), (3, 2), (4, 3)],
    "finned_circlet": [(3, 4), (5, 6)],
}


@pytest.mark.parametrize("family", sorted(SMALL))
def test_cell_counts_in_closed_form(family):
    for params in SMALL[family]:
        assert len(generate(family, params)) == cell_count(family, *params)


def test_random_even_cell_bound():
    for seed in range(8):
        for n in (1, 5, 20):
            assert len(random_even(seed, n)) <= cell_count("random_even", seed, n)


# the largest parameters under the cap and the same with one step more
AT_CAP = {
    "cycle": ((500_000,), (500_001,)),
    "triangular_grid": ((706,), (707,)),
    "simplex_skeleton": ((1413, 1), (1414, 1)),
    "hypercube_skeleton": ((19, 0), (19, 1)),
    "crosspolytope_skeleton": ((500_000, 0), (500_001, 0)),
    "finned_circlet": ((55_555, 4), (55_556, 4)),
    "random_even": ((1, 38_461), (1, 38_462)),
}

HUGE = 10**26
BEYOND = {
    "cycle": [(HUGE,)],
    "triangular_grid": [(HUGE,)],
    "simplex_skeleton": [(HUGE, 2), (HUGE, HUGE - 1), (60, 30)],
    "hypercube_skeleton": [(HUGE, 0), (HUGE, HUGE), (20, 0), (60, 0)],
    "crosspolytope_skeleton": [(HUGE, 1), (HUGE, HUGE - 1)],
    "finned_circlet": [(HUGE, 4), (3, HUGE)],
    "random_even": [(1, HUGE)],
}


class Built(Exception):
    """Raised by the patched cell factories: a cell was about to be made."""


@pytest.fixture
def no_cells(monkeypatch):
    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(families, "cell", refuse)
    monkeypatch.setattr(families, "Cell", refuse)


def test_every_family_has_a_cap_case():
    assert set(AT_CAP) == set(BEYOND) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(AT_CAP))
def test_generators_refuse_past_the_cap(family, no_cells):
    fits, over = AT_CAP[family]
    assert cell_count(family, *fits) <= families._MAX_CELLS < cell_count(family, *over)
    with pytest.raises(Built):  # past the check, stopped at the first cell
        generate(family, fits)
    message = f"^{family} would build more than {families._MAX_CELLS} cells$"
    for params in [over, *BEYOND[family]]:
        with pytest.raises(BadParameters, match=message):
            generate(family, params)


@pytest.mark.parametrize("family", sorted(AT_CAP))
def test_cli_refuses_past_the_cap(family, no_cells, capsys):
    for params in [AT_CAP[family][1], *BEYOND[family]]:
        assert main(["generate", family, *map(str, params)]) == 2
        out = capsys.readouterr().out
        assert '"error": "BadParameters"' in out and "would build more than" in out
