"""Answers under a random relabeling of cell ids.

Peel order, fold order and pairings all follow id order, so a relabeled
complex may get other circlets, in another order, and another cover.
What the answers assert must not change: the analysis is the same, the
parts are circlets that partition the facets, and every cover passes
verify_cover with deg_K(s) = 2 |preimage(s)| on every side.
"""

import contextlib
import io
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from circlet import (
    build_complex,
    cell,
    decompose_into_circlets,
    euler_cover,
    validate_decomposition,
    verify_cover,
)
from circlet.cli import main
from circlet.families import random_even, random_even_multigraph
from circlet.serialize import complex_to_dict, dumps

SEEDS = [None, 3, 7]  # None: the canonical pairing in id order


def relabeled(k, rng):
    """k with its ids sent through a random bijection onto fresh ids.

    The fresh ids mix letters and numbers of different lengths, so their
    string order has nothing to do with the old one.
    """
    ids = [c.id for c in k]
    fresh = [f"{rng.choice('bqx')}{i}" for i in range(len(ids))]
    rng.shuffle(fresh)
    name = dict(zip(ids, fresh))
    return build_complex(
        [cell(name[c.id], c.dim, [name[b] for b in c.boundary]) for c in k]
    )


def analyze(k):
    """Exit code, stdout and stderr of `circlet analyze` on k."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k.json"
        path.write_text(dumps(complex_to_dict(k)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path)])
    return code, out.getvalue(), err.getvalue()


def assert_answers_hold(k, rng):
    r = relabeled(k, rng)
    assert sorted(c.id for c in r) != sorted(c.id for c in k)
    assert analyze(r) == analyze(k)
    assert validate_decomposition(r, decompose_into_circlets(r).parts).passed
    for seed in SEEDS:
        cover = euler_cover(r, seed=seed)
        assert cover.target is r
        assert verify_cover(cover).passed
        preimages = Counter(cover.cell_map[s] for s in cover.source.sides)
        for s in r.sides:
            assert r.side_degrees[s] == 2 * preimages[s]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), size=st.integers(1, 10), rng=st.randoms())
def test_random_even_relabeled(n, size, rng):
    assert_answers_hold(random_even(n, size), rng)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), rng=st.randoms())
def test_random_even_multigraph_relabeled(n, rng):
    assert_answers_hold(random_even_multigraph(n), rng)
