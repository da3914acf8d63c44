"""Every name the package and its modules export resolves.

A deletion that leaves its name in an ``__all__`` breaks ``import *``
only; this catches it at once. The same holds for the call sites the
benchmark's tracer (``perfbench/tracer.py``) wraps by attribute name:
deleting one would break only the traced benchmark run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import circlet
from circlet import complexes, covers, matroid
from circlet.errors import NotCirclet
from circlet.families import simplex_skeleton

MODULES = [
    circlet,
    *(
        importlib.import_module(f"circlet.{info.name}")
        for info in pkgutil.iter_modules(circlet.__path__)
    ),
]

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_name_is_exported_twice(module):
    assert len(module.__all__) == len(set(module.__all__))


def test_package_exports_the_module_lists():
    extra = {"__version__", "generate", "CircletError"}
    listed = {*complexes.__all__, *matroid.__all__, *covers.__all__}
    assert set(circlet.__all__) == extra | listed


def test_tracer_wraps_and_restores_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
    # checked before entering: a missing target would leave the ones
    # before it wrapped
    assert [(o, a) for o, a in sites if a not in vars(o)] == []
    before = [vars(owner)[attr] for owner, attr in sites]
    with tracer.Tracer():
        inside = [vars(owner)[attr] for owner, attr in sites]
    after = [vars(owner)[attr] for owner, attr in sites]
    assert all(w.__wrapped__ is o for w, o in zip(inside, before))
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("n", [5, 6])
def test_tracer_runs_the_matroid_entry_points(n):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    k = simplex_skeleton(n, 2)  # odd sides for n = 5, even for n = 6

    def run():
        m = matroid.incidence_matrix(k)
        even = matroid.find_even_subset(m, m.facet_ids)
        circlet = matroid.extract_circlet(m, even)
        report = matroid.validate_decomposition(k, [m.facet_ids])
        with pytest.raises(NotCirclet):
            matroid.require_circlet(k)
        return even, circlet, report

    outside = run()
    with tracer.Tracer() as t:
        inside = run()
    assert inside == outside
    assert t.counts["matroid.find_even"] == t.counts["matroid.extract"] == 1
