"""Every name the package and its modules export resolves.

A deletion that leaves its name in an ``__all__`` breaks ``import *``
only; this catches it at once.
"""

import importlib
import pkgutil

import pytest

import circlet

MODULES = [
    circlet,
    *(
        importlib.import_module(f"circlet.{info.name}")
        for info in pkgutil.iter_modules(circlet.__path__)
    ),
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
