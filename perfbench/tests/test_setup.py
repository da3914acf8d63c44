"""Self-test of the set-up timing's fresh import.

    python3 -m pytest perfbench/tests
"""

import sys

import circlet.cli  # noqa: F401  (loaded before the fresh import, as in a run)
from run import reimport_seconds


def circlet_modules():
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "circlet"}


def test_fresh_import_puts_the_loaded_modules_back():
    before = circlet_modules()
    assert reimport_seconds() > 0
    after = circlet_modules()
    assert after.keys() == before.keys()
    assert all(after[n] is before[n] for n in before)
