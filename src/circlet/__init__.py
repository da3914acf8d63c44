"""Even regular CW-complexes, circlet decompositions, and covers.

The library models finite regular CW-complexes as face posets and walks
the chain of ideas from evenness (every side under a positive even
number of facets) to circlets (minimal even complexes), to GF(2)
incidence where the circlets become the circuits of a binary matroid,
and on to pseudomanifold covers: every strongly connected even complex
is the facet-preserving projection of a pseudomanifold that reuses its
cells below the side level.
"""

from . import complexes, covers, matroid
from .complexes import *
from .covers import *
from .errors import CircletError
from .families import FamilySpec, generate
from .matroid import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *complexes.__all__,
    *matroid.__all__,
    *covers.__all__,
    "FamilySpec",
    "generate",
    "CircletError",
]
