"""Even regular CW-complexes, circlet decompositions, and covers.

The library models finite regular CW-complexes as face posets and walks
the chain of ideas from evenness (every side under a positive even
number of facets) to circlets (minimal even complexes), to GF(2)
incidence where the circlets become the circuits of a binary matroid,
and on to pseudomanifold covers: every strongly connected even complex
is the facet-preserving projection of a pseudomanifold that reuses its
cells below the side level.
"""

from .complexes import (
    Cell,
    Complex,
    DegreeProfile,
    DualEdge,
    DualMultigraph,
    ValidationReport,
    Violation,
    bridges,
    build_complex,
    cell,
    corner_link,
    degree_profile,
    dual_multigraph,
    euler_characteristic,
    induced_subcomplex,
    skeleton,
    strong_components,
    validate_regularity,
)
from .covers import (
    CoverMap,
    SideTour,
    build_glued_complex,
    canonical_gluing,
    cover_circlet,
    euler_cover,
    gluing_from_cover,
    merge_covers,
    side_tour,
    verify_cover,
)
from .errors import CircletError
from .families import FamilySpec, generate
from .matroid import (
    CircletDecomposition,
    IncidenceMatrixGF2,
    decompose_into_circlets,
    extract_circlet,
    find_even_subset,
    incidence_matrix,
    is_even_subset,
    require_circlet,
    validate_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Cell",
    "cell",
    "Complex",
    "build_complex",
    "validate_regularity",
    "skeleton",
    "induced_subcomplex",
    "DegreeProfile",
    "degree_profile",
    "DualEdge",
    "DualMultigraph",
    "dual_multigraph",
    "corner_link",
    "strong_components",
    "bridges",
    "euler_characteristic",
    "ValidationReport",
    "Violation",
    "IncidenceMatrixGF2",
    "incidence_matrix",
    "require_circlet",
    "is_even_subset",
    "find_even_subset",
    "extract_circlet",
    "CircletDecomposition",
    "decompose_into_circlets",
    "validate_decomposition",
    "CoverMap",
    "SideTour",
    "canonical_gluing",
    "build_glued_complex",
    "cover_circlet",
    "merge_covers",
    "euler_cover",
    "gluing_from_cover",
    "verify_cover",
    "side_tour",
    "FamilySpec",
    "generate",
    "CircletError",
]
