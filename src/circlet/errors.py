"""Exception types shared across the library.

Everything raised on purpose derives from CircletError. Build-time errors
(malformed cell data) and analysis-time errors (precondition failures such
as a complex that is not even) share the hierarchy. ``circlet.cli.main`` is
the one place that tells them apart, by phase rather than by class: any
error while loading the input exits 2; while running the command, a
ParseError or OutputError exits 2 and any other error exits 1.
"""

from __future__ import annotations

__all__ = [
    "CircletError",
    "DanglingReference",
    "BadDimension",
    "NonRegularEdge",
    "EmptyBoundary",
    "DuplicateCellId",
    "EmptyComplex",
    "RankOutOfRange",
    "EmptyFacetSet",
    "NotAFacet",
    "ZeroDimensional",
    "NotPure",
    "NotEven",
    "UnknownFacet",
    "NotCirclet",
    "NotStronglyConnected",
    "GluingMismatch",
    "NoSharedSide",
    "NotFacetDisjoint",
    "InvalidCover",
    "NotPseudomanifold",
    "DualNotSimple",
    "OddFacet",
    "BadParameters",
    "ParseError",
    "OutputError",
]


class CircletError(Exception):
    """Base class for every error this library raises deliberately."""


# build_complex rejects malformed cell data with these.

class DanglingReference(CircletError):
    """A boundary id names a cell that does not exist."""


class BadDimension(CircletError):
    """A boundary member is not exactly one dimension down."""


class NonRegularEdge(CircletError):
    """A 1-cell does not have two distinct endpoint vertices."""


class EmptyBoundary(CircletError):
    """A positive-dimensional cell has an empty boundary."""


class DuplicateCellId(CircletError):
    """Two cells share one id."""


class EmptyComplex(CircletError):
    """No cells at all; the dimension is undefined."""


# structural query errors

class RankOutOfRange(CircletError):
    """Requested skeleton rank is negative or above the dimension."""


class EmptyFacetSet(CircletError):
    """An operation needs at least one facet."""


class NotAFacet(CircletError):
    """An id passed as a facet is not a top-dimensional cell."""


class ZeroDimensional(CircletError):
    """The complex has dimension 0, so sides do not exist."""


class NotPure(CircletError):
    """Some cell lies under no facet."""


class NotEven(CircletError):
    """Some side has odd or zero degree, or the complex is not pure."""


class UnknownFacet(CircletError):
    """A facet id is not a column of the incidence matrix."""


class NotCirclet(CircletError):
    """The complex is not minimal even (or not even at all)."""


class NotStronglyConnected(CircletError):
    """The dual multigraph has more than one connected component."""


# gluing and cover errors

class GluingMismatch(CircletError):
    """A gluing does not partition the facets around every side."""


class NoSharedSide(CircletError):
    """Two complexes to be merged share no side."""


class NotFacetDisjoint(CircletError):
    """Two complexes to be merged share a facet."""


class InvalidCover(CircletError):
    """A cover map violates its structural contract."""


class NotPseudomanifold(CircletError):
    """Pure + strongly connected + all side degrees 2 fails somewhere."""


class DualNotSimple(CircletError):
    """Two facets share more than one side."""


class OddFacet(CircletError):
    """A facet has an odd number of sides."""


# interface errors

class BadParameters(CircletError):
    """Generator parameters outside the family's valid range."""


class ParseError(CircletError):
    """Input file or JSON document does not match the expected format."""


class OutputError(CircletError):
    """An output file cannot be written."""
