"""Exception hierarchy for the fktrees package.

Every failure mode that callers are expected to distinguish gets its own
class; all inherit from FKTreesError so `except FKTreesError` catches any
domain error while letting genuine bugs (TypeError etc.) propagate.
"""


class FKTreesError(Exception):
    """Base class for all domain errors raised by fktrees."""


# -- tree construction ------------------------------------------------------

class NotATreeError(FKTreesError):
    """Edge set is not a tree: wrong edge count, cycle, multi-edge, or
    disconnected."""


class InvalidVertexError(FKTreesError):
    """A vertex id is out of range (vertices are dense 0-indexed ints)."""


class InvalidBoundaryError(FKTreesError):
    """An explicit boundary set is empty or contains invalid vertices."""


class EmptyInteriorError(FKTreesError):
    """Boundary covers every vertex, leaving no interior."""


class DisconnectedInteriorError(FKTreesError):
    """The interior does not induce a connected subgraph (the Dirichlet
    problem requires a connected interior)."""


# -- spectral ----------------------------------------------------------------

class NoConvergenceError(FKTreesError):
    """Eigensolver failed to meet the residual tolerance."""


class NonPositiveEigenvectorError(FKTreesError):
    """Computed ground-state eigenvector has a non-positive entry; signals a
    solver bug or a disconnected interior that slipped past validation."""


class ZeroFunctionError(FKTreesError):
    """Rayleigh quotient requested for the zero function."""


class TooSmallError(FKTreesError):
    """Parameter below the minimum admissible value (e.g. path order < 3)."""


# -- families ----------------------------------------------------------------

class InvalidParametersError(FKTreesError):
    """Family constructor parameters violate the family's definition."""


class EmptyClassError(FKTreesError):
    """Class parameters admit no tree at all."""


# -- rewrites ----------------------------------------------------------------

class PreconditionViolatedError(FKTreesError):
    """An edge-rewrite hypothesis (adjacency / path membership / contact
    membership) does not hold for the given vertices."""


class ResultNotTreeError(FKTreesError):
    """Internal assertion: an accepted rewrite produced a non-tree. Must not
    fire when preconditions hold."""


class InvalidChoiceError(FKTreesError):
    """A pendant-edge choice maps a contact vertex to a non-neighbor or
    non-boundary vertex."""


# -- enumeration -------------------------------------------------------------

class CapExceededError(FKTreesError):
    """A size exceeds its cap: enumeration order, file bytes, dense interior."""
