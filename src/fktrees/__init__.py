"""First Dirichlet eigenvalues of trees with leaf boundary.

Core objects: trees with boundary, their matching/diameter/radius
invariants, the Dirichlet matrix and first eigenpair, the pendant-decorated
path / comet / generalized fork families, three Rayleigh-quotient-decreasing
edge rewrites, and exhaustive per-class extremal verification with
machine-checkable certificates.
"""

from .errors import (
    CapExceededError,
    DisconnectedInteriorError,
    EmptyClassError,
    EmptyInteriorError,
    FKTreesError,
    InvalidBoundaryError,
    InvalidChoiceError,
    InvalidDemotionError,
    InvalidParametersError,
    InvalidVertexError,
    NoConvergenceError,
    NonPositiveEigenvectorError,
    NotATreeError,
    PreconditionViolatedError,
    ResultNotTreeError,
    TooSmallError,
    ZeroFunctionError,
)
from .trees import (
    CanonicalCode,
    TreeInvariants,
    TreeWithBoundary,
    bfs_distances,
    canonical_code,
    contact_set,
    diameter,
    from_edge_list,
    from_graph6,
    format_edge_list_text,
    geodesic_path,
    inscribed_radius,
    invariants,
    parse_edge_list_text,
    relabel,
)
from .matching import (
    Matching,
    MatchingBoundsReport,
    check_matching_bounds,
    matching_containing_pendants,
    matching_number,
    maximum_matching,
)
from .spectral import (
    DirichletMatrix,
    DirichletSpectrum,
    build_path,
    dirichlet_matrix,
    eigenvalue_bounds,
    extension_monotonicity_check,
    first_eigenpair,
    path_eigenvalue,
    rayleigh_quotient,
    zero_extension,
)
from .families import (
    ForkPolynomial,
    PredictedExtremal,
    build_T,
    build_comet,
    build_fork,
    build_star,
    fork_char_poly,
    fork_poly_difference,
    predicted_extremal,
)
from .transforms import (
    EdgeRewrite,
    admissible_switchings,
    eigenvalue_after_switching_check,
    jumping,
    shifting,
    switching,
)
from .enumeration import (
    DEFAULT_CAP,
    HARD_CAP,
    ClassKey,
    classify,
    free_tree_edge_sets,
    free_trees,
)
from .verify import (
    TIE_TOL,
    ExtremalCertificate,
    certificate_json,
    theorem_keys,
    verify_class,
    verify_theorem_sweep,
)

__version__ = "0.1.0"
