"""The package's public names: each module's __all__, and nothing else."""

import importlib
from types import ModuleType

import fktrees

# the modules `fktrees` re-exports, in import order
_MODULES = ("errors", "trees", "matching", "spectral", "families", "transforms", "enumeration", "verify")

_PUBLIC = {
    # errors
    "CapExceededError", "DisconnectedInteriorError", "EmptyClassError", "EmptyInteriorError",
    "FKTreesError", "InvalidBoundaryError", "InvalidChoiceError", "InvalidDemotionError",
    "InvalidParametersError", "InvalidVertexError", "NoConvergenceError",
    "NonPositiveEigenvectorError", "NotATreeError", "PreconditionViolatedError",
    "ResultNotTreeError", "TooSmallError", "ZeroFunctionError",
    # trees
    "CanonicalCode", "TreeInvariants", "TreeWithBoundary", "bfs_distances", "canonical_code",
    "contact_set", "diameter", "from_edge_list", "from_graph6", "format_edge_list_text",
    "geodesic_path", "inscribed_radius", "invariants", "parse_edge_list_text", "relabel",
    # matching
    "Matching", "MatchingBoundsReport", "check_matching_bounds", "matching_containing_pendants",
    "matching_number", "maximum_matching",
    # spectral
    "DirichletMatrix", "DirichletSpectrum", "build_path", "dirichlet_matrix", "eigenvalue_bounds",
    "extension_monotonicity_check", "first_eigenpair", "path_eigenvalue", "rayleigh_quotient",
    "zero_extension",
    # families
    "ForkPolynomial", "PredictedExtremal", "build_T", "build_comet", "build_fork", "build_star",
    "fork_char_poly", "fork_poly_difference", "predicted_extremal",
    # transforms
    "EdgeRewrite", "SwitchingCheckEntry", "SwitchingCheckReport", "admissible_switchings",
    "eigenvalue_after_switching_check", "jumping", "shifting", "strictness_margin", "switching",
    # enumeration
    "DEFAULT_CAP", "HARD_CAP", "ClassKey", "classify", "free_tree_edge_sets", "free_trees",
    # verify
    "THEOREMS", "TIE_TOL", "ExtremalCertificate", "all_match", "certificate_json",
    "empty_class_certificate", "theorem_keys", "verify_class", "verify_theorem_sweep",
}


def _exported(module) -> list[str]:
    # what `from module import *` takes: __all__, or every public name
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


def test_public_names_are_pinned():
    # submodules are attributes too, once imported; they are not names
    names = {
        n for n, v in vars(fktrees).items() if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert len(_PUBLIC) == 81
    assert names == _PUBLIC


def test_every_module_export_resolves_on_the_package():
    for name in _MODULES:
        module = importlib.import_module(f"fktrees.{name}")
        for export in _exported(module):
            assert getattr(fktrees, export) is getattr(module, export), (name, export)
