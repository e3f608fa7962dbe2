"""The three Rayleigh-quotient-decreasing edge rewrites.

Each rewrite swaps edges while keeping the vertex set, the boundary set and
therefore the interior mass of any test function fixed, so the change of the
Rayleigh quotient is the change of its numerator divided by the invariant
denominator.  The numerator deltas are exact two- or one-edge expansions:

  switching  v1u1, v2u2 -> v1v2, u1u2:   2 (f(v1)-f(u2)) (f(u1)-f(v2))
  shifting   uv1 -> uv2:                 (f(u)-f(v2))^2 - (f(u)-f(v1))^2
  jumping    v1u -> v1v2:                (f(u)-f(v2)) (2 f(v1)-f(u)-f(v2))

written with f meaning the zero-extension.  Under the respective ordering
hypotheses each delta is <= 0, which is how a positive ground state drives a
tree toward the extremal family.

Every operation validates the hypotheses of its underlying statement, in
its own order and with its own messages, then hands the edge substitution
and its delta to one routine that rebuilds the tree and evaluates the delta.
Each returns a brand-new tree; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import PreconditionViolatedError, ResultNotTreeError
from .errors import DisconnectedInteriorError, EmptyInteriorError
from .spectral import first_eigenpair, zero_extension
from .trees import (
    TreeWithBoundary,
    canonical_code,
    contact_set,
    from_edge_list,
    geodesic_path,
)

__all__ = [
    "EdgeRewrite",
    "switching",
    "shifting",
    "jumping",
    "admissible_switchings",
    "eigenvalue_after_switching_check",
    "SwitchingCheckEntry",
    "SwitchingCheckReport",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class EdgeRewrite:
    """One applied rewrite: kind, the edge substitution, the vertices named
    by the underlying statement, and the numerator delta for the supplied
    test function (None when no function was given)."""

    kind: str
    removed: tuple[Edge, ...]
    inserted: tuple[Edge, ...]
    witness: tuple[int, ...]
    delta: float | None


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _rewrite(
    tree: TreeWithBoundary,
    kind: str,
    removed: tuple[Edge, ...],
    inserted: tuple[Edge, ...],
    witness: tuple[int, ...],
    f: Sequence[float] | None,
    delta: Callable[[np.ndarray], float],
) -> tuple[TreeWithBoundary, EdgeRewrite]:
    """Rebuild the tree with the substituted edges and the same boundary,
    and record the rewrite with delta of f's zero-extension (None without f).

    The edge set and the boundary go to from_edge_list unsorted, as no error
    it can raise here depends on their order.  Every id has passed has_edge
    or geodesic_path, which take only int vertex ids, the move's hypotheses
    keep every inserted edge from being a loop or an edge of the tree, and
    a set holds no repeat.  So no edge can fail the per-edge checks, and
    what is left ("graph is disconnected" and the interior errors) names no
    edge.
    """
    edges = set(tree.edges).difference(removed).union(inserted)
    try:
        new_tree = from_edge_list(tree.n, edges, tree.boundary)
    except (DisconnectedInteriorError, EmptyInteriorError) as exc:
        raise PreconditionViolatedError(
            f"rewrite leaves an invalid interior: {exc}"
        ) from exc
    except Exception as exc:
        raise ResultNotTreeError(str(exc)) from exc
    d = None if f is None else delta(zero_extension(tree, f))
    return new_tree, EdgeRewrite(kind, removed, inserted, witness, d)


def switching(
    tree: TreeWithBoundary,
    v1: int,
    v2: int,
    u1: int,
    u2: int,
    f: Sequence[float] | None = None,
) -> tuple[TreeWithBoundary, EdgeRewrite]:
    """Replace v1u1 and v2u2 by v1v2 and u1u2.

    Hypotheses: v1 and v2 non-adjacent, u2 on the v1-v2 path with v2u2 an
    edge, u1 a neighbor of v1 off that path.  The move preserves every
    vertex degree, hence the degree sequence and the leaf set.
    """
    if v1 == v2 or tree.has_edge(v1, v2):
        raise PreconditionViolatedError(f"switching needs v1 !~ v2, got {v1}, {v2}")
    if not tree.has_edge(v1, u1):
        raise PreconditionViolatedError(f"v1u1 = ({v1}, {u1}) is not an edge")
    if not tree.has_edge(v2, u2):
        raise PreconditionViolatedError(f"v2u2 = ({v2}, {u2}) is not an edge")
    path = set(geodesic_path(tree, v1, v2))
    if u2 not in path:
        raise PreconditionViolatedError(f"u2 = {u2} is not on the v1-v2 path")
    if u1 in path:
        raise PreconditionViolatedError(f"u1 = {u1} lies on the v1-v2 path")
    return _rewrite(
        tree, "switching", (_norm(v1, u1), _norm(v2, u2)), (_norm(v1, v2), _norm(u1, u2)),
        (v1, v2, u1, u2), f, lambda fh: 2.0 * (fh[v1] - fh[u2]) * (fh[u1] - fh[v2]),
    )


def shifting(
    tree: TreeWithBoundary,
    v1: int,
    v2: int,
    u: int,
    f: Sequence[float] | None = None,
) -> tuple[TreeWithBoundary, EdgeRewrite]:
    """Replace uv1 by uv2, moving the u-side branch from v1 to v2.

    Hypotheses: uv1 an edge, u off the v1-v2 path, v1 != v2.  The boundary
    set is carried over unchanged; a move that would disconnect the interior
    (e.g. re-rooting an interior branch onto a boundary vertex) is rejected.
    """
    if v1 == v2:
        raise PreconditionViolatedError("shifting needs v1 != v2")
    if not tree.has_edge(u, v1):
        raise PreconditionViolatedError(f"uv1 = ({u}, {v1}) is not an edge")
    if u in set(geodesic_path(tree, v1, v2)):
        raise PreconditionViolatedError(f"u = {u} lies on the v1-v2 path")
    return _rewrite(
        tree, "shifting", (_norm(u, v1),), (_norm(u, v2),),
        (v1, v2, u), f, lambda fh: (fh[u] - fh[v2]) ** 2 - (fh[u] - fh[v1]) ** 2,
    )


def jumping(
    tree: TreeWithBoundary,
    v1: int,
    v2: int,
    u: int,
    f: Sequence[float] | None = None,
) -> tuple[TreeWithBoundary, EdgeRewrite]:
    """Replace v1u by v1v2, jumping v1's subtree over u toward v2.

    Hypotheses: v1, v2 interior and non-adjacent, uv1 an edge, u on the
    v1-v2 path and adjacent to some boundary vertex.  With the leaf-boundary
    convention these force u to keep degree >= 2, so the interior (carried
    over unchanged) stays connected.
    """
    interior = set(tree.interior)
    if v1 not in interior or v2 not in interior:
        raise PreconditionViolatedError("jumping needs interior v1 and v2")
    if v1 == v2 or tree.has_edge(v1, v2):
        raise PreconditionViolatedError(f"jumping needs v1 !~ v2, got {v1}, {v2}")
    if not tree.has_edge(u, v1):
        raise PreconditionViolatedError(f"uv1 = ({u}, {v1}) is not an edge")
    if u not in set(geodesic_path(tree, v1, v2)):
        raise PreconditionViolatedError(f"u = {u} is not on the v1-v2 path")
    if u not in contact_set(tree):
        raise PreconditionViolatedError(f"u = {u} has no boundary neighbor")
    return _rewrite(
        tree, "jumping", (_norm(u, v1),), (_norm(v1, v2),),
        (v1, v2, u), f, lambda fh: (fh[u] - fh[v2]) * (2.0 * fh[v1] - fh[u] - fh[v2]),
    )


def admissible_switchings(
    tree: TreeWithBoundary, fhat: np.ndarray
) -> Iterator[tuple[int, int, int, int]]:
    """All (v1, v2, u1, u2) satisfying the switching hypotheses together
    with the ordering conditions fhat(v1) >= fhat(u2), fhat(v2) >= fhat(u1).

    In a tree u2 is forced: it is v2's unique neighbor on the v1-v2 path.
    """
    for v1 in range(tree.n):
        for v2 in range(tree.n):
            if v1 == v2 or tree.has_edge(v1, v2):
                continue
            path = geodesic_path(tree, v1, v2)
            u2 = path[-2]
            if fhat[v1] < fhat[u2]:
                continue
            on_path = set(path)
            for u1 in tree.adj[v1]:
                if u1 in on_path:
                    continue
                if fhat[v2] >= fhat[u1]:
                    yield (v1, v2, u1, u2)


@dataclass(frozen=True)
class SwitchingCheckEntry:
    move: tuple[int, int, int, int]
    lambda_before: float
    lambda_after: float
    hypothesis_margin: float  # max of the two ordering slacks
    isomorphic: bool          # rewrite only relabeled the tree
    ok: bool


@dataclass(frozen=True)
class SwitchingCheckReport:
    entries: tuple[SwitchingCheckEntry, ...]


def eigenvalue_after_switching_check(
    tree: TreeWithBoundary,
    slack: float = 1e-10,
    strict_threshold: float = 1e-6,
) -> SwitchingCheckReport:
    """Apply every eigenfunction-guided admissible switching and verify the
    eigenvalue never increases; whenever an ordering hypothesis holds with
    margin above strict_threshold, a strict decrease is demanded too, with
    one logically forced exemption: a switching that merely relabels the
    tree (new tree isomorphic to the old one) has exactly equal eigenvalue,
    so strictness is impossible there.  Exhaustive enumeration shows every
    margin-positive move that is exempted this way is indeed a relabeling,
    and every non-relabeling margin-positive move decreases strictly.

    An empty report (no admissible move) passes vacuously.
    """
    spectrum = first_eigenpair(tree)
    fhat = zero_extension(tree, spectrum.eigenfunction)
    code = canonical_code(tree)
    entries = []
    for v1, v2, u1, u2 in admissible_switchings(tree, fhat):
        new_tree, _ = switching(tree, v1, v2, u1, u2)
        lam_after = first_eigenpair(new_tree).lambda1
        margin = float(max(fhat[v1] - fhat[u2], fhat[v2] - fhat[u1]))
        isomorphic = canonical_code(new_tree) == code
        ok = lam_after <= spectrum.lambda1 + slack
        if ok and margin > strict_threshold and not isomorphic:
            ok = lam_after < spectrum.lambda1
        entries.append(
            SwitchingCheckEntry(
                move=(v1, v2, u1, u2),
                lambda_before=spectrum.lambda1,
                lambda_after=lam_after,
                hypothesis_margin=margin,
                isomorphic=isomorphic,
                ok=ok,
            )
        )
    return SwitchingCheckReport(tuple(entries))
