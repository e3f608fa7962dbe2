"""Constructors for the named extremal families and the fork polynomials.

T(p, q, b) is a path u_1 .. u_{p+q} carrying one pendant leaf at u_1, one at
each of u_{p+2} .. u_{p+q-1}, and b+1-q pendant leaves at u_{p+q}; it has
order p+q+b, b leaves and matching number q + floor(p/2).  T(0, 1, b) is the
star on b+1 vertices (the degenerate convention used by the matching-number
extremal statement).  The comet with k interior vertices is T(k-2, 2, n-k).

The generalized fork GF(a, r, n) glues a paths of length r at a hub and
attaches the n-ar-1 remaining vertices as leaves at distance r-1 from the
hub on the first path.  The constructor is pinned to the explicit Dirichlet
matrix of the r=2 case (diagonal k-1, n+3-2k, 2, ..., 2 with k = a+1
interior vertices); the alternative reading "attach n-ar leaves" overcounts
the order by one and is rejected here.  For k >= 3 the characteristic
polynomial of that matrix factors as (lambda-2)^(k-3) P(lambda, k) with
cubic P as coded below.

predicted_extremal names each predicted tree by the level sequence
enumeration._level_sequences yields for it, with no tree built: the
family's shape gives the branches at one convenient vertex, and
enumeration._centre_sequence walks from there to the centre, as it does
for the sweep's trees.  T(p, q, b), the comet and the star are
caterpillars, composed at the middle of the spine (_caterpillar); the
fork and the spider at the hub; and a pendant forest at the root of its
interior tree's WROM sequence, with a leaf below every vertex
(_pendant_forest).

The build_* constructors label their trees through one builder, _hub: a
hub with arms (paths hanging off it) and pendant leaves, numbered hub
first, then the arm vertices arm by arm away from the hub, then the
leaves in the order of the vertices that carry them.  T(p, q, b) is a hub
u_1 with one arm u_2 .. u_{p+q}, the star a hub with leaves only, and the
fork a hub with a arms.  These are the labels `fktrees family` prints.
The spine's leaf counts of T(p, q, b) are written once, in _T_pendants,
which both build_T and the caterpillar sequence read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyClassError, InvalidParametersError
from .enumeration import (
    _LEVELS,
    ClassKey,
    _centre_sequence,
    _check_levels,
    _level_sequences,
    _root_sequence,
    _sequence_edges,
)
from .trees import TreeWithBoundary, from_edge_list

__all__ = [
    "build_T",
    "build_comet",
    "build_fork",
    "build_star",
    "ForkPolynomial",
    "fork_char_poly",
    "fork_poly_difference",
    "PredictedExtremal",
    "predicted_extremal",
]


def _hub(arms: list[int], pendants: list[int]) -> TreeWithBoundary:
    """The one labelled builder of the families: hub 0, a path of arms[i]
    vertices hanging off it for each i, numbered 1, 2, ... arm by arm away
    from the hub, and then pendants[v] leaves at each vertex v, numbered in
    the order of v."""
    parent: list[int] = []  # parent[v - 1] is vertex v's neighbour towards the hub
    for length in arms:
        parent += [0] + list(range(len(parent) + 1, len(parent) + length))
    for v, count in enumerate(pendants):
        parent += [v] * count
    return from_edge_list(len(parent) + 1, [(u, v) for v, u in enumerate(parent, 1)])


def build_star(n: int) -> TreeWithBoundary:
    """K_{1,n-1}: center 0, leaves 1..n-1."""
    if n < 3:
        raise InvalidParametersError(f"star with interior needs n >= 3, got {n}")
    return _hub([], [n - 1])


def _T_pendants(p: int, q: int, b: int) -> list[int]:
    """The leaf counts at u_1 .. u_{p+q}, the spine of T(p, q, b), q >= 2."""
    return [1] + [0] * p + [1] * (q - 2) + [b + 1 - q]


def build_T(p: int, q: int, b: int) -> TreeWithBoundary:
    """The pendant-decorated path T(p, q, b); see the module docstring.

    Requires p >= 0 and b >= q >= 2, or (p, q) = (0, 1) with b >= 2 for the
    star convention.  Path vertices u_1..u_{p+q} get ids 0..p+q-1, then the
    pendants follow in definition order.
    """
    if p == 0 and q == 1:
        if b < 2:
            raise InvalidParametersError("star T(0,1,b) needs b >= 2")
        return build_star(b + 1)
    if p < 0 or q < 2 or b < q:
        raise InvalidParametersError(
            f"T(p,q,b) needs p >= 0 and b >= q >= 2, got ({p}, {q}, {b})"
        )
    return _hub([p + q - 1], _T_pendants(p, q, b))


def build_comet(n: int, k: int) -> TreeWithBoundary:
    """Star with a tail: k interior vertices, n-k leaves."""
    if n < 3 or not 1 <= k <= n - 2:
        raise InvalidParametersError(f"comet needs 1 <= k <= n-2, got n={n}, k={k}")
    if k == 1:
        return build_star(n)
    return build_T(k - 2, 2, n - k)


def build_fork(a: int, r: int, n: int) -> TreeWithBoundary:
    """Generalized fork GF(a, r, n): hub 0, a arms of length r, extra leaves
    at distance r-1 on the first arm.  Diameter comes out to 2r."""
    if a < 2 or r < 1 or n < a * r + 1:
        raise InvalidParametersError(
            f"fork needs a >= 2, r >= 1, n >= a*r+1, got ({a}, {r}, {n})"
        )
    # the first arm's vertex at distance r - 1 has id r - 1 (the hub for r = 1)
    return _hub([r] * a, [0] * (r - 1) + [n - a * r - 1])


@dataclass(frozen=True)
class ForkPolynomial:
    """Cubic factor P(lambda, k) of the r=2 fork's characteristic polynomial.

    coefficients are highest degree first:
    (1, k-n-4, -2k^2+kn+2k+n+2, 2k^2-kn-3k+2).
    """

    k: int
    n: int
    coefficients: tuple[float, float, float, float]

    def __call__(self, lam: float) -> float:
        c3, c2, c1, c0 = self.coefficients
        return ((c3 * lam + c2) * lam + c1) * lam + c0


def _fork_coefficients(k: int, n: int) -> tuple[float, float, float, float]:
    return (
        1.0,
        float(k - n - 4),
        float(-2 * k * k + k * n + 2 * k + n + 2),
        float(2 * k * k - k * n - 3 * k + 2),
    )


def fork_char_poly(k: int, n: int) -> ForkPolynomial:
    """P(lambda, k) for GF(k-1, 2, n); needs k >= 3 and n >= 2k-1."""
    if k < 3 or n < 2 * k - 1:
        raise InvalidParametersError(
            f"fork polynomial needs k >= 3, n >= 2k-1, got k={k}, n={n}"
        )
    return ForkPolynomial(k=k, n=n, coefficients=_fork_coefficients(k, n))


def fork_poly_difference(k: int, n: int, lam: float) -> tuple[float, float]:
    """Both sides of P(lam, k+1) - P(lam, k) = (lam-1)(lam-(4k-n-1)).

    Returns (lhs, rhs) and raises if they disagree beyond 1e-12; they are
    the same quadratic written two ways, so disagreement means a bug.  The
    identity is purely algebraic in n, so no range check on n applies here.
    """
    if k < 3:
        raise InvalidParametersError(f"difference identity needs k >= 3, got {k}")
    lower, upper = (ForkPolynomial(j, n, _fork_coefficients(j, n)) for j in (k, k + 1))
    lhs = upper(lam) - lower(lam)
    rhs = (lam - 1.0) * (lam - (4 * k - n - 1))
    if abs(lhs - rhs) > 1e-12:
        raise AssertionError(
            f"difference identity violated at k={k}, n={n}, lam={lam}: "
            f"{lhs!r} vs {rhs!r}"
        )
    return lhs, rhs


@dataclass(frozen=True)
class PredictedExtremal:
    """Predicted minimizer set for a class, as the level sequences
    enumeration._level_sequences yields for its trees, with a conjecture
    flag for the diameter classes where only a conjecture is available
    (D >= 5)."""

    sequences: tuple[bytes, ...]
    conjecture: bool = False


_LEAF = b"\x00"


def _arm(pendants: list[int]) -> bytes:
    """The canonical sequence of a path v_1 .. v_k rooted at v_k, with
    pendants[i] leaves at v_{i+1}: the path down to v_1, then each
    vertex's leaves, from v_1's up to v_k's."""
    k = len(pendants)
    return _LEVELS[:k] + b"".join(bytes([k - i]) * c for i, c in enumerate(pendants))


def _caterpillar(pendants: list[int]) -> bytes:
    """The WROM sequence of the caterpillar whose spine u_1 .. u_L carries
    pendants[i] leaves at u_{i+1}, with a leaf at each end of the spine (or
    L = 1), from the branches at u_{h+1}, h = (L - 1) // 2: the arms
    u_1 .. u_h and u_L .. u_{h+2}, where they have vertices, and its
    leaves."""
    h = (len(pendants) - 1) // 2
    arms = [_arm(pendants[:h]), _arm(pendants[:h:-1])]
    return _centre_sequence([arm for arm in arms if arm] + [_LEAF] * pendants[h])


def _T_sequence(p: int, q: int, b: int) -> bytes:
    """The WROM sequence of build_T(p, q, b), q >= 2."""
    return _caterpillar(_T_pendants(p, q, b))


def _comet_sequence(n: int, k: int) -> bytes:
    """The WROM sequence of build_comet(n, k): the star for k = 1."""
    return _caterpillar([n - 1]) if k == 1 else _T_sequence(k - 2, 2, n - k)


def _fork_sequence(a: int, r: int, n: int) -> bytes:
    """The WROM sequence of build_fork(a, r, n), r >= 2, from the branches
    at the hub: a paths of r vertices, the first with the extra leaves at
    its vertex r - 1 from the hub."""
    first = _arm([0, n - a * r - 1] + [0] * (r - 2))
    return _centre_sequence([first] + [_LEVELS[:r]] * (a - 1))


def _pendant_forest(m: int) -> list[bytes]:
    """The WROM sequences of all trees on 2m vertices in which every
    interior vertex carries exactly one leaf: each interior tree on m >= 2
    vertices, as _level_sequences(m) yields it, with one more leaf at
    every vertex, from the branches at its root.  Distinct interior trees
    give non-isomorphic results."""
    family = []
    for seq in _level_sequences(m):
        children: list[list[int]] = [[] for _ in seq]
        for p, v in _sequence_edges(seq):
            children[p].append(v)
        below = [[]] * m  # below[v]: the branches below v, its leaf and its children's
        for v in range(m - 1, -1, -1):  # a child comes after its parent
            below[v] = [_LEAF] + [_root_sequence(below[w]) for w in children[v]]
        family.append(_centre_sequence(below[0]))
    return family


def predicted_extremal(key: ClassKey) -> PredictedExtremal:
    """The predicted minimizer set for a feasible class key.

    Singleton for every settled case except the t = m = b matching class,
    where the whole one-pendant-per-interior-vertex family is extremal.  For
    diameter keys with D >= 5 the returned candidates come from an open
    conjecture and are flagged as such: the comet, plus the fork with arm
    length D/2 when D is even, or the spider S(j, j, j + 1) when D = 2j + 1
    and n = 3j + 2.  Each tree is given as its WROM sequence, composed
    from the family's shape with no tree built.
    """
    if not key.feasible():
        raise EmptyClassError(f"class {key} admits no tree")
    n = key.n
    _check_levels(n)
    if key.variant == "NM":
        m = key.m
        if m == 1:
            return PredictedExtremal((_comet_sequence(n, 1),))  # the star T(0, 1, n - 1)
        if n >= 2 * m + 1:
            return PredictedExtremal((_T_sequence(2 * m - 3, 2, n + 1 - 2 * m),))
        return PredictedExtremal((_T_sequence(2 * m - 4, 2, 2),))
    if key.variant == "NMB":
        m, b, t = key.m, key.b, key.t
        if m == 1:
            return PredictedExtremal((_comet_sequence(n, 1),))  # the star T(0, 1, n - 1)
        if t == 1:
            return PredictedExtremal((_T_sequence(2 * m - 3, 2, b),))
        if t < m:
            return PredictedExtremal((_T_sequence(2 * m - 2 * t, t, b),))
        if t == m == b:
            return PredictedExtremal(tuple(_pendant_forest(m)))
        return PredictedExtremal((_T_sequence(0, m, b),))  # t == m < b
    if key.variant == "NK":
        return PredictedExtremal((_comet_sequence(n, key.k),))
    # ND
    D = key.D
    if D == 2:
        return PredictedExtremal((_comet_sequence(n, 1),))  # the star
    if D == 3:
        return PredictedExtremal((_comet_sequence(n, 2),))
    if D == 4:
        return PredictedExtremal((_fork_sequence((n - 1) // 2, 2, n),))
    candidates = [_comet_sequence(n, D - 1)]
    j = D // 2
    if D % 2 == 0:
        a = (n - 1) // j
        if a >= 2:
            candidates.append(_fork_sequence(a, j, n))
    elif n == 3 * j + 2:
        # D = 2j + 1 on n = 3j + 2: the spider S(j, j, j + 1) beats the comet
        # (ND 8 5, 11 7, 14 9); its branches at the hub are its three arms
        candidates.append(_centre_sequence([_LEVELS[:j]] * 2 + [_LEVELS[: j + 1]]))
    return PredictedExtremal(tuple(candidates), conjecture=True)
