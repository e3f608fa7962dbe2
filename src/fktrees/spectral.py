"""Dirichlet Laplacian on trees with boundary: matrices, eigenpairs, bounds.

The Dirichlet matrix acts on functions supported on the interior: the
diagonal carries the full degree of each interior vertex in the host tree
(boundary neighbors contribute, since the extension by zero pays for those
edges), and off-diagonal entries are -1 exactly for interior-interior
edges.  With a connected interior, which from_edge_list checks, the
matrix is irreducibly diagonally dominant, hence positive definite, the
smallest eigenvalue is simple, and its eigenvector can be chosen strictly
positive.  On every call first_eigenpair checks numerically only the
residual of the pair it returns and the positivity of its eigenvector
(_check_ground_state); positive definiteness and simplicity follow from
the connected interior and are not checked.

Interior vertices are always ordered ascending by vertex id; eigenfunctions
and user-supplied Rayleigh test functions use that ordering.

first_eigenpair picks its solver by the interior size k alone.  Up to
_DENSE_SOLVE_MAX vertices, which covers every interior a sweep can name,
it runs a dense eigh on the matrix.  Every such matrix is assembled by
_assemble, which fills a stack of them, each from an interior order, a
degree per vertex and an edge list, and solved by _ground_states, a stack
at a time: dirichlet_matrix reads one tree from a TreeWithBoundary, so
first_eigenpair solves a stack of one.  verify._solve feeds level
sequences to the same two, a stack per interior size, so the sweep's
lambda1 is first_eigenpair's bit for bit.

A larger interior is solved on the tree itself, with its vertex ids and
lists of one slot per vertex: O(n) memory, the size of the tree already
held (_tree_eigenpair).  Eliminating A - xI children first on the interior
tree rooted at some vertex, a vertex's pivot is deg - x - sum of 1/p over
its children, and by Sylvester's law of inertia the signs of the pivots
count the eigenvalues below, at and above x (Jacobs & Trevisan, "Locating
the eigenvalues of trees", Linear Algebra Appl. 434, 2011).  A zero pivot
is handled by their rule, which keeps the count exact: its parent's pivot
becomes -1/2, the zero child's 2, and the edge above the parent is cut
(_eliminate).  Searching the count down to adjacent floats gives lambda1,
and lambda2 when gap is read (_search).  The same pass gives the root's
pivot, a falling function of x between its poles, the eigenvalues of the
tree without its root, so once the bracket holds no such pole its regula
falsi point replaces the midpoint.

lambda1's pair is fixed by the count rooted at the least interior id,
count0: each float operation is monotone, so while every pivot is
positive no pivot rises as x grows, the x with every count0 pivot
positive form a down-set, and exactly one pair of adjacent floats lo < hi
has count0(lo) = 0 and count0(hi) >= 1, the pair plain bisection gives.
Any route that ends on such a pair gives the same bytes, so lambda1 is
found from the landscape u = A^{-1} 1 (Filoche & Mayboroda, PNAS 109,
2012), one solve: it brackets lambda1 between 1/max u and u's Rayleigh
quotient, and the count rooted at its peak, whose pivot has no pole near
lambda1 where the peak carries the ground state, is searched first, with
no check of the bracket; count0 then checks the pair that search ends on,
the one check that decides the bytes (_first_pair).  A pass reads x only
through d - x for the degrees d, so every search skips an x whose
differences it has already counted (_counter): exact, so no route moves.
At sigma = lo, just below lambda1, A - sigma I is a nonsingular
irreducible M-matrix, so its inverse is entrywise positive, and solving
with it by the same elimination only adds and divides positive numbers:
inverse iteration keeps the ground state positive in floats, down to
entries many decades below its largest.  Both solvers pass the same
residual and positivity checks (_check_ground_state).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    InvalidBoundaryError,
    NoConvergenceError,
    NonPositiveEigenvectorError,
    TooSmallError,
    ZeroFunctionError,
)
from .trees import TreeWithBoundary, _bfs, diameter, from_edge_list

__all__ = [
    "DirichletMatrix",
    "DirichletSpectrum",
    "dirichlet_matrix",
    "first_eigenpair",
    "rayleigh_quotient",
    "path_eigenvalue",
    "eigenvalue_bounds",
    "zero_extension",
    "build_path",
]

DEFAULT_TOL = 1e-10

# dirichlet_matrix's dense matrix (8k^2 bytes) and eigh's eigenvectors would
# take 400 MB at k = 5,000 interior vertices; a larger interior is refused
# before allocating.  first_eigenpair builds no matrix past _DENSE_SOLVE_MAX,
# so this bounds only dirichlet_matrix.
MAX_DENSE_INTERIOR = 5_000

# first_eigenpair's switch: a dense eigh up to this many interior vertices,
# the tree solver past it.  verify._solve always solves densely and must
# give first_eigenpair's lambda1 bit for bit, so it must cover every interior
# a sweep can name: at most HARD_CAP - 2, as every tree has two leaves.
_DENSE_SOLVE_MAX = 20

# _first_pair widens the landscape bracket on lambda1 by this relative
# amount against the rounding of the landscape solve and of its sums; a
# bracket that still misses lambda1 costs only a gallop on count0.
_LANDSCAPE_SLACK = 2.0**-20

# x -> (below, at, root pivot), one inertia count of a rooted interior tree
_Count = Callable[[float], tuple[int, int, float]]


@dataclass(frozen=True, eq=False)
class DirichletMatrix:
    """Symmetric matrix of -Laplacian restricted to the interior."""

    order: int
    vertices: tuple[int, ...]  # interior vertex ids, ascending
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class DirichletSpectrum:
    """First eigenpair with its numerical certificates.

    eigenfunction has unit Euclidean norm, strictly positive entries, and is
    indexed by ``vertices``.  ``gap`` is lambda2 - lambda1 (None when the
    interior is a single vertex, where simplicity is vacuous).  The dense
    solve stores it, as a float or None; the tree solver stores a callable
    that searches for lambda2, and gap calls it on its first read only.
    """

    lambda1: float
    eigenfunction: np.ndarray
    vertices: tuple[int, ...]
    residual: float
    _gap: float | None | Callable[[], float] = field(repr=False)

    @cached_property
    def gap(self) -> float | None:
        return self._gap() if callable(self._gap) else self._gap


def dirichlet_matrix(tree: TreeWithBoundary) -> DirichletMatrix:
    """Assemble the interior-restricted matrix (degree diagonal, -1 for
    interior-interior edges) of at most MAX_DENSE_INTERIOR rows."""
    interior = tree.interior
    k = len(interior)
    if k > MAX_DENSE_INTERIOR:
        raise CapExceededError(f"interior of {k} exceeds the dense-solver cap {MAX_DENSE_INTERIOR}")
    (entries,) = _assemble([(interior, [len(a) for a in tree.adj], tree.edges)])
    return DirichletMatrix(order=k, vertices=interior, entries=entries)


def _assemble(
    trees: Sequence[tuple[Sequence[int], Sequence[int], Iterable[tuple[int, int]]]]
) -> np.ndarray:
    """The Dirichlet matrices of trees, each an (interior, degree, edges)
    triple, all with interiors of one size k, as a (g, k, k) stack: the one
    place one is assembled.  Row i of a matrix is vertex interior[i], with
    its degree on the diagonal, and each edge with both ends interior puts
    -1 on both of its entries.  The stack is filled by one assignment of
    the diagonals and one of the edges, and its entries are small integers,
    so each matrix is the one a stack of one gives."""
    k = len(trees[0][0])
    diagonal, which, ends = [], [], []
    for t, (interior, degree, edges) in enumerate(trees):
        row = {v: i for i, v in enumerate(interior)}
        diagonal += [degree[v] for v in interior]
        for u, v in edges:
            if u in row and v in row:
                which.append(t)
                ends.append((row[u], row[v]))
    mat = np.zeros((len(trees), k, k))
    mat[:, range(k), range(k)] = np.reshape(diagonal, (len(trees), k))
    if ends:
        i, j = np.array(ends).T
        mat[which, i, j] = mat[which, j, i] = -1.0
    return mat


def first_eigenpair(tree: TreeWithBoundary, tol: float = DEFAULT_TOL) -> DirichletSpectrum:
    """Smallest Dirichlet eigenvalue with a positive unit eigenvector.

    The interior size k alone picks the solver, with no flag:

    - k <= _DENSE_SOLVE_MAX, which covers every interior a sweep can name:
      a dense symmetric eigensolve (numpy's eigh), as accurate as it gets,
      and the bit-for-bit reference for verify._solve.
    - k > _DENSE_SOLVE_MAX: _tree_eigenpair, which builds no matrix and
      works on the tree with its own vertex ids, in O(n) memory, the size
      of the tree.  lambda1 comes from searching the Jacobs-Trevisan
      inertia count, which stays exact at a zero pivot
      (the parent's pivot becomes -1/2, the zero child's 2, and the edge
      above the parent is cut), down to adjacent floats: Illinois regula
      falsi steps on the root's pivot where it is continuous, and
      bit-pattern midpoints elsewhere.  The search starts from the bracket
      the landscape A^{-1} 1 proves, on the tree rooted at the landscape's
      peak, and ends on the count rooted at the least interior id, on the
      pair plain bisection of that count gives.  No search runs a pass
      whose result it already has.  lambda2, and so gap, is searched the
      same way on the first read of gap only; the bounds and transform
      commands never read it.  The ground state comes from inverse
      iteration at sigma, the largest float the count puts below lambda1:
      A - sigma I is a nonsingular irreducible M-matrix, so its pivots are
      positive, its inverse is entrywise positive, and each solve only adds
      and divides positive numbers, so every iterate stays positive.  Its
      floats agree with eigh's to about 1e-15 in lambda1 and 1e-13 in the
      eigenfunction, and its small entries keep their relative accuracy
      where eigh returns rounding noise.

    Both paths check the contracts in _check_ground_state: residual
    max |A f - lambda1 f| <= tol, else NoConvergenceError, and every entry
    > 0, else NonPositiveEigenvectorError (the tree path's remaining case:
    entries below float64's range underflow to 0).  The eigenvector is
    signed so that the entry of the interior vertex of least id is
    positive.  gap is lambda2 - lambda1, None for a one-vertex interior;
    the dense path stores it with the rest, since eigh gives it free.
    """
    _check_tol(tol)
    if len(tree.interior) > _DENSE_SOLVE_MAX:
        return _tree_eigenpair(tree, tol)
    dm = dirichlet_matrix(tree)
    w, f, residual = _ground_states(dm.entries[None], tol)
    gap = float(w[0, 1] - w[0, 0]) if dm.order > 1 else None
    return DirichletSpectrum(
        lambda1=float(w[0, 0]),
        eigenfunction=f[0],
        vertices=dm.vertices,
        residual=float(residual[0]),
        _gap=gap,
    )


def _ground_states(
    entries: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, f, residual) of a stack of Dirichlet matrices of shape (g, k, k),
    from one stacked eigh: w[i] the ascending eigenvalues of matrix i, f[i]
    its ground state, signed so that its first entry is positive and of
    unit norm, and residual[i] = max |A f - lambda1 f|.

    _check_ground_state checks every matrix of the stack.  eigh solves each
    matrix of a stack on its own, and the norm and residual are per-matrix
    dot and matrix-vector products, so a stack of one gives the floats of a
    single solve.
    """
    try:
        w, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh converges on these matrices
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    f = vecs[:, :, 0]
    f = np.where(f[:, :1] < 0, -f, f)
    f /= np.sqrt(f[:, None, :] @ f[:, :, None])[:, 0]
    residual = np.abs((entries @ f[:, :, None])[:, :, 0] - w[:, :1] * f).max(axis=1)
    _check_ground_state(float(residual.max()), f, tol)
    return w, f, residual


def _check_ground_state(residual: float, f: np.ndarray, tol: float) -> None:
    """The contracts of first_eigenpair, for either solver: a residual
    above tol raises NoConvergenceError, and a ground state with an entry
    <= 0 raises NonPositiveEigenvectorError.  A nan fails both checks."""
    if not residual <= tol:
        raise NoConvergenceError(f"residual {residual:.3e} exceeds tolerance {tol:.3e}")
    if not np.min(f) > 0.0:
        raise NonPositiveEigenvectorError(
            "ground-state eigenvector has a non-positive entry"
        )


def _tree_eigenpair(tree: TreeWithBoundary, tol: float) -> DirichletSpectrum:
    """first_eigenpair on an interior past _DENSE_SOLVE_MAX, from passes
    over the interior tree, with vertex ids throughout: no k x k matrix is
    built.

    lambda1 is searched by _first_pair, and sigma is the lower end of its
    bracket, where every pivot of the count rooted at the least interior id
    is positive; lambda2 is searched above sigma when gap is first read
    (_tree_gap).  Two steps of inverse iteration give the ground state.
    The first, from the all-ones vector (_solve), finds the interior vertex
    r where it peaks, the least id among ties.  The second starts from e_r
    with the tree rooted at r (_twisted_solve): each branch hanging off r
    has its lowest eigenvalue well above lambda1, so its pivots are
    accurate, and one step is exact up to rounding, even where the ground
    state is many decades below its peak (K. V. Fernando, SIAM J. Matrix
    Anal. Appl. 18, 1997).  The solve keeps two memos by root, rooted
    (the steps of _children_first) and counted (their _counter), so that
    no rooting is built twice: the least id, the landscape's peak and r
    are often the same vertex.  Both are emptied before the second step,
    which frees the landscape peak's rooting where r is another vertex, and
    gap keeps only count0.  The residual is read off the ground state's zero extension,
    whose boundary entries add exact zeros.
    """
    interior = tree.interior
    rooted = cache(partial(_children_first, tree))
    counted = cache(lambda root: _counter(rooted(root)))
    steps = rooted(interior[0])
    # Gershgorin: every eigenvalue is at most twice the largest degree
    top = 2.0 * max(d for d, _, _ in steps)
    sigma, lam1 = _first_pair(tree, rooted, counted, top)
    first = _solve(steps, sigma)
    peak_steps, count = rooted(max(interior, key=first.__getitem__)), counted(interior[0])
    rooted.cache_clear(), counted.cache_clear()
    f = np.array(_twisted_solve(peak_steps, sigma))[list(interior)]
    f /= math.sqrt(float(f @ f))
    fl = zero_extension(tree, f).tolist()
    af = [len(tree.adj[v]) * fl[v] - sum([fl[u] for u in tree.adj[v]]) for v in interior]
    residual = float(np.abs(np.array(af) - lam1 * f).max())
    _check_ground_state(residual, f, tol)
    return DirichletSpectrum(
        lambda1=lam1,
        eigenfunction=f,
        vertices=interior,
        residual=residual,
        _gap=partial(_tree_gap, count, sigma, top, lam1),
    )


def _tree_gap(count: _Count, sigma: float, top: float, lam1: float) -> float:
    """lambda2 - lambda1 on the tree path, lambda2 searched in (sigma, top]."""
    return _search(count, 2, sigma, top)[1] - lam1


def _first_pair(
    tree: TreeWithBoundary,
    rooted: Callable[[int], Sequence[tuple[float, int, int]]],
    counted: Callable[[int], _Count],
    top: float,
) -> tuple[float, float]:
    """The adjacent floats lo < hi on which count0, the inertia count of the
    interior tree rooted at its least id, puts no eigenvalue <= lo and at
    least one <= hi.  rooted and counted give the steps and the count of the
    interior tree rooted at a vertex, each built once per root.

    The landscape u = A^{-1} 1 (Filoche & Mayboroda, PNAS 109, 2012), one
    solve, brackets lambda1.  A is a nonsingular M-matrix, so A^{-1} >= 0,
    and the row sums of A^{-1} are the entries of u, so
    rho(A^{-1}) <= max u, that is lambda1 >= 1 / max u.  And u.Au = sum u,
    so u's Rayleigh quotient gives lambda1 <= sum u / sum u^2.  Each end is
    widened by _LANDSCAPE_SLACK against rounding.  A landscape that is not
    finite and positive leaves the bracket [0, top].

    The search runs on the count rooted at the landscape's peak p, the
    least id among ties.  The root pivot's poles are the eigenvalues of the
    tree without p, and where p carries the ground state they sit well
    above lambda1, so _search's regula falsi steps take over at once.  It
    ends on adjacent floats even where the bracket misses lambda1, and
    only count0 checks its pair.  An end count0 refutes becomes the other
    end, the missing end gallops outward from it by 1, 2, 4, ... floats
    until count0 confirms it, and count0 is searched between the two.  The
    module docstring shows that count0 reads 0 and >= 1 on one pair of
    adjacent floats only, so the route does not move the result.  Where p
    is the least id, counted gives count0 itself, and the check reads ends
    the search has already counted.
    """
    interior = tree.interior
    count = counted(interior[0])
    peak, lo, hi = interior[0], 0.0, top
    u = _solve(rooted(interior[0]), 0.0)
    if all([0.0 < u[v] < math.inf for v in interior]):
        landscape_peak = max(interior, key=u.__getitem__)
        lower, upper = 1.0 / u[landscape_peak], math.fsum(u) / math.fsum([x * x for x in u])
        if 0.0 < lower <= upper < top:
            peak, lo = landscape_peak, lower * (1.0 - _LANDSCAPE_SLACK)
            hi = min(upper * (1.0 + _LANDSCAPE_SLACK), top)
    lo, hi = _search(counted(peak), 1, lo, hi)
    if _holds(count, lo):
        lo, hi = _gallop(count, lo, -1, 0.0), lo
    elif not _holds(count, hi):
        lo, hi = hi, _gallop(count, hi, 1, top)
    return _search(count, 1, lo, hi)


def _holds(count: _Count, x: float) -> bool:
    """Whether count puts lambda1 at or below x."""
    below, at, _ = count(x)
    return below + at >= 1


def _gallop(count: _Count, x: float, sign: int, end: float) -> float:
    """The first of x - 1, 2, 4, ... floats (sign -1) or x + 1, 2, 4, ...
    floats (sign 1), stopped at end, where _holds is False (sign -1) or
    True (sign 1).  end must be such a point; it is not counted."""
    step = 1
    while True:
        b = _bits(x) + sign * step
        if (b - _bits(end)) * sign >= 0:
            return end
        y = _from_bits(b)
        if _holds(count, y) == (sign > 0):
            return y
        step *= 2


def _counter(steps: Sequence[tuple[float, int, int]]) -> _Count:
    """x -> _eliminate(steps, x), with each distinct pass run once.

    _eliminate reads x only as d - x, a vertex's degree less x: Python
    evaluates d - x - acc[v] as (d - x) - acc[v].  So two x that give the
    same d - x for every degree d of the steps give the same (below, at,
    root pivot), bit for bit, and the count keeps each result under that
    tuple of differences.  This matters where x is far smaller than the
    degrees: on a long path lambda1 ~ 2.5e-6 has floats 4e-22 apart, while
    2 - x moves only every 4.4e-16.  _eliminate is looked up on the module
    at each pass, so a wrapper rebound there sees every pass that runs.
    """
    degrees = sorted({d for d, _, _ in steps})
    seen: dict[tuple[float, ...], tuple[int, int, float]] = {}

    def count(x: float) -> tuple[int, int, float]:
        key = tuple([d - x for d in degrees])
        result = seen.get(key)
        if result is None:
            result = seen[key] = _eliminate(steps, x)
        return result

    return count


def _children_first(tree: TreeWithBoundary, root: int) -> list[tuple[float, int, int]]:
    """The interior tree rooted at the interior vertex root, as (degree,
    vertex, parent) steps in children-first order, root last.  Interior
    neighbours are visited in ascending id order.  The root's parent is n,
    a spare slot past the last vertex id, where a pass can send the root's
    share; the passes size their lists by it."""
    order, parent, _ = _bfs(tree.adj, [root], tree.boundary)
    parent[root] = tree.n
    return [(float(len(tree.adj[v])), v, parent[v]) for v in reversed(order)]


def _eliminate(steps: Sequence[tuple[float, int, int]], x: float) -> tuple[int, int, float]:
    """(below, at, root pivot): one pass of eliminating A - xI children
    first, the Jacobs-Trevisan count of the eigenvalues of A below and at x
    (Linear Algebra Appl. 434, 2011), and the last pivot, the root's.

    A vertex's pivot is deg - x - sum of 1/p over its children, and by
    Sylvester's law of inertia the pivots' signs count the eigenvalues.  A
    zero pivot cannot be divided by.  Jacobs and Trevisan's rule keeps the
    count exact: when a child's pivot is 0, its parent's pivot becomes -1/2,
    one zero child's becomes 2, and the edge from the parent up is cut, so
    the parent adds nothing to its own parent.  Here a zero pivot counts as
    at x and sets its parent's sum to nan, which no later child changes; a
    parent whose pivot comes out nan then counts as below x, and one zero
    child moves from at x to above.  Counting a zero pivot as negative
    instead gets P23 wrong at x = 2.  The root pivot returned is nan when a
    child of the root has pivot 0.
    """
    acc = [0.0] * (steps[-1][2] + 1)  # sum of 1/p over each vertex's children
    below = at = 0
    for d, v, par in steps:
        p = d - x - acc[v]
        if p > 0.0:
            acc[par] += 1.0 / p
        elif p < 0.0:
            below += 1
            acc[par] += 1.0 / p
        elif p == 0.0:
            at += 1
            acc[par] = math.nan
        else:  # nan: a zero child
            below += 1
            at -= 1
    return below, at, p


def _bits(x: float) -> int:
    """The bit pattern of a float as an integer; for x >= 0 it orders as x."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def _search(count: _Count, j: int, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats lo < hi around the j-th smallest eigenvalue: fewer
    than j eigenvalues are <= lo and at least j are <= hi, so lambda_j lies
    in (lo, hi].  lo >= 0.  A bracket that misses lambda_j still ends on
    adjacent floats, at its end nearer lambda_j, with no claim about them.

    Each pass counts at one x inside the bracket (count, a _counter) and
    keeps the end that x does not replace.  When lo counts j - 1 with a
    positive root pivot and hi counts j with a negative one, the tree
    without its root has as many eigenvalues <= lo as <= hi, so none
    between them, and the root pivot, deg - x - sum of 1/p over the root's
    children, is continuous and falling on [lo, hi] with lambda_j its one
    zero.  Then x is the regula falsi point of the two ends' pivots, moved
    one float inside the bracket if it rounds onto an end, and an end kept
    twice in a row has its pivot halved (the Illinois step: Dowell &
    Jarratt, BIT 11, 1971).  Otherwise x is the float whose bit pattern is
    the midpoint of the ends' patterns: floats >= 0 order as their
    patterns, so this halves the number of floats in the bracket, finds
    lambda_j's binade in a few passes, and closes any bracket in at most 63
    passes.

    Rounding can leave the pivots flat near lambda_j, where the tree
    without its root has an eigenvalue close by.  So when the last three
    passes did not halve the bracket's float count, both ends' pivots are
    dropped, and interpolation waits until counts at fresh ends bring new
    ones: the bracket halves at least every four passes.
    """
    a, b = _bits(lo), _bits(hi)
    p_lo = p_hi = math.nan  # the ends' root pivots, nan where they cannot interpolate
    kept = 0  # 1 when the last pass kept lo, -1 when it kept hi
    widths = [b - a] * 3  # the bracket's float count before each pass
    while b - a > 1:
        if 2 * (b - a) > widths[-3]:
            p_lo = p_hi = math.nan
        if p_lo > 0.0 > p_hi:
            x = lo + (hi - lo) * (p_lo / (p_lo - p_hi))
            x = min(max(x, _from_bits(a + 1)), _from_bits(b - 1))
        else:
            x = _from_bits((a + b) // 2)
        widths.append(b - a)
        below, at, p = count(x)
        if below + at < j:
            lo, a = x, _bits(x)
            p_lo = p if below + at == j - 1 and 0.0 < p < math.inf else math.nan
            if kept == -1:
                p_hi *= 0.5
            kept = -1
        else:
            hi, b = x, _bits(x)
            p_hi = p if below + at == j and -math.inf < p < 0.0 else math.nan
            if kept == 1:
                p_lo *= 0.5
            kept = 1
    return lo, hi


def _solve(steps: Sequence[tuple[float, int, int]], sigma: float) -> list[float]:
    """(A - sigma I)^{-1} 1, by eliminating children first and substituting
    parents first; every pivot must be positive.  The result has one entry
    per vertex id, and only the interior ones are the solve's."""
    n = steps[-1][2]
    acc, y, pivot = [0.0] * (n + 1), [1.0] * n + [0.0], [0.0] * n
    for d, v, par in steps:
        p = pivot[v] = d - sigma - acc[v]
        acc[par] += 1.0 / p
        y[par] += y[v] / p
    x = [0.0] * (n + 1)
    for _, v, par in reversed(steps):
        x[v] = (y[v] + x[par]) / pivot[v]
    return x[:n]


def _twisted_solve(steps: Sequence[tuple[float, int, int]], sigma: float) -> list[float]:
    """(A - sigma I)^{-1} e_r times the root r's pivot: 1 at r, and each
    other vertex its parent's value over its own pivot.  The root's pivot,
    which is ~0 at sigma ~ lambda1, is never formed.  The result has one
    entry per vertex id, and only the interior ones are the solve's."""
    n = steps[-1][2]
    acc, pivot = [0.0] * n, [0.0] * n
    for d, v, par in steps[:-1]:
        p = pivot[v] = d - sigma - acc[v]
        if p <= 0.0:
            raise NonPositiveEigenvectorError(
                "ground-state eigenvector has a non-positive entry"
            )
        acc[par] += 1.0 / p
    f = [1.0] * n
    for _, v, par in reversed(steps[:-1]):
        f[v] = f[par] / pivot[v]
    return f


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:  # nan too: it would switch every check off
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def zero_extension(tree: TreeWithBoundary, f: Sequence[float]) -> np.ndarray:
    """Extend an interior function to all vertices by zero on the boundary."""
    interior = tree.interior
    if len(f) != len(interior):
        raise ValueError(
            f"function has {len(f)} entries, interior has {len(interior)}"
        )
    fhat = np.zeros(tree.n)
    fhat[list(interior)] = f
    return fhat


def rayleigh_quotient(tree: TreeWithBoundary, f: Sequence[float]) -> float:
    """Edge energy of the zero-extension divided by the interior mass.

    f is indexed by ascending interior vertex id, as everywhere else.
    """
    fhat = zero_extension(tree, f)
    mass = float(sum(x * x for x in f))
    if mass == 0.0:
        raise ZeroFunctionError("Rayleigh quotient of the zero function")
    energy = 0.0
    for u, v in tree.edges:
        d = fhat[u] - fhat[v]
        energy += d * d
    return energy / mass


def path_eigenvalue(length: int) -> float:
    """Closed form for the path on ``length`` vertices: 2(1 - cos(pi/(l-1))),
    evaluated as 4 sin^2(pi/(2(l-1))) so long paths keep full relative
    precision (1 - cos cancels: 8e-12 relative error at l = 2001)."""
    if length < 3:
        raise TooSmallError(f"path needs at least 3 vertices, got {length}")
    return 4.0 * math.sin(math.pi / (2 * (length - 1))) ** 2


def build_path(length: int) -> TreeWithBoundary:
    """P_length with leaf boundary {0, length-1}."""
    if length < 3:
        raise TooSmallError(f"path with interior needs >= 3 vertices, got {length}")
    return from_edge_list(length, [(i, i + 1) for i in range(length - 1)])


def eigenvalue_bounds(tree: TreeWithBoundary) -> tuple[float, float]:
    """(4 sin^2(pi/(2D)), b/|interior|): a proven sandwich for lambda1, with
    D the diameter of the tree and b the boundary size.

    The lower bound is path_eigenvalue(D + 1), the eigenvalue of the path
    with the same diameter.  Proof sketch (a discrete Barta argument): for
    even D let g(v) = cos(pi d(v, c)/D) with c the centre; for odd D let
    g(v) = cos(pi (d(v, {c1, c2}) + 1/2)/D) with c1c2 the central edge.
    Only leaves sit at depth floor(D/2), where g = 0, so g > 0 on the
    interior and g >= 0 everywhere.  Every interior vertex is a non-leaf,
    so each one off the centre has a child one level deeper, and the
    centre (each end of the central edge, for odd D) has degree >= 2;
    since cos falls on [0, pi/2], this gives
    (L g)(v) >= 4 sin^2(pi/(2D)) g(v) on the whole interior (zeroing g on
    the boundary only raises L g).  Pairing with the positive ground state
    gives lambda1 >= 4 sin^2(pi/(2D)).  Equality holds only on paths; on
    P_{2r+2} the bound is 4 sin^2(pi/(4r+2)).

    The proof needs every leaf on the boundary, so a boundary that leaves a
    leaf in the interior raises InvalidBoundaryError (P3 with B = {0} has
    lambda1 ~ 0.382 < 2).  Extra non-leaf boundary vertices only raise
    lambda1, so the bound still holds for them.

    The upper bound is the Rayleigh quotient of the constant function (each
    boundary vertex has at most one interior neighbor, since the interior
    is connected); it is attained iff every interior vertex carries
    b/|interior| leaves.

    Two radius bounds, with r the inscribed radius (max distance of a
    vertex to the boundary), are false and are not used.  4 sin^2(pi/(4r+2))
    fails on 6 of the 985 trees with n <= 12: two arms of length 4 plus one
    extra leaf at the hub give lambda1 ~ 0.325 < 4 sin^2(pi/10) ~ 0.382,
    certified by the test vector (1, 1.6, 1.8, 1.2, 1.6, 1.8, 1.2) whose
    Rayleigh quotient is 15/43.  1/r^2 holds through n = 12 but fails
    beyond: 20 arms of length 10 plus a pendant at the hub (n = 202, r = 5)
    give lambda1 ~ 0.0363 < 1/25.
    """
    if tree.n < 3:
        raise TooSmallError("bounds need n >= 3")
    if not tree.boundary.issuperset(tree.leaves):
        raise InvalidBoundaryError(
            "eigenvalue bounds need every leaf on the boundary"
        )
    lower = path_eigenvalue(diameter(tree) + 1)
    upper = len(tree.boundary) / len(tree.interior)
    return lower, upper

