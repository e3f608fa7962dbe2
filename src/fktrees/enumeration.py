"""Isomorph-free tree generation and classification keys.

free_trees streams exactly one representative per isomorphism class of free
trees of a given order, with the leaf boundary attached.  Generation is the
constant-amortized-time level-sequence algorithm of Wright, Richmond,
Odlyzko and McKay ("Constant time generation of free trees", SIAM J.
Comput. 15, 1986), the one networkx implements, with the same labelling and
order; soundness is pinned by tests against a brute-force labeled-tree
oracle and against networkx.  The generator's own form of a tree is a
parent array in preorder, with degrees (_parent_arrays); edge lists, trees
and the sweep's one-pass invariants are all read from it.

A ClassKey names one of the four tree classes the extremal theorems speak
about: NM (order, matching number), NMB (order, matching number, leaf
count), NK (order, interior count) and ND (order, diameter).  _PARAMS says
which parameters each variant takes; classify and the sweep both get a
tree's keys from _key_tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

from .errors import CapExceededError, EmptyInteriorError, TooSmallError
from .matching import matching_number
from .trees import TreeWithBoundary, _check_leaf_boundary, diameter, from_edge_list

__all__ = [
    "DEFAULT_CAP",
    "HARD_CAP",
    "ClassKey",
    "free_tree_edge_sets",
    "free_trees",
    "classify",
]

DEFAULT_CAP = 16
HARD_CAP = 20


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a rooted level sequence, rewriting from
    position p (default: the last level above 1); None after the last one."""
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    # the subtree block seq[q:p], repeated to fill positions p onwards
    return seq[:p] + (seq[q:p] * len(seq))[: len(seq) - p]


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    """The root's left subtree and the tree without it, as level sequences."""
    m = seq.index(1, 2) if 1 in seq[2:] else len(seq)
    return [x - 1 for x in seq[1:m]], [0] + seq[m:]


def _next_free(seq: list[int]) -> list[int]:
    """seq if it is the canonical rooting of its free tree (the root's left
    subtree is lower than the rest, or as high and smaller, or as high, as
    large and not later); otherwise the next candidate past the invalid ones."""
    left, rest = _split(seq)
    lh, rh = max(left), max(rest)
    if rh > lh or (rh == lh and (len(left), left) <= (len(rest), rest)):
        return seq
    p = len(left)
    nxt = _next_rooted(seq, p)
    if seq[p] > 2:
        height = max(_split(nxt)[0])
        nxt[-height - 1:] = range(1, height + 2)
    return nxt


def _level_sequences(n: int) -> Iterator[list[int]]:
    """WROM: one center-rooted level sequence per free tree on n >= 2
    vertices, starting from the path rooted at its center."""
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        seq = _next_free(seq)
        yield seq
        seq = _next_rooted(seq)


def _parent_arrays(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """(parent, degree) of every free tree on n >= 2 vertices, in WROM
    order.  Vertex i is position i of the level sequence, so the vertices
    are in preorder and every parent precedes its children; parent[i] is
    the latest earlier vertex one level up (parent[0] = -1, the centre)."""
    for seq in _level_sequences(n):
        latest = [0] * n  # latest[d]: the last vertex seen at level d
        parent = [-1] * n
        degree = [1] * n  # one for the edge to each vertex's parent ...
        degree[0] = 0  # ... which the root lacks
        for i in range(1, n):
            d = seq[i]
            p = latest[d - 1]
            parent[i] = p
            degree[p] += 1
            latest[d] = i
        yield parent, degree


def _parent_edges(parent: list[int]) -> tuple[tuple[int, int], ...]:
    """The edges (parent[i], i), i >= 1, of a _parent_arrays tree."""
    return tuple(zip(parent[1:], range(1, len(parent))))


def free_tree_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Edge lists of all free trees on n >= 1 vertices, one per isomorphism
    class, in WROM order (n = 1 yields the empty list), labelled as in
    _parent_arrays."""
    if n < 1:
        raise TooSmallError(f"no trees on {n} vertices")
    if n == 1:
        yield ()
        return
    for parent, _ in _parent_arrays(n):
        yield _parent_edges(parent)


def free_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeWithBoundary]:
    """One TreeWithBoundary (leaf boundary) per isomorphism class of free
    trees on n vertices, n <= cap <= HARD_CAP; n must be >= 3 because the
    2-vertex tree has no interior under the leaf-boundary convention."""
    _check_order(n, cap)
    for parent, _ in _parent_arrays(n):
        yield from_edge_list(n, _parent_edges(parent))


def _check_cap(n: int, cap: int) -> None:
    if not n <= cap <= HARD_CAP:
        raise CapExceededError(f"need n <= cap <= {HARD_CAP}; n = {n}, cap = {cap}")


def _check_order(n: int, cap: int) -> None:
    _check_cap(n, cap)
    if n < 3:
        raise EmptyInteriorError(
            f"trees on {n} vertices have no interior with leaf boundary"
        )


def _array_invariants(parent: list[int], degree: list[int]) -> tuple[int, int, int]:
    """(m, b, D) of a tree with n >= 3 given as a _parent_arrays parent
    array, in one pass over the vertices children first: b counts the
    degree-1 vertices; m matches a vertex to its parent when both are still
    free (the greedy rule of matching.maximum_matching, optimal in any
    children-first order); D is the largest sum of the two tallest branches
    below a vertex, with height[p] the tallest branch seen so far."""
    free = [True] * len(parent)
    height = [0] * len(parent)
    m = D = 0
    for v in range(len(parent) - 1, 0, -1):
        p = parent[v]
        if free[v] and free[p]:
            free[v] = free[p] = False
            m += 1
        h = height[v] + 1
        if h + height[p] > D:
            D = h + height[p]
        if h > height[p]:
            height[p] = h
    return m, degree.count(1), D


_PARAMS = {"NM": ("m",), "NMB": ("m", "b"), "NK": ("k",), "ND": ("D",)}


@dataclass(frozen=True, order=True)
class ClassKey:
    """Key of one tree class: variant NM/NMB/NK/ND plus its parameters.

    Exactly the variant's parameters (_PARAMS) are set, the rest are None.
    ``feasible``, the arithmetic membership test, is true iff a tree has it.
    """

    variant: str
    n: int
    m: int | None = None
    b: int | None = None
    k: int | None = None
    D: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in _PARAMS:
            raise ValueError(f"unknown class variant {self.variant!r}")
        want = _PARAMS[self.variant]
        given = tuple(f.name for f in fields(self)[2:] if getattr(self, f.name) is not None)
        if given != want:
            raise ValueError(
                f"{self.variant} takes {', '.join(want)}, got {', '.join(given) or 'none'}"
            )

    @property
    def t(self) -> int | None:
        if self.variant == "NMB":
            return 2 * self.m + self.b - self.n
        return None

    def feasible(self) -> bool:
        n = self.n
        if n < 3:
            return False
        if self.variant == "NM":
            return 1 <= self.m <= n // 2
        if self.variant == "NMB":
            m, b = self.m, self.b
            if m < 1 or not 2 <= b <= n - 1:
                return False
            t = 2 * m + b - n
            return 1 <= t <= min(b, m)
        if self.variant == "NK":
            return 1 <= self.k <= n - 2
        return 2 <= self.D <= n - 1  # ND

    def __str__(self) -> str:
        values = [self.n] + [getattr(self, p) for p in _PARAMS[self.variant]]
        return " ".join([self.variant, *map(str, values)])

    @staticmethod
    def parse(text: str) -> "ClassKey":
        """Inverse of str(): e.g. "NMB 8 3 3", "NK 8 5"."""
        parts = text.split()
        if not parts:
            raise ValueError("empty class key")
        variant, nums = parts[0].upper(), [int(p) for p in parts[1:]]
        if variant not in _PARAMS:
            raise ValueError(f"unknown class variant {parts[0]!r}")
        params = _PARAMS[variant]
        if len(nums) != 1 + len(params):
            raise ValueError(f"{variant} takes {1 + len(params)} integers, got {len(nums)}")
        return ClassKey(variant, nums[0], **dict(zip(params, nums[1:])))


def _key_tuples(n: int, m: int, b: int, D: int) -> tuple[tuple, ...]:
    """dataclasses.astuple of the NM, NMB, NK and ND keys (in _PARAMS order)
    of a tree with n vertices, matching number m, b leaves and diameter D."""
    return (
        ("NM", n, m, None, None, None),
        ("NMB", n, m, b, None, None),
        ("NK", n, None, None, n - b, None),
        ("ND", n, None, None, None, D),
    )


def classify(tree: TreeWithBoundary) -> list[ClassKey]:
    """The NM, NMB, NK and ND keys of a tree with leaf boundary and n >= 3."""
    _check_leaf_boundary(tree)
    n, m, b = tree.n, matching_number(tree), len(tree.boundary)
    return [ClassKey(*key) for key in _key_tuples(n, m, b, diameter(tree))]
