"""Isomorph-free tree generation and classification keys.

free_trees streams exactly one representative per isomorphism class of free
trees of a given order, with the leaf boundary attached.  Generation is the
constant-amortized-time level-sequence algorithm of Wright, Richmond,
Odlyzko and McKay ("Constant time generation of free trees", SIAM J.
Comput. 15, 1986), the one networkx implements, with the same labelling and
order; soundness is pinned by tests against a brute-force labeled-tree
oracle and against networkx.  The generator's own form is a block of up to
_BLOCK trees of one order: int8 parent arrays in preorder, one row per tree,
with their degrees (_parent_blocks).  Edge lists and trees are read from its
rows; the sweep's invariants (_array_invariants) are one children-first
pass over its columns, each column one numpy step for the whole block.

A ClassKey names one of the four tree classes the extremal theorems speak
about: NM (order, matching number), NMB (order, matching number, leaf
count), NK (order, interior count) and ND (order, diameter).  _PARAMS says
which parameters each variant takes; classify and the sweep both get a
tree's keys from _key_tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

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

_BLOCK = 1024  # trees per _parent_blocks block


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a rooted level sequence, rewriting from
    position p (default: the last level above 1); None after the last one."""
    n = len(seq)
    if p is None:
        p = n - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    # the subtree block seq[q:p], repeated just enough to fill positions p onwards
    return seq[:p] + (seq[q:p] * -(-(n - p) // (p - q)))[: n - p]


def _left_end(seq: list[int]) -> int:
    """Position of the root's second child (len(seq) if it has one child):
    the root's left subtree is seq[1:_left_end(seq)]."""
    try:
        return seq.index(1, 2)
    except ValueError:
        return len(seq)


def _next_free(seq: list[int]) -> list[int]:
    """seq if it is the canonical rooting of its free tree (the root's left
    subtree is lower than the rest, or as high and smaller, or as high, as
    large and not later); otherwise the next candidate past the invalid ones.
    The subtrees are compared by height, then size, and only when both tie
    as level sequences (the left one shifted up a level, the rest rooted)."""
    m = _left_end(seq)
    lh, rh = max(seq[1:m]) - 1, max(seq[m:], default=0)
    if rh > lh:
        return seq
    if rh == lh:
        size, rest_size = m - 1, len(seq) - m + 1
        if size < rest_size or (
            size == rest_size and [x - 1 for x in seq[1:m]] <= [0] + seq[m:]
        ):
            return seq
    p = m - 1
    nxt = _next_rooted(seq, p)
    if seq[p] > 2:
        height = max(nxt[1:_left_end(nxt)]) - 1
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


def _parent_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(parent, degree) of every free tree on n >= 2 vertices, in WROM
    order, as int8 arrays of shape (B, n), B <= _BLOCK, one row per tree.
    Vertex i is position i of the level sequence, so the vertices are in
    preorder and every parent precedes its children; parent[r, i] is the
    latest earlier vertex one level up (parent[r, 0] = -1, the centre).
    Each column is one numpy step over the whole block."""
    levels = itertools.chain.from_iterable(_level_sequences(n))
    while len(flat := np.fromiter(itertools.islice(levels, _BLOCK * n), np.int8)):
        level = flat.reshape(-1, n)
        rows = np.arange(len(level))
        latest = np.zeros(level.shape, np.int8)  # latest[r, d]: last vertex at level d
        parent = np.full(level.shape, -1, np.int8)
        degree = np.ones(level.shape, np.int8)  # one for the edge to each parent ...
        degree[:, 0] = 0  # ... which the root lacks
        for i in range(1, n):
            d = level[:, i]
            p = latest[rows, d - 1]
            parent[:, i] = p
            degree[rows, p] += 1
            latest[rows, d] = i
        yield parent, degree


def _parent_edges(parent: list[int]) -> tuple[tuple[int, int], ...]:
    """The edges (parent[i], i), i >= 1, of one _parent_blocks row."""
    return tuple(zip(parent[1:], range(1, len(parent))))


def _parent_rows(n: int) -> Iterator[list[int]]:
    """The rows of _parent_blocks(n)'s parent arrays, as lists."""
    for parent, _ in _parent_blocks(n):
        yield from parent.tolist()


def free_tree_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Edge lists of all free trees on n >= 1 vertices, one per isomorphism
    class, in WROM order (n = 1 yields the empty list), labelled as in
    _parent_blocks."""
    if n < 1:
        raise TooSmallError(f"no trees on {n} vertices")
    if n == 1:
        yield ()
        return
    for parent in _parent_rows(n):
        yield _parent_edges(parent)


def free_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeWithBoundary]:
    """One TreeWithBoundary (leaf boundary) per isomorphism class of free
    trees on n vertices, n <= cap <= HARD_CAP; n must be >= 3 because the
    2-vertex tree has no interior under the leaf-boundary convention."""
    _check_order(n, cap)
    for parent in _parent_rows(n):
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


def _array_invariants(
    parent: np.ndarray, degree: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, b, D), one entry per row, of a _parent_blocks block of trees with
    n >= 3, in one pass over the columns children first: b counts the
    degree-1 vertices; m matches a vertex to its parent when both are still
    free (the greedy rule of matching.maximum_matching, optimal in any
    children-first order); D is the largest sum of the two tallest branches
    below a vertex, with height[r, p] the tallest branch seen so far."""
    rows = np.arange(len(parent))
    free = np.ones(parent.shape, bool)
    height = np.zeros(parent.shape, np.int8)
    m = np.zeros(len(parent), np.int8)
    D = np.zeros(len(parent), np.int8)
    for v in range(parent.shape[1] - 1, 0, -1):
        p = parent[:, v]
        matched = free[:, v] & free[rows, p]
        free[rows, p] &= ~matched
        m += matched
        h = height[:, v] + 1
        hp = height[rows, p]
        np.maximum(D, h + hp, out=D)
        height[rows, p] = np.maximum(hp, h)
    return m, np.count_nonzero(degree == 1, axis=1), D


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
