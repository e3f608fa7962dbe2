"""Isomorph-free tree generation and classification keys.

free_trees streams exactly one representative per isomorphism class of free
trees of a given order, with the leaf boundary attached.  Generation is the
constant-amortized-time level-sequence algorithm of Wright, Richmond,
Odlyzko and McKay ("Constant time generation of free trees", SIAM J.
Comput. 15, 1986), the one networkx implements, with the same labelling and
order; soundness is pinned by tests against a brute-force labeled-tree
oracle and against networkx.  Each level sequence is a bytes object (levels
are at most HARD_CAP), and the successor steps are bytes methods.  The
generator's own form is a block of up to _BLOCK trees of one order: int8
parent arrays and degrees of shape (n, B) in preorder, one column per tree,
so that vertex v of every tree is the contiguous row v (_parent_blocks).
Edge lists and trees are read from its columns; the sweep's invariants
(_array_invariants) are one children-first pass over its rows, each row one
numpy step for the whole block, which reaches the parents through the flat
index parent * B + column (_flat_parents).

A ClassKey names one of the four tree classes the extremal theorems speak
about: NM (order, matching number), NMB (order, matching number, leaf
count), NK (order, interior count) and ND (order, diameter).  _PARAMS says
which parameters each variant takes.  classify gives a tree's four keys,
and _cells says which (m, b, D) of _array_invariants a key holds, so the
sweep's table from invariants to keys is built from the keys alone.
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


_DOWN = bytes((x - 1) % 256 for x in range(256))  # translate table: level x -> x - 1
_LEVELS = bytes(range(HARD_CAP + 1))  # _LEVELS[1:h + 2] is a path of height h


def _next_rooted(seq: bytes, p: int | None = None) -> bytes | None:
    """Beyer-Hedetniemi successor of a rooted level sequence, rewriting from
    position p (default: the last level above 1); None after the last one."""
    n = len(seq)
    if p is None:
        p = len(seq.rstrip(b"\x01")) - 1
    if p == 0:
        return None
    q = seq.rindex(seq[p] - 1, 0, p)
    # the subtree block seq[q:p], repeated just enough to fill positions p onwards
    return seq[:p] + (seq[q:p] * -(-(n - p) // (p - q)))[: n - p]


def _left_end(seq: bytes) -> int:
    """Position of the root's second child (len(seq) if it has one child):
    the root's left subtree is seq[1:_left_end(seq)]."""
    m = seq.find(1, 2)
    return m if m > 0 else len(seq)


def _next_free(seq: bytes) -> bytes:
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
            size == rest_size and seq[1:m].translate(_DOWN) <= b"\x00" + seq[m:]
        ):
            return seq
    p = m - 1
    nxt = _next_rooted(seq, p)
    if seq[p] > 2:
        height = max(nxt[1:_left_end(nxt)]) - 1
        nxt = nxt[: len(nxt) - height - 1] + _LEVELS[1 : height + 2]
    return nxt


def _level_sequences(n: int) -> Iterator[bytes]:
    """WROM: one center-rooted level sequence per free tree on n >= 2
    vertices, as bytes, starting from the path rooted at its center."""
    seq = _LEVELS[: n // 2 + 1] + _LEVELS[1 : (n + 1) // 2]
    while seq is not None:
        seq = _next_free(seq)
        yield seq
        seq = _next_rooted(seq)


def _parent_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(parent, degree) of every free tree on n >= 2 vertices, in WROM
    order, as int8 arrays of shape (n, B), B <= _BLOCK, one column per tree.
    Vertex v is position v of the level sequence, so the vertices are in
    preorder and every parent precedes its children; parent[v, r] is the
    latest earlier vertex one level up (parent[0, r] = -1, the centre).
    Row v holds vertex v of every tree, so each vertex is one numpy step
    over the whole block, and (v, r) is flat index v * B + r."""
    sequences = _level_sequences(n)
    while block := b"".join(itertools.islice(sequences, _BLOCK)):
        level = np.frombuffer(block, np.int8).reshape(-1, n).T
        B = level.shape[1]
        at = level.astype(np.intp) * B + np.arange(B)  # in int8, level * B would wrap
        latest = np.zeros(n * B, np.int8)  # latest[d * B + r]: last vertex at level d
        parent = np.empty((n, B), np.int8)
        parent[0] = -1
        for v in range(1, n):
            parent[v] = latest[at[v] - B]
            latest[at[v]] = v
        degree = np.bincount(_flat_parents(parent).ravel(), minlength=n * B)
        degree = degree.reshape(n, B).astype(np.int8)
        degree[1:] += 1  # the edge to each non-root vertex's parent
        yield parent, degree


def _flat_parents(parent: np.ndarray) -> np.ndarray:
    """Flat index parent[v, r] * B + r, in intp, of the parent of every
    non-root vertex of an (n, B) block: row v - 1 is vertex v."""
    return parent[1:].astype(np.intp) * parent.shape[1] + np.arange(parent.shape[1])


def _parent_edges(parent: list[int]) -> tuple[tuple[int, int], ...]:
    """The edges (parent[i], i), i >= 1, of one _parent_blocks column."""
    return tuple(zip(parent[1:], range(1, len(parent))))


def free_tree_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Edge lists of all free trees on n >= 1 vertices, one per isomorphism
    class, in WROM order (n = 1 yields the empty list), labelled as in
    _parent_blocks."""
    if n < 1:
        raise TooSmallError(f"no trees on {n} vertices")
    if n == 1:
        yield ()
        return
    for parent, _ in _parent_blocks(n):
        yield from map(_parent_edges, parent.T.tolist())


def free_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeWithBoundary]:
    """One TreeWithBoundary (leaf boundary) per isomorphism class of free
    trees on n vertices, n <= cap <= HARD_CAP; n must be >= 3 because the
    2-vertex tree has no interior under the leaf-boundary convention."""
    _check_order(n, cap)
    for edges in free_tree_edge_sets(n):
        yield from_edge_list(n, edges)


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
    """(m, b, D), one entry per column, of a _parent_blocks block of trees
    with n >= 3, in one pass over the vertices children first: b counts the
    degree-1 vertices; m matches a vertex to its parent when both are still
    free (the greedy rule of matching.maximum_matching, optimal in any
    children-first order); D is the largest sum of the two tallest branches
    below a vertex, with height the tallest branch seen so far.  A vertex's
    own row is a slice, its parents are read and written through the flat
    index, which names one distinct entry per column."""
    n, B = parent.shape
    up = _flat_parents(parent)
    free = np.ones(n * B, bool)
    height = np.zeros(n * B, np.int8)
    m = np.zeros(B, np.int8)
    D = np.zeros(B, np.int8)
    for v in range(n - 1, 0, -1):
        own, p = slice(v * B, (v + 1) * B), up[v - 1]
        free_p = free[p]
        matched = free[own] & free_p
        free[p] = free_p & ~matched
        m += matched
        h = height[own] + 1
        hp = height[p]
        np.maximum(D, h + hp, out=D)
        height[p] = np.maximum(hp, h)
    return m, np.count_nonzero(degree == 1, axis=0), D


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


def classify(tree: TreeWithBoundary) -> list[ClassKey]:
    """The NM, NMB, NK and ND keys of a tree with leaf boundary and n >= 3."""
    _check_leaf_boundary(tree)
    n, m, b = tree.n, matching_number(tree), len(tree.boundary)
    return [
        ClassKey("NM", n, m=m),
        ClassKey("NMB", n, m=m, b=b),
        ClassKey("NK", n, k=n - b),
        ClassKey("ND", n, D=diameter(tree)),
    ]


def _cells(key: ClassKey) -> tuple[slice, slice, slice]:
    """Where key's trees sit in an array indexed by the (m, b, D) of
    _array_invariants: a one-value slice for each invariant the key fixes
    (an NK key fixes b = n - k) and a full slice for the others."""
    b = key.n - key.k if key.variant == "NK" else key.b
    return tuple(slice(None) if x is None else slice(x, x + 1) for x in (key.m, b, key.D))
