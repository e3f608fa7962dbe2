"""Isomorph-free tree generation and classification keys.

free_trees streams exactly one representative per isomorphism class of free
trees of a given order, with the leaf boundary attached.  Generation is
delegated to networkx's level-sequence generator (the standard
constant-amortized-time family); soundness is pinned by tests against a
brute-force labeled-tree oracle.

A ClassKey names one of the four tree classes the extremal theorems speak
about: NM (order, matching number), NMB (order, matching number, leaf
count), NK (order, interior count) and ND (order, diameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import networkx as nx

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


def free_tree_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Edge lists of all free trees on n vertices, one per isomorphism
    class, in deterministic order.  Valid for n >= 1 (n=1 yields the empty
    edge list); no boundary semantics attached at this level."""
    if n < 1:
        raise TooSmallError(f"no trees on {n} vertices")
    if n == 1:
        yield ()
        return
    if n == 2:
        yield ((0, 1),)
        return
    for g in nx.nonisomorphic_trees(n):
        yield tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))


def free_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeWithBoundary]:
    """One TreeWithBoundary (leaf boundary) per isomorphism class of free
    trees on n vertices.  n <= cap is enforced; n must be >= 3 because the
    2-vertex tree has no interior under the leaf-boundary convention."""
    if n > cap:
        raise CapExceededError(f"n = {n} exceeds the enumeration cap {cap}")
    if n < 3:
        raise EmptyInteriorError(
            f"trees on {n} vertices have no interior with leaf boundary"
        )
    for edges in free_tree_edge_sets(n):
        yield from_edge_list(n, edges)


@dataclass(frozen=True, order=True)
class ClassKey:
    """Key of one tree class: variant NM/NMB/NK/ND plus its parameters.

    Unused parameters are None.  ``feasible`` is the arithmetic membership
    test: a key is feasible iff at least one tree realizes it.
    """

    variant: str
    n: int
    m: int | None = None
    b: int | None = None
    k: int | None = None
    D: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("NM", "NMB", "NK", "ND"):
            raise ValueError(f"unknown class variant {self.variant!r}")

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
        if self.variant == "NM":
            return f"NM {self.n} {self.m}"
        if self.variant == "NMB":
            return f"NMB {self.n} {self.m} {self.b}"
        if self.variant == "NK":
            return f"NK {self.n} {self.k}"
        return f"ND {self.n} {self.D}"

    @staticmethod
    def parse(text: str) -> "ClassKey":
        """Inverse of str(): e.g. "NMB 8 3 3", "NK 8 5"."""
        parts = text.split()
        if not parts:
            raise ValueError("empty class key")
        variant, nums = parts[0].upper(), [int(p) for p in parts[1:]]
        arity = {"NM": 2, "NMB": 3, "NK": 2, "ND": 2}
        if variant not in arity:
            raise ValueError(f"unknown class variant {parts[0]!r}")
        if len(nums) != arity[variant]:
            raise ValueError(
                f"{variant} takes {arity[variant]} integers, got {len(nums)}"
            )
        if variant == "NM":
            return ClassKey("NM", nums[0], m=nums[1])
        if variant == "NMB":
            return ClassKey("NMB", nums[0], m=nums[1], b=nums[2])
        if variant == "NK":
            return ClassKey("NK", nums[0], k=nums[1])
        return ClassKey("ND", nums[0], D=nums[1])


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
