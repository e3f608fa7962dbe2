"""Maximum matchings on trees, also through chosen pendant edges.

On a tree a maximum matching can be built greedily: any pendant edge can be
assumed to lie in some maximum matching, so repeatedly matching a leaf with
its support vertex and deleting both is optimal.  The tree is rooted at
vertex 0 and its vertices are visited in reversed BFS order, children before
parents.  A vertex still free at its turn has all its children matched, so
the edge to its parent, if that is free too, is pendant in what is left and
is taken.  The BFS order fixes the witness, so it is deterministic.

The module also exposes the constructive swap argument that upgrades an
arbitrary maximum matching into one containing a prescribed disjoint set of
pendant edges (one per contact vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidChoiceError
from .trees import TreeWithBoundary, _bfs, contact_set

__all__ = [
    "Matching",
    "maximum_matching",
    "matching_number",
    "matching_containing_pendants",
]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, stored sorted."""

    edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.edges)

    def is_valid_for(self, tree: TreeWithBoundary) -> bool:
        seen: set[int] = set()
        for u, v in self.edges:
            if not tree.has_edge(u, v) or u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
        return True


def maximum_matching(tree: TreeWithBoundary) -> Matching:
    """Deterministic maximum matching: with the tree rooted at 0, match each
    vertex, children first, to its parent when both are still free."""
    order, parent, _ = _bfs(tree.adj, [0])
    free = [True] * tree.n
    matched: list[tuple[int, int]] = []
    for v in reversed(order):
        p = parent[v]
        if p >= 0 and free[v] and free[p]:
            free[v] = free[p] = False
            matched.append((min(v, p), max(v, p)))
    return Matching(tuple(sorted(matched)))


def matching_number(tree: TreeWithBoundary) -> int:
    """Size of a maximum matching."""
    return len(maximum_matching(tree))


def matching_containing_pendants(
    tree: TreeWithBoundary, pendant_choice: Mapping[int, int]
) -> Matching:
    """Maximum matching containing the chosen pendant edge of every contact
    vertex.

    ``pendant_choice`` maps each contact vertex (interior vertex with a
    boundary neighbor) to one of its boundary neighbors.  Starting from any
    maximum matching, a contact vertex whose chosen edge is missing must be
    covered by some other edge, which can be swapped out without changing
    the matching size; repeating fixes every choice.
    """
    contacts = contact_set(tree)
    if set(pendant_choice.keys()) != set(contacts):
        raise InvalidChoiceError(
            f"pendant_choice keys {sorted(pendant_choice)} must equal the "
            f"contact set {list(contacts)}"
        )
    for v, u in pendant_choice.items():
        if u not in tree.adj[v] or u not in tree.boundary:
            raise InvalidChoiceError(
                f"vertex {u} is not a boundary neighbor of contact vertex {v}"
            )

    current = set(maximum_matching(tree).edges)
    size = len(current)
    for v in contacts:
        u = pendant_choice[v]
        chosen = (min(u, v), max(u, v))
        if chosen in current:
            continue
        covering = [e for e in current if v in e]
        if not covering:
            # would contradict maximality of the matching
            raise AssertionError(f"maximum matching leaves contact vertex {v} exposed")
        current.remove(covering[0])
        current.add(chosen)
    result = Matching(tuple(sorted(current)))
    assert len(result) == size and result.is_valid_for(tree)
    return result

