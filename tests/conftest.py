"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately independent of the production code paths it
is used to check: labeled trees come from Prufer sequences, matchings from
exponential subset search, isomorphism from permutation search.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest

from fktrees import from_edge_list, geodesic_path, contact_set


def prufer_to_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over {0..n-1} (length n-2) into tree edges."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    heap = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return edges


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices, as edge lists (n^(n-2) of them)."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_to_edges(list(seq), n)


def random_tree(rng: random.Random, n: int):
    """Uniform random labeled tree with leaf boundary."""
    if n == 3:
        return from_edge_list(3, [(0, 1), (1, 2)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return from_edge_list(n, prufer_to_edges(seq, n))


def spine_with_random_leaves(k: int, rng: random.Random):
    """A spine 0..k-1 whose vertices get 0-2 random pendant leaves, and the
    two ends one more: a shape whose ground state localizes."""
    edges, n = [(i, i + 1) for i in range(k - 1)], k
    for v in range(k):
        for _ in range((v in (0, k - 1)) + rng.randrange(3)):
            edges.append((v, n))
            n += 1
    return from_edge_list(n, edges)


def brute_force_max_disjoint(edges) -> int:
    """Max size of a vertex-disjoint subset of the given edges (exponential)."""
    edges = list(edges)
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for sub in itertools.combinations(edges, r):
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = r
                break
    return best


def brute_force_matching_number(tree) -> int:
    """Max matching size of a tree by exponential subset search."""
    return brute_force_max_disjoint(tree.edges)


def brute_force_isomorphic(t1, t2) -> bool:
    """Boundary-respecting isomorphism by trying every vertex permutation."""
    if t1.n != t2.n or len(t1.boundary) != len(t2.boundary):
        return False
    e2 = set(t2.edges)
    for perm in itertools.permutations(range(t1.n)):
        if {perm[v] for v in t1.boundary} != t2.boundary:
            continue
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in t1.edges}
        if mapped == e2:
            return True
    return False


# -- admissible move enumeration (structural hypotheses only) ----------------

def switch_moves(tree):
    """All (v1, v2, u1, u2) satisfying the switching hypotheses."""
    moves = []
    for v1 in range(tree.n):
        for v2 in range(tree.n):
            if v1 == v2 or tree.has_edge(v1, v2):
                continue
            path = geodesic_path(tree, v1, v2)
            u2 = path[-2]
            on_path = set(path)
            for u1 in tree.neighbors(v1):
                if u1 not in on_path:
                    moves.append((v1, v2, u1, u2))
    return moves


def shift_moves(tree):
    """All (v1, v2, u) satisfying the shifting hypotheses (validity of the
    carried-over boundary is checked at application time)."""
    moves = []
    for v1 in range(tree.n):
        for v2 in range(tree.n):
            if v1 == v2:
                continue
            on_path = set(geodesic_path(tree, v1, v2))
            for u in tree.neighbors(v1):
                if u not in on_path:
                    moves.append((v1, v2, u))
    return moves


def jump_moves(tree):
    """All (v1, v2, u) satisfying the jumping hypotheses; u is forced to be
    v1's neighbor on the v1-v2 path."""
    interior = set(tree.interior)
    contacts = set(contact_set(tree))
    moves = []
    for v1 in interior:
        for v2 in interior:
            if v1 == v2 or tree.has_edge(v1, v2):
                continue
            u = geodesic_path(tree, v1, v2)[1]
            if u in contacts:
                moves.append((v1, v2, u))
    return moves


@pytest.fixture
def rng():
    return random.Random(20260809)
