"""Tree construction, invariants, geodesics, canonical codes, text formats."""

import random

import pytest

import networkx as nx

from fktrees import (
    CanonicalCode,
    DisconnectedInteriorError,
    EmptyInteriorError,
    InvalidBoundaryError,
    InvalidVertexError,
    NotATreeError,
    TooSmallError,
    build_T,
    build_path,
    build_star,
    canonical_code,
    contact_set,
    diameter,
    free_trees,
    from_edge_list,
    from_graph6,
    format_edge_list_text,
    geodesic_path,
    inscribed_radius,
    invariants,
    parse_edge_list_text,
    relabel,
)
from conftest import brute_force_isomorphic, random_tree


# -- construction -------------------------------------------------------------

def test_two_vertex_tree_has_empty_interior():
    with pytest.raises(EmptyInteriorError):
        from_edge_list(2, [(0, 1)])


def test_path_boundary_is_the_two_endpoints():
    t = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert sorted(t.boundary) == [0, 3]
    assert t.interior == (1, 2)


def test_star_boundary_is_every_leaf():
    t = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert sorted(t.boundary) == [1, 2, 3, 4]
    assert t.interior == (0,)


def test_cycle_is_rejected():
    with pytest.raises(NotATreeError):
        from_edge_list(3, [(0, 1), (1, 2), (2, 0)])


def test_disconnected_is_rejected():
    with pytest.raises(NotATreeError):
        from_edge_list(4, [(0, 1), (2, 3), (2, 3)])
    with pytest.raises(NotATreeError):
        from_edge_list(5, [(0, 1), (1, 2), (3, 4)])


def test_out_of_range_vertex():
    with pytest.raises(InvalidVertexError):
        from_edge_list(3, [(0, 1), (1, 3)])


def test_explicit_boundary_validation():
    path = [(i, i + 1) for i in range(4)]
    t = from_edge_list(5, path, boundary=[0, 4])
    assert t.interior == (1, 2, 3)
    # demoting the middle vertex cuts the interior in two
    with pytest.raises(DisconnectedInteriorError):
        from_edge_list(5, path, boundary=[0, 2, 4])
    with pytest.raises(InvalidBoundaryError):
        from_edge_list(5, path, boundary=[])
    with pytest.raises(EmptyInteriorError):
        from_edge_list(5, path, boundary=[0, 1, 2, 3, 4])


def test_every_tree_has_n_minus_1_edges_and_is_connected(rng):
    for _ in range(50):
        t = random_tree(rng, rng.randrange(3, 12))
        assert len(t.edges) == t.n - 1
        assert len(geodesic_path(t, 0, t.n - 1)) >= 1


def test_interior_induces_connected_subtree(rng):
    # BFS restricted to the interior must reach every interior vertex
    for _ in range(50):
        t = random_tree(rng, rng.randrange(3, 12))
        interior = set(t.interior)
        start = t.interior[0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in t.neighbors(x):
                if y in interior and y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen == interior


# -- invariants ---------------------------------------------------------------

def test_path6_invariants():
    inv = invariants(build_path(6))
    assert (inv.n, inv.m, inv.b, inv.D, inv.r, inv.contact, inv.t) == (
        6, 3, 2, 5, 2, 2, 2,
    )


def test_T323_invariants():
    inv = invariants(build_T(3, 2, 3))
    assert (inv.n, inv.m, inv.b, inv.D, inv.t) == (8, 3, 3, 6, 1)


def test_star_invariants():
    for n in (4, 6, 9):
        inv = invariants(build_star(n))
        assert (inv.m, inv.b, inv.D, inv.r, inv.t) == (1, n - 1, 2, 1, 1)


def test_invariants_need_leaf_boundary():
    t = from_edge_list(5, [(i, i + 1) for i in range(4)], boundary=[0, 4, 3])
    with pytest.raises(InvalidBoundaryError):
        invariants(t)


def test_t_range_on_all_small_trees():
    for n in range(3, 10):
        for t in free_trees(n):
            inv = invariants(t)
            assert 1 <= inv.t <= min(inv.b, inv.m)
            assert inv.contact >= inv.t


# -- geodesics ----------------------------------------------------------------

def test_geodesic_trivial_and_endpoints():
    t = build_path(5)
    assert geodesic_path(t, 2, 2) == (2,)
    assert geodesic_path(t, 0, 4) == (0, 1, 2, 3, 4)


def test_has_edge_rejects_out_of_range_vertices():
    for n in range(3, 8):
        for t in free_trees(n):
            w = t.adj[n - 1][0]
            assert t.has_edge(n - 1, w) and t.has_edge(w, n - 1)
            # a negative id must not wrap around to vertex n - 1
            assert not t.has_edge(-1, w)
            assert not t.has_edge(n, 0)


def test_centers_are_the_minimum_eccentricity_vertices():
    from fktrees.trees import _centers

    for n in range(3, 11):
        for t in free_trees(n):
            # all-pairs distances by Floyd-Warshall, independent of the BFS
            d = [[0 if i == j else n for j in range(n)] for i in range(n)]
            for u, v in t.edges:
                d[u][v] = d[v][u] = 1
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
            ecc = [max(row) for row in d]
            assert _centers(t.adj) == [v for v in range(n) if ecc[v] == min(ecc)]


def test_geodesic_in_T323_realizes_diameter():
    t = build_T(3, 2, 3)
    # pendant at u1 is vertex 5; pendants at u5 are 6 and 7
    path = geodesic_path(t, 5, 6)
    assert len(path) - 1 == 6 == diameter(t)


def test_inscribed_radius_matches_definition(rng):
    from fktrees.trees import bfs_distances

    for _ in range(25):
        t = random_tree(rng, rng.randrange(3, 11))
        want = max(
            min(bfs_distances(t, v)[b] for b in t.boundary) for v in range(t.n)
        )
        assert inscribed_radius(t) == want


# -- canonical codes ----------------------------------------------------------

def test_code_equal_under_relabeling(rng):
    for _ in range(40):
        t = random_tree(rng, rng.randrange(3, 11))
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_code(t) == canonical_code(relabel(t, perm))


def test_distinct_trees_have_distinct_codes():
    assert canonical_code(build_path(5)) != canonical_code(build_star(5))


def test_code_respects_boundary():
    # same underlying path, different explicit boundaries
    edges = [(i, i + 1) for i in range(4)]
    t1 = from_edge_list(5, edges, boundary=[0, 4])
    t2 = from_edge_list(5, edges, boundary=[0, 4, 1])
    assert canonical_code(t1) != canonical_code(t2)


def test_code_equality_matches_permutation_oracle():
    # exhaustive over all pairs of trees on <= 7 vertices
    pool = [t for n in range(3, 8) for t in free_trees(n)]
    for i, t1 in enumerate(pool):
        for t2 in pool[i:]:
            same_code = canonical_code(t1) == canonical_code(t2)
            assert same_code == brute_force_isomorphic(t1, t2)


def test_code_equality_matches_permutation_oracle_n8(rng):
    # at n = 8 the full pair matrix is too slow for every permutation, so
    # check every tree against a random relabeling of itself plus a sample
    # of distinct-code pairs
    pool = list(free_trees(8))
    for t in pool:
        perm = list(range(8))
        rng.shuffle(perm)
        shuffled = relabel(t, perm)
        assert canonical_code(shuffled) == canonical_code(t)
        assert brute_force_isomorphic(t, shuffled)
    for _ in range(25):
        t1, t2 = rng.sample(pool, 2)
        assert canonical_code(t1) != canonical_code(t2)
        assert not brute_force_isomorphic(t1, t2)


def test_codes_are_ordered_bytes():
    c = canonical_code(build_path(4))
    assert isinstance(c, CanonicalCode) and isinstance(c.code, bytes)
    assert c.text == c.code.decode("ascii")


# -- text formats ---------------------------------------------------------------

def test_edge_list_round_trip():
    t = build_T(3, 2, 3)
    text = format_edge_list_text(t)
    assert text.splitlines()[0] == "8"
    back = parse_edge_list_text(text)
    assert back == t


def test_edge_list_explicit_boundary_round_trip():
    t = from_edge_list(5, [(i, i + 1) for i in range(4)], boundary=[0, 3, 4])
    back = parse_edge_list_text(format_edge_list_text(t))
    assert back.boundary == t.boundary


def test_edge_list_rejects_garbage():
    with pytest.raises(NotATreeError):
        parse_edge_list_text("")
    with pytest.raises(NotATreeError):
        parse_edge_list_text("3\n0 1\n1 2\nextra stuff\n")
    with pytest.raises(NotATreeError):
        parse_edge_list_text("x\n")


def test_graph6_matches_networkx_oracle(rng):
    for _ in range(30):
        n = rng.randrange(3, 12)
        t = random_tree(rng, n)
        g = nx.Graph()
        g.add_nodes_from(range(n))  # node order fixes the graph6 labeling
        g.add_edges_from(t.edges)
        data = nx.to_graph6_bytes(g, header=False).strip()
        parsed = from_graph6(data)
        assert parsed.n == n and set(parsed.edges) == set(t.edges)
    # with header
    g = nx.path_graph(5)
    assert from_graph6(nx.to_graph6_bytes(g)).n == 5


def test_graph6_rejects_non_trees_and_sparse6():
    g = nx.cycle_graph(4)
    with pytest.raises(NotATreeError):
        from_graph6(nx.to_graph6_bytes(g, header=False))
    with pytest.raises(NotATreeError):
        from_graph6(b":Fa@x^")


def test_invariants_too_small():
    t = from_edge_list(3, [(0, 1), (1, 2)])
    assert invariants(t).n == 3
    with pytest.raises(TooSmallError):
        invariants(from_edge_list(2, [(0, 1)], boundary=[0]))


def test_contact_set_examples():
    assert contact_set(build_star(5)) == (0,)
    assert contact_set(build_path(6)) == (1, 4)
