"""Tree construction, invariants, geodesics, canonical codes, text formats."""

import enum
import itertools
import random
import tracemalloc

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
)
from fktrees.trees import _bfs, _centers
from conftest import (
    brute_force_isomorphic,
    outcome,
    prufer_to_edges,
    random_tree,
    relabel,
    reference_canonical_code,
    reference_from_edge_list,
    reference_from_graph6,
    reference_parse_edge_list_text,
)


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


class _Id(enum.IntEnum):
    ONE = 1
    TWO = 2


_PER_EDGE_FAULTS = {"range", "bool", "enum-out", "float", "loop", "triple", "single", "scalar"}


def _fuzzed_edges(rng):
    """(n, edges, boundary, mutations): a random tree's edge list with up to
    three mutations at random places, and at times an explicit boundary."""
    n = rng.randrange(2, 11)
    pairs = prufer_to_edges([rng.randrange(n) for _ in range(n - 2)], n) if n > 2 else [(0, 1)]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    rng.shuffle(edges)
    mutations = []
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind = rng.choice([
            "range", "bool", "enum", "enum-out", "float", "loop", "dup", "dup", "drop",
            "extra", "flood", "triple", "single", "scalar", "order",
        ])
        mutations.append(kind)
        at = rng.randrange(len(edges) + 1)
        u, v = rng.randrange(n), rng.randrange(n)
        if kind == "range":
            bad = rng.choice([n, n + 3, -1, -n, 10**30])
            edges.insert(at, (bad, v) if rng.random() < 0.5 else (u, bad))
        elif kind == "bool":
            edges.insert(at, (rng.choice([True, False]), v))
        elif kind in ("enum", "enum-out"):
            other = rng.randrange(3, n) if n > 3 and kind == "enum" else rng.randrange(n)
            edges.insert(at, (_Id.ONE if kind == "enum" else _Id.TWO, other))
        elif kind == "float":
            edges.insert(at, (float(u), v))
        elif kind == "loop":
            edges.insert(at, (u, u))
        elif kind == "dup":
            a, b = rng.choice([e for e in edges if isinstance(e, tuple) and len(e) == 2] or pairs)
            edges.insert(at, (b, a) if rng.random() < 0.5 else (a, b))
        elif kind == "drop" and edges:
            del edges[rng.randrange(len(edges))]
        elif kind == "extra":
            edges.insert(at, (u, v if v != u else (u + 1) % n))
        elif kind == "flood":
            edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n + rng.randrange(2 * n))]
        elif kind == "triple":
            edges.insert(at, (u, v, 0))
        elif kind == "single":
            edges.insert(at, (u,))
        elif kind == "scalar":
            edges.insert(at, u)
        elif kind == "order":
            n += rng.choice([-1, 1])
    boundary = None
    if rng.random() < 0.3:
        boundary = rng.sample(range(n + 1), rng.randrange(min(n + 1, 5)))
        if rng.random() < 0.2:
            boundary.append(rng.choice([True, -1, n + 2]))
    return n, edges, boundary, mutations


def _edge_forms(edges, rng):
    """A factory of the same edges as a list of tuples, a list of lists, a
    tuple or a generator: a fresh iterable on each call."""
    form = rng.randrange(4)
    if form == 1:
        edges = [list(e) if isinstance(e, tuple) else e for e in edges]
    if form == 2:
        return lambda: tuple(edges)
    if form == 3:
        return lambda: (e for e in edges)
    return lambda: list(edges)


def test_from_edge_list_matches_the_reference():
    rng = random.Random(2107)
    messages, precedence = {}, set()
    for _ in range(4000):
        n, edges, boundary, mutations = _fuzzed_edges(rng)
        make = _edge_forms(edges, rng)
        want = outcome(reference_from_edge_list, n, make(), boundary)
        got = outcome(from_edge_list, n, make(), boundary)
        assert got[0] == want[0], (n, edges, boundary, got, want)
        if want[0] == "raises":
            assert got == want, (n, edges, boundary)
            prefix = want[1][1].split(" ")[0]
            messages[prefix] = messages.get(prefix, 0) + 1
            faults = _PER_EDGE_FAULTS.intersection(mutations)
            if "dup" in mutations and faults:
                precedence.add("duplicate first" if want[1][1].startswith("duplicate") else "fault first")
        else:
            tree, ref = got[1], want[1]
            assert tree == ref and tree.adj == ref.adj
            assert tree.edges == ref.edges and tree.boundary == ref.boundary
            assert tree.interior == ref.interior
            messages["ok"] = messages.get("ok", 0) + 1
    # every error of from_edge_list, and a duplicate both before and after
    # another fault of the same list
    for prefix in ("ok", "vertex", "self-loop", "duplicate", "a", "graph", "need", "boundary",
                   "interior", "too", "not", "cannot"):
        assert messages.get(prefix, 0) >= 10, (prefix, messages)
    assert precedence == {"duplicate first", "fault first"}


def test_a_repeated_edge_ends_a_long_edge_stream():
    # the edges of K4 over and over: n edges are no tree, and the reading
    # stops at the first repeat, as a check against all earlier edges does
    k4 = list(itertools.combinations(range(4), 2))
    for n, stream in ((3, lambda: itertools.repeat((0, 1))), (4, lambda: itertools.cycle(k4))):
        want = outcome(reference_from_edge_list, n, stream())
        assert outcome(from_edge_list, n, stream()) == want
        assert want[1][1].startswith("duplicate edge")


def test_edge_count_is_checked_before_allocating_vertices():
    tracemalloc.start()
    try:
        with pytest.raises(NotATreeError, match="has 999999999 edges, got 1"):
            from_edge_list(10**9, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_interior_is_computed_once():
    t = build_T(3, 2, 3)
    assert t.interior is t.interior
    assert t.interior == tuple(v for v in range(t.n) if v not in t.boundary)


def test_a_built_tree_holds_one_int_object_per_vertex():
    # ids past the small-int cache, parsed afresh on every line: the tree
    # keeps one object per vertex, whichever list of edges named it
    n = 1000
    tree = parse_edge_list_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    objects = {id(v) for v in tree.interior}
    objects.update(id(v) for neigh in tree.adj for v in neigh)
    objects.update(id(v) for edge in tree.edges for v in edge)
    objects.update(id(v) for v in tree.boundary)
    assert len(objects) == n


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
        assert (inv.m, inv.b, inv.D, inv.r, inv.contact, inv.t) == (1, n - 1, 2, 1, 1, 1)


def test_invariants_need_leaf_boundary():
    t = from_edge_list(5, [(i, i + 1) for i in range(4)], boundary=[0, 4, 3])
    with pytest.raises(InvalidBoundaryError):
        invariants(t)


def test_t_range_on_all_small_trees():
    # the counting bounds: t >= 1 (n <= 2m + b - 1), t <= min(b, m), contact >= t
    for n in range(3, 13):
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
    for _ in range(25):
        t = random_tree(rng, rng.randrange(3, 11))
        want = max(
            min(_bfs(t.adj, [v])[2][b] for b in t.boundary) for v in range(t.n)
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


def _random_boundary_tree(rng, n):
    """A random tree on n vertices, with its leaves as the boundary or with
    some interior vertices added to it where the interior stays connected."""
    tree = random_tree(rng, n)
    if rng.random() < 0.5:
        extra = rng.sample(tree.interior, rng.randrange(len(tree.interior)))
        got = outcome(from_edge_list, n, tree.edges, [*tree.boundary, *extra])
        if got[0] == "ok":
            return got[1]
    return tree


def test_canonical_code_matches_the_reference():
    rng = random.Random(21)
    centres = {1: 0, 2: 0}
    for _ in range(1500):
        tree = _random_boundary_tree(rng, rng.randrange(3, 40))
        centres[len(_centers(tree.adj))] += 1
        assert canonical_code(tree) == reference_canonical_code(tree)
    for tree in (build_path(2000), build_path(2001), build_T(40, 3, 50)):
        assert canonical_code(tree) == reference_canonical_code(tree)
    assert min(centres.values()) >= 500, centres


def test_canonical_code_memory_is_linear_on_a_long_path():
    # the codes held at once are of disjoint subtrees; keeping every
    # vertex's code until the root's took 288 MB here
    path = build_path(20_001)
    tracemalloc.start()
    try:
        code = canonical_code(path).code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arm = b"(0" * 9_999 + b"(1)" + b")" * 9_999  # from the centre to a leaf
    assert code == b"(0" + arm + arm + b")"
    assert peak < 20 * 2**20


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


def _fuzzed_edge_text(rng):
    """A random tree's edge-list text with up to two mutations: blank and
    padded lines, bad token counts, bad numbers, bad headers, missing or
    extra lines, and B: lines good and bad."""
    n = rng.randrange(3, 9)
    tree = random_tree(rng, n)
    lines = [str(n)] + [f"{u} {v}" for u, v in tree.edges]
    if rng.random() < 0.3:
        lines.append("B: " + " ".join(map(str, sorted(tree.boundary))))
    for _ in range(rng.choice([0, 1, 1, 2])):
        at = rng.randrange(len(lines) + 1)
        kind = rng.randrange(12)
        if kind == 0:
            lines.insert(at, rng.choice(["", "   ", "\t"]))
        elif kind == 1 and at < len(lines):
            lines[at] = "  " + lines[at].replace(" ", rng.choice(["  ", "\t", " \t "])) + " "
        elif kind == 2:
            lines.insert(at, rng.choice(["1", "1 2 3", "4 5 6 7"]))
        elif kind == 3:
            lines.insert(at, rng.choice(["x y", "1 y", "1.5 2", "0x1 2", "1 -"]))
        elif kind == 4:
            lines[0] = rng.choice(["x", "3.0", "-1", "0", "1", str(n + 1), str(n - 1), "  "])
        elif kind == 5 and len(lines) > 1:
            del lines[rng.randrange(1, len(lines))]
        elif kind == 6:
            lines.append(rng.choice(["trailing", "B: 0", "B:", "B: x", "B: 0 99"]))
        elif kind == 7:
            lines.insert(at, f"{rng.randrange(n)} {rng.randrange(n)}")
        elif kind == 8:
            lines.append("B: " + " ".join(str(rng.randrange(n)) for _ in range(rng.randrange(1, n))))
    sep = rng.choice(["\n", "\r\n"])
    return sep.join(lines) + rng.choice(["", "\n", "\n\n"])


def test_parse_edge_list_text_matches_the_reference():
    rng = random.Random(7)
    kinds = {}
    for _ in range(3000):
        text = _fuzzed_edge_text(rng)
        want = outcome(reference_parse_edge_list_text, text)
        got = outcome(parse_edge_list_text, text)
        assert got[0] == want[0], (text, got, want)
        if want[0] == "raises":
            assert got == want, text
            key = want[1][0].__name__ + ":" + want[1][1].split(" ")[0]
        else:
            assert got[1] == want[1] and got[1].adj == want[1].adj
            key = "ok"
        kinds[key] = kinds.get(key, 0) + 1
    for key in ("ok", "NotATreeError:edge", "NotATreeError:first", "NotATreeError:expected",
                "NotATreeError:unexpected", "ValueError:invalid", "InvalidVertexError:vertex"):
        assert kinds.get(key, 0) >= 10, (key, kinds)


def test_parsing_frees_the_lines_before_building_the_tree():
    # a 50,000-vertex path's tree holds 8.1 MiB; with its text's lines
    # alive while the tree was built, parsing peaked at 2.85 times that
    text = format_edge_list_text(build_path(50_000))
    tracemalloc.start()
    try:
        tree = parse_edge_list_text(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.n == 50_000
    assert peak <= 2.7 * held


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


def test_graph6_checks_the_size_byte():
    for data, byte in ((b"!", 33), (b"!" + b"?" * 80, 33), (bytes([127]), 127)):
        with pytest.raises(NotATreeError, match=f"^invalid graph6 byte {byte}$"):
            from_graph6(data)


def _graph6(n, edges, form):
    """graph6 bytes of a graph, its order written in one, 1 + 3 or 2 + 6
    size bytes (the longer forms are valid for a small n too)."""
    width = {"short": 1, "long3": 3, "long6": 6}[form]
    size = [(n >> (6 * k)) & 63 for k in reversed(range(width))]
    bits = [(i, j) in edges for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = [sum(b << (5 - k) for k, b in enumerate(bits[i : i + 6])) for i in range(0, len(bits), 6)]
    prefix = {"short": [], "long3": [63], "long6": [63, 63]}[form]
    return bytes(c + 63 for c in prefix + size + body)


def _fuzzed_graph6(rng):
    """A random tree's or graph's graph6 bytes with up to two mutations:
    a byte replaced (size bytes too), a bit flipped, the input cut short or
    lengthened; sometimes with the header, padding, as str, or empty or
    sparse6 input."""
    n = rng.randrange(70)
    if n >= 3 and rng.random() < 0.7:
        edges = set(random_tree(rng, n).edges)
    else:
        edges = {(i, j) for j in range(1, n) for i in range(j) if rng.random() < 3 / n}
    form = rng.choice(["long3", "long6"] + ["short"] * 4 * (n < 63))
    data = bytearray(_graph6(n, edges, form))
    for _ in range(rng.choice([0, 1, 1, 2])):
        kind = rng.randrange(4)
        if kind == 0 and data:
            data[rng.randrange(len(data))] = rng.choice([rng.randrange(256), rng.randrange(63, 127)])
        elif kind == 1 and data:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(6)
        elif kind == 2:
            del data[rng.randrange(len(data) + 1) :]
        else:
            data += bytes(rng.randrange(63, 127) for _ in range(rng.randrange(1, 4)))
    data = bytes(data)
    roll = rng.random()
    if roll < 0.1:
        data = b">>graph6<<" + data
    elif roll < 0.2:
        data = b" \n" + data + b"\n"
    elif roll < 0.3:
        data = data.decode("latin-1")
    elif roll < 0.33:
        data = rng.choice([b"", b"  ", b">>graph6<<", b":Fa@x^", b"&C?", b"~", b"~~"])
    return data


def _size_byte(data):
    """The first byte from_graph6 reads n from, None where it stops earlier."""
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    data = data.strip().removeprefix(b">>graph6<<")
    if not data or data[:1] in (b":", b"&"):
        return None
    return data[0]


def test_from_graph6_matches_the_reference():
    # inputs whose size byte is out of range are left out: they raise
    # "invalid graph6 byte" now, and read a wrong n in the reference
    rng = random.Random(6)
    kinds = {}
    for _ in range(4000):
        data = _fuzzed_graph6(rng)
        if _size_byte(data) is not None and not 63 <= _size_byte(data) <= 126:
            continue
        want = outcome(reference_from_graph6, data)
        got = outcome(from_graph6, data)
        assert got[0] == want[0], (data, got, want)
        if want[0] == "raises":
            assert got == want, data
            key = f"{want[1][0].__name__}:{want[1][1].split()[0]}"
        else:
            assert got[1] == want[1] and got[1].adj == want[1].adj, data
            key = "ok"
        kinds[key] = kinds.get(key, 0) + 1
    for key in ("ok", "NotATreeError:invalid", "NotATreeError:graph6", "NotATreeError:a",
                "NotATreeError:graph", "NotATreeError:need", "NotATreeError:empty",
                "NotATreeError:sparse6/digraph6", "UnicodeEncodeError:'ascii'"):
        assert kinds.get(key, 0) >= 10, (key, kinds)


def test_invariants_too_small():
    t = from_edge_list(3, [(0, 1), (1, 2)])
    assert invariants(t).n == 3
    with pytest.raises(TooSmallError):
        invariants(from_edge_list(2, [(0, 1)], boundary=[0]))


def test_contact_set_examples():
    assert contact_set(build_star(5)) == (0,)
    assert contact_set(build_path(6)) == (1, 4)
