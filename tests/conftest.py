"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately independent of the production code paths it
is used to check: labeled trees come from Prufer sequences, matchings from
exponential subset search, isomorphism from permutation search.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from fktrees import ClassKey, from_edge_list, geodesic_path, contact_set
from fktrees.enumeration import _sequence_edges
from fktrees.errors import (
    DisconnectedInteriorError,
    EmptyInteriorError,
    InvalidBoundaryError,
    NotATreeError,
    PreconditionViolatedError,
    ResultNotTreeError,
)
from fktrees.spectral import zero_extension
from fktrees.transforms import EdgeRewrite
from fktrees.trees import (
    CanonicalCode,
    TreeWithBoundary,
    _bfs,
    _centers,
    _check_vertex,
    _vertex_code,
)


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


def predicted_trees(prediction):
    """The trees of a PredictedExtremal, labelled as _sequence_edges labels
    their level sequences."""
    return tuple(from_edge_list(len(seq), _sequence_edges(seq)) for seq in prediction.sequences)


def relabel(tree, perm):
    """The same tree with each vertex v renamed perm[v], boundary too."""
    edges = [(perm[u], perm[v]) for u, v in tree.edges]
    return from_edge_list(tree.n, edges, [perm[v] for v in tree.boundary])


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


# -- reference tree building, parsing and coding -------------------------------
# The straightforward versions, each edge checked against a set of the ones
# before it and each centre coded on its own.  The oracles of the one-pass
# from_edge_list, parse_edge_list_text and canonical_code: equal trees, or
# the same error type and message, and the same code bytes.

def reference_from_edge_list(n, edges, boundary=None):
    if not isinstance(n, int) or n < 2:
        raise NotATreeError(f"need an integer order n >= 2, got {n!r}")

    seen = set()
    adj_lists = [[] for _ in range(n)]
    count = 0
    for e in edges:
        u, v = e
        _check_vertex(u, n)
        _check_vertex(v, n)
        if u == v:
            raise NotATreeError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise NotATreeError(f"duplicate edge {key}")
        seen.add(key)
        adj_lists[u].append(v)
        adj_lists[v].append(u)
        count += 1
    if count != n - 1:
        raise NotATreeError(f"a tree on {n} vertices has {n - 1} edges, got {count}")

    if len(_bfs(adj_lists, [0])[0]) < n:
        raise NotATreeError("graph is disconnected")

    if boundary is None:
        bset = frozenset(v for v in range(n) if len(adj_lists[v]) == 1)
    else:
        bset = frozenset(_check_vertex(v, n) for v in boundary)
        if not bset:
            raise InvalidBoundaryError("boundary must be nonempty")
        interior = [v for v in range(n) if v not in bset]
        if len(_bfs(adj_lists, interior[:1], blocked=bset)[0]) < len(interior):
            raise DisconnectedInteriorError(
                f"interior {interior} induces a disconnected subgraph"
            )
    if len(bset) == n:
        raise EmptyInteriorError("boundary covers every vertex; interior is empty")

    adj = tuple(tuple(sorted(neigh)) for neigh in adj_lists)
    interior = tuple(v for v in range(n) if v not in bset)
    return TreeWithBoundary(n=n, edges=tuple(sorted(seen)), boundary=bset, adj=adj, interior=interior)


def reference_parse_edge_list_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise NotATreeError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise NotATreeError(f"first line must be the vertex count, got {lines[0]!r}")
    if len(lines) < n:
        raise NotATreeError(f"expected {n - 1} edge lines after the header")
    edges = []
    for ln in lines[1:n]:
        parts = ln.split()
        if len(parts) != 2:
            raise NotATreeError(f"edge line must be 'u v', got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    boundary = None
    rest = lines[n:]
    if rest:
        if len(rest) != 1 or not rest[0].startswith("B:"):
            raise NotATreeError(f"unexpected trailing content: {rest!r}")
        boundary = [int(tok) for tok in rest[0][2:].split()]
    return reference_from_edge_list(n, edges, boundary)


def _reference_rooted_code(tree, root):
    order, parent, _ = _bfs(tree.adj, [root])
    codes = {}
    for v in reversed(order):
        children = (codes[w] for w in tree.adj[v] if w != parent[v])
        codes[v] = _vertex_code(v in tree.boundary, children)
    return codes[root]


def reference_canonical_code(tree):
    cs = _centers(tree.adj)
    return CanonicalCode(min(_reference_rooted_code(tree, c) for c in cs))


# -- an independent oracle of the certificate stream ----------------------------
# Every tree of an order from networkx's nonisomorphic_trees; its matching
# number by leaf stripping and its diameter by a double BFS; its lambda1
# from a Dirichlet matrix built here, stacked eigvalsh calls per interior
# size; and the minimizers' codes from reference_canonical_code.  The trees
# stream past: an order is summed up per (m, b, D), and only trees that can
# still be minimizers are held.  Of the package it uses ClassKey, to name
# keys, and the reference coder's helpers.

# the key of each theorem a tree of order n with matching number m, b
# leaves and diameter D has, or None
ORACLE_THEOREM_KEYS = {
    "T13": lambda n, m, b, D: ClassKey("NM", n, m=m),
    "T14": lambda n, m, b, D: ClassKey("NMB", n, m=m, b=b),
    "Kloburstel": lambda n, m, b, D: ClassKey("NK", n, k=n - b),
    "D4": lambda n, m, b, D: ClassKey("ND", n, D=D) if D == 4 else None,
}

# the certificates the oracle test checks for each n_max it can run to: the
# four theorems' sweeps and every ND key
ORACLE_CHECKS = {
    5: 24, 6: 41, 7: 61, 8: 87, 9: 116, 10: 152, 11: 191, 12: 238, 13: 288,
    14: 347, 15: 409, 16: 481, 17: 556, 18: 642,
}


def pytest_addoption(parser):
    parser.addoption(
        "--oracle-n-max",
        type=int,
        default=14,
        choices=sorted(ORACLE_CHECKS),
        help="the largest order test_certificates_agree_with_an_independent_oracle "
        "checks (default 14; 18 takes about half a minute)",
    )


def _oracle_matching_number(adj):
    """Maximum matching of a tree: a leaf and its neighbour are in some
    maximum matching, so match them, delete both, and repeat."""
    degree = [len(a) for a in adj]
    alive = [True] * len(adj)
    leaves = [v for v, d in enumerate(degree) if d == 1]
    m = 0
    while leaves:
        v = leaves.pop()
        if not alive[v] or degree[v] != 1:
            continue
        (u,) = [w for w in adj[v] if alive[w]]
        alive[v] = alive[u] = False
        m += 1
        for w in adj[u]:
            if alive[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    return m


def _oracle_eccentricity(adj, source):
    """(the farthest vertex from source, its distance)."""
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    far = max(dist, key=dist.get)
    return far, dist[far]


def reference_keys(tree):
    """The NM, NMB, NK and ND keys of a tree on n >= 3 vertices with leaf
    boundary, from its adjacency alone: the matching number by leaf
    stripping and the diameter by a double BFS."""
    adj, n = tree.adj, tree.n
    b = sum(len(a) == 1 for a in adj)
    assert len(tree.boundary) == b and all(len(adj[v]) == 1 for v in tree.boundary)
    m = _oracle_matching_number(adj)
    far, _ = _oracle_eccentricity(adj, 0)
    D = _oracle_eccentricity(adj, far)[1]
    return [
        ClassKey("NM", n, m=m),
        ClassKey("NMB", n, m=m, b=b),
        ClassKey("NK", n, k=n - b),
        ClassKey("ND", n, D=D),
    ]


def _oracle_trees(n, group=1024):
    """(m, b, D, lambda1, adj) of each tree on n >= 3 vertices, leaves on
    the boundary, as a stream: the matrices of one interior size are solved
    in one stacked eigvalsh once `group` of them have gathered, or at the
    end, and then dropped."""
    import networkx as nx

    pending = {}  # interior size -> [(m, b, D, adj, matrix)]
    for graph in nx.nonisomorphic_trees(n):
        adj = [sorted(graph[v]) for v in range(n)]
        interior = [v for v in range(n) if len(adj[v]) > 1]
        index = {v: i for i, v in enumerate(interior)}
        mat = np.diag([float(len(adj[v])) for v in interior])
        for v in interior:
            for w in adj[v]:
                if w in index:
                    mat[index[v], index[w]] = -1.0
        far, _ = _oracle_eccentricity(adj, 0)
        D = _oracle_eccentricity(adj, far)[1]
        batch = pending.setdefault(len(interior), [])
        batch.append((_oracle_matching_number(adj), n - len(interior), D, adj, mat))
        if len(batch) == group:
            yield from _oracle_solved(pending.pop(len(interior)))
    for batch in pending.values():
        yield from _oracle_solved(batch)


def _oracle_solved(batch):
    lambdas = np.linalg.eigvalsh(np.stack([row[4] for row in batch]))[:, 0]
    for (m, b, D, adj, _), lam in zip(batch, lambdas.tolist()):
        yield m, b, D, lam, adj


@functools.cache
def _oracle_cells(n, tol):
    """{(m, b, D): (population, [(lambda1, adj), ...])} over the trees on n
    vertices, from one pass over _oracle_trees(n): each cell keeps only its
    trees within tol of its least lambda1 so far.  A key's minimizers are
    within tol of the least lambda1 of their own cell, which is no less
    than the key's, so these are all the trees a certificate can name."""
    cells = {}
    for m, b, D, lam, adj in _oracle_trees(n):
        cell = cells.setdefault((m, b, D), [0, math.inf, []])
        cell[0] += 1
        if lam < cell[1]:
            cell[1] = lam
            cell[2] = [(x, a) for x, a in cell[2] if x <= lam + tol]
        if lam <= cell[1] + tol:
            cell[2].append((lam, adj))
    return {cell: (count, kept) for cell, (count, _, kept) in cells.items()}


def oracle_certificates(key_of, n_max, tol):
    """{key: (population, lambda_min, minimizer codes)} for each key that
    key_of(n, m, b, D) gives some tree of order 3..n_max; the minimizers
    are the trees within tol of lambda_min, as sorted code texts."""
    members = {}  # key -> [population, the trees its cells kept]
    for n in range(3, n_max + 1):
        for (m, b, D), (count, kept) in _oracle_cells(n, tol).items():
            key = key_of(n, m, b, D)
            if key is not None:
                entry = members.setdefault(key, [0, []])
                entry[0] += count
                entry[1] += kept
    found = {}
    for key, (population, trees) in members.items():
        lambda_min = min(lam for lam, _ in trees)
        codes = [_oracle_code(adj) for lam, adj in trees if lam <= lambda_min + tol]
        found[key] = (population, lambda_min, tuple(sorted(codes)))
    return found


def _oracle_code(adj):
    """The canonical code text of a tree with its leaves on the boundary."""
    leaves = frozenset(v for v, a in enumerate(adj) if len(a) == 1)
    return reference_canonical_code(SimpleNamespace(adj=adj, boundary=leaves)).text


# -- reference JSON writer, edge rewrites and graph6 decoder ------------------
# The versions that wrote JSON into an accumulator list (here item by item,
# without the one-join arrays), rebuilt each rewrite from sorted edges, and
# decoded graph6 through a nested sextet helper.  The oracles of the one
# recursive dumps, the one rewrite routine and the one-pass from_graph6.

def _reference_float_repr(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    s = format(x, ".17g")
    if "e" not in s and "E" not in s and "." not in s:
        s += ".0"
    return s


def reference_dumps(obj):
    parts = []
    _reference_emit(obj, parts)
    return "".join(parts)


def _reference_emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_reference_float_repr(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _reference_emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _reference_emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def _reference_apply(tree, removed, inserted):
    edges = set(tree.edges)
    for e in removed:
        edges.discard(_norm(*e))
    for e in inserted:
        edges.add(_norm(*e))
    try:
        return from_edge_list(tree.n, sorted(edges), sorted(tree.boundary))
    except (DisconnectedInteriorError, EmptyInteriorError) as exc:
        raise PreconditionViolatedError(
            f"rewrite leaves an invalid interior: {exc}"
        ) from exc
    except Exception as exc:
        raise ResultNotTreeError(str(exc)) from exc


def reference_switching(tree, v1, v2, u1, u2, f=None):
    if v1 == v2 or tree.has_edge(v1, v2):
        raise PreconditionViolatedError(f"switching needs v1 !~ v2, got {v1}, {v2}")
    if not tree.has_edge(v1, u1):
        raise PreconditionViolatedError(f"v1u1 = ({v1}, {u1}) is not an edge")
    if not tree.has_edge(v2, u2):
        raise PreconditionViolatedError(f"v2u2 = ({v2}, {u2}) is not an edge")
    path = set(geodesic_path(tree, v1, v2))
    if u2 not in path:
        raise PreconditionViolatedError(f"u2 = {u2} is not on the v1-v2 path")
    if u1 in path:
        raise PreconditionViolatedError(f"u1 = {u1} lies on the v1-v2 path")
    removed = (_norm(v1, u1), _norm(v2, u2))
    inserted = (_norm(v1, v2), _norm(u1, u2))
    new_tree = _reference_apply(tree, removed, inserted)
    delta = None
    if f is not None:
        fh = zero_extension(tree, f)
        delta = 2.0 * (fh[v1] - fh[u2]) * (fh[u1] - fh[v2])
    return new_tree, EdgeRewrite("switching", removed, inserted, (v1, v2, u1, u2), delta)


def reference_shifting(tree, v1, v2, u, f=None):
    if v1 == v2:
        raise PreconditionViolatedError("shifting needs v1 != v2")
    if not tree.has_edge(u, v1):
        raise PreconditionViolatedError(f"uv1 = ({u}, {v1}) is not an edge")
    if u in set(geodesic_path(tree, v1, v2)):
        raise PreconditionViolatedError(f"u = {u} lies on the v1-v2 path")
    removed = (_norm(u, v1),)
    inserted = (_norm(u, v2),)
    new_tree = _reference_apply(tree, removed, inserted)
    delta = None
    if f is not None:
        fh = zero_extension(tree, f)
        delta = (fh[u] - fh[v2]) ** 2 - (fh[u] - fh[v1]) ** 2
    return new_tree, EdgeRewrite("shifting", removed, inserted, (v1, v2, u), delta)


def reference_jumping(tree, v1, v2, u, f=None):
    interior = set(tree.interior)
    if v1 not in interior or v2 not in interior:
        raise PreconditionViolatedError("jumping needs interior v1 and v2")
    if v1 == v2 or tree.has_edge(v1, v2):
        raise PreconditionViolatedError(f"jumping needs v1 !~ v2, got {v1}, {v2}")
    if not tree.has_edge(u, v1):
        raise PreconditionViolatedError(f"uv1 = ({u}, {v1}) is not an edge")
    if u not in set(geodesic_path(tree, v1, v2)):
        raise PreconditionViolatedError(f"u = {u} is not on the v1-v2 path")
    if u not in contact_set(tree):
        raise PreconditionViolatedError(f"u = {u} has no boundary neighbor")
    removed = (_norm(u, v1),)
    inserted = (_norm(v1, v2),)
    new_tree = _reference_apply(tree, removed, inserted)
    delta = None
    if f is not None:
        fh = zero_extension(tree, f)
        delta = (fh[u] - fh[v2]) * (2.0 * fh[v1] - fh[u] - fh[v2])
    return new_tree, EdgeRewrite("jumping", removed, inserted, (v1, v2, u), delta)


def reference_from_graph6(data):
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if data.startswith(b":") or data.startswith(b"&"):
        raise NotATreeError("sparse6/digraph6 input is not supported")
    if not data:
        raise NotATreeError("empty graph6 input")

    def sextets(raw):
        vals = []
        for byte in raw:
            if not 63 <= byte <= 126:
                raise NotATreeError(f"invalid graph6 byte {byte}")
            vals.append(byte - 63)
        return vals

    if data[0] == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            chunk, data = sextets(data[2:8]), data[8:]
        else:
            chunk, data = sextets(data[1:4]), data[4:]
        n = 0
        for c in chunk:
            n = (n << 6) | c
    else:
        n = data[0] - 63
        data = data[1:]

    bits_needed = n * (n - 1) // 2
    vals = sextets(data)
    if len(vals) * 6 < bits_needed:
        raise NotATreeError("graph6 input truncated")
    bits = []
    for c in vals:
        for k in range(5, -1, -1):
            bits.append((c >> k) & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return from_edge_list(n, edges)


def outcome(build, *args):
    """What a call does: ("ok", its result) or ("raises", the error's type
    and message)."""
    try:
        return "ok", build(*args)
    except Exception as exc:
        return "raises", (type(exc), str(exc))


@pytest.fixture
def rng():
    return random.Random(20260809)
