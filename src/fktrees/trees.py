"""Finite trees with a designated boundary set.

A tree with boundary is a pair (T, B) where B is a nonempty proper subset of
the vertices; the interior is Omega = V \\ B.  By default B is the set of
leaves (degree-1 vertices), which is the convention used throughout the
extremal results this package verifies.  Explicit boundary overrides are
accepted as long as the interior stays nonempty and induces a connected
subgraph, since everything downstream (positivity and simplicity of the
ground state) relies on interior connectivity.

Vertices are dense 0-indexed integers.  Adjacency is stored as sorted
neighbor tuples so that iteration order, canonical codes, and every derived
report are reproducible byte for byte.  All types are immutable after
construction and every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    DisconnectedInteriorError,
    EmptyInteriorError,
    InvalidBoundaryError,
    InvalidVertexError,
    NotATreeError,
    TooSmallError,
)

__all__ = [
    "TreeWithBoundary",
    "TreeInvariants",
    "CanonicalCode",
    "from_edge_list",
    "invariants",
    "geodesic_path",
    "canonical_code",
    "contact_set",
    "diameter",
    "inscribed_radius",
    "parse_edge_list_text",
    "format_edge_list_text",
    "from_graph6",
]


@dataclass(frozen=True)
class TreeWithBoundary:
    """Immutable tree on ``n`` vertices with boundary set ``boundary``.

    ``edges`` is a lexicographically sorted tuple of (u, v) pairs with u < v.
    ``adj`` holds sorted neighbor tuples and ``interior`` the ascending
    vertices off the boundary; both are derived data (excluded from
    equality).  Use :func:`from_edge_list` to construct validated instances.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    boundary: frozenset[int]
    adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    interior: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if len(self.adj[v]) == 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        # only vertex ids: a negative u would wrap around adj, and a float,
        # bool or numpy int equal to a vertex would pass as one
        return _is_vertex(u, self.n) and _is_vertex(v, self.n) and v in self.adj[u]


@dataclass(frozen=True)
class TreeInvariants:
    """Classification key of a tree with leaf boundary.

    n: order; m: matching number; b: leaf count; D: diameter;
    r: inscribed radius (max distance of any vertex to the boundary);
    contact: number of interior vertices adjacent to the boundary;
    t: 2m + b - n, the deficiency parameter splitting the extremal cases.
    """

    n: int
    m: int
    b: int
    D: int
    r: int
    contact: int
    t: int


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Byte string identifying the boundary-respecting isomorphism class.

    Two trees have equal codes iff some isomorphism maps one onto the other
    carrying boundary to boundary.
    """

    code: bytes

    @property
    def text(self) -> str:
        return self.code.decode("ascii")


def _is_vertex(v, n: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _check_vertex(v, n: int) -> int:
    if not _is_vertex(v, n):
        raise InvalidVertexError(f"vertex {v!r} not in range 0..{n - 1}")
    return v


def from_edge_list(
    n: int,
    edges: Iterable[Sequence[int]],
    boundary: Iterable[int] | None = None,
) -> TreeWithBoundary:
    """Build a validated tree with boundary from an edge list.

    If ``boundary`` is omitted every degree-1 vertex becomes a boundary
    vertex.  Raises NotATreeError for cycles/multi-edges/disconnection,
    InvalidVertexError for out-of-range ids, EmptyInteriorError when the
    boundary covers everything (e.g. the 2-vertex path with leaf boundary),
    and DisconnectedInteriorError when an explicit boundary disconnects the
    interior.
    """
    if not isinstance(n, int) or n < 2:
        raise NotATreeError(f"need an integer order n >= 2, got {n!r}")

    ends = _edge_ends(n, edges)
    count = len(ends) // 2
    # a repeated edge fails one of the next two tests, and is the error
    # to report, so it is looked for only when one fails
    if count != n - 1:
        _raise_repeat(ends)
        raise NotATreeError(f"a tree on {n} vertices has {n - 1} edges, got {count}")
    ids = list(range(n))  # one int object per vertex, for every field of the tree
    adj_lists: list[list[int]] = [[] for _ in ids]
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        adj_lists[u].append(ids[v])
        adj_lists[v].append(ids[u])
    # connectivity: n-1 edges + connected <=> tree
    if len(_bfs(adj_lists, [0])[0]) < n:
        _raise_repeat(ends)
        raise NotATreeError("graph is disconnected")

    if boundary is None:
        bset = frozenset([v for v, neigh in zip(ids, adj_lists) if len(neigh) == 1])
    else:
        bset = frozenset(_check_vertex(v, n) for v in boundary)
        if not bset:
            raise InvalidBoundaryError("boundary must be nonempty")
    interior = [v for v in ids if v not in bset]
    # an explicit interior must induce a connected subgraph; deleting the
    # leaves of a tree with n >= 3 leaves a tree, so the default one does
    # (n = 2 fails the emptiness check)
    if boundary is not None and len(_bfs(adj_lists, interior[:1], blocked=bset)[0]) < len(interior):
        raise DisconnectedInteriorError(
            f"interior {interior} induces a disconnected subgraph"
        )
    if not interior:
        raise EmptyInteriorError("boundary covers every vertex; interior is empty")

    for neigh in adj_lists:
        neigh.sort()
    # sorted neighbours list each edge (u, v), u < v, in lexicographic order
    sorted_edges = tuple([(u, v) for u, neigh in zip(ids, adj_lists) for v in neigh if u < v])
    return TreeWithBoundary(
        n=n,
        edges=sorted_edges,
        boundary=bset,
        adj=tuple(map(tuple, adj_lists)),
        interior=tuple(interior),
    )


def _edge_ends(n: int, edges: Iterable[Sequence[int]]) -> list[int]:
    """The ends u0, v0, u1, v1, ... of the edges, each edge checked as it
    is read: InvalidVertexError for an id out of 0..n-1, NotATreeError for
    a self-loop, and the error of unpacking anything but a pair.  The first
    repeated edge read before a fault is the error raised instead, as a
    check of each edge against the ones before it would find.

    Past n - 1 edges the list is no tree's, so a repeat is looked for then
    and at every doubling of the count: a first repeat at edge p > n stops
    the reading by edge 2p, and one at p <= n by edge n.
    """
    ends: list[int] = []
    look_back = 2 * n
    for e in edges:
        try:
            u, v = e
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                _check_vertex(u, n)  # True, an int subclass, or the id out of range
                _check_vertex(v, n)
            if u == v:
                raise NotATreeError(f"self-loop at vertex {u}")
        except Exception:  # whatever the fault, a repeat before it comes first
            _raise_repeat(ends)
            raise
        ends.append(u)
        ends.append(v)
        if len(ends) == look_back:
            look_back *= 2
            _raise_repeat(ends)
    return ends


def _raise_repeat(ends: Sequence[int]) -> None:
    """Raise NotATreeError for the first edge of ends (as _edge_ends lists
    them) that repeats an earlier one; return if none does."""
    seen: set[tuple[int, int]] = set()
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise NotATreeError(f"duplicate edge {key}") from None
        seen.add(key)


def _bfs(
    adj: Sequence[Sequence[int]],
    sources: Iterable[int],
    blocked: frozenset[int] = frozenset(),
) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from ``sources`` avoiding ``blocked``.

    Returns ``(order, parent, dist)``: the reached vertices in visiting
    order, each vertex's BFS parent (-1 at a source or where unreached) and
    its distance from the nearest source (-1 where no path avoiding
    ``blocked`` reaches it).  On a tree BFS distances are exact, parents lie
    on the unique path back to a source, and every vertex comes after its
    parent in ``order``.
    """
    parent = [-1] * len(adj)
    dist = [-1] * len(adj)
    order = list(sources)  # grows while it is read: the BFS queue
    for s in order:
        dist[s] = 0
    for x in order:
        for y in adj[x]:
            if dist[y] < 0 and y not in blocked:
                dist[y] = dist[x] + 1
                parent[y] = x
                order.append(y)
    return order, parent, dist


def _walk_up(parent: Sequence[int], u: int) -> list[int]:
    """The vertices u, parent[u], ... up to the BFS source above u."""
    path = [u]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path


def geodesic_path(tree: TreeWithBoundary, u: int, v: int) -> tuple[int, ...]:
    """The unique u-v path as a vertex sequence (length = distance)."""
    _check_vertex(u, tree.n)
    _check_vertex(v, tree.n)
    return tuple(_walk_up(_bfs(tree.adj, [v])[1], u))


def _longest_path(adj: Sequence[Sequence[int]]) -> list[int]:
    """A longest path of the tree with adjacency lists adj, by the classic
    double BFS: the last vertex of a BFS order is a farthest one, and a
    vertex farthest from any vertex ends a longest path."""
    far = _bfs(adj, [0])[0][-1]
    order, parent, _ = _bfs(adj, [far])
    return _walk_up(parent, order[-1])


def diameter(tree: TreeWithBoundary) -> int:
    """Max pairwise distance: the edge count of a longest path."""
    return len(_longest_path(tree.adj)) - 1


def inscribed_radius(tree: TreeWithBoundary) -> int:
    """max over vertices of the distance to the boundary set."""
    return max(_bfs(tree.adj, tree.boundary)[2])


def contact_set(tree: TreeWithBoundary) -> tuple[int, ...]:
    """Interior vertices with at least one boundary neighbor, ascending."""
    return tuple(
        v
        for v in tree.interior
        if any(w in tree.boundary for w in tree.adj[v])
    )


def _check_leaf_boundary(tree: TreeWithBoundary) -> None:
    """Raise unless the tree has n >= 3 and its boundary is its leaf set,
    the setting in which the classification invariants are defined."""
    if tree.n < 3:
        raise TooSmallError(f"invariants need n >= 3, got n = {tree.n}")
    if tree.boundary != frozenset(tree.leaves):
        raise InvalidBoundaryError(
            "invariants are defined for the leaf-boundary convention only"
        )


def invariants(tree: TreeWithBoundary) -> TreeInvariants:
    """All seven classification invariants (requires leaf boundary, n >= 3)."""
    _check_leaf_boundary(tree)
    from .matching import matching_number  # local import: matching builds on trees

    n = tree.n
    m = matching_number(tree)
    b = len(tree.boundary)
    D = diameter(tree)
    r = inscribed_radius(tree)
    contact = len(contact_set(tree))
    return TreeInvariants(n=n, m=m, b=b, D=D, r=r, contact=contact, t=2 * m + b - n)


# -- canonical codes ---------------------------------------------------------

def _centers(adj: Sequence[Sequence[int]]) -> list[int]:
    """The 1 or 2 vertices of minimum eccentricity of the tree with
    adjacency lists adj: the middle of any longest path (C. Jordan, 1869)."""
    path = _longest_path(adj)
    return sorted(path[(len(path) - 1) // 2 : len(path) // 2 + 1])


def _vertex_code(on_boundary: bool, children: Iterable[bytes]) -> bytes:
    """The code of a vertex of a rooted tree: its boundary bit, then the
    codes of its children in ascending order, in parentheses."""
    return (b"(1" if on_boundary else b"(0") + b"".join(sorted(children)) + b")"


def canonical_code(tree: TreeWithBoundary) -> CanonicalCode:
    """Center-rooted canonical form; equal codes <=> boundary-respecting
    isomorphism.  Rooting at the (invariant) center set makes the min over
    at most two rooted encodings a canonical representative.

    AHU-style (Aho, Hopcroft & Ullman 1974), one boundary bit per vertex.
    One BFS out of the centres codes every vertex once, children first,
    with no recursion that a deep path could push past the limit.  A code
    is dropped once its parent's is made, so the codes held at any time
    are of disjoint subtrees: O(n) memory, though building them still
    copies each vertex's bytes once per level above it.  Two centres split
    the tree into halves; rooted at either centre, the other's half hangs
    below it as one more child.
    """
    adj, boundary = tree.adj, tree.boundary
    centres = _centers(adj)
    order, parent, _ = _bfs(adj, centres)
    codes: dict[int, bytes] = {}
    for v in reversed(order[len(centres):]):
        codes[v] = _vertex_code(v in boundary, [codes.pop(w) for w in adj[v] if parent[w] == v])
    below = [[codes.pop(w) for w in adj[c] if parent[w] == c] for c in centres]
    if len(centres) == 1:
        return CanonicalCode(_vertex_code(centres[0] in boundary, below[0]))
    halves = [_vertex_code(c in boundary, children) for c, children in zip(centres, below)]
    return CanonicalCode(min(
        _vertex_code(c in boundary, [*children, other])
        for c, children, other in zip(centres, below, reversed(halves))
    ))


# -- text formats -------------------------------------------------------------

def parse_edge_list_text(text: str) -> TreeWithBoundary:
    """Parse the edge-list format: line 1 = n; then n-1 lines "u v";
    optional final line "B: i j k ..." for an explicit boundary."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
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
    del lines  # one str per line, freed before the tree is built
    if rest:
        if len(rest) != 1 or not rest[0].startswith("B:"):
            raise NotATreeError(f"unexpected trailing content: {rest!r}")
        boundary = [int(tok) for tok in rest[0][2:].split()]
    return from_edge_list(n, edges, boundary)


def format_edge_list_text(tree: TreeWithBoundary) -> str:
    """Inverse of parse_edge_list_text; omits the B: line when the boundary
    is the default leaf set."""
    lines = [str(tree.n)]
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    if tree.boundary != frozenset(tree.leaves):
        lines.append("B: " + " ".join(str(v) for v in sorted(tree.boundary)))
    return "\n".join(lines) + "\n"


_G6_HEADER = b">>graph6<<"


def from_graph6(data: bytes | str) -> TreeWithBoundary:
    """Decode a graph6 byte string (de-facto format of nauty/geng) into a
    tree with leaf boundary.  Rejects sparse6/digraph6 and non-trees."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if data.startswith(b":") or data.startswith(b"&"):
        raise NotATreeError("sparse6/digraph6 input is not supported")
    if not data:
        raise NotATreeError("empty graph6 input")
    for byte in data:
        if not 63 <= byte <= 126:
            raise NotATreeError(f"invalid graph6 byte {byte}")
    sextets = [byte - 63 for byte in data]
    # n takes one sextet below 63, else 3 after one 63, else 6 after two
    if sextets[0] < 63:
        size, start = sextets[:1], 1
    elif sextets[1:2] == [63]:
        size, start = sextets[2:8], 8
    else:
        size, start = sextets[1:4], 4
    n = 0
    for c in size:
        n = (n << 6) | c
    bits = "".join([format(c, "06b") for c in sextets[start:]])
    if len(bits) < n * (n - 1) // 2:
        raise NotATreeError("graph6 input truncated")
    # the upper triangle, column by column: (0, 1), (0, 2), (1, 2), ...
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return from_edge_list(n, [e for e, bit in zip(pairs, bits) if bit == "1"])
