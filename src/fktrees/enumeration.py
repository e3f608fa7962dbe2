"""Isomorph-free tree generation and classification keys.

free_trees streams exactly one representative per isomorphism class of free
trees of a given order, with the leaf boundary attached.  Generation is the
constant-amortized-time level-sequence algorithm of Wright, Richmond,
Odlyzko and McKay ("Constant time generation of free trees", SIAM J.
Comput. 15, 1986), WROM, the one networkx implements, with the same
labelling and order; soundness is pinned by tests against a brute-force
labeled-tree oracle and against networkx.  Each level sequence is a bytes
object (a level is a byte, so n <= 511: _check_levels), the successor
steps are bytes methods, and the trees are read one sequence at a time
(_sequence_edges).

The sweep composes its trees instead.  A free tree on n vertices has one
centroid, whose branches all have fewer than n/2 vertices, or two adjacent
ones, whose edge splits it into halves of n/2 (Jordan 1869; Otter, "The
number of trees", Ann. Math. 49, 1948).  Either way the sweep roots it at
a centroid, and a tree is the entries of the branches there, whose sizes
add up to n - 1: for one centroid, one multiset of rooted trees of sizes
below n/2 per partition of n - 1 into parts of at most (n - 1) // 2 (a
unit); for two, the children of the first half's root and then the second
half, for each unordered pair of rooted trees on n/2 vertices.  Only
_chunks, which lists the trees of one or more orders (with _halves),
tells the two apart.
The rooted trees are composed the same way, once per process, into a table
(_rooted): a rooted tree on s vertices is a root over a multiset of
smaller ones whose sizes add up to s - 1, so the trees of size s are one
unit per partition of s - 1, with no bound on the parts.  An entry holds
its canonical level sequence, its children, m, whether the root is left
free, height, D and leaf count.  A tree of a unit is a non-increasing
tuple of entry indices, and a unit's trees come in chunks of at most
_CHUNK rows (_unit_chunks), so memory does not grow with the order.  One
rule gives the invariants of a root over its branches, for a table entry
and a centroid alike (_root_over): sums, maxima and gathers over the
table, with no Python step per tree.  Its costly half, the span (D and
height), is composed only when asked for: the table always asks, and
the sweep only for ND keys.  A tree is named by the level
sequence WROM yields for it, a canonical form of its isomorphism class, so
it is the tree free_trees yields: from the canonical sequences of the
branches at any vertex, a walk to the centre finds it, with no tree built
and no search (_centre_sequence).  The sweep starts the walk at a
centroid, from a row's table sequences, and families.predicted_extremal at
a vertex of the family's shape.  One children-first pass over such a
sequence reads the tree's (m, b, D) and canonical code (_read_sequence).

A ClassKey names one of the four tree classes the extremal theorems speak
about: NM (order, matching number), NMB (order, matching number, leaf
count), NK (order, interior count) and ND (order, diameter).  _PARAMS says
which parameters each variant takes, and _params turns a tree's
(m, b, D), or arrays of them, into a variant's parameters: the one place
that says an NK key's k is n - b.  _keys gives the four keys of a tree's
(m, b, D), as _read_sequence reads them, through _params, and the sweep
indexes its key table by the parameters _params gives a chunk row.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .errors import CapExceededError, EmptyInteriorError, TooSmallError
from .trees import TreeWithBoundary, _vertex_code, from_edge_list

__all__ = [
    "DEFAULT_CAP",
    "HARD_CAP",
    "ClassKey",
    "free_tree_edge_sets",
    "free_trees",
]

DEFAULT_CAP = 16
HARD_CAP = 20

_CHUNK = 2048  # trees per chunk of a unit (_unit_chunks)


_DOWN = bytes((x - 1) % 256 for x in range(256))  # translate table: level x -> x - 1
_UP = bytes((x + 1) % 256 for x in range(256))  # level x -> x + 1
_LEVELS = bytes(range(256))  # _LEVELS[1:h + 2] is a path of height h


def _check_levels(n: int) -> None:
    """A level is a byte, and a tree on n vertices rooted at a centre has
    height at most n // 2: its level sequences fit for n <= 511."""
    if n > 511:
        raise CapExceededError(f"level sequences need n <= 511, got {n}")


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


def _sequence_edges(seq: bytes) -> tuple[tuple[int, int], ...]:
    """The edges (parent, v), v >= 1, of a level sequence: vertex v is
    position v, and its parent is the latest earlier vertex one level up."""
    latest = [0] * (len(seq) + 1)  # latest[d]: the last vertex seen at level d
    edges = []
    for v in range(1, len(seq)):
        level = seq[v]
        edges.append((latest[level - 1], v))
        latest[level] = v
    return tuple(edges)


def free_tree_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Edge lists of all free trees on n >= 1 vertices, one per isomorphism
    class, in WROM order (n = 1 yields the empty list), labelled as in
    _sequence_edges."""
    if n < 1:
        raise TooSmallError(f"no trees on {n} vertices")
    _check_levels(n)
    if n == 1:
        yield ()
        return
    yield from map(_sequence_edges, _level_sequences(n))


def free_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeWithBoundary]:
    """One TreeWithBoundary (leaf boundary) per isomorphism class of free
    trees on n vertices, n <= cap <= HARD_CAP; n must be >= 3 because the
    2-vertex tree has no interior under the leaf-boundary convention."""
    _check_order(n, cap)
    for edges in free_tree_edge_sets(n):
        yield from_edge_list(n, edges)


def _root_sequence(subtrees: Iterable[bytes]) -> bytes:
    """The canonical level sequence of a root over rooted trees whose
    canonical level sequences are subtrees: theirs in descending order,
    one level down."""
    return b"\x00" + b"".join(sorted(subtrees, reverse=True)).translate(_UP)


def _two_centre_sequence(left: list[bytes], right: list[bytes]) -> bytes:
    """The level sequence _level_sequences yields for a tree with two
    centres, one a root over the rooted trees of canonical sequences left,
    the other a root over right (each centre's branches away from the
    edge between them): of the two canonical rootings at its centres, the
    one _next_free keeps.  Only one is kept, or both when they are equal
    (the halves are isomorphic)."""
    here = _root_sequence([*left, _root_sequence(right)])
    if _next_free(here) == here:
        return here
    return _root_sequence([*right, _root_sequence(left)])


def _children(seq: bytes) -> list[bytes]:
    """The canonical sequences of the children of the root of a canonical
    sequence: its blocks that start at level 1, one level up."""
    return [b"\x00" + child for child in seq[1:].translate(_DOWN).split(b"\x00")[1:]]


def _centre_sequence(branches: list[bytes]) -> bytes:
    """The level sequence _level_sequences yields for the tree whose
    branches at some vertex have canonical sequences branches (two or
    more), found by a walk from that vertex to the centre, with no tree
    built.

    A branch's height is its sequence's largest level.  While the tallest
    branch is at least 2 higher than every other, the centre lies inside
    it (moving there lowers the eccentricity), so the walk steps to its
    root: the branches there are its children (_children) and the rest of
    the tree, one branch above of height runner-up + 1.  When the two
    tallest tie, the walk's vertex is the centre; when they differ by 1, it
    and the tallest branch's root are the two centres, and
    _two_centre_sequence picks WROM's rooting."""
    rest = list(branches)
    while True:
        heights = list(map(max, rest))
        i = heights.index(max(heights))
        tall, tallest = rest.pop(i), heights.pop(i)
        runner_up = max(heights)
        if tallest < runner_up + 2:
            break
        rest = _children(tall) + [_root_sequence(rest)]
    if tallest == runner_up:
        return _root_sequence(rest + [tall])
    return _two_centre_sequence(rest, _children(tall))


def _read_sequence(seq: bytes, edges: tuple = ()) -> tuple[tuple[int, int, int], str]:
    """(m, b, D) and the canonical code text of the tree of a level
    sequence _level_sequences yields (n >= 3), with leaf boundary, from one
    children-first pass over it, labelled as _sequence_edges labels it;
    edges, when given, is _sequence_edges(seq), which a caller that also
    needs the edges reads once.

    The matching is greedy, each vertex matched to its parent when both are
    free, which is optimal in any children-first order.  The root is a
    centre, so it is no leaf, the leaves are the other vertices with no
    child, and D is the sum of the heights of its two tallest branches: 2h
    when they tie, else 2h - 1, and the tree has a second centre, the root
    of the taller one.  The code is canonical_code's: the code rooted at
    the centre, or the smaller of those rooted at the two centres, each
    vertex's made by trees._vertex_code."""
    n = len(seq)
    code, below = [b""] * n, [[] for _ in seq]  # below[v]: the codes of v's children
    free, m = [True] * n, 0
    for p, v in reversed(edges or _sequence_edges(seq)):  # a child comes after its parent
        code[v] = _vertex_code(not below[v], below[v])
        below[p].append(code[v])
        if free[v] and free[p]:
            free[v] = free[p] = False
            m += 1
    b = sum(not children for children in below[1:])
    starts = [v for v in range(1, n) if seq[v] == 1]  # the root's children
    heights = [max(seq[u:w]) for u, w in zip(starts, starts[1:] + [n])]
    tallest = max(heights)
    taller = starts[heights.index(tallest)]
    heights.remove(tallest)
    runner_up = max(heights)
    text = _vertex_code(False, below[0])
    if tallest > runner_up:
        below[0].remove(code[taller])
        text = min(text, _vertex_code(False, below[taller] + [_vertex_code(False, below[0])]))
    return (m, b, tallest + runner_up), text.decode("ascii")


# -- the sweep's trees: centroid composition from rooted-tree tables -----------


@dataclass(frozen=True, eq=False)
class _Rooted:
    """Every rooted tree on at most `size` vertices, one entry per
    isomorphism class, by size: entries start[s]:start[s + 1] have s
    vertices, unit by unit as _rooted composes them.

    An entry is seen as a branch, whose root hangs from one vertex outside
    it (the root it is a branch of), so its root's degree is its child
    count + 1 and its leaves are its childless vertices.  Per entry: its
    canonical level sequence, rooted at its root (the form _root_sequence
    composes: below each vertex, the subtrees in descending order of their
    own sequences), whose blocks at level 1 are its children's
    (_children), and the m, b, D, free and height of _root_over.
    children[s] holds the child entries of the entries of size s, one row
    each, padded with -1.
    """

    size: int
    start: tuple[int, ...]
    sequences: tuple[bytes, ...]
    children: tuple[np.ndarray, ...]
    m: np.ndarray
    b: np.ndarray
    D: np.ndarray
    free: np.ndarray
    height: np.ndarray

    def count(self, s: int) -> int:
        return self.start[s + 1] - self.start[s]


@functools.cache
def _rooted(size: int) -> _Rooted:
    """The table of the rooted trees on at most size >= 1 vertices: the
    table of size - 1 and the trees of this size.  A rooted tree on size
    vertices is a root over a multiset of smaller ones whose sizes add up
    to size - 1, so its trees are one unit per partition of size - 1
    (_unit_chunks over the smaller table), listed by their number of
    parts, so that the entries of a size come by child count.  Memoised: a
    pure function of size."""
    if size == 1:  # one vertex: a leaf, left free
        zero = np.zeros(1, np.int8)
        children = (np.zeros((0, 0), np.intp), np.zeros((1, 0), np.intp))
        columns = zero, zero + 1, zero, np.ones(1, bool), zero  # m, b, D, free, height
        return _Rooted(1, (0, 0, 1), (b"\x00",), children, *columns)
    prev = _rooted(size - 1)
    units = [rows for p in _by_parts(size - 1, size - 1) for rows in _unit_chunks(prev, p)]
    width = size - 1  # the star's children, the most a tree of this size has
    children = np.concatenate(
        [np.pad(rows, ((0, 0), (0, width - rows.shape[1])), constant_values=-1) for rows in units]
    )
    stats = [_root_over(prev, rows) for rows in units]
    sequences = tuple(
        _root_sequence(prev.sequences[i] for i in row) for rows in units for row in rows.tolist()
    )
    return _Rooted(
        size,
        prev.start + (prev.start[-1] + len(children),),
        prev.sequences + sequences,
        prev.children + (children,),
        *map(np.concatenate, zip((prev.m, prev.b, prev.D, prev.free, prev.height), *stats)),
    )


def _root_over(table: _Rooted, rows: np.ndarray, span: bool = True) -> tuple:
    """(m, b, D, free, height) of a root over each row of entries, one or
    more per row.  The root, matched last, takes a branch root the greedy
    matching left free (each vertex, children first, matched to its parent
    when both are free: optimal in any children-first order), so m = sum
    m_i + [some root is free], and the root is left free when none is;
    b = sum b_i; the height is the tallest branch's + 1; and D is the
    largest D_i or the longest path through the root, which joins the two
    tallest branches there, or with one branch ends there.  D and height,
    the span, cost about half of the rule: without span they are not
    composed, and both are None."""
    matched = table.free[rows].any(axis=1)
    m, b = table.m[rows].sum(axis=1) + matched, table.b[rows].sum(axis=1)
    if not span:
        return m, b, None, ~matched, None
    heights = table.height[rows]
    taller = np.maximum.accumulate(heights, axis=1)
    height = taller[:, -1] + 1
    # the two tallest: the largest h_i + max(h_j, j < i), -1 with one branch
    pair = (heights[:, 1:] + taller[:, :-1]).max(axis=1, initial=-1)
    D = np.maximum(table.D[rows].max(axis=1), np.maximum(pair + 2, height))
    return m, b, D, ~matched, height


@functools.cache
def _by_parts(total: int, most: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """_partitions(total, most), listed by their number of parts.  Memoised:
    a pure function of its arguments, which every pass over an order reads."""
    return tuple(sorted(_partitions(total, most), key=lambda groups: sum(r for _, r in groups)))


def _partitions(total: int, most: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The partitions of total into parts of at most `most`, each as its
    (part, multiplicity) pairs by descending part."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, most), 0, -1):
        for r in range(1, total // part + 1):
            for rest in _partitions(total - part * r, part - 1):
                yield ((part, r),) + rest


def _unit_chunks(
    table: _Rooted, groups: tuple[tuple[int, int], ...], shard: int = 0, shards: int = 1
) -> Iterator[np.ndarray]:
    """The trees of one unit of ranks shard, shard + shards, shard +
    2 * shards, ..., in chunks of at most _CHUNK rows: the row of rank t is
    the non-increasing tuple of entry indices of the unit's tree of rank t,
    whose digits in the mixed radix of the groups' multiset counts are the
    ranks of one multiset of entries per group (_multisets).  So the shards
    split every unit by counts that differ by at most one, and one shard
    lists every rank in order."""
    counts = [math.comb(table.count(s) + r - 1, r) for s, r in groups]
    binomials = [
        _binomials(table.count(s), r) if count > 1 else None
        for (s, r), count in zip(groups, counts)
    ]
    total = math.prod(counts)
    for first in range(shard, total, shards * _CHUNK):
        rank = np.arange(first, min(first + shards * _CHUNK, total), shards)
        columns = []
        for (s, r), count, binomial in zip(groups, counts, binomials):
            if count == 1:  # one tree of this size, r times
                columns.append(np.full((len(rank), r), table.start[s]))
                continue
            rank, digit = np.divmod(rank, count)
            columns.append(table.start[s] + _multisets(binomial, r, digit))
        yield np.concatenate(columns, axis=1)


def _halves(table: _Rooted, half: int, shard: int = 0, shards: int = 1) -> Iterator[np.ndarray]:
    """The rows _chunks gives the trees with two centroids, on 2 * half
    vertices: for each pair of halves a >= b, entries of size half in the
    order _unit_chunks lists them (the pairs of shard's ranks), the
    tree rooted at a's root, whose branches are a's children and then b.
    The rows of a block share a width, so a chunk of pairs is split where
    a's child count changes; _rooted lists the entries of a size by child
    count, so the blocks come by width."""
    children = table.children[half]
    width = (children >= 0).sum(axis=1)
    for pairs in _unit_chunks(table, ((half, 2),), shard, shards):
        a = pairs[:, 0] - table.start[half]
        for piece in np.split(np.arange(len(a)), np.flatnonzero(np.diff(width[a])) + 1):
            yield np.column_stack([children[a[piece], : width[a[piece[0]]]], pairs[piece, 1]])


def _chunks(
    table: _Rooted, orders: Iterable[int], shard: int = 0, shards: int = 1
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The trees of the orders, each >= 3 and at most 2 * table.size + 1,
    in chunks (rows, n) of at most _CHUNK rows: each row the entries of the
    branches at a centroid of one tree, whose sizes add up to n[r] - 1, the
    row's order.  An order has one unit per partition of n - 1 into parts
    of at most (n - 1) // 2 and, for even n, the trees with two centroids
    (_halves).  The units of all the orders are listed by their number of
    parts, with the halves merged in by width, and consecutive blocks of
    rows with as many branches share chunks, whatever their order, so that
    the many small units of a sweep cost few numpy steps.  A table's
    entries extend every smaller table's, so a row is the same in any table
    it fits.

    Only the trees of shard in range(shards) are listed: of every unit the
    ranks shard, shard + shards, ... (_unit_chunks).  So the shards
    partition the trees, each unit's by counts that differ by at most one,
    and each lists its own with nothing counted or exchanged."""
    singles, halves = [], []
    for n in orders:
        singles += [(sum(r for _, r in g), n, g) for g in _by_parts(n - 1, (n - 1) // 2)]
        if n % 2 == 0:  # the pairs of halves: the multisets of two entries of size n / 2
            halves.append(zip(itertools.repeat(n), _halves(table, n // 2, shard, shards)))
    singles.sort(key=lambda unit: unit[0])  # by width, each order's units in their order
    blocks = heapq.merge(
        ((n, rows) for _, n, g in singles for rows in _unit_chunks(table, g, shard, shards)),
        *halves,
        key=lambda block: block[1].shape[1],
    )
    held: list[tuple[int, np.ndarray]] = []
    count = 0
    for n, rows in blocks:
        if held and (rows.shape[1] != held[0][1].shape[1] or count + len(rows) > _CHUNK):
            yield _joined(held)
            held, count = [], 0
        held.append((n, rows))
        count += len(rows)
    if held:  # a shard of a small order may list no row
        yield _joined(held)


def _joined(held: list[tuple[int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One chunk of _chunks from its blocks of rows, each with its order."""
    orders, blocks = zip(*held)
    return np.concatenate(blocks), np.repeat(orders, [len(rows) for rows in blocks])


@functools.cache
def _binomials(size: int, r: int) -> list[np.ndarray]:
    """C(c, k) for c in range(size + k - 1), for k = r, r - 1, ..., 2.
    Memoised, and read only: a pure function of size and r."""
    return [np.array([math.comb(c, k) for c in range(size + k - 1)]) for k in range(r, 1, -1)]


def _multisets(binomials: list[np.ndarray], r: int, rank: np.ndarray) -> np.ndarray:
    """Row i: the multiset of r elements of range(size) of colex rank
    rank[i], non-increasing, from _binomials(size, r).  x_1 >= ... >= x_r is
    the r-subset c_j = x_j + r - j of range(size + r - 1), whose rank is
    the sum of C(c_j, r + 1 - j) (the combinatorial number system), so c_j
    is the largest c with C(c, r + 1 - j) at most what is left of the rank,
    and c_r = x_r is what is left at the end."""
    rows = np.empty((len(rank), r), np.intp)
    for j, binomial in enumerate(binomials):
        c = np.searchsorted(binomial, rank, side="right") - 1
        rank = rank - binomial[c]
        rows[:, j] = c - (r - 1 - j)
    rows[:, -1] = rank
    return rows


def _check_cap(n: int, cap: int) -> None:
    if not n <= cap <= HARD_CAP:
        raise CapExceededError(f"need n <= cap <= {HARD_CAP}; n = {n}, cap = {cap}")


def _check_order(n: int, cap: int) -> None:
    _check_cap(n, cap)
    if n < 3:
        raise EmptyInteriorError(
            f"trees on {n} vertices have no interior with leaf boundary"
        )


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
            return 1 <= self.t <= min(b, m)
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


def _params(variant: str, n: int, m, b, D) -> tuple:
    """The parameters of variant, in _PARAMS order, of a tree on n vertices
    with leaf boundary, matching number m, b leaves and diameter D, or of
    arrays of such trees: the one place that says an NK key's k is n - b."""
    return tuple({"m": m, "b": b, "k": n - b, "D": D}[p] for p in _PARAMS[variant])


def _keys(n: int, m: int, b: int, D: int) -> list[ClassKey]:
    """The NM, NMB, NK and ND keys of a tree on n >= 3 vertices with leaf
    boundary, matching number m, b leaves and diameter D."""
    return [ClassKey(v, n, **dict(zip(_PARAMS[v], _params(v, n, m, b, D)))) for v in _PARAMS]
