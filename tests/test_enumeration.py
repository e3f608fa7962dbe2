"""Tree generation soundness, classification, certificates, sweeps."""

import concurrent.futures
import hashlib
import itertools
import json
import math
import random
import sys

import numpy as np
import pytest

import fktrees.enumeration as enumeration_module
import fktrees.trees as trees_module
import fktrees.verify as verify_module
from fktrees.cli import run
from fktrees import (
    TIE_TOL,
    CapExceededError,
    ClassKey,
    EmptyClassError,
    EmptyInteriorError,
    TooSmallError,
    build_comet,
    build_fork,
    build_T,
    build_path,
    build_star,
    canonical_code,
    first_eigenpair,
    free_tree_edge_sets,
    free_trees,
    from_edge_list,
    invariants,
    PredictedExtremal,
    predicted_extremal,
    verify_class,
    verify_theorem_sweep,
)
from fktrees.verify import (
    THEOREMS,
    ExtremalCertificate,
    all_match,
    certificate_json,
    _solve,
    empty_class_certificate,
    theorem_keys,
)
from fktrees.enumeration import (
    _CHUNK,
    HARD_CAP,
    _centre_sequence,
    _chunks,
    _keys,
    _level_sequences,
    _read_sequence,
    _root_over,
    _root_sequence,
    _rooted,
    _sequence_edges,
    _two_centre_sequence,
)
from fktrees.io import dumps
from fktrees.trees import _bfs
from conftest import (
    ORACLE_CHECKS,
    ORACLE_THEOREM_KEYS,
    all_labeled_trees,
    oracle_certificates,
    predicted_trees,
    reference_keys,
    relabel,
)


# -- generator soundness ---------------------------------------------------------

def test_small_counts():
    assert sum(1 for _ in free_trees(4)) == 2
    assert sum(1 for _ in free_trees(7)) == 11


def test_counts_against_labeled_oracle():
    # Prufer enumeration of every labeled tree, deduplicated by code
    for n, want in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11)]:
        seen = set()
        for edges in all_labeled_trees(n):
            boundary = None if n >= 3 else list(range(max(n - 1, 1)))
            t = from_edge_list(n, edges, boundary) if n >= 2 else None
            if t is None:
                seen.add("single-vertex")
                continue
            seen.add(canonical_code(t).code)
        got = sum(1 for _ in free_tree_edge_sets(n))
        assert got == len(seen) == want


def test_edge_sets_match_networkx_generator():
    # same labelled trees in the same order as networkx's WROM generator
    import networkx as nx
    for n in range(3, 15):
        ours = [tuple(sorted(edges)) for edges in free_tree_edge_sets(n)]
        theirs = [
            tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
            for g in nx.nonisomorphic_trees(n)
        ]
        assert ours == theirs, n


def test_edge_sets_past_21_levels_match_networkx():
    # a level is a byte: paths of more than 21 levels come out whole, and
    # the centre-rooted path on 512 vertices would need level 256
    import networkx as nx
    for n in (42, 45):
        ours = [tuple(sorted(edges)) for edges in itertools.islice(free_tree_edge_sets(n), 100)]
        theirs = [
            tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges()))
            for g in itertools.islice(nx.nonisomorphic_trees(n), 100)
        ]
        assert ours == theirs, n
    assert len(next(free_tree_edge_sets(511))) == 510
    with pytest.raises(CapExceededError):
        next(free_tree_edge_sets(512))


def test_no_edge_sets_below_one_vertex():
    with pytest.raises(TooSmallError, match="no trees on 0 vertices"):
        next(free_tree_edge_sets(0))


# SHA-256 of the level sequences of each order, one byte per level, as the
# list-based generator of the networkx labelling produced them
_STREAM_SHA256 = {
    15: "f88ba3e8c9256cc9aed8685bdf68141d9121fb71456774aa87c0dfda1b1c62a1",
    16: "b7af4ae64e9411115cfb0fcc27a5503dc220dd261ef546d9aa9272476361a608",
    17: "3da49a5ae2ee366f84c462b3e658cb1aaf1d9f4200363ba0e154872fa730ba77",
    18: "197cd0965db5676a891f02d3921ee0fdaaca6d5198e9ccadd1be18a06c644f54",
}


@pytest.mark.parametrize("n", sorted(_STREAM_SHA256))
def test_level_sequence_stream_pinned_beyond_networkx_range(n):
    # the networkx comparison above stops at n = 14; past it the stream of
    # sequences is pinned byte for byte
    stream = b"".join(_level_sequences(n))
    assert hashlib.sha256(stream).hexdigest() == _STREAM_SHA256[n]


# free trees per order, OEIS A000055
_A000055 = [
    1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320,
    48629, 123867, 317955, 823065, 2144505, 5623756, 14828074, 39299897,
]


# the parameters that make _root_over compose every invariant
_ALL = ("m", "b", "D")


def _entry_sizes(table):
    """The vertex count of every entry of a _rooted table."""
    return np.repeat(np.arange(len(table.start) - 1), np.diff(table.start))


# rooted trees per size, OEIS A000081
_A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def _brute_rooted(seq):
    """(m, free, height, D, b, shape) of the rooted tree of a level
    sequence, rooted at position 0: m by a recursion over the largest
    matchings with the root unmatched and with it free to match, free when
    some largest matching leaves the root unmatched, D the largest distance
    over all pairs of vertices, b the childless vertices, and shape nested
    sorted tuples, equal exactly for isomorphic rooted trees."""
    n = len(seq)
    kids = [[] for _ in range(n)]
    adj = [[] for _ in range(n)]
    for u, v in _sequence_edges(seq):
        kids[u].append(v)
        adj[u].append(v)
        adj[v].append(u)

    def walk(v):  # (largest matching with v unmatched, largest, height, shape)
        below = [walk(c) for c in kids[v]]
        unmatched = sum(best for _, best, _, _ in below)
        best = max([unmatched] + [unmatched - b + u + 1 for u, b, _, _ in below])
        height = max((h + 1 for _, _, h, _ in below), default=0)
        return unmatched, best, height, tuple(sorted(shape for *_, shape in below))

    unmatched, m, height, shape = walk(0)
    D = 0
    for source in range(n):  # breadth first: D is the most layers past one
        seen, layer, far = {source}, [source], -1
        while layer:
            far += 1
            layer = [w for u in layer for w in adj[u] if w not in seen]
            seen.update(layer)
        D = max(D, far)
    return m, unmatched == m, height, D, sum(not k for k in kids), shape


def test_rooted_table_against_brute_force():
    # sizes 11 and 12 are beyond every sweep to HARD_CAP, which needs 10
    table = _rooted(12)
    assert [table.count(s) for s in range(1, 13)] == _A000081
    shapes = set()
    for s in range(1, 13):
        for i in range(table.start[s], table.start[s + 1]):
            seq = table.sequences[i]
            assert len(seq) == s and seq[0] == 0
            m, free, height, D, b, shape = _brute_rooted(seq)
            stats = table.m[i], table.free[i], table.height[i], table.D[i], table.b[i]
            assert stats == (m, free, height, D, b), seq
            # the child entries, as many as the root's children
            row = table.children[s][i - table.start[s]]
            kids = row[row >= 0]
            assert len(kids) == seq.count(1)
            assert sorted(_brute_rooted(table.sequences[c])[5] for c in kids) == list(shape)
            shapes.add(shape)
    assert len(shapes) == sum(_A000081)  # pairwise non-isomorphic


def test_composed_counts_are_the_free_tree_counts():
    for n in range(3, HARD_CAP + 1):
        table = _rooted(n // 2)
        size = _entry_sizes(table)
        count = 0
        for branches, _ in _chunks(table, [n]):
            assert 0 < len(branches) <= _CHUNK
            # each row the branches at a centroid, n - 1 vertices in all: a
            # non-increasing entry tuple of branches below n/2 vertices, or
            # such a tuple of n/2 - 1 vertices, the children of a first
            # half, and then a second half of n/2
            sizes = size[branches]
            assert (sizes.sum(axis=1) == n - 1).all()
            assert (np.diff(branches[:, :-1], axis=1) <= 0).all()
            assert (2 * sizes[:, :-1] < n).all() and (2 * sizes[:, -1] <= n).all()
            half = 2 * sizes[:, -1] == n
            assert (half | (branches[:, -1] <= branches[:, -2])).all()
            count += len(branches)
        assert count == _A000055[n], n


def test_decomposition_counts_are_the_free_tree_counts():
    # what _chunks lists, counted without listing it: a unit of groups
    # (s, r) holds, per group, the multisets of r entries of size s, and
    # even n adds the unordered pairs of halves of n/2 vertices
    table = _rooted(12)
    for n in range(3, len(_A000055)):
        count = sum(
            math.prod(math.comb(table.count(s) + r - 1, r) for s, r in groups)
            for groups in enumeration_module._by_parts(n - 1, (n - 1) // 2)
        )
        if n % 2 == 0:
            count += math.comb(table.count(n // 2) + 1, 2)
        assert count == _A000055[n], n


def test_root_over_composes_what_its_parameters_read():
    # any subset of the parameters gives the full rule's arrays for the
    # invariants they read (m and free for m, b for b or k, D and height for
    # D) and None for the rest: on every chunk row of orders 3..14, and on
    # every entry of a table composed from its children, where the full
    # rule gives the table's own columns
    table = _rooted(7)
    names = ("m", "b", "D", "free", "height")
    entries = []  # (children, indices) of the entries of one size and child count
    for s in range(2, table.size + 1):
        children = table.children[s]
        width = (children >= 0).sum(axis=1)
        for w in np.unique(width):
            at = np.flatnonzero(width == w)
            entries.append((children[at, :w], table.start[s] + at))
    for rows, at in entries:
        for name, want in zip(names, _root_over(table, rows, _ALL)):
            assert np.array_equal(want, getattr(table, name)[at]), name
    blocks = [branches for branches, _ in _chunks(table, range(3, 15))]
    blocks += [rows for rows, _ in entries]
    assert sum(map(len, blocks)) == sum(_A000055[3:15]) + len(table.sequences) - 1
    reads = {"m": ("m", "free"), "b": ("b",), "k": ("b",), "D": ("D", "height")}
    for rows in blocks:
        full = _root_over(table, rows, _ALL)
        for r in range(len(reads) + 1):
            for params in itertools.combinations(reads, r):
                read = {name for p in params for name in reads[p]}
                got = _root_over(table, rows, params)
                for name, want, x in zip(names, full, got):
                    if name in read:
                        assert np.array_equal(x, want), (params, name)
                    else:
                        assert x is None, (params, name)


def test_two_centroid_rows_are_the_pairs_of_halves():
    # for every even order, the rows that end in a half of n/2 vertices are
    # the pairs a >= b of entries of that size, each once, rooted at a's
    # root: a's children, then b; and _root_over gives each the (m, b, D)
    # of two halves joined by an edge
    for n in range(4, HARD_CAP + 1, 2):
        table = _rooted(n // 2)
        lo, hi = table.start[n // 2], table.start[n // 2 + 1]
        children = table.children[n // 2].tolist()
        first = {tuple(e for e in row if e >= 0): lo + a for a, row in enumerate(children)}
        pairs, got = [], []
        for branches, _ in _chunks(table, [n]):
            rows = np.flatnonzero(branches[:, -1] >= lo)
            pairs += [(first[tuple(row[:-1])], row[-1]) for row in branches[rows].tolist()]
            got += zip(*(x[rows].tolist() for x in _root_over(table, branches, _ALL)[:3]))
        c = hi - lo
        assert len(pairs) == math.comb(c + 1, 2), n
        assert sorted(pairs) == [(a, b) for a in range(lo, hi) for b in range(lo, a + 1)]
        a, b = np.array(pairs).T
        m = table.m[a] + table.m[b] + (table.free[a] & table.free[b])
        D = np.maximum(np.maximum(table.D[a], table.D[b]), table.height[a] + table.height[b] + 1)
        assert got == list(zip(m.tolist(), (table.b[a] + table.b[b]).tolist(), D.tolist())), n


@pytest.mark.parametrize("chunk", [7, _CHUNK])
def test_shards_partition_each_order(monkeypatch, chunk):
    # the rows the shards of an order list are the order's rows, each once,
    # and each unit's rows (the halves' too) split among the shards with
    # counts that differ by at most one
    monkeypatch.setattr(enumeration_module, "_CHUNK", chunk)
    unit_chunks, units = enumeration_module._unit_chunks, {}

    def counted(table, groups, *shard):
        units[groups] = 0
        for rows in unit_chunks(table, groups, *shard):
            units[groups] += len(rows)
            yield rows

    monkeypatch.setattr(enumeration_module, "_unit_chunks", counted)

    def listed(table, n, *shard):  # the rows of the trees listed, and each unit's count
        units.clear()
        rows = [tuple(row) for rows, _ in _chunks(table, [n], *shard) for row in rows.tolist()]
        return rows, dict(units)

    for n in range(3, 17):
        table = _rooted(n // 2)
        want, count = listed(table, n)
        for shards in (1, 2, 3):
            rows, counts = zip(*(listed(table, n, shard, shards) for shard in range(shards)))
            assert sorted(sum(rows, [])) == sorted(want), (n, shards)
            for groups, total in count.items():
                split = [unit[groups] for unit in counts]
                assert sum(split) == total and max(split) - min(split) <= 1, (n, shards, groups)


@pytest.mark.parametrize("chunk", [7, _CHUNK])
def test_chunks_of_several_orders_hold_each_orders_rows(monkeypatch, chunk):
    # one listing of orders 3..16 in the table of the largest gives each
    # order's rows once, each tagged with its order, and shares chunks
    # between orders: fewer chunks than listing each order on its own.  Its
    # shards partition the same rows
    monkeypatch.setattr(enumeration_module, "_CHUNK", chunk)
    orders, table = range(3, 17), _rooted(8)
    size = _entry_sizes(table)

    def listed(*shard):
        rows, chunks = [], 0
        for branches, n in _chunks(table, orders, *shard):
            assert 0 < len(branches) == len(n) <= chunk
            assert (size[branches].sum(axis=1) + 1 == n).all()
            rows += zip(n.tolist(), map(tuple, branches.tolist()))
            chunks += 1
        return sorted(rows), chunks

    merged, chunks = listed()
    alone = [
        (n, tuple(row))
        for n in orders
        for branches, _ in _chunks(_rooted(n // 2), [n])
        for row in branches.tolist()
    ]
    assert merged == sorted(alone) and len(merged) == sum(_A000055[n] for n in orders)
    assert chunks < sum(1 for n in orders for _ in _chunks(_rooted(n // 2), [n]))
    for shards in (2, 3):
        parts = [listed(shard, shards)[0] for shard in range(shards)]
        assert sorted(sum(parts, [])) == merged, shards


def test_composed_trees_agree_with_free_trees_and_reference_keys():
    for n in range(3, 13):
        keys = _feasible_keys(n)
        table = _rooted(n // 2)
        composed = []
        for branches, _ in _chunks(table, [n]):
            invariants_ = zip(*(a.tolist() for a in _root_over(table, branches, _ALL)[:3]))
            for row, (m, b, D) in zip(branches.tolist(), invariants_):
                seq = _centre_sequence([table.sequences[e] for e in row])
                tree = from_edge_list(n, _sequence_edges(seq))
                composed.append(tree.edges)
                assert reference_keys(tree) == [
                    ClassKey("NM", n, m=m),
                    ClassKey("NMB", n, m=m, b=b),
                    ClassKey("NK", n, k=n - b),
                    ClassKey("ND", n, D=D),
                ]
                # the sequence reader gives the same invariants and code
                assert _read_sequence(seq) == ((m, b, D), canonical_code(tree).text)
                # the parameters the sweep's key table is indexed by: each
                # tree's invariants give its own key of each variant and no other
                holding = [key for key in keys if _holds(key, (m, b, D))]
                assert holding == reference_keys(tree)
        # every composed tree is labelled as the generator labels it, and
        # each generator tree is composed exactly once
        generated = [tuple(sorted(edges)) for edges in free_tree_edge_sets(n)]
        assert sorted(composed) == sorted(generated), n


def test_composed_sample_at_hard_cap_agrees_with_reference_keys():
    # every 997th tree of order HARD_CAP, across all its units, among them
    # full chunks of _CHUNK rows, and rows with a half of n/2 vertices (two
    # centroids) and without
    n, stride = HARD_CAP, 997
    table = _rooted(n // 2)
    seen, sampled, full = 0, {False: 0, True: 0}, 0
    for branches, _ in _chunks(table, [n]):
        full += len(branches) == _CHUNK
        rows = np.arange(-seen % stride, len(branches), stride)
        seen += len(branches)
        m, b, D = (a[rows].tolist() for a in _root_over(table, branches, _ALL)[:3])
        for r, row in enumerate(branches[rows].tolist()):
            seq = _centre_sequence([table.sequences[e] for e in row])
            tree = from_edge_list(n, _sequence_edges(seq))
            assert _wrom_sequence(tree.adj) == seq
            assert reference_keys(tree) == [
                ClassKey("NM", n, m=m[r]),
                ClassKey("NMB", n, m=m[r], b=b[r]),
                ClassKey("NK", n, k=n - b[r]),
                ClassKey("ND", n, D=D[r]),
            ]
            assert _read_sequence(seq) == ((m[r], b[r], D[r]), canonical_code(tree).text)
            sampled[row[-1] >= table.start[n // 2]] += 1
    assert seen == _A000055[n] and full > 0
    assert sampled[False] > 0 and sampled[True] > 0


def test_composed_sequences_are_the_generator_sequences():
    # each order's chunk rows name every WROM sequence once: the walks from
    # one centroid and from the first of two, and the choice between two
    # centres
    for n in range(13, 17):
        table = _rooted(n // 2)
        named = [
            _centre_sequence([table.sequences[e] for e in row])
            for branches, _ in _chunks(table, [n])
            for row in branches.tolist()
        ]
        assert len(named) == len(set(named)) == _A000055[n]
        assert set(named) == set(_level_sequences(n)), n


def _wrom_sequence(adj):
    """The level sequence _level_sequences yields for the isomorphism class
    of the tree with adjacency lists adj, n >= 3, in any labelling: the
    canonical rooting at its centre, or at the one of two centres
    _two_centre_sequence keeps.  One BFS from the centres roots each half
    at its centre; below each vertex are its subtrees in descending order
    of their own canonical sequences, the form _next_rooted generates.
    The oracle of the composed and predicted sequences; the search runs
    through fktrees.trees, where a test can watch it."""
    centres = trees_module._centers(adj)
    order, parent, _ = trees_module._bfs(adj, centres)
    below = {}  # below[v]: the sequences of v's subtrees
    for v in reversed(order):
        below[v] = [_root_sequence(below[w]) for w in adj[v] if parent[w] == v]
    if len(centres) == 1:
        return _root_sequence(below[centres[0]])
    return _two_centre_sequence(*(below[c] for c in centres))


def test_composed_sequence_runs_no_search(monkeypatch):
    # the walk reads the table's sequences; it runs no BFS over a built tree
    calls = []

    def bfs(*args, **kwargs):
        calls.append(args)
        return _bfs(*args, **kwargs)

    monkeypatch.setattr(trees_module, "_bfs", bfs)
    n = 12
    table = _rooted(n // 2)
    rows = 0
    for branches, _ in _chunks(table, [n]):
        for row in branches.tolist():
            _centre_sequence([table.sequences[e] for e in row])
            rows += 1
    assert rows == _A000055[n] and calls == []
    # the stand-in sees the search _wrom_sequence makes on a built tree
    _wrom_sequence(build_path(n).adj)
    assert calls


def test_centre_sequence_from_the_branches_at_every_vertex():
    # the walk starts at any vertex: at every vertex of degree >= 2 of every
    # tree, the branches there, each the canonical sequence a BFS from that
    # vertex gives it, name the tree by its generator sequence.  The walk
    # takes as many steps as the vertex is far from its nearest centre
    centres_seen, steps = set(), set()
    for n in range(3, 13):
        for seq in _level_sequences(n):
            tree = from_edge_list(n, _sequence_edges(seq))
            centres = trees_module._centers(tree.adj)
            away = _bfs(tree.adj, centres)[2]
            for v in range(n):
                if len(tree.adj[v]) < 2:
                    continue
                order, parent, _ = _bfs(tree.adj, [v])
                below = {}  # below[u]: the sequences of u's subtrees
                for u in reversed(order):
                    below[u] = [_root_sequence(below[w]) for w in tree.adj[u] if parent[w] == u]
                assert _centre_sequence(below[v]) == seq, (seq, v)
                centres_seen.add(len(centres))
                steps.add(away[v])
    # not vacuous: one centre and two, and walks of up to 4 steps (P11 and
    # P12 from a neighbour of an end)
    assert centres_seen == {1, 2}
    assert steps == {0, 1, 2, 3, 4}


def test_wrom_sequence_of_every_tree_and_a_permuted_copy():
    # the relabelling of the sweep's contenders: whatever the labels, the
    # level sequence the generator yields for the tree
    rng = random.Random(12)
    for n in range(3, 15):
        for seq in _level_sequences(n):
            tree = from_edge_list(n, _sequence_edges(seq))
            assert _wrom_sequence(tree.adj) == seq
            perm = list(range(n))
            rng.shuffle(perm)
            assert _wrom_sequence(relabel(tree, perm).adj) == seq


def _feasible_keys(n):
    """Every feasible class key of order n, in _PARAMS variant order."""
    keys = [ClassKey("NM", n, m=m) for m in range(n)]
    keys += [ClassKey("NMB", n, m=m, b=b) for m in range(n) for b in range(n + 1)]
    keys += [ClassKey("NK", n, k=k) for k in range(n)]
    keys += [ClassKey("ND", n, D=D) for D in range(n)]
    return [key for key in keys if key.feasible()]


def _holds(key, invariants):
    """Whether a tree of key's order with these (m, b, D) has key, by the
    keys _keys makes from its parameters (enumeration._params)."""
    return key in _keys(key.n, *invariants)


def test_every_predicted_tree_is_a_member_of_its_key():
    # the precondition of the sweep's seed: every key's threshold starts at
    # the least eigenvalue over its predicted members, so every key has one,
    # by the reference keys of the built tree and by the reading of its sequence
    keys = [key for n in range(3, HARD_CAP + 1) for key in _feasible_keys(n)]
    assert len(keys) == 816
    for key in keys:
        prediction = predicted_extremal(key)
        assert prediction.sequences, key
        for seq, tree in zip(prediction.sequences, predicted_trees(prediction), strict=True):
            assert key in reference_keys(tree), key
            assert _holds(key, _read_sequence(seq)[0]), key


def _spider(arms):
    """A hub with one path of each length in arms hanging from it."""
    edges = []
    for length in arms:
        arm = [0] + list(range(len(edges) + 1, len(edges) + length + 1))
        edges += zip(arm, arm[1:])
    return from_edge_list(len(edges) + 1, edges)


def _built_predictions(key):
    """The predicted trees of a feasible key, made by the labelled family
    builders, in predicted_extremal's order: the oracle for its sequences."""
    n = key.n
    if key.variant == "NM":
        m = key.m
        if m == 1:
            return [build_T(0, 1, n - 1)]
        if n >= 2 * m + 1:
            return [build_T(2 * m - 3, 2, n + 1 - 2 * m)]
        return [build_T(2 * m - 4, 2, 2)]
    if key.variant == "NMB":
        m, b, t = key.m, key.b, key.t
        if m == 1:
            return [build_T(0, 1, n - 1)]
        if t == 1:
            return [build_T(2 * m - 3, 2, b)]
        if t < m:
            return [build_T(2 * m - 2 * t, t, b)]
        if t == m == b:  # an interior tree on m vertices, one pendant per vertex
            pendants = tuple((v, m + v) for v in range(m))
            return [from_edge_list(2 * m, edges + pendants) for edges in free_tree_edge_sets(m)]
        return [build_T(0, m, b)]
    if key.variant == "NK":
        return [build_comet(n, key.k)]
    D = key.D
    if D == 2:
        return [build_star(n)]
    if D == 3:
        return [build_comet(n, 2)]
    if D == 4:
        return [build_fork((n - 1) // 2, 2, n)]
    candidates, j = [build_comet(n, D - 1)], D // 2
    if D % 2 == 0 and (n - 1) // j >= 2:
        candidates.append(build_fork((n - 1) // j, j, n))
    elif D % 2 and n == 3 * j + 2:
        candidates.append(_spider((j, j, j + 1)))
    return candidates


def test_predicted_sequences_are_those_of_the_built_families():
    # every prediction through HARD_CAP, composed as level sequences, is
    # the WROM relabelling of the family builders' trees, in their order:
    # the caterpillars (T(p, q, b), comets, stars) at one centre and two,
    # the forks, the odd-D spiders and the pendant forests
    keys = [key for n in range(3, HARD_CAP + 1) for key in _feasible_keys(n)]
    shapes = {"spider": 0, "fork": 0, "forest": 0}
    for key in keys:
        built = _built_predictions(key)
        assert list(predicted_extremal(key).sequences) == [
            _wrom_sequence(tree.adj) for tree in built
        ], key
        if key.variant == "ND" and key.D % 2 and len(built) == 2:
            shapes["spider"] += 1
        elif key.variant == "ND" and key.D % 2 == 0 and (key.D == 4 or len(built) == 2):
            shapes["fork"] += 1
        elif key.variant == "NMB" and key.t == key.m == key.b:
            shapes["forest"] += 1
    # not vacuous: ND 8 5, 11 7, 14 9, 17 11 and 20 13; the 16 D4 keys and
    # all 56 keys with even D >= 6, whose fork always has two arms or more;
    # m = b = n/2 for n = 4 .. 20
    assert shapes == {"spider": 5, "fork": 72, "forest": 9}


def test_pinned_count_n12():
    assert sum(1 for _ in free_trees(12)) == 551


def test_no_duplicate_codes_through_n10():
    for n in range(3, 11):
        codes = [canonical_code(t).code for t in free_trees(n)]
        assert len(codes) == len(set(codes))


def test_every_emitted_tree_is_valid():
    for t in free_trees(8):
        assert t.n == 8 and len(t.edges) == 7
        assert t.boundary == frozenset(t.leaves)


def test_cap_and_degenerate_orders():
    with pytest.raises(CapExceededError):
        list(free_trees(17))
    with pytest.raises(CapExceededError):
        list(free_trees(18, cap=17))
    with pytest.raises(EmptyInteriorError):
        list(free_trees(2))


# -- classification ----------------------------------------------------------------

def test_classify_examples(capsys):
    # the keys `enumerate --classify` prints on the line of each example tree
    def keys(tree):
        assert run(["enumerate", "--n", str(tree.n), "--classify"]) == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        (doc,) = [d for d in docs if d["code"] == canonical_code(tree).text]
        return set(doc["classes"])

    assert keys(build_path(6)) == {"NM 6 3", "NMB 6 3 2", "NK 6 4", "ND 6 5"}
    assert keys(build_star(5)) == {"NM 5 1", "NMB 5 1 4", "NK 5 1", "ND 5 2"}
    assert keys(build_T(3, 2, 3)) == {"NM 8 3", "NMB 8 3 3", "NK 8 5", "ND 8 6"}


def test_key_parse_round_trip():
    for text in ["NM 8 3", "NMB 8 3 3", "NK 8 5", "ND 8 6"]:
        assert str(ClassKey.parse(text)) == text
    with pytest.raises(ValueError):
        ClassKey.parse("XX 3 1")
    with pytest.raises(ValueError):
        ClassKey.parse("NM 3")


def test_empty_key_text_is_refused():
    with pytest.raises(ValueError, match="empty class key"):
        ClassKey.parse("")
    with pytest.raises(ValueError, match="empty class key"):
        ClassKey.parse("  ")


def test_key_takes_exactly_its_variants_parameters():
    with pytest.raises(ValueError, match="NM takes m, got none"):
        ClassKey("NM", 5)
    with pytest.raises(ValueError, match="NK takes k, got m, k"):
        ClassKey("NK", 6, m=2, k=3)
    with pytest.raises(ValueError):
        ClassKey("NMB", 8, m=3)
    with pytest.raises(ValueError):
        ClassKey("ND", 8, D=4, b=2)
    with pytest.raises(ValueError, match="unknown class variant"):
        ClassKey("XX", 8)


def test_feasibility():
    assert ClassKey("NM", 8, m=4).feasible()
    assert not ClassKey("NM", 7, m=4).feasible()
    assert ClassKey("NMB", 8, m=3, b=3).feasible()
    assert not ClassKey("NMB", 8, m=2, b=2).feasible()
    assert not ClassKey("NK", 5, k=4).feasible()
    assert ClassKey("ND", 5, D=4).feasible()
    assert not ClassKey("ND", 5, D=5).feasible()


def test_only_nmb_keys_have_a_t_and_no_key_below_three_vertices_is_feasible():
    assert ClassKey("NMB", 8, m=3, b=3).t == 1
    assert ClassKey("NM", 8, m=3).t is None
    assert ClassKey("NK", 8, k=5).t is None
    assert not ClassKey("NM", 2, m=1).feasible()
    assert not ClassKey("ND", 2, D=1).feasible()


# -- certificates -------------------------------------------------------------------

def test_certificate_nm83():
    cert = verify_class(ClassKey("NM", 8, m=3))
    # population pinned by the brute-force oracle run (12 of the 23 trees
    # on 8 vertices have matching number 3)
    assert cert.population == 12
    assert cert.verdict == "MATCH"
    assert len(cert.minimizers) == 1
    assert cert.minimizers == cert.predicted
    assert cert.minimizers[0] == canonical_code(build_T(3, 2, 3)).text


def test_certificate_population_oracle():
    # cross-check the population bucketing against a direct filter
    from fktrees import invariants

    want = sum(1 for t in free_trees(8) if invariants(t).m == 3)
    assert verify_class(ClassKey("NM", 8, m=3)).population == want


def test_certificate_nmb844_multiplicity():
    cert = verify_class(ClassKey("NMB", 8, m=4, b=4))
    assert cert.population == 2
    assert cert.verdict == "MATCH"
    assert len(cert.minimizers) == 2
    assert cert.lambda_min == pytest.approx(1.0, abs=1e-8)


def test_certificate_nd93():
    cert = verify_class(ClassKey("ND", 9, D=3))
    assert cert.verdict == "MATCH"
    assert cert.minimizers[0] == canonical_code(build_comet(9, 2)).text


def test_certificate_infeasible_key():
    with pytest.raises(EmptyClassError):
        verify_class(ClassKey("NM", 7, m=4))
    cert = empty_class_certificate(ClassKey("NM", 7, m=4))
    assert cert.verdict == "EMPTY_CLASS" and cert.population == 0


def test_certificate_cap():
    with pytest.raises(CapExceededError):
        verify_class(ClassKey("NM", 18, m=2))


def test_hard_cap_binds_every_library_entry():
    # a cap above HARD_CAP is refused before any tree is made, whatever n is
    with pytest.raises(CapExceededError):
        next(free_trees(21, cap=21))
    with pytest.raises(CapExceededError):
        verify_class(ClassKey("NM", 8, m=3), cap=21)
    with pytest.raises(CapExceededError):
        verify_theorem_sweep("T13", 5, cap=21)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        first_eigenpair(build_path(5), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        verify_class(ClassKey("NM", 8, m=3), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        verify_theorem_sweep("T13", 8, tol=tol)


@pytest.mark.parametrize("n_max", [12, 19])
@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_must_be_at_least_one(jobs, n_max):
    # below 1 a sweep past the shard order failed in the listing (0) or in
    # the certificates (-1), and a smaller one ran serially
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        verify_theorem_sweep("T13", n_max, cap=19, jobs=jobs)


def test_certificate_json_reproducible():
    key = ClassKey("NMB", 8, m=3, b=3)
    a = dumps(certificate_json(verify_class(key)))
    b = dumps(certificate_json(verify_class(key)))
    assert a == b
    assert a.startswith('{"key":"NMB 8 3 3","population":')


# -- sweeps ------------------------------------------------------------------------

def test_theorem_keys_shapes():
    keys = theorem_keys("T13", 6)
    assert [str(k) for k in keys] == [
        "NM 3 1", "NM 4 1", "NM 4 2", "NM 5 1", "NM 5 2",
        "NM 6 1", "NM 6 2", "NM 6 3",
    ]
    assert all(k.feasible() for k in theorem_keys("T14", 9))
    counts = {"T13": 99, "T14": 375, "Kloburstel": 171, "D4": 16}
    assert {t: len(theorem_keys(t, 20)) for t in THEOREMS} == counts
    assert list(counts) == list(THEOREMS)  # the CLI's --theorem choices
    with pytest.raises(ValueError):
        theorem_keys("T15", 5)


def test_theorem_keys_are_the_feasible_keys_of_the_full_grid():
    # each theorem lists only feasible parameters up front, and feasible()
    # still decides: the keys are exactly the feasible ones of every
    # parameter value 0..n, order by order
    grid = {
        "T13": lambda n: [ClassKey("NM", n, m=m) for m in range(n + 1)],
        "T14": lambda n: [
            ClassKey("NMB", n, m=m, b=b) for m in range(n + 1) for b in range(n + 1)
        ],
        "Kloburstel": lambda n: [ClassKey("NK", n, k=k) for k in range(n + 1)],
        "D4": lambda n: [ClassKey("ND", n, D=4)],
    }
    assert list(grid) == list(THEOREMS)
    for theorem, keys in grid.items():
        want = [key for n in range(3, 31) for key in keys(n) if key.feasible()]
        assert theorem_keys(theorem, 30) == want, theorem


def test_each_theorem_speaks_about_one_variant():
    # the precondition of the sweep's one-variant pass
    for theorem in THEOREMS:
        assert len({key.variant for key in theorem_keys(theorem, 12)}) == 1


def test_certify_order_takes_keys_of_one_variant():
    keys = [ClassKey("NM", 6, m=2), ClassKey("NK", 6, k=3)]
    with pytest.raises(ValueError):
        verify_module._certify(keys, TIE_TOL)
    with pytest.raises(ValueError):
        verify_module._certify([], TIE_TOL)


def test_t13_sweep_small():
    certs = verify_theorem_sweep("T13", 8)
    assert all(c.verdict == "MATCH" for c in certs)
    assert all(len(c.minimizers) == 1 for c in certs)
    assert all_match(certs)


def test_t14_sweep_small():
    certs = verify_theorem_sweep("T14", 9)
    assert all(c.verdict == "MATCH" for c in certs)


def test_kloburstel_sweep_small():
    certs = verify_theorem_sweep("Kloburstel", 9)
    assert all(c.verdict == "MATCH" for c in certs)
    assert all(len(c.minimizers) == 1 for c in certs)


def test_d4_sweep_small():
    certs = verify_theorem_sweep("D4", 9)
    assert all(c.verdict == "MATCH" for c in certs)


def test_certificates_agree_with_an_independent_oracle(request, monkeypatch):
    # the population, lambda_min and minimizers of every certificate of the
    # four theorems, and of every ND key through verify_class, at n <=
    # --oracle-n-max (14 unless given), against conftest's oracle: trees
    # from networkx, with their invariants, matrices and codes computed in
    # the tests.  A sweep's keys are exactly those some tree has.  Each
    # sweep split into 2 shards at every order, shard 1 through a real
    # process pool, gives the serial sweep's certificates
    n_max = request.config.getoption("--oracle-n-max")
    checked = []
    for theorem, key_of in ORACLE_THEOREM_KEYS.items():
        want = oracle_certificates(key_of, n_max, TIE_TOL)
        certs = verify_theorem_sweep(theorem, n_max, cap=n_max)
        assert {cert.key for cert in certs} == set(want), theorem
        checked += [(cert, want[cert.key]) for cert in certs]
        with monkeypatch.context() as patched:
            patched.setattr(verify_module, "_SHARD_ORDER", 3)
            patched.setattr(verify_module, "_usable_cpus", lambda: 2)
            assert verify_theorem_sweep(theorem, n_max, cap=n_max, jobs=2) == certs, theorem
    nd = oracle_certificates(lambda n, m, b, D: ClassKey("ND", n, D=D), n_max, TIE_TOL)
    checked += [(verify_class(key, cap=n_max), want) for key, want in nd.items()]
    assert len(checked) == ORACLE_CHECKS[n_max]
    for cert, (population, lambda_min, minimizers) in checked:
        assert cert.population == population, cert.key
        assert abs(cert.lambda_min - lambda_min) <= 1e-12, cert.key
        assert cert.minimizers == minimizers, cert.key


def test_sweep_jobs_parallel_matches_serial():
    serial = verify_theorem_sweep("T13", 9)
    parallel = verify_theorem_sweep("T13", 9, jobs=2)
    assert serial == parallel


def test_cross_theorem_consistency():
    # the NM(n,m) minimum equals the best NMB(n,m,b) minimum over feasible b
    for n in range(4, 11):
        for m in range(1, n // 2 + 1):
            nm = verify_class(ClassKey("NM", n, m=m))
            best = min(
                verify_class(ClassKey("NMB", n, m=m, b=b)).lambda_min
                for b in range(2, n)
                if ClassKey("NMB", n, m=m, b=b).feasible()
            )
            assert nm.lambda_min == pytest.approx(best, abs=1e-12)


def test_conjecture_verdict_for_large_diameter():
    cert = verify_class(ClassKey("ND", 10, D=6))
    assert cert.verdict in ("CONJECTURE-MATCH", "CONJECTURE-MISMATCH")
    assert cert.verdict == "CONJECTURE-MATCH"


@pytest.mark.parametrize("j", [2, 3, 4])
def test_odd_diameter_conjecture_takes_the_spider(j):
    # on n = 3j + 2 with D = 2j + 1 the comet loses to the spider
    # S(j, j, j + 1), three arms of j, j and j + 1 edges from one hub
    n, D = 3 * j + 2, 2 * j + 1
    spider = canonical_code(_spider((j, j, j + 1))).text
    cert = verify_class(ClassKey("ND", n, D=D))
    assert cert.verdict == "CONJECTURE-MATCH"
    assert cert.minimizers == (spider,)
    assert cert.predicted == tuple(sorted([spider, canonical_code(build_comet(n, D - 1)).text]))


# -- streaming certification against materialize-and-filter ----------------------

def _in_class(key, inv):
    if key.variant == "NM":
        return inv.m == key.m
    if key.variant == "NMB":
        return inv.m == key.m and inv.b == key.b
    if key.variant == "NK":
        return inv.n - inv.b == key.k
    return inv.D == key.D


def _sequence_tree(seq):
    """The tree of a level sequence, labelled as _sequence_edges labels it."""
    return from_edge_list(len(seq), _sequence_edges(seq))


def _filtered_certificate(key, records):
    """A certificate from every (code, invariants, lambda1) record of the
    order: filter the class, take the minimum, keep codes within TIE_TOL."""
    members = [(code, lam) for code, inv, lam in records if _in_class(key, inv)]
    lam_min = min(lam for _, lam in members)
    minimizers = tuple(sorted(c for c, lam in members if lam <= lam_min + TIE_TOL))
    prediction = predicted_extremal(key)
    predicted = tuple(
        sorted({canonical_code(_sequence_tree(seq)).text for seq in prediction.sequences})
    )
    if prediction.conjecture:
        ok = set(minimizers) <= set(predicted)
        verdict = "CONJECTURE-MATCH" if ok else "CONJECTURE-MISMATCH"
    else:
        verdict = "MATCH" if minimizers == predicted else "MISMATCH"
    return ExtremalCertificate(
        key, len(members), lam_min, minimizers, predicted, verdict, TIE_TOL
    )


def test_streaming_certificates_equal_materialize_and_filter():
    records = {
        n: [
            (canonical_code(t).text, invariants(t), first_eigenpair(t).lambda1)
            for t in free_trees(n)
        ]
        for n in range(3, 11)
    }
    for theorem in THEOREMS:
        certs = verify_theorem_sweep(theorem, 10)
        assert [c.key for c in certs] == theorem_keys(theorem, 10)
        for cert in certs:
            assert cert == _filtered_certificate(cert.key, records[cert.key.n])


class _Counted:
    """Records every level sequence verify eigensolves and counts its
    canonical codes, through monkeypatched stand-ins: verify eigensolves
    the sequences not yet in its order's lambda1 memo, and codes a tree by
    reading its level sequence, one code per reading."""

    def __init__(self, monkeypatch):
        self.solved, self.codes = [], 0
        monkeypatch.setattr(verify_module, "_solve", self._solve)
        monkeypatch.setattr(verify_module, "_read_sequence", self._code)

    def _solve(self, lam, sequences):
        self.solved.extend(seq for seq in dict.fromkeys(sequences) if seq not in lam)
        _solve(lam, sequences)

    def _code(self, seq):
        self.codes += 1
        return _read_sequence(seq)


def _assert_solved_once(counted, certs):
    """Each distinct tree is eigensolved at most once; the trees solved are
    exactly the seeds (every predicted member) and the minimizers; each
    distinct minimizer and predicted code is computed once."""
    assert len(counted.solved) == len(set(counted.solved))
    seeds = {
        seq
        for c in certs
        for seq in predicted_extremal(c.key).sequences
        if c.key in reference_keys(_sequence_tree(seq))
    }
    minimizers = {c for cert in certs for c in cert.minimizers}
    generated = {
        seq
        for n in {c.key.n for c in certs}
        for seq in _level_sequences(n)
        if canonical_code(from_edge_list(n, _sequence_edges(seq))).text in minimizers
    }
    assert len(generated) == len(minimizers)
    assert set(counted.solved) == seeds | generated
    assert counted.codes == len(minimizers | {c for cert in certs for c in cert.predicted})


def test_class_certificate_solves_members_and_codes_minimizers(monkeypatch):
    counted = _Counted(monkeypatch)
    key = ClassKey("ND", 10, D=4)
    cert = verify_class(key)
    # members the pivot filter shows to lie above lambda_min + tol are
    # counted without an eigensolve
    assert 0 < len(counted.solved) < cert.population < sum(1 for _ in free_trees(10))
    _assert_solved_once(counted, [cert])


@pytest.mark.parametrize("theorem", THEOREMS)
def test_sweep_eigensolves_exactly_the_minimizers(monkeypatch, theorem):
    # every threshold starts at the predicted minimum, so the pivot filter
    # leaves only the minimizers to eigensolve, and on a MATCH key they are
    # the seeds themselves
    counted = _Counted(monkeypatch)
    certs = verify_theorem_sweep(theorem, 12)
    assert all_match(certs)
    _assert_solved_once(counted, certs)
    assert len(counted.solved) == counted.codes == sum(len(c.minimizers) for c in certs)


def test_sweep_solves_and_codes_each_tree_of_t14_once(monkeypatch):
    # the sweep-serial job: 196 keys, 236 minimizers, each solved and coded once
    counted = _Counted(monkeypatch)
    certs = verify_theorem_sweep("T14", 16)
    assert len(certs) == 196 and sum(len(c.minimizers) for c in certs) == 236
    assert len(set(counted.solved)) == len(counted.solved) == counted.codes == 236


def test_t14_sweep_builds_and_classifies_no_tree(monkeypatch):
    # the sweep-serial job names, codes and classifies its trees, the
    # predicted ones among them, from level sequences: nothing builds a
    # tree or searches one
    calls = []

    def counted(name, function):
        def stand_in(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return stand_in

    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module_name == "fktrees" or module_name.startswith("fktrees."):
            for name in ("from_edge_list", "_bfs"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
                    patched += 1
    assert patched >= 3
    certs = verify_theorem_sweep("T14", 16)
    assert len(certs) == 196 and all_match(certs)
    assert calls == []


@pytest.mark.parametrize("stand_in", ["non-member", "non-minimal-member"])
def test_wrong_predictions_change_only_the_verdict(monkeypatch, stand_in):
    # a predicted tree outside the class leaves the key unseeded, and a
    # member that is not minimal seeds a looser threshold: either way the
    # population, minimum and minimizers stay, and the verdict turns to MISMATCH
    right = {c.key: c for t in ("T13", "T14") for c in verify_theorem_sweep(t, 10)}
    wrong = {}
    for key, cert in right.items():
        for seq, tree in zip(_level_sequences(key.n), free_trees(key.n), strict=True):
            member = key in reference_keys(tree)
            if stand_in == "non-member":
                if not member:
                    wrong[key] = seq  # the first non-member in WROM order
                    break
            elif member and canonical_code(tree).text not in cert.minimizers:
                wrong[key] = seq  # the last non-minimal member in WROM order
    # not vacuous: of the 74 keys, only the two of order 3 have no
    # non-member, and 45 have a member that is not a minimizer
    assert len(right) == 74
    assert len(wrong) == {"non-member": 72, "non-minimal-member": 45}[stand_in]

    def predicted(key):
        if key in wrong:
            return PredictedExtremal((wrong[key],))
        return predicted_extremal(key)

    monkeypatch.setattr(verify_module, "predicted_extremal", predicted)
    for theorem in ("T13", "T14"):
        for cert in verify_theorem_sweep(theorem, 10):
            want = right[cert.key]
            assert cert.population == want.population
            assert cert.lambda_min == want.lambda_min
            assert cert.minimizers == want.minimizers
            assert cert.verdict == ("MISMATCH" if cert.key in wrong else want.verdict)


def _wrong_sweeps(monkeypatch, stand_in, chunk):
    """The T13 and T14 certificates to n = 10 with the stand-ins of
    test_wrong_predictions_change_only_the_verdict and chunks of chunk
    trees, the sequences eigensolved, and the calls of _pass and
    _branch_pivots."""
    wrong = {}
    for cert in (c for t in ("T13", "T14") for c in verify_theorem_sweep(t, 10)):
        key = cert.key
        for seq, tree in zip(_level_sequences(key.n), free_trees(key.n), strict=True):
            member = key in reference_keys(tree)
            if stand_in == "non-member" and not member:
                wrong[key] = seq  # the first non-member in WROM order
                break
            if member and stand_in == "non-minimal-member":
                if canonical_code(tree).text not in cert.minimizers:
                    wrong[key] = seq  # the last non-minimal member

    def predicted(key):
        return PredictedExtremal((wrong[key],)) if key in wrong else predicted_extremal(key)

    calls = {"_pass": 0, "_branch_pivots": 0}

    def counted(name):
        function = getattr(verify_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(verify_module, name, wrapper)

    counted("_pass")
    counted("_branch_pivots")
    counted_solves = _Counted(monkeypatch)
    monkeypatch.setattr(verify_module, "predicted_extremal", predicted)
    monkeypatch.setattr(enumeration_module, "_CHUNK", chunk)
    certs = [c for t in ("T13", "T14") for c in verify_theorem_sweep(t, 10)]
    monkeypatch.undo()
    return certs, set(counted_solves.solved), calls


@pytest.mark.parametrize("stand_in", ["non-member", "non-minimal-member"])
def test_each_order_computes_its_pivots_once(monkeypatch, stand_in):
    # each key's filter bound is its seed + tol for the whole pass, so wrong
    # predictions, which leave bounds loose, still take one pivot pass per
    # pass; the orders below _SHARD_ORDER share one pass, so each sweep to
    # n = 10 computes its pivots once, for every order
    certs, _, calls = _wrong_sweeps(monkeypatch, stand_in, 7)
    assert any(c.verdict == "MISMATCH" for c in certs)
    assert calls["_pass"] == 2
    assert calls["_branch_pivots"] == calls["_pass"]


@pytest.mark.parametrize("stand_in", ["non-member", "non-minimal-member"])
def test_contenders_do_not_depend_on_chunking(monkeypatch, stand_in):
    # with fixed bounds the trees named and eigensolved are those the pivot
    # count cannot place above them, however the order's trees are chunked
    runs = [_wrong_sweeps(monkeypatch, stand_in, chunk)[:2] for chunk in (1, 7, 2048)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("theorem", THEOREMS)
def test_only_diameter_keys_compose_a_diameter(monkeypatch, theorem):
    # D and the heights it needs cost about half of the rule of a root over
    # its branches, and only an ND key reads them: a sweep to n = 12 composes
    # them for every chunk row of D4 and for none of T13, T14 or Kloburstel
    composed = []

    def root_over(table, rows, params):
        m, b, D, free, height = _root_over(table, rows, params)
        composed.append((D is not None, height is not None, len(rows)))
        return m, b, D, free, height

    monkeypatch.setattr(verify_module, "_root_over", root_over)
    certs = verify_theorem_sweep(theorem, 12)
    spans = {(D, height) for D, height, _ in composed}
    assert spans == {(theorem == "D4",) * 2}, theorem
    # every tree of every order the sweep covers went through the spy
    orders = {cert.key.n for cert in certs}
    assert sum(rows for *_, rows in composed) == sum(_A000055[n] for n in orders)


@pytest.mark.parametrize(
    "theorem, invariants",
    [("T13", {"m"}), ("T14", {"m", "b"}), ("Kloburstel", {"b"}), ("D4", {"D"})],
)
def test_each_pass_composes_exactly_its_variants_invariants(monkeypatch, theorem, invariants):
    # a pass composes, for every tree of a sweep to n = 12, the invariants
    # of (m, b, D) its variant's keys read and no other: k is n - b
    composed = []

    def root_over(table, rows, params):
        out = _root_over(table, rows, params)
        composed.append(({name for name, x in zip("mbD", out) if x is not None}, len(rows)))
        return out

    monkeypatch.setattr(verify_module, "_root_over", root_over)
    certs = verify_theorem_sweep(theorem, 12)
    assert all(got == invariants for got, _ in composed), theorem
    orders = {cert.key.n for cert in certs}
    assert sum(rows for _, rows in composed) == sum(_A000055[n] for n in orders)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and the (orders,
    shard, shards) of each pass shard in the order they are submitted, the
    orders those of the pass's keys, and runs them in-process."""

    sizes: list = []
    submitted: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, keys, *args):
        self.submitted.append((sorted({key.n for key in keys}), *args[-2:]))
        future = concurrent.futures.Future()
        future.set_result(fn(keys, *args))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    monkeypatch.setattr(verify_module.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


@pytest.mark.parametrize(
    "affinity, cpus, want",
    [(64, 64, [63]), (2, 64, [1]), (1, 64, []), (None, None, []), (None, 3, [2])],
    ids=["64-cpus", "2-cpus", "1-cpu", "unknown-cpus", "no-affinity-3-cpus"],
)
def test_sweep_workers_clamped_to_orders_and_cpus(
    monkeypatch, recording_pool, affinity, cpus, want
):
    # W = min(jobs, usable CPUs) shards, the CPUs of the process's affinity
    # mask where the platform has one, and a pool of W - 1 workers, started
    # only when some order reaches _SHARD_ORDER; every pass (the orders
    # below it share one) is split into W shards, this process runs shard 0
    # of each and shards 1..W - 1 are submitted, pass after pass
    if affinity is None:
        monkeypatch.delattr(verify_module.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(verify_module.os, "sched_getaffinity", lambda pid: set(range(affinity)))
    monkeypatch.setattr(verify_module.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(verify_module, "_SHARD_ORDER", 5)
    certs = verify_theorem_sweep("T13", 6, jobs=10**6)  # orders 3..6
    assert recording_pool.sizes == want
    assert recording_pool.submitted == [
        (orders, shard, workers + 1)
        for workers in want
        for orders in ([3, 4], [5], [6])
        for shard in range(1, workers + 1)
    ]
    assert [c.key for c in certs] == theorem_keys("T13", 6)
    assert certs == verify_theorem_sweep("T13", 6)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_sharded_sweeps_give_the_serial_certificates(monkeypatch, recording_pool, theorem):
    # with every order sharded, 2 and 3 shards (pools of 1 and 2 workers)
    # give what one pass an order gives, for every theorem to n = 14
    serial = verify_theorem_sweep(theorem, 14)
    monkeypatch.setattr(verify_module, "_SHARD_ORDER", 3)
    for workers in (2, 3):
        monkeypatch.setattr(verify_module, "_usable_cpus", lambda: workers)
        assert verify_theorem_sweep(theorem, 14, jobs=workers) == serial, workers
    assert recording_pool.sizes == [1, 2]


@pytest.mark.parametrize("theorem", THEOREMS)
def test_shard_zero_stays_in_this_process(monkeypatch, recording_pool, theorem):
    # with 3 shards a pool of 2 workers runs shards 1 and 2 of every pass,
    # and this process runs shard 0 of each, which is never submitted
    serial = verify_theorem_sweep(theorem, 12)
    monkeypatch.setattr(verify_module, "_SHARD_ORDER", 7)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 3)
    assert verify_theorem_sweep(theorem, 12, jobs=3) == serial
    assert recording_pool.sizes == [2]
    assert recording_pool.submitted and all(shard != 0 for _, shard, _ in recording_pool.submitted)


def test_sharded_sweep_through_a_process_pool(monkeypatch):
    serial = verify_theorem_sweep("T14", 14)
    monkeypatch.setattr(verify_module, "_SHARD_ORDER", 3)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    assert verify_theorem_sweep("T14", 14, jobs=2) == serial


@pytest.mark.parametrize("theorem", THEOREMS)
def test_sweep_certificates_are_their_keys_class_certificates(theorem):
    # the orders below _SHARD_ORDER share one pass, whose chunks hold rows
    # of several orders: each key counts and names only its own order's
    # trees, so every certificate is the one a pass over its key alone gives
    for cert in verify_theorem_sweep(theorem, 12):
        assert cert == verify_class(cert.key), cert.key


@pytest.mark.parametrize("theorem", THEOREMS)
def test_merged_and_per_order_passes_give_the_serial_certificates(
    monkeypatch, recording_pool, theorem
):
    # with _SHARD_ORDER at 9, orders 3..8 share a pass and 9..14 have one
    # each, in this process or each split into 2 shards, shard 1 of every
    # pass submitted to the pool
    serial = verify_theorem_sweep(theorem, 14)
    monkeypatch.setattr(verify_module, "_SHARD_ORDER", 9)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    for jobs in (1, 2):
        assert verify_theorem_sweep(theorem, 14, jobs=jobs) == serial, jobs
    small = sorted({key.n for key in theorem_keys(theorem, 8)})  # 3..8, D4's from 5
    assert recording_pool.submitted == [(small, 1, 2)] + [([n], 1, 2) for n in range(9, 15)]


def test_sweep_solves_its_predicted_members_in_one_call(monkeypatch):
    # the seeds of every order are eigensolved together, before any pass,
    # and each pass and shard gets their lambda1 with its arguments
    solved = []  # per call, the sequences not yet solved

    def solve(lam, sequences):
        solved.append([seq for seq in dict.fromkeys(sequences) if seq not in lam])
        _solve(lam, sequences)

    monkeypatch.setattr(verify_module, "_solve", solve)
    monkeypatch.setattr(verify_module, "_SHARD_ORDER", 9)  # passes 3..8, 9, 10, 11, 12
    certs = verify_theorem_sweep("T14", 12)
    # on a MATCH key the only contenders are the seeds, so the passes solve
    # nothing
    assert all_match(certs)
    assert {len(seq) for seq in solved[0]} == set(range(3, 13))
    assert len(solved) > 1 and not any(solved[1:])


def test_a_pass_filters_at_its_bounds_and_leaves_its_arguments_unchanged():
    # a pool pickles a shard's arguments on a feeder thread while this
    # process runs shard 0, so a pass must not add to the lambda1 it is
    # given; at the seeds' bounds it names only the seeds, at inf every tree
    keys = theorem_keys("T13", 8)
    populations = [cert.population for cert in verify_theorem_sweep("T13", 8)]
    seeds = [predicted_extremal(key).sequences[0] for key in keys]
    known = {}
    _solve(known, seeds)
    seeded = dict(known)
    bounds = np.array([known[seq] for seq in seeds]) + TIE_TOL + verify_module._FILTER_SLACK
    frozen = bounds.copy()
    population, contenders = verify_module._pass(keys, bounds, known, 0, 1)
    assert population == populations
    assert [[seq for _, seq in found] for found in contenders] == [[seq] for seq in seeds]
    population, contenders = verify_module._pass(keys, np.full(len(keys), math.inf), known, 0, 1)
    assert population == populations == list(map(len, contenders))
    assert known == seeded and np.array_equal(bounds, frozen)
    assert keys == theorem_keys("T13", 8)


def test_sweep_below_the_shard_order_starts_no_pool(monkeypatch):
    # an order below _SHARD_ORDER runs faster in-process than a pool starts
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    n_max = verify_module._SHARD_ORDER - 1
    serial = verify_theorem_sweep("T14", n_max, cap=n_max)
    monkeypatch.setattr(verify_module.concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    assert verify_theorem_sweep("T14", n_max, cap=n_max, jobs=2) == serial
