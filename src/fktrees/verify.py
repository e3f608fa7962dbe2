"""Extremal certificates: enumerate a class, find the members of minimal
first Dirichlet eigenvalue, and compare them with the predicted extremal
family.

A certificate records the class key, the number of non-isomorphic members,
the minimal first Dirichlet eigenvalue, every minimizer within the tie
tolerance (two eigenvalues closer than the tolerance are treated as equal,
so false uniqueness verdicts cannot occur), the predicted set, and the
verdict.  Verdicts for the settled characterizations are MATCH/MISMATCH by
set equality of canonical codes; the diameter classes with D >= 5 are only
conjectured, so their verdicts are CONJECTURE-MATCH (every minimizer is one
of the conjectured candidates) or CONJECTURE-MISMATCH.

Each theorem speaks about one class variant, so certificates are made per
variant, in streaming passes (_pass) over the trees of one or more orders
as the enumeration composes them around their centroids: chunks of rows
of indices into a table of rooted trees, each row the branches at a
centroid of one tree, tagged with its order (enumeration._chunks), up to
enumeration._CHUNK trees at a time.  The table of the pass's largest
order extends every smaller order's, so a row of any of its orders reads
the same there, and rows of equal width from different orders share
chunks.  The rule of a root over its branches (enumeration._root_over),
as sums and gathers over the table, gives every tree the invariants the
parameters of the pass's variant read (enumeration._PARAMS) and no
other: the matching number for NM, it and the leaf count for NMB, the
leaf count for NK and the diameter for ND.  A table of key ids with an
axis for the order and one per parameter of the variant, filled from the
keys' own fields before the first chunk, names the one key each tree may
have from its order and the parameters enumeration._params gives its
invariants, and np.bincount counts the populations.

Trees are named by their WROM level sequences, a canonical form of the
isomorphism class, with no tree built, each by the walk from the branches
at one vertex to the centre (enumeration._centre_sequence): a predicted
tree as families.predicted_extremal composes it from its family's shape,
and a composed one from its row's branches at a centroid.  Membership and
codes come from the sequence too: one children-first pass
(enumeration._read_sequence) gives a tree's matching number, leaf count,
diameter and canonical code, and a predicted tree is a member of a key
when the table that counts the populations takes its order and the
parameters of its (m, b, D) to that key.  A memo of readings per sweep and
a dict of lambda1 per pass keep any tree from being read or eigensolved
twice.  Every lambda1 comes from _solve, which reads the edges and
degrees of each sequence it lacks, assembles the Dirichlet matrices of
each interior size in one stack with spectral._assemble and solves each
stack with spectral._ground_states: bit for bit as first_eigenpair solves
the tree free_trees yields, since first_eigenpair goes through the same
two with a stack of one.

Each key has a seed: the least lambda1 of its predicted trees that are
members of the key, each solved as its WROM-labelled tree, or inf when no
predicted tree is a member.  _certify solves the predicted members of
every key of a sweep in one _solve call and sets each key's bound
y = seed + tol + _FILTER_SLACK once, before any pass; a pass filters at
the bounds it is given.  The class minimum is at most the seed, so no tree
whose every eigenvalue lies above y is within tol of the minimum, and a
pivot count rules such trees out without naming or eigensolving them.
Eliminating A - yI children first on a tree rooted at some vertex, a
vertex's pivot is deg - y - sum of 1/p over its children, and by
Sylvester's law of inertia A - yI is positive definite iff every pivot is
positive (Jacobs & Trevisan, "Locating the eigenvalues of trees", Linear
Algebra Appl. 434, 2011).  The slack covers the distance between the
float lambda1 and the exact eigenvalues the pivots bound, and _PIVOT_GUARD
the rounding of the pivots.  The count composes over a tree's centroid
branches, as the enumeration composes the trees: one pass over the table
per pass of the sweep gives every branch root's pivot at each key's y
(_branch_pivots), and each tree adds its centroid's (_composed_above).  A
key with no seed rules out nothing.  The others, the contenders, are
named (enumeration._centre_sequence) and their lambda1 looked up or
solved in one batch per chunk, so the trees named and solved do not
depend on the chunking or on the order of the trees.  Per key, _certify
adds up the populations its passes count and joins their contenders: its
lambda_min is the least lambda1 of its contenders and its minimizers are
the contenders within tol of it (a seed's lambda1 is exactly the one its
contender reports).  A minimizer's code is looked up among the predicted
trees'; only one no predicted tree covers, a MISMATCH, is read from its
sequence.  So every reported float is the first_eigenpair value of a
generator-labelled tree, and the certificates are those an eigensolve of
every member gives, byte for byte.  A single key and a theorem sweep
share this path.

A sweep certifies all its orders below _SHARD_ORDER in one pass, where
set-up costs more than the trees: one table, one _branch_pivots call over
the bounds of all their keys, one key table and shared chunks.  Each
order of at least _SHARD_ORDER vertices, which holds most of a sweep's
trees, has a pass of its own, so that the pivot table stays that of
_SHARD_ORDER - 1 vertices.  With jobs > 1 and some order that large,
every pass is split into W = min(jobs, usable CPUs) shards by one rule:
shard i lists the trees of ranks i, i + W, i + 2W, ... of every unit
(enumeration._chunks), so the shards partition the trees, split each unit
evenly and agree without communicating.  A pool of W - 1 processes runs
shards 1 to W - 1 of every pass while this process runs shard 0 of each;
a shard is given its keys, their bounds and the predicted members'
lambda1, and returns the populations and contenders of its trees.  A
sweep with no order that large starts no pool.  The trees named and
solved do not depend on the chunking, the order of the rows or the orders
a pass holds, and the minimizers are sorted by code, so the certificates
are the serial sweep's, byte for byte, whatever jobs is.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .enumeration import (
    DEFAULT_CAP,
    HARD_CAP,
    _PARAMS,
    ClassKey,
    _centre_sequence,
    _check_cap,
    _chunks,
    _params,
    _read_sequence,
    _root_over,
    _Rooted,
    _rooted,
    _sequence_edges,
)
from .errors import EmptyClassError
from .families import PredictedExtremal, predicted_extremal
from .spectral import DEFAULT_TOL, _assemble, _check_tol, _ground_states

__all__ = [
    "TIE_TOL",
    "ExtremalCertificate",
    "THEOREMS",
    "verify_class",
    "empty_class_certificate",
    "verify_theorem_sweep",
    "theorem_keys",
    "certificate_json",
    "all_match",
]

TIE_TOL = 1e-8

# The pivot filter eliminates at seed + tol + _FILTER_SLACK: the pivots prove
# a bound on the exact eigenvalues, while certificates compare the float
# lambda1 of first_eigenpair, which can sit ~1e-14 off the exact value on the
# interiors a sweep meets; the slack keeps that rounding from crossing the
# bound.
_FILTER_SLACK = 1e-9
# Rounded pivots are the exact pivots of a matrix perturbed by a few ulps per
# entry; demanding every pivot be at least _PIVOT_GUARD, far above that
# rounding, keeps a pivot that is truly zero or negative from passing.
_PIVOT_GUARD = 1e-9
# A sweep certifies its orders below _SHARD_ORDER in one pass, and each
# larger order in a pass of its own.  With jobs > 1 and some order that
# large, every pass is split into W shards: this process runs shard 0 of
# each and a pool of W - 1 workers the rest.  With no order that large it
# starts no pool.  On 2 CPUs with the fork start method, the 2-worker shard,
# pool start included, beats the serial pass for all four theorems at 19: in
# process on a 2-vCPU AMD EPYC with Python 3.11.7, medians of 12 alternating
# runs, --jobs 2 against --jobs 1 to n = 19 took 44 against 56 ms for T13,
# 59 against 75 for T14, 42 against 52 for Kloburstel and 39 against 54 for
# D4.  With the threshold patched to 18, --jobs 2 to n = 18 saved 5-13%, 1.4
# to 3.6 ms, too little to pay for a worker that starts by spawn or
# forkserver.  The threshold was measured under fork only.  Under spawn (the
# default on macOS and Windows) or forkserver (Python 3.14's default on
# Linux) the worker imports numpy and fktrees before its first shard: in
# process on a 2-vCPU Xeon with Python 3.11, T13 to n = 20 with --jobs 2
# took 0.44-0.48 s under spawn and 0.40-0.51 s under forkserver, against
# 0.20-0.22 s under fork and 0.29-0.35 s with --jobs 1.
_SHARD_ORDER = 19

# the class keys of order n each theorem speaks about; theorem_keys keeps the
# feasible ones
_THEOREM_KEYS = {
    "T13": lambda n: [ClassKey("NM", n, m=m) for m in range(1, n // 2 + 1)],
    "T14": lambda n: [
        ClassKey("NMB", n, m=m, b=b)
        for m in range(1, n // 2 + 1)
        for b in range(max(2, n - 2 * m + 1), n - m + 1)  # 1 <= t = 2m + b - n <= m
    ],
    "Kloburstel": lambda n: [ClassKey("NK", n, k=k) for k in range(1, n - 1)],
    "D4": lambda n: [ClassKey("ND", n, D=4)],
}
THEOREMS = tuple(_THEOREM_KEYS)


@dataclass(frozen=True)
class ExtremalCertificate:
    key: ClassKey
    population: int
    lambda_min: float | None
    minimizers: tuple[str, ...]
    predicted: tuple[str, ...]
    verdict: str
    tol: float


def certificate_json(cert: ExtremalCertificate) -> dict:
    return {
        "key": str(cert.key),
        "population": cert.population,
        "lambda_min": cert.lambda_min,
        "minimizers": list(cert.minimizers),
        "predicted": list(cert.predicted),
        "verdict": cert.verdict,
        "tol": cert.tol,
    }


def all_match(certs) -> bool:
    return all(c.verdict in ("MATCH", "CONJECTURE-MATCH") for c in certs)


def _certify(keys: list[ClassKey], tol: float, workers: int = 1) -> list[ExtremalCertificate]:
    """Certificates for feasible keys (so n >= 3; callers check the cap),
    all of one variant (else ValueError), listed by order, in that order.

    A key's predicted members are its predicted trees of its order that
    _key_table takes to it, and its bound is the least of their lambda1, or
    inf, + tol + _FILTER_SLACK.  When workers > 1 and some order reaches
    _SHARD_ORDER, this process runs shard 0 of every pass and a pool of
    workers - 1 processes the other shards."""
    key_of = _key_table(keys)
    read = functools.cache(_read_sequence)  # so that no tree is read twice
    predictions = [predicted_extremal(key) for key in keys]
    members = [
        [seq for seq in p.sequences if len(seq) == key.n and key_of(key.n, read(seq)[0]) == i]
        for i, (key, p) in enumerate(zip(keys, predictions))
    ]
    known: dict[bytes, float] = {}
    _solve(known, [seq for seqs in members for seq in seqs])
    seeds = [min((known[seq] for seq in seqs), default=math.inf) for seqs in members]
    y = np.array(seeds) + tol + _FILTER_SLACK
    groups: dict[int, list[int]] = {}  # key indices; 0 for the orders below _SHARD_ORDER
    for i, key in enumerate(keys):
        groups.setdefault(key.n if key.n >= _SHARD_ORDER else 0, []).append(i)
    passes = [([keys[i] for i in group], y[group], known) for group in groups.values()]
    shards = workers if max(groups) >= _SHARD_ORDER else 1
    pool = contextlib.nullcontext()
    if shards > 1:
        pool = concurrent.futures.ProcessPoolExecutor(shards - 1)
    with pool:
        futures = [
            [pool.submit(_pass, *args, i, shards) for i in range(1, shards)] for args in passes
        ]
        ours = [_pass(*args, 0, shards) for args in passes]
        results = [[own, *(f.result() for f in fs)] for own, fs in zip(ours, futures)]
    population = [0] * len(keys)
    contenders: list[list[tuple[float, bytes]]] = [[] for _ in keys]
    for group, result in zip(groups.values(), results):
        for counts, lists in result:
            for i, count, found in zip(group, counts, lists):
                population[i] += count
                contenders[i] += found
    return [
        _certificate(key, population[i], contenders[i], predictions[i], read, tol)
        for i, key in enumerate(keys)
    ]


def _key_table(keys: list[ClassKey]) -> Callable[[object, tuple], np.ndarray]:
    """key_of, which takes a tree's order n and (m, b, D), or arrays of
    them, to the index of its key among keys, or -1 for none, by the
    parameters _params gives them.  The table has an axis for n and one per
    parameter of the keys' one variant (_PARAMS); keys of several variants,
    or none, raise ValueError."""
    (variant,) = {key.variant for key in keys}
    params = _PARAMS[variant]
    key_id = np.full((max(key.n for key in keys) + 1,) * (1 + len(params)), -1, np.intp)
    for i, key in enumerate(keys):
        key_id[(key.n, *(getattr(key, p) for p in params))] = i
    return lambda n, mbD: key_id[(n, *_params(variant, n, *mbD[:3]))]


def _pass(
    keys: list[ClassKey], y: np.ndarray, known: dict[bytes, float], shard: int, shards: int
) -> tuple[list[int], list[list[tuple[float, bytes]]]]:
    """The population and the contenders, (lambda1, sequence) pairs, of each
    of keys, all of one variant, among the trees of their orders that shard
    of shards lists (enumeration._chunks).  y[i] is key i's bound and known
    holds the lambda1 of trees already solved; the pass changes neither, and
    a worker started by any method needs nothing else.

    A tree that _composed_above shows to lie above y[i] is counted without
    being named or eigensolved; every other tree is a contender.  So when
    y[i] is at least key i's class minimum + tol + _FILTER_SLACK, as a
    seed's bound is, the contenders within tol of their least lambda1 are
    the trees within tol of the class minimum, however the trees are chunked
    or sharded.  One _branch_pivots call over the table of the largest order
    serves every chunk, and a chunk has composed only the invariants the
    parameters of the keys' variant read (_PARAMS).
    """
    orders = sorted({key.n for key in keys})
    key_of = _key_table(keys)
    lam = dict(known)  # a pool may still be pickling known for another shard
    table = _rooted(max(orders) // 2)
    pivot = _branch_pivots(table, y)
    population = np.zeros(len(keys), np.int64)
    contenders: list[list[tuple[float, bytes]]] = [[] for _ in keys]
    for branches, n in _chunks(table, orders, shard, shards):
        kid = key_of(n, _root_over(table, branches, _PARAMS[keys[0].variant]))
        rows = np.flatnonzero(kid >= 0)
        branches, kid = branches[rows], kid[rows]
        population += np.bincount(kid, minlength=len(keys))
        contender = ~_composed_above(branches, kid, y, pivot)
        named = [
            (i, _centre_sequence([table.sequences[e] for e in row]))
            for row, i in zip(branches[contender].tolist(), kid[contender].tolist())
        ]
        _solve(lam, [seq for _, seq in named])
        for i, seq in named:
            contenders[i].append((lam[seq], seq))
    return population.tolist(), contenders


def _solve(lam: dict[bytes, float], sequences: list[bytes]) -> None:
    """Adds to lam the lambda1 of the tree of each level sequence it lacks
    (n >= 3, its root not a leaf), bit for bit what
    first_eigenpair(from_edge_list(n, _sequence_edges(seq))).lambda1 gives,
    without building the trees.

    The Dirichlet matrix comes from the sequence's edges and degrees: vertex
    v is position v, its parent the latest earlier vertex one level up, and
    the interior its non-leaves in ascending order, as dirichlet_matrix
    orders them.  spectral._assemble, which dirichlet_matrix calls with a
    stack of one, fills the matrices of each interior size in one stack,
    one eigensolve a stack, and spectral._ground_states checks every
    matrix at DEFAULT_TOL as first_eigenpair checks its one.
    """
    stacks: dict[int, dict[bytes, tuple]] = {}
    for seq in dict.fromkeys(sequences):
        if seq not in lam:
            edges = _sequence_edges(seq)
            degree = [0] + [1] * (len(seq) - 1)  # every vertex but the root has a parent
            for u, _ in edges:
                degree[u] += 1
            interior = [v for v, d in enumerate(degree) if d > 1]
            stacks.setdefault(len(interior), {})[seq] = interior, degree, edges
    for stack in stacks.values():
        w, _, _ = _ground_states(_assemble(list(stack.values())), DEFAULT_TOL)
        lam.update(zip(stack, w[:, 0].tolist()))


def _branch_pivots(table: _Rooted, y: np.ndarray) -> np.ndarray:
    """Pivots of shape (entries + 1, len(y)): column j holds, for every
    entry of an enumeration._rooted table seen as a branch, its root's
    pivot in eliminating A - y[j] I children first, or nan when some
    interior pivot of the branch is below _PIVOT_GUARD.

    A branch root has one neighbour outside the branch, so its degree is
    its child count + 1, its pivot is deg - y - sum of 1/p_c over its
    children c, and it depends on nothing outside.  A one-vertex branch is
    a leaf, on the boundary and outside the matrix: its pivot is inf, so
    that 1/p = 0.  A branch that fails is not divided by: its nan reaches
    every branch and tree that holds it and fails them too.  The last row
    is the inf of the -1 that pads the table's children.  One pass over the
    entries, a size at a time, covers all the columns, so a sweep computes
    its pivots once per order, one column per key.
    """
    pivot = np.full((len(table.sequences) + 1, len(y)), math.inf)
    for s in range(2, table.size + 1):
        children = table.children[s]
        p = (children >= 0).sum(axis=1, keepdims=True) + 1 - y
        for child in children.T:  # the j-th child of each entry
            p -= 1.0 / pivot[child]
        pivot[table.start[s] : table.start[s + 1]] = np.where(p >= _PIVOT_GUARD, p, math.nan)
    return pivot


def _composed_above(
    branches: np.ndarray, column: np.ndarray, y: np.ndarray, pivot: np.ndarray
) -> np.ndarray:
    """For each row of a chunk of enumeration._chunks, True when every
    Dirichlet eigenvalue of its tree is shown to exceed y[column[r]]; False
    when that is not shown.  pivot is _branch_pivots(table, y).

    The centroid the row roots its tree at is eliminated last: its pivot is
    deg - y - sum of 1/p_i over its branches.  A - yI is positive definite
    iff every pivot is positive, and a tree passes only when its last pivot
    is at least _PIVOT_GUARD, which no nan is.  A column with y = inf has
    every interior pivot -inf, so nothing there is shown.
    """
    last = branches.shape[1] - y[column] - (1.0 / pivot[branches, column[:, None]]).sum(axis=1)
    return last >= _PIVOT_GUARD


def _certificate(
    key: ClassKey,
    population: int,
    contenders: list[tuple[float, bytes]],
    prediction: PredictedExtremal,
    read: Callable[[bytes], tuple[tuple[int, int, int], str]],
    tol: float,
) -> ExtremalCertificate:
    """The certificate of one key, its codes from read, the order's memo of
    _read_sequence.  Every feasible key has a member, so population >= 1."""
    lambda_min = min(lam for lam, _ in contenders)
    minimizers = tuple(sorted(read(seq)[1] for lam, seq in contenders if lam <= lambda_min + tol))
    predicted = tuple(sorted({read(seq)[1] for seq in prediction.sequences}))
    if prediction.conjecture:
        verdict = (
            "CONJECTURE-MATCH"
            if set(minimizers) <= set(predicted)
            else "CONJECTURE-MISMATCH"
        )
    else:
        verdict = "MATCH" if minimizers == predicted else "MISMATCH"
    return ExtremalCertificate(
        key=key,
        population=population,
        lambda_min=lambda_min,
        minimizers=minimizers,
        predicted=predicted,
        verdict=verdict,
        tol=tol,
    )


def empty_class_certificate(key: ClassKey, tol: float = TIE_TOL) -> ExtremalCertificate:
    return ExtremalCertificate(
        key=key,
        population=0,
        lambda_min=None,
        minimizers=(),
        predicted=(),
        verdict="EMPTY_CLASS",
        tol=tol,
    )


def verify_class(
    key: ClassKey, tol: float = TIE_TOL, cap: int = DEFAULT_CAP
) -> ExtremalCertificate:
    """Certificate for a single feasible class key.

    Raises EmptyClassError for infeasible parameters, CapExceededError past
    the enumeration cap and ValueError for a tol not positive and finite.
    """
    _check_tol(tol)
    _check_cap(key.n, cap)
    if not key.feasible():
        raise EmptyClassError(f"class {key} admits no tree")
    return _certify([key], tol)[0]


def theorem_keys(theorem: str, n_max: int) -> list[ClassKey]:
    """All feasible keys a theorem speaks about, up to order n_max."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; pick one of {THEOREMS}")
    return [
        key
        for n in range(3, n_max + 1)
        for key in _THEOREM_KEYS[theorem](n)
        if key.feasible()
    ]


def verify_theorem_sweep(
    theorem: str,
    n_max: int,
    tol: float = TIE_TOL,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
) -> list[ExtremalCertificate]:
    """Certificates for every feasible key of a theorem up to n_max.

    The sweep passes iff every certificate verdict is MATCH (or
    CONJECTURE-MATCH for conjectured classes).  An n_max below the
    theorem's smallest order raises EmptyClassError, so a sweep that checks
    nothing cannot pass.  Bad tol and cap values raise as in verify_class,
    and jobs below 1 raises ValueError.
    """
    _check_tol(tol)
    _check_cap(n_max, cap)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    keys = theorem_keys(theorem, n_max)
    if not keys:
        first = theorem_keys(theorem, HARD_CAP)[0].n
        raise EmptyClassError(
            f"{theorem} has no class key with n <= {n_max}; "
            f"the smallest n_max with keys is {first}"
        )
    return _certify(keys, tol, min(jobs, _usable_cpus()))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, which os.cpu_count, every CPU of the machine, is not."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
