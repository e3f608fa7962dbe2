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
order and variant, in one streaming pass over the generator's blocks of
parent arrays (enumeration._parent_blocks), up to 1,024 trees at a time,
one column per tree and one row per vertex.  One children-first pass over
a block's rows gives every column's matching number, leaf count and
diameter; a lookup table from those to the key of that variant (see
_key_tuples) names the one bucket each tree may join, and np.bincount
counts the populations.  Each bucket keeps its key's running minimal
eigenvalue and the trees within the tie tolerance of it, so only the
minimizers are canonically coded.

A member needs its eigenvalue only if it could join the near list.  Before
its first block, each key's threshold is seeded with the first eigenvalue
of its first predicted tree that is a member (or, if none is, of its first
member): one eigensolve per key.  An O(n) pivot count of A - xI over the
members' columns (spectral._spectrum_above) at x = min(seed, running
lambda_min) + tol then rules out, without building or eigensolving them,
the trees whose every eigenvalue lies above x; such a tree could never
join.  Only the trees it cannot rule out take the per-tree path:
from_edge_list, first_eigenpair and the near-list update, in generator
order.  Seeds set thresholds and nothing
else: they never reach a population, a lambda_min or a minimizer list, so
every reported float is the first_eigenpair value of a generator-labelled
tree, and the certificates are those an eigensolve of every member gives,
byte for byte.  A single key and a theorem sweep share this pass.

Sweeps group a theorem's keys by order; with jobs > 1 the orders run in a
process pool of min(jobs, number of orders, CPU count) workers, each
returning the certificates of its order.  Results come back in key order,
so the output is deterministic either way.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .enumeration import (
    _PARAMS,
    DEFAULT_CAP,
    HARD_CAP,
    ClassKey,
    _array_invariants,
    _check_cap,
    _key_tuples,
    _parent_blocks,
    _parent_edges,
    classify,
)
from .errors import EmptyClassError
from .families import PredictedExtremal, predicted_extremal
from .spectral import _check_tol, _spectrum_above, first_eigenpair
from .trees import TreeWithBoundary, canonical_code, from_edge_list

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

THEOREMS = ("T13", "T14", "Kloburstel", "D4")


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


@dataclass
class _Bucket:
    """Running reduction of one key's members: their count, the minimal
    eigenvalue so far, and the (lambda1, tree) pairs within tol of it."""

    population: int = 0
    lambda_min: float = math.inf
    near: list[tuple[float, TreeWithBoundary]] = field(default_factory=list)


def _column_tree(n: int, parent: np.ndarray) -> TreeWithBoundary:
    """The tree of one _parent_blocks column."""
    return from_edge_list(n, _parent_edges(parent.tolist()))


def _certify_order(n: int, keys: list[ClassKey], tol: float) -> list[ExtremalCertificate]:
    """Certificates for feasible keys of order n (so n >= 3; callers check
    the cap), all of one variant (else ValueError), in the order given, from
    one pass over the parent-array blocks of that order.

    A tree joins its key's near list when lambda1 <= lambda_min + tol for
    the running minimum, and the list is pruned to that rule whenever the
    minimum drops.  The minimum only falls, so the list ends up as exactly
    the trees within tol of the class minimum, decided by the same float
    comparison as a filter over the whole class.

    Each key has a seed: the lambda1 of its first predicted tree that is a
    member, or else of its first member, solved before its first block is
    filtered.  The class minimum is at most the seed (up to the ~1e-15 by
    which relabelling an isomorph may move lambda1; _FILTER_SLACK covers
    it), so a tree that _spectrum_above shows to lie above min(seed,
    lambda_min) + tol could never join and is counted without being built
    or eigensolved.  Seeds set thresholds only: population, lambda_min and
    near come from the generator's own trees.
    """
    (variant,) = {key.variant for key in keys}  # else ValueError
    slot = list(_PARAMS).index(variant)  # _key_tuples and classify follow _PARAMS
    ids = {key: i for i, key in enumerate(keys)}
    buckets = [_Bucket() for _ in keys]
    predictions = [predicted_extremal(key) for key in keys]
    seed = np.full(len(keys), math.inf)
    for i, (key, prediction) in enumerate(zip(keys, predictions)):
        for tree in prediction.trees:
            if classify(tree)[slot] == key:
                seed[i] = first_eigenpair(tree).lambda1
                break
    # key id of each (m, b, D) code, looked up on first sight: -2 unseen, -1 none
    dims = (n // 2 + 1, n + 1, n)
    lookup = np.full(math.prod(dims), -2, np.intp)
    population = np.zeros(len(keys), np.int64)
    for parent, degree in _parent_blocks(n):
        code = np.ravel_multi_index(_array_invariants(parent, degree), dims)
        for c in set(code[lookup[code] == -2].tolist()):
            params = map(int, np.unravel_index(c, dims))
            lookup[c] = ids.get(ClassKey(*_key_tuples(n, *params)[slot]), -1)
        kid = lookup[code]
        cols = np.flatnonzero(kid >= 0)
        kid = kid[cols]
        population += np.bincount(kid, minlength=len(keys))
        for i in sorted(set(kid[np.isinf(seed[kid])].tolist())):
            first = cols[np.argmax(kid == i)]
            seed[i] = first_eigenpair(_column_tree(n, parent[:, first])).lambda1
        running = np.array([bucket.lambda_min for bucket in buckets])
        threshold = (np.minimum(seed, running) + tol)[kid]
        contender = ~_spectrum_above(parent[:, cols], degree[:, cols], threshold)
        for c, i in zip(cols[contender].tolist(), kid[contender].tolist()):
            tree = _column_tree(n, parent[:, c])
            lam = first_eigenpair(tree).lambda1
            bucket = buckets[i]
            if lam < bucket.lambda_min:
                bucket.lambda_min = lam
                bucket.near = [(l, t) for l, t in bucket.near if l <= lam + tol]
            if lam <= bucket.lambda_min + tol:
                bucket.near.append((lam, tree))
    for bucket, count in zip(buckets, population.tolist()):
        bucket.population = count
    return [
        _certificate(key, buckets[ids[key]], predictions[ids[key]], tol) for key in keys
    ]


def _certificate(
    key: ClassKey, bucket: _Bucket, prediction: PredictedExtremal, tol: float
) -> ExtremalCertificate:
    if not bucket.population:
        return empty_class_certificate(key, tol)
    minimizers = tuple(sorted(canonical_code(t).text for _, t in bucket.near))
    predicted = tuple(sorted({canonical_code(t).text for t in prediction.trees}))
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
        population=bucket.population,
        lambda_min=bucket.lambda_min,
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
    return _certify_order(key.n, [key], tol)[0]


def theorem_keys(theorem: str, n_max: int) -> list[ClassKey]:
    """All feasible keys a theorem speaks about, up to order n_max."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; pick one of {THEOREMS}")
    keys: list[ClassKey] = []
    if theorem == "T13":
        for n in range(3, n_max + 1):
            for m in range(1, n // 2 + 1):
                keys.append(ClassKey("NM", n, m=m))
    elif theorem == "T14":
        for n in range(3, n_max + 1):
            for m in range(1, n // 2 + 1):
                for b in range(2, n):
                    key = ClassKey("NMB", n, m=m, b=b)
                    if key.feasible():
                        keys.append(key)
    elif theorem == "Kloburstel":
        for n in range(3, n_max + 1):
            for k in range(1, n - 1):
                keys.append(ClassKey("NK", n, k=k))
    else:  # D4
        for n in range(5, n_max + 1):
            keys.append(ClassKey("ND", n, D=4))
    return keys


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
    nothing cannot pass.  Bad tol and cap values raise as in verify_class.
    """
    _check_tol(tol)
    _check_cap(n_max, cap)
    keys = theorem_keys(theorem, n_max)
    if not keys:
        first = theorem_keys(theorem, HARD_CAP)[0].n
        raise EmptyClassError(
            f"{theorem} has no class key with n <= {n_max}; "
            f"the smallest n_max with keys is {first}"
        )
    by_order: dict[int, list[ClassKey]] = {}
    for key in keys:
        by_order.setdefault(key.n, []).append(key)
    certify = functools.partial(_certify_order, tol=tol)
    workers = min(jobs, len(by_order), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_order = list(pool.map(certify, by_order.keys(), by_order.values()))
    else:
        per_order = list(map(certify, by_order.keys(), by_order.values()))
    # theorem_keys lists keys by ascending order, so this is key order
    return [cert for certs in per_order for cert in certs]
