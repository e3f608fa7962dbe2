"""The benchmark's workloads: input generation, one timed job, output checks.

Every job drives the program through ``fktrees.cli.run`` only, looked up on
the module at call time so the traced run sees the wrapped entry point.
The program receives nothing but the generated inputs (argv and tree files).
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference" / "T14_n16.jsonl"

# Free trees per order (OEIS A000055); a sweep's per-order populations must
# add up to these.
FREE_TREE_COUNTS = {
    3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235,
    12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}

LAMBDA_TOL = 1e-12  # reference and closed-form eigenvalue agreement
RAYLEIGH_TOL = 1e-10  # Rayleigh quotient of the printed eigenfunction vs lambda1


class Tally:
    """Output checks attempted and failed; the first failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one ``fktrees`` command."""
    from fktrees import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


# -- sweeps -------------------------------------------------------------------


class Sweep:
    """``verify --theorem T14 --n-max N --jobs J``: the certificate stream.

    The input is the exhaustive population of every order up to N, so it
    does not depend on the seed.
    """

    def __init__(self, n_max: int, jobs: int) -> None:
        self.n_max = n_max
        self.jobs = jobs

    def setup(self, seed: int, workdir: Path) -> None:
        with open(REFERENCE, encoding="ascii") as fh:
            ref = [json.loads(line) for line in fh]
        self.reference = [c for c in ref if int(c["key"].split()[1]) <= self.n_max]
        self.trees = sum(FREE_TREE_COUNTS[n] for n in range(3, self.n_max + 1))

    def job(self, serial: bool = False) -> tuple[int, str]:
        jobs = 1 if serial else self.jobs
        return run_cli(["verify", "--theorem", "T14", "--n-max", str(self.n_max), "--jobs", str(jobs)])

    def check(self, out: tuple[int, str], tally: Tally) -> list[dict]:
        rc, text = out
        tally.check(rc == 0, f"verify exit code {rc}")
        try:
            certs = [json.loads(line) for line in text.splitlines()]
            keys = [c["key"] for c in certs]
        except (ValueError, TypeError, KeyError) as exc:
            tally.check(False, f"verify printed malformed certificates: {exc}")
            return []
        tally.check(keys == [c["key"] for c in self.reference], "certificate keys differ from the reference")
        for got, ref in zip(certs, self.reference):
            tally.check(_same_certificate(got, ref), f"certificate {ref['key']} differs from the reference")
        per_order = order_populations(certs)
        for n in range(3, self.n_max + 1):
            tally.check(
                per_order.get(n, 0) == FREE_TREE_COUNTS[n],
                f"order {n}: population {per_order.get(n, 0)} != {FREE_TREE_COUNTS[n]} free trees",
            )
        return certs


def _same_certificate(got: dict, ref: dict) -> bool:
    try:
        return (
            all(got[f] == ref[f] for f in ("key", "population", "minimizers", "predicted", "verdict"))
            and abs(got["lambda_min"] - ref["lambda_min"]) <= LAMBDA_TOL
        )
    except (KeyError, TypeError):
        return False


def order_populations(certs: list[dict]) -> dict[int, int]:
    per_order: dict[int, int] = {}
    for c in certs:
        n = int(c["key"].split()[1])
        per_order[n] = per_order.get(n, 0) + c["population"]
    return per_order


# -- single large trees -------------------------------------------------------


@dataclass
class TreeInput:
    shape: str
    path: str
    n: int
    interior: list[int]  # ascending vertex ids, the order of the eigenfunction
    edges: list[tuple[int, int]]
    move: str


def _interior_tree(shape: str, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of the interior, a tree on vertices 0..k-1."""
    if shape == "recursive":
        return [(rng.randrange(i), i) for i in range(1, k)]
    return [(i, i + 1) for i in range(k - 1)]  # the path, or the caterpillar's spine


def _choose_move(shape, inner_adj, pendants, pivot, rng) -> str:
    """A rewrite whose numerator delta is <= 0 for the positive ground state
    f, whatever f is.  Leaves have f = 0 exactly in the zero-extension."""
    with_leaf = [v for v in range(len(inner_adj)) if pendants[v]]
    if shape == "path":
        # switch the supports of the two leaves: delta = 2 (.)(f(u1) - f(v2)) = 0
        v1, u2 = rng.sample(with_leaf, 2)
        return f"switch {v1} {pendants[u2][0]} {pendants[v1][0]} {u2}"
    if pivot is None:
        # move a leaf u from v1 onto another leaf v2: delta = -f(v1)^2
        v1, w = rng.sample(with_leaf, 2)
        return f"shift {v1} {pendants[w][0]} {pendants[v1][0]}"
    # jump v1 over the pivot u onto v2: v1 and v2 are interior leaves of u
    # with one pendant each, so f(v1) = f(v2) by symmetry and
    # delta = (f(v1) - f(v2))^2 - (f(v1) - f(u))^2 <= 0
    v1, v2 = rng.sample([v for v in inner_adj[pivot] if len(inner_adj[v]) == 1], 2)
    return f"jump {v1} {v2} {pivot}"


def make_tree(shape: str, k: int, rng: random.Random, workdir: Path) -> TreeInput:
    """A tree with exactly k interior vertices, randomly labelled, written to
    a file in the edge-list format.

    Each interior vertex gets just enough pendant leaves to have degree 2;
    every caterpillar spine vertex gets one more, and so does the recursive
    tree's jump pivot, which must touch the boundary.  Random leaf counts
    are avoided on purpose: see README.md on localized ground states.
    """
    inner = _interior_tree(shape, k, rng)
    inner_adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in inner:
        inner_adj[a].append(b)
        inner_adj[b].append(a)
    counts = [max(0, 2 - len(adj)) + (shape == "caterpillar") for adj in inner_adj]
    pivot = None
    if shape == "recursive":
        pivots = [u for u in range(k) if sum(len(inner_adj[v]) == 1 for v in inner_adj[u]) >= 2]
        if pivots:  # a small tree may have none; it gets a shift instead
            pivot = rng.choice(pivots)
            counts[pivot] += 1
    edges = list(inner)
    pendants: list[list[int]] = []
    n = k
    for v in range(k):
        pendants.append(list(range(n, n + counts[v])))
        edges.extend((v, leaf) for leaf in pendants[v])
        n += counts[v]
    kind, *ids = _choose_move(shape, inner_adj, pendants, pivot, rng).split()
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in edges]
    move = " ".join([kind] + [str(perm[int(v)]) for v in ids])
    path = workdir / f"{shape}.txt"
    path.write_text(f"{n}\n" + "".join(f"{a} {b}\n" for a, b in edges), encoding="ascii")
    return TreeInput(shape, str(path), n, sorted(perm[v] for v in range(k)), edges, move)


class SingleTree:
    """``eigen``, ``bounds`` and one ``transform`` on each of three large trees."""

    shapes = ("path", "caterpillar", "recursive")

    def __init__(self, sizes: dict[str, int]) -> None:
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.inputs = [make_tree(s, self.sizes[s], rng, workdir) for s in self.shapes]
        self.trees = len(self.inputs)

    def job(self, serial: bool = False) -> list[tuple[tuple[int, str], ...]]:
        return [
            (
                run_cli(["eigen", "--tree", t.path]),
                run_cli(["bounds", "--tree", t.path]),
                run_cli(["transform", "--tree", t.path, "--move", t.move]),
            )
            for t in self.inputs
        ]

    def check(self, out, tally: Tally) -> list[dict]:
        for t, ((rc_e, eig), (rc_b, bnd), (rc_t, trf)) in zip(self.inputs, out):
            tag = f"{t.shape} tree"
            tally.check(rc_e == 0, f"{tag}: eigen exit code {rc_e}")
            tally.check(rc_b == 0, f"{tag}: bounds exit code {rc_b}")
            tally.check(rc_t == 0, f"{tag}: transform exit code {rc_t}")
            if rc_e or rc_b or rc_t:
                continue
            try:
                self._check_outputs(t, json.loads(eig), json.loads(bnd), json.loads(trf), tally)
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                tally.check(False, f"{tag}: malformed output: {exc!r}")
        return []

    @staticmethod
    def _check_outputs(t: TreeInput, eig: dict, bnd: dict, trf: dict, tally: Tally) -> None:
        from fktrees.spectral import path_eigenvalue

        tag = f"{t.shape} tree"
        lam = eig["lambda1"]
        f = np.array(eig["eigenfunction"])
        tally.check(
            f.size == len(t.interior) and bool(np.all(f > 0)),
            f"{tag}: eigenfunction is not positive on the interior",
        )
        if f.size == len(t.interior):
            fhat = np.zeros(t.n)
            fhat[t.interior] = f
            ends = np.array(t.edges)
            rq = float(np.sum((fhat[ends[:, 0]] - fhat[ends[:, 1]]) ** 2) / np.dot(f, f))
            tally.check(abs(rq - lam) <= RAYLEIGH_TOL, f"{tag}: Rayleigh quotient {rq} != lambda1 {lam}")
        if t.shape == "path":
            exact = path_eigenvalue(t.n)
            tally.check(abs(lam - exact) <= LAMBDA_TOL, f"{tag}: lambda1 {lam} != closed form {exact}")
        # the nominal lower bound is known to be false, so it is not checked
        tally.check(bnd["lambda1"] <= bnd["upper"], f"{tag}: lambda1 above the upper bound")
        tally.check(abs(bnd["lambda1"] - lam) <= LAMBDA_TOL, f"{tag}: bounds and eigen disagree on lambda1")
        tally.check(trf["delta_numerator"] <= 0.0, f"{tag}: rewrite delta {trf['delta_numerator']} > 0")
        tally.check(
            trf["tree"]["n"] == t.n and len(trf["tree"]["edges"]) == t.n - 1,
            f"{tag}: rewritten tree has the wrong size",
        )


def make_workload(name: str, smoke: bool):
    n_max = 8 if smoke else 16
    if name == "sweep-serial":
        return Sweep(n_max, jobs=1)
    if name == "sweep-j2":
        return Sweep(n_max, jobs=2)
    if name == "single-tree":
        sizes = (
            {"path": 40, "caterpillar": 30, "recursive": 30}
            if smoke
            else {"path": 2000, "caterpillar": 1500, "recursive": 1250}
        )
        return SingleTree(sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-serial", "sweep-j2", "single-tree")
