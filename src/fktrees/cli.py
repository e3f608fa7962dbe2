"""Command-line interface.

Subcommands: eigen, family, transform, verify, verify-class, enumerate,
bounds.  JSON is the machine format (stable bytes); text output is
human-oriented and carries no stability guarantee.  Exit codes: 0 success
(all verdicts MATCH/CONJECTURE-MATCH for verification commands), 1 mismatch,
2 usage or input errors.  All configuration is by flags; no environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from typing import Callable, Iterable, Iterator

from . import io as fkio
from . import transforms
from .enumeration import (
    DEFAULT_CAP,
    ClassKey,
    _check_order,
    _keys,
    _level_sequences,
    _read_sequence,
    _sequence_edges,
)
from .errors import EmptyClassError, FKTreesError
from .families import build_T, build_comet, build_fork, build_star
from .spectral import DEFAULT_TOL, build_path, eigenvalue_bounds, first_eigenpair
from .trees import format_edge_list_text
from .verify import (
    THEOREMS,
    TIE_TOL,
    all_match,
    certificate_json,
    empty_class_certificate,
    verify_class,
    verify_theorem_sweep,
)

__all__ = ["main", "run"]


@functools.cache  # a build costs some 30 parses, and the parser never changes
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fktrees",
        description="First Dirichlet eigenvalues of trees with leaf boundary: "
        "eigensolves, extremal families, edge rewrites, exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, handler) -> None:
        p.set_defaults(handler=handler)
        p.add_argument("--output", default=None, help="write results to this path")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("eigen", help="first Dirichlet eigenpair of a tree")
    p.add_argument("--tree", required=True, help="edge-list file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common(p, _cmd_eigen)

    p = sub.add_parser("family", help="construct a named extremal family member")
    p.add_argument("kind", choices=tuple(_FAMILIES))
    for flag in dict.fromkeys(f for _, flags in _FAMILIES.values() for f in flags):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--emit", choices=("edges", "json"), default="edges")
    common(p, _cmd_family)

    p = sub.add_parser("transform", help="apply one edge rewrite")
    p.add_argument("--tree", required=True)
    p.add_argument(
        "--move",
        required=True,
        help='"switch v1 v2 u1 u2" | "shift v1 v2 u" | "jump v1 v2 u"',
    )
    p.add_argument(
        "--function",
        default=None,
        help="JSON array of interior values (ascending vertex id); "
        "defaults to the first eigenfunction",
    )
    common(p, _cmd_transform)

    p = sub.add_parser("verify", help="sweep one theorem over all feasible keys")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--tol", type=float, default=TIE_TOL)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p, _cmd_verify)

    p = sub.add_parser("verify-class", help="certificate for a single class key")
    p.add_argument("--key", required=True, help='e.g. "NMB 8 3 3"')
    p.add_argument("--tol", type=float, default=TIE_TOL)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p, _cmd_verify_class)

    p = sub.add_parser("enumerate", help="stream all trees of one order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p, _cmd_enumerate)

    p = sub.add_parser("bounds", help="diameter/leaf-count eigenvalue sandwich")
    p.add_argument("--tree", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common(p, _cmd_bounds)

    return parser


def _validate(args: argparse.Namespace) -> None:
    """Reject flag values argparse's types let through; a subcommand without
    the flag passes its check."""
    if not 0 < getattr(args, "tol", 1.0) < float("inf"):  # nan fails too
        raise ValueError("--tol must be positive and finite")
    if getattr(args, "jobs", 1) < 1:
        raise ValueError("--jobs must be >= 1")


# family name: (constructor, the flags it takes, in argument order)
_FAMILIES = {
    "T": (build_T, ("p", "q", "b")),
    "comet": (build_comet, ("n", "k")),
    "fork": (build_fork, ("a", "r", "n")),
    "path": (build_path, ("n",)),
    "star": (build_star, ("n",)),
}


def _family_tree(args: argparse.Namespace):
    build, flags = _FAMILIES[args.kind]
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise ValueError(f"family {args.kind} needs {' '.join(missing)}")
    return build(*(getattr(args, f) for f in flags))


# --move: (fktrees.transforms function name, vertex ids).  Looked up per call,
# so a wrapper rebound on the module, as a profiler installs, is what runs.
_MOVES = {"switch": ("switching", 4), "shift": ("shifting", 3), "jump": ("jumping", 3)}


def _parse_move(move: str) -> tuple[str, list[int]]:
    tokens = move.split()
    if not tokens:
        raise ValueError("empty --move")
    kind = tokens[0].lower()
    if kind not in _MOVES:
        raise ValueError(f"unknown move {kind!r}; use switch/shift/jump")
    rewrite, arity = _MOVES[kind]
    if len(tokens) - 1 != arity:
        raise ValueError(f"move {kind!r} takes {arity} vertex ids")
    return rewrite, [int(t) for t in tokens[1:]]


def _formatted(
    args: argparse.Namespace, docs: Iterable[dict], render: Callable[[], list[str]]
) -> list[str]:
    """A command's output lines: its JSON documents, one a line, or under
    --format text the lines render() gives."""
    if args.format == "json":
        return [fkio.dumps(doc) for doc in docs]
    return render()


def _cmd_eigen(args) -> tuple[int, Iterable[str]]:
    tree = fkio.read_tree_file(args.tree)
    spectrum = first_eigenpair(tree, tol=args.tol)
    doc = fkio.spectrum_json(spectrum)
    return 0, _formatted(args, [doc], lambda: [
        f"lambda1  = {doc['lambda1']:.12g}",
        "eigenfunction = " + " ".join(f"{x:.12g}" for x in doc["eigenfunction"]),
        f"residual = {doc['residual']:.3e}",
        f"gap      = {doc['gap']}",
    ])


def _cmd_family(args) -> tuple[int, Iterable[str]]:
    tree = _family_tree(args)
    if args.emit == "edges":
        return 0, format_edge_list_text(tree).splitlines()
    return 0, [fkio.dumps(fkio.tree_json(tree))]


def _function_file(path: str) -> list[float]:
    """The values of a --function file: a JSON array of finite numbers,
    numeric strings among them; ValueError for anything else."""
    try:
        f = json.loads(fkio.read_capped(path))
        values = [float(x) for x in f] if isinstance(f, list) else None
    except (RecursionError, TypeError, OverflowError) as exc:  # nested too deep; not a number
        raise ValueError(f"--function file: {exc}") from None
    if values is None or not all(map(math.isfinite, values)):
        raise ValueError("--function file must hold a JSON array of finite numbers")
    return values


def _cmd_transform(args) -> tuple[int, Iterable[str]]:
    tree = fkio.read_tree_file(args.tree)
    if args.function is not None:
        f = _function_file(args.function)
    else:
        f = first_eigenpair(tree).eigenfunction.tolist()
    move, ids = _parse_move(args.move)
    new_tree, rewrite = getattr(transforms, move)(tree, *ids, f=f)
    doc = {
        "kind": rewrite.kind,
        "removed": [[u, v] for u, v in rewrite.removed],
        "inserted": [[u, v] for u, v in rewrite.inserted],
        "delta_numerator": rewrite.delta,
        "tree": fkio.tree_json(new_tree),
    }
    return 0, _formatted(args, [doc], lambda: [
        f"{rewrite.kind}: removed {rewrite.removed} inserted {rewrite.inserted} "
        f"delta_numerator {rewrite.delta:.12g}",
        *format_edge_list_text(new_tree).splitlines(),
    ])


def _certificate_text(c) -> str:
    lam = "-" if c.lambda_min is None else f"{c.lambda_min:.10g}"
    return (
        f"{str(c.key):<14} population={c.population:<6} "
        f"lambda_min={lam:<13} minimizers={len(c.minimizers)} {c.verdict}"
    )


def _certificates(args, certs) -> tuple[int, Iterable[str]]:
    """Exit 1 unless every verdict matches; one line per certificate."""
    lines = _formatted(
        args, map(certificate_json, certs), lambda: [_certificate_text(c) for c in certs]
    )
    return (0 if all_match(certs) else 1), lines


def _cmd_verify(args) -> tuple[int, Iterable[str]]:
    certs = verify_theorem_sweep(
        args.theorem, args.n_max, tol=args.tol, cap=args.cap, jobs=args.jobs
    )
    return _certificates(args, certs)


def _cmd_verify_class(args) -> tuple[int, Iterable[str]]:
    key = ClassKey.parse(args.key)
    try:
        cert = verify_class(key, tol=args.tol, cap=args.cap)
    except EmptyClassError:
        cert = empty_class_certificate(key, args.tol)
    return _certificates(args, [cert])


def _cmd_enumerate(args) -> tuple[int, Iterable[str]]:
    """One line per tree, written as each tree is generated: a JSON object,
    or as text its canonical code and, with --classify, its class keys,
    two spaces apart.  The trees are free_trees', read off their WROM level
    sequences with no tree built: each sequence's edges are read once, one
    _read_sequence pass over them gives the code and the (m, b, D), whose
    keys are made once per distinct (m, b, D), and the edges, each
    (parent, v) with parent < v, sort into from_edge_list's order."""
    _check_order(args.n, args.cap)  # before --output is created
    classes_of = functools.cache(lambda mbD: [str(k) for k in _keys(args.n, *mbD)])

    def lines() -> Iterator[str]:
        for seq in _level_sequences(args.n):
            edges = _sequence_edges(seq)
            mbD, code = _read_sequence(seq, edges)
            classes = classes_of(mbD) if args.classify else []
            if args.format == "text":
                yield "  ".join([code, *classes])
                continue
            doc = {"n": args.n, "edges": [list(e) for e in sorted(edges)], "code": code}
            if args.classify:
                doc["classes"] = classes
            yield fkio.dumps(doc)

    return 0, lines()


def _cmd_bounds(args) -> tuple[int, Iterable[str]]:
    tree = fkio.read_tree_file(args.tree)
    lower, upper = eigenvalue_bounds(tree)
    lam = first_eigenpair(tree, tol=args.tol).lambda1
    doc = {"lower": lower, "lambda1": lam, "upper": upper}
    return 0, _formatted(
        args, [doc], lambda: [f"lower={lower:.12g} lambda1={lam:.12g} upper={upper:.12g}"]
    )


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute one subcommand; returns the exit code.  The
    handler computes its exit code and output lines; only then is stdout,
    or the --output file, opened and each line written to it."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _validate(args)
        code, lines = args.handler(args)
        if args.output is None:
            sink = contextlib.nullcontext(sys.stdout)
        else:
            sink = open(args.output, "w", encoding="ascii")
        with sink as out:
            for line in lines:
                out.write(line + "\n")
        return code
    except (FKTreesError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"fktrees: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
