"""Benchmark of fktrees: theorem sweeps and eigensolves on single large trees.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json: the
median wall time of the workload's job, repeated until ``--seconds`` have
passed, throughput, set-up time and peak memory.  Times are scaled to a
reference speed by the machine-speed probe of ``speed.py``; the times as
measured are printed on ``#`` lines.  With ``--trace 1`` it runs the job
untraced and then once with every layer boundary wrapped by the span
recorder, and reports the per-layer metrics.  Every output of every job is
checked.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import SpanRecorder, traced
from speed import SpeedProbe, now
from workloads import WORKLOADS, Tally, make_workload, order_populations

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11
UNTRACED_REPEATS = 3

# Layer boundaries wrapped in the traced run: (module, attribute, span name).
SPAN_TARGETS = [
    ("fktrees.enumeration", "free_trees", "enumeration.free_trees"),
    ("fktrees.trees", "from_edge_list", "trees.from_edge_list"),
    ("fktrees.trees", "invariants", "trees.invariants"),
    ("fktrees.trees", "diameter", "trees.diameter"),
    ("fktrees.trees", "inscribed_radius", "trees.inscribed_radius"),
    ("fktrees.trees", "contact_set", "trees.contact_set"),
    ("fktrees.trees", "canonical_code", "trees.canonical_code"),
    ("fktrees.matching", "matching_number", "matching.matching_number"),
    ("fktrees.spectral", "dirichlet_matrix", "spectral.dirichlet_matrix"),
    ("fktrees.spectral", "first_eigenpair", "spectral.first_eigenpair"),
    ("fktrees.spectral", "eigenvalue_bounds", "spectral.eigenvalue_bounds"),
    ("fktrees.families", "predicted_extremal", "families.predicted_extremal"),
    ("fktrees.verify", "verify_theorem_sweep", "verify"),
    ("fktrees.io", "dumps", "io.dumps"),
    ("fktrees.io", "read_tree_file", "io.read_tree_file"),
    ("fktrees.cli", "run", "cli.run"),
    ("fktrees.transforms", "switching", "transforms.switching"),
    ("fktrees.transforms", "shifting", "transforms.shifting"),
    ("fktrees.transforms", "jumping", "transforms.jumping"),
]


def import_program() -> None:
    """Import fktrees from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "fktrees" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'fktrees'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fktrees
    import fktrees.cli  # noqa: F401  (every module the spans wrap)

    if src.resolve() not in Path(fktrees.__file__).resolve().parents:
        print(f"perfbench: fktrees was imported from {fktrees.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def git_revision() -> str:
    """The checked-out commit, or "unknown" outside a repository or
    without a git binary."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import networkx
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "blas": blas_build,
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "seed": seed,
    }


def timed(job, **kwargs):
    """The job's output and the interval it ran in."""
    gc.collect()
    t0 = now()
    out = job(**kwargs)
    return out, (t0, now())


def job_intervals(workload, seconds: int, tally: Tally) -> list[tuple[float, float]]:
    """Repeat the job until ``seconds`` have passed; the last repeat may end
    after that."""
    intervals = []
    t0 = now()
    while now() - t0 < seconds:
        out, interval = timed(workload.job)
        intervals.append(interval)
        workload.check(out, tally)
        del out
    return intervals


def setup_intervals(args) -> list[tuple[float, float]]:
    """Fresh processes that start the interpreter, import the program and
    generate this workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    intervals = []
    for _ in range(2 if args.smoke else SETUP_PROBES):
        t0 = now()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        intervals.append((t0, now()))
    return intervals


def median_scaled(name: str, intervals, probe: SpeedProbe) -> float:
    """Median of the intervals scaled to the reference speed; both the times
    as measured and the scaled ones are printed."""
    scaled = probe.scaled(intervals)
    print(f"# {name} of {len(intervals)} samples, as measured: "
          + " ".join(f"{t1 - t0:.3f}" for t0, t1 in intervals))
    print(f"# {name} scaled to the reference speed:    " + " ".join(f"{t:.3f}" for t in scaled))
    return statistics.median(scaled)


def end_to_end(workload, args, tally: Tally, workdir: Path) -> dict:
    """The timed jobs, then peak memory, then the set-up processes."""
    with SpeedProbe(workdir / "speed.txt") as probe:
        jobs = job_intervals(workload, args.seconds, tally)
        # read before the set-up probes, which are children too; the
        # children so far are the pool workers of --jobs 2
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        setups = setup_intervals(args)
    wall_s = median_scaled("wall_s", jobs, probe)
    return {
        "wall_s": (wall_s, "s"),
        "trees_per_s": (workload.trees / wall_s, "1/s"),
        "setup_s": (median_scaled("setup_s", setups, probe), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(workload, tally: Tally, workdir: Path) -> dict:
    """A warm-up job, then untraced jobs and one traced job, all serial; layer
    metrics come from the spans of the traced one, as measured.  The
    tracing overhead compares the jobs' times scaled to the reference speed."""
    matrices = {"bytes": 0, "max_interior": 0}

    def on_matrix(dm) -> None:
        matrices["bytes"] += 8 * dm.order * dm.order
        matrices["max_interior"] = max(matrices["max_interior"], dm.order)

    recorder = SpanRecorder()
    intervals = []
    with SpeedProbe(workdir / "speed.txt") as probe:
        for _ in range(1 + UNTRACED_REPEATS):  # the first pays for lazy imports and BLAS start-up
            out, interval = timed(workload.job, serial=True)
            workload.check(out, tally)
            del out
            intervals.append(interval)
        with traced(recorder, SPAN_TARGETS, {"spectral.dirichlet_matrix": on_matrix}):
            out, interval = timed(workload.job, serial=True)
        intervals.append(interval)
    certs = workload.check(out, tally)
    *untraced, traced_s = probe.scaled(intervals[1:])
    spans = recorder.summary()

    metrics = {}
    for _, _, name in SPAN_TARGETS:
        s = spans[name]
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.busy_s"] = (s["busy_s"], "s")
        metrics[f"{name}.self_s"] = (s["self_s"], "s")
    overhead = traced_s - statistics.median(untraced)
    codes = spans["trees.canonical_code"]["calls"]
    useful = sum(len(c["minimizers"]) for c in certs)
    per_order = order_populations(certs)
    total = sum(per_order.values())
    metrics.update({
        "spectral.matrix_bytes": (matrices["bytes"], "B_computed"),
        "spectral.max_interior": (matrices["max_interior"], "count"),
        "verify.code_useful_ratio": (useful / codes if codes else 0.0, "ratio"),
        "verify.largest_order_share": (max(per_order.values()) / total if total else 0.0, "ratio"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_per_span_us": (1e6 * overhead / recorder.span_count, "us"),
        "trace.spans": (recorder.span_count, "count"),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configuration for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_program()
    workload = make_workload(args.workload, args.smoke)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload.setup(args.seed, Path(workdir))
        if args.setup_probe:
            return 0
        print("env " + json.dumps(environment(args.seed)), flush=True)
        tally = Tally()
        if args.trace:
            metrics = per_layer(workload, tally, Path(workdir))
        else:
            metrics = end_to_end(workload, args, tally, Path(workdir))

    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value!r} {unit}")
    # reported by the result line's "failed" and "attempted"; not a metric
    # of BENCHMARK.json, whose metrics must never read 0
    print(f"{'failed_frac':<40} {tally.failed / tally.attempted!r} ratio")
    for msg in tally.messages:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
