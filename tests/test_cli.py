"""Command-line interface: subcommands, formats, exit codes, round trips."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fktrees
from fktrees.cli import run
from fktrees.errors import NonPositiveEigenvectorError
from fktrees.spectral import DEFAULT_TOL, _ground_states, dirichlet_matrix, path_eigenvalue
from fktrees.verify import THEOREMS
from fktrees import (
    ClassKey,
    PredictedExtremal,
    build_path,
    canonical_code,
    format_edge_list_text,
    free_trees,
    from_edge_list,
    parse_edge_list_text,
    predicted_extremal,
)
from fktrees.enumeration import _level_sequences
from conftest import reference_dumps, reference_keys, spine_with_random_leaves


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text(format_edge_list_text(build_path(5)))
    return str(path)


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_eigen_p5(capsys, p5_file):
    code, out = run_capture(capsys, ["eigen", "--tree", p5_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda1"] == pytest.approx(2 * (1 - math.cos(math.pi / 4)), abs=1e-12)
    assert len(doc["eigenfunction"]) == 3
    assert doc["residual"] <= 1e-10
    assert doc["gap"] > 0


def test_eigen_text_format(capsys, p5_file):
    code, out = run_capture(capsys, ["eigen", "--tree", p5_file, "--format", "text"])
    assert code == 0 and "lambda1" in out


def test_family_emit_edges(capsys):
    code, out = run_capture(
        capsys, ["family", "T", "--p", "3", "--q", "2", "--b", "3"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "8" and len(lines) == 8


def _run_python(*args):
    src = str(Path(fktrees.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("module", ["fktrees", "fktrees.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = _run_python("-m", module, "family", "path", "--n", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n0 1\n1 2\n2 3\n"


def test_cli_import_does_not_load_networkx():
    proc = _run_python(
        "-c", "import sys, fktrees.cli; print('networkx' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_does_not_load_multiprocessing():
    # only a sweep with more than one worker starts a process pool, so
    # eigen, bounds and a serial verify never load the pool's modules
    proc = _run_python(
        "-c", "import sys, fktrees.cli; print('multiprocessing' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_SPAWNED_SHARDS = """
import multiprocessing
import fktrees.verify as verify
from fktrees.io import dumps

def lines(certs):
    return [dumps(verify.certificate_json(cert)) for cert in certs]

multiprocessing.set_start_method("spawn")
serial = lines(verify.verify_theorem_sweep("T13", 10))
verify._SHARD_ORDER, verify._usable_cpus = 3, lambda: 2
sharded = lines(verify.verify_theorem_sweep("T13", 10, jobs=2))
print(sharded == serial, len(serial))
"""


def test_shards_run_under_the_spawn_start_method():
    # a spawned worker inherits nothing from the sweep: each shard gets its
    # pass's keys and the lambda1 of their predicted members as arguments,
    # and computes the orders, bounds and table from them alone
    proc = _run_python("-c", _SPAWNED_SHARDS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True 24\n"


def test_family_round_trip_through_eigen(tmp_path, capsys):
    tree_file = tmp_path / "comet.txt"
    code = run(
        ["family", "comet", "--n", "6", "--k", "4", "--output", str(tree_file)]
    )
    assert code == 0
    code, out = run_capture(capsys, ["eigen", "--tree", str(tree_file)])
    assert code == 0
    lam = json.loads(out)["lambda1"]
    # comet(6, 4) = T(2,2,2) = P_6
    assert lam == pytest.approx(2 * (1 - math.cos(math.pi / 5)), abs=1e-10)


def test_family_json_emit(capsys):
    code, out = run_capture(
        capsys, ["family", "fork", "--a", "3", "--r", "2", "--n", "9", "--emit", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 9 and len(doc["edges"]) == 8 and "code" in doc


@pytest.mark.parametrize("emit", ["edges", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        "T --p 3 --q 2 --b 3",
        "T --p 0 --q 1 --b 5",
        "T --p 0 --q 4 --b 6",
        "comet --n 9 --k 2",
        "fork --a 3 --r 2 --n 9",
        "fork --a 4 --r 1 --n 9",
        "fork --a 3 --r 3 --n 14",
        "star --n 7",
        "path --n 6",
    ],
)
def test_family_bytes_match_golden(capsys, argv, emit):
    # recorded from `fktrees family ARGV --emit EMIT`: the labels the build_*
    # constructors give, which a relabelling of the same tree would change
    kind, *flags = argv.split()
    stem = "family_" + kind + "".join(f"_{f[2:]}{v}" for f, v in zip(flags[::2], flags[1::2]))
    golden = Path(__file__).parent / "data" / (stem + (".txt" if emit == "edges" else ".json"))
    code, out = run_capture(capsys, ["family", kind, *flags, "--emit", emit])
    assert code == 0
    assert out == golden.read_text(encoding="ascii")


@pytest.mark.parametrize(
    "command",
    [["eigen"], ["bounds"], ["transform", "--move", "shift 5 9 12"]],
    ids=["eigen", "bounds", "transform"],
)
def test_single_tree_json_bytes_match_golden(capsys, tmp_path, command):
    # recorded from `fktrees COMMAND --tree` on this 30-vertex caterpillar:
    # its 11-vertex interior is the spine 0..10, with leaf 11 at the end and
    # leaf v at v % 7 for v >= 12.  Every float is the dense solve's, down
    # to the last digit; the shift moves leaf 12 from 5 to 9, its delta read
    # from the ground state
    from fktrees import from_edge_list

    tree = from_edge_list(30, [(i, i + 1) for i in range(11)] + [(v % 7, v) for v in range(12, 30)])
    tree_file = tmp_path / "caterpillar30.txt"
    tree_file.write_text(format_edge_list_text(tree))
    golden = Path(__file__).parent / "data" / f"caterpillar30_{command[0]}.json"
    code, out = run_capture(capsys, [command[0], "--tree", str(tree_file), *command[1:]])
    assert code == 0
    assert out == golden.read_text(encoding="ascii")


@pytest.mark.parametrize("command", ["eigen", "bounds"])
def test_smallest_tree_solver_interior_bytes_match_golden(capsys, tmp_path, command):
    # recorded from `fktrees COMMAND --tree` on this 32-vertex caterpillar:
    # its 21-vertex interior, the smallest the tree solver takes, is the
    # spine 0..20, with leaf 21 at the end and leaf v at v % 7 for v >= 22.
    # A dense eigh prints other last digits here, so moving the solver
    # switch (HARD_CAP) moves these bytes
    tree = from_edge_list(32, [(i, i + 1) for i in range(21)] + [(v % 7, v) for v in range(22, 32)])
    assert tree.interior == tuple(range(21))
    tree_file = tmp_path / "caterpillar32.txt"
    tree_file.write_text(format_edge_list_text(tree))
    golden = Path(__file__).parent / "data" / f"caterpillar32_{command}.json"
    code, out = run_capture(capsys, [command, "--tree", str(tree_file)])
    assert code == 0
    assert out == golden.read_text(encoding="ascii")


def _recursive300():
    """A random recursive interior tree on 0..299, vertex i hanging off a
    random earlier one, with one pendant leaf at each interior leaf and one
    more at every seventh vertex; vertex 300 is 0's pendant."""
    rng = random.Random(300)
    edges = [(rng.randrange(i), i) for i in range(1, 300)]
    degree = [0] * 300
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    n = 300
    for v in range(300):
        for _ in range((degree[v] < 2) + (v % 7 == 0)):
            edges.append((v, n))
            n += 1
    return from_edge_list(n, edges)


@pytest.mark.parametrize(
    "command",
    [["eigen"], ["bounds"], ["transform", "--move", "shift 0 299 300"]],
    ids=["eigen", "bounds", "transform"],
)
def test_tree_solver_json_bytes_match_golden(capsys, tmp_path, command):
    # recorded from `fktrees COMMAND --tree` on _recursive300(), whose
    # 300-vertex interior is past HARD_CAP, with lambda1 and lambda2 from
    # plain bisection of the inertia count: the tree solver's search must
    # give the same floats, down to the last digit.  The shift moves leaf
    # 300 from 0 to 299
    tree = _recursive300()
    assert len(tree.interior) == 300 and tree.interior == tuple(range(300))
    tree_file = tmp_path / "recursive300.txt"
    tree_file.write_text(format_edge_list_text(tree))
    golden = Path(__file__).parent / "data" / f"recursive300_{command[0]}.json"
    code, out = run_capture(capsys, [command[0], "--tree", str(tree_file), *command[1:]])
    assert code == 0
    assert out == golden.read_text(encoding="ascii")


# recorded from each command on the 6-vertex caterpillar 0-1-2-3-4 with leaf
# 5 at 2, and its interior 1, 2, 3; text output, and the JSON of the single-
# tree commands: (argv, exit code, stdout)
_PINNED_OUTPUT = [
    (["eigen", "--tree", "{tree}"], 0,
     '{"lambda1":1.0000000000000004,"eigenfunction":[0.57735026918962573,0.57735026918962584,'
     '0.57735026918962595],"residual":3.3306690738754696e-16,"gap":1.0}\n'),
    (["eigen", "--tree", "{tree}", "--format", "text"], 0,
     "lambda1  = 1\neigenfunction = 0.57735026919 0.57735026919 0.57735026919\n"
     "residual = 3.331e-16\ngap      = 1.0\n"),
    (["bounds", "--tree", "{tree}"], 0,
     '{"lower":0.58578643762690497,"lambda1":1.0000000000000004,"upper":1.0}\n'),
    (["bounds", "--tree", "{tree}", "--format", "text"], 0,
     "lower=0.585786437627 lambda1=1 upper=1\n"),
    (["transform", "--tree", "{tree}", "--move", "jump 1 3 2"], 0,
     '{"kind":"jumping","removed":[[1,2]],"inserted":[[1,3]],"delta_numerator":3.6977854932234928e-32,'
     '"tree":{"n":6,"edges":[[0,1],[1,3],[2,3],[2,5],[3,4]],"boundary":[0,4,5],'
     '"code":"(0(0(1))(0(1))(1))"}}\n'),
    (["transform", "--tree", "{tree}", "--move", "jump 1 3 2", "--format", "text"], 0,
     "jumping: removed ((1, 2),) inserted ((1, 3),) delta_numerator 3.69778549322e-32\n"
     "6\n0 1\n1 3\n2 3\n2 5\n3 4\n"),
    (["verify-class", "--key", "NMB 8 3 3", "--format", "text"], 0,
     "NMB 8 3 3      population=2      lambda_min=0.3174929343  minimizers=1 MATCH\n"),
    (["verify-class", "--key", "NM 7 4", "--format", "text"], 1,
     "NM 7 4         population=0      lambda_min=-             minimizers=0 EMPTY_CLASS\n"),
    (["verify", "--theorem", "Kloburstel", "--n-max", "7", "--format", "text"], 0,
     "NK 3 1         population=1      lambda_min=2             minimizers=1 MATCH\n"
     "NK 4 1         population=1      lambda_min=3             minimizers=1 MATCH\n"
     "NK 4 2         population=1      lambda_min=1             minimizers=1 MATCH\n"
     "NK 5 1         population=1      lambda_min=4             minimizers=1 MATCH\n"
     "NK 5 2         population=1      lambda_min=1.381966011   minimizers=1 MATCH\n"
     "NK 5 3         population=1      lambda_min=0.5857864376  minimizers=1 MATCH\n"
     "NK 6 1         population=1      lambda_min=5             minimizers=1 MATCH\n"
     "NK 6 2         population=2      lambda_min=1.585786438   minimizers=1 MATCH\n"
     "NK 6 3         population=2      lambda_min=0.7530203963  minimizers=1 MATCH\n"
     "NK 6 4         population=1      lambda_min=0.3819660113  minimizers=1 MATCH\n"
     "NK 7 1         population=1      lambda_min=6             minimizers=1 MATCH\n"
     "NK 7 2         population=2      lambda_min=1.697224362   minimizers=1 MATCH\n"
     "NK 7 3         population=4      lambda_min=0.8299135134  minimizers=1 MATCH\n"
     "NK 7 4         population=3      lambda_min=0.4679111138  minimizers=1 MATCH\n"
     "NK 7 5         population=1      lambda_min=0.2679491924  minimizers=1 MATCH\n"),
]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize(
    "argv, exit_code, want",
    _PINNED_OUTPUT,
    ids=[" ".join(a).replace(" --tree {tree}", "") for a, _, _ in _PINNED_OUTPUT],
)
def test_output_bytes_pinned(capsys, tmp_path, argv, exit_code, want, to_file):
    # the same bytes reach stdout, or the --output file with nothing on stdout
    tree_file = tmp_path / "caterpillar6.txt"
    tree_file.write_text("6\n0 1\n1 2\n2 3\n3 4\n2 5\n")
    argv = [str(tree_file) if a == "{tree}" else a for a in argv]
    target = tmp_path / "out.txt"
    assert run(argv + ["--output", str(target)] if to_file else argv) == exit_code
    out = capsys.readouterr().out
    if to_file:
        assert out == "" and target.read_text(encoding="ascii") == want
    else:
        assert out == want and not target.exists()


def test_family_missing_parameter(capsys):
    code = run(["family", "comet", "--n", "6"])
    assert code == 2


def test_transform_switch(tmp_path, capsys):
    # caterpillar with an admissible switching
    from fktrees import from_edge_list

    t = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    tree_file = tmp_path / "t.txt"
    tree_file.write_text(format_edge_list_text(t))
    fn_file = tmp_path / "f.json"
    fn_file.write_text("[1.0, 1.0, 1.0]")
    code, out = run_capture(
        capsys,
        [
            "transform",
            "--tree", str(tree_file),
            "--move", "jump 1 3 2",
            "--function", str(fn_file),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "jumping"
    assert doc["delta_numerator"] == 0.0
    assert doc["tree"]["n"] == 6
    code, out = run_capture(
        capsys,
        [
            "transform",
            "--tree", str(tree_file),
            "--move", "jump 1 3 2",
            "--function", str(fn_file),
            "--format", "text",
        ],
    )
    assert code == 0
    head, body = out.split("\n", 1)
    assert head.startswith("jumping: removed ") and "delta_numerator 0" in head
    assert parse_edge_list_text(body).edges == tuple(map(tuple, doc["tree"]["edges"]))


def test_transform_bad_move_exits_2(capsys, p5_file):
    assert run(["transform", "--tree", p5_file, "--move", "warp 1 2"]) == 2
    assert run(["transform", "--tree", p5_file, "--move", "jump 1 3 2"]) == 2


def test_transform_precondition_message_prints_edges_as_pairs(capsys, p5_file):
    assert run(["transform", "--tree", p5_file, "--move", "switch -1 3 0 4"]) == 2
    assert "v1u1 = (-1, 0) is not an edge" in capsys.readouterr().err
    assert run(["transform", "--tree", p5_file, "--move", "shift 3 0 1"]) == 2
    assert "uv1 = (1, 3) is not an edge" in capsys.readouterr().err


def test_verify_class_match(capsys):
    code, out = run_capture(capsys, ["verify-class", "--key", "NMB 8 3 3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "MATCH" and doc["key"] == "NMB 8 3 3"


def test_verify_class_empty(capsys):
    code, out = run_capture(capsys, ["verify-class", "--key", "NM 7 4"])
    doc = json.loads(out)
    assert doc["verdict"] == "EMPTY_CLASS"
    assert code == 1  # only MATCH/CONJECTURE-MATCH exit 0


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    # one key predicts a member that is not minimal: only its line changes,
    # to the same population, lambda_min and minimizers with a MISMATCH
    argv = ["verify", "--theorem", "T13", "--n-max", "8"]
    code, out = run_capture(capsys, argv)
    assert code == 0
    right = out.splitlines()
    key = ClassKey("NM", 8, m=3)
    (line,) = [i for i, ln in enumerate(right) if json.loads(ln)["key"] == str(key)]
    want = json.loads(right[line])
    seq, code_text = next(
        (seq, canonical_code(tree).text)
        for seq, tree in zip(_level_sequences(8), free_trees(8), strict=True)
        if key in reference_keys(tree) and canonical_code(tree).text not in want["minimizers"]
    )

    def predicted(k):
        return PredictedExtremal((seq,)) if k == key else predicted_extremal(k)

    monkeypatch.setattr(fktrees.verify, "predicted_extremal", predicted)
    code, out = run_capture(capsys, argv)
    assert code == 1
    wrong = out.splitlines()
    assert json.loads(wrong[line]) == {**want, "predicted": [code_text], "verdict": "MISMATCH"}
    assert wrong[:line] + wrong[line + 1 :] == right[:line] + right[line + 1 :]


def test_verify_sweep(capsys):
    code, out = run_capture(capsys, ["verify", "--theorem", "T13", "--n-max", "7"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(json.loads(ln)["verdict"] == "MATCH" for ln in lines)


def test_verify_sweep_text(capsys):
    code, out = run_capture(
        capsys,
        ["verify", "--theorem", "Kloburstel", "--n-max", "6", "--format", "text"],
    )
    assert code == 0 and "MATCH" in out


def test_enumerate(capsys):
    code, out = run_capture(capsys, ["enumerate", "--n", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(ln)["n"] == 4 for ln in lines)


def test_enumerate_classify(capsys):
    code, out = run_capture(capsys, ["enumerate", "--n", "5", "--classify"])
    assert code == 0
    docs = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(docs) == 3
    assert all(len(d["classes"]) == 4 for d in docs)


def test_enumerate_text_lines_are_codes_and_keys(capsys):
    # one line per tree: its canonical code, then with --classify its class
    # keys, fields two spaces apart; the JSON lines keep their bytes
    code, out = run_capture(capsys, ["enumerate", "--n", "7", "--classify"])
    docs = [json.loads(ln) for ln in out.splitlines()]
    for argv, fields in ((["--format", "text"], 1), (["--classify", "--format", "text"], 5)):
        code, text = run_capture(capsys, ["enumerate", "--n", "7", *argv])
        assert code == 0
        lines = [ln.split("  ") for ln in text.splitlines()]
        assert [ln[0] for ln in lines] == [d["code"] for d in docs]
        assert all(len(ln) == fields for ln in lines)
        if fields > 1:
            assert [ln[1:] for ln in lines] == [d["classes"] for d in docs]


def test_enumerate_lines_match_built_trees(capsys):
    # each line enumerate reads off a level sequence is the line of the
    # tree free_trees builds: its edges, canonical_code and the reference keys
    for n in range(3, 13):
        for flag in ([], ["--classify"]):
            json_lines, text_lines = [], []
            for tree in free_trees(n):
                code = canonical_code(tree).text
                keys = [str(k) for k in reference_keys(tree)] if flag else []
                doc = {"n": n, "edges": [list(e) for e in tree.edges], "code": code}
                if flag:
                    doc["classes"] = keys
                json_lines.append(reference_dumps(doc) + "\n")
                text_lines.append("  ".join([code, *keys]) + "\n")
            for fmt, want in (("json", json_lines), ("text", text_lines)):
                rc, out = run_capture(capsys, ["enumerate", "--n", str(n), *flag, "--format", fmt])
                assert rc == 0
                assert out == "".join(want), (n, flag, fmt)


def test_enumerate_streams_one_write_per_tree(monkeypatch, tmp_path, capsys):
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["enumerate", "--n", "8", "--classify"]) == 0
    monkeypatch.undo()
    assert len(out.writes) == 23  # free trees on 8 vertices
    assert all(w.endswith("\n") and w.count("\n") == 1 for w in out.writes)
    target = tmp_path / "trees.jsonl"
    assert run(["enumerate", "--n", "8", "--classify", "--output", str(target)]) == 0
    assert target.read_text() == "".join(out.writes)
    assert capsys.readouterr().out == ""


def test_enumerate_walks_each_sequence_once(monkeypatch, capsys):
    # one _sequence_edges walk per tree serves both the reading and the
    # printed edges
    walked, sequence_edges = [], fktrees.enumeration._sequence_edges

    def counted(seq):
        walked.append(seq)
        return sequence_edges(seq)

    monkeypatch.setattr(fktrees.enumeration, "_sequence_edges", counted)
    monkeypatch.setattr(fktrees.cli, "_sequence_edges", counted)
    code, out = run_capture(capsys, ["enumerate", "--n", "8"])
    assert code == 0 and len(out.splitlines()) == len(walked) == 23


def test_enumerate_makes_the_keys_of_each_invariant_triple_once(monkeypatch, capsys):
    # a tree's four class keys depend on its (m, b, D) alone, so --classify
    # makes at most four ClassKeys per distinct (m, b, D) of the order
    triples = set()
    for tree in free_trees(10):
        nm, nmb, _, nd = reference_keys(tree)
        triples.add((nm.m, nmb.b, nd.D))
    made, post_init = [0], ClassKey.__post_init__

    def counted(key):
        made[0] += 1
        post_init(key)

    monkeypatch.setattr(ClassKey, "__post_init__", counted)
    code, out = run_capture(capsys, ["enumerate", "--n", "10", "--classify"])
    assert code == 0 and len(out.splitlines()) == 106
    assert 0 < made[0] <= 4 * len(triples) < 106


@pytest.mark.parametrize(
    "theorem, jobs",
    [pytest.param(t, "1", id=t) for t in THEOREMS]
    + [pytest.param(t, "2", id=f"{t}-jobs2") for t in THEOREMS],
)
def test_verify_bytes_match_golden_certificates(capsys, theorem, jobs):
    # recorded from `fktrees verify --theorem THEOREM --n-max 11`; the
    # certificate bytes are the output contract, down to the last digit, and
    # do not depend on the number of workers
    golden = Path(__file__).parent / "data" / f"verify_{theorem}_n11.jsonl"
    code, out = run_capture(
        capsys, ["verify", "--theorem", theorem, "--n-max", "11", "--jobs", jobs]
    )
    assert code == 0
    assert out == golden.read_text(encoding="ascii")


@pytest.mark.parametrize("theorem", THEOREMS)
def test_verify_bytes_match_golden_across_block_boundaries(capsys, monkeypatch, theorem):
    # at the default chunk size each order's units of one width share a
    # chunk; chunks of 7 trees split the larger units and leave short last
    # chunks, and the certificates must not notice
    monkeypatch.setattr(fktrees.enumeration, "_CHUNK", 7)
    golden = Path(__file__).parent / "data" / f"verify_{theorem}_n11.jsonl"
    code, out = run_capture(
        capsys, ["verify", "--theorem", theorem, "--n-max", "11", "--jobs", "1"]
    )
    assert code == 0
    assert out == golden.read_text(encoding="ascii")


@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ["--theorem", "T13", "--n-max", "16"],
            "5d11d5a867867731250cf9db70b7d1f18de574fe43ff41a40c8b519c9d122127",
            id="T13",
        ),
        pytest.param(
            ["--theorem", "T14", "--n-max", "16"],
            "1dd2e7bee77117d4340e7c9312316afe81ee2da40a625325cffeafe83c36d8aa",
            id="T14",
        ),
        pytest.param(
            ["--theorem", "Kloburstel", "--n-max", "16"],
            "bc8aca36d8eb77802ec21da3ab477f1367da6e181643047bb971e3ad964bcb8b",
            id="Kloburstel",
        ),
        pytest.param(
            ["--theorem", "D4", "--n-max", "16"],
            "002bf9c5b8b42ff24110d827a54908f69eed420c227084b92dcec2cb3a773dce",
            id="D4",
        ),
        pytest.param(
            ["--theorem", "T13", "--n-max", "18", "--cap", "18"],
            "03d3d584741ac86e6330aa50bd60ce81899db203bc0274c243db9c63d84b11bf",
            id="T13-n18",
        ),
        pytest.param(
            ["--theorem", "T14", "--n-max", "18", "--cap", "18"],
            "1c575dd70db5f0c0be863fe8ada804ebf36fb7280444f15c655c3e8f9e4ea772",
            id="T14-n18",
        ),
        pytest.param(
            ["--theorem", "T13", "--n-max", "20", "--cap", "20"],
            "c16770952ee294458d9b0c54810650b3857e11c0d76b8a1f5bb510819375fbc4",
            id="T13-n20",
        ),
        pytest.param(
            ["--theorem", "T14", "--n-max", "20", "--cap", "20"],
            "3dd185db2ebf56e0a6deb856f9c7f9fcdcc1f5663babbeba46d5236889930807",
            id="T14-n20",
        ),
        pytest.param(
            ["--theorem", "Kloburstel", "--n-max", "20", "--cap", "20"],
            "3bfcb8af88be6db79a785130a1696461bb5099f9a4b341296d8baac86fde072b",
            id="Kloburstel-n20",
        ),
        pytest.param(
            ["--theorem", "D4", "--n-max", "20", "--cap", "20"],
            "4d59b1a2add8463dc74de16de75cef98b914e46f945c011752584280456988a4",
            id="D4-n20",
        ),
    ],
)
def test_verify_bytes_pinned_past_the_golden_orders(capsys, argv, digest):
    # SHA-256 of the stdout of `fktrees verify ARGV`: the certificate bytes
    # of the orders past 11, many chunks each, where the pivot filter rules
    # out almost every tree
    code, out = run_capture(capsys, ["verify", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_enumerate_classify_bytes_match_golden(capsys):
    # recorded from `fktrees enumerate --n 10 --classify`: the labelled trees,
    # their order, their codes and the text of every class key
    golden = Path(__file__).parent / "data" / "enumerate_n10_classify.jsonl"
    code, out = run_capture(capsys, ["enumerate", "--n", "10", "--classify"])
    assert code == 0
    assert out == golden.read_text(encoding="ascii")


@pytest.mark.parametrize("command", ["eigen", "bounds"])
def test_input_caps_exit_2(capsys, monkeypatch, p5_file, command):
    # P5's file is 18 bytes and its interior has 3 vertices
    assert run_capture(capsys, [command, "--tree", p5_file])[0] == 0
    monkeypatch.setattr(fktrees.io, "MAX_TREE_FILE_BYTES", 17)
    assert run([command, "--tree", p5_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds 17 bytes" in captured.err
    monkeypatch.setattr(fktrees.io, "MAX_TREE_FILE_BYTES", 18)
    assert run_capture(capsys, [command, "--tree", p5_file])[0] == 0
    monkeypatch.setattr(fktrees.spectral, "MAX_DENSE_INTERIOR", 2)
    assert run([command, "--tree", p5_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "dense-solver cap 2" in captured.err


def test_localized_ground_state_is_solved(capsys, tmp_path):
    # a 206-vertex tree whose ground state spans 32 decades: eigh's smallest
    # entries are rounding noise of either sign, so the dense solve fails its
    # positivity check, while the tree solver gets every entry to about
    # float64 precision, as the componentwise residual shows
    tree = spine_with_random_leaves(100, random.Random(0))
    assert tree.n == 206
    with pytest.raises(NonPositiveEigenvectorError):
        _ground_states(dirichlet_matrix(tree).entries[None], DEFAULT_TOL)
    tree_file = tmp_path / "spine100.txt"
    tree_file.write_text(format_edge_list_text(tree))
    code, out = run_capture(capsys, ["eigen", "--tree", str(tree_file)])
    assert code == 0
    doc = json.loads(out)
    lam, f = doc["lambda1"], doc["eigenfunction"]
    assert min(f) > 0 and min(f) / max(f) < 1e-32
    value = dict(zip(tree.interior, f))
    for v, fv in value.items():
        af = len(tree.adj[v]) * fv - sum(value.get(u, 0.0) for u in tree.adj[v])
        assert abs(af - lam * fv) <= 1e-10 * lam * fv


def test_long_path_is_past_the_dense_cap(capsys, tmp_path):
    # 19,999 interior vertices, past MAX_DENSE_INTERIOR
    length = 20001
    tree_file = tmp_path / "p20001.txt"
    tree_file.write_text(f"{length}\n" + "".join(f"{i} {i + 1}\n" for i in range(length - 1)))
    code, out = run_capture(capsys, ["eigen", "--tree", str(tree_file)])
    assert code == 0
    assert abs(json.loads(out)["lambda1"] - path_eigenvalue(length)) <= 1e-15


def test_large_tree_builds_no_dense_matrix(capsys, monkeypatch, tmp_path):
    # a path with 2,000 interior vertices: eigen, bounds and transform all
    # solve it without a k x k matrix or a dense eigensolve
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(fktrees.spectral, "dirichlet_matrix", refuse)
    tree_file = tmp_path / "p2002.txt"
    tree_file.write_text(format_edge_list_text(build_path(2002)))
    for argv in (["eigen"], ["bounds"], ["transform", "--move", "switch 1 2001 0 2000"]):
        assert run_capture(capsys, [argv[0], "--tree", str(tree_file), *argv[1:]])[0] == 0


def test_gap_is_searched_only_when_read(capsys, monkeypatch, tmp_path):
    # a path with 2,000 interior vertices: bounds and transform run only
    # lambda1's searches, in at most 16 passes, eigen runs the same passes
    # and one lambda2 search and prints the gap plain bisection gives, and
    # a second read of gap runs no pass
    spectral, passes, searches = fktrees.spectral, [0], []
    eliminate, search = spectral._eliminate, spectral._search

    def counted(steps, x):
        passes[0] += 1
        return eliminate(steps, x)

    def recorded(count, j, lo, hi):
        start = passes[0]
        result = search(count, j, lo, hi)
        searches.append((j, passes[0] - start))
        return result

    monkeypatch.setattr(spectral, "_eliminate", counted)
    monkeypatch.setattr(spectral, "_search", recorded)
    tree_file = tmp_path / "p2002.txt"
    tree_file.write_text(format_edge_list_text(build_path(2002)))
    runs = {}
    for argv in (["bounds"], ["transform", "--move", "switch 1 2001 0 2000"], ["eigen"]):
        passes[0], searches[:] = 0, []
        code, out = run_capture(capsys, [argv[0], "--tree", str(tree_file), *argv[1:]])
        assert code == 0
        runs[argv[0]] = [*searches], passes[0], out
    lambda1, total, _ = runs["bounds"]
    assert lambda1 and all(j == 1 for j, _ in lambda1) and total <= 16
    assert runs["transform"][:2] == runs["bounds"][:2]
    eigen_searches, eigen_total, out = runs["eigen"]
    assert eigen_searches[:-1] == lambda1 and eigen_searches[-1][0] == 2
    assert eigen_total == total + eigen_searches[-1][1]
    assert out.endswith(',"gap":7.3947990506528799e-06}\n')
    searches[:] = []
    s = fktrees.first_eigenpair(build_path(2002))
    assert s.gap == 7.39479905065288e-06
    read = passes[0]
    assert s.gap == 7.39479905065288e-06 and passes[0] == read
    assert [j for j, _ in searches] == [j for j, _ in eigen_searches]


def test_function_file_cap_exits_2(capsys, monkeypatch, p5_file, tmp_path):
    # P5's file is 18 bytes; the function file on its 3 interior vertices is
    # longer, so a cap between the two refuses only the function
    fn_file = tmp_path / "f.json"
    fn_file.write_text("[0.5, 0.7071067811865476, 0.5]")
    argv = ["transform", "--tree", p5_file, "--move", "shift 1 3 0"]
    argv += ["--function", str(fn_file)]
    assert run_capture(capsys, argv)[0] == 0
    # an entry that is not a finite number, and an array nested past the
    # parser's recursion limit (200 KB, under the cap), are malformed input
    for bad in ("[1.0, {}, 1.0]", "[1.0, null, 1.0]", "[NaN, 1.0, 1.0]",
                "[" * 100_000 + "]" * 100_000):
        fn_file.write_text(bad)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("fktrees: error: ")
        assert captured.err.count("\n") == 1
    fn_file.write_text('["0.5", "0.7071067811865476", "0.5"]')  # numeric strings
    assert run_capture(capsys, argv)[0] == 0
    monkeypatch.setattr(fktrees.io, "MAX_TREE_FILE_BYTES", 18)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds 18 bytes" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-class", "--key", "NM 8 3"],
        ["verify-class", "--key", "NM 2 1"],
        ["enumerate", "--n", "8"],
    ],
)
def test_cap_past_hard_limit_exits_2(capsys, argv):
    assert run(argv + ["--cap", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cap <= 20" in captured.err


def test_bounds(capsys, p5_file, tmp_path):
    code, out = run_capture(capsys, ["bounds", "--tree", p5_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] - 1e-12 <= doc["lambda1"] <= doc["upper"] + 1e-12
    # P3 with B = {0} leaves leaf 2 in the interior: no proven lower bound
    tree_file = tmp_path / "p3_b0.txt"
    tree_file.write_text("3\n0 1\n1 2\nB: 0\n")
    code, out = run_capture(capsys, ["bounds", "--tree", str(tree_file)])
    assert code == 2 and out == ""
    assert run(["eigen", "--tree", str(tree_file)]) == 0


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["eigen"]) == 2
    assert run(["eigen", "--tree", "/nonexistent/file.txt"]) == 2
    assert run(["verify", "--theorem", "T13", "--n-max", "8", "--cap", "25"]) == 2
    assert run(["verify", "--theorem", "T13", "--n-max", "8", "--tol", "0"]) == 2
    assert "--tol must be positive" in capsys.readouterr().err
    # nan compares False against any residual or tie, so it would switch
    # the checks off; inf is no tolerance either
    for bad in ("nan", "inf"):
        assert run(["eigen", "--tree", "/nonexistent/file.txt", "--tol", bad]) == 2
        assert "--tol must be positive" in capsys.readouterr().err
        assert run(["verify", "--theorem", "T13", "--n-max", "8", "--tol", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol must be positive" in captured.err
        assert run(["verify", "--theorem", "T13", "--n-max", "8", "--tol", bad, "--format", "text"]) == 2
        assert capsys.readouterr().out == ""
    assert run(["verify", "--theorem", "T13", "--n-max", "8", "--jobs", "0"]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    # a sweep with no class key checks nothing, so it must not read as a pass
    assert run(["verify", "--theorem", "T13", "--n-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "smallest n_max with keys is 3" in captured.err
    assert run(["verify", "--theorem", "D4", "--n-max", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "smallest n_max with keys is 5" in captured.err


def test_deterministic_bytes(capsys):
    _, out1 = run_capture(capsys, ["verify", "--theorem", "D4", "--n-max", "8"])
    _, out2 = run_capture(capsys, ["verify", "--theorem", "D4", "--n-max", "8"])
    assert out1 == out2
    _, out3 = run_capture(
        capsys, ["verify", "--theorem", "D4", "--n-max", "8", "--jobs", "2"]
    )
    assert out1 == out3
