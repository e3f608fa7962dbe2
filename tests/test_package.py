"""The package's public names: each module's __all__, and nothing else;
and no private code that only the tests call."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import fktrees

# the modules `fktrees` re-exports, in import order
_MODULES = ("errors", "trees", "matching", "spectral", "families", "transforms", "enumeration", "verify")

_PUBLIC = {
    # errors
    "CapExceededError", "DisconnectedInteriorError", "EmptyClassError", "EmptyInteriorError",
    "FKTreesError", "InvalidBoundaryError", "InvalidChoiceError", "InvalidParametersError",
    "InvalidVertexError", "NoConvergenceError", "NonPositiveEigenvectorError", "NotATreeError",
    "PreconditionViolatedError", "ResultNotTreeError", "TooSmallError", "ZeroFunctionError",
    # trees
    "CanonicalCode", "TreeInvariants", "TreeWithBoundary", "canonical_code", "contact_set",
    "diameter", "from_edge_list", "from_graph6", "format_edge_list_text", "geodesic_path",
    "inscribed_radius", "invariants", "parse_edge_list_text",
    # matching
    "Matching", "matching_containing_pendants", "matching_number", "maximum_matching",
    # spectral
    "DirichletMatrix", "DirichletSpectrum", "build_path", "dirichlet_matrix", "eigenvalue_bounds",
    "first_eigenpair", "path_eigenvalue", "rayleigh_quotient", "zero_extension",
    # families
    "ForkPolynomial", "PredictedExtremal", "build_T", "build_comet", "build_fork", "build_star",
    "fork_char_poly", "fork_poly_difference", "predicted_extremal",
    # transforms
    "EdgeRewrite", "SwitchingCheckEntry", "SwitchingCheckReport", "admissible_switchings",
    "eigenvalue_after_switching_check", "jumping", "shifting", "switching",
    # enumeration
    "DEFAULT_CAP", "HARD_CAP", "ClassKey", "free_tree_edge_sets", "free_trees",
    # verify
    "THEOREMS", "TIE_TOL", "ExtremalCertificate", "all_match", "certificate_json",
    "empty_class_certificate", "theorem_keys", "verify_class", "verify_theorem_sweep",
}


def _exported(module) -> list[str]:
    # what `from module import *` takes: __all__, or every public name
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


def test_public_names_are_pinned():
    # submodules are attributes too, once imported; they are not names
    names = {
        n for n, v in vars(fktrees).items() if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert len(_PUBLIC) == 73
    assert names == _PUBLIC


def test_every_module_export_resolves_on_the_package():
    for name in _MODULES:
        module = importlib.import_module(f"fktrees.{name}")
        for export in _exported(module):
            assert getattr(fktrees, export) is getattr(module, export), (name, export)


# public functions, classes, methods and properties no module of the
# package calls, each with the consumer it is kept for (the criteria are
# tests/test_acceptance.py's)
_KEPT_WITHOUT_A_CALLER = {
    "trees.invariants": "criterion 2, and a perfbench span",
    "spectral.rayleigh_quotient": "criterion 3",
    "transforms.eigenvalue_after_switching_check": "criterion 4",
    "families.fork_char_poly": "criteria 8 and 9",
    "families.fork_poly_difference": "criteria 8 and 9",
    "matching.matching_containing_pendants": "criterion 11",
    "trees.from_graph6": "README's input API",
    "trees.TreeWithBoundary.neighbors": "criteria 2 and 11",
    "enumeration.free_trees": "criteria 2, 4, 11 and 12, and a perfbench span",
}


# the nodes that open a scope of their own names
_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp
)


def _local_reads(tree: ast.AST) -> set[int]:
    """id() of each Name node in tree that reads a name its own or an
    enclosing function, lambda or comprehension binds: as a parameter, or as
    an assignment, loop or comprehension target in that scope itself."""
    local = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, _SCOPES):
            continue
        parameters = ast.walk(scope.args) if hasattr(scope, "args") else ()  # comprehensions have none
        bound = {a.arg for a in parameters if isinstance(a, ast.arg)}
        stack = list(ast.iter_child_nodes(scope))
        while stack:  # a nested scope's targets are its own
            node = stack.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            if not isinstance(node, _SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        local.update(id(node) for node in ast.walk(scope) if isinstance(node, ast.Name) and node.id in bound)
    return local


def _unreferenced_definitions(package: Path) -> list[str]:
    """module.name of each module-level function or class, dunders aside,
    that no other top-level statement of the package refers to: by name, as
    an attribute, or as a string that is an identifier (cli looks its moves
    up by name).  A function calling itself is no reference, and neither is
    an __all__ entry or a local (a parameter, variable or comprehension
    variable) of the same name.  Also module.Class.name of each public
    method or property of a public class that no attribute read (x.name)
    refers to: a local variable or string of the same name is no use of a
    member."""
    defined, referenced, attributes = [], set(), set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            local = _local_reads(stmt)
            if isinstance(stmt, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in stmt.targets
            ):
                continue
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("__"):
                    defined.append((path.stem, own))
            if isinstance(stmt, ast.ClassDef) and not own.startswith("_"):
                defined += [
                    (path.stem, f"{own}.{member.name}")
                    for member in stmt.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
            for node in ast.walk(stmt):
                if id(node) in local:
                    continue
                if isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value if node.value.isidentifier() else None
                if isinstance(name, str) and name != own:
                    referenced.add(name)
    return [
        f"{module}.{name}"
        for module, name in defined
        if name.rpartition(".")[2] not in (attributes if "." in name else referenced)
    ]


def _unreferenced_private_definitions(package: Path) -> list[str]:
    return [d for d in _unreferenced_definitions(package) if d.split(".")[1].startswith("_")]


def test_no_private_code_without_a_caller_in_the_package():
    # code only the tests call belongs in tests/, beside what it checks
    assert _unreferenced_private_definitions(Path(fktrees.__file__).parent) == []


def test_no_public_code_without_a_consumer():
    # public API that nothing in the package calls is deleted, unless it is
    # kept for a consumer named in _KEPT_WITHOUT_A_CALLER
    unreferenced = _unreferenced_definitions(Path(fktrees.__file__).parent)
    public = [d for d in unreferenced if not d.split(".")[1].startswith("_")]
    assert sorted(public) == sorted(_KEPT_WITHOUT_A_CALLER)


def test_a_local_of_a_functions_name_is_no_use_of_it(tmp_path):
    # a parameter, a variable or a comprehension variable named like a
    # module-level function hides nothing: the function is still reported
    (tmp_path / "m.py").write_text(
        "def foo(): ...\n"
        "def bar(foo): return foo\n"
        "def baz():\n    foo = 1\n    return foo\n"
        "def qux(): return [foo for foo in ()]\n"
        "spam = lambda foo: foo\n"
    )
    assert _unreferenced_definitions(tmp_path) == ["m.foo", "m.bar", "m.baz", "m.qux"]
    # a call from another module is a use
    (tmp_path / "n.py").write_text("def quux(x): return foo(x)\n")
    assert _unreferenced_definitions(tmp_path) == ["m.bar", "m.baz", "m.qux", "n.quux"]


def test_ci_workflow_runs_the_tier1_command():
    # GitHub Actions cannot run offline, so the workflow is read as text: it
    # installs the test extras and runs the tier-1 command verbatim
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    lines = [line.strip() for line in workflow.read_text().splitlines()]
    assert 'run: pip install -e ".[test]"' in lines
    command = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
    assert f"run: {command}" in lines
    # and the oracle test past tier-1's n = 14, to n = 18
    oracle = "tests/test_enumeration.py::test_certificates_agree_with_an_independent_oracle"
    assert f"run: {command.split(' -q')[0]} -q {oracle} --oracle-n-max 18" in lines
    # a hung process-pool worker cannot hold a runner past this
    assert "timeout-minutes: 30" in lines
    # one version's failure does not cancel the other's job
    assert "fail-fast: false" in lines
    # at the top level, unindented: the job's token reads the repository
    # and can do nothing else
    raw = workflow.read_text().splitlines()
    assert raw[raw.index("permissions:") + 1] == "  contents: read"


def test_spectral_imports_only_errors_and_trees():
    # spectral is about one tree: the sweep's numerics, which need the
    # rooted table and the level sequences, live in verify
    path = Path(fktrees.__file__).parent / "spectral.py"
    relative = {
        node.module
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
    }
    assert relative == {"errors", "trees"}


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml is read as text (3.10 has no tomllib): every module of
    # the package parses with the grammar of the requires-python floor, and
    # the workflow runs the tests on that version too
    root = Path(__file__).resolve().parents[1]
    (line,) = [
        line for line in (root / "pyproject.toml").read_text().splitlines()
        if line.startswith("requires-python")
    ]
    major, minor = map(int, line.split('">=')[1].rstrip('"').split("."))
    for path in sorted((root / "src" / "fktrees").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    assert f'"{major}.{minor}"' in workflow
