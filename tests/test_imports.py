"""Every name a library module imports is used in that module, and every public definition is used.

A public top-level function or class must be called somewhere in the package
or re-exported from `__init__`; otherwise nothing but tests can reach it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dirichlet_hardy"

# perfbench's tracer test rebinds norms.factorize and checks that it is restored
ALLOWED_UNUSED = {("norms", "factorize")}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            while isinstance(node, ast.Attribute):
                node = node.value
            if isinstance(node, ast.Name):
                yield node.id


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set(referenced_names(tree))
    unused = {name for name in imported_names(tree) if name not in used}
    assert unused <= {name for module, name in ALLOWED_UNUSED if module == path.stem}, unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_dead_public_code(path):
    exported = set(imported_names(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))))
    used = {name for module in MODULES for name in used_names(ast.parse(module.read_text(encoding="utf-8")))}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert public <= exported | used, public - exported - used


def test_cli_only_parses_dispatches_and_renders():
    # the CLI reaches the library through `experiments` (routes, tables, records), `dseries`
    # (its input types), `report` and `errors`; it builds no record itself
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    allowed = {("experiments", None), ("dseries", None), ("report", None), ("errors", None),
               (None, "__version__")}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                assert (node.module, None) in allowed or (node.module, alias.name) in allowed, alias.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # absolute: the standard library only
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert not any(m.startswith("dirichlet_hardy") for m in modules), modules
    assert "ExperimentRecord" not in set(used_names(tree))


def test_experiments_sieves_only_in_sieved():
    # `_sieved` is the one rule that sizes a prime table; every other entry takes its table
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    users = {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
             if "sieve_primes" in (getattr(node, "id", None), getattr(node, "attr", None))}
    assert users == {"_sieved"}, users


def test_engine_calls_no_blas():
    # BLAS picks its blocking and threads by the machine, so a product through it could give
    # other bits for another worker count; norms contracts with einsum's plain loop only
    tree = ast.parse((PACKAGE / "norms.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        name = getattr(node, "attr", getattr(node, "id", None))
        assert name not in {"dot", "matmul", "tensordot"}, node.lineno
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.MatMult), node.lineno
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum":
            assert "optimize" not in {k.arg for k in node.keywords}, node.lineno


def test_only_norms_builds_norm_estimates():
    # the engines decide an estimate's power mean; every other module reads theirs
    for path in PACKAGE.glob("*.py"):
        if path.name == "norms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert name != "NormEstimate", f"{path.name}:{node.lineno}"


def test_only_report_turns_records_into_output_data():
    # a record becomes output data in one walk, in `report`: no module deep-copies it with
    # asdict or keeps a to_dict of its own, and only `report` reads dataclass fields generically
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set(used_names(tree)) | set(imported_names(tree))
        assert not names & {"asdict", "astuple", "to_dict"}, path.name
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "to_dict" not in defined, path.name
        if path.name != "report.py":
            assert not names & {"fields", "is_dataclass"}, path.name
