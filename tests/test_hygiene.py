"""Source hygiene: every module of the package uses each name it imports and holds
no assert statement, and every function the benchmark's tracer wraps is still where
the tracer looks it up."""

import ast
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "breatherlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau as t\nprint(sys.argv, t)\n"
    assert unused_imports(src) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_has_no_assert_statement(path):
    # python -O strips asserts, so a check the program relies on must raise
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert lines == []


def test_benchmark_trace_targets_exist():
    """Every (owner, attribute) the benchmark's tracer wraps is still there."""
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    # exec, not import: loading the file must leave nothing behind in perfbench/
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owner, attr, _ in tracing.TARGETS if attr not in vars(owner)]
    assert tracing.TARGETS and missing == []
