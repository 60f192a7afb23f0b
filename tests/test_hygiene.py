"""Source hygiene: every module of the package uses each name it imports and holds
no assert statement, every top-level function and class of the package and every
method of its classes is used somewhere, the ones only tests use are each listed
with the reason they stay, every defaulted parameter of them is passed by some
call, and every function the benchmark's tracer wraps is still where the tracer
looks it up."""

import ast
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "breatherlab"
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


def names_read(source: str, strings: bool = False) -> set[str]:
    """Every Name id and Attribute attr in the source, and its string constants if asked."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function and class, and of
    each method of a top-level class other than a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def unused_definitions(package: dict[str, str], readers: list[str],
                       string_readers: list[str]) -> list[str]:
    """Definitions of the package (module name -> source) whose name no package module
    or reader of either kind reads, and no string constant of a string reader spells."""
    used = set().union(*(names_read(src) for src in [*package.values(), *readers]),
                       *(names_read(src, strings=True) for src in string_readers))
    return [f"{module}.{qualified}" for module, src in package.items()
            for qualified, name, _ in definitions(ast.parse(src)) if name not in used]


def test_checker_flags_an_unused_definition():
    package = {"a": "def helper():\n    pass\n\ndef dead():\n    helper()\n\nclass Gone:\n"
                    "    pass\n\nclass Kept:\n    def __init__(self):\n        self.run()\n\n"
                    "    def run(self):\n        pass\n\n    def stale(self):\n        pass\n",
               "b": "def by_test():\n    pass\n\ndef by_name():\n    pass\n"}
    readers = ["from a import Kept\nKept()\n", "import b\nb.by_test()\n"]
    assert unused_definitions(package, readers, ["TARGETS = ['by_name']\n"]) == [
        "a.dead", "a.Gone", "a.Kept.stale"]
    assert unused_definitions(package, readers, []) == [
        "a.dead", "a.Gone", "a.Kept.stale", "b.by_name"]


def test_package_defines_nothing_unused():
    # a function, class or method that nothing outside its definition names is dead
    package = {p.stem: p.read_text() for p in MODULES}
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_definitions(package, tests, bench) == []


def read_counts(node: ast.AST) -> Counter:
    """How often each Name id and Attribute attr is read under the node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def read_only_by_tests(package: dict[str, str], string_readers: list[str]) -> list[str]:
    """Definitions of the package (module name -> source) that no package module reads
    outside the definition's own body, and no string reader reads or spells: what is
    left for the tests to call."""
    trees = {module: ast.parse(src) for module, src in package.items()}
    reads = sum((read_counts(tree) for tree in trees.values()), Counter())
    outside = set().union(*(names_read(src, strings=True) for src in string_readers))
    return [f"{module}.{qualified}" for module, tree in trees.items()
            for qualified, name, node in definitions(tree)
            if name not in outside and reads[name] == read_counts(node)[name]]


def test_checker_flags_a_definition_only_tests_read():
    package = {"a": "def helper():\n    pass\n\ndef recursive(n):\n    return recursive(n)\n\n"
                    "def tested():\n    helper()\n\nclass Kept:\n    def run(self):\n"
                    "        return self.step()\n\n    def step(self):\n        return Kept()\n",
               "b": "def by_bench():\n    pass\n\ndef by_name():\n    pass\n"}
    bench = ["import b\nb.by_bench()\nTARGETS = ['by_name']\n"]
    assert read_only_by_tests(package, bench) == [
        "a.recursive", "a.tested", "a.Kept", "a.Kept.run"]


# each definition that only tests read, and why it stays (items of ROADMAP.md)
TEST_ONLY = {
    "breather.floquet_spectrum": "items 3 and 9: the window guard's and the Evans search's check",
    "propagator.sp_temp_check": "item 4: the Kato-smoothing check of the run record",
    "normalform.flow_generator": "item 7: the normal-form breather against the Newton one",
    "normalform.invariant_manifold_check": "item 7",
    "normalform.nf_point_to_state": "item 7",
    "normalform.state_to_nf_point": "item 7",
    "normalform.GradedHamiltonian.d_I": "the oracle of the Lie-series tests",
    "normalform.GradedHamiltonian.d_alpha": "the oracle of the Lie-series tests",
    "integrate.flow": "a public helper",
    "csvio.read_state": "a public helper",
    "lattice.LatticeState.scaled": "a public helper",
    "potential.PotentialSpec.monomial": "a public helper",
    "potential.PotentialSpec.zero": "a public helper",
}


def test_package_keeps_test_only_code_for_a_stated_reason():
    # a definition that only tests call is either on the list, with its reason, or dead
    package = {p.stem: p.read_text() for p in MODULES}
    bench = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert sorted(read_only_by_tests(package, bench)) == sorted(TEST_ONLY)


def defaulted_parameters(tree: ast.Module):
    """(qualified name, called name, parameter, position) of each parameter with a
    default of a top-level function or of a method of a top-level class.  A class
    is called by its own name for its __init__; the position counts without self
    and cls, and is None for a keyword-only parameter."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = [(node.name, node.name, node)]
        elif isinstance(node, ast.ClassDef):
            funcs = [(f"{node.name}.{item.name}",
                      node.name if item.name == "__init__" else item.name, item)
                     for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            continue
        for qualified, called, func in funcs:
            args = func.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional and positional[0] in ("self", "cls"):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            for i, name in enumerate(positional[first:], first):
                yield qualified, called, name, i
            for a, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualified, called, a.arg, None


def call_settings(sources: list[str]) -> set:
    """(called name, keyword or position) for every argument some call passes; a
    call through *args or **kwargs gives (called name, "*"), as it may set any."""
    out = set()
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute) else None)
            out.update((called, i) for i in range(len(node.args)))
            out.update((called, k.arg or "*") for k in node.keywords)
            if any(isinstance(a, ast.Starred) for a in node.args):
                out.add((called, "*"))
    return out


def unset_defaults(package: dict[str, str], readers: list[str]) -> list[str]:
    """Defaulted parameters of the package (module name -> source) that no call in
    the package or the readers passes: each is a constant with a name."""
    settings = call_settings([*package.values(), *readers])
    return [f"{module}.{qualified}({name})" for module, src in package.items()
            for qualified, called, name, pos in defaulted_parameters(ast.parse(src))
            if not {(called, name), (called, pos), (called, "*")} & settings]


def test_checker_flags_a_default_no_call_sets():
    package = {"a": "def f(x, by_pos=1, by_key=2, unset=3, *, only_key=4):\n    pass\n\n"
                    "def g(x, y=1):\n    pass\n\n"
                    "def h(x, y=1):\n    pass\n\n"
                    "class K:\n    def __init__(self, y=1, z=2):\n        pass\n\n"
                    "    def m(self, y=1, z=2):\n        pass\n\n"
                    "    @classmethod\n    def c(cls, y=1):\n        pass\n"}
    readers = ["from a import K, f, g, h\nf(0, 1, by_key=2)\ng(*args)\nh(0, **kw)\n"
               "K(5)\nK().m(z=3)\nK.c()\n"]
    assert unset_defaults(package, readers) == [
        "a.f(unset)", "a.f(only_key)", "a.K.__init__(z)", "a.K.m(y)", "a.K.c(y)"]


def test_package_sets_every_default():
    # a default that no caller overrides is a constant: it belongs in the body
    package = {p.stem: p.read_text() for p in MODULES}
    readers = [p.read_text() for d in ("tests", "perfbench")
               for p in sorted((ROOT / d).glob("*.py"))]
    assert unset_defaults(package, readers) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_has_no_assert_statement(path):
    # python -O strips asserts, so a check the program relies on must raise
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert lines == []


def test_benchmark_trace_targets_exist():
    """Every (owner, attribute) the benchmark's tracer wraps is still there."""
    path = ROOT / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    # exec, not import: loading the file must leave nothing behind in perfbench/
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owner, attr, _ in tracing.TARGETS if attr not in vars(owner)]
    assert tracing.TARGETS and missing == []
