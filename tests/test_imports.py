"""Every name a test or source module imports is used in it, every
private module-level function or class of the package has a user in the
package, every public module-level function and every public method of a
package class has one or a listed reason to be public without one, every
defaulted parameter of a public function is listed with its reason, and no
module-level name is defined both in the package and in tests/oracles.py.

The package's __init__.py is left out of the import check: its imports are
its public re-exports."""

import ast
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SOURCES = sorted(HERE.glob("*.py")) + sorted(
    p for p in (HERE.parent / "src" / "nskoszul").glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read elsewhere in source."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport os\n"
        "from math import ceil, floor\nprint(os.sep, floor(1.5))\n"
    )
    assert unused_imports(source) == [(3, "ceil")]


PACKAGE = sorted((HERE.parent / "src" / "nskoszul").glob("*.py"))


def is_private(stmt) -> bool:
    is_def = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    return is_def and stmt.name[:1] == "_" and stmt.name[:2] != "__"


def is_public_function(stmt) -> bool:
    return isinstance(stmt, ast.FunctionDef) and stmt.name[:1] != "_"


def unreferenced_definitions(sources: dict, wanted) -> list:
    """(module, name) of each module-level definition that wanted(stmt)
    selects and that no source references outside its own definition.

    sources maps a module name to its text.  A reference is a name, an
    attribute or an imported name; the references inside a function's or
    class's own body (recursion, or a class naming itself) do not count for
    it."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defined = {}
    used = set()
    for mod, tree in trees.items():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if wanted(stmt):
                defined[own] = mod
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted((mod, name) for name, mod in defined.items() if name not in used)


def test_no_test_only_private_helpers():
    # a private helper that the package never calls serves only the tests,
    # and belongs in tests/oracles.py
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced_definitions(sources, is_private) == []


def test_scanner_finds_an_unreferenced_private_function():
    sources = {
        "a": (
            "def _used(): pass\ndef _recursive(n): return _recursive(n - 1)\n"
            "def _called_elsewhere(): pass\ndef _imported(): pass\n"
            "def __getattr__(name): pass\ndef public(): return _used()\n"
            "class K:\n    def _method(self): pass\n"
            "class _Unused:\n    def copy(self): return _Unused()\n"
            "class _Used: pass\nclass _Subclassed: pass\n"
        ),
        "b": (
            "import a\nfrom a import _imported\na._called_elsewhere()\na._Used()\n"
            "class Sub(a._Subclassed): pass\n"
        ),
    }
    assert unreferenced_definitions(sources, is_private) == [("a", "_Unused"), ("a", "_recursive")]


# Public functions that no package module calls, each with its reason.  The
# re-exports of __init__.py are not calls.
FOR_BENCHMARK = "the benchmark's gr4 workload calls it"
FOR_TRACER = "the benchmark's tracer reads it"
UNCALLED_PUBLIC = {"gr_module": FOR_BENCHMARK}


def test_public_functions_have_a_package_caller():
    sources = {path.stem: path.read_text() for path in PACKAGE if path.name != "__init__.py"}
    uncalled = unreferenced_definitions(sources, is_public_function)
    assert sorted(name for _, name in uncalled) == sorted(UNCALLED_PUBLIC)


def test_scanner_finds_an_uncalled_public_function():
    sources = {
        "a": (
            "def called(): pass\ndef stray(): pass\ndef _private(): pass\n"
            "def recursive(n): return recursive(n - 1)\nclass Public: pass\n"
            "def entry(): pass\nif __name__ == '__main__':\n    entry()\n"
        ),
        "b": "from a import called\n",
    }
    assert unreferenced_definitions(sources, is_public_function) == [
        ("a", "recursive"),
        ("a", "stray"),
    ]


def assigned(stmt) -> list:
    """The targets of an assignment or annotation; none for other nodes."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    return [stmt.target] if isinstance(stmt, ast.AnnAssign) else []


def field_names(tree) -> set:
    """The names the classes of a module bind as data: a class-level
    assignment or annotation (dataclass and named-tuple fields among them),
    or an assignment to an attribute of self."""
    names = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            names.update(t.id for stmt in cls.body for t in assigned(stmt) if isinstance(t, ast.Name))
            names.update(
                t.attr
                for node in ast.walk(cls)
                for t in assigned(node)
                if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self"
            )
    return names


def uncalled_methods(sources: dict) -> list:
    """(module, class, method) of each public method of a module-level class
    that no source reads as an attribute outside the method's own body.

    Dunder methods are left out: the language calls them.  Methods match by
    name, not by class, so a method shares the callers of every attribute
    of the same name.  Where some class also binds the name as a field, a
    read may be of the field, so only a call (obj.name(...)) counts for the
    method; a property of such a name is never called, so it is always
    listed."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    fields = set().union(*map(field_names, trees.values()))
    methods = []
    read = set()
    called = set()
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                scopes = stmt.body + stmt.bases + stmt.decorator_list
                for node in stmt.body:
                    if isinstance(node, ast.FunctionDef) and node.name[:1] != "_":
                        methods.append((mod, stmt.name, node.name))
            else:
                scopes = [stmt]
            for scope in scopes:
                own = getattr(scope, "name", None)
                for node in ast.walk(scope):
                    if isinstance(node, ast.Attribute) and node.attr != own:
                        read.add(node.attr)
                    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                        if node.func.attr != own:
                            called.add(node.func.attr)
    return sorted(m for m in methods if m[2] not in (called if m[2] in fields else read))


# Public methods that no package module calls, each with its reason.
UNCALLED_METHODS = {
    "BettiTable.restrict": FOR_BENCHMARK,
    "ExplicitGradedModule.degrees": FOR_TRACER,
}


def test_public_methods_have_a_package_caller():
    sources = {path.stem: path.read_text() for path in PACKAGE if path.name != "__init__.py"}
    uncalled = [f"{cls}.{name}" for _, cls, name in uncalled_methods(sources)]
    assert sorted(uncalled) == sorted(UNCALLED_METHODS)


def test_scanner_finds_an_uncalled_method():
    sources = {
        "a": (
            "class K:\n"
            "    def called(self): return self.helper()\n"
            "    def helper(self): pass\n"
            "    def stray(self): pass\n"
            "    def recursive(self): return self.recursive()\n"
            "    def _private(self): pass\n"
            "    def __len__(self): return 0\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "def f(k): return k.size\n"
        ),
        "b": "import a\na.K().called()\n",
    }
    assert uncalled_methods(sources) == [("a", "K", "recursive"), ("a", "K", "stray")]


def test_scanner_sees_past_a_field_of_the_same_name():
    # B.variable is a field and is read, which calls no method named
    # variable; C.size is called, though D binds a field size
    sources = {
        "a": (
            "class A:\n    def variable(self): pass\n"
            "class B:\n    variable: int\n"
            "class C:\n    def size(self): pass\n"
            "class D:\n    def __init__(self): self.size = 0\n"
        ),
        "b": "import a\ndef f(b, c): return b.variable, c.size()\n",
    }
    assert uncalled_methods(sources) == [("a", "A", "variable")]


def called_names(source: str) -> set:
    """The names that source calls, as a plain name or as an attribute."""
    funcs = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return {getattr(f, "attr", getattr(f, "id", None)) for f in funcs}


def test_benchmark_reasons_hold():
    # a name kept public for the benchmark moves to tests/oracles.py once
    # the benchmark's workloads stop calling it, or its tracer reading it
    called = called_names((HERE.parent / "perfbench" / "workloads.py").read_text())
    tracer = ast.parse((HERE.parent / "perfbench" / "tracing.py").read_text())
    traced = {node.attr for node in ast.walk(tracer) if isinstance(node, ast.Attribute)}
    for name, reason in {**UNCALLED_PUBLIC, **UNCALLED_METHODS}.items():
        assert reason != FOR_BENCHMARK or name.split(".")[-1] in called, name
        assert reason != FOR_TRACER or name.split(".")[-1] in traced, name


def test_scanner_finds_called_names():
    assert called_names("a.b(c(1))\nd = e\nf\n") == {"b", "c"}


def defaulted_parameters(sources: dict) -> list:
    """"function.parameter" for each parameter with a default value of a
    public module-level function or of a method of a public module-level
    class ("Class.method.parameter").  Private functions, private classes
    and parameters whose name starts with an underscore are left out."""
    out = []
    for text in sources.values():
        for stmt in ast.parse(text).body:
            if is_private(stmt):
                continue
            if isinstance(stmt, ast.ClassDef):
                methods = [f for f in stmt.body if isinstance(f, ast.FunctionDef)]
                defs = [(f"{stmt.name}.{f.name}", f) for f in methods]
            else:
                defs = [(stmt.name, stmt)] if isinstance(stmt, ast.FunctionDef) else []
            for name, f in defs:
                if is_private(f):
                    continue
                a = f.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                out.extend(f"{name}.{arg.arg}" for arg in defaulted if arg.arg[:1] != "_")
    return sorted(out)


# Every defaulted parameter of the package's public functions, each with
# its reason; a new knob fails the test until it is listed here.
BENCHMARK_PASSES = "the benchmark's workloads pass it"
DEFAULTED_PARAMETERS = {
    "resolve_module.minimize": BENCHMARK_PASSES,
    "linear_part.spec": BENCHMARK_PASSES,
    "betti_via_koszul.bound": BENCHMARK_PASSES,
    "run_sweep.char": "the sweep command and perfbench/record_golden.py pass it",
    "run_sweep.jobs": "the sweep command and perfbench/record_golden.py pass it",
    "sweep_cases.char": "run_sweep passes the sweep's characteristic",
    "ses_hilbert_check.char": "ses-check passes the ring's characteristic",
    "pivots.stored": "the lin walk reads the lows back from it for clearing",
    "main.argv": "the tests pass the arguments; the console script passes none",
}


def test_defaulted_parameters_are_listed():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert defaulted_parameters(sources) == sorted(DEFAULTED_PARAMETERS)
    called = called_names((HERE.parent / "perfbench" / "workloads.py").read_text())
    for name, reason in DEFAULTED_PARAMETERS.items():
        assert reason != BENCHMARK_PASSES or name.split(".")[-2] in called, name


def test_scanner_finds_defaulted_parameters():
    sources = {
        "a": (
            "def f(a, b=1, *, c, d=2): pass\ndef g(a): pass\ndef _h(a=1): pass\n"
            "def k(a, *, _private=False): pass\n"
            "class K:\n    def __init__(self, x=0): pass\n    def m(self, y=None): pass\n"
            "    def _n(self, z=1): pass\n"
            "class _P:\n    def m(self, y=None): pass\n"
            "def outer():\n    def inner(q=1): pass\n"
        ),
    }
    assert defaulted_parameters(sources) == ["K.__init__.x", "K.m.y", "f.b", "f.d"]


def module_level_names(source: str) -> set:
    """The names a module binds at its top level by def, class or assignment."""
    body = ast.parse(source).body
    names = {stmt.name for stmt in body if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    targets = [t for stmt in body if isinstance(stmt, ast.Assign) for t in stmt.targets]
    return names | {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_no_oracle_left_in_the_package():
    # a definition moved to tests/oracles.py leaves no copy behind in src
    oracle_names = module_level_names((HERE / "oracles.py").read_text())
    for path in PACKAGE:
        assert module_level_names(path.read_text()) & oracle_names == set(), path.name


def test_scanner_finds_module_level_names():
    source = "import os\nA = B = 1\ndef taylor(): inner = 2\nclass Report:\n    ok = True\n"
    assert module_level_names(source) == {"A", "B", "taylor", "Report"}
