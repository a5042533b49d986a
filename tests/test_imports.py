"""Four small ``ast`` checks in place of a linter.

- Every name a ``sparseipm`` module imports is used in that module: it appears
  as a name anywhere in the module, or in ``__all__``.
- Every public top-level function or class of ``sparseipm`` has a caller in
  ``src/`` or ``perfbench/``, not only in its own unit tests. A reference is a
  name, an attribute, an import alias or a string constant, since the
  benchmark's tracing binds names by string; ``__all__`` entries are strings.
- Every ``SolverOptions`` field is set somewhere in ``src/`` or
  ``perfbench/``: it appears there as a keyword argument or a string constant
  (``setattr`` by name). An option that only tests set is not a caller setting.
- No ``sparseipm`` function imports inside its body: every dependency of a
  module shows at its top.
"""
import ast
import dataclasses
from pathlib import Path

import pytest

import sparseipm
from sparseipm.ippmm import SolverOptions

MODULES = sorted(Path(sparseipm.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

# public names kept without a caller, with the reason
ALLOWED_UNREFERENCED = {
    "corrected_overlap": "criterion 10",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\nprint(np, c)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


def test_all_counts_as_use():
    assert unused_imports("from .m import f\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_public_names(modules: dict, others=()) -> list:
    """Public top-level functions and classes of ``modules`` (name -> source)
    that no source in ``modules`` or ``others`` references."""
    defined = {}
    refs = set()
    for module, source in [*modules.items(), *((None, s) for s in others)]:
        tree = ast.parse(source)
        if module is not None:
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")):
                    defined[node.name] = module
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return sorted(f"{module}.{name}" for name, module in defined.items()
                  if name not in refs)


def test_checker_flags_an_unreferenced_public_name():
    modules = {"a": "def f(): pass\ndef g(): pass\ndef _h(): pass\n"
                    "class C: pass\nclass D: pass\n",
               "b": "from a import C\nimport a\na.g()\n"}
    others = ["names = ['D']\n"]
    assert unreferenced_public_names(modules, others) == ["a.f"]


def test_no_public_name_only_tests_call():
    modules = {p.stem: p.read_text() for p in MODULES}
    unreferenced = unreferenced_public_names(
        modules, [p.read_text() for p in PERFBENCH])
    assert [name for name in unreferenced
            if name.split(".")[-1] not in ALLOWED_UNREFERENCED] == []


def unset_options(fields, sources) -> list:
    """Fields that no source passes as a keyword or names as a string."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.keyword):
                named.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return sorted(set(fields) - named)


def test_checker_flags_an_unset_option():
    sources = ["f(tol=1.0)\n", "for name in ('xi',): pass\nopts.cap = 3\n"]
    assert unset_options(["tol", "xi", "cap"], sources) == ["cap"]


def test_every_solver_option_has_a_caller():
    fields = [f.name for f in dataclasses.fields(SolverOptions)]
    assert unset_options(fields, [p.read_text() for p in MODULES + PERFBENCH]) == []


def function_local_imports(source: str) -> list:
    """Line numbers of ``import`` statements inside a function body."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(inner.lineno for stmt in node.body for inner in ast.walk(stmt)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


def test_checker_flags_a_function_local_import():
    source = ("import os\n"
              "def f():\n    from a import b\n    def g():\n        import c\n"
              "class K:\n    import d\n    def m(self):\n        import e\n")
    assert function_local_imports(source) == [3, 5, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text()) == []
