"""Eighteen small ``ast`` checks in place of a linter, and two on the README.

- Every name a ``sparseipm`` module imports is used in that module: it appears
  as a name anywhere in the module, or in ``__all__``.
- Every public top-level function or class of ``sparseipm`` has a caller in
  ``src/`` or ``perfbench/``, not only in its own unit tests. A reference is a
  name, an attribute, an import alias or a string constant, since the
  benchmark's tracing binds names by string; ``__all__`` entries are strings.
- Every ``SolverOptions`` field is set somewhere in ``src/`` or
  ``perfbench/``: it appears there as a keyword argument or a string constant
  (``setattr`` by name). An option that only tests set is not a caller setting.
- Every ``ConvexProgram`` field is read as an attribute somewhere in
  ``src/sparseipm`` outside its own class: an input no solver code reads is
  not an input.
- Every attribute that a ``sparseipm`` class assigns, as ``self.<name> = ...``
  or as a dataclass field, is loaded somewhere in ``src/`` or
  ``perfbench/``: as an attribute, a keyword or a string (``getattr`` by
  name). An attribute that only tests read is not kept.
- No ``sparseipm`` function imports inside its body: every dependency of a
  module shows at its top.
- Every defaulted parameter of a ``sparseipm`` function or method, public or
  private, is passed by some call in ``src/`` or ``perfbench/``, by keyword
  or by position; one that no caller passes would be a constant. Calls match
  by the callee's name; ``__init__`` also goes by its class's name, and a
  method's positions skip ``self``. A call with ``*`` or ``**`` passes every
  parameter.
- Within ``src/sparseipm`` only ``quadratic_program`` and ``split_l1_program``
  construct a ``ConvexProgram``, so every builder shares their oracle padding.
- Within ``src/sparseipm`` only ``ippmm.AugmentedSystem.factor`` and
  ``harness._cmd_spectest`` call ``.hess_action(``, and no module names a
  ``hess_<word>`` other than ``hess_action`` and the tracer's
  ``hess_diag`` and ``hess_diag_cheap``, so the action and H~ come from one
  evaluation per iterate and no second Hessian oracle comes back.
- Within ``src/sparseipm`` outside ``krylov`` only
  ``ippmm.NewtonSystem._reduce`` constructs a ``BorderedBand``, so the three
  solver paths share its one reduced Newton system, built once per solve.
- Within ``src/sparseipm`` only ``ippmm.NewtonSystem._factor_band`` calls
  ``.factor(`` on a ``band``, so every solver path factors it one way. The
  one other site is ``krylov.CholeskyFactor.__init__``: the ASB baseline's
  one factor, a band with no rows and no border, inside the module that owns
  ``BorderedBand``.
- Within ``ippmm`` only ``kkt_residuals`` and ``NewtonSystem._reduce``
  read ``program.A`` or ``program.pairs``, so no path reduces the pairs a
  second time.
- No ``sparseipm`` module names ``bmat``, ``hstack`` or ``vstack`` of
  ``scipy.sparse``, and only ``linops._forward_differences`` builds a CSR or
  CSC matrix from a (data, indices, indptr) triple, so every sparse matrix
  that set-up assembles goes through one COO step; the difference operator
  writes its two entries per row directly.
- Within ``src/sparseipm`` only ``linops`` imports or names ``scipy.fft``,
  so the choice between a blur's Kronecker and FFT forms stays in one module.
- Within ``src/sparseipm`` only ``krylov`` imports or names
  ``scipy.linalg.lapack``, ``scipy.linalg.blas`` or ``cholesky_banded``, so
  every factor and triangular sweep of a solver path stays behind
  ``krylov.BorderedBand``.
- Within ``src/sparseipm`` only ``ippmm`` names ``scipy.sparse.linalg``,
  once to import it and once to bind the alias ``spla`` that
  ``perfbench/tracing.py`` replaces, and no module names ``splu``, so no
  SuperLU factor comes back.
- ``ippmm`` reads every ``SolverOptions`` field from its ``options`` outside
  ``SolverOptions.__post_init__`` except the four of ``ONLY_CHECKED``, so no
  other field may become a setting that selects nothing.
- No ``sparseipm`` module imports ``dropping``, and ``dropping`` defines only
  the names that ``perfbench/tracing.py`` binds on it, so the solver cannot
  drop variables again through that module.
- Every backticked ``<module>.<Name>`` of a ``sparseipm`` module that
  ``README.md`` cites, such as ``ippmm.FORCING``, names a real attribute.
- The README's forcing formula η_k = max(MIN, min(MAX, F·r_k)) states
  ``ippmm.INNER_TOL_MIN``, ``INNER_TOL_MAX`` and ``FORCING``.
"""
import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import sparseipm
from sparseipm.ippmm import SolverOptions
from sparseipm.problems import ConvexProgram

MODULES = sorted(Path(sparseipm.__file__).parent.glob("*.py"))
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH = sorted(PERFBENCH_DIR.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"

# defaulted parameters kept without a caller passing them, with the reason
ALLOWED_UNPASSED = {
    "run_cli.argv": "tests drive the CLI in-process",
    "threshold_solution.fraction": "criterion 10 checks two fractions",
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
    assert unreferenced == []


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


def unread_fields(cls: str, fields, sources) -> list:
    """Fields that no source reads as an attribute outside class ``cls``."""
    read = set()
    for source in sources:
        tree = ast.parse(source)
        inside = {id(node) for top in ast.walk(tree)
                  if isinstance(top, ast.ClassDef) and top.name == cls
                  for node in ast.walk(top)}
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in inside)
    return sorted(set(fields) - read)


def test_checker_flags_an_unread_field():
    sources = ["class P:\n    a: int\n    b: int\n    c: int\n"
               "    def f(self):\n        return self.c\n",
               "def g(p):\n    p.b = 1\n    return p.a\n"]
    assert unread_fields("P", ["a", "b", "c"], sources) == ["b", "c"]


def test_every_program_field_is_read():
    fields = [f.name for f in dataclasses.fields(ConvexProgram)]
    assert unread_fields("ConvexProgram", fields, [p.read_text() for p in MODULES]) == []


# attributes kept without a load in src/ or perfbench/, with the reason
def unloaded_attributes(modules, sources) -> list:
    """``Class.name`` for each attribute that a class in ``modules`` assigns,
    as ``self.<name> = ...`` or as a dataclass field, and that no source in
    ``sources`` loads as an attribute, passes as a keyword or names as a
    string."""
    assigned = set()
    for source in modules:
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                   == "dataclass" for d in cls.decorator_list):
                assigned.update((cls.name, node.target.id) for node in cls.body
                                if isinstance(node, ast.AnnAssign))
            assigned.update((cls.name, node.attr) for node in ast.walk(cls)
                            if isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and getattr(node.value, "id", None) == "self")
    loaded = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.keyword):
                loaded.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)
    return sorted(f"{cls}.{name}" for cls, name in assigned if name not in loaded)


def test_checker_flags_an_unloaded_attribute():
    modules = ["@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int = 0\n"
               "    def f(self):\n        self.c, self.d = 1, 2\n        self.e[0] = 3\n",
               "class Q:\n    g: int\n    def __init__(self):\n        self.h = 1\n"
               "        other.i = 2\n"]
    sources = [*modules, "print(p.a, q.e)\nP(b=1)\ngetattr(p, 'd')\n"]
    assert unloaded_attributes(modules, sources) == ["P.c", "Q.h"]


def test_no_attribute_only_tests_read():
    unloaded = unloaded_attributes([p.read_text() for p in MODULES],
                                   [p.read_text() for p in MODULES + PERFBENCH])
    assert unloaded == []


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


def defaulted_parameters(source: str) -> list:
    """(callee names, parameter, position or None) for every defaulted
    parameter of the functions and methods in ``source``. Positions count
    from the first argument a call writes, so a method's skip ``self``;
    keyword-only parameters have none."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                names = {child.name}
                if cls is not None and child.name == "__init__":
                    names.add(cls)
                first = len(positional) - len(args.defaults)
                out.extend((names, a.arg, i) for i, a in enumerate(positional)
                           if i >= first)
                out.extend((names, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return out


def unpassed_parameters(modules: dict, sources) -> list:
    """``function.parameter`` for each defaulted parameter of ``modules``
    (name -> source) that no call in ``sources`` passes."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, param, position):
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            return True
        return ((position is not None and position < len(call.args))
                or any(k.arg == param for k in call.keywords))

    out = []
    for source in modules.values():
        for names, param, position in defaulted_parameters(source):
            if not any(passes(call, param, position)
                       for name in names for call in calls.get(name, [])):
                out.append(f"{min(names, key=len)}.{param}")
    return sorted(out)


def test_checker_flags_an_unpassed_parameter():
    modules = {"a": ("def f(x, k=1, *, kw=2): pass\n"
                     "def g(x, k=1): pass\n"
                     "def h(k=1, j=2): pass\n"
                     "class C:\n"
                     "    def __init__(self, k=1): pass\n"
                     "    def m(self, k=1, j=2): pass\n"
                     "class D:\n"
                     "    def __init__(self, k=1): pass\n")}
    sources = [*modules.values(),
               "f(1, 2)\ng(1)\nh(*args)\nC(3)\nobj.m(j=4)\n"
               "class E(D):\n    def __init__(self):\n        super().__init__(5)\n"]
    assert unpassed_parameters(modules, sources) == ["f.kw", "g.k", "m.k"]


def test_every_defaulted_parameter_has_a_caller():
    unpassed = unpassed_parameters({p.stem: p.read_text() for p in MODULES},
                                   [p.read_text() for p in MODULES + PERFBENCH])
    assert [name for name in unpassed if name not in ALLOWED_UNPASSED] == []


# the builders that construct a ConvexProgram; every other builder calls one
PROGRAM_CONSTRUCTORS = {"quadratic_program", "split_l1_program"}


def sites(source: str, match) -> list:
    """(definition, line) of each node that ``match`` accepts: a method is
    named ``Class.method``, anything else by its top-level definition."""
    out = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        parts = top.body if isinstance(top, ast.ClassDef) else [top]
        for part in parts:
            where = (f"{name}.{part.name}" if part is not top
                     and isinstance(part, ast.FunctionDef) else name)
            out.extend((where, node.lineno) for node in ast.walk(part) if match(node))
    return out


def calls(source: str, match) -> list:
    """(definition, line) of each call whose callee ``match`` accepts, named
    as by ``sites``."""
    return sites(source, lambda node: isinstance(node, ast.Call) and match(node.func))


def constructions(source: str, cls: str) -> list:
    """(definition, line) of each ``cls(...)`` call, named as by ``calls``."""
    return calls(source, lambda f: cls in (getattr(f, "id", None), getattr(f, "attr", None)))


def test_checker_finds_program_constructions():
    source = ("def a():\n    return ConvexProgram(A=1)\n"
              "def b():\n    def inner():\n        return problems.ConvexProgram()\n"
              "class C:\n    def m(self):\n        ConvexProgram()\n"
              "prog = ConvexProgram()\nConvexProgram.__doc__\n")
    assert constructions(source, "ConvexProgram") == [("a", 2), ("b", 5), ("C.m", 8),
                                                      ("<module>", 9)]


def test_only_the_shared_builders_construct_programs():
    found = [(path.name, name, line) for path in MODULES
             for name, line in constructions(path.read_text(), "ConvexProgram")
             if name not in PROGRAM_CONSTRUCTORS]
    assert found == []


def hess_action_calls(source: str) -> list:
    """(definition, line) of each ``<expr>.hess_action(...)`` call, named as
    by ``calls``. A bare ``hess_action(...)`` is a builder calling its own
    closure, not a solver path calling the program's oracle."""
    return calls(source, lambda f: isinstance(f, ast.Attribute) and f.attr == "hess_action")


def hessian_names(source: str) -> set:
    """Every ``hess_<word>`` that ``source`` names, in code, comment or
    docstring."""
    return set(re.findall(r"\bhess_\w+", source))


def test_checker_finds_hess_action_calls_and_hessian_names():
    source = ("class AugmentedSystem:\n    def factor(self, state):\n"
              "        self._hess, h = self.program.hess_action(state.x)\n"
              "    def _gap(self, w):\n        return self.program.hess_action(self.x)[0](w)\n"
              "def padded(x):\n    return hess_action(x[:k])\n"
              "def _cmd_spectest(args):\n    hess, _ = prog.hess_action(x)\n"
              "    # prog.hess_weights(x) and the tracer's hess_diag\n")
    assert hess_action_calls(source) == [("AugmentedSystem.factor", 3),
                                         ("AugmentedSystem._gap", 5), ("_cmd_spectest", 9)]
    assert hessian_names(source) == {"hess_action", "hess_weights", "hess_diag"}


# the MINRES path's one call of ConvexProgram.hess_action per factor, and
# the spectral check's dense build of H
HESS_ACTION_CALLERS = {("ippmm", "AugmentedSystem.factor"), ("harness", "_cmd_spectest")}
# the Hessian names a ConvexProgram holds: its one oracle, and the two
# class attributes that only perfbench/tracing.py reads
HESSIAN_NAMES = {"hess_action", "hess_diag", "hess_diag_cheap"}


def test_one_hessian_oracle_one_call_per_iterate():
    found = [(path.name, name, line) for path in MODULES
             for name, line in hess_action_calls(path.read_text())
             if (path.stem, name) not in HESS_ACTION_CALLERS]
    assert found == []
    named = set().union(*(hessian_names(path.read_text()) for path in MODULES))
    assert named <= HESSIAN_NAMES, sorted(named - HESSIAN_NAMES)


def test_checker_finds_band_constructions():
    # a second build site in NewtonSystem, such as a rebuild when the border
    # changes, is named apart from _reduce
    source = ("class NewtonSystem:\n    def _reduce(self):\n"
              "        self.band = BorderedBand(None, A, B)\n"
              "    def _build_band(self):\n"
              "        self.band = BorderedBand(None, A, B)\n"
              "    band = BorderedBand(None, A, B)\n"
              "class SaddleMatrix(NewtonSystem):\n    def factor(self):\n"
              "        krylov.BorderedBand(C, A, B).factor(d, w, 1.0)\n"
              "band = BorderedBand\n")
    assert constructions(source, "BorderedBand") == [("NewtonSystem._reduce", 3),
                                                     ("NewtonSystem._build_band", 5),
                                                     ("NewtonSystem", 6),
                                                     ("SaddleMatrix.factor", 9)]


def test_only_the_newton_system_builds_bands():
    found = [(path.name, name, line) for path in MODULES if path.stem != "krylov"
             for name, line in constructions(path.read_text(), "BorderedBand")
             if (path.stem, name) != ("ippmm", "NewtonSystem._reduce")]
    assert found == []


def band_factor_calls(source: str) -> list:
    """(function, line) of each ``.factor(...)`` call on ``band`` or on a
    ``band`` attribute; a method is named ``Class.method``."""
    out = []
    for top in ast.parse(source).body:
        scopes = [(top.name, top)] if isinstance(top, ast.FunctionDef) else [
            (f"{top.name}.{node.name}", node) for node in getattr(top, "body", ())
            if isinstance(node, ast.FunctionDef)]
        for name, scope in scopes:
            out.extend((name, node.lineno) for node in ast.walk(scope)
                       if isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Attribute) and node.func.attr == "factor"
                       and "band" in (getattr(node.func.value, "id", None),
                                      getattr(node.func.value, "attr", None)))
    return out


def test_checker_finds_band_factor_calls():
    source = ("class NewtonSystem:\n    def _factor_band(self):\n"
              "        self.band.factor(d, w, delta)\n"
              "class SaddleMatrix(NewtonSystem):\n    def factor(self):\n"
              "        band = self.band\n        band.factor(d, w, delta)\n"
              "def f(system):\n    system.band.factor(d, w, 1.0)\n"
              "    return system.factor(state), band.solve(r)\n")
    assert band_factor_calls(source) == [("NewtonSystem._factor_band", 3),
                                         ("SaddleMatrix.factor", 7), ("f", 9)]


BAND_FACTORS = {("ippmm", "NewtonSystem._factor_band"),
                ("krylov", "CholeskyFactor.__init__")}  # the ASB baseline's one factor


def test_only_the_newton_system_factors_bands():
    found = [(path.name, name, line) for path in MODULES
             for name, line in band_factor_calls(path.read_text())
             if (path.stem, name) not in BAND_FACTORS]
    assert found == []


def program_reads(source: str, fields=("A", "pairs")) -> list:
    """(function, field, line) of each read of ``program.<field>`` or
    ``self.program.<field>``; a method is named ``Class.method``."""
    out = []
    for top in ast.parse(source).body:
        scopes = [(top.name, top)] if isinstance(top, ast.FunctionDef) else [
            (f"{top.name}.{node.name}", node) for node in getattr(top, "body", ())
            if isinstance(node, ast.FunctionDef)]
        for name, scope in scopes:
            out.extend((name, node.attr, node.lineno) for node in ast.walk(scope)
                       if isinstance(node, ast.Attribute) and node.attr in fields
                       and isinstance(node.ctx, ast.Load)
                       and "program" in (getattr(node.value, "id", None),
                                         getattr(node.value, "attr", None)))
    return out


def test_checker_finds_program_reads():
    source = ("def kkt_residuals(program):\n    return program.A @ program.x\n"
              "class NewtonSystem:\n    def _reduce(self, program):\n"
              "        p, q = program.pairs\n"
              "class NormalEquations(NewtonSystem):\n"
              "    def __init__(self, program):\n        self.p = program.pairs[0]\n"
              "    def factor(self):\n        return self.program.A, self.A\n")
    assert program_reads(source) == [("kkt_residuals", "A", 2),
                                     ("NewtonSystem._reduce", "pairs", 5),
                                     ("NormalEquations.__init__", "pairs", 8),
                                     ("NormalEquations.factor", "A", 10)]


def test_only_the_newton_system_reduces_the_program():
    source = (Path(sparseipm.__file__).parent / "ippmm.py").read_text()
    allowed = {"kkt_residuals", "NewtonSystem._reduce"}
    assert [read for read in program_reads(source) if read[0] not in allowed] == []


SPARSE_STACKS = {"bmat", "hstack", "vstack"}
COMPRESSED = {"csr_matrix", "csc_matrix", "csr_array", "csc_array"}


def sparse_assemblies(source: str) -> list:
    """(definition, line), named as by ``sites``, of each ``bmat``,
    ``hstack`` or ``vstack`` of ``scipy.sparse`` (as an attribute of ``sp``,
    ``sparse`` or ``scipy.sparse``, or imported from it) and of each CSR or
    CSC matrix built from a (data, indices, indptr) triple."""
    def match(node):
        if isinstance(node, ast.Attribute):
            return node.attr in SPARSE_STACKS and (
                getattr(node.value, "id", None) in ("sp", "sparse")
                or getattr(node.value, "attr", None) == "sparse")
        if isinstance(node, ast.ImportFrom):
            return node.module == "scipy.sparse" and any(
                alias.name in SPARSE_STACKS for alias in node.names)
        return (isinstance(node, ast.Call) and bool(node.args)
                and isinstance(node.args[0], ast.Tuple) and len(node.args[0].elts) == 3
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                in COMPRESSED)
    return sites(source, match)


def test_checker_finds_sparse_assemblies():
    source = ("from scipy.sparse import hstack, eye\nimport scipy.sparse as sp\n"
              "def a(L):\n    return sp.bmat([[L, None]], format='csr')\n"
              "def b(D):\n    return np.hstack([D, D]), scipy.sparse.vstack([D, D])\n"
              "class C:\n    def m(self, d, i, p):\n"
              "        self.M = sp.csr_matrix((d, i, p), shape=(2, 2))\n"
              "        self.N = sp.csr_matrix((d, (i, p)), shape=(2, 2))\n"
              "def f(d, i, p):\n    return csc_matrix((d, i, p)), sp.csr_matrix(np.eye(2))\n")
    assert sparse_assemblies(source) == [("<module>", 1), ("a", 4), ("b", 6), ("C.m", 9),
                                         ("f", 12)]


def test_set_up_assembles_sparse_matrices_in_one_coo_step():
    found = [(path.name, name, line) for path in MODULES
             for name, line in sparse_assemblies(path.read_text())
             if (path.stem, name) != ("linops", "_forward_differences")]
    assert found == []


def scipy_fft_uses(source: str) -> list:
    """Line numbers that import ``scipy.fft`` (or a name from it) or name it
    as the attribute ``scipy.fft``."""
    def is_fft(module):
        return module == "scipy.fft" or module.startswith("scipy.fft.")

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = any(is_fft(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = is_fft(node.module or "") or (
                node.module == "scipy" and any(alias.name == "fft" for alias in node.names))
        else:
            found = (isinstance(node, ast.Attribute) and node.attr == "fft"
                     and getattr(node.value, "id", None) == "scipy")
        if found:
            lines.add(node.lineno)
    return sorted(lines)


def test_checker_finds_scipy_fft_uses():
    source = ("import scipy.fft\nfrom scipy import fft, linalg\n"
              "from scipy.fft import rfft2\nimport scipy\n"
              "y = scipy.fft.rfft2(x)\nimport numpy.fft\nfrom scipy import linalg\n"
              "z = np.fft.rfft2(x)\nimport scipy.fft as F\n")
    assert scipy_fft_uses(source) == [1, 2, 3, 5, 9]


def test_only_linops_uses_scipy_fft():
    found = [(path.name, line) for path in MODULES if path.stem != "linops"
             for line in scipy_fft_uses(path.read_text())]
    assert found == []


LOW_LEVEL = ("lapack", "blas", "cholesky_banded")


def lapack_uses(source: str) -> list:
    """Line numbers that import ``scipy.linalg.lapack`` or
    ``scipy.linalg.blas`` (or a name from either), import or name
    ``cholesky_banded``, or name an attribute ``lapack`` or ``blas``."""
    def is_low(module):
        parts = module.split(".")
        return parts[:2] == ["scipy", "linalg"] and len(parts) > 2 and parts[2] in LOW_LEVEL

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = any(is_low(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = is_low(node.module or "") or (
                node.module in ("scipy", "scipy.linalg")
                and any(alias.name in LOW_LEVEL for alias in node.names))
        else:
            found = (isinstance(node, ast.Attribute) and node.attr in LOW_LEVEL
                     or isinstance(node, ast.Name) and node.id == "cholesky_banded")
        if found:
            lines.add(node.lineno)
    return sorted(lines)


def test_checker_finds_lapack_uses():
    source = ("import scipy.linalg.lapack\nfrom scipy.linalg import blas, eigh\n"
              "from scipy.linalg.lapack import dtbtrs\nimport scipy.linalg\n"
              "L = scipy.linalg.cholesky_banded(band)\nx = linalg.blas.dtbsv(k, L, b)\n"
              "y = scipy.linalg.solve_triangular(S, b)\nf = cholesky_banded\n"
              "from scipy.linalg import cholesky_banded as chol\nimport scipy.linalg.blas as B\n"
              "z = np.linalg.lapack_lite\n")
    assert lapack_uses(source) == [1, 2, 3, 5, 6, 8, 9, 10]


def test_only_krylov_calls_lapack_and_blas():
    found = [(path.name, line) for path in MODULES if path.stem != "krylov"
             for line in lapack_uses(path.read_text())]
    assert found == []


def sparse_linalg_uses(source: str) -> list:
    """(line, stripped source line) of each line that imports
    ``scipy.sparse.linalg`` or a name from it, imports ``linalg`` from
    ``scipy.sparse``, names the attribute chain ``sparse.linalg`` or
    ``sp.linalg``, or names ``splu`` or ``spla``, the alias it goes by."""
    def is_sparse_linalg(module):
        return module.split(".")[:3] == ["scipy", "sparse", "linalg"]

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = any(is_sparse_linalg(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            found = (is_sparse_linalg(node.module or "") or "splu" in names
                     or node.module == "scipy.sparse" and "linalg" in names)
        elif isinstance(node, ast.Attribute):
            found = node.attr in ("splu", "spla") or node.attr == "linalg" and (
                getattr(node.value, "attr", None) == "sparse"
                or getattr(node.value, "id", None) == "sp")
        else:
            found = isinstance(node, ast.Name) and node.id in ("splu", "spla")
        if found:
            lines.add(node.lineno)
    text = source.splitlines()
    return [(line, text[line - 1].strip()) for line in sorted(lines)]


def test_checker_finds_sparse_linalg_uses():
    source = ("import scipy.sparse.linalg\nfrom scipy.sparse import linalg, csr_matrix\n"
              "from scipy.sparse.linalg import splu\nimport scipy.sparse as sp\n"
              "lu = scipy.sparse.linalg.splu(M)\nx = sp.linalg.spsolve(M, b)\n"
              "spla = scipy.sparse.linalg\ny = np.linalg.solve(M, b)\n"
              "z = scipy.linalg.cho_solve(c, b)\nf = spla.splu\n"
              "import scipy.sparse.linalg as L\n"
              "from scipy.sparse.csgraph import reverse_cuthill_mckee\n")
    assert [line for line, _ in sparse_linalg_uses(source)] == [1, 2, 3, 5, 6, 7, 10, 11]
    assert sparse_linalg_uses("x = 1\nlu = splu(M)\n") == [(2, "lu = splu(M)")]


def test_only_ippmm_names_sparse_linalg_for_the_tracer():
    found = [(path.stem, text) for path in MODULES
             for _, text in sparse_linalg_uses(path.read_text())]
    assert found == [("ippmm", "import scipy.sparse.linalg"),
                     ("ippmm", "spla = scipy.sparse.linalg")]


def unread_options(source: str, fields) -> list:
    """Fields that ``source`` never reads from an ``options`` (a name or an
    attribute) outside ``SolverOptions.__post_init__``."""
    tree = ast.parse(source)
    checks = {id(node) for top in ast.walk(tree)
              if isinstance(top, ast.ClassDef) and top.name == "SolverOptions"
              for method in top.body
              if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
              for node in ast.walk(method)}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in checks
            and "options" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))}
    return sorted(set(fields) - read)


def test_checker_finds_unread_options():
    source = ("class SolverOptions:\n    def __post_init__(self):\n"
              "        return self.a, options.b\n"
              "def f(options, self):\n    return options.c, self.options.d, self.e\n"
              "def g(self):\n    self.options.a = 1\n")
    assert unread_options(source, ["a", "b", "c", "d", "e"]) == ["a", "b", "e"]


# SolverOptions fields that ippmm only checks, with the reason each stays:
# perfbench/workloads.py sets all four, so they go with the benchmark's next
# change
ONLY_CHECKED = {
    "precond": "each path has one preconditioner",
    "htilde_choice": "the MINRES path takes H~ from the program",
    "dropping": "the solver drops no variable",
    "eps_drop": "the solver drops no variable",
}


def test_only_the_checked_options_select_nothing():
    source = (Path(sparseipm.__file__).parent / "ippmm.py").read_text()
    fields = [f.name for f in dataclasses.fields(SolverOptions)]
    assert unread_options(source, fields) == sorted(ONLY_CHECKED)


def module_imports(source: str, module: str) -> list:
    """Line numbers that import the ``sparseipm`` module ``module``, or a
    name from it, absolutely or relatively."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = any(alias.name == f"sparseipm.{module}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found = base in (f".{module}", f"sparseipm.{module}") or (
                base in (".", "sparseipm") and any(a.name == module for a in node.names))
        else:
            found = False
        if found:
            lines.add(node.lineno)
    return sorted(lines)


def test_checker_finds_module_imports():
    source = ("from . import dropping as d\nfrom .dropping import f\n"
              "import sparseipm.dropping\nfrom sparseipm import ippmm, dropping\n"
              "from . import ippmm\nimport dropping\nfrom sparseipm.dropping import g\n")
    assert module_imports(source, "dropping") == [1, 2, 3, 4, 7]


def bound_names(source: str, owner: str) -> set:
    """The strings that follow the name ``owner`` in a tuple of ``source``:
    the attributes that ``perfbench/tracing.py`` wraps on ``owner``."""
    return {node.elts[1].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Tuple) and len(node.elts) > 1
            and getattr(node.elts[0], "id", None) == owner
            and isinstance(node.elts[1], ast.Constant)
            and isinstance(node.elts[1].value, str)}


def top_level_names(source: str) -> set:
    """The names that ``source`` defines, assigns or imports at its top."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names
                         if a.name != "annotations")
    return names


def test_checker_finds_bound_and_defined_names():
    tracing = ("out.append((dropping, 'scan', 'dropping.scan', hook))\n"
               "out.append((ippmm, 'solve', 'ippmm.solve', None))\n"
               "pair = (dropping, 2)\n")
    assert bound_names(tracing, "dropping") == {"scan"}
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "XI = 1e2\nLIMIT: float = 1.0\ndef f(): pass\nclass C: pass\n")
    assert top_level_names(source) == {"np", "XI", "LIMIT", "f", "C"}


def test_dropping_holds_only_the_names_the_tracer_binds():
    found = [(path.name, line) for path in MODULES if path.stem != "dropping"
             for line in module_imports(path.read_text(), "dropping")]
    assert found == []
    bound = bound_names((PERFBENCH_DIR / "tracing.py").read_text(), "dropping")
    assert bound == {"scan_and_drop", "verify_dropped"}
    source = (Path(sparseipm.__file__).parent / "dropping.py").read_text()
    assert top_level_names(source) == bound


def unresolved_citations(text: str, namespaces: dict) -> list:
    """Dotted names in backticks of ``text`` that start with a key of
    ``namespaces`` (name -> module) but do not resolve to an attribute."""
    out = []
    text = re.sub(r"```.*?```", "", text, flags=re.S)  # fenced blocks are not citations
    for span in re.findall(r"`([^`]+)`", text):
        for dotted in re.findall(r"(?<![\w/.])\w+(?:\.\w+)+", span):
            head, *names = dotted.split(".")
            obj = namespaces.get(head)
            for name in names if obj is not None else ():
                if not hasattr(obj, name):
                    out.append(dotted)
                    break
                obj = getattr(obj, name)
    return out


def test_checker_flags_an_unresolved_citation():
    namespaces = {"sparseipm": sparseipm,
                  "ippmm": importlib.import_module("sparseipm.ippmm")}
    text = ("```sh\nippmm.X\n```\n"
            "`ippmm.solve` and `sparseipm.ippmm.SolverOptions.x0`, `ippmm.GONE = 2`,"
            " `sparseipm.nothing`, ippmm.OUTSIDE, `other.thing`, `tests/ippmm.py`")
    assert unresolved_citations(text, namespaces) == ["ippmm.GONE", "sparseipm.nothing"]


def test_readme_cites_real_names():
    namespaces = {p.stem: importlib.import_module(f"sparseipm.{p.stem}")
                  for p in MODULES if p.stem != "__init__"}
    namespaces["sparseipm"] = sparseipm
    assert unresolved_citations(README.read_text(), namespaces) == []


FORCING_RULE = re.compile(r"η_k = max\(([^,()]+), min\(([^,()]+), ([^·()]+)·r_k\)\)")
PREDICTOR_RULE = re.compile(r"η_pred = min\(([^,()]+), ([^·()]+)·η_k\)")


def forcing_constants(text: str) -> dict:
    """(MIN, MAX, F) of each η_k = max(MIN, min(MAX, F·r_k)) in ``text``
    and (MAX, C) of each η_pred = min(MAX, C·η_k)."""
    return {name: [tuple(map(float, found)) for found in rule.findall(text)]
            for name, rule in (("eta_k", FORCING_RULE), ("eta_pred", PREDICTOR_RULE))}


def test_checker_reads_the_forcing_rule():
    text = ("tolerance η_k = max(1e-10, min(1e-1, 0.5·r_k)), where r_k = 1, "
            "and the predictor's η_pred = min(1e-1, 3·η_k)")
    assert forcing_constants(text) == {"eta_k": [(1e-10, 0.1, 0.5)],
                                       "eta_pred": [(0.1, 3.0)]}


def test_readme_states_the_forcing_constants():
    ippmm = importlib.import_module("sparseipm.ippmm")
    text = " ".join(README.read_text().split())  # the formula may wrap
    assert forcing_constants(text) == {
        "eta_k": [(ippmm.INNER_TOL_MIN, ippmm.INNER_TOL_MAX, ippmm.FORCING)],
        "eta_pred": [(ippmm.INNER_TOL_MAX, ippmm.PREDICTOR_FORCING)]}
