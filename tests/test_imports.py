"""Every name a package module imports is read somewhere in that module,
every module-level private name is read somewhere in the package, no
top-level function or class name is defined in two modules, every
defaulted parameter is passed by some caller, every parameter is read by
its function, the package and its tests import nothing beyond their
declared dependencies, each package __init__ exports exactly what it
binds, refused input raises a package error, not a builtin one, and no
class but CRat defines a reflected operator.

An AST scan of src/qres/**/*.py, package __init__ files included: an
import that only a module's __all__ lists counts as unused, so a package
cannot grow a re-export layer back.  Annotations count as reads, including
quoted ones.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qres"
ALL_MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree):
    """Binding name -> line of each import outside __future__."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= read_names(ast.parse(ann.value, mode="eval"))
    return names


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_the_scan_sees_the_package():
    assert len(ALL_MODULES) > 10


def unused_imports(tree):
    """name (line) of each import the module never reads; a listing in
    __all__ is not a read."""
    lines = imported_names(tree)
    return [f"{name} (line {lines[name]})"
            for name in sorted(set(lines) - read_names(tree))]


def test_the_import_lint_flags_a_re_export():
    tree = ast.parse('from .symfun import QFunction\n'
                     '__all__ = ["QFunction"]\n')
    assert unused_imports(tree) == ["QFunction (line 1)"]


@pytest.mark.parametrize("path", ALL_MODULES,
                         ids=[str(p.relative_to(SRC)) for p in ALL_MODULES])
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, ", ".join(unused)


def private_definitions(tree):
    """Top-level statement index -> private names (not dunders) that the
    statement defines: functions, classes and assigned constants."""
    out = {}
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        private = [n for n in names
                   if n.startswith("_") and not n.startswith("__")]
        if private:
            out[i] = private
    return out


def package_reads(stmt):
    """Names a statement reads, as a bare name, as an attribute or as an
    imported name."""
    names = read_names(stmt)
    for node in ast.walk(stmt):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_private_names_are_read_in_the_package():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES}
    reads = {(p, i): package_reads(stmt)
             for p, tree in trees.items() for i, stmt in enumerate(tree.body)}
    unread = []
    for path, tree in trees.items():
        for i, names in private_definitions(tree).items():
            # a read inside the defining statement itself does not count
            elsewhere = set().union(*(r for key, r in reads.items()
                                      if key != (path, i)))
            unread += [f"{path.relative_to(SRC)}: {name} "
                       f"(line {tree.body[i].lineno})"
                       for name in names if name not in elsewhere]
    assert not unread, ", ".join(unread)


def top_level_definitions(node):
    """The names a module-level statement defines: a function or class, or
    the plain names a constant's assignment binds (__all__ aside)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and t.id != "__all__"]


def test_no_function_or_class_is_defined_in_two_modules():
    """Each top-level function, class or constant is written once in the
    package; a second module that needs it imports it, so the copies cannot
    drift."""
    where = {}
    for path in ALL_MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            for name in top_level_definitions(node):
                where.setdefault(name, []).append(
                    str(path.relative_to(SRC)))
    twice = [f"{name} ({', '.join(paths)})"
             for name, paths in sorted(where.items()) if len(paths) > 1]
    assert not twice, ", ".join(twice)


PACKAGES = sorted(SRC.rglob("__init__.py"))


def export_mismatch(tree):
    """(stale, missing): the names __all__ lists that the file does not
    bind, and the names it binds, by an import or a top-level definition,
    that __all__ leaves out."""
    bound = set(imported_names(tree)).union(
        *(top_level_definitions(node) for node in tree.body))
    listed = exported_names(tree)
    return sorted(listed - bound), sorted(bound - listed)


def test_the_export_lint_flags_a_stale_and_a_missing_name():
    tree = ast.parse("from .a import x, y\nfrom . import b\n"
                     "__version__ = '1'\n"
                     "__all__ = ['x', 'b', 'gone', '__version__']\n")
    assert export_mismatch(tree) == (["gone"], ["y"])


@pytest.mark.parametrize("path", PACKAGES,
                         ids=[str(p.relative_to(SRC)) for p in PACKAGES])
def test_a_package_exports_exactly_what_it_binds(path):
    """__all__ of a package __init__ names each of its imports and
    definitions once and nothing else, and every name resolves on import,
    so a deleted name cannot linger in the exports."""
    stale, missing = export_mismatch(ast.parse(path.read_text(),
                                               filename=str(path)))
    assert not stale and not missing, f"stale {stale}, missing {missing}"
    module = importlib.import_module(
        ".".join(path.parent.relative_to(SRC.parent).parts))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


CALLERS = sorted(p for d in ("src", "tests", "scripts", "perfbench")
                 for p in (SRC.parents[1] / d).rglob("*.py"))


def defaulted_parameters(tree):
    """(name, is method, parameter, positional index) of each defaulted
    parameter of a module-level function or a method; the index excludes a
    method's self or cls, and is None for a keyword-only parameter."""
    defs = [(node, False) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [(item, True) for node in tree.body
             if isinstance(node, ast.ClassDef) for item in node.body
             if isinstance(item, ast.FunctionDef)]
    for fn, is_method in defs:
        if fn.name.startswith("__"):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        positional = fn.args.posonlyargs + fn.args.args
        if is_method and not static:
            positional = positional[1:]
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield fn.name, is_method, arg.arg, i
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, is_method, arg.arg, None


def call_sites(tree):
    """Callee name -> (attribute call, positional count, keyword names) per
    call; a starred argument counts as every position, ** as every
    keyword."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        out.setdefault(name, []).append(
            (isinstance(func, ast.Attribute),
             float("inf") if starred else len(node.args), keywords))
    return out


def test_every_defaulted_parameter_has_a_caller():
    """A default that no call site in the package, its tests, scripts or
    benchmark overrides is a constant, not an option.

    Call sites are matched by the callee's name only, not by what it
    resolves to: a method counts only ``obj.name(...)`` or
    ``Class.name(...)``, never a bare ``name(...)``, but a same-named
    method or function elsewhere still counts as a caller."""
    calls = {}
    for path in CALLERS:
        for name, sites in call_sites(ast.parse(path.read_text())).items():
            calls.setdefault(name, []).extend(sites)
    unset = []
    for path in ALL_MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, is_method, param, index in defaulted_parameters(tree):
            if not any((attr or not is_method)
                       and (param in kw or None in kw
                            or (index is not None and n > index))
                       for attr, n, kw in calls.get(name, ())):
                unset.append(f"{path.relative_to(SRC)}: {name}({param})")
    assert not unset, ", ".join(unset)


def unread_parameters(tree):
    """(function, parameter) of each parameter of a function or method,
    nested ones included, that its body never reads as a name; a call of
    super() with no arguments reads the first parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        reads = {n.id for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if "super" in reads:
            reads.add(params[0])
        yield from ((node.name, p) for p in params if p not in reads)


# a click option callback, which click calls with (ctx, param, value)
CALLBACK_PARAMETERS = {("cli.py", "_check_radius", "ctx"),
                       ("cli.py", "_check_radius", "param")}


def test_every_parameter_is_read():
    """A parameter that its function never reads is a knob that does
    nothing: every caller may pass anything there.  The callback's fixed
    signature is the one exception, and it must still need the
    exemption."""
    unread = {(str(path.relative_to(SRC)), name, param)
              for path in ALL_MODULES
              for name, param in unread_parameters(
                  ast.parse(path.read_text(), filename=str(path)))}
    assert unread >= CALLBACK_PARAMETERS
    assert unread == CALLBACK_PARAMETERS, ", ".join(
        f"{path}: {name}({param})" for path, name, param
        in sorted(unread - CALLBACK_PARAMETERS))


# the third-party modules each tree may import, beside the standard library
# and the package itself: pyproject.toml's dependencies, and for tests its
# test extras and the tests' own helpers
PACKAGE_IMPORTS = {"numpy", "click"}
TEST_IMPORTS = PACKAGE_IMPORTS | {"pytest", "hypothesis", "jsonschema",
                                  "helpers"}
TESTS = Path(__file__).resolve().parent


def foreign_imports(tree, allowed):
    """(line, module) of each import, nested ones included, of a top-level
    module that is neither in the standard library, nor qres, nor allowed;
    a relative import is the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if not (top in sys.stdlib_module_names or top == "qres"
                    or top in allowed):
                yield node.lineno, name


def test_the_dependency_scan_flags_an_undeclared_import():
    tree = ast.parse("import numpy as np\nfrom . import symfun\n"
                     "def f():\n    from scipy.special import gamma\n"
                     "    import sympy, os\n")
    assert list(foreign_imports(tree, PACKAGE_IMPORTS)) == [
        (4, "scipy.special"), (5, "sympy")]


@pytest.mark.parametrize("root,allowed", [(SRC, PACKAGE_IMPORTS),
                                          (TESTS, TEST_IMPORTS)],
                         ids=["src", "tests"])
def test_imports_stay_within_the_declared_dependencies(root, allowed):
    """The package needs numpy and click only, and its tests pytest,
    hypothesis and jsonschema besides; scipy or sympy, importable in a
    development environment, would be a dependency nobody declared."""
    found = [f"{path.relative_to(root)}:{line} {name}"
             for path in sorted(root.rglob("*.py"))
             for line, name in foreign_imports(
                 ast.parse(path.read_text(), filename=str(path)), allowed)]
    assert not found, ", ".join(found)


def test_the_library_import_loads_no_cli():
    """import qres loads the package alone: neither click, numpy nor any
    qres module, the command line included, so a library user pays only
    for the modules they import."""
    from helpers import run_bounded

    run = run_bounded(["-c", "import sys, qres; print(sorted(m for m in "
                             "sys.modules if m in ('click', 'numpy') "
                             "or m.startswith('qres.')))"])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_an_exact_command_loads_no_currents_module():
    """qres catalogue builds no arrays, so its process imports none of the
    numeric pairings: the commands that run them import them."""
    from helpers import run_bounded

    run = run_bounded(["-c", "import sys; from qres.cli import main; "
                             "main(['catalogue'], standalone_mode=False); "
                             "print(sorted(m for m in sys.modules "
                             "if m.startswith('qres.currents')))"])
    assert run.returncode == 0, run.stderr
    report, modules = run.stdout.splitlines()
    assert report.startswith('{"command":"catalogue"')
    assert modules == "[]"


# exact division by zero raises ZeroDivisionError, as any numeric type's
# does; every other refusal of input is a package error, which carries its
# exit code (qres.errors)
ZERO_DIVISION_RAISERS = {("qcore.py", "CRat.__truediv__"),
                         ("qcore.py", "Quat.inv"),
                         ("symfun.py", "ConjRational.__init__"),
                         ("symfun.py", "ConjRational.divide_by_real")}


def builtin_raises(tree, scope=()):
    """(function, exception, line) of each raise of a builtin ValueError or
    ZeroDivisionError, the function as its dotted name within the module
    (Class.method)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from builtin_raises(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (isinstance(exc, ast.Name)
                    and exc.id in ("ValueError", "ZeroDivisionError")):
                yield ".".join(scope), exc.id, node.lineno
        yield from builtin_raises(node, scope)


def raise_violations(raises):
    """What the raise lint reports of (module, function, exception, line)
    raises: every ValueError, a ZeroDivisionError outside the exempt
    functions, and an exemption that no raise uses any more."""
    bad = [f"{path}:{line} {fn} raises {name}"
           for path, fn, name, line in raises
           if name == "ValueError"
           or (path, fn) not in ZERO_DIVISION_RAISERS]
    used = {(path, fn) for path, fn, name, _ in raises
            if name == "ZeroDivisionError"}
    return bad + [f"{path} {fn}: unused exemption"
                  for path, fn in sorted(ZERO_DIVISION_RAISERS - used)]


def test_the_raise_lint_flags_a_builtin_value_error():
    tree = ast.parse("class Quat:\n    def inv(self):\n"
                     "        raise ZeroDivisionError('zero')\n"
                     "    def check(self):\n"
                     "        if self:\n            raise ValueError\n")
    raises = [("qcore.py", *r) for r in builtin_raises(tree)]
    assert raises == [("qcore.py", "Quat.inv", "ZeroDivisionError", 3),
                      ("qcore.py", "Quat.check", "ValueError", 6)]
    assert raise_violations(raises)[0] == (
        "qcore.py:6 Quat.check raises ValueError")


def test_refused_input_raises_a_package_error():
    raises = [(str(path.relative_to(SRC)), *r) for path in ALL_MODULES
              for r in builtin_raises(ast.parse(path.read_text(),
                                                filename=str(path)))]
    violations = raise_violations(raises)
    assert not violations, ", ".join(violations)


REFLECTED_OPERATORS = frozenset(("__radd__", "__rsub__", "__rmul__",
                                 "__rtruediv__"))
# perfbench/spans.py wraps CRat's reflected operators by name (CRAT_OPS),
# so CRat keeps them; every other class takes its scalars on the right
REFLECTED_EXEMPT = {("qcore.py", "CRat")}


def reflected_operators(tree):
    """(class, operator, line) of each reflected operator that a class
    body defines or binds, or that an assignment sets as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                else:
                    names = top_level_definitions(item)
                yield from ((node.name, n, item.lineno) for n in names
                            if n in REFLECTED_OPERATORS)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if (isinstance(t, ast.Attribute)
                        and t.attr in REFLECTED_OPERATORS
                        and isinstance(t.value, ast.Name)):
                    yield t.value.id, t.attr, node.lineno


def test_the_operator_lint_flags_an_alias_and_an_attribute():
    tree = ast.parse("class A:\n    def f(self, o): ...\n    __radd__ = f\n"
                     "A.__rmul__ = A.f\n")
    assert sorted(reflected_operators(tree)) == [("A", "__radd__", 3),
                                                 ("A", "__rmul__", 4)]


def test_no_class_but_crat_defines_a_reflected_operator():
    """Quat, ConjPoly, ConjRational and QFunction take a scalar on the
    right only (p * 3), so 3 * p raises TypeError; a reflected operator
    that no caller reaches would grow the coercion layer back.  The
    exemption must still be needed."""
    found = [(str(path.relative_to(SRC)), cls, name)
             for path in ALL_MODULES
             for cls, name, _ in reflected_operators(
                 ast.parse(path.read_text(), filename=str(path)))]
    outside = [f"{path} {cls}.{name}" for path, cls, name in found
               if (path, cls) not in REFLECTED_EXEMPT]
    assert not outside, ", ".join(outside)
    assert {(path, cls) for path, cls, _ in found} == REFLECTED_EXEMPT
