"""A ratchet on functions, classes and methods that nothing in `src/` uses.

A top-level function or class of a `geoalg` module counts as used when
some module names it outside its own definition: a call, an attribute
(`centers.centers_An`), an import or a reference.  A bare name counts
only where it resolves to the module, not where an enclosing function,
lambda or comprehension binds the same name.  So does a method of a
top-level class (reported as `module.Class.method`), dunders aside, which
are reached by the language rather than by name.  The unused ones must
be exactly the oracles the README lists: every claim check of the paper
runs inside a `verify` case, so a new function or method that only tests
call fails here, and so does a pinned oracle that gains a caller or goes.
A module-level import whose module never reads the name it binds fails
too.
"""

import ast
from collections import Counter
from pathlib import Path

import geoalg

SRC = Path(geoalg.__file__).parent

# independent oracles, kept for the tests on purpose (README)
ORACLES = {"ks_calculus.ks_bracket_numeric"}


def _names(node):
    """Every name that *node* reads, once per read: the loads that resolve
    to the module, attributes and imports."""
    yield from _module_reads(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_definitions(root=SRC) -> set:
    """The definitions whose name every module reads only inside them."""
    defined, used = {}, Counter()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        used.update(_names(tree))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            key = f"{path.stem}.{top.name}"
            defs = [(key, top)]
            if isinstance(top, ast.ClassDef):
                defs += [(f"{key}.{node.name}", node) for node in top.body
                         if isinstance(node, ast.FunctionDef)
                         and not _dunder(node.name)]
            for qualified, node in defs:
                defined[qualified] = (node.name,
                                      Counter(_names(node))[node.name])
    return {key for key, (name, own) in defined.items() if used[name] == own}


def test_unused_definitions_are_pinned():
    unused = unused_definitions()
    assert unused == ORACLES, (sorted(unused - ORACLES),
                               sorted(ORACLES - unused))


def _bound(alias) -> str:
    """The name an import binds: `import a.b` binds a."""
    return alias.asname or alias.name.split(".")[0]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = _FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp,
                        ast.GeneratorExp)


def _parts(scope) -> tuple:
    """(the nodes of *scope* its enclosing scope evaluates, its
    parameters, the nodes it evaluates itself)."""
    if isinstance(scope, _FUNCTIONS):
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            x for x in (a.vararg, a.kwarg) if x]
        outer = a.defaults + [d for d in a.kw_defaults if d]
        if isinstance(scope, ast.Lambda):
            return outer, params, [scope.body]
        outer += scope.decorator_list + [
            x for x in [scope.returns] + [p.annotation for p in params] if x]
        return outer, params, scope.body
    # a comprehension: its first iterable is read outside it
    first = scope.generators[0]
    return [first.iter], [], [first.target, *first.ifs] + [
        x for x in ast.iter_child_nodes(scope) if x is not first]


def _binds(nodes) -> set:
    """The names *nodes* bind in their own scope: stored names (assignment
    and loop targets), inner imports and nested definitions."""
    out, todo = set(), list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(_bound(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        if isinstance(node, _SCOPES + (ast.ClassDef,)):
            continue  # the names bound inside are its own
        todo += ast.iter_child_nodes(node)
    return out


def _module_reads(node, shadowed=frozenset()):
    """The names *node* reads where no enclosing function, lambda or
    comprehension binds them, so that they resolve to the module, once
    per read."""
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            yield node.id
        return
    if isinstance(node, _SCOPES):
        outer, params, inner = _parts(node)
        inside = shadowed | {p.arg for p in params} | _binds(inner)
        for x in outer:
            yield from _module_reads(x, shadowed)
        for x in inner:
            yield from _module_reads(x, inside)
        return
    for x in ast.iter_child_nodes(node):
        yield from _module_reads(x, shadowed)


def unused_imports(root=SRC) -> set:
    """The module-level imports (`module.name`) whose module never reads
    the name they bind where it resolves to the module: a read inside a
    function, lambda or comprehension that binds the same name (a
    parameter, an assignment or loop target, an inner import) does not
    count.  `from __future__` imports bind none."""
    unused = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = set(_module_reads(tree))
        for top in tree.body:
            if (isinstance(top, (ast.Import, ast.ImportFrom))
                    and getattr(top, "module", None) != "__future__"):
                unused |= {f"{path.stem}.{_bound(a)}" for a in top.names
                           if _bound(a) not in read}
    return unused


def test_every_module_level_import_is_read():
    assert unused_imports() == set()


def _scan_with(tmp_path, extra: str, scan=unused_definitions) -> set:
    """*scan* of the `geoalg` modules and one more, extra.py."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(extra)
    return scan(tmp_path)


def test_the_scan_sees_a_definition_only_tests_call(tmp_path):
    extra = ("def only_tests():\n"
             "    return 1\n"
             "\n"
             "def run_extra(only_tests):\n"
             "    return only_tests\n")
    # a read of a parameter that shadows the definition is no use of it
    assert _scan_with(tmp_path, extra) == unused_definitions() | {
        "extra.only_tests", "extra.run_extra"}


def test_the_scan_sees_a_method_only_tests_call(tmp_path):
    extra = ("class Extra:\n"
             "    def __len__(self):\n"
             "        return 0\n"
             "    def read_by_run(self):\n"
             "        return 1\n"
             "    def only_tests(self):\n"
             "        return self.only_tests()\n"
             "\n"
             "def run_extra():\n"
             "    return Extra().read_by_run()\n")
    # a self-call is no use; the class, the method run_extra calls and
    # the dunder are used, run_extra (no caller) is not
    assert _scan_with(tmp_path, extra) == unused_definitions() | {
        "extra.run_extra", "extra.Extra.only_tests"}


def test_the_scan_sees_an_import_its_module_never_reads(tmp_path):
    extra = ("from __future__ import annotations\n"
             "import json as js\n"
             "import os.path\n"
             "from fractions import Fraction\n"
             "from math import inf, prod\n"
             "\n"
             "def run_extra(x: Fraction):\n"
             "    return inf, os.sep\n"
             "\n"
             "def run_prod(prod):\n"
             "    return prod\n")
    # a name read in an annotation or through an attribute counts; one
    # read where a parameter shadows it does not
    assert _scan_with(tmp_path, extra, unused_imports) == unused_imports() | {
        "extra.js", "extra.prod"}
