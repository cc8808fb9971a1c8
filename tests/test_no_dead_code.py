"""A ratchet on functions, classes and methods that nothing in `src/` uses.

A top-level function or class of a `geoalg` module counts as used when
some module names it outside its own definition: a call, an attribute
(`centers.centers_An`), an import or a reference.  So does a method of a
top-level class (reported as `module.Class.method`), dunders aside, which
are reached by the language rather than by name.  The unused ones must
be exactly the oracles the README lists: every claim check of the paper
runs inside a `verify` case, so a new function or method that only tests
call fails here, and so does a pinned oracle that gains a caller or goes.
"""

import ast
from collections import Counter
from pathlib import Path

import geoalg

SRC = Path(geoalg.__file__).parent

# independent oracles, kept for the tests on purpose (README)
ORACLES = {"ks_calculus.ks_bracket_numeric"}


def _names(node):
    """Every name that *node* reads: loads, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if not isinstance(sub.ctx, ast.Store):
                yield sub.id
        elif isinstance(sub, ast.Attribute):
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


def _scan_with(tmp_path, extra: str) -> set:
    """unused_definitions of the `geoalg` modules and one more, extra.py."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(extra)
    return unused_definitions(tmp_path)


def test_the_scan_sees_a_definition_only_tests_call(tmp_path):
    assert _scan_with(tmp_path, "def only_tests():\n    return 1\n") == (
        unused_definitions() | {"extra.only_tests"})


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
