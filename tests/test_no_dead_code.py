"""A ratchet on functions and classes that nothing in `src/` uses.

A top-level function or class of a `geoalg` module counts as used when
some module names it outside its own definition: a call, an attribute
(`centers.centers_An`), an import or a reference.  The unused ones must
be exactly the oracles the README lists: every claim check of the paper
runs inside a `verify` case, so a new function that only tests call
fails here, and so does a pinned oracle that gains a caller or goes.
"""

import ast
from pathlib import Path

import geoalg

SRC = Path(geoalg.__file__).parent

# independent oracles, kept for the tests on purpose (README)
ORACLES = {"ks_calculus.ks_bracket_numeric"}


def unused_definitions(root=SRC) -> set:
    defined, used = {}, set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                defined[f"{path.stem}.{own}"] = own
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        continue
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return {key for key, name in defined.items() if name not in used}


def test_unused_definitions_are_pinned():
    unused = unused_definitions()
    assert unused == ORACLES, (sorted(unused - ORACLES),
                               sorted(ORACLES - unused))


def test_the_scan_sees_a_definition_only_tests_call(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text("def only_tests():\n    return 1\n")
    assert unused_definitions(tmp_path) == unused_definitions() | {
        "extra.only_tests"}
