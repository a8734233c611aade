"""Every public name of the package has a caller outside the tests.

A name in ``dihedral_erw.__all__`` must be read by the code of ``src/``
outside ``__init__.py`` and outside its own definition, or be named in
``demos/`` or ``perfbench/``.  A name that only the tests call is a test
reference and belongs in ``tests/oracles.py``.  The sources are parsed,
not run; only ``__all__`` is read from the imported package.
"""

import ast
import re
from pathlib import Path

import dihedral_erw

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dihedral_erw"
CALLERS = ("demos", "perfbench")
# the scalar chain's step API, which the README documents
DOCUMENTED = {"advance"}


def names_read(tree):
    """Names and attributes the tree reads, each outside every definition of the same name."""
    found = set()

    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            inner = owners
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = owners | {child.name}
            elif isinstance(child, ast.Name) and child.id not in owners:
                found.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in owners:
                found.add(child.attr)
            visit(child, inner)

    visit(tree, frozenset())
    return found


def uncalled():
    """Public names with no caller in src/, demos/ or perfbench/."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= names_read(ast.parse(path.read_text(), filename=str(path)))
    text = "\n".join(path.read_text() for folder in CALLERS
                     for path in sorted((ROOT / folder).rglob("*.py")))
    return {name for name in dihedral_erw.__all__
            if name not in used and not re.search(rf"\b{re.escape(name)}\b", text)}


def test_every_public_name_has_a_caller_outside_the_tests():
    # an exception that gains a caller must leave DOCUMENTED, so the list stays exact
    stray = uncalled()
    assert stray == DOCUMENTED, f"no caller outside the tests: {sorted(stray)}; see tests/oracles.py"
