"""Every function the benchmark traces exists in the package.

perfbench/worker.py wraps each ``(module, name)`` of its ``TRACED`` table
when run with ``--trace 1``; a name the package no longer has breaks that
run.  The worker is parsed, not imported, since it imports benchmark-only
modules by bare name.
"""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
PACKAGE = "dihedral_erw"


def traced_hooks(path):
    """(module path, function name) for each entry of the TRACED table."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == PACKAGE:
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{PACKAGE}.{alias.name}"
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            for entry in node.value.elts:
                module, name = entry.elts[:2]
                yield modules[module.id], ast.literal_eval(name)


def test_traced_hooks_resolve():
    hooks = list(traced_hooks(WORKER))
    assert hooks, "no TRACED table found in the benchmark worker"
    missing = [f"{module}.{name}" for module, name in hooks
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, f"the benchmark traces names the package does not have: {missing}"
