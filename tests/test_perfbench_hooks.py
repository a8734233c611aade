"""Every package name the benchmark reaches exists in the package.

perfbench/worker.py wraps each ``(module, name)`` of its ``TRACED`` table
when run with ``--trace 1``, and perfbench/workloads.py calls the package
through module attributes (``montecarlo.sample_paths``,
``group.MemoryParams.from_q``); a name the package no longer has breaks
the benchmark.  Both files are parsed, not imported, since they import
benchmark-only modules by bare name.  Only chains that start at a package
module are checked: attributes of a call's result, such as
``res.coupling_ok`` on what ``enumerate_exact`` returns, are not visible
to a parse and stay unguarded.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKER = PERFBENCH / "worker.py"
WORKLOADS = PERFBENCH / "workloads.py"
PACKAGE = "dihedral_erw"


def package_modules(tree):
    """Local name -> module path for each ``from dihedral_erw import ...``."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == PACKAGE:
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{PACKAGE}.{alias.name}"
    return modules


def traced_hooks(path):
    """(module path, function name) for each entry of the TRACED table."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = package_modules(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            for entry in node.value.elts:
                module, name = entry.elts[:2]
                yield modules[module.id], ast.literal_eval(name)


def module_attribute_chains(path):
    """(module path, attribute names) for each ``module.a.b`` chain on a package module.

    A chain's prefixes (``module.a``) are yielded too, as their own nodes.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = package_modules(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        attrs, base = [], node
        while isinstance(base, ast.Attribute):
            attrs.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in modules:
            yield modules[base.id], tuple(reversed(attrs))


def resolves(module, attrs):
    obj = importlib.import_module(module)
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_traced_hooks_resolve():
    hooks = list(traced_hooks(WORKER))
    assert hooks, "no TRACED table found in the benchmark worker"
    missing = [f"{module}.{name}" for module, name in hooks
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, f"the benchmark traces names the package does not have: {missing}"


def test_workload_call_sites_resolve():
    chains = set(module_attribute_chains(WORKLOADS))
    assert chains, "no package module attribute found in the benchmark workloads"
    missing = [".".join((module,) + attrs) for module, attrs in sorted(chains)
               if not resolves(module, attrs)]
    assert not missing, f"the benchmark workloads use names the package does not have: {missing}"
