"""Every package name the benchmark reaches exists in the package.

perfbench/worker.py wraps each ``(module, name)`` of its ``TRACED`` table
when run with ``--trace 1``, and perfbench/workloads.py calls the package
through module attributes (``montecarlo.sample_paths``,
``group.MemoryParams.from_q``); a name the package no longer has breaks
the benchmark.  Both files are parsed, not imported, since they import
benchmark-only modules by bare name.  Only chains that start at a package
module are visible to a parse.  Attributes of a call's result, such as
``res.coupling_ok`` on what ``enumerate_exact`` returns, are listed by hand
in ``RESULT_ATTRIBUTES``: each must occur in the benchmark's text and
resolve on a small real result.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

from dihedral_erw import coupling, group, moments, montecarlo, quadrature

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


# what perfbench/workloads.py and perfbench/worker.py read of each result, by the call
# that returns it
RESULT_ATTRIBUTES = {
    "enumerate_exact": ("n", "prob_total", "coupling_ok", "e_w2_by_step", "e_ztilde2_by_step"),
    "sample_paths": ("q", "steps", "reps", "master_seed", "W", "S", "Xi", "Ztilde", "QV",
                     "snapshots", "qsl", "lil_pos", "lil_neg", "doob_resid_max", "qv_resid_max"),
    "coupled_states_along": ("W", "S", "Xi", "Ztilde", "QV"),
    "ks_normal_test": ("statistic",),
    "t2_rate_fit": ("fitted_slope",),
    "figure_grid": ("ok", "abs_err", "q", "var_z_infinity"),
    "integrate": ("evaluations",),
    "MemoryParams": ("p",),
}


def small_results():
    """One small real result per entry of RESULT_ATTRIBUTES."""
    params = group.MemoryParams.from_q(0.3)
    trace = group.simulate_walk(params, 3, montecarlo.replication_stream(1, 0))
    return {
        "enumerate_exact": moments.enumerate_exact(2, params),
        "sample_paths": montecarlo.sample_paths(0.3, montecarlo.LIL_START, 2, 1,
                                                collect=("qsl", "lil", "doob")),
        "coupled_states_along": coupling.coupled_states_along(trace)[-1],
        "ks_normal_test": montecarlo.ks_normal_test(np.linspace(-2.0, 2.0, 100)),
        "t2_rate_fit": montecarlo.t2_rate_fit(0.5, (10, 30, 100, 1000)),
        "figure_grid": quadrature.figure_grid(0.3, 0.3, 0.1)[0],
        "integrate": quadrature.integrate(lambda u, um1: u * um1),
        "MemoryParams": params,
    }


def test_result_attributes_are_read_by_the_benchmark():
    text = WORKER.read_text() + WORKLOADS.read_text()
    unread = [f"{call}: {name}" for call, names in RESULT_ATTRIBUTES.items() for name in names
              if not re.search(rf"\.{name}\b", text)]
    assert not unread, f"the benchmark no longer reads these result attributes: {unread}"


def test_result_attributes_resolve(monkeypatch):
    monkeypatch.setattr(montecarlo, "_ENSEMBLES", {})     # leave the process-wide store as it was
    results = small_results()
    assert results.keys() == RESULT_ATTRIBUTES.keys()
    missing = [f"{call}: {name}" for call, names in RESULT_ATTRIBUTES.items() for name in names
               if getattr(results[call], name, None) is None]
    assert not missing, f"the benchmark reads result attributes the package does not set: {missing}"
