"""Every integer argument of the package follows one rule, group._check_int.

A horizon, count, index or seed is an int of any size, a numpy integer or an
integral float such as 10.0, which is taken as 10.  Anything else (a str,
10.5, nan, inf) and a value below the argument's least value raise
ValueError naming the argument.  ENTRY_POINTS holds every public function
that takes such an argument, one row per argument; the last test parses the
sources, so the rule cannot be written out a second time.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from dihedral_erw import montecarlo
from dihedral_erw.coupling import exhaustive_coupling_check
from dihedral_erw.group import MemoryParams, simulate_walk
from dihedral_erw.moments import (MomentTable, enumerate_exact, h_moment, h_moment_table, t1, t2,
                                  var_ztilde_exact)
from dihedral_erw.montecarlo import replication_stream, sample_paths, t2_rate_fit
from dihedral_erw.quadrature import i_factor_table, j1, j2

Q = 0.3
PARAMS = MemoryParams.from_q(Q)


def paths(**args):
    """Every field of a fresh 10-step, 3-row ensemble, with the arguments given replaced."""
    montecarlo._ENSEMBLES.clear()
    ens = sample_paths(**{"q": Q, "steps": 10, "reps": 3, "master_seed": 1, **args})
    return (ens.steps, ens.reps, ens.master_seed, ens.W, ens.S, ens.Xi, ens.Ztilde, ens.QV,
            ens.snapshots)


# (id, argument name, least value, call with the value in the argument's place)
ENTRY_POINTS = (
    ("simulate_walk", "steps", 1, lambda v: simulate_walk(PARAMS, v, replication_stream(1, 0))),
    ("exhaustive_coupling_check", "depth", 1, exhaustive_coupling_check),
    ("h_moment", "k", 1, lambda v: h_moment(v, Q)),
    ("h_moment_table", "n", 1, lambda v: h_moment_table(v, Q)),
    ("var_ztilde_exact", "n", 1, lambda v: var_ztilde_exact(v, Q)),
    ("t1", "n", 1, lambda v: t1(v, Q)),
    ("t2", "n", 1, lambda v: t2(v, Q)),
    ("MomentTable.build", "n", 1, lambda v: MomentTable.build(v, Q)),
    ("enumerate_exact", "n", 1, lambda v: enumerate_exact(v, PARAMS)),
    ("i_factor_table", "n", 1, lambda v: i_factor_table(v, Q)),
    ("j1", "k", 1, lambda v: j1(v, Q)),
    ("j2", "n", 1, lambda v: j2(v, Q)),
    ("sample_paths steps", "steps", 1, lambda v: paths(steps=v)),
    ("sample_paths reps", "reps", 1, lambda v: paths(reps=v)),
    ("sample_paths snapshot_steps", "snapshot steps", 1, lambda v: paths(snapshot_steps=(v,))),
    ("sample_paths master_seed", "master_seed", 0, lambda v: paths(master_seed=v)),
    ("t2_rate_fit", "n", 1, lambda v: t2_rate_fit(Q, (v, 30, 100, 1000))),
    ("replication_stream master_seed", "master_seed", 0,
     lambda v: replication_stream(v, 3).random(8)),
    ("replication_stream index", "index", 0, lambda v: replication_stream(1, v).random(8)),
)
IDS, ARGS = [row[0] for row in ENTRY_POINTS], [row[1:] for row in ENTRY_POINTS]


@pytest.fixture(autouse=True)
def fresh_store(monkeypatch):
    """An empty ensemble store and uniform buffer; the process-wide ones come back after."""
    monkeypatch.setattr(montecarlo, "_ENSEMBLES", {})
    monkeypatch.setattr(montecarlo, "_UNIFORMS", np.empty(0))


def bits(x):
    """x with every float as its type and hex string and every array as its dtype and bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return type(x).__name__, x.hex()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return tuple((bits(k), bits(v)) for k, v in sorted(x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(map(bits, x))
    return type(x).__name__, x


@pytest.mark.parametrize("name, least, call", ARGS, ids=IDS)
def test_integral_values_give_the_same_bits(name, least, call):
    expect = bits(call(10))
    for value in (10.0, np.int64(10), np.float64(10.0)):
        assert bits(call(value)) == expect, repr(value)


@pytest.mark.parametrize("name, least, call", ARGS, ids=IDS)
def test_other_values_raise_naming_the_argument(name, least, call):
    for value in (10.5, "10", math.nan, math.inf, np.float64(-0.5)):
        with pytest.raises(ValueError, match=f"^{name} must be integers, got {re.escape(repr(value))}$"):
            call(value)
    for value in (least - 1, float(least - 1), -(2**70)):
        with pytest.raises(ValueError, match=f"^{name} must be at least {least}$"):
            call(value)


@pytest.mark.parametrize("seed", (-1, 10.5, "10", math.nan, math.inf))
def test_refused_seed_touches_neither_store_nor_buffer(seed):
    with pytest.raises(ValueError, match="^master_seed must be "):
        sample_paths(Q, 1000, 100, seed)
    assert montecarlo._ENSEMBLES == {}
    assert montecarlo._UNIFORMS.size == 0


def test_seed_past_float_range_of_integers():
    # 2^130 + 5 is no double, and 10^400 overflows one: neither takes a float round trip
    seed = 2**130 + 5
    ens = sample_paths(Q, 50, 3, seed)
    assert ens.master_seed == seed
    for i in range(3):
        trace = simulate_walk(PARAMS, 50, replication_stream(seed, i))
        assert ens.W[i] == trace.letters.count("a") - trace.letters.count("b")
    replication_stream(10**400, 0).random(4)


SRC = Path(__file__).resolve().parent.parent / "src"
HOME = "_check_int"
PHRASES = ("must be integers", "must be at least")
# (file, function) -> why its check is not the integer rule
EXEMPT = {("moments.py", "r_norm"): "r_norm's n is a real scale, not a horizon"}


def integer_checks(path):
    """(enclosing function, line, kind) of each piece of the integer rule in one source file.

    The pieces are operator.index calls, .is_integer() calls, and ValueErrors
    whose message says "must be integers" or "must be at least".
    """
    tree = ast.parse(path.read_text(), filename=str(path))

    def kind(call):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "is_integer":
            return "is_integer"
        if (isinstance(func, ast.Attribute) and func.attr == "index"
                and isinstance(func.value, ast.Name) and func.value.id == "operator"):
            return "operator.index"
        if isinstance(func, ast.Name) and func.id == "ValueError":
            text = "".join(node.value for node in ast.walk(call)
                           if isinstance(node, ast.Constant) and isinstance(node.value, str))
            return next((phrase for phrase in PHRASES if phrase in text), None)
        return None

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            what = isinstance(child, ast.Call) and kind(child)
            if what:
                yield owner, child.lineno, what
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_integer_rule_only_in_check_int():
    found = [(path.name, owner, line, what) for path in sorted(SRC.rglob("*.py"))
             for owner, line, what in integer_checks(path)]
    home = {what for _, owner, _, what in found if owner == HOME}
    assert home == {"operator.index", "is_integer", *PHRASES}, f"{HOME} lost part of the rule"
    stray = [f"{name}:{line} {what} in {owner}" for name, owner, line, what in found
             if owner != HOME and (name, owner) not in EXEMPT]
    assert not stray, f"integer checks outside {HOME}: {stray}"
