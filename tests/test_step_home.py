"""The scalar step arithmetic has one home.

``coupling._steps`` is the scalar reference chain that the Monte Carlo engine
must match bit for bit: it carries Xi and Ztilde as Kahan sums and the QV
correction as a Neumaier sum.  A second function that updates those sums
would be a second copy of the step, free to drift from the first.  So every
write of a compensation field (an assignment to the name or an attribute, or
a keyword argument) must sit inside ``_steps``, apart from the field list of
``CoupledState`` itself, and ``advance`` and the chain's span replay, ``_run``
and ``_end`` (which every read of ``coupled_states_along`` goes through),
must step through it.  The sources are parsed, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COUPLING = SRC / "dihedral_erw" / "coupling.py"
FIELDS = {"xi_comp", "zt_comp", "qv_corr", "qv_comp"}
HOME = "_steps"
CALLERS = ("advance", "_run", "_end")


def field_writes(path):
    """(enclosing function or class, line) for each write of a compensation field."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, child.name)
                continue
            if (isinstance(node, ast.ClassDef) and node.name == "CoupledState"
                    and isinstance(child, ast.AnnAssign)):
                continue                    # the field list, not an update
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                name = child.id
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                name = child.attr
            elif isinstance(child, ast.keyword):
                name = child.arg
            else:
                name = None
            if name in FIELDS:
                yield owner, child.lineno
            yield from visit(child, owner)

    yield from visit(tree, None)


def functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_compensation_fields_written_only_in_the_step_loop():
    writes = [(path, owner, line) for path in sorted(SRC.rglob("*.py"))
              for owner, line in field_writes(path)]
    assert any(owner == HOME for _, owner, _ in writes), f"no field write found in {HOME}"
    stray = [f"{path.relative_to(SRC)}:{line} in {owner}" for path, owner, line in writes
             if owner != HOME]
    assert not stray, f"compensation field written outside {HOME}: {stray}"


def test_public_steps_go_through_the_step_loop():
    defs = functions(COUPLING)
    assert HOME in defs
    for name in CALLERS:
        calls = [node for node in ast.walk(defs[name]) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == HOME]
        assert calls, f"{name} does not call {HOME}"
