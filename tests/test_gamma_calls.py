"""The package evaluates gamma functions in one place.

Every gamma and Pochhammer ratio in ``src/`` is a value of the normaliser
I(k, q), which ``quadrature.i_factor_table`` forms as a running product from
one gamma value.  A second implementation would differ from it in the last
digits (exp of a log-gamma difference was 1.9e-10 off at n = 1e5), so every
``math.lgamma`` call must sit inside ``i_factor_table``.  The sources are
parsed, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HOME = "i_factor_table"


def lgamma_calls(path):
    """(enclosing function, line) for each math.lgamma call in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "lgamma") or (
                        isinstance(func, ast.Name) and func.id == "lgamma"):
                    yield owner, child.lineno
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_lgamma_only_in_i_factor_table():
    calls = [(path, owner, line) for path in sorted(SRC.rglob("*.py"))
             for owner, line in lgamma_calls(path)]
    assert any(owner == HOME for _, owner, _ in calls), f"no lgamma call found in {HOME}"
    stray = [f"{path.relative_to(SRC)}:{line} in {owner}" for path, owner, line in calls
             if owner != HOME]
    assert not stray, f"lgamma outside {HOME}: {stray}"
