"""The moment recursions share one block loop.

``moments._recurrence`` solves every first-order recursion x_(k+1) = a_k x_k + b_k
in blocks of ``_BLOCK`` steps, with block edges fixed in k so that no value
depends on the horizon.  A second loop over ``range(..., _BLOCK)`` would be a
second copy of that rule, so every read of ``_BLOCK`` must sit inside
``_recurrence``.  The sources are parsed, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NAME = "_BLOCK"
HOME = "_recurrence"


def block_reads(path):
    """(enclosing function, line) for each read of _BLOCK in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == NAME
                    and isinstance(child.ctx, ast.Load)):
                yield owner, child.lineno
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_block_read_only_in_recurrence():
    reads = [(path, owner, line) for path in sorted(SRC.rglob("*.py"))
             for owner, line in block_reads(path)]
    assert any(owner == HOME for _, owner, _ in reads), f"no {NAME} read found in {HOME}"
    stray = [f"{path.relative_to(SRC)}:{line} in {owner}" for path, owner, line in reads
             if owner != HOME]
    assert not stray, f"{NAME} read outside {HOME}: {stray}"
