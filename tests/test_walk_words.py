"""The walk draws letters; words are multiplied only where positions are read.

``group.simulate_walk`` keeps a trace's letters as one str, a byte a step, and
forms no word: ``WalkTrace.positions`` multiplies them out through
``reduce_left_multiply`` as reads reach them.  A call of the word rule inside
``simulate_walk`` would bring back a word a step (or a second walk over the
letters), so none may appear there.  The source is parsed, not imported.
"""

import ast
from pathlib import Path

GROUP = Path(__file__).resolve().parent.parent / "src" / "dihedral_erw" / "group.py"
WALK = "simulate_walk"
RULE = "reduce_left_multiply"


def called_names(node):
    """The name of each function that node calls, by plain name or as an attribute."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            if isinstance(call.func, ast.Name):
                yield call.func.id
            elif isinstance(call.func, ast.Attribute):
                yield call.func.attr


def test_simulate_walk_forms_no_word():
    tree = ast.parse(GROUP.read_text(), filename=str(GROUP))
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert RULE in called_names(defs["_run"]), f"the scan misses the {RULE} call of the replay"
    assert RULE not in set(called_names(defs[WALK])), f"{WALK} calls {RULE}"
