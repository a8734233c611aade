"""Acceptance suite: one test per criterion, each printing its pass/fail line.

The same criterion functions back `derw verify`.  All Monte Carlo checks
run under the fixed master seed, so results are reproducible bit for bit.
"""

import ast
import re
from pathlib import Path

from dihedral_erw import acceptance as acc

ACCEPTANCE_SRC = Path(__file__).resolve().parent.parent / "src" / "dihedral_erw" / "acceptance.py"


def _run(fn):
    res = fn()
    print()
    print(res.line())
    return res


def test_criterion_01_exhaustive_coupling():
    res = _run(acc.criterion_1_coupling)
    assert res.passed, res.detail


def test_criterion_02_moment_oracle():
    res = _run(acc.criterion_2_moment_oracle)
    assert res.passed, res.detail


def test_criterion_03_t1_t2_identity():
    res = _run(acc.criterion_3_t1_t2_identity)
    assert res.passed, res.detail


def test_criterion_04_limit_variance():
    # The q = 1/2 sub-check compares the n = 1e5 truncated sum with the
    # limit at tolerance 1e-3, but the true truncation tail there is
    # ~1.74e-3 (confirmed against 30-digit arithmetic), so this criterion
    # fails by mathematics rather than by implementation.  It is asserted
    # as stated instead of being loosened to fit.
    res = _run(acc.criterion_4_limit_variance)
    assert res.passed, res.detail


def test_criterion_05_doob_pathwise():
    res = _run(acc.criterion_5_doob)
    assert res.passed, res.detail


def test_criterion_06_clt_marginals():
    res = _run(acc.criterion_6_clt)
    assert res.passed, res.detail


def test_criterion_07_slln_and_qsl():
    res = _run(acc.criterion_7_slln_qsl)
    assert res.passed, res.detail


def test_criterion_08_lil_envelope():
    res = _run(acc.criterion_8_lil)
    assert res.passed, res.detail


def test_criterion_09_t2_decay_rates():
    res = _run(acc.criterion_9_t2_rates)
    assert res.passed, res.detail


def test_criterion_10_hypergeometric():
    res = _run(acc.criterion_10_hypergeometric)
    assert res.passed, res.detail


def test_criterion_11_figure_via_cli():
    res = _run(acc.criterion_11_figure)
    assert res.passed, res.detail


def test_criteria_numbering():
    """Each criterion_N_* carries @_criterion(N, ...); ALL_CRITERIA lists 1 to 11 in order.

    The source is parsed, so no criterion runs.
    """
    tree = ast.parse(ACCEPTANCE_SRC.read_text(), filename=str(ACCEPTANCE_SRC))
    defined = {}
    for node in tree.body:
        match = isinstance(node, ast.FunctionDef) and re.fullmatch(r"criterion_(\d+)_\w+", node.name)
        if not match:
            continue
        numbers = [dec.args[0].value for dec in node.decorator_list
                   if isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
                   and dec.func.id == "_criterion" and isinstance(dec.args[0], ast.Constant)]
        assert numbers == [int(match.group(1))], f"{node.name} is decorated as {numbers}"
        defined[node.name] = numbers[0]
    tuples = {target.id: [elt.id for elt in node.value.elts]
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)
              and target.id in ("ALL_CRITERIA", "QUICK_CRITERIA")}
    listed = tuples["ALL_CRITERIA"]
    assert sorted(listed) == sorted(defined), "ALL_CRITERIA must list every criterion once"
    assert [defined[name] for name in listed] == list(range(1, 12))
    assert set(tuples["QUICK_CRITERIA"]) <= set(listed)
