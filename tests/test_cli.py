import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dihedral_erw
from dihedral_erw import cli, coupling, group, quadrature
from dihedral_erw.acceptance import Q_GRID
from dihedral_erw.cli import main
from dihedral_erw.moments import h_moment
from dihedral_erw.montecarlo import sample_paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_stepped_letters(monkeypatch):
    """A list that gets the number of letters of each call of coupling._steps from now on."""
    stepped, steps = [], coupling._steps

    def counted(state, letters, *args):
        stepped.append(len(letters))
        return steps(state, letters, *args)

    monkeypatch.setattr(coupling, "_steps", counted)
    return stepped


class TestVariance:
    def test_memoryless_values(self, capsys):
        code, out, _ = run_cli(capsys, "variance", "--q", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["var_Z_infinity"] == 0.0
        assert payload["var_Ztilde_infinity"] == pytest.approx(math.log(2), abs=1e-9)
        assert payload["levels"] >= 2

    def test_exact_n_report(self, capsys):
        code, out, _ = run_cli(capsys, "variance", "--q", "0.5", "--exact-n", "200")
        payload = json.loads(out)
        assert code == 0
        assert payload["exact_n"] == 200
        assert payload["var_Ztilde_exact_n"] == pytest.approx(
            payload["var_Ztilde_infinity"], abs=0.05
        )

    @pytest.mark.parametrize("bad", (("--exact-n", "0"), ("--tol", "0")))
    def test_arguments_checked_before_quadrature(self, monkeypatch, bad):
        # counts quadrature nodes built: the tol check is inside the quadrature call
        calls = []
        monkeypatch.setattr(quadrature, "_node", lambda t: calls.append(t) or (0.5, 0.5, 1.0))
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--q", "0.5", *bad])
        assert exc.value.code == 2
        assert calls == []

    def test_infinite_tolerance_accepted_at_level_two(self, capsys):
        code, out, _ = run_cli(capsys, "variance", "--q", "0.3", "--tol", "inf")
        assert code == 0
        assert json.loads(out)["levels"] == 2

    def test_full_memory_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--p", "1"])
        assert exc.value.code == 2

    def test_p_flag_equivalent(self, capsys):
        code, out, _ = run_cli(capsys, "variance", "--p", "0.75")
        assert json.loads(out)["q"] == 0.5


class TestSimulate:
    def test_full_memory_distance_alternates(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "1", "--steps", "10", "--seed", "5",
            "--trace", str(trace_file),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == 0  # even horizon: back at the identity
        assert payload["coupling_verified"] is True
        lines = trace_file.read_text().strip().splitlines()
        assert lines[0] == "n,letter,W,S,Xi,Ztilde,QV"
        assert len(lines) == 11
        n, g, w, s = lines[1].split(",")[:4]
        assert n == "1" and w == s == {"a": "1", "b": "-1"}[g]
        dist = [abs(int(ln.split(",")[3])) for ln in lines[1:]]
        assert dist == [1, 0] * 5

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        _, out1, _ = run_cli(capsys, "simulate", "--q", "0.3", "--steps", "500",
                             "--seed", "11", "--trace", str(f1))
        _, out2, _ = run_cli(capsys, "simulate", "--q", "0.3", "--steps", "500",
                             "--seed", "11", "--trace", str(f2))
        assert out1 == out2
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("q", (-1.0, -0.5, 0.3, 0.8, 1.0))
    def test_matches_engine_row_zero(self, capsys, q):
        # the scalar sampler and the engine read the same stream with one step law
        _, out, _ = run_cli(capsys, "simulate", "--q", str(q), "--steps", "3000", "--seed", "6")
        payload = json.loads(out)
        ens = sample_paths(q, 3000, 1, 6)
        for key in ("W", "S", "Xi", "Ztilde", "QV"):
            assert payload[key] == getattr(ens, key)[0]

    def test_untraced_run_keeps_no_chain(self, capsys, monkeypatch):
        # without --trace only the last state is read: one pass that keeps one
        # span; 9000 steps cross two of simulate_walk's uniform fills, which
        # must read the engine's stream
        stepped = count_stepped_letters(monkeypatch)
        _, out, _ = run_cli(capsys, "simulate", "--q", "0.5", "--steps", "9000", "--seed", "6")
        assert sum(stepped) == 9000 and max(stepped) == group._SPAN
        payload = json.loads(out)
        ens = sample_paths(0.5, 9000, 1, 6)
        for key in ("W", "S", "Xi", "Ztilde", "QV"):
            assert payload[key] == getattr(ens, key)[0]

    def test_trace_steps_each_letter_once(self, capsys, monkeypatch, tmp_path):
        # the CSV rows and the summary's last state come from one pass, and
        # both are pinned to their bytes (sha256 of the output of this command)
        stepped = count_stepped_letters(monkeypatch)
        trace_file = tmp_path / "trace.csv"
        _, out, _ = run_cli(capsys, "simulate", "--q", "-0.7", "--steps", "2100", "--seed", "4",
                            "--trace", str(trace_file))
        assert sum(stepped) == 2100
        assert hashlib.sha256(trace_file.read_bytes()).hexdigest() == (
            "df026954132bd438cdeaa489232eab57110067824cb1bd2d5233a195a310c275")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a8b70a2d2ef2155f48dff9bd810b48925699db56d34557aade0e53601a12e3a1")

    def test_seed_changes_path(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--q", "0.3", "--steps", "500", "--seed", "1")
        _, out2, _ = run_cli(capsys, "simulate", "--q", "0.3", "--steps", "500", "--seed", "2")
        assert out1 != out2


class TestEnumerate:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--p", "0.75", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["E_W2"] == pytest.approx(5.5, abs=1e-12)
        assert payload["coupling_ok"] is True
        assert payload["prob_total"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_one_step_horizon(self, capsys, q):
        # the default cov pair (1, 2) needs n >= 2, so n = 1 reports none
        code, out, _ = run_cli(capsys, "enumerate", "--q", str(q), "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["E_W2"] == 1.0
        assert payload["coupling_ok"] is True
        assert payload["cov_W"] == {}

    def test_long_horizon(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--q", "0.3", "--n", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 40 and payload["coupling_ok"] is True
        assert payload["E_W2"] == pytest.approx(h_moment(40, 0.3), rel=1e-13)

    def test_full_memory_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--p", "1", "--n", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestMoments:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--q", "0.5", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,H,I,a_k"
        assert len(lines) == 4
        k, h, _, _ = lines[3].split(",")
        assert (k, float(h)) == ("3", 5.5)

    def test_csv_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        code, _, _ = run_cli(capsys, "moments", "--q", "0", "--n-max", "4",
                             "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("k,H,I,a_k\n1,1,1,1\n")

    def test_csv_replaces_an_existing_file(self, capsys, tmp_path):
        # written through a symlink, with the old file's mode, and nothing left beside it
        out_file, link = tmp_path / "m.csv", tmp_path / "link.csv"
        out_file.write_text("old contents\n")
        out_file.chmod(0o640)
        link.symlink_to(out_file)
        code, _, _ = run_cli(capsys, "moments", "--q", "0", "--n-max", "4", "--out", str(link))
        assert code == 0
        assert out_file.read_text().startswith("k,H,I,a_k\n1,1,1,1\n")
        assert link.is_symlink() and out_file.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "m.csv"]


class TestFigure:
    def test_grid_csv(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        code, _, err = run_cli(capsys, "figure", "--q-min", "-0.2", "--q-max", "0.2",
                               "--step", "0.1", "--out", str(out_file))
        assert code == 0 and err == ""
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "q,var_Z_infinity,abs_err"
        assert len(lines) == 6
        mid = dict(zip(("q", "v", "e"), lines[3].split(",")))
        assert mid["q"] == "0" and mid["v"] == "0" and mid["e"] == "0"


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 4
        assert all(ln.startswith("PASS") for ln in lines)


class TestUsageErrors:
    REJECTED = (
        (("simulate", "--q", "0.3", "--steps", "0"), "--steps"),
        (("enumerate", "--q", "0.3", "--n", "0"), "--n"),
        (("enumerate", "--p", "0.6", "--n", "0"), "--n"),
        (("moments", "--q", "0.3", "--n-max", "0"), "--n-max"),
        (("variance", "--q", "0.3", "--exact-n", "0"), "--exact-n"),
        # q = 1 is outside the exact layer's domain; the horizon given with it is fine
        (("enumerate", "--p", "1", "--n", "3"), None),
        (("moments", "--p", "1", "--n-max", "3"), None),
        (("variance", "--p", "1", "--exact-n", "3"), None),
        (("figure", "--q-min", "nan", "--q-max", "0.2", "--step", "0.1"), None),
        (("figure", "--q-min", "0", "--q-max", "nan", "--step", "0.1"), None),
        (("figure", "--q-min", "0.5", "--q-max", "0.2", "--step", "0.1"), None),
        (("figure", "--q-min", "-2", "--q-max", "0.0", "--step", "0.1"), None),
    )

    @pytest.mark.parametrize("argv, option", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED])
    def test_library_rejection_is_a_usage_error(self, capsys, argv, option):
        # the library's message, named after the option that carried the rejected value
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if option is None:
            assert "derw: error: " in captured.err and "derw: error: argument" not in captured.err
        else:
            assert f"derw: error: argument {option}: " in captured.err

    @pytest.mark.parametrize("argv", (
        ("moments", "--q", "0.3", "--n-max", "3", "--out", "{missing}/m.csv"),
        ("simulate", "--q", "0.3", "--steps", "5", "--trace", "{missing}/t.csv"),
        ("figure", "--q-min", "0", "--q-max", "0.2", "--step", "0.1", "--out", "{dir}"),
    ), ids=("moments-missing-dir", "simulate-missing-dir", "figure-out-is-dir"))
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "derw: error: cannot write " in captured.err

    @pytest.mark.parametrize("argv, owner, work", (
        (("simulate", "--q", "0.5", "--steps", "10000000", "--trace", "{missing}/t.csv"),
         cli, "simulate_walk"),
        (("moments", "--q", "0.3", "--n-max", "3", "--out", "{missing}/m.csv"),
         cli.MomentTable, "build"),
    ), ids=("simulate", "moments"))
    def test_unwritable_output_fails_before_the_work(self, monkeypatch, capsys, tmp_path,
                                                      argv, owner, work):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output was opened")

        monkeypatch.setattr(owner, work, never)
        with pytest.raises(SystemExit) as exc:
            main([a.format(missing=tmp_path / "missing") for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "derw: error: cannot write " in captured.err

    @pytest.mark.parametrize("argv", (
        ("moments", "--q", "0.3", "--n-max", "0", "--out", "{keep}"),
        ("simulate", "--q", "0.3", "--steps", "0", "--trace", "{keep}"),
    ), ids=("moments", "simulate"))
    def test_rejected_argument_keeps_the_output_file(self, capsys, tmp_path, argv):
        keep = tmp_path / "keep.csv"
        keep.write_text("old contents\n")
        with pytest.raises(SystemExit) as exc:
            main([a.format(keep=keep) for a in argv])
        assert exc.value.code == 2
        assert keep.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["keep.csv"]

    def test_missing_memory_parameter(self):
        with pytest.raises(SystemExit) as exc:
            main(["variance"])
        assert exc.value.code == 2

    def test_both_memory_parameters(self):
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--p", "0.5", "--q", "0"])
        assert exc.value.code == 2

    def test_out_of_range_parameter(self, capsys):
        # the message names the q given, not only the p derived from it
        for argv, given in ((["variance", "--q", "1.5"], "q=1.5"),
                            (["simulate", "--q", "2", "--steps", "5"], "q=2.0")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert given in capsys.readouterr().err

    def test_bad_tolerance(self):
        for tol in ("-1", "0", "nan"):
            with pytest.raises(SystemExit) as exc:
                main(["variance", "--q", "0", "--tol", tol])
            assert exc.value.code == 2

    def test_bad_figure_tolerance_or_step(self, tmp_path):
        out = tmp_path / "fig.csv"
        for flag, value in (("--tol", "-1"), ("--tol", "nan"), ("--step", "0"), ("--step", "nan")):
            args = {"--tol": "1e-10", "--step": "0.1", flag: value}
            with pytest.raises(SystemExit) as exc:
                main(["figure", "--q-min", "0", "--q-max", "0.2", "--out", str(out),
                      *(x for kv in args.items() for x in kv)])
            assert exc.value.code == 2
            assert not out.exists()


PACKAGE_SRC = Path(__file__).resolve().parent.parent / "src" / "dihedral_erw"


def writer_uses(path):
    """(line, what) for each json import and each print or open call in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        if any(m.split(".")[0] == "json" for m in modules):
            yield node.lineno, "import json"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("print", "open")):
            yield node.lineno, node.func.id


def test_only_the_cli_writes():
    # serialising is a CLI decision: the other modules return values
    assert list(writer_uses(PACKAGE_SRC / "cli.py")), "the scan misses the writes in cli.py"
    stray = [f"{path.name}:{line} {what}" for path in sorted(PACKAGE_SRC.glob("*.py"))
             if path.name != "cli.py" for line, what in writer_uses(path)]
    assert not stray, f"output outside cli.py: {stray}"


def package_imports(path):
    """Package modules one source file imports, function-local imports included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def import_cycle(graph):
    """One cycle of the module graph as [m, ..., m], or None if it has none."""
    done = set()

    def visit(module, path):
        if module in path:
            return path[path.index(module):] + [module]
        if module not in done:
            for dep in sorted(graph.get(module, ())):
                cycle = visit(dep, path + [module])
                if cycle:
                    return cycle
            done.add(module)
        return None

    return next((c for c in (visit(m, []) for m in sorted(graph)) if c), None)


def test_package_imports_form_no_cycle():
    # a function-local import hides a cycle from the interpreter, not from the parse
    graph = {path.stem: set(package_imports(path)) for path in PACKAGE_SRC.glob("*.py")}
    assert graph["cli"], "the scan misses the imports in cli.py"
    cycle = import_cycle(graph)
    assert cycle is None, f"import cycle: {' -> '.join(cycle)}"


class TestImports:
    # the package needs numpy and the standard library only
    @pytest.mark.parametrize("code", [
        "import dihedral_erw",
        "import runpy, sys\n"
        "sys.argv = ['dihedral_erw', '--help']\n"
        "try:\n"
        "    runpy.run_module('dihedral_erw', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass",
    ], ids=["import", "help"])
    def test_no_scipy_loaded(self, code):
        probe = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = str(Path(dihedral_erw.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"
