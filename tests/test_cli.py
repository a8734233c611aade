import json
import math

import pytest

from dihedral_erw import cli
from dihedral_erw.cli import main
from dihedral_erw.moments import h_moment
from dihedral_erw.montecarlo import sample_paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        calls = []
        monkeypatch.setattr(cli, "var_ztilde_infinity_result",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--q", "0.5", *bad])
        assert exc.value.code == 2
        assert calls == []

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

    def test_zero_horizon_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--p", "0.6", "--n", "0"])
        assert exc.value.code == 2

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

    def test_domain_guard(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--q-min", "-2", "--q-max", "0", "--step", "0.1"])
        assert exc.value.code == 2


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 4
        assert all(ln.startswith("PASS") for ln in lines)


class TestUsageErrors:
    def test_missing_memory_parameter(self):
        with pytest.raises(SystemExit) as exc:
            main(["variance"])
        assert exc.value.code == 2

    def test_both_memory_parameters(self):
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--p", "0.5", "--q", "0"])
        assert exc.value.code == 2

    def test_out_of_range_parameter(self):
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--q", "1.5"])
        assert exc.value.code == 2

    def test_bad_tolerance(self):
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--q", "0", "--tol", "-1"])
        assert exc.value.code == 2
