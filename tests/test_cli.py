"""Command-line interface: commands, file formats, exit codes, determinism."""
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tsrk
from tsrk.cli import main
from tsrk.design import TwoStepMethod, solve_damping

S5_KNOWN = {
    "a_tilde": 19.991085619464535,
    "a": 0.950022296412323,
    "b": 0.04997770358767691,
    "m": [1.9918588786954916, 1.9838492426656018, 1.9760315849167438,
          1.9684604922450784],
    "m_tilde": [0.04203714921461939, 0.08373206889818684, 0.08339536663324355,
                0.08306673458794599, 0.08274846743558949],
    "c": [18.991085619464535, 19.033122768679153, 19.158549757260907,
          19.365346371620134, 19.65025313347653],
}


class TestGenMethod:
    def test_writes_method_matching_reference_values(self, tmp_path, capsys):
        out = tmp_path / "m5.json"
        assert main(["genmethod", "--s", "5", "--eps", "0.05",
                     "--out", str(out)]) == 0
        method = TwoStepMethod.load(out)
        assert method.a_tilde == pytest.approx(S5_KNOWN["a_tilde"], abs=1e-9)
        assert method.a == pytest.approx(S5_KNOWN["a"], abs=1e-9)
        assert method.b == pytest.approx(S5_KNOWN["b"], abs=1e-9)
        assert np.allclose(method.m, S5_KNOWN["m"], atol=1e-9)
        assert np.allclose(method.m_tilde, S5_KNOWN["m_tilde"], atol=1e-9)
        assert np.allclose(method.c, S5_KNOWN["c"], atol=1e-9)
        printed = capsys.readouterr().out
        assert "alpha" in printed and "l_s" in printed

    def test_single_stage_is_parameter_error(self, tmp_path):
        assert main(["genmethod", "--s", "1",
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_diverging_damping_solve_reports_one_line(self, tmp_path, capsys):
        # At eps = 1 - 2^-53 the damping Newton iterate overflows; the failure
        # is reported once, with no numpy warnings before it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["genmethod", "--s", "22", "--eps", "0.9999999999999999",
                         "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_prints_interval_length_for_s50(self, tmp_path, capsys):
        assert main(["genmethod", "--s", "50",
                     "--out", str(tmp_path / "m50.json")]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("l_s"))
        assert abs(float(line.split("=")[1]) - 4752.9663) <= 0.05


class TestTable:
    def test_single_row_ratio(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--s-list", "5", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert float(rows[0]["l_s_over_s2"]) == pytest.approx(1.903115, abs=1e-5)

    @pytest.mark.parametrize("s_list", ["", ","])
    def test_empty_list_is_a_parameter_error(self, tmp_path, s_list):
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["table", "--s-list", s_list, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_interval_column_is_parity_aware(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--s-list", "4,5", "--out", str(out)]) == 0
        rows = {int(r["s"]): r for r in csv.DictReader(out.open())}
        assert float(rows[5]["l_interval"]) == float(rows[5]["l_s"])
        sol = solve_damping(4, 0.05)
        assert float(rows[4]["l_interval"]) == pytest.approx(
            2.0 * sol.omega * 16 / sol.beta, rel=1e-14)
        assert float(rows[4]["l_interval"]) < float(rows[4]["l_s"])


class TestStability:
    def test_real_scan_prints_measured_length(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["stability", "--s", "5", "--mode", "real-scan",
                     "--mu-min", "-50", "--samples", "100000",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        measured = float(printed.split("stable length")[1].split()[0])
        assert measured == pytest.approx(47.5779, abs=2 * 50.0 / 99999)
        assert out.read_text().startswith("mu,max_abs_root")

    def test_domain_grid_row_count(self, tmp_path):
        out = tmp_path / "dom.csv"
        assert main(["stability", "--s", "5", "--mode", "domain",
                     "--re-min", "-50", "--re-max", "2", "--im-max", "12",
                     "--resolution", "400", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 400 * 400

    def test_undamped_scan_prefix(self, tmp_path, capsys):
        import math

        out = tmp_path / "u.csv"
        assert main(["stability", "--s", "5", "--undamped",
                     "--mode", "real-scan", "--mu-min", "-60",
                     "--samples", "60000", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        measured = float(printed.split("stable length")[1].split()[0])
        # Full interval 2 s^2, unless the grid resolves one of the pinch
        # points where the undamped domain touches the unit circle.
        pinches = [25.0 * (1.0 - math.cos(2.0 * math.pi * k / 5.0))
                   for k in (1, 2)]
        assert any(abs(measured - c) <= 2 * 60.0 / 59999
                   for c in [50.0] + pinches), measured

    def test_method_file_round_trip(self, tmp_path, capsys):
        mfile = tmp_path / "m.json"
        main(["genmethod", "--s", "5", "--out", str(mfile)])
        capsys.readouterr()
        out = tmp_path / "scan.csv"
        assert main(["stability", "--method", str(mfile), "--mode", "real-scan",
                     "--mu-min", "-50", "--samples", "20000",
                     "--out", str(out)]) == 0
        measured = float(capsys.readouterr().out.split("stable length")[1].split()[0])
        assert measured == pytest.approx(47.5779, abs=2 * 50.0 / 19999)

    def test_bad_method_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stability", "--method", str(bad),
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestRun:
    def test_unknown_problem_lists_registry(self, tmp_path, capsys):
        code = main(["run", "--problem", "heat1d", "--h", "0.001",
                     "--config", str(_config(tmp_path, problem="nope")),
                     "--out", str(tmp_path / "r.csv")])
        # The flag wins over the config, so this one is fine; now break it.
        assert code == 0
        code = main(["run", "--h", "0.001",
                     "--config", str(_config(tmp_path, problem="nope")),
                     "--out", str(tmp_path / "r2.csv")])
        assert code == 2
        assert "registry" in capsys.readouterr().err

    def test_zero_step_size_is_a_parameter_error(self, tmp_path, capsys):
        assert main(["run", "--problem", "heat1d", "--h", "0", "--s", "5",
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "step size must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("h_args", [["--h", ","], ["--h="]], ids=["comma", "empty"])
    def test_empty_step_list_is_a_parameter_error(self, tmp_path, capsys, h_args):
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "heat1d", *h_args, "--s", "auto",
                     "--out", str(out)]) == 2
        assert "no value in list" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_step_list_in_a_config_is_a_parameter_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = _config(tmp_path, problem="heat1d", h=[], s="auto")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no value in list" in capsys.readouterr().err
        assert not out.exists()

    def test_heat1d_run_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--problem", "heat1d", "--h", "0.002,0.001",
                "--s", "auto"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = list(csv.DictReader(out1.open()))
        assert [r["h"] for r in rows] == ["0.002", "0.001"]
        assert all(float(r["endpoint_error"]) < 1e-2 for r in rows)
        assert all(int(r["fevals"]) > 0 for r in rows)

    def test_unstable_row_recorded_not_fatal(self, tmp_path):
        # Far too few stages for the Van der Pol stiffness at this step.
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "vdpol", "--h", "0.01",
                     "--s", "3", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["endpoint_error"] == "unstable"

    def test_row_outside_the_stability_interval_warns(self, tmp_path, capsys):
        # s = 2 at h rho = 8.12 > l_2 = 7.652 grows too slowly to blow up
        # within the window: the row keeps its error, and stderr says why.
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "heat1d", "--h", "0.00078125",
                     "--s", "2", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        warned = captured.err.splitlines()
        assert len(warned) == 1
        assert "h=0.00078125" in warned[0] and "1.061" in warned[0]
        lines = out.read_text().splitlines()
        assert lines[0] == "h,s_used,endpoint_error,steps,fevals"
        assert float(lines[1].split(",")[2]) > 1e6
        assert captured.out.splitlines() == [*lines[1:], f"wrote {out}"]

    def test_starter_substeps_option_is_gone(self, tmp_path):
        cfg = _config(tmp_path, problem="heat1d", h=[0.002], starter_substeps=64)
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "heat1d", "--h", "0.002",
                  "--starter-substeps", "64", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2

    def test_config_file_with_flag_priority(self, tmp_path):
        cfg = _config(tmp_path, problem="heat1d", h=[0.002], s="auto",
                      out=str(tmp_path / "from_config.csv"))
        override = tmp_path / "flag_wins.csv"
        assert main(["run", "--config", str(cfg), "--out", str(override)]) == 0
        assert override.exists()
        assert not (tmp_path / "from_config.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"problem": "heat1d", "bogus": 1}))
        assert main(["run", "--config", str(cfg), "--h", "0.001",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_missing_required_option(self, tmp_path):
        assert main(["run", "--problem", "heat1d",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_stage_capacity_is_numerical_failure(self, tmp_path, capsys,
                                                 monkeypatch):
        import tsrk.cli as cli_mod
        from tsrk.integrator import CapacityError

        def boom(rho, h, eps):
            raise CapacityError("too many stages")

        monkeypatch.setattr(cli_mod, "select_stages", boom)
        code = main(["run", "--problem", "heat1d", "--h", "0.1",
                     "--s", "auto", "--out", str(tmp_path / "r.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


def _sloppy_heat1d():
    """heat1d(20) with its exact reference, claimed to be only 1e-3 accurate."""
    import dataclasses

    from tsrk.problems import ReferenceValue, heat1d

    base = heat1d(20)
    exact = base.reference().y
    return dataclasses.replace(
        base, reference=lambda: ReferenceValue(y=exact, estimate=1e-3))


class TestCertificationGate:
    def test_inadequate_reference_fails_loudly(self, tmp_path):
        from tsrk.cli import CertificationError, _run_sweep

        out = tmp_path / "r.csv"
        with pytest.raises(CertificationError):
            _run_sweep(_sloppy_heat1d(), [0.001], "auto", 0.05, out)
        assert not out.exists()

    def test_certification_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        from tsrk.problems import PROBLEMS

        monkeypatch.setitem(PROBLEMS, "sloppy", _sloppy_heat1d)
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "sloppy", "--h", "0.001", "--s", "auto",
                     "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("reference certification failure: reference "
                                       "accuracy 1.000e-03 is not 100x below")
        assert not out.exists()


class TestConvergence:
    def test_heat1d_ratios_printed(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["convergence", "--problem", "heat1d", "--h0", "0.001",
                     "--halvings", "2", "--s", "auto", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        ratios = [float(line.rsplit(":", 1)[1])
                  for line in printed.splitlines() if "error ratio" in line]
        assert len(ratios) == 2
        assert all(3.0 < r < 5.0 for r in ratios)

    def test_no_ratio_uses_a_row_outside_the_stability_interval(self, tmp_path,
                                                                capsys):
        # s = 2 blows up at h0 (h rho ~ 16 > l_2).  At h0/2, h rho = 8.12 is
        # still above l_2 = 7.652 but grows too slowly to blow up: its error
        # is written but no ratio uses it.  The one ratio left belongs to
        # rows 2 and 3 and is labelled with the finer one, h/8.
        out = tmp_path / "c.csv"
        assert main(["convergence", "--problem", "heat1d", "--h0", "0.0015625",
                     "--halvings", "3", "--s", "2", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["endpoint_error"] == "unstable" for r in rows] == [
            True, False, False, False]
        errs = [float(r["endpoint_error"]) for r in rows[1:]]
        assert errs[0] > 1e6  # measured and kept, not relabelled
        captured = capsys.readouterr()
        printed = [line for line in captured.out.splitlines()
                   if line.startswith("error ratio")]
        assert printed == [f"error ratio h/8: {errs[1] / errs[2]:.3f}"]
        warned = captured.err.splitlines()
        assert len(warned) == 1
        assert "h=0.00078125" in warned[0] and "1.061" in warned[0]

    def test_printed_rows_equal_the_csv(self, tmp_path, capsys):
        # One unstable row, one warned row and two that give the one ratio.
        out = tmp_path / "c.csv"
        assert main(["convergence", "--problem", "heat1d", "--h0", "0.0015625",
                     "--halvings", "3", "--s", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        printed = capsys.readouterr().out.splitlines()
        assert printed[:4] == lines[1:]
        assert printed[4].startswith("error ratio h/8: ")
        assert printed[5:] == [f"wrote {out}"]

    def test_auto_stage_rober_sweep_never_warns(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["convergence", "--problem", "rober", "--h0", "10",
                     "--halvings", "1", "--s", "auto", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert sum(line.startswith("error ratio")
                   for line in captured.out.splitlines()) == 1

    def test_config_file_and_its_checks(self, tmp_path):
        cfg = _config(tmp_path, problem="heat1d", h0=0.001, halvings=1, s="auto")
        out = tmp_path / "c.csv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(list(csv.DictReader(out.open()))) == 2
        bogus = _config(tmp_path, problem="heat1d", h0=0.001, halvings=1, h=0.1)
        assert main(["convergence", "--config", str(bogus), "--out", str(out)]) == 2
        missing = _config(tmp_path, problem="heat1d", h0=0.001)
        assert main(["convergence", "--config", str(missing), "--out", str(out)]) == 2

    def test_zero_h0_is_a_parameter_error(self, tmp_path, capsys):
        assert main(["convergence", "--problem", "heat1d", "--h0", "0",
                     "--halvings", "2", "--s", "5",
                     "--out", str(tmp_path / "c.csv")]) == 2
        assert "step size must be positive" in capsys.readouterr().err

    def test_halvings_validation(self, tmp_path):
        assert main(["convergence", "--problem", "heat1d", "--h0", "0.001",
                     "--halvings", "0", "--out", str(tmp_path / "c.csv")]) == 2


class TestMalformedJson:
    """A config or method file of the wrong JSON shape is a parameter error."""

    CONVERGENCE = {"problem": "heat1d", "h0": 0.001, "halvings": 1}

    @pytest.mark.parametrize("config", [
        7, [1, 2], None, "heat1d",
        {**CONVERGENCE, "halvings": None},
        {**CONVERGENCE, "halvings": 1.5},
        {**CONVERGENCE, "eps": [1]},
        {**CONVERGENCE, "s": [3]},
        {**CONVERGENCE, "s": 2.5},
        {**CONVERGENCE, "s": None},
        {**CONVERGENCE, "h0": True},
        {**CONVERGENCE, "problem": ["heat1d"]},
        {**CONVERGENCE, "problem": None},
    ], ids=repr)
    def test_convergence_config(self, tmp_path, capsys, config):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "c.csv"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"h": [0.002, None]}, {"h": [[0.002]]}, {"h": None}, {"h": 0.002, "s": 2.5},
    ], ids=repr)
    def test_run_config(self, tmp_path, config):
        path = _config(tmp_path, problem="heat1d", **config)
        out = tmp_path / "r.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_numbers_read_as_their_flags(self, tmp_path):
        # A JSON number and numeric text read as the flag's text does.
        outs = [tmp_path / f"r{i}.csv" for i in range(3)]
        assert main(["run", "--problem", "heat1d", "--h", "0.002", "--s", "5",
                     "--out", str(outs[0])]) == 0
        for out, s in zip(outs[1:], (5, "5")):
            cfg = _config(tmp_path, problem="heat1d", h=[0.002], s=s, eps=0.05)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            assert out.read_bytes() == outs[0].read_bytes()
        assert main(["run", "--problem", "heat1d", "--h", "0.002", "--s", "2.5",
                     "--out", str(tmp_path / "flag.csv")]) == 2

    @pytest.mark.parametrize("edit", [
        lambda d: [d], lambda d: 7, lambda d: {**d, "s": None},
        lambda d: {**d, "eps": [1]}, lambda d: {**d, "m": None},
        lambda d: {**d, "eps": True}, lambda d: {**d, "eps": "0.05"},
        lambda d: {k: v for k, v in d.items() if k != "c"},
    ])
    def test_method_file(self, tmp_path, capsys, edit):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(edit(tsrk.design_method(5).to_dict())))
        assert main(["stability", "--method", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("s", [5.5, "5", True, None], ids=repr)
    def test_method_file_stage_count_is_a_json_integer(self, tmp_path, capsys, s):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**tsrk.design_method(5).to_dict(), "s": s}))
        assert main(["stability", "--method", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed method record: s must be an integer, got {s!r}\n")


def _config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return path


# Run in a fresh interpreter: the design and stability commands must not
# import scipy, and the reference solver must still load it when it first
# solves a linear system, dense (Robertson) or banded (heat1d).
IMPORT_CONTRACT = """
import json, sys
import numpy as np
import tsrk, tsrk.cli
out = sys.argv[1]
commands = [
    ["table", "--s-list", "5,10"],
    ["stability", "--s", "5", "--mode", "real-scan", "--samples", "1000"],
    ["stability", "--s", "5", "--mode", "domain", "--resolution", "20"],
    ["genmethod", "--s", "5"],
]
codes = [tsrk.cli.main(argv + ["--out", f"{out}/{i}.out"])
         for i, argv in enumerate(commands)]
design_loaded_scipy = "scipy" in sys.modules
rober = tsrk.rober()
y_dense = tsrk.reference_integrate(rober, rober.t0, rober.t0 + 1.0, 10)
heat = tsrk.heat1d()
y_band = tsrk.reference_integrate(heat, heat.t0, 0.01, 10)
exact = tsrk.heat1d_exact_state(50, 0.01, heat.y0)
print(json.dumps({
    "codes": codes,
    "design_loaded_scipy": design_loaded_scipy,
    "solves_loaded_scipy": "scipy.linalg" in sys.modules,
    "rober_mass_defect": abs(float(y_dense.sum()) - 1.0),
    "heat_error": float(np.max(np.abs(y_band - exact))),
}))
"""


def test_design_commands_never_import_scipy(tmp_path):
    src = str(Path(tsrk.__file__).resolve().parents[1])
    env = dict(os.environ, TSRK_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert not result["design_loaded_scipy"]
    assert result["solves_loaded_scipy"]
    assert result["rober_mass_defect"] <= 1e-12
    assert result["heat_error"] <= 1e-5
