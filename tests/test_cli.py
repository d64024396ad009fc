"""Command-line interface: commands, file formats, exit codes, determinism."""
import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import signal
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsrk
from tsrk.cli import main
from tsrk.design import DesignFailure, TwoStepMethod, solve_damping
from tsrk.integrator import STAGE_CAP

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

    @pytest.mark.parametrize("args,names", [
        (["genmethod", "--s", "10", "--eps", "0.63"], ("s=10, eps=0.63", "lower eps")),
        (["genmethod", "--s", "2", "--eps", "5e-17"], ("s=2, eps=5e-17", "raise eps")),
        (["convergence", "--problem", "rober", "--h0", "10", "--halvings", "2",
          "--s", "auto", "--eps", "0.65"], ("eps=0.65", "lower eps")),
    ], ids=["omega-below-one", "eta-rounds-to-one", "rober-auto"])
    def test_untrustworthy_design_is_a_numerical_failure(self, tmp_path, capsys, args,
                                                         names):
        out = tmp_path / "o.out"
        assert main([*args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
        assert all(name in err for name in names)
        assert not out.exists()

    @pytest.mark.parametrize("before", [None, "an older method file\n"], ids=["new", "older"])
    def test_a_failed_write_leaves_the_old_file_and_no_other(self, tmp_path, child_env, before):
        # A fresh interpreter whose files may not grow past 4 KiB (SIGXFSZ
        # ignored, so such a write fails with EFBIG): the 27 kB method file
        # fails midway, and --out keeps what it held, or stays absent.
        work = tmp_path / "work"
        work.mkdir()
        if before is not None:
            (work / "m.json").write_text(before)

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))

        proc = subprocess.run(
            [sys.executable, "-m", "tsrk.cli", "genmethod", "--s", "400", "--out", "m.json"],
            cwd=work, env=dict(child_env, PYTHONDONTWRITEBYTECODE="1"), capture_output=True,
            text=True, timeout=60, preexec_fn=limit_file_size)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and "File too large" in proc.stderr
        assert [(p.name, p.read_text()) for p in work.iterdir()] == (
            [] if before is None else [("m.json", before)])

    def test_written_files_take_their_mode_from_the_umask(self, tmp_path, child_env):
        # A fresh interpreter under umask 022: the method file, the table and
        # a cache record all get mode 0o644, as a plain open() gives.
        work = tmp_path / "work"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", WRITE_UNDER_UMASK], cwd=work, env=child_env,
            capture_output=True, text=True, timeout=60, preexec_fn=lambda: os.umask(0o022))
        assert proc.returncode == 0, proc.stderr
        written = [work / "m.json", work / "t.csv", *(tmp_path / "cache").glob("*.json")]
        assert [stat.S_IMODE(p.stat().st_mode) for p in written] == [0o644] * 3

    def test_the_stage_cap_itself_is_designed(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["genmethod", "--s", str(STAGE_CAP), "--out", str(out)]) == 0
        assert TwoStepMethod.load(out).s == STAGE_CAP

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

    @pytest.mark.parametrize("s_list, reason", [
        ("2,x", "invalid literal for int() with base 10: 'x'"),
        (",", "no value in list ','")], ids=["2,x", ","])
    def test_rejected_list_names_its_reason(self, tmp_path, capsys, s_list, reason):
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["table", "--s-list", s_list, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --s-list: {reason}\n")
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

    def test_printed_error_rows_equal_the_csv(self, tmp_path, capsys):
        # At eps = 0.7 no damping solve converges: each row keeps its reason,
        # which holds commas, so the CSV quotes it and so does the print.
        out = tmp_path / "t.csv"
        assert main(["table", "--eps", "0.7", "--s-list", "2,5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",", 1)[0] for line in lines[1:]] == ["2", "5"]
        assert all('"damping solve did not converge (s=' in line for line in lines[1:])
        assert capsys.readouterr().out.splitlines() == lines[1:]


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

    @pytest.mark.parametrize("bound", [
        ["--mode", "real-scan", "--mu-min=-inf", "--samples", "6"],
        ["--mode", "domain", "--re-min=-inf"],
        ["--mode", "domain", "--re-max=inf"],
        ["--mode", "domain", "--im-max=inf"],
    ], ids=["mu-min", "re-min", "re-max", "im-max"])
    @pytest.mark.parametrize("evaluator", ["pair", "method"])
    def test_non_finite_bound_is_a_parameter_error(self, tmp_path, capsys, evaluator,
                                                   bound):
        mfile = tmp_path / "m5.json"
        tsrk.design_method(5).save(mfile)
        source = ["--s", "5"] if evaluator == "pair" else ["--method", str(mfile)]
        out = tmp_path / "o.csv"
        assert main(["stability", *source, *bound, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [
        ["--im-max", "1e308"],
        ["--re-min=-1e308", "--re-max", "1e308"],
    ], ids=["height", "width"])
    def test_overflowing_rectangle_is_a_parameter_error(self, tmp_path, capsys, bounds):
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["stability", "--s", "5", "--mode", "domain", *bounds,
                         "--resolution", "16", "--out", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: rectangle [") and "1e+308" in err, err
        assert err.count("\n") == 1 and not out.exists()


    @pytest.mark.parametrize("grid", [
        ["--mode", "domain", "--resolution", "1000000000"],
        ["--mode", "real-scan", "--samples", "1000000000000"],
    ], ids=["domain", "real-scan"])
    def test_a_grid_too_large_for_memory_is_a_parameter_error(self, tmp_path, child_env,
                                                              grid):
        # A fresh interpreter with a 2 GiB address space, as for the
        # halvings: the grid's first array (7.45 GiB, 7.28 TiB) cannot be
        # allocated, so the test touches no large memory.
        limit = 2 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "tsrk.cli", "stability", "--s", "5", *grid,
             "--out", "g.csv"],
            cwd=tmp_path, env=child_env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: Unable to allocate ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "g.csv").exists()



def test_a_second_call_builds_no_parser(tmp_path, monkeypatch):
    # main builds its argparse tree once per process, not once per call.
    assert main(["table", "--s-list", "2", "--out", str(tmp_path / "a.csv")]) == 0
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["table", "--s-list", "2", "--out", str(tmp_path / "b.csv")]) == 0
    assert main(["run", "--problem", "heat1d", "--h", "0.05,x", "--out",
                 str(tmp_path / "c.csv")]) == 2
    with pytest.raises(SystemExit) as exit_:
        main(["table", "--no-such-flag"])
    assert exit_.value.code == 2
    assert built == []
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

@pytest.fixture(scope="module")
def method_files(tmp_path_factory):
    """``genmethod`` files by stage count, written on first use."""
    root, files = tmp_path_factory.mktemp("methods"), {}

    def get(s):
        if s not in files:
            files[s] = root / f"m{s}.json"
            assert main(["genmethod", "--s", str(s), "--out", str(files[s])]) == 0
        return files[s]
    return get


def _stability_pair_and_method(tmp_path, capsys, mfile, args):
    """Run ``stability`` on ``--s`` and on ``--method``, with no warning; return
    each printed result (past its label) and each CSV's lines."""
    s = str(json.loads(mfile.read_text())["s"])
    capsys.readouterr()
    printed, lines = [], []
    for source in (["--s", s], ["--method", str(mfile)]):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stability", *source, *args, "--out", str(out)]) == 0
        printed.append(capsys.readouterr().out.splitlines()[0].split(": ", 1)[1])
        lines.append(out.read_text().splitlines())
    return printed, lines


class TestMethodFileReadsAsItsPair:
    """A ``genmethod`` file, evaluated by its stage recurrence, gives its
    pair's results."""

    @pytest.mark.parametrize("s", [2, 5, 49])
    def test_stable_length(self, tmp_path, capsys, method_files, s):
        mfile = method_files(s)
        l_s = json.loads(mfile.read_text())["l_s"]
        printed, _ = _stability_pair_and_method(tmp_path, capsys, mfile,
                                                [f"--mu-min={-1.2 * l_s!r}"])
        assert printed[1] == printed[0]

    def test_s50_domain(self, tmp_path, capsys, method_files):
        printed, _ = _stability_pair_and_method(tmp_path, capsys, method_files(50),
                                                ["--mode", "domain"])
        assert printed[1] == printed[0] == "52882 of 160000 grid points inside"

    def test_far_out_rows_are_the_pairs_inf(self, tmp_path, capsys, method_files):
        printed, (pair_rows, method_rows) = _stability_pair_and_method(
            tmp_path, capsys, method_files(1000), ["--mu-min=-1e7", "--samples", "6"])
        assert printed[1] == printed[0]
        # Header and the four overflowed rows are byte for byte the pair's; the
        # last two are finite and agree to rounding.
        assert method_rows[:5] == pair_rows[:5]
        assert all(row.endswith(",inf") for row in pair_rows[1:5])
        for pair_row, method_row in zip(pair_rows[5:], method_rows[5:]):
            (mu_p, mar_p), (mu_m, mar_m) = (map(float, r.split(","))
                                            for r in (pair_row, method_row))
            assert mu_m == mu_p and mar_m == pytest.approx(mar_p, rel=1e-9)

    def test_far_out_in_the_plane_is_outside(self, tmp_path, capsys, method_files):
        out = tmp_path / "dom.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stability", "--method", str(method_files(1000)), "--mode",
                         "domain", "--re-min=-1e7", "--im-max", "1e5",
                         "--resolution", "16", "--out", str(out)]) == 0
        assert "0 of 256 grid points inside" in capsys.readouterr().out


class TestStageCap:
    """An explicit s above STAGE_CAP exits 2 before any work, naming the cap."""

    @pytest.fixture(autouse=True)
    def no_design(self, monkeypatch):
        import tsrk.cli as cli_mod

        def boom(*args):
            raise AssertionError("a design was started")

        monkeypatch.setattr(cli_mod, "solve_damping", boom)
        monkeypatch.setattr(cli_mod, "build_undamped_pair", boom)

    @pytest.mark.parametrize("argv", [
        ["genmethod", "--s", "2049"],
        ["genmethod", "--s", "1000000000"],
        ["table", "--s-list", "5,2049"],
        ["stability", "--s", "2049"],
        ["stability", "--undamped", "--s", "2049", "--mode", "domain"],
    ], ids=" ".join)
    def test_an_argument_above_the_cap(self, tmp_path, capsys, argv):
        out = tmp_path / "o.out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        s = argv[argv.index("--s" if "--s" in argv else "--s-list") + 1].split(",")[-1]
        err = capsys.readouterr().err
        assert err.endswith(f": stage count {s} is above the cap of {STAGE_CAP}\n"), err
        assert not out.exists()

    @pytest.mark.parametrize("command, options", [
        ("run", ["--problem", "heat1d", "--h", "0.002"]),
        ("convergence", ["--problem", "heat1d", "--h0", "0.002", "--halvings", "1"]),
    ], ids=["run", "convergence"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_a_run_option_above_the_cap(self, tmp_path, capsys, command, options, where):
        out = tmp_path / "r.csv"
        s = ["--s", "2049"] if where == "flag" else ["--config", str(_config(tmp_path, s=2049))]
        assert main([command, *options, *s, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --s: stage count 2049 is above the cap "
                                           f"of {STAGE_CAP}\n")
        assert not out.exists()


@pytest.mark.parametrize("error, code, line", [
    (MemoryError(), 2, "error: MemoryError"),
    (OSError(), 2, "error: OSError"),
    (DesignFailure(""), 3, "numerical failure: DesignFailure"),
    (MemoryError("out of memory"), 2, "error: out of memory"),
], ids=repr)
def test_an_exception_without_a_message_prints_its_type(tmp_path, capsys, monkeypatch, error,
                                                         code, line):
    # A bare MemoryError() printed "error: " with nothing after it.
    import tsrk.cli as cli_mod

    def fail(*args):
        raise error

    monkeypatch.setattr(cli_mod, "solve_damping", fail)
    assert main(["genmethod", "--s", "5", "--out", str(tmp_path / "m.json")]) == code
    assert capsys.readouterr().err == line + "\n"


class TestRejectedOption:
    """A run/convergence option that does not parse exits 2, naming it."""

    BASE = {"run": {"problem": "heat1d", "h": "0.002", "s": "auto"},
            "convergence": {"problem": "heat1d", "h0": "0.001", "halvings": "1"}}

    @pytest.mark.parametrize("command, key, value, where", [
        ("run", "s", "x", "flag"),
        ("run", "h", "0.002,y", "flag"),
        ("run", "eps", "x", "flag"),
        ("run", "problem", "nope", "flag"),
        ("convergence", "h0", "x", "flag"),
        ("convergence", "halvings", "1.5", "flag"),
        ("run", "eps", "x", "config"),
    ], ids=str)
    def test_names_the_option_and_writes_nothing(self, tmp_path, capsys,
                                                 command, key, value, where):
        options = dict(self.BASE[command])
        if where == "flag":
            options[key] = value
        else:
            options["config"] = str(_config(tmp_path, **{key: value}))
        out = tmp_path / "r.csv"
        argv = [command, *(f"--{k}={v}" for k, v in options.items()), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{key}: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_help_names_the_registry(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        problem_help = next(line for line in capsys.readouterr().out.splitlines()
                            if line.lstrip().startswith("--problem"))
        for name in ("vdpol", "rober", "hires", "burgers", "heat1d"):
            assert name in problem_help

    def test_console_entry_exits_2_naming_the_option(self, tmp_path, child_env):
        # A fresh interpreter, so the module's own sys.exit(main()) line runs.
        work = tmp_path / "work"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "tsrk.cli", "run", "--problem", "heat1d",
             "--h", "0.002", "--s", "x"],
            cwd=work, env=child_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --s:"), proc.stderr
        assert list(work.iterdir()) == []


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

    def test_auto_passes_over_a_stage_count_without_a_design(self, tmp_path):
        # h * rho is about 5.2: l_2 = 3.40 falls short, s = 3 has no design at
        # eps = 0.59 (it exited 3 on it), and l_4 = 16.19 suffices.
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "heat1d", "--h", "0.0005", "--s", "auto",
                     "--eps", "0.59", "--out", str(out)]) == 0
        row = list(csv.DictReader(out.open()))[0]
        assert row["s_used"] == "4" and float(row["endpoint_error"]) < 1e-5

    def test_zero_step_size_is_a_parameter_error(self, tmp_path, capsys):
        assert main(["run", "--problem", "heat1d", "--h", "0", "--s", "5",
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "step size must be positive" in capsys.readouterr().err

    def test_infinite_step_size_is_a_parameter_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "heat1d", "--h", "inf", "--s", "3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: step size must be positive and finite, got inf\n"
        assert not out.exists()

    def test_step_count_above_the_cap_is_a_parameter_error(self, tmp_path, child_env):
        # 0.1 / 1e-300 = 1e299 steps: a fresh interpreter with a timeout, so an
        # uncapped step count fails the test instead of running for ever.
        work = tmp_path / "work"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "tsrk.cli", "run", "--problem", "heat1d",
             "--h", "1e-300", "--out", "r.csv"],
            cwd=work, env=child_env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "1e+299 steps" in proc.stderr and "increase h" in proc.stderr
        assert list(work.iterdir()) == []

    def test_a_later_bad_step_size_fails_before_any_row_runs(self, tmp_path, capsys,
                                                             monkeypatch):
        # The h = 0.01 row alone takes seconds; the 1e-300 row's step count
        # is checked, and refused, before it starts.
        calls = []
        real_integrate = tsrk.cli.integrate

        def counted(*args, **kwargs):
            calls.append(args)
            return real_integrate(*args, **kwargs)

        monkeypatch.setattr(tsrk.cli, "integrate", counted)
        out = tmp_path / "r.csv"
        assert main(["run", "--problem", "rober", "--h", "0.01,1e-300", "--s", "auto",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: (t_out - t0)/h = 1e+303 steps exceed the 1e+07 cap; increase h\n")
        assert calls == [] and not out.exists()

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

    @pytest.mark.parametrize("halvings", ["1024", "1000000000"])
    def test_halvings_past_the_step_cap_is_a_parameter_error(self, tmp_path, child_env,
                                                             halvings):
        # h0 / 2**1024 is not a float.  The rows are planned one by one, and
        # the first row past the step cap ends the plan: a fresh interpreter
        # with a timeout and a 2 GiB address space, so a list of 10^9 step
        # sizes fails the test instead of filling the machine's memory.
        work = tmp_path / "work"
        work.mkdir()
        limit = 2 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "tsrk.cli", "convergence", "--problem", "heat1d",
             "--h0", "0.01", "--halvings", halvings, "--s", "3", "--out", "c.csv"],
            cwd=work, env=child_env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: (t_out - t0)/h = 1.04858e+07 steps exceed "
                               "the 1e+07 cap; increase h\n")
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("command, options", [
        ("convergence", ["--h0", "0.1", "--halvings", "2"]),
        ("run", ["--h", "0.05,0.1"]),
    ], ids=["convergence", "run"])
    def test_a_one_step_row_is_a_parameter_error(self, tmp_path, capsys, monkeypatch,
                                                 command, options):
        # heat1d's window is 0.1: at h = 0.1 the starter would take the only
        # step, and the row would report the starter's error as the method's.
        calls = []
        monkeypatch.setattr(tsrk.cli, "integrate", lambda *args: calls.append(args))
        out = tmp_path / "c.csv"
        assert main([command, "--problem", "heat1d", *options, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            "error: (t_out - t0)/h = 1.0 must be an integer >= 2: the starter takes the "
            "first step, the method the rest; pick h dividing the window\n"))
        assert calls == [] and not out.exists()

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

    @pytest.mark.parametrize("field, value", [
        ("m", math.nan), ("m_tilde", math.inf), ("c", -math.inf), ("a", math.nan),
        ("b", math.inf),
    ], ids=repr)
    def test_method_file_non_finite_number(self, tmp_path, capsys, field, value):
        data = tsrk.design_method(5).to_dict()
        if isinstance(data[field], list):
            data[field][-1] = value
        else:
            data[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))  # as NaN, Infinity or -Infinity
        out = tmp_path / "o.csv"
        assert main(["stability", "--method", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed method record: {field} ")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("m", None), ("m_tilde", True), ("c", "1"), ("m", 10**400), ("a", 10**400),
    ], ids=["null", "bool", "text", "huge entry", "huge scalar"])
    def test_method_file_entry_that_is_not_a_double(self, tmp_path, capsys, field, value):
        # A plain np.asarray read a null entry as NaN past the finiteness
        # check, true and "1" as 1.0; an int past the double range overflowed.
        data = tsrk.design_method(5).to_dict()
        if isinstance(data[field], list):
            data[field][0] = value
        else:
            data[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o.csv"
        assert main(["stability", "--method", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed method record: {field} ")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("s", [5.5, "5", True, None], ids=repr)
    def test_method_file_stage_count_is_a_json_integer(self, tmp_path, capsys, s):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**tsrk.design_method(5).to_dict(), "s": s}))
        assert main(["stability", "--method", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed method record: s must be an integer, got {s!r}\n")


WRITE_UNDER_UMASK = """
from tsrk.cli import main
from tsrk.problems import _cached
assert main(["genmethod", "--s", "5", "--out", "m.json"]) == 0
assert main(["table", "--s-list", "5", "--out", "t.csv"]) == 0
_cached("mode|a record", dict)
"""


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


def test_design_commands_never_import_scipy(tmp_path, child_env):
    proc = subprocess.run([sys.executable, "-c", IMPORT_CONTRACT, str(tmp_path)],
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert not result["design_loaded_scipy"]
    assert result["solves_loaded_scipy"]
    assert result["rober_mass_defect"] <= 1e-12
    assert result["heat_error"] <= 1e-5


# The command-line fuzz below draws each value half the time from sound
# values, so that every command also runs, and half the time from edge
# values.  Jobs stay small: run and convergence on heat1d (window 0.1) at
# steps that give at most 10^3 steps, at most 10^3 samples, a resolution of
# at most 64, and s <= 200 (a larger s is refused before any work).  {tmp}
# is the fuzz directory.
_EDGES = ["0", "-1", "-0.5", "1", "2.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
          "-1e-300", "1/2", ""]
_STAGE_EDGES = ["0", "-3", "1", "2", "2049", "1" + "0" * 300, "2.5", "nan", ""]
_STEPS = ["0.05", "0.025", "0.01", "0.001", "0.0001"]
_STEP_EDGES = ["0.1", "0.2", "0.03", "-0.01", "1e-300", *_EDGES]
_FILES = {  # name -> text; None: a genmethod file
    "method.json": None,
    "method-cut.json": '{"s": 5, "a_tilde": 19.99',
    "method-list.json": "[]",
    "method-fraction.json": '{"s": 2.5}',
    "config-run.json": '{"problem": "heat1d", "h": [0.05, 0.01], "s": "auto"}',
    "config-conv.json": '{"problem": "heat1d", "h0": 0.05, "halvings": 1, "s": 3}',
    "config-empty.json": '{"h": []}',
    "config-nan.json": '{"h0": NaN, "eps": Infinity}',
    "config-list.json": "[1, 2]",
    "config-cut.json": '{"problem": ',
    "config-unknown.json": '{"bogus": 1}',
    "config-types.json": '{"s": 2.5, "halvings": true, "problem": null}',
}
# The files, one that is missing, and a directory.
_PATHS = ["{tmp}/" + name for name in (*_FILES, "missing.json")] + ["{tmp}"]


def _pick(sound, edges=_EDGES):
    return st.one_of(st.sampled_from(sound), st.sampled_from(edges))


def _flag(name, values):
    """``--name=value`` for a value ``values`` draws."""
    return values.map(lambda v: [f"--{name}={v}"])


def _optional(name, values):
    """No flag, or ``_flag(name, values)``."""
    return st.one_of(st.just([]), _flag(name, values))


def _line(command, *flags):
    out = _flag("out", st.sampled_from(["{tmp}/o.out"] * 7 + ["{tmp}"]))
    return st.tuples(st.just([command]), *flags, out).map(lambda parts: sum(parts, []))


def _list(values, min_size=0):
    return st.lists(values, min_size=min_size, max_size=3).map(",".join)


_STAGES, _EPS = _pick(["3", "5", "17", "200"], _STAGE_EDGES), _pick(["0.05", "0.5"])
_COMMAND_LINES = st.one_of(
    _line("genmethod", _flag("s", _STAGES), _optional("eps", _EPS)),
    _line("table", _optional("s-list", _list(_STAGES)), _optional("eps", _EPS)),
    _line("stability", _optional("s", _STAGES), _optional("eps", _EPS),
          st.sampled_from([[], ["--undamped"]]),
          _optional("mode", st.sampled_from(["domain", "real-scan", "x"])),
          _optional("method", st.sampled_from(_PATHS)),
          _optional("mu-min", _pick(["-50", "-1e4"])),
          _flag("samples", _pick(["3", "1000"], ["0", "-1", "1", "2", "2.5", "nan"])),
          _optional("re-min", _pick(["-50", "-1e4"])), _optional("re-max", _pick(["0", "2"])),
          _optional("im-max", _pick(["12", "1e3"])),
          _flag("resolution", _pick(["16", "64"], ["0", "-1", "1", "2", "2.5", "nan"]))),
    *(_line(command, _flag("problem", st.sampled_from(["heat1d"] * 3 + ["nope", ""])),
            _optional("s", st.one_of(st.just("auto"), _STAGES)), _optional("eps", _EPS),
            st.one_of(st.just([]), st.just([]), _flag("config", st.sampled_from(_PATHS))),
            *steps)
      for command, steps in [
          ("run", [_flag("h", _list(_pick(_STEPS, _STEP_EDGES), min_size=1))]),
          ("convergence", [_flag("h0", _pick(_STEPS[:3], _STEP_EDGES)),
                           _flag("halvings", _pick(["1", "2", "3"],
                                                   ["0", "-1", "1.5", "nan", "1" + "0" * 300]))])]),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, method_files):
    """A directory holding ``_FILES``, the good method file a ``genmethod`` copy."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _FILES.items():
        (root / name).write_text(method_files(5).read_text() if text is None else text)
    return root


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(argv=_COMMAND_LINES)
def test_every_command_line_exits_with_a_documented_code(fuzz_dir, argv):
    # 0, 2, 3 or 4 from main, or 2 from argparse's usage error, and never a
    # traceback or a warning.
    argv = [arg.replace("{tmp}", str(fuzz_dir)) for arg in argv]
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert [str(w.message) for w in caught] == [], argv
