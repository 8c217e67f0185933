import io
import os
import re
import resource
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

import dowg
from dowg import _hooks
from dowg.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SELFTEST,
    EXIT_SOLVER,
    EXIT_USAGE,
    EXIT_VALIDATION,
    UsageError,
    ValidationError,
    _OPTIONS,
    main,
    parse_config,
    selftest,
)


class TestParseConfig:
    def test_convergence_defaults(self):
        cfg = parse_config(["convergence"])
        assert cfg.case == "example1" and cfg.scheme == "wg"
        assert cfg.order == 1
        assert cfg.levels == [3, 4, 5, 6, 7]
        assert cfg.directions == [20]
        assert (cfg.sigma_t, cfg.sigma_s, cfg.eta) == (2.0, 0.5, 0.5)
        assert cfg.cp == 0.1 and cfg.sd_c == 1.0
        assert cfg.tol is None
        assert cfg.formats == ("csv", "md", "svg")

    def test_angular_defaults(self):
        cfg = parse_config(["angular-study"])
        assert cfg.order == 2 and cfg.levels == [5]
        assert cfg.directions == [4, 8, 16, 32]
        assert cfg.tol == 1e-9

    def test_levels_forms(self):
        assert parse_config(["convergence", "--levels", "2-4"]).levels == [2, 3, 4]
        assert parse_config(["convergence", "--levels", "2,5"]).levels == [2, 5]
        assert parse_config(["solve", "--levels", "4"]).levels == [4]

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("case = example2\norder = 2\n# comment\n")
        cfg = parse_config(["convergence", "--config", str(cfgfile)])
        assert cfg.case == "example2" and cfg.order == 2
        cfg = parse_config(
            ["convergence", "--config", str(cfgfile), "--case", "example1"]
        )
        assert cfg.case == "example1" and cfg.order == 2
        assert cfg.scheme == "wg"  # untouched default

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("volume = 11\n")
        with pytest.raises(UsageError, match="volume"):
            parse_config(["convergence", "--config", str(cfgfile)])

    def test_malformed_value(self):
        with pytest.raises(UsageError, match="tol"):
            parse_config(["convergence", "--tol", "soon"])

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="eta"):
            parse_config(["convergence", "--eta", "1.5"])
        with pytest.raises(ValidationError, match="sigma_s"):
            parse_config(["convergence", "--sigma-s", "3.0"])
        # build_mesh starts at level 1
        with pytest.raises(ValidationError, match=r"levels must lie in 1\.\.10"):
            parse_config(["solve", "--levels", "0"])
        with pytest.raises(ValidationError, match="single level"):
            parse_config(["solve", "--levels", "3-5"])
        with pytest.raises(ValidationError, match="ordinate count"):
            parse_config(["convergence", "--directions", "4,8"])

    def test_comparator_flags(self):
        cfg = parse_config(["compare", "--cp", "0.2", "--sd-c", "0.5"])
        assert cfg.cp == 0.2 and cfg.sd_c == 0.5
        assert cfg.levels == [3, 4, 5, 6]


# per option, as text: a valid non-default value, and a second valid value
# that differs from it
_SAMPLES = {
    "case": ("example2", "example1"),
    "scheme": ("dodsd", "dodg"),
    "order": ("2", "1"),
    "levels": ("4-5", "2,6"),
    "directions": ("8", "12"),
    "sigma_t": ("3.0", "2.5"),
    "sigma_s": ("1.0", "0.25"),
    "eta": ("0.25", "-0.5"),
    "tol": ("1e-7", "auto"),
    "cp": ("0.2", "0.3"),
    "sd_c": ("0.5", "2.0"),
    "out": ("a", "b"),
    "format": ("md", "csv,svg"),
}


class TestFlagsAndConfigFile:
    def test_samples_cover_every_option(self):
        assert set(_SAMPLES) == set(_OPTIONS)

    @pytest.mark.parametrize("name", sorted(_SAMPLES))
    def test_flag_equals_file_entry_and_wins(self, name, tmp_path):
        flag = "--" + name.replace("_", "-")
        value, other = _SAMPLES[name]
        same, conflict = tmp_path / "same.txt", tmp_path / "conflict.txt"
        same.write_text(f"{name} = {value}\n")
        conflict.write_text(f"{name} = {other}\n")
        by_flag = parse_config(["convergence", flag, value])
        assert by_flag != parse_config(["convergence"])
        assert parse_config(["convergence", "--config", str(same)]) == by_flag
        assert parse_config(["convergence", "--config", str(conflict)]) != by_flag
        assert parse_config(
            ["convergence", "--config", str(conflict), flag, value]
        ) == by_flag


class TestHelp:
    # each command's own defaults, as the README lists them
    _DEFAULTS = {
        "solve": {"levels": "3"},
        "convergence": {"levels": "3-7"},
        "compare": {"levels": "3-6"},
        "angular-study": {"levels": "5", "order": "2", "directions": "4,8,16,32",
                          "tol": "1e-9"},
    }

    @pytest.mark.parametrize("command", sorted(_DEFAULTS))
    def test_every_option_shows_its_text_and_default(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # no wrapped help lines
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        shown = {"order": "1", "directions": "20", "tol": "auto", "format": "csv,md,svg"}
        shown.update(self._DEFAULTS[command])
        for name, (_, default, text, _) in _OPTIONS.items():
            assert f"{text} (default: {shown.get(name, default)})" in out
        # 'auto' runs solve and angular-study at 1e-9, not at certified rows
        [tol_line] = [ln for ln in out.splitlines() if ln.lstrip().startswith("--tol")]
        assert "'auto' = 1e-9 for solve and angular-study" in tol_line


class TestExitCodes:
    def test_usage(self, capsys):
        assert main(["convergence", "--tol", "soon"]) == EXIT_USAGE
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config-file"])
    def test_repeated_format_exits_2(self, by_file, tmp_path, capsys):
        # each format names one file, so a repeated one would write it twice
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("format = csv,csv\n")
        given = ["--config", str(cfgfile)] if by_file else ["--format", "csv,csv"]
        out = tmp_path / "out"
        assert main(["solve", "--levels", "2", "--out", str(out)] + given) == EXIT_USAGE
        assert "usage error: bad value for format: " in capsys.readouterr().err
        assert not out.exists()

    def test_validation(self, capsys):
        assert main(["convergence", "--eta", "1.5"]) == EXIT_VALIDATION
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--tol", "inf"],
        ["convergence", "--tol", "inf"],
        ["solve", "--sigma-t", "inf"],
        ["solve", "--scheme", "dodg", "--cp", "inf"],
        ["solve", "--scheme", "dodsd", "--sd-c", "inf"],
        ["solve", "--sigma-s", "nan"],
    ], ids=["solve-tol", "convergence-tol", "sigma-t", "cp", "sd-c", "sigma-s-nan"])
    def test_non_finite_value_exits_3(self, argv, tmp_path, capsys):
        code = main(argv + ["--levels", "2", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--linear-tol=1e-8", "--angle-ordering=jacobi",
                                      "--renormalize-kernel=off"])
    def test_removed_solver_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["solve", flag])
        assert exc.value.code == EXIT_USAGE

    def test_removed_config_key_exits_2(self, tmp_path, capsys):
        # the case decides its kernel's normalization; a file entry cannot
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("renormalize_kernel = off\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfgfile), "--out", str(out)]) == EXIT_USAGE
        assert "unknown key 'renormalize_kernel'" in capsys.readouterr().err
        assert not out.exists()

    def test_over_budget_run_exits_3(self, tmp_path, capsys, monkeypatch):
        # the size check runs before assembly, against the budget the
        # process reports
        monkeypatch.setattr("dowg.verify._memory_budget", lambda: 2**10)
        code = main(["solve", "--levels", "2", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "GiB" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_scattering_kernel_too_large_exits_3(self, tmp_path):
        # the (L, L) kernel of 100000 ordinates is 75 GiB; the size check
        # refuses it before anything is built, and the address-space limit
        # keeps the run from allocating it should the check let it through
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (8 * 2**30, 8 * 2**30))

        src = os.path.dirname(os.path.dirname(dowg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "dowg.cli", "solve", "--levels", "2",
             "--directions", "100000", "--out", str(tmp_path)],
            preexec_fn=limit, env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == EXIT_VALIDATION
        assert "GiB" in run.stderr and "Traceback" not in run.stderr
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("level", ["2", "5"], ids=["exact-lu", "sweep"])
    def test_singular_system_exits_3(self, level, tmp_path, capsys):
        code = main(["solve", "--scheme", "dodsd", "--sd-c", "1e300",
                     "--levels", level, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "singular" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["solve", "--levels", "1", "--directions", "4",
                     "--out", str(blocker / "sub")])
        assert code == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    def test_unconverged_row_exits_4(self, tmp_path, capsys):
        code = main(["convergence", "--levels", "2", "--tol", "1e-300",
                     "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "solver failure" in err and "level 2" in err
        assert not any(tmp_path.iterdir())

    def test_uncertified_solve_exits_4_after_its_reports(self, tmp_path, capsys):
        # a tolerance below roundoff is never certified: the run stops at
        # the sweep cap, writes its reports and its summary, then fails
        code = main(["solve", "--levels", "2", "--tol", "1e-16", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        captured = capsys.readouterr()
        assert "200 sweeps, converged=False" in captured.out
        assert "solver failure" in captured.err and "uncertified" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"solve_example1_wg_Q1.{e}" for e in ("csv", "md", "svg")
        ]

    def test_diverged_solve_exits_4_after_its_reports(self, tmp_path, capsys, monkeypatch):
        # a huge penalty makes the first update norm NaN; the run stops
        # there, not at the sweep cap, and the trace plot has no point to
        # draw, but the reports are written before the exit 4; the
        # overflowed field is not measured
        def measure_error(*args):
            raise AssertionError("an overflowed field was measured")

        monkeypatch.setattr(dowg.cli, "measure_error", measure_error)
        code = main(["solve", "--scheme", "dodg", "--cp", "1e300", "--levels", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_SOLVER
        captured = capsys.readouterr()
        assert "error nan (energy nan), 1 sweeps, converged=False" in captured.out
        assert "uncertified" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"solve_example1_dodg_Q1.{e}" for e in ("csv", "md", "svg")
        ]
        csv = (tmp_path / "solve_example1_dodg_Q1.csv").read_text().splitlines()
        assert csv == ["iteration,err", "1,nan"]

    def test_angular_study_needs_two_ordinate_counts(self, tmp_path, capsys):
        # the library takes one count, but the study's plateau needs two
        code = main(["angular-study", "--levels", "2", "--order", "1",
                     "--directions", "4", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "at least two ordinate counts" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_fallback_warning_is_one_line(self, tmp_path, capsys, monkeypatch):
        # sweeping the WG matrix's own lower part stalls, so the run
        # switches to sparse LU: its warning is one stderr line with no
        # library file and line, and an error filter still raises it
        monkeypatch.setattr(dowg.solver, "_sweep_shift", lambda s: None)
        argv = ["solve", "--levels", "4", "--sigma-s", "0", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err
        assert re.fullmatch(r"warning: [^\n]*sparse LU\n", err)
        assert not re.search(r"\.py:[0-9]+:", err)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="sparse LU"):
                main(argv)

    def test_selftest_ok(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("ok   ") == 4 and "4 of 4" in out

    def test_selftest_catches_sign_flip(self):
        buf = io.StringIO()
        with _hooks.inject("flip_inflow_sign"):
            n = selftest(buf)
        assert n >= 1
        assert "FAIL coercivity sample" in buf.getvalue()

    def test_selftest_exit_code_under_fault(self):
        with _hooks.inject("flip_inflow_sign"):
            assert main(["selftest"]) == EXIT_SELFTEST


def run_files(tmp_path, argv):
    code = main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_OK
    return sorted(p.name for p in tmp_path.iterdir())


class TestCommands:
    def test_exact_sweeps_write_the_trace_svg(self, tmp_path):
        # without scattering the second sweep changes nothing, so its
        # update norm is 0, which the log-log trace plot leaves out
        names = run_files(tmp_path, ["solve", "--sigma-s", "0", "--levels", "2"])
        assert names == [f"solve_example1_wg_Q1.{e}" for e in ("csv", "md", "svg")]
        ET.fromstring((tmp_path / "solve_example1_wg_Q1.svg").read_text())

    def test_solve_outputs(self, tmp_path, capsys):
        names = run_files(tmp_path, [
            "solve", "--levels", "2", "--directions", "8", "--order", "1",
        ])
        assert names == [f"solve_example1_wg_Q1.{e}" for e in ("csv", "md", "svg")]
        trace = (tmp_path / "solve_example1_wg_Q1.csv").read_text()
        assert trace.startswith("iteration,err\n")
        assert "converged=True" in capsys.readouterr().out
        ET.fromstring((tmp_path / "solve_example1_wg_Q1.svg").read_text())

    def test_convergence_outputs(self, tmp_path, capsys):
        names = run_files(tmp_path, [
            "convergence", "--levels", "1-2", "--directions", "4",
            "--format", "csv,md",
        ])
        assert names == ["convergence_example1_wg_Q1.csv",
                         "convergence_example1_wg_Q1.md"]
        csv = (tmp_path / names[0]).read_text()
        assert csv.startswith("inv_h,error,eoc\n2,")
        assert "| 1/h | error | eoc |" in capsys.readouterr().out

    def test_convergence_deterministic(self, tmp_path):
        argv = ["convergence", "--levels", "1-2", "--directions", "4",
                "--format", "csv"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_files(a, list(argv))
        run_files(b, list(argv))
        assert (a / "convergence_example1_wg_Q1.csv").read_bytes() == \
            (b / "convergence_example1_wg_Q1.csv").read_bytes()

    def test_compare_outputs(self, tmp_path, capsys):
        names = run_files(tmp_path, [
            "compare", "--levels", "1-2", "--directions", "4",
            "--format", "csv,svg",
        ])
        assert names == ["compare_example1_all_Q1.csv",
                         "compare_example1_all_Q1.svg"]
        header = (tmp_path / names[0]).read_text().splitlines()[0]
        assert header == "inv_h,wg_error,wg_eoc,dodg_error,dodg_eoc,dodsd_error,dodsd_eoc"
        svg = (tmp_path / names[1]).read_text()
        assert svg.count("<polyline") == 3
        assert "best competitor" in capsys.readouterr().out

    def test_angular_outputs(self, tmp_path):
        names = run_files(tmp_path, [
            "angular-study", "--levels", "2", "--order", "1",
            "--directions", "4,8", "--format", "csv",
        ])
        assert names == ["angular-study_example1_wg_Q1.csv"]
        text = (tmp_path / names[0]).read_text()
        assert text.startswith("M,error\n4,")

    def test_scheme_selection(self, tmp_path):
        names = run_files(tmp_path, [
            "solve", "--scheme", "dodsd", "--levels", "2", "--directions",
            "4", "--format", "md",
        ])
        assert names == ["solve_example1_dodsd_Q1.md"]
