import os
import subprocess
import sys

from pathlib import Path

import pytest

import dyadsim
from dyadsim import dynamics, sweep as sweep_mod
from dyadsim.cli import _settings, build_parser, main, parse_context
from dyadsim.sweep import SweepConfig

SMALL = ["--runs", "2", "--turns", "60"]

# absolute, so the child finds the package whatever its working directory
PACKAGE_ROOT = str(Path(dyadsim.__file__).resolve().parent.parent)


def run_python(args, cwd, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def run_cli(args, cwd, env_extra=None):
    return run_python(["-m", "dyadsim.cli", *args], cwd, env_extra)


class TestParseContext:
    def test_inhibited_listener_example(self):
        ctx = parse_context("1,0;1,-1")
        assert ctx.as_tuple() == (1, 0, 1, -1)

    def test_zero_matrix(self):
        assert parse_context("0,0;0,0").as_tuple() == (0, 0, 0, 0)

    def test_whitespace_tolerated(self):
        assert parse_context(" -1 , 1 ; 0 , 1 ").as_tuple() == (-1, 1, 0, 1)

    def test_out_of_range_names_token(self):
        with pytest.raises(ValueError, match=r"token 1 \(s1\).*outside"):
            parse_context("2,0;0,0")

    def test_non_integer_names_token(self):
        with pytest.raises(ValueError, match=r"token 4 \(s2\).*not an integer"):
            parse_context("0,0;0,x")

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="two"):
            parse_context("1,0,1,-1")
        with pytest.raises(ValueError, match="four"):
            parse_context("1;0")


class TestSweepCommand:
    def test_writes_expected_rows(self, tmp_path):
        code = main(["sweep", *SMALL, "--seed", "9", "--out", str(tmp_path / "s.csv")])
        assert code == 0
        lines = (tmp_path / "s.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 81 * 2

    def test_byte_identical_across_invocations_and_workers(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        assert main(["sweep", *SMALL, "--seed", "4", "--out", str(a)]) == 0
        assert main(["sweep", *SMALL, "--seed", "4", "--out", str(b)]) == 0
        assert main(["sweep", *SMALL, "--seed", "4", "--workers", "3", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


class TestSimulateCommand:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--context", "1,1;1,1", "--turns", "500", "--seed", "7"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().strip().split("\n")) == 502

    def test_bad_context_is_usage_error(self, tmp_path):
        result = run_cli(["simulate", "--context", "2,0;0,0"], cwd=tmp_path)
        assert result.returncode == 2
        assert "outside {-1, 0, 1}" in result.stderr

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed_is_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "t.csv"
        args = ["simulate", "--context", "1,0;1,-1", "--turns", "5", "--seed", seed]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"dyadsim: error: validation: seed {seed} outside [0, 2**64)\n"
        )
        assert not out.exists()
        # the largest seed the kernel takes is accepted here too
        assert main([*args[:-1], str(2**64 - 1), "--out", str(out)]) == 0


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("command", ["sweep", "analyze", "xcorr", "lags", "figures"])
    def test_out_of_range_seed_is_usage_error(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        args = [command, *SMALL, "--seed", seed, "--out", str(out)]
        if command == "analyze":
            args += ["--input", str(tmp_path / "s.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"dyadsim: error: validation: seed {seed} outside [0, 2**64)\n"
        )
        assert not out.exists()

    def test_largest_seed_runs_sweep_and_analyze(self, tmp_path):
        csv, seed = tmp_path / "s.csv", str(2**64 - 1)
        assert main(["sweep", *SMALL, "--seed", seed, "--out", str(csv)]) == 0
        args = ["analyze", *SMALL, "--seed", seed, "--input", str(csv), "--out", str(tmp_path)]
        assert main(args) == 0
        assert (tmp_path / "report.json").exists()


class TestAnalyzeCommand:
    def test_analyze_writes_report(self, tmp_path):
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--seed", "9", "--out", str(csv)]) == 0
        code = main(["analyze", *SMALL, "--seed", "9", "--input", str(csv), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "coefficients.csv").exists()

    def test_truncated_csv_single_line_error(self, tmp_path):
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--seed", "9", "--out", str(csv)]) == 0
        truncated = tmp_path / "t.csv"
        truncated.write_text("\n".join(csv.read_text().split("\n")[:50]) + "\n")
        result = run_cli(
            ["analyze", *SMALL, "--seed", "9", "--input", str(truncated)], cwd=tmp_path
        )
        assert result.returncode == 3
        error_lines = [line for line in result.stderr.strip().split("\n") if line]
        assert len(error_lines) == 1
        assert error_lines[0].startswith("dyadsim: error: input:")


class TestPanelCommands:
    def test_xcorr_and_lags_write_per_context_files(self, tmp_path):
        code = main(
            ["xcorr", *SMALL, "--context", "1,0;0,1", "--context", "1,1;1,1",
             "--out", str(tmp_path / "xc")]
        )
        assert code == 0
        assert (tmp_path / "xc" / "ccf_+100+1.csv").exists()
        assert (tmp_path / "xc" / "ccf_+1+1+1+1.csv").exists()
        code = main(["lags", *SMALL, "--context", "1,1;1,1", "--out", str(tmp_path / "lg")])
        assert code == 0
        text = (tmp_path / "lg" / "lags_+1+1+1+1.csv").read_text()
        assert text.startswith("lag,count,rel_freq\n")

    def test_figures_writes_all_panels(self, tmp_path):
        code = main(
            ["figures", *SMALL, "--seed", "3", "--context", "0,0;0,0",
             "--out", str(tmp_path / "figs")]
        )
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "figs").iterdir())
        assert names == [
            "fig2_traj_0000.csv",
            "fig3_hist.csv",
            "fig6_ccf_0000.csv",
            "fig7_lags_0000.csv",
        ]

    def test_figures_simulates_each_context_once(self, tmp_path, monkeypatch):
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--out", str(csv)]) == 0
        batch_calls = []
        simulate_batch = sweep_mod.simulate_batch

        def counted(context, params, seeds):
            batch_calls.append(context.code())
            return simulate_batch(context, params, seeds)

        def scalar(*args, **kwargs):
            raise AssertionError("figures ran the scalar simulate")

        monkeypatch.setattr(sweep_mod, "simulate_batch", counted)
        monkeypatch.setattr(dynamics, "simulate", scalar)
        code = main(["figures", *SMALL, "--input", str(csv), "--context", "1,0;1,-1",
                     "--context", "0,0;0,0", "--out", str(tmp_path / "figs")])
        assert code == 0
        assert batch_calls == ["+10+1-1", "0000"]
        assert len(list((tmp_path / "figs").iterdir())) == 1 + 3 * 2


class TestErrorCategories:
    @pytest.mark.parametrize("command", ["xcorr", "figures"])
    def test_all_runs_diverging_is_analysis_error(self, tmp_path, capsys, command):
        # every run of this context leaves double range, so no CCF can be averaged
        args = [command, "--influence", "1.0", "--turns", "2000", "--runs", "3",
                "--context", "1,1;1,1", "--out", str(tmp_path)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err == (
            "dyadsim: error: analysis: ccf panel, context +1+1+1+1: fewer than 2 finite runs\n"
        )

    def test_ccf_error_names_the_failing_context(self, tmp_path, capsys):
        # the first context's runs stay finite; the second's all diverge
        out = tmp_path / "out"
        args = ["xcorr", "--influence", "1.0", "--turns", "2000", "--runs", "3",
                "--context", "1,0;0,1", "--context", "1,1;1,1", "--out", str(out)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err == (
            "dyadsim: error: analysis: ccf panel, context +1+1+1+1: fewer than 2 finite runs\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["xcorr", "figures"])
    def test_single_finite_run_ccf_is_analysis_error(self, tmp_path, capsys, command):
        # one run gives a CCF mean but no SD: the panel exits 4, writing nothing
        out = tmp_path / "out"
        args = [command, "--runs", "1", "--turns", "100", "--context", "1,0;0,1",
                "--out", str(out)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err == (
            "dyadsim: error: analysis: ccf panel, context +100+1: fewer than 2 finite runs\n"
        )
        assert not out.exists()

    def test_flag_error_found_before_work_is_usage_error(self, tmp_path, capsys):
        assert main(["xcorr", "--turns", "30", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dyadsim: error: validation: need length > 42")

    def test_impossible_correlation_is_input_error(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--seed", "9", "--out", str(csv)]) == 0
        lines = csv.read_text().split("\n")
        lines[1] = ",".join(lines[1].split(",")[:7] + ["2.0", "true", "synchronous"])
        csv.write_text("\n".join(lines))
        capsys.readouterr()
        code = main(["analyze", *SMALL, "--seed", "9", "--input", str(csv),
                     "--out", str(tmp_path / "rep")])
        assert code == 3
        assert capsys.readouterr().err == (
            "dyadsim: error: input: sweep CSV row 0: r=2.0 outside [-1, 1]\n"
        )
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("lines, message", [
        (slice(None), "bad or missing sweep CSV header"),
        (slice(3, 4), "sweep CSV row 2: tail label '{tail}\\r' inconsistent with r={r}"),
    ], ids=["crlf", "one-cr"])
    def test_carriage_return_is_input_error(self, tmp_path, capsys, lines, message):
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--seed", "9", "--out", str(csv)]) == 0
        rows = csv.read_text().split("\n")
        *_, r, _, tail = rows[3].split(",")
        rows[lines] = [row + "\r" for row in rows[lines]]
        edited = tmp_path / "cr.csv"
        edited.write_bytes("\n".join(rows).encode())
        capsys.readouterr()
        code = main(["analyze", *SMALL, "--seed", "9", "--input", str(edited),
                     "--out", str(tmp_path / "rep")])
        assert code == 3
        assert capsys.readouterr().err == (
            "dyadsim: error: input: " + message.format(tail=tail, r=r) + "\n"
        )
        assert not (tmp_path / "rep").exists()

    def test_zero_workers_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", *SMALL, "--workers", "0", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "dyadsim: error: validation: workers must be >= 1\n"
        )

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_zero_workers_with_input_is_usage_error(self, tmp_path, capsys, form):
        # figures --input runs no sweep, but its workers setting is checked all the same
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--out", str(csv)]) == 0
        config = tmp_path / "run.conf"
        config.write_text("workers = 0\n")
        given = ["--workers", "0"] if form == "flag" else ["--config", str(config)]
        capsys.readouterr()
        out = tmp_path / "figs"
        code = main(["figures", *SMALL, "--input", str(csv), *given, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "dyadsim: error: validation: workers must be >= 1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("xcorr", "max_lag"), ("lags", "max_lag"), ("figures", "max_lag"), ("figures", "bins"),
    ])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_zero_panel_setting_found_before_work(
        self, tmp_path, capsys, monkeypatch, command, key, form
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the settings were checked")

        for name in ("run_sweep", "read_sweep_csv", "context_batch"):
            monkeypatch.setattr(sweep_mod, name, no_work)
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = 0\n")
        flag = "--" + key.replace("_", "-")
        given = [flag, "0"] if form == "flag" else ["--config", str(config)]
        out = tmp_path / "out"
        assert main([command, *SMALL, *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"dyadsim: error: validation: {key} must be >= 1\n"
        assert not out.exists()


class TestFlagHandling:
    # a context whose s1 is -1 reads as a flag after a space; the = form passes it
    @pytest.mark.parametrize("command, written", [
        ("simulate", ["t.csv"]),
        ("xcorr", ["ccf_-1+10+1.csv"]),
        ("lags", ["lags_-1+10+1.csv"]),
        ("figures", ["fig2_traj_-1+10+1.csv", "fig6_ccf_-1+10+1.csv", "fig7_lags_-1+10+1.csv"]),
    ])
    def test_context_with_leading_minus_in_equals_form(self, tmp_path, command, written):
        out = tmp_path / "t.csv" if command == "simulate" else tmp_path
        assert main([command, *SMALL, "--context=-1,1;0,1", "--out", str(out)]) == 0
        for name in written:
            assert (tmp_path / name).exists()

    def test_unknown_flag_rejected(self, tmp_path):
        result = run_cli(["sweep", "--bogus", "1"], cwd=tmp_path)
        assert result.returncode == 2

    def test_invalid_range_is_usage_error(self, tmp_path):
        result = run_cli(["sweep", "--alpha", "1.5"], cwd=tmp_path)
        assert result.returncode == 2
        assert "alpha" in result.stderr

    def test_config_file_mirrors_flags_and_flags_override(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("seed = 5\nruns = 2\nturns = 60\nthreshold = 0.25\n")
        a = tmp_path / "a.csv"
        assert main(["sweep", "--config", str(config), "--out", str(a)]) == 0
        b = tmp_path / "b.csv"
        assert main(["sweep", *SMALL, "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # flag overrides the file value
        c = tmp_path / "c.csv"
        assert main(["sweep", "--config", str(config), "--seed", "6", "--out", str(c)]) == 0
        assert c.read_bytes() != a.read_bytes()

    @pytest.mark.parametrize("flag,value", [("--noise", "inf"), ("--influence", "nan")])
    def test_non_finite_dynamics_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        code = main(["sweep", *SMALL, flag, value, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("dyadsim: error: validation:")
        assert "must be finite" in err and flag[2:] in err
        assert not (tmp_path / "s.csv").exists()

    def test_config_file_max_lag_matches_flag(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("max_lag = 5\n")
        xcorr = ["xcorr", *SMALL, "--context", "1,0;0,1"]
        assert main([*xcorr, "--config", str(config), "--out", str(tmp_path / "file")]) == 0
        assert main([*xcorr, "--max-lag", "5", "--out", str(tmp_path / "flag")]) == 0
        from_file = (tmp_path / "file" / "ccf_+100+1.csv").read_bytes()
        assert from_file == (tmp_path / "flag" / "ccf_+100+1.csv").read_bytes()
        assert len(from_file.splitlines()) == 1 + 11

    def test_config_file_bins_and_flag_override(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("max_lag = 5\nbins = 4\n")
        figures = ["figures", *SMALL, "--context", "0,0;0,0", "--config", str(config)]
        assert main([*figures, "--out", str(tmp_path / "file")]) == 0
        assert len((tmp_path / "file" / "fig3_hist.csv").read_text().splitlines()) == 1 + 4
        assert len((tmp_path / "file" / "fig6_ccf_0000.csv").read_text().splitlines()) == 1 + 11
        # flags override the file values
        assert main([*figures, "--max-lag", "3", "--bins", "6",
                     "--out", str(tmp_path / "flag")]) == 0
        assert len((tmp_path / "flag" / "fig3_hist.csv").read_text().splitlines()) == 1 + 6
        assert len((tmp_path / "flag" / "fig6_ccf_0000.csv").read_text().splitlines()) == 1 + 7

    def test_config_file_workers_validated(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("workers = 0\n")
        code = main(["sweep", *SMALL, "--config", str(config),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,kind", [
        ("seed", "x", "an int"), ("turns", "2.5", "an int"), ("alpha", "fast", "a float"),
    ])
    def test_config_file_bad_value_is_input_error(self, tmp_path, capsys, key, value, kind):
        config = tmp_path / "run.conf"
        config.write_text(f"# small\nruns = 2\n{key} = {value}\n")
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "s.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"dyadsim: error: input: config file line 3: {key} = {value!r} is not {kind}\n"
        )

    def test_config_file_range_error_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("alpha = 1.5\n")
        code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "validation: alpha must be in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["seed = 4", "max-lag = 4"])
    def test_duplicate_config_key_is_input_error(self, tmp_path, capsys, second):
        first = second.split(" ")[0].replace("-", "_") + " = 3"
        config = tmp_path / "run.conf"
        config.write_text(f"{first}\n{second}\n")
        key = first.split(" ")[0]
        out = tmp_path / "out"
        code = main(["xcorr", *SMALL, "--config", str(config), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"dyadsim: error: input: config file line 2: duplicate key {key!r} "
            "(first on line 1)\n"
        )
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("sed = 5\n")
        result = run_cli(["sweep", "--config", str(config)], cwd=tmp_path)
        assert result.returncode == 3
        assert "unknown key" in result.stderr

    def test_env_var_sets_default_out_dir(self, tmp_path):
        out_dir = tmp_path / "from_env"
        result = run_cli(
            ["sweep", *SMALL, "--seed", "2"],
            cwd=tmp_path,
            env_extra={"DYADSIM_OUT_DIR": str(out_dir)},
        )
        assert result.returncode == 0
        assert (out_dir / "sweep.csv").exists()

    def test_cli_import_does_not_load_scipy(self, tmp_path):
        code = ("import sys, dyadsim.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = run_python(["-c", code], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_version_flag(self, tmp_path):
        result = run_cli(["--version"], cwd=tmp_path)
        assert result.returncode == 0
        assert "dyadsim" in result.stdout


class TestSettings:
    def test_bare_sweep_settings_are_the_library_defaults(self):
        settings, config = _settings(build_parser().parse_args(["sweep"]))
        assert config == SweepConfig(master_seed=42)
        assert settings["workers"] == 1

    def test_panel_settings_take_the_lag_default(self):
        settings, _ = _settings(build_parser().parse_args(["xcorr"]))
        assert settings["max_lag"] == dyadsim.LagSpec().max_lag
        assert "bins" not in settings and "workers" not in settings

    @pytest.mark.parametrize("argv", [
        ["sweep", "--bins", "3"], ["analyze", "--input", "s.csv", "--workers", "2"],
        ["simulate", "--context", "0,0;0,0", "--max-lag", "3"],
    ])
    def test_flag_outside_its_command_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
