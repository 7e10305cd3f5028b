import argparse
import os
import re
import subprocess
import sys
import weakref

from pathlib import Path

import pytest

import dyadsim
from dyadsim import dynamics, report as report_mod, sweep as sweep_mod
from dyadsim.cli import _settings, build_parser, main, parse_context
from dyadsim.metrics import _MAX_BINS, _MAX_LAG
from dyadsim.sweep import SweepConfig

from helpers import assert_same_text

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
        assert_same_text(b.read_bytes(), a.read_bytes())
        assert_same_text(c.read_bytes(), a.read_bytes())


class TestSimulateCommand:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--context", "1,1;1,1", "--turns", "500", "--seed", "7"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert_same_text(b.read_bytes(), a.read_bytes())
        assert len(a.read_text().strip().split("\n")) == 502

    @pytest.mark.parametrize("context, seed, flags", [
        ("1,0;1,-1", 7, []),
        ("0,0;0,0", 0, ["--turns", "1"]),
        ("-1,1;0,1", 2**64 - 1, ["--alpha", "0", "--noise", "0"]),
        ("1,0;1,0", 42, ["--influence", "1.0", "--turns", "5000"]),
        # at unit gain, state 1108 is the first to leave double range: only the final state
        ("1,1;1,1", 42, ["--influence", "1.0", "--turns", "1108"]),
    ])
    def test_writes_the_scalar_reference(self, tmp_path, monkeypatch, context, seed, flags):
        simulate = dynamics.simulate

        def scalar(*args, **kwargs):
            raise AssertionError("the simulate command ran the scalar reference")

        monkeypatch.setattr(dynamics, "simulate", scalar)
        out = tmp_path / "t.csv"
        args = ["simulate", f"--context={context}", "--seed", str(seed), *flags]
        assert main([*args, "--out", str(out)]) == 0
        config = _settings(build_parser().parse_args(args))[1]
        reference = simulate(parse_context(context), config.params, seed)
        assert_same_text(out.read_text(), report_mod.trajectory_csv_text(reference))

    def test_divergence_before_the_last_turn_is_analysis_error(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        args = ["simulate", "--context", "1,1;1,1", "--influence", "1.0", "--turns", "1109"]
        assert main([*args, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "dyadsim: error: analysis: behavior state left double-precision range at turn 1108\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("command, prefixes", [
        ("xcorr", ["ccf_"]), ("lags", ["lags_"]),
        ("figures", ["fig2_traj_", "fig6_ccf_", "fig7_lags_"]),
    ])
    def test_default_contexts_without_context_flag(self, tmp_path, command, prefixes):
        out = tmp_path / "out"
        assert main([command, *SMALL, "--out", str(out)]) == 0
        codes = [context.code() for context in report_mod.DEFAULT_FIGURE_CONTEXTS]
        expected = {f"{prefix}{code}.csv" for prefix in prefixes for code in codes}
        if command == "figures":
            expected.add("fig3_hist.csv")
        assert len(codes) == 6 and {p.name for p in out.iterdir()} == expected

    def test_xcorr_and_lags_files_equal_the_figures_panels(self, tmp_path):
        flags = [*SMALL, "--seed", "9", "--max-lag", "7", "--context", "1,0;1,-1",
                 "--context=-1,1;0,1"]
        for command in ("xcorr", "lags", "figures"):
            assert main([command, *flags, "--out", str(tmp_path / command)]) == 0
        figures = {p.name: p.read_bytes() for p in (tmp_path / "figures").iterdir()}
        for command, prefix, stem in (("xcorr", "fig6_", "ccf_"), ("lags", "fig7_", "lags_")):
            files = {p.name: p.read_bytes() for p in (tmp_path / command).iterdir()}
            assert sorted(files) == [f"{stem}+10+1-1.csv", f"{stem}-1+10+1.csv"]
            assert files == {name: figures[prefix + name] for name in files}

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

    @staticmethod
    def _count_kernel_calls(monkeypatch):
        """The seeds of each simulate_rows call the figure batches make."""
        calls = []
        simulate_rows = sweep_mod.simulate_rows

        def counted(coefficients, params, seeds):
            calls.append(list(seeds))
            return simulate_rows(coefficients, params, seeds)

        monkeypatch.setattr(sweep_mod, "simulate_rows", counted)
        return calls

    def test_figures_simulates_each_context_once(self, tmp_path, monkeypatch):
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--out", str(csv)]) == 0

        def scalar(*args, **kwargs):
            raise AssertionError("figures ran the scalar simulate")

        calls = self._count_kernel_calls(monkeypatch)
        monkeypatch.setattr(dynamics, "simulate", scalar)
        code = main(["figures", *SMALL, "--input", str(csv), "--context", "1,0;1,-1",
                     "--context", "0,0;0,0", "--out", str(tmp_path / "figs")])
        assert code == 0
        # both contexts' seeds, each once, in one kernel call
        indices = [sweep_mod.enumerate_contexts().index(parse_context(text))
                   for text in ("1,0;1,-1", "0,0;0,0")]
        assert calls == [[sweep_mod.derive_run_seed(42, i, run) for i in indices for run in (0, 1)]]
        assert len(list((tmp_path / "figs").iterdir())) == 1 + 3 * 2

    # half the cell budget holds 261 rows of 501 cells, two contexts of 100
    # runs; at 5,001 cells it holds 26 rows, so the 81-row floor takes all six
    # contexts of 10 runs
    @pytest.mark.parametrize("runs, turns, rows", [(100, 500, [200] * 3), (10, 5000, [60])],
                             ids=["paper-default", "long-series"])
    @pytest.mark.parametrize("command", ["figures", "xcorr", "lags"])
    def test_default_context_kernel_calls(
        self, tmp_path, monkeypatch, command, runs, turns, rows
    ):
        args = [command, "--runs", str(runs), "--turns", str(turns)]
        if command == "figures":  # read the sweep, so that only the figure batches simulate
            csv = tmp_path / "s.csv"
            assert main(["sweep", *args[1:], "--out", str(csv)]) == 0
            args += ["--input", str(csv)]
        calls = self._count_kernel_calls(monkeypatch)
        assert main([*args, "--out", str(tmp_path / "f")]) == 0
        assert [len(seeds) for seeds in calls] == rows

    @pytest.mark.parametrize("command", ["figures", "xcorr", "lags"])
    def test_payloads_do_not_depend_on_the_grouping(self, tmp_path, monkeypatch, command):
        args = [command, "--runs", "3", "--turns", "120",
                "--context", "1,1;1,1", "--context", "0,0;0,0", "--context", "1,0;1,-1"]
        if command == "figures":  # read the sweep, so that only the figure batches simulate
            assert main(["sweep", *args[1:5], "--out", str(tmp_path / "s.csv")]) == 0
            args += ["--input", str(tmp_path / "s.csv")]
        payloads = []
        monkeypatch.setattr(sweep_mod, "_MIN_BLOCK_ROWS", 1)  # else a group takes 81 rows
        for budget in (sweep_mod._CELL_BUDGET, 1):  # all contexts in one group; one per group
            monkeypatch.setattr(sweep_mod, "_CELL_BUDGET", budget)
            calls = self._count_kernel_calls(monkeypatch)
            out = tmp_path / str(budget)
            assert main([*args, "--out", str(out)]) == 0
            assert len(calls) == (1 if budget > 1 else 3)
            payloads.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert payloads[0] == payloads[1]
        assert len(payloads[0]) == (1 + 3 * 3 if command == "figures" else 3)


class TestLineEnds:
    @pytest.mark.parametrize("command", ["simulate", "analyze", "figures", "xcorr", "lags"])
    def test_every_file_is_written_without_newline_translation(
        self, tmp_path, monkeypatch, command
    ):
        # newline="" writes each "\n" as is; the default would write os.linesep
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--out", str(csv)]) == 0
        calls = []
        write_text = Path.write_text

        def recorded(self, data, encoding=None, errors=None, newline=None):
            calls.append((self.name, newline))
            return write_text(self, data, encoding, errors, newline)

        monkeypatch.setattr(Path, "write_text", recorded)
        args = {
            "simulate": ["simulate", "--context", "1,0;1,-1", "--turns", "60"],
            "analyze": ["analyze", *SMALL, "--input", str(csv)],
        }.get(command, [command, *SMALL, "--context", "1,0;1,-1"])
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 0
        written = sorted(p.name for p in out.iterdir()) if out.is_dir() else [out.name]
        assert sorted(calls) == [(name, "") for name in written]


class TestOneGroupAlive:
    """The figure batches free each group before the next one is simulated."""

    # five contexts of 3 x 121 cells, with a budget that groups them in twos
    CONTEXTS = ["1,1;1,1", "0,0;0,0", "1,0;1,-1", "1,0;1,0", "-1,1;0,1"]
    FLAGS = ["--runs", "3", "--turns", "120"]

    @pytest.fixture
    def groups(self, monkeypatch):
        """A weakref to each simulate_rows call's buffer; a call fails if an
        earlier buffer is still alive."""
        refs = []
        simulate_rows = sweep_mod.simulate_rows

        def spied(coefficients, params, seeds):
            alive = [i for i, ref in enumerate(refs) if ref() is not None]
            assert not alive, f"groups {alive} alive when group {len(refs)} is simulated"
            B1, B2 = simulate_rows(coefficients, params, seeds)
            assert B1.base is B2.base
            refs.append(weakref.ref(B1.base))
            return B1, B2

        monkeypatch.setattr(sweep_mod, "_CELL_BUDGET", 2 * 2 * 3 * 121)
        monkeypatch.setattr(sweep_mod, "_MIN_BLOCK_ROWS", 1)  # else a group takes 81 rows
        monkeypatch.setattr(sweep_mod, "simulate_rows", spied)
        return refs

    @pytest.mark.parametrize("command", ["xcorr", "lags", "figures"])
    def test_command(self, tmp_path, command, groups):
        args = [command, *self.FLAGS, *(f"--context={text}" for text in self.CONTEXTS)]
        if command == "figures":  # read the sweep, so that only the figure batches simulate
            csv = tmp_path / "s.csv"
            assert main(["sweep", *self.FLAGS, "--out", str(csv)]) == 0
            groups.clear()
            args += ["--input", str(csv)]
        assert main([*args, "--out", str(tmp_path / "out")]) == 0
        assert len(groups) == 3


class TestErrorCategories:
    # each allocation, 7 PiB to 8 EiB, is refused at once, so no memory is touched
    @pytest.mark.parametrize("args", [
        ["sweep", "--runs", "1000000000000000", "--turns", "10"],
        ["simulate", "--context=1,0;0,1", "--turns", "1000000000000000"],
        ["figures", *SMALL, "--bins", "1152921504606846974"],
    ], ids=["sweep", "simulate", "figures-bins"])
    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, args):
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dyadsim: error: validation: out of memory: ")
        assert err.count("\n") == 1 and err.endswith("\n")

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

    @pytest.mark.parametrize("flags, message", [
        (["--threshold", "0.9", "--influence", "0.1"],
         "tail statistics: a tail is empty; sweep too small"),
        (["--threshold", "0.99"], "tail-comparison chi-square: zero expected cell count"),
    ], ids=["empty-tail", "zero-expected-cell"])
    def test_degenerate_sweep_is_analysis_error(self, tmp_path, capsys, flags, message):
        args, csv, out = [*flags, "--runs", "2", "--turns", "50"], tmp_path / "s.csv", tmp_path / "r"
        assert main(["sweep", *args, "--out", str(csv)]) == 0
        capsys.readouterr()
        assert main(["analyze", *args, "--input", str(csv), "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"dyadsim: error: analysis: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, kind", [
        (["analyze", "--input"], "sweep CSV"),
        (["figures", "--input"], "sweep CSV"),
        (["sweep", "--config"], "config file"),
    ], ids=["analyze-input", "figures-input", "config"])
    def test_undecodable_file_is_input_error_naming_it(self, tmp_path, capsys, command, kind):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"context_index,s1,o1,o2,s2,run_index,run_seed,r,finite,tail\n\xff\n")
        out = tmp_path / "out"
        assert main([*command, str(bad), *SMALL, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"dyadsim: error: input: cannot decode {kind} {bad}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze", "--input"], ["figures", "--input"],
                                         ["sweep", "--config"]],
                             ids=["analyze-input", "figures-input", "config"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unopenable_file_is_io_error_naming_it(self, tmp_path, capsys, command, kind):
        path = tmp_path / "in.txt"
        if kind == "directory":
            path.mkdir()
        out = tmp_path / "out"
        assert main([*command, str(path), *SMALL, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("dyadsim: error: io: [Errno ")
        assert err.endswith(f": {str(path)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        (1, "+0", "s1 does not match: found '+0', sweep writes '0'"),
        (5, "00", "run_index does not match: found '00', sweep writes '0'"),
        (9, "Neutral", "tail does not match: found 'Neutral', sweep writes '{tail}'"),
    ], ids=["s1", "run_index", "tail"])
    def test_non_canonical_spelling_is_input_error(self, tmp_path, capsys, field, value,
                                                   message):
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--seed", "9", "--out", str(csv)]) == 0
        rows = csv.read_text().split("\n")
        parts = rows[81].split(",")  # row 80: context 40, (0, 0, 0, 0), run 0
        tail, parts[field] = parts[9], value
        rows[81] = ",".join(parts)
        csv.write_text("\n".join(rows))
        capsys.readouterr()
        code = main(["analyze", *SMALL, "--seed", "9", "--input", str(csv),
                     "--out", str(tmp_path / "rep")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"dyadsim: error: input: sweep CSV row 80: {message.format(tail=tail)}\n"
        )
        assert not (tmp_path / "rep").exists()

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
        (slice(3, 4), "sweep CSV row 2: tail '{tail}\\r' holds '\\r', which sweep never writes"),
    ], ids=["crlf", "one-cr"])
    def test_carriage_return_is_input_error(self, tmp_path, capsys, lines, message):
        csv = tmp_path / "s.csv"
        assert main(["sweep", *SMALL, "--seed", "9", "--out", str(csv)]) == 0
        rows = csv.read_text().split("\n")
        tail = rows[3].split(",")[-1]
        rows[lines] = [row + "\r" for row in rows[lines]]
        edited = tmp_path / "cr.csv"
        edited.write_bytes("\n".join(rows).encode())
        capsys.readouterr()
        code = main(["analyze", *SMALL, "--seed", "9", "--input", str(edited),
                     "--out", str(tmp_path / "rep")])
        assert code == 3
        assert capsys.readouterr().err == (
            "dyadsim: error: input: " + message.format(tail=tail) + "\n"
        )
        assert not (tmp_path / "rep").exists()

    def test_zero_workers_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", *SMALL, "--workers", "0", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "dyadsim: error: validation: workers must be >= 1\n"
        )

    @pytest.mark.parametrize("command, keys", [
        (["figures", *SMALL, "--input", "s.csv"], "workers = 0\n"),
        (["simulate", "--turns", "60", "--context", "1,0;1,-1"], "runs = 0\nthreshold = 2\n"),
    ], ids=["figures-input", "simulate"])
    def test_file_key_outside_its_command_is_ignored(self, tmp_path, monkeypatch, command, keys):
        # a config file may hold keys for other commands; a command reads only its own
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", *SMALL, "--out", "s.csv"]) == 0
        Path("run.conf").write_text(keys)
        assert main([*command, "--out", "plain"]) == 0
        assert main([*command, "--config", "run.conf", "--out", "file"]) == 0

        def written(out):
            if out.is_dir():
                return {p.name: p.read_bytes() for p in out.iterdir()}
            return out.read_bytes()

        assert written(Path("file")) == written(Path("plain"))

    @pytest.mark.parametrize("key, value, message", [
        ("runs", "0", "runs must be >= 1"),
        ("noise", "-1", "noise must be >= 0, got -1.0"),
        ("threshold", "2", "threshold must be in (0, 1)"),
    ])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_range_error_names_the_setting(self, tmp_path, capsys, key, value, message, form):
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {value}\n")
        given = [f"--{key}", value] if form == "flag" else ["--config", str(config)]
        out = tmp_path / "s.csv"
        assert main(["sweep", *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"dyadsim: error: validation: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sweep"], ["analyze", "--input", "s.csv"], ["simulate", "--context", "0,0;0,0"],
    ], ids=lambda command: command[0])
    def test_noise_whose_range_overflows_is_usage_error(self, tmp_path, capsys, no_work, command):
        out = tmp_path / "out"
        assert main([*command, "--noise", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "dyadsim: error: validation: noise must be <= 8.988465674311579e+307, got 1e+308\n"
        )
        assert not out.exists()

    @pytest.fixture
    def no_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the settings were checked")

        for name in ("run_sweep", "read_sweep_csv", "context_batches"):
            monkeypatch.setattr(sweep_mod, name, no_work)

    @pytest.mark.parametrize("command, key", [
        ("xcorr", "max_lag"), ("lags", "max_lag"), ("figures", "max_lag"), ("figures", "bins"),
    ])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_zero_panel_setting_found_before_work(
        self, tmp_path, capsys, no_work, command, key, form
    ):
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = 0\n")
        flag = "--" + key.replace("_", "-")
        given = [flag, "0"] if form == "flag" else ["--config", str(config)]
        out = tmp_path / "out"
        assert main([command, *SMALL, *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"dyadsim: error: validation: {key} must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key, limit", [
        ("xcorr", "max_lag", _MAX_LAG), ("lags", "max_lag", _MAX_LAG),
        ("figures", "max_lag", _MAX_LAG), ("figures", "bins", _MAX_BINS),
    ])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_panel_setting_above_its_limit_found_before_work(
        self, tmp_path, capsys, no_work, command, key, limit, form
    ):
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {limit + 1}\n")
        flag = "--" + key.replace("_", "-")
        given = [flag, str(limit + 1)] if form == "flag" else ["--config", str(config)]
        out = tmp_path / "out"
        assert main([command, *SMALL, *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"dyadsim: error: validation: {key} must be at most {limit}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", [["xcorr"], ["figures"], ["figures", "--input", "s.csv"]],
                             ids=["xcorr", "figures", "figures-input"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_max_lag_too_large_for_turns_found_before_work(
        self, tmp_path, capsys, no_work, command, form
    ):
        # a series is turns + 1 = 61 samples, and a CCF out to lag 30 needs 63
        config = tmp_path / "run.conf"
        config.write_text("max_lag = 30\n")
        given = ["--max-lag", "30"] if form == "flag" else ["--config", str(config)]
        out = tmp_path / "out"
        assert main([*command, *SMALL, *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "dyadsim: error: validation: need length > 62, got 61: "
            "turns = 60 is too few for max_lag = 30\n"
        )
        assert not out.exists()

    def test_lags_take_a_max_lag_beyond_the_ccf_limit(self, tmp_path):
        out = tmp_path / "out"
        args = ["lags", *SMALL, "--max-lag", "30", "--context", "1,1;1,1", "--out", str(out)]
        assert main(args) == 0
        lines = (out / "lags_+1+1+1+1.csv").read_text().splitlines()
        assert len(lines) == 1 + 61

    @pytest.mark.parametrize("command, flag, message", [
        ("figures", ["--bins", str(10**400)], "bins must be at most 1152921504606846974"),
        ("figures", ["--bins", str(10**29)], "bins must be at most 1152921504606846974"),
        ("figures", ["--bins", str(2**60 - 1)], "bins must be at most 1152921504606846974"),
        ("lags", ["--max-lag", str(10**29)], "max_lag must be at most 576460752303423486"),
        ("lags", ["--max-lag", str(2**59 - 1)], "max_lag must be at most 576460752303423486"),
    ], ids=["bins-10**400", "bins-10**29", "bins-2**60-1", "lags-max-lag-10**29",
            "lags-max-lag-2**59-1"])
    def test_count_beyond_an_array_index_is_usage_error(
        self, tmp_path, capsys, command, flag, message
    ):
        out = tmp_path / "out"
        assert main([command, *SMALL, *flag, "--context", "1,1;1,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"dyadsim: error: validation: {message}\n"
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
        flags = ["--turns", "60"] if command == "simulate" else SMALL  # simulate has no --runs
        assert main([command, *flags, "--context=-1,1;0,1", "--out", str(out)]) == 0
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
        assert_same_text(b.read_bytes(), a.read_bytes())
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
        assert_same_text(from_file, (tmp_path / "flag" / "ccf_+100+1.csv").read_bytes())
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
        # import, then the sweep -> analyze -> figures chain, in one interpreter
        flags = " ".join(SMALL)
        code = (
            "import sys; from dyadsim.cli import main; "
            f"print(main('sweep {flags} --out s.csv'.split()), "
            f"main('analyze {flags} --input s.csv --out report'.split()), "
            f"main('figures {flags} --input s.csv --out figs'.split())); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = run_python(["-c", code], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == ["0 0 0", "[]"]
        assert (tmp_path / "report" / "report.json").exists()

    def test_version_flag(self, tmp_path):
        result = run_cli(["--version"], cwd=tmp_path)
        assert result.returncode == 0
        assert "dyadsim" in result.stdout

    def test_package_version_is_the_project_version(self):
        # report.json records __version__ as its artifact_version
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == dyadsim.__version__


class TestColdStart:
    """Each command in a fresh interpreter: what it loads, and its exit codes."""

    SWEEP_MODULES = ["dyadsim", "dyadsim.cli", "dyadsim.dynamics", "dyadsim.metrics",
                     "dyadsim.sweep"]

    def test_import_and_sweep_load_only_the_sweep_modules(self, tmp_path):
        code = (
            "import sys\n"
            "def loaded():\n"
            "    return (sorted(m for m in sys.modules if m.split('.')[0] == 'dyadsim'),"
            " 'json' in sys.modules, 'concurrent.futures' in sys.modules)\n"
            "import dyadsim.cli\n"
            "print(loaded())\n"
            "print(dyadsim.cli.main('sweep --runs 1 --turns 10 --out s.csv'.split()))\n"
            "print(loaded())\n"
        )
        result = run_python(["-c", code], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        want = repr((self.SWEEP_MODULES, False, False))
        assert result.stdout.splitlines() == [want, "wrote s.csv (81 records)", "0", want]

    def test_analyze_error_exit_code_without_report_imported_first(self, tmp_path):
        # main maps AnalysisError to exit 4 before any command has imported report
        flags = ["--runs", "1", "--turns", "60", "--threshold", "0.99"]
        swept = run_cli(["sweep", *flags, "--out", "s.csv"], cwd=tmp_path)
        assert swept.returncode == 0, swept.stderr
        result = run_cli(["analyze", *flags, "--input", "s.csv", "--out", "r"], cwd=tmp_path)
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr == ("dyadsim: error: analysis: tail-comparison chi-square: "
                                 "zero expected cell count\n")
        assert not (tmp_path / "r").exists()

    def test_help_exits_0(self, tmp_path):
        # --version: TestFlagHandling::test_version_flag
        result = run_cli(["--help"], cwd=tmp_path)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: dyadsim ")

    def test_fresh_chain_writes_the_in_process_bytes(self, tmp_path):
        # analyze and figures import report on first use; their bytes do not move
        def chain(run, out):
            csv = str(out / "s.csv")
            for argv in (["sweep", *SMALL, "--out", csv],
                         ["analyze", *SMALL, "--input", csv, "--out", str(out / "report")],
                         ["figures", *SMALL, "--input", csv, "--out", str(out / "figs")]):
                run(argv)
            return {path.relative_to(out): path.read_bytes()
                    for path in sorted(out.rglob("*")) if path.is_file()}

        def fresh(argv):
            result = run_cli(argv, cwd=tmp_path)
            assert result.returncode == 0, result.stderr

        def in_process(argv):
            assert main(argv) == 0

        files = chain(fresh, tmp_path / "fresh")
        # the CSV, 3 report files, the histogram and 3 panels a context
        assert len(files) == 1 + 3 + 1 + 3 * len(report_mod.DEFAULT_FIGURE_CONTEXTS)
        assert files == chain(in_process, tmp_path / "in_process")


class TestReadme:
    def test_settings_table_lists_each_commands_flags_and_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("| command | settings |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        documented = {}
        for row in table.splitlines():
            commands, flags = row.strip("|").split("|")
            for command in re.findall(r"`(\w+)`", commands):
                documented[command] = re.findall(r"`(--[a-z-]+)`(?: \(([^)]*)\))?", flags)
        assert sorted(documented) == sorted(subparsers.choices)
        for command, parser in subparsers.choices.items():
            defaults = {  # each setting's default, as its --help text shows it
                action.option_strings[0]: re.fullmatch(r".* \(default (.+)\)", action.help)[1]
                for action in parser._actions
                if action.dest not in ("help", "config", "out", "input", "context")
            }
            assert sorted(flag for flag, _ in documented[command]) == sorted(defaults), command
            for flag, shown in documented[command]:
                assert shown in ("", defaults[flag]), (command, flag)


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
        # settings that would change no output of the command
        ["simulate", "--context", "0,0;0,0", "--runs", "7"],
        ["simulate", "--context", "0,0;0,0", "--threshold", "0.9"],
        ["xcorr", "--threshold", "0.5"], ["lags", "--threshold", "0.5"],
        ["figures", "--input", "s.csv", "--workers", "0"],
    ])
    def test_flag_outside_its_command_is_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a command that took the flag would write here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
