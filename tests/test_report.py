import json
from dataclasses import replace

import numpy as np
import pytest

from dyadsim import metrics
from dyadsim.dynamics import (
    ContextMatrix,
    ModelParams,
    NonFiniteStateError,
    simulate,
    trajectory_csv_text,
    trajectory_from_csv,
)
from dyadsim.report import (
    DEFAULT_FIGURE_CONTEXTS,
    AnalysisError,
    analyze,
    figure_data,
    report_json_text,
    table1_csv_text,
    write_payloads,
    write_report,
)
from dyadsim.sweep import (
    SweepConfig,
    context_batches,
    derive_run_seed,
    enumerate_contexts,
    read_sweep_csv,
    run_sweep,
    write_sweep_csv,
)

PANEL_CONFIG = SweepConfig(master_seed=42, runs_per_context=40, params=ModelParams(turns=200))


class TestAnalyze:
    def test_counts_internally_consistent(self, default_table, default_report):
        report = default_report
        tails = report.tails
        total = sum(tails[label]["count"] for label in tails)
        assert total == report.sweep_summary["records"] == 8100
        finite = report.sweep_summary["finite"]
        assert finite == total - tails["undefined"]["count"]
        assert report.sweep_summary["regression_rows"] == finite

    def test_rates_are_proportions(self, default_report):
        for label in ("complementary", "synchronous"):
            rate = default_report.tails[label]["negative_rate"]
            assert 0.0 <= rate <= 1.0

    def test_chi_square_blocks_present(self, default_report):
        blocks = default_report.chi_square
        for key in (
            "complementary_vs_uniform_65_81",
            "complementary_vs_even_split",
            "tail_comparison",
        ):
            assert blocks[key]["statistic"] >= 0.0
            assert 0.0 <= blocks[key]["p_value"] <= 1.0
        assert blocks["tail_comparison"]["df"] == 1

    def test_five_fits_in_model_order(self, default_report):
        assert [spec.model_id for spec, _ in default_report.fits] == [1, 2, 3, 4, 5]

    def test_selected_model_note(self, default_report):
        assert default_report.selected_model["by_aic"]
        assert default_report.selected_model["by_bic"]

    def test_provenance_sufficient_to_reproduce(self, default_report):
        prov = default_report.provenance
        for key in (
            "master_seed",
            "runs_per_context",
            "turns",
            "alpha",
            "influence",
            "noise_half_width",
            "tail_threshold",
            "generator",
            "artifact_version",
        ):
            assert key in prov
        assert prov["master_seed"] == 42

    def test_regeneration_is_byte_identical(self, default_table, default_report, tmp_path):
        direct = report_json_text(default_report)
        again = report_json_text(analyze(default_table))
        assert direct == again
        # and through a CSV round trip
        path = tmp_path / "sweep.csv"
        write_sweep_csv(default_table, path)
        loaded = read_sweep_csv(path, default_table.config)
        assert report_json_text(analyze(loaded)) == direct

    def test_json_parses(self, default_report):
        payload = json.loads(report_json_text(default_report))
        assert set(payload["models"].keys()) == {"1", "2", "3", "4", "5"}


class TestFigureData:
    def test_unknown_panel_rejected(self):
        with pytest.raises(ValueError, match="unknown figure panel"):
            figure_data("nonsense", config=PANEL_CONFIG)

    def test_histogram_payload(self, default_table):
        payload = figure_data("r_histogram", table=default_table)
        assert set(payload) == {"fig3_hist.csv"}
        lines = payload["fig3_hist.csv"].strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 41
        counted = sum(int(line.split(",")[2]) for line in lines[1:])
        assert counted == default_table.config.runs_per_context * 81

    def test_histogram_has_mass_in_both_tails(self, default_table):
        payload = figure_data("r_histogram", table=default_table)
        lines = payload["fig3_hist.csv"].strip().split("\n")[1:]
        low = high = 0
        for line in lines:
            lo, hi, count = line.split(",")
            if float(hi) <= -0.25:
                low += int(count)
            if float(lo) >= 0.25:
                high += int(count)
        assert low > 0 and high > 0

    def test_ccf_panel_uncoupled_is_flat(self):
        payload = figure_data(
            "ccf_panel", config=PANEL_CONFIG, contexts=[ContextMatrix(1, 0, 0, 1)]
        )
        (name, text), = payload.items()
        assert name == "fig6_ccf_+100+1.csv"
        lines = text.strip().split("\n")[1:]
        means = [float(line.split(",")[1]) for line in lines]
        assert len(means) == 41
        assert max(abs(m) for m in means) < 0.1

    def test_ccf_panel_counts_finite_runs_before_any_ccf(self, monkeypatch):
        def no_ccf(*args, **kwargs):
            raise AssertionError("a CCF ran before the finite runs were counted")

        monkeypatch.setattr(metrics, "cross_correlation", no_ccf)
        config = SweepConfig(master_seed=42, runs_per_context=1, params=ModelParams(turns=60))
        message = r"^ccf panel, context \+100\+1: fewer than 2 finite runs$"
        with pytest.raises(AnalysisError, match=message):
            figure_data("ccf_panel", config=config, contexts=[ContextMatrix(1, 0, 0, 1)])

    def test_lag_panel_payload(self):
        payload = figure_data(
            "lag_panel", config=PANEL_CONFIG, contexts=[ContextMatrix(1, 1, 1, 1)]
        )
        text = payload["fig7_lags_+1+1+1+1.csv"]
        lines = text.strip().split("\n")[1:]
        counts = [int(line.split(",")[1]) for line in lines]
        freqs = [float(line.split(",")[2]) for line in lines]
        assert sum(counts) > 0
        assert sum(freqs) == pytest.approx(1.0)

    def test_trajectory_panel_null_context_bounded(self):
        payload = figure_data(
            "trajectory_panel", config=PANEL_CONFIG, contexts=[ContextMatrix(0, 0, 0, 0)]
        )
        b1, b2 = trajectory_from_csv(payload["fig2_traj_0000.csv"])
        values = np.concatenate([b1, b2])
        assert (np.abs(values) < 1.0).mean() >= 0.99

    def test_default_contexts_cover_all_panels(self):
        payload = figure_data("trajectory_panel", config=PANEL_CONFIG)
        assert len(payload) == len(DEFAULT_FIGURE_CONTEXTS)
        for context in DEFAULT_FIGURE_CONTEXTS:
            assert f"fig2_traj_{context.code()}.csv" in payload
        contexts = iter(DEFAULT_FIGURE_CONTEXTS)  # an iterator is read once
        assert figure_data("trajectory_panel", config=PANEL_CONFIG, contexts=contexts) == payload

    @staticmethod
    def _scalar_run_zero(config, context):
        seed = derive_run_seed(config.master_seed, enumerate_contexts().index(context), 0)
        return simulate(context, config.params, seed)

    def test_trajectory_panel_raises_as_scalar_run_on_divergence(self):
        config = SweepConfig(
            master_seed=42, runs_per_context=3, params=ModelParams(influence=1.0, turns=2000)
        )
        context = ContextMatrix(1, 1, 1, 1)
        with pytest.raises(NonFiniteStateError) as scalar:
            self._scalar_run_zero(config, context)
        with pytest.raises(NonFiniteStateError) as panel:
            figure_data("trajectory_panel", config=config, contexts=[context])
        assert str(panel.value) == "trajectory panel, context +1+1+1+1: " + str(scalar.value)

    def test_trajectory_panel_non_finite_final_state_as_scalar_run(self):
        # end the run on the turn where the diverging state first overflows
        context = ContextMatrix(1, 1, 1, 1)
        config = SweepConfig(
            master_seed=42, runs_per_context=3, params=ModelParams(influence=1.0, turns=2000)
        )
        with pytest.raises(NonFiniteStateError, match=r"at turn (\d+)$") as exc:
            self._scalar_run_zero(config, context)
        turns = int(str(exc.value).rsplit(" ", 1)[1])
        config = replace(config, params=replace(config.params, turns=turns))
        trajectory = self._scalar_run_zero(config, context)
        assert not np.isfinite([trajectory.b1[-1], trajectory.b2[-1]]).all()
        payload = figure_data("trajectory_panel", config=config, contexts=[context])
        assert payload["fig2_traj_+1+1+1+1.csv"] == trajectory_csv_text(trajectory)

    def test_trajectory_panel_is_scalar_run_zero(self):
        config = SweepConfig(
            master_seed=7, runs_per_context=3, params=ModelParams(influence=0.9, turns=60)
        )
        payload = figure_data("trajectory_panel", config=config)
        for context in DEFAULT_FIGURE_CONTEXTS:
            expected = trajectory_csv_text(self._scalar_run_zero(config, context))
            assert payload[f"fig2_traj_{context.code()}.csv"] == expected

    def test_batches_carry_their_contexts(self):
        contexts = [ContextMatrix(1, 0, 0, 1), ContextMatrix(0, 0, 0, 0)]
        config = SweepConfig(master_seed=42, runs_per_context=3, params=ModelParams(turns=60))
        batches = list(context_batches(config, contexts))
        with pytest.raises(ValueError, match=r"^lag_panel takes contexts or batches, not both$"):
            figure_data("lag_panel", config=config, contexts=contexts, batches=batches)
        payload = figure_data("lag_panel", batches=batches[::-1])  # no config
        assert payload == figure_data("lag_panel", config=config, contexts=contexts)
        assert list(payload) == ["fig7_lags_0000.csv", "fig7_lags_+100+1.csv"]

    def test_deterministic_payloads(self):
        a = figure_data("ccf_panel", config=PANEL_CONFIG, contexts=[ContextMatrix(1, 0, 1, 0)])
        b = figure_data("ccf_panel", config=PANEL_CONFIG, contexts=[ContextMatrix(1, 0, 1, 0)])
        assert a == b


class TestWriters:
    def test_write_report_files(self, default_report, tmp_path):
        written = write_report(default_report, tmp_path)
        names = {p.name for p in written}
        assert names == {"report.json", "table1.csv", "coefficients.csv"}
        table1 = (tmp_path / "table1.csv").read_text()
        assert table1 == table1_csv_text(default_report)

    def test_write_payloads(self, tmp_path):
        paths = write_payloads({"a.csv": "x\n", "b.csv": "y\n"}, tmp_path)
        assert [p.name for p in paths] == ["a.csv", "b.csv"]
        assert (tmp_path / "a.csv").read_text() == "x\n"


class TestSmallSweepAnalyze:
    def test_small_sweep_analyzes(self):
        table = run_sweep(SweepConfig(master_seed=5, runs_per_context=30, params=ModelParams(turns=120)))
        report = analyze(table)
        assert report.sweep_summary["records"] == 2430
        fits = {spec.model_id: fit for spec, fit in report.fits}
        assert fits[3].r2 >= fits[1].r2
