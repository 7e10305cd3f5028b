import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dyadsim import metrics
from dyadsim.dynamics import (
    ContextMatrix,
    ModelParams,
    NonFiniteStateError,
    simulate,
)
from dyadsim.metrics import CcfAggregate, HistogramResult, LagDistribution
from dyadsim.report import (
    DEFAULT_FIGURE_CONTEXTS,
    AnalysisError,
    AnalysisReport,
    analyze,
    ccf_csv_text,
    coefficients_csv_text,
    figure_data,
    histogram_csv_text,
    lag_csv_text,
    report_json_text,
    table1_csv_text,
    trajectory_csv_text,
    write_payloads,
    write_report,
)
from dyadsim.stats import MODEL_IDS, FitResult, model_spec
from dyadsim.sweep import (
    SweepConfig,
    context_batches,
    derive_run_seed,
    enumerate_contexts,
    read_sweep_csv,
    run_sweep,
    write_sweep_csv,
)

from helpers import assert_same_text, trajectory_from_csv

PANEL_CONFIG = SweepConfig(master_seed=42, runs_per_context=40, params=ModelParams(turns=200))


def _cut(which, config, contexts):
    """One panel's payloads cut from each context's batch, in context order."""
    payload = {}
    for batch in context_batches(config, contexts):
        payload.update(figure_data(which, batch=batch))
    return payload


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

    def test_negative_rate_is_per_tail(self, default_report):
        for tail in default_report.tails.values():
            expected = tail["with_negative_entry"] / tail["count"] if tail["count"] else None
            assert tail["negative_rate"] == expected

    def test_selected_model_note(self, default_report):
        assert default_report.selected_model["by_aic"]
        assert default_report.selected_model["by_bic"]

    def test_aic_and_bic_each_pick_their_own_minimum(self):
        # at this small sweep the criteria disagree: BIC's larger penalty
        # picks model 4 (28 columns) over models 2 and 3 (32)
        config = SweepConfig(master_seed=1, runs_per_context=5, params=ModelParams(turns=100))
        report = analyze(run_sweep(config))
        fits = {spec.model_id: fit for spec, fit in report.fits}
        assert min(fits, key=lambda m: fits[m].aic) == 2 and fits[3].aic == fits[2].aic
        assert min(fits, key=lambda m: fits[m].bic) == 4
        assert report.selected_model == {
            "by_aic": [2, 3],
            "by_bic": [4],
            "note": "lowest information criteria: models 2/3/4",
        }

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

    def test_provenance_holds_every_setting(self):
        params = ModelParams(alpha=0.2, influence=0.4, noise_half_width=0.7, turns=120)
        config = SweepConfig(master_seed=2**64 - 1, runs_per_context=30, params=params,
                             tail_threshold=0.3)
        prov = analyze(run_sweep(config)).provenance
        settings = {f.name: getattr(params, f.name) for f in fields(ModelParams)}
        settings.update(master_seed=config.master_seed, runs_per_context=30, tail_threshold=0.3)
        assert {key: prov[key] for key in settings} == settings
        assert set(prov) - set(settings) == {
            "artifact", "artifact_version", "generator", "numpy_version"
        }

    def test_regeneration_is_byte_identical(self, default_table, default_report, tmp_path):
        direct = report_json_text(default_report)
        again = report_json_text(analyze(default_table))
        assert_same_text(again, direct)
        # and through a CSV round trip
        path = tmp_path / "sweep.csv"
        write_sweep_csv(default_table, path)
        loaded = read_sweep_csv(path, default_table.config)
        assert_same_text(report_json_text(analyze(loaded)), direct)

    def test_json_parses(self, default_report):
        payload = json.loads(report_json_text(default_report))
        assert set(payload["models"].keys()) == {"1", "2", "3", "4", "5"}


class TestFigureData:
    def test_unknown_panel_rejected(self):
        with pytest.raises(ValueError, match="unknown figure panel"):
            figure_data(
                "nonsense", batch=next(context_batches(PANEL_CONFIG, DEFAULT_FIGURE_CONTEXTS))
            )

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
            "ccf_panel", batch=next(context_batches(PANEL_CONFIG, [ContextMatrix(1, 0, 0, 1)]))
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
            figure_data(
                "ccf_panel", batch=next(context_batches(config, [ContextMatrix(1, 0, 0, 1)]))
            )

    def test_lag_panel_payload(self):
        payload = figure_data(
            "lag_panel", batch=next(context_batches(PANEL_CONFIG, [ContextMatrix(1, 1, 1, 1)]))
        )
        text = payload["fig7_lags_+1+1+1+1.csv"]
        lines = text.strip().split("\n")[1:]
        counts = [int(line.split(",")[1]) for line in lines]
        freqs = [float(line.split(",")[2]) for line in lines]
        assert sum(counts) > 0
        assert sum(freqs) == pytest.approx(1.0)

    def test_trajectory_panel_null_context_bounded(self):
        payload = figure_data(
            "trajectory_panel",
            batch=next(context_batches(PANEL_CONFIG, [ContextMatrix(0, 0, 0, 0)])),
        )
        b1, b2 = trajectory_from_csv(payload["fig2_traj_0000.csv"])
        values = np.concatenate([b1, b2])
        assert (np.abs(values) < 1.0).mean() >= 0.99

    def test_default_contexts_cover_all_panels(self):
        payload = _cut("trajectory_panel", PANEL_CONFIG, DEFAULT_FIGURE_CONTEXTS)
        assert len(payload) == len(DEFAULT_FIGURE_CONTEXTS)
        for context in DEFAULT_FIGURE_CONTEXTS:
            assert f"fig2_traj_{context.code()}.csv" in payload

    @pytest.mark.parametrize("panel", ["ccf_panel", "lag_panel", "trajectory_panel"])
    def test_context_panel_needs_batches(self, default_table, panel):
        message = f"^{panel} needs a batch from sweep.context_batches$"
        with pytest.raises(ValueError, match=message):
            figure_data(panel, table=default_table)

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
            figure_data("trajectory_panel", batch=next(context_batches(config, [context])))
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
        payload = figure_data("trajectory_panel", batch=next(context_batches(config, [context])))
        assert_same_text(payload["fig2_traj_+1+1+1+1.csv"], trajectory_csv_text(trajectory))

    def test_trajectory_panel_is_scalar_run_zero(self):
        config = SweepConfig(
            master_seed=7, runs_per_context=3, params=ModelParams(influence=0.9, turns=60)
        )
        payload = _cut("trajectory_panel", config, DEFAULT_FIGURE_CONTEXTS)
        for context in DEFAULT_FIGURE_CONTEXTS:
            expected = trajectory_csv_text(self._scalar_run_zero(config, context))
            assert_same_text(payload[f"fig2_traj_{context.code()}.csv"], expected)

    def test_batches_carry_their_contexts(self):
        contexts = [ContextMatrix(1, 0, 0, 1), ContextMatrix(0, 0, 0, 0)]
        config = SweepConfig(master_seed=42, runs_per_context=3, params=ModelParams(turns=60))
        batches = list(context_batches(config, contexts))
        payload = {}
        for batch in batches[::-1]:  # no config
            payload.update(figure_data("lag_panel", batch=batch))
        assert payload == _cut("lag_panel", config, contexts)
        assert list(payload) == ["fig7_lags_0000.csv", "fig7_lags_+100+1.csv"]

    def test_deterministic_payloads(self):
        a = figure_data(
            "ccf_panel", batch=next(context_batches(PANEL_CONFIG, [ContextMatrix(1, 0, 1, 0)]))
        )
        b = figure_data(
            "ccf_panel", batch=next(context_batches(PANEL_CONFIG, [ContextMatrix(1, 0, 1, 0)]))
        )
        assert a == b


class TestWriters:
    def test_write_report_files(self, default_report, tmp_path):
        written = write_report(default_report, tmp_path)
        names = {p.name for p in written}
        assert names == {"report.json", "table1.csv", "coefficients.csv"}
        table1 = (tmp_path / "table1.csv").read_text()
        assert_same_text(table1, table1_csv_text(default_report))

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


# The writers that moved into report, as they stood before: every float
# through _fmt, one appended line per row.  Each new writer must match its
# reference byte for byte.
def _fmt(value: float) -> str:
    return repr(float(value))


def _ccf_csv_reference(agg) -> str:
    lines = ["lag,mean,sd,n_defined"]
    for lag, mean, sd, n in zip(agg.lags, agg.mean, agg.sd, agg.n_defined):
        lines.append(f"{lag},{_fmt(mean)},{_fmt(sd)},{n}")
    return "\n".join(lines) + "\n"


def _lag_csv_reference(dist) -> str:
    lines = ["lag,count,rel_freq"]
    for lag, count, freq in zip(dist.lags, dist.counts, dist.rel_freq):
        lines.append(f"{lag},{count},{_fmt(freq)}")
    return "\n".join(lines) + "\n"


def _histogram_csv_reference(hist) -> str:
    lines = ["bin_lo,bin_hi,count"]
    edges = hist.edges
    for i, count in enumerate(hist.counts):
        lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{count}")
    return "\n".join(lines) + "\n"


def _table1_csv_reference(fits) -> str:
    lines = ["model_id,name,k_nominal,k_effective,r2,adj_r2,aic,bic"]
    for spec, fit in fits:
        lines.append(
            f"{spec.model_id},{spec.name},{spec.k_nominal},{fit.k_effective},"
            f"{fit.r2!r},{fit.adj_r2!r},{fit.aic!r},{fit.bic!r}"
        )
    return "\n".join(lines) + "\n"


def _coefficients_csv_reference(fits) -> str:
    lines = ["model_id,term,estimate,dropped"]
    for spec, fit in fits:
        for term in ("intercept",) + spec.columns:
            if term in fit.coefficients:
                lines.append(f"{spec.model_id},{term},{fit.coefficients[term]!r},false")
            else:
                lines.append(f"{spec.model_id},{term},nan,true")
    return "\n".join(lines) + "\n"


EDGE_FLOATS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7976931348623157e308, -1.7976931348623157e308)
_floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
_int_dtypes = st.sampled_from([np.int64, np.int32, np.uint16, np.intp])


def _float_array(draw, n):
    return np.array(draw(st.lists(_floats, min_size=n, max_size=n)), dtype=float)


def _count_array(draw, n, dtype):
    high = min(np.iinfo(dtype).max, 2**40)
    return np.array(draw(st.lists(st.integers(0, high), min_size=n, max_size=n)), dtype=dtype)


@st.composite
def _ccf_aggregates(draw):
    max_lag, dtype = draw(st.integers(1, 8)), draw(_int_dtypes)
    n = 2 * max_lag + 1
    return CcfAggregate(max_lag=max_lag, mean=_float_array(draw, n), sd=_float_array(draw, n),
                        n_defined=_count_array(draw, n, dtype))


@st.composite
def _lag_distributions(draw):
    max_lag, dtype = draw(st.integers(1, 8)), draw(_int_dtypes)
    counts = _count_array(draw, 2 * max_lag + 1, dtype)
    return LagDistribution(max_lag=max_lag, counts=counts, total_events=int(counts.sum()))


@st.composite
def _histograms(draw):
    dtype = draw(_int_dtypes)
    counts = _count_array(draw, draw(st.integers(1, 12)), dtype)
    return HistogramResult(lo=draw(_floats), hi=draw(_floats), counts=counts,
                           overflow=draw(st.integers(0, 10)))


@st.composite
def _fit_lists(draw):
    """(ModelSpec, FitResult) pairs with any floats, each term kept or dropped."""
    fits = []
    for model_id in draw(st.lists(st.sampled_from(MODEL_IDS), max_size=5)):
        spec = model_spec(model_id)
        terms = ("intercept", *spec.columns)
        kept = draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
        coefficients = {term: draw(_floats) for term, keep in zip(terms, kept) if keep}
        fit = FitResult(
            coefficients=coefficients,
            dropped=tuple(term for term, keep in zip(terms, kept) if not keep),
            rss=draw(_floats), n=draw(st.integers(0, 10**6)), k_effective=len(coefficients),
            r2=draw(_floats), adj_r2=draw(_floats), aic=draw(_floats), bic=draw(_floats),
        )
        fits.append((spec, fit))
    return fits


def _report_with(fits) -> AnalysisReport:
    return AnalysisReport(sweep_summary={}, tails={}, chi_square={}, fits=fits,
                          selected_model={}, provenance={})


class TestWritersMatchTheirReferences:
    @settings(max_examples=200, deadline=None)
    @given(_ccf_aggregates())
    @example(CcfAggregate(max_lag=1, mean=np.array(EDGE_FLOATS[:3]), sd=np.array(EDGE_FLOATS[3:6]),
                          n_defined=np.array([0, 2**40, 7], dtype=np.int64)))
    def test_ccf(self, agg):
        assert_same_text(ccf_csv_text(agg), _ccf_csv_reference(agg))

    def test_ccf_aggregate_short_of_its_lags_rejected(self):
        # accepted, ccf_csv_text wrote lags -2..0 only
        with pytest.raises(ValueError, match=r"^mean must have 2 \* max_lag \+ 1 = 5 entries"):
            ccf_csv_text(CcfAggregate(2, np.zeros(3), np.zeros(3), np.zeros(3, int)))

    @settings(max_examples=200, deadline=None)
    @given(_lag_distributions())
    @example(LagDistribution(max_lag=1, counts=np.array([1, 0, 2], dtype=np.uint16),
                             total_events=3))
    @example(LagDistribution(max_lag=1, counts=np.zeros(3, dtype=np.int32), total_events=0))
    def test_lags(self, dist):
        assert_same_text(lag_csv_text(dist), _lag_csv_reference(dist))

    def test_lag_total_other_than_the_counts_sum_rejected(self):
        # accepted, lag_csv_text wrote every rel_freq as 0.0 beside a count of 5
        with pytest.raises(ValueError, match=r"^total_events must be the integer sum of counts, "
                                             r"5, got 0$"):
            LagDistribution(max_lag=1, counts=np.array([5, 0, 0]), total_events=0)

    @settings(max_examples=200, deadline=None)
    @given(_histograms())
    @example(HistogramResult(lo=-1.7976931348623157e308, hi=1.7976931348623157e308,
                             counts=np.array([1, 2, 3], dtype=np.int32), overflow=0))
    @example(HistogramResult(lo=-0.0, hi=5e-324, counts=np.array([4]), overflow=1))
    def test_histogram(self, hist):
        with np.errstate(all="ignore"):  # edges of infinite or nan bounds
            assert_same_text(histogram_csv_text(hist), _histogram_csv_reference(hist))

    @settings(max_examples=200, deadline=None)
    @given(_fit_lists())
    @example([(model_spec(4), FitResult(
        coefficients={"intercept": -0.0, "s1p": 5e-324}, dropped=("s1n",), rss=0.0, n=3,
        k_effective=2, r2=np.nan, adj_r2=-np.inf, aic=-np.inf, bic=np.inf,
    ))])
    def test_table1_and_coefficients(self, fits):
        report = _report_with(fits)
        assert_same_text(table1_csv_text(report), _table1_csv_reference(fits))
        assert_same_text(coefficients_csv_text(report), _coefficients_csv_reference(fits))
