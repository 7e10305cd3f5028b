"""Headline analysis report and figure-data payloads for a sweep.

``analyze`` condenses a sweep table into tail statistics, chi-square tests,
and the five regression fits; ``figure_data`` renders per-panel CSV
payloads (r histogram, per-context mean CCFs, turn-lag distributions, and
exemplar trajectories).  This module writes every output but the sweep CSV:
each ``*_csv_text`` writer formats its floats as ``repr`` of a Python
float.  Output is deterministic: regenerating from the same table and
config is byte-identical.
"""

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from dyadsim import __version__, dynamics, metrics, stats, sweep as sweep_mod

__all__ = [
    "DEFAULT_FIGURE_CONTEXTS",
    "AnalysisError",
    "AnalysisReport",
    "analyze",
    "figure_data",
    "trajectory_csv_text",
    "ccf_csv_text",
    "lag_csv_text",
    "histogram_csv_text",
    "table1_csv_text",
    "coefficients_csv_text",
    "report_json_text",
    "write_report",
    "write_payloads",
]

PACKAGE_NAME = "dyadsim"

# Representative interaction regimes used for the figure panels: uncoupled,
# full coupling, leader/follower, inhibited listener, inhibited follower,
# and an unstable mutual mimic-inhibit pairing.
DEFAULT_FIGURE_CONTEXTS = (
    dynamics.ContextMatrix(1, 0, 0, 1),
    dynamics.ContextMatrix(1, 1, 1, 1),
    dynamics.ContextMatrix(1, 0, 1, 0),
    dynamics.ContextMatrix(1, 0, 1, -1),
    dynamics.ContextMatrix(-1, 1, 0, 1),
    dynamics.ContextMatrix(-1, 1, 1, -1),
)

PANEL_NAMES = ("r_histogram", "ccf_panel", "lag_panel", "trajectory_panel")

UNIFORM_NEGATIVE_PROB = 65.0 / 81.0  # contexts with at least one -1 entry

# FitResult fields reported per model in report.json; name and k_nominal are the ModelSpec's
_FIT_KEYS = ("k_effective", "r2", "adj_r2", "aic", "bic", "rss", "n")


AnalysisError = sweep_mod.AnalysisError  # exported here; see sweep.AnalysisError


@dataclass(frozen=True)
class AnalysisReport:
    """Aggregated sweep analysis plus the provenance needed to regenerate it."""

    sweep_summary: dict
    tails: dict
    chi_square: dict
    fits: list  # (ModelSpec, FitResult) pairs, model id order
    selected_model: dict
    provenance: dict

    def to_dict(self) -> dict:
        fits = {
            str(spec.model_id): dict(
                name=spec.name, k_nominal=spec.k_nominal, **{k: getattr(fit, k) for k in _FIT_KEYS}
            )
            for spec, fit in self.fits
        }
        return {
            "sweep": self.sweep_summary,
            "tails": self.tails,
            "chi_square": self.chi_square,
            "models": fits,
            "selected_model": self.selected_model,
            "provenance": self.provenance,
        }


def _with_context(label: str, func, *args):
    try:
        return func(*args)
    except ValueError as exc:
        raise AnalysisError(f"{label}: {exc}") from exc


def analyze(table: sweep_mod.SweepTable) -> AnalysisReport:
    """Compute the full statistical summary of a sweep table.

    Tail counts and inhibition rates for both tails, the goodness-of-fit
    test of the complementary tail's inhibition count against the 65/81
    share of inhibition-containing contexts (an even-split variant is
    included for comparison), the two-proportion test across tails, and the
    five regression fits (model 3 reuses model 2's) with an AIC/BIC note.
    """
    counts = sweep_mod.tail_counts(table)
    n, neg = counts.counts, counts.with_negative
    if n["complementary"] == 0 or n["synchronous"] == 0:
        raise AnalysisError("tail statistics: a tail is empty; sweep too small")

    comp = (neg["complementary"], n["complementary"] - neg["complementary"])
    # report.json key, error label, test and its arguments, in run order
    tests = (
        ("complementary_vs_uniform_65_81", "complementary-vs-uniform", stats.chi2_gof,
         comp, (UNIFORM_NEGATIVE_PROB, 1.0 - UNIFORM_NEGATIVE_PROB)),
        ("complementary_vs_even_split", "complementary-vs-even-split", stats.chi2_gof,
         comp, (0.5, 0.5)),
        ("tail_comparison", "tail-comparison", stats.chi2_two_proportion,
         neg["complementary"], n["complementary"], neg["synchronous"], n["synchronous"]),
    )
    chi_square = {key: asdict(_with_context(f"{label} chi-square", test, *args))
                  for key, label, test, *args in tests}

    fits = []
    fitted = {}  # column set -> FitResult
    for model_id in stats.MODEL_IDS:
        spec = stats.model_spec(model_id)
        if spec.columns not in fitted:
            design = stats.build_design(table, spec)
            fitted[spec.columns] = _with_context(
                f"model {model_id} fit", stats.fit_least_squares, design.X, design.y, design.columns
            )
        fits.append((spec, fitted[spec.columns]))

    selected = {}
    for criterion in ("aic", "bic"):
        scores = [getattr(fit, criterion) for _, fit in fits]
        best = min(scores)
        selected[f"by_{criterion}"] = [
            spec.model_id for (spec, _), score in zip(fits, scores) if score == best
        ]
    lowest = sorted(set(selected["by_aic"] + selected["by_bic"]))
    selected["note"] = "lowest information criteria: models " + "/".join(map(str, lowest))

    settings = asdict(table.config)
    settings.update(settings.pop("params"))  # the dynamics beside the sweep settings
    return AnalysisReport(
        sweep_summary={
            "records": len(table),
            "finite": len(table) - n["undefined"],
            "undefined": n["undefined"],
            "regression_rows": fits[0][1].n,
            "regression_excluded": len(table) - fits[0][1].n,
        },
        tails={
            label: {
                "count": n[label],
                "with_negative_entry": neg[label],
                "negative_rate": neg[label] / n[label] if n[label] else None,
            }
            for label in sweep_mod.TAIL_LABELS
        },
        chi_square=chi_square,
        fits=fits,
        selected_model=selected,
        provenance={
            "artifact": PACKAGE_NAME,
            "artifact_version": __version__,
            "generator": dynamics.NoiseSource.ALGORITHM_ID,
            "numpy_version": np.__version__,
            **settings,
        },
    )


def _csv_text(header: str, lines) -> str:
    return "\n".join([header, *lines]) + "\n"


def report_json_text(report: AnalysisReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def table1_csv_text(report: AnalysisReport) -> str:
    """Model summary CSV: `model_id,name,k_nominal,k_effective,r2,adj_r2,aic,bic`."""
    return _csv_text("model_id,name,k_nominal,k_effective,r2,adj_r2,aic,bic", (
        f"{spec.model_id},{spec.name},{spec.k_nominal},{fit.k_effective},"
        f"{fit.r2!r},{fit.adj_r2!r},{fit.aic!r},{fit.bic!r}"
        for spec, fit in report.fits
    ))


def coefficients_csv_text(report: AnalysisReport) -> str:
    """Coefficient dump CSV: `model_id,term,estimate,dropped`; a dropped term's estimate is nan."""
    return _csv_text("model_id,term,estimate,dropped", (
        f"{spec.model_id},{term},{fit.coefficients[term]!r},false"
        if term in fit.coefficients else f"{spec.model_id},{term},nan,true"
        for spec, fit in report.fits
        for term in ("intercept", *spec.columns)
    ))


def trajectory_csv_text(trajectory: dynamics.Trajectory) -> str:
    """Trajectory as CSV (`t,b1,b2`), round-trip-safe decimal floats."""
    rows = enumerate(zip(trajectory.b1.tolist(), trajectory.b2.tolist()))
    return _csv_text("t,b1,b2", (f"{t},{x!r},{y!r}" for t, (x, y) in rows))


def ccf_csv_text(agg: metrics.CcfAggregate) -> str:
    """CCF aggregate as CSV: `lag,mean,sd,n_defined`."""
    rows = zip(agg.lags.tolist(), agg.mean.tolist(), agg.sd.tolist(), agg.n_defined.tolist())
    return _csv_text("lag,mean,sd,n_defined", (f"{lag},{m!r},{sd!r},{n}" for lag, m, sd, n in rows))


def lag_csv_text(dist: metrics.LagDistribution) -> str:
    """Lag distribution as CSV: `lag,count,rel_freq`."""
    rows = zip(dist.lags.tolist(), dist.counts.tolist(), dist.rel_freq.tolist())
    return _csv_text("lag,count,rel_freq", (f"{lag},{count},{freq!r}" for lag, count, freq in rows))


def histogram_csv_text(hist: metrics.HistogramResult) -> str:
    """Histogram as CSV: `bin_lo,bin_hi,count`."""
    edges = hist.edges.tolist()
    rows = zip(edges, edges[1:], hist.counts.tolist())
    return _csv_text("bin_lo,bin_hi,count", (f"{lo!r},{hi!r},{c}" for lo, hi, c in rows))


def figure_data(
    which: str,
    *,
    table: sweep_mod.SweepTable | None = None,
    max_lag: int = metrics.LagSpec.max_lag,
    bins: int = metrics.HISTOGRAM_BINS,
    batch=None,
) -> dict:
    """CSV payload for one figure panel, keyed by output filename.

    Panels: ``r_histogram`` (needs ``table``), ``ccf_panel``, ``lag_panel``
    and ``trajectory_panel``.  A context panel cuts one
    :func:`sweep.context_batches` ``batch`` into one payload, named after
    the batch's context; the trajectory is its run 0.  Context filenames
    carry the signed-digit code of (s1, o1, o2, s2), e.g.
    ``fig6_ccf_+10+1-1.csv``.
    """
    if which not in PANEL_NAMES:
        raise ValueError(f"unknown figure panel {which!r}; expected one of {PANEL_NAMES}")

    if which == "r_histogram":
        if table is None:
            raise ValueError("r_histogram needs a sweep table")
        hist = metrics.histogram(table.r[table.finite], bins, -1.0, 1.0)
        return {"fig3_hist.csv": histogram_csv_text(hist)}

    if batch is None:
        raise ValueError(f"{which} needs a batch from sweep.context_batches")
    context, seeds, B1, B2, finite = batch
    code = context.code()
    if which == "trajectory_panel":
        try:
            trajectory = dynamics.Trajectory(context, seeds[0], B1[0], B2[0])
        except dynamics.NonFiniteStateError as exc:
            raise dynamics.NonFiniteStateError(
                f"trajectory panel, context {code}: {exc}"
            ) from None
        return {f"fig2_traj_{code}.csv": trajectory_csv_text(trajectory)}
    # the finite runs: the batch's own arrays when every run is, not a copy
    X1, X2 = (B1, B2) if finite.all() else (B1[finite], B2[finite])
    if which == "ccf_panel":
        if len(X1) < 2:
            raise AnalysisError(f"ccf panel, context {code}: fewer than 2 finite runs")
        result = metrics.cross_correlation(X1, X2, max_lag)
        return {f"fig6_ccf_{code}.csv": ccf_csv_text(metrics.aggregate_ccf([result]))}
    dist = metrics.turn_lags(X1, X2, metrics.LagSpec(max_lag=max_lag))
    return {f"fig7_lags_{code}.csv": lag_csv_text(dist)}


def _write_files(items, out_dir) -> list:
    """Write (filename, text) pairs into a directory, in order and without
    newline translation; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in items:
        (out / name).write_text(text, newline="")
    return [out / name for name, _ in items]


def write_report(report: AnalysisReport, out_dir) -> list:
    """Write report.json, table1.csv and coefficients.csv; returns paths."""
    return _write_files([
        ("report.json", report_json_text(report)),
        ("table1.csv", table1_csv_text(report)),
        ("coefficients.csv", coefficients_csv_text(report)),
    ], out_dir)


def write_payloads(payloads: dict, out_dir) -> list:
    """Write figure payloads (filename -> text) into a directory."""
    return _write_files(sorted(payloads.items()), out_dir)
