"""Headline analysis report and figure-data payloads for a sweep.

``analyze`` condenses a sweep table into tail statistics, chi-square tests,
and the five regression fits; ``figure_data`` renders per-panel CSV
payloads (r histogram, per-context mean CCFs, turn-lag distributions, and
exemplar trajectories).  Output is deterministic: regenerating from the
same table and config is byte-identical.
"""

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dyadsim import __version__, dynamics, metrics, stats, sweep as sweep_mod

__all__ = [
    "DEFAULT_FIGURE_CONTEXTS",
    "AnalysisError",
    "AnalysisReport",
    "analyze",
    "figure_data",
    "table1_csv_text",
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
HISTOGRAM_BINS = 40  # the r histogram's default bin count over [-1, 1]

UNIFORM_NEGATIVE_PROB = 65.0 / 81.0  # contexts with at least one -1 entry

# FitResult fields reported per model in report.json; name and k_nominal are the ModelSpec's
_FIT_KEYS = ("k_effective", "r2", "adj_r2", "aic", "bic", "rss", "n")


class AnalysisError(ValueError):
    """A statistic could not be computed from otherwise valid input."""


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


def _chi2_dict(result: stats.Chi2Result) -> dict:
    return {"statistic": result.statistic, "df": result.df, "p_value": result.p_value}


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
    n_total = len(table)
    n_undefined = counts.counts["undefined"]

    n_comp = counts.counts["complementary"]
    n_sync = counts.counts["synchronous"]
    neg_comp = counts.with_negative["complementary"]
    neg_sync = counts.with_negative["synchronous"]
    if n_comp == 0 or n_sync == 0:
        raise AnalysisError("tail statistics: a tail is empty; sweep too small")

    gof_uniform = _with_context(
        "complementary-vs-uniform chi-square",
        stats.chi2_gof,
        (neg_comp, n_comp - neg_comp),
        (UNIFORM_NEGATIVE_PROB, 1.0 - UNIFORM_NEGATIVE_PROB),
    )
    gof_even = _with_context(
        "complementary-vs-even-split chi-square",
        stats.chi2_gof,
        (neg_comp, n_comp - neg_comp),
        (0.5, 0.5),
    )
    two_prop = _with_context(
        "tail-comparison chi-square",
        stats.chi2_two_proportion,
        neg_comp,
        n_comp,
        neg_sync,
        n_sync,
    )

    fits = []
    fitted = {}  # column set -> FitResult
    for model_id in stats.MODEL_IDS:
        spec = stats.model_spec(model_id)
        if spec.columns not in fitted:
            design = stats.build_design(table, spec)
            fitted[spec.columns] = _with_context(
                f"model {model_id} fit",
                stats.fit_least_squares,
                design.X,
                design.y,
                design.columns,
            )
        fits.append((spec, fitted[spec.columns]))

    best_aic = min(fit.aic for _, fit in fits)
    best_bic = min(fit.bic for _, fit in fits)
    by_aic = [spec.model_id for spec, fit in fits if fit.aic == best_aic]
    by_bic = [spec.model_id for spec, fit in fits if fit.bic == best_bic]
    selected = {
        "by_aic": by_aic,
        "by_bic": by_bic,
        "note": (
            "lowest information criteria: models "
            + "/".join(str(m) for m in sorted(set(by_aic + by_bic)))
        ),
    }

    config = table.config
    params = config.params
    provenance = {
        "artifact": PACKAGE_NAME,
        "artifact_version": __version__,
        "generator": dynamics.NoiseSource.ALGORITHM_ID,
        "numpy_version": np.__version__,
        "master_seed": config.master_seed,
        "runs_per_context": config.runs_per_context,
        "tail_threshold": config.tail_threshold,
        "alpha": params.alpha,
        "influence": params.influence,
        "noise_half_width": params.noise_half_width,
        "turns": params.turns,
    }

    design_n = fits[0][1].n
    report = AnalysisReport(
        sweep_summary={
            "records": n_total,
            "finite": n_total - n_undefined,
            "undefined": n_undefined,
            "regression_rows": design_n,
            "regression_excluded": n_total - design_n,
        },
        tails={
            label: {
                "count": counts.counts[label],
                "with_negative_entry": counts.with_negative[label],
                "negative_rate": (
                    counts.with_negative[label] / counts.counts[label]
                    if counts.counts[label]
                    else None
                ),
            }
            for label in sweep_mod.TAIL_LABELS
        },
        chi_square={
            "complementary_vs_uniform_65_81": _chi2_dict(gof_uniform),
            "complementary_vs_even_split": _chi2_dict(gof_even),
            "tail_comparison": _chi2_dict(two_prop),
        },
        fits=fits,
        selected_model=selected,
        provenance=provenance,
    )
    return report


def report_json_text(report: AnalysisReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def table1_csv_text(report: AnalysisReport) -> str:
    return stats.fit_summary_csv_text(report.fits)


def figure_data(
    which: str,
    *,
    table: sweep_mod.SweepTable | None = None,
    config: sweep_mod.SweepConfig | None = None,
    contexts=None,
    max_lag: int = metrics.LagSpec.max_lag,
    bins: int = HISTOGRAM_BINS,
    batches=None,
) -> dict:
    """CSV payloads for one figure panel, keyed by output filename.

    Panels: ``r_histogram`` (needs ``table``), ``ccf_panel``, ``lag_panel``
    and ``trajectory_panel``.  A context panel cuts each
    :func:`sweep.context_batches` batch into one payload, named after the
    batch's context; the trajectory is its run 0.  It takes ``batches``, or
    ``contexts`` (default ``DEFAULT_FIGURE_CONTEXTS``) that it simulates
    through that generator with ``config``, in groups of whole contexts; no
    byte depends on the grouping.  Context filenames carry the signed-digit
    code of (s1, o1, o2, s2), e.g. ``fig6_ccf_+10+1-1.csv``.
    """
    if which not in PANEL_NAMES:
        raise ValueError(f"unknown figure panel {which!r}; expected one of {PANEL_NAMES}")

    if which == "r_histogram":
        if table is None:
            raise ValueError("r_histogram needs a sweep table")
        hist = metrics.histogram(table.r[table.finite], bins, -1.0, 1.0)
        return {"fig3_hist.csv": metrics.histogram_csv_text(hist)}

    if batches is None:
        if config is None:
            raise ValueError(f"{which} needs a sweep config")
        contexts = DEFAULT_FIGURE_CONTEXTS if contexts is None else tuple(contexts)
        batches = sweep_mod.context_batches(config, contexts)
    elif contexts is not None:
        raise ValueError(f"{which} takes contexts or batches, not both")
    # map holds no batch between calls, so a finished group is freed before the
    # generator simulates the next one; a comprehension's loop variable would keep it
    return dict(map(functools.partial(_panel_payload, which, max_lag=max_lag), batches))


def _panel_payload(which: str, batch, max_lag: int) -> tuple[str, str]:
    """(filename, CSV text) of one context's batch cut into a panel."""
    context, seeds, B1, B2, finite = batch
    code = context.code()
    if which == "trajectory_panel":
        try:
            trajectory = dynamics.batch_row_trajectory(context, seeds[0], B1[0], B2[0])
        except dynamics.NonFiniteStateError as exc:
            raise dynamics.NonFiniteStateError(
                f"trajectory panel, context {code}: {exc}"
            ) from None
        return f"fig2_traj_{code}.csv", dynamics.trajectory_csv_text(trajectory)
    if which == "ccf_panel":
        if np.count_nonzero(finite) < 2:
            raise AnalysisError(f"ccf panel, context {code}: fewer than 2 finite runs")
        result = metrics.cross_correlation(B1[finite], B2[finite], max_lag)
        return f"fig6_ccf_{code}.csv", metrics.ccf_csv_text(metrics.aggregate_ccf([result]))
    dist = metrics.turn_lags(B1[finite], B2[finite], metrics.LagSpec(max_lag=max_lag))
    return f"fig7_lags_{code}.csv", metrics.lag_csv_text(dist)


def _write_files(items, out_dir) -> list:
    """Write (filename, text) pairs into a directory, in order; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in items:
        (out / name).write_text(text)
    return [out / name for name, _ in items]


def write_report(report: AnalysisReport, out_dir) -> list:
    """Write report.json, table1.csv and coefficients.csv; returns paths."""
    return _write_files([
        ("report.json", report_json_text(report)),
        ("table1.csv", table1_csv_text(report)),
        ("coefficients.csv", stats.coefficients_csv_text(report.fits)),
    ], out_dir)


def write_payloads(payloads: dict, out_dir) -> list:
    """Write figure payloads (filename -> text) into a directory."""
    return _write_files(sorted(payloads.items()), out_dir)
