"""The benchmark's contract with the package, checked without running the benchmark.

``perfbench/spans.py`` times the package by substituting its public
functions by name, and ``perfbench/checks.py`` replays sweep rows through the
scalar path.  A rename under ``src/`` that breaks either one fails here, and
so does a call that passes by keyword an argument ``spans.py`` reads by
position (``fit_least_squares``' columns).
"""

import importlib.util
from pathlib import Path

from dyadsim import cli
from dyadsim.dynamics import ModelParams
from dyadsim.sweep import SweepConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FLAGS = ["--runs", "3", "--turns", "60"]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_figures_names_every_panel_and_the_oracle_agrees(tmp_path):
    spans, checks = _load("spans"), _load("checks")
    csv = tmp_path / "sweep.csv"
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(["sweep", *FLAGS, "--out", str(csv)]) == 0
        assert cli.main(["figures", *FLAGS, "--input", str(csv),
                         "--out", str(tmp_path / "figs")]) == 0
    names = {span.name for span in tracer.spans}
    metrics = spans.layer_metrics(tracer.spans)
    panels = [key[:-2] for key in metrics if key.startswith("report.") and key.endswith("_panel_s")]
    assert len(panels) == 4
    assert [panel for panel in panels if panel not in names] == []
    assert [panel for panel in panels if not metrics[panel + "_s"] > 0.0] == []
    config = SweepConfig(master_seed=42, runs_per_context=3, params=ModelParams(turns=60))
    assert checks.oracle_mismatches(csv, config) == []


def test_traced_analyze_times_every_stats_stage(tmp_path):
    spans = _load("spans")
    csv = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *FLAGS, "--out", str(csv)]) == 0
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(["analyze", *FLAGS, "--input", str(csv),
                         "--out", str(tmp_path / "report")]) == 0
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["stats.fit_calls"] == 4
    assert metrics["stats.fit_distinct_ratio"] == 1.0
    timed = ("stats.design_s", "stats.chi2_s", "sweep.tail_counts_s", "sweep.csv_read_s")
    assert [key for key in timed if not metrics[key] > 0.0] == []
