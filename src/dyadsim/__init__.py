"""Two-agent coupled-dynamics simulator and coordination-analysis toolkit.

A dyadic interaction is driven by a 2x2 ternary context matrix that couples
two scalar behavior series through a linear update with uniform noise and a
decay term.  The package sweeps the full ternary context space with seeded,
reproducible batches, classifies each run's behavior correlation into
synchrony/complementarity tails, and reports dummy-coded regression models,
chi-square tests, cross-correlation functions, and turn-taking lag
distributions.
"""

__version__ = "0.1.0"  # set before the submodules, which read it

from dyadsim.dynamics import (
    BehaviorState,
    ContextMatrix,
    ModelParams,
    NoiseSource,
    NonFiniteStateError,
    Trajectory,
    simulate,
    simulate_batch,
    simulate_rows,
    step,
)
from dyadsim.metrics import (
    CcfAggregate,
    CcfResult,
    LagDistribution,
    LagSpec,
    UndefinedCorrelationError,
    aggregate_ccf,
    cross_correlation,
    histogram,
    pearson_r,
    turn_lags,
)
from dyadsim.stats import (
    Chi2Result,
    DummyEncoding,
    FitResult,
    ModelSpec,
    build_design,
    chi2_gof,
    chi2_two_proportion,
    chi2_upper_tail,
    encode_dummies,
    fit_least_squares,
    model_spec,
)
from dyadsim.sweep import (
    InvalidSweepError,
    SweepConfig,
    SweepTable,
    derive_run_seed,
    enumerate_contexts,
    read_sweep_csv,
    run_sweep,
    tail_counts,
    write_sweep_csv,
)
from dyadsim.report import AnalysisReport, analyze, figure_data

__all__ = [
    "AnalysisReport",
    "BehaviorState",
    "CcfAggregate",
    "CcfResult",
    "Chi2Result",
    "ContextMatrix",
    "DummyEncoding",
    "FitResult",
    "InvalidSweepError",
    "LagDistribution",
    "LagSpec",
    "ModelParams",
    "ModelSpec",
    "NoiseSource",
    "NonFiniteStateError",
    "SweepConfig",
    "SweepTable",
    "Trajectory",
    "UndefinedCorrelationError",
    "aggregate_ccf",
    "analyze",
    "build_design",
    "chi2_gof",
    "chi2_two_proportion",
    "chi2_upper_tail",
    "cross_correlation",
    "derive_run_seed",
    "encode_dummies",
    "enumerate_contexts",
    "figure_data",
    "fit_least_squares",
    "histogram",
    "model_spec",
    "pearson_r",
    "read_sweep_csv",
    "run_sweep",
    "simulate",
    "simulate_batch",
    "simulate_rows",
    "step",
    "tail_counts",
    "turn_lags",
    "write_sweep_csv",
    "__version__",
]
