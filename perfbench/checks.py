"""Oracle spot check of a sweep CSV against the scalar simulation path."""

import math
from pathlib import Path

from dyadsim import dynamics, metrics, sweep


def _replayed_r(context, params, seed):
    try:
        trajectory = dynamics.simulate(context, params, seed)
        return metrics.pearson_r(trajectory.b1, trajectory.b2)
    except (dynamics.NonFiniteStateError, metrics.UndefinedCorrelationError):
        return math.nan


def oracle_mismatches(csv_path, config):
    """Problems found by replaying the first and last run of every context.

    Each replayed run goes through the scalar ``dynamics.simulate`` and
    ``metrics.pearson_r``; its ``r`` must equal the CSV value bit for bit.
    The CSV must also survive a read/write round trip byte for byte.
    """
    text = Path(csv_path).read_text()
    rows = text.split("\n")[1:-1]
    runs = config.runs_per_context
    problems = []
    for ci, context in enumerate(sweep.enumerate_contexts()):
        for j in sorted({0, runs - 1}):
            fields = rows[ci * runs + j].split(",")
            seed = sweep.derive_run_seed(config.master_seed, ci, j)
            if int(fields[6]) != seed:
                problems.append(f"context {ci} run {j}: run_seed {fields[6]} != {seed}")
            replayed = _replayed_r(context, config.params, seed)
            if float(fields[7]).hex() != replayed.hex():
                problems.append(f"context {ci} run {j}: r {fields[7]} != replayed {replayed!r}")
    if sweep.sweep_csv_text(sweep.read_sweep_csv(csv_path, config)) != text:
        problems.append("sweep CSV does not survive a read/write round trip")
    return problems
