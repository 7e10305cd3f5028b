"""Record the benchmark's reference digests and provenance.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record.py

Writes ``perfbench/golden.json`` (SHA-256 of every output file of each
workload at seed 42) and ``perfbench/provenance.json`` (machine, library
versions, and each workload's CLI flags, input sizes and computed bytes).
``run.py`` reads only ``golden.json``.
"""

import ctypes
import glob
import json
import os
import platform
import subprocess
from pathlib import Path

import run


def _cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def _last_level_cache():
    levels = glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")
    best = max(levels, key=lambda d: int(Path(d, "level").read_text()))
    return Path(best, "size").read_text().strip()


def _blas(numpy):
    """BLAS name, version and thread count of numpy's bundled OpenBLAS."""
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    threads = None
    if libs:
        lib = ctypes.CDLL(libs[0])
        threads = lib.scipy_openblas_get_num_threads64_()
    return {"name": info["name"], "version": info["version"], "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def sizes(workload, contexts, figure_contexts):
    """Input sizes per pipeline iteration, as the reference code runs it.

    ``sweep`` opens one noise stream per run.  ``figures`` opens one per
    run for each of the CCF and lag batches of every figure context, and one
    per context for its trajectory.  Each stream draws 2 + 2 * turns
    float64 values (8 B each); the byte figure is computed, not measured.
    """
    sweep_streams = contexts * workload.runs
    panel_streams = figure_contexts * (2 * workload.runs + 1) if workload.figures else 0
    streams = sweep_streams + panel_streams
    return {
        "rows": sweep_streams,
        "sweep_streams": sweep_streams,
        "panel_streams": panel_streams,
        "streams": streams,
        "run_turns": streams * workload.turns,
        "draw_bytes_computed": streams * 8 * (2 + 2 * workload.turns),
    }


def main():
    if not run.use_source_tree():
        raise SystemExit(f"no dyadsim sources under {run.SRC}")
    import calibrate
    import numpy
    import scipy
    from dyadsim import cli, report, sweep

    golden, workloads = {}, {}
    for name, workload in run.WORKLOADS.items():
        bench = run.Bench(cli, name, workload, run.GOLDEN_SEED, None, calibrate.WallClock)
        bench.iteration()
        if bench.failed:
            raise SystemExit(f"{name}: {bench.problems}")
        golden[name] = bench.expected
        workloads[name] = {
            "why": workload.why,
            "commands": ["dyadsim " + " ".join(argv) for argv in bench.chain],
            "sizes": sizes(workload, len(sweep.enumerate_contexts()),
                           len(report.DEFAULT_FIGURE_CONTEXTS)),
        }
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    provenance = {
        "recorded_at_commit": commit.stdout.strip() or None,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "last_level_cache": _last_level_cache(),
        },
        "software": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(numpy),
        },
        "calibration": {
            "reference_kernel_s": calibrate.REFERENCE_KERNEL_S,
            "interval_s": calibrate.INTERVAL_S,
        },
        "workloads": workloads,
    }
    run.GOLDEN.write_text(json.dumps(
        {"seed": run.GOLDEN_SEED, "workloads": golden}, indent=2, sort_keys=True) + "\n")
    (run.HERE / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n")


if __name__ == "__main__":
    main()
