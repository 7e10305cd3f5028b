"""dyadsim benchmark: the CLI pipeline end to end, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-default --seed 42 --seconds 30 --trace 0

Each workload is a chain of CLI commands sharing one sweep CSV
(``sweep`` -> ``analyze --input`` [-> ``figures --input``]).  The chain is
driven in-process through ``dyadsim.cli.main`` as a closed loop: one client,
one process, ``--workers 1``, each command starting when the previous one
has finished.  The master seed is the benchmark's ``--seed``; the program
only receives the resulting CLI flags.

``--trace 0`` times every command with tracing off, after one untimed
warm-up iteration, for ``--seconds`` seconds (at least three iterations),
and times interpreter start-up plus ``import dyadsim.cli`` in fresh
interpreters.  Every end-to-end time is in reference seconds (see
``calibrate.py``): wall time, corrected for the speed of the host, which a
small fixed kernel samples every 10 ms while the command runs.
``--trace 1`` alternates untraced and traced iterations and reports
per-layer self times and counts (see ``spans.py``), in wall seconds,
together with an ``-X importtime`` breakdown of the import.

Outputs are checked outside the timed region: at seed 42 every output file
must match the digests in ``golden.json``; at other seeds every iteration
must reproduce the warm-up's digests.  The warm-up's sweep CSV is also
replayed by the scalar oracle (``checks.py``).  A command fails on a
nonzero exit code, an exception, or a failed check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process exits
with code 2, printing no result, when ``src/dyadsim`` is missing.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 42
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
MIN_ITERATIONS = 3
MIN_TRACED = 2
BLAS_THREADS = "1"

# output path (under the workload's directory) written by each command
OUTPUT_OF = {"sweep": "sweep.csv", "analyze": "report", "figures": "figs"}

END_TO_END = {  # name -> unit; figures_s and error_rate are printed only
    "setup_s": "s",
    "sweep_s": "s",
    "analyze_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Workload:
    runs: int
    turns: int
    figures: bool
    why: str

    def commands(self, seed, out):
        """The workload's CLI argument lists, in the order they run."""
        flags = ["--seed", str(seed), "--runs", str(self.runs), "--turns", str(self.turns)]
        csv = f"{out}/sweep.csv"
        chain = [
            ["sweep", *flags, "--workers", "1", "--out", csv],
            ["analyze", *flags, "--input", csv, "--out", f"{out}/report"],
        ]
        if self.figures:
            chain.append(["figures", *flags, "--input", csv, "--out", f"{out}/figs"])
        return chain


WORKLOADS = {
    "paper-default": Workload(
        runs=100, turns=500, figures=True,
        why="the paper reproduction at default flags; the CCF figure panel's many "
            "short pearson_rows calls dominate, so CCF and figure changes show here",
    ),
    "wide-sweep": Workload(
        runs=400, turns=50, figures=False,
        why="32,400 short runs and no figures: per-run RNG set-up, record building, "
            "CSV and design-matrix work dominate while recurrence and CCF do little",
    ),
    "long-series": Workload(
        runs=10, turns=5000, figures=True,
        why="810 runs of 5,000 turns: the per-turn recurrence and draw bytes dominate, "
            "and CCF runs few pearson_rows calls over long rows",
    ),
}


def digests(out_dir):
    """SHA-256 of every file under ``out_dir``, keyed by relative POSIX path."""
    root = Path(out_dir)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "dynamics.draw_bytes":
        return "B_computed"
    if metric == "stats.design_cells":
        return "cells_computed"
    if metric in ("sweep.csv_bytes", "report.bytes_written"):
        return "B"
    return "count"


@dataclass
class Iteration:
    times: dict  # command -> reference seconds (wall seconds with WallClock)
    wall: dict  # command -> wall seconds
    problems: dict  # command -> failure message, or None

    @property
    def pipeline(self):
        return sum(self.times.values())


class Bench:
    """Runs one workload's command chain and checks its outputs."""

    def __init__(self, cli, name, workload, seed, expected, timer):
        self.cli = cli
        self.timer = timer  # calibrate.Probe or calibrate.WallClock
        self.out = WORK / name
        self.chain = workload.commands(seed, self.out.as_posix())
        self.expected = expected  # digests every iteration must reproduce
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.timer() as timer:
                try:
                    code = self.cli.main(argv)
                except (Exception, SystemExit) as exc:
                    code = exc
        problem = None if code == 0 else f"{argv[0]}: {code!r} {err.getvalue().strip()}"
        return timer, problem

    def iteration(self):
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        times, wall, problems = {}, {}, {}
        for argv in self.chain:
            timer, problems[argv[0]] = self._call(argv)
            times[argv[0]], wall[argv[0]] = timer.reference_seconds(), timer.seconds()

        found = digests(self.out)
        if self.expected is None:
            self.expected = found
        for command in times:
            prefix = OUTPUT_OF[command]
            mine, want = (
                {k: v for k, v in d.items() if k == prefix or k.startswith(prefix + "/")}
                for d in (found, self.expected)
            )
            if problems[command] is None and mine != want:
                differ = sorted(k for k in mine.keys() | want.keys() if mine.get(k) != want.get(k))
                problems[command] = f"{command}: outputs differ from expected digests: {differ}"
        self.attempted += len(times)
        self.fail([p for p in problems.values() if p])
        return Iteration(times=times, wall=wall, problems=problems)

    def fail(self, problems):
        self.failed += len(problems)
        self.problems.extend(problems)


def _import_runs(samples, timer, *flags):
    """(timer, stderr) of fresh interpreters running ``import dyadsim.cli``.

    This process and its children are held to one CPU meanwhile, so that a
    ``calibrate.Probe`` samples the speed of the CPU the child runs on, and
    the handler time it takes out is time the child was kept from running.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *flags, "-c", "import dyadsim.cli"]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)  # warm-up
    runs = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        for _ in range(samples):
            with timer() as clock:
                proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                                      timeout=120)
            runs.append((clock, proc.stderr))
    finally:
        os.sched_setaffinity(0, cpus)
    return runs


def import_breakdown(importtime_text):
    """Self import time (s) per group, parsed from ``-X importtime`` output.

    A module counts toward ``numpy`` or ``scipy`` if it belongs to that
    package or was imported while that package was importing, toward
    ``dyadsim`` if it was otherwise imported under a dyadsim module, and
    toward ``other`` (interpreter start-up) if neither.
    """
    entries = []
    for line in importtime_text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(self_us)))
    totals = Counter()
    stack = []  # (indent, group) of the enclosing imports
    for indent, name, self_us in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1] if stack else None
        root = name.split(".")[0]
        if parent in ("numpy", "scipy"):
            group = parent
        elif root in ("numpy", "scipy", "dyadsim"):
            group = root
        else:
            group = "dyadsim" if parent == "dyadsim" else "other"
        totals[group] += self_us
        stack.append((indent, group))
    return {group: us / 1e6 for group, us in totals.items()}


def _stable_layers(iterations):
    """Median of each per-layer time; counts and ratios from the first iteration.

    Returns the merged metrics and the names of counts that differ between
    iterations (they must repeat exactly).
    """
    merged, unstable = {}, []
    for key in iterations[0]:
        values = [it[key] for it in iterations]
        if key.endswith("_s"):
            merged[key] = statistics.median(values)
        else:
            merged[key] = values[0]
            if len(set(values)) != 1:
                unstable.append(key)
    return merged, unstable


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _print_samples(samples, units):
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}  {'unit':<6}{'n':>4}")
    for name, values in samples.items():
        median, q1, q3 = _summary(values)
        print(f"{name:<16}{median:>14.6f}{q1:>14.6f}{q3:>14.6f}  {units[name]:<6}{len(values):>4}")


def _repeat(seconds, minimum, step):
    """Call ``step`` at least ``minimum`` times, then while it fits in ``seconds``."""
    start = perf_counter()
    count, last = 0, 0.0
    while count < minimum or perf_counter() - start + last <= seconds:
        began = perf_counter()
        step()
        last = perf_counter() - began
        count += 1


def _run_plain(bench, seconds, name):
    setup = _import_runs(SETUP_SAMPLES, bench.timer)
    samples, wall = defaultdict(list), defaultdict(list)

    def step():
        it = bench.iteration()
        for command in it.times:
            samples[f"{command}_s"].append(it.times[command])
            wall[f"{command}_s"].append(it.wall[command])
        samples["pipeline_s"].append(it.pipeline)
        wall["pipeline_s"].append(sum(it.wall.values()))

    _repeat(seconds, MIN_ITERATIONS, step)
    samples["setup_s"] = [timer.reference_seconds() for timer, _ in setup]
    wall["setup_s"] = [timer.seconds() for timer, _ in setup]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]

    units = dict(END_TO_END, figures_s="s")
    print("reference seconds (wall time corrected for host speed, see calibrate.py):")
    _print_samples(samples, units)
    print("wall seconds without the probe's own time, for comparison:")
    _print_samples(wall, units)
    print(f"{'error_rate':<16}{bench.failed / bench.attempted:>14.6f}"
          f"{'':>28}  {'ratio':<6}{bench.attempted:>4}")
    metrics = {name: {"value": _summary(samples[name])[0], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, []


def _run_traced(bench, seconds, name):
    imports = [import_breakdown(err)
               for _, err in _import_runs(IMPORT_SAMPLES, bench.timer, "-X", "importtime")]
    tracer = spans.Tracer()
    plain, traced, layers = [], [], []

    def step():
        plain.append(bench.iteration().pipeline)
        tracer.reset()
        with tracer.installed():
            traced.append(bench.iteration().pipeline)
        layers.append(spans.layer_metrics(tracer.spans))

    _repeat(seconds, MIN_TRACED, step)
    tracer.dump(WORK / f"{name}.spans.jsonl")

    values, unstable = _stable_layers(layers)
    for group in ("numpy", "scipy", "dyadsim"):
        values[f"cli.import_{group}_s"] = statistics.median(b.get(group, 0.0) for b in imports)
    values["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    print(f"traced iterations: {len(layers)}, untraced: {len(plain)}, "
          f"importtime samples: {len(imports)}")
    for key, value in values.items():
        print(f"{key:<32}{value!r:>24}")
    metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in values.items()}
    return metrics, [f"count differs between traced iterations: {k}" for k in unstable]


def use_source_tree():
    """Run from the repository root against ``src/``; False if it is missing.

    Also pins numpy's OpenBLAS pool to one thread, before numpy loads, for
    this process and the interpreters it starts.  An idle OpenBLAS worker
    on a 2-vCPU shared host can take 100+ ms to wake, which swamps a
    few-millisecond least-squares fit.  The thread count also changes the
    last bits of the fits at 32,400 rows, so ``golden.json`` is recorded
    with the same setting.
    """
    if not (SRC / "dyadsim" / "cli.py").is_file():
        return False
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_source_tree():
        print(f"perfbench: no dyadsim sources under {SRC}", file=sys.stderr)
        return 2
    import checks
    import numpy
    from dyadsim import cli, dynamics, sweep

    workload = WORKLOADS[args.workload]
    expected = None
    if args.seed == GOLDEN_SEED:
        expected = json.loads(GOLDEN.read_text())["workloads"][args.workload]
    timer = calibrate.WallClock if args.trace else calibrate.Probe
    bench = Bench(cli, args.workload, workload, args.seed, expected, timer)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    scipy = sys.modules.get("scipy")
    print(f"nproc {os.cpu_count()} python {sys.version.split()[0]} numpy {numpy.__version__} "
          f"scipy {scipy.__version__ if scipy else 'not imported'}")
    for command in bench.chain:
        print("dyadsim " + " ".join(command))

    warm = bench.iteration()  # untimed warm-up; fixes the expected digests
    if warm.problems["sweep"] is None:
        config = sweep.SweepConfig(
            master_seed=args.seed,
            runs_per_context=workload.runs,
            params=dynamics.ModelParams(turns=workload.turns),
        )
        try:
            problems = checks.oracle_mismatches(bench.out / OUTPUT_OF["sweep"], config)
        except (ValueError, OSError, IndexError) as exc:
            problems = [repr(exc)]
        if problems:
            bench.fail([f"sweep: oracle: {len(problems)} problem(s), first: {problems[0]}"])

    run = _run_traced if args.trace else _run_plain
    metrics, unstable = run(bench, args.seconds, args.workload)
    for problem in bench.problems + unstable:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": bench.failed == 0 and not unstable,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
