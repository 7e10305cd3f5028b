"""Mutation run: which Tier-1 tests catch a broken pipeline contract.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME...      # only the named mutants

``MUTANTS`` lists each mutant as exact-text edits and the contract it
breaks; an unknown NAME exits with code 2 and lists the known names.  Each
run copies ``src/``, ``tests/``, ``perfbench/``, ``pyproject.toml`` and
``README.md`` to a temporary directory, so that the tests which start
subprocesses load the copy too, and runs the Tier-1 command there with
plain asserts and a JUnit report.  The script runs an unmutated copy
once.  Then, for each selected mutant, it applies the edits to a fresh copy
(an old text not found exactly once stops the script) and runs Tier-1
twice: in full, and "digest-blind", without ``tests/test_golden.py`` and
``tests/test_determinism.py``.  It prints the tests that pass unmutated and
fail under the mutant, then a summary table.  A mutant that no digest-blind test catches is marked
``SURVIVES``.

pytest does not collect this file.  It writes only under its temporary
directories, and takes 2N + 1 Tier-1 runs of wall time for N mutants
(70-90 s each on a 2-CPU machine).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
DIGEST_FILES = ("tests/test_golden.py", "tests/test_determinism.py")
DYNAMICS, METRICS = "src/dyadsim/dynamics.py", "src/dyadsim/metrics.py"
SWEEP, STATS = "src/dyadsim/sweep.py", "src/dyadsim/stats.py"
REPORT, CLI = "src/dyadsim/report.py", "src/dyadsim/cli.py"


class Mutant(NamedTuple):
    name: str
    contract: str
    edits: tuple  # (file, exact old text, new text), each old text found once


def kernel_noise(line: str) -> tuple:
    """Edit running ``line`` on each group's (rows, turns + 1, 2) ``draws``
    in ``_draw_rows``, before the uniform maps."""
    maps = ("        for part, h in ((draws[:, :1], 0.5), "
            "(draws[:, 1:], params.noise_half_width)):\n")
    return DYNAMICS, maps, f"        {line}\n{maps}"


def scalar_noise(line: str) -> tuple:
    """Edit running ``line`` on the (turns, 2) ``noise`` of ``draw_run_inputs``."""
    draw = "    noise = rng.uniform(-h, h, (params.turns, 2))\n"
    return DYNAMICS, draw, f"{draw}    {line}\n"


MUTANTS = (
    Mutant("keep-first-draw", "each kernel row reads numpy's PCG64 stream for its seed", (
        (DYNAMICS, "draws[:, 1:].reshape(", "draws[:, :-1].reshape("),
    )),
    Mutant("drop-low-carry", "the seeding sum (w0:w1) + inc carries into the high word", (
        (DYNAMICS, "state_hi = w0 + inc_hi + (state_lo < w1)", "state_hi = w0 + inc_hi"),
    )),
    Mutant("even-inc", "PCG64's increment is odd, 2 * (w2:w3) + 1", (
        (DYNAMICS, "w3 << one | one\n", "w3 << one\n"),
    )),
    Mutant("n2-equals-n1", "the two agents' noise draws are independent", (
        kernel_noise("draws[:, 1:, 1] = draws[:, 1:, 0]"),
        scalar_noise("noise[:, 1] = noise[:, 0]"),
    )),
    Mutant("pair-for-two-turns", "every turn draws a fresh noise pair", (
        kernel_noise("draws[:, 2::2] = draws[:, 1:-1:2]"),
        scalar_noise("noise[1::2] = noise[:-1:2]"),
    )),
    Mutant("one-seed-per-context", "each run of a context has its own seed", (
        (SWEEP, 'z = _mix64(z ^ _checked_seed(run_index, "run_index"))', "z = _mix64(z)"),
        (SWEEP, "np.arange(runs, dtype=np.uint64)", "np.zeros(runs, dtype=np.uint64)"),
    )),
    Mutant("reassociated-recurrence",
           "the kernel adds each turn as step does, noise + (a_i1 * b1 + a_i2 * b2)", (
        (DYNAMICS, "        add(first, second, coupled)\n        add(state, coupled, state)\n",
         "        add(state, first, state)\n        add(state, second, state)\n"),
    )),
    Mutant("global-pearson-scale", "pearson_rows scales each row by its own largest deviation", (
        (METRICS, "        xm /= xs[:, None]\n        ym /= ys[:, None]\n",
         "        xm /= np.fmax.reduce(xs)\n        ym /= np.fmax.reduce(ys)\n"),
    )),
    Mutant("ccf-helper-idle", "the helper thread fills the CCF's negative lags", (
        (METRICS, "            fill(range(-max_lag, 0), scratch[1])\n", "            pass\n"),
    )),
    Mutant("ccf-helper-positive-slices",
           "a negative lag k pairs x[-k:] with y[:n + k], not the segments of lag -k", (
        (METRICS, "seg_x, seg_y = rows_x[:, -k:], rows_y[:, : n + k]",
         "seg_x, seg_y = rows_x[:, : n + k], rows_y[:, -k:]"),
    )),
    Mutant("ccf-aggregate-unchecked", "a CcfAggregate holds one mean, sd and count per lag", (
        (METRICS, '        for name in ("mean", "sd", "n_defined"):\n'
                  '            self._check_lag_axis(name)\n', "        pass\n"),
    )),
    Mutant("lag-total-unchecked", "a LagDistribution's total_events is its counts' sum", (
        (METRICS, "        if total != expected:\n", "        if False:\n"),
    )),
    Mutant("short-csv-float", "the sweep CSV writes every r round-trip safe", (
        (SWEEP, "_record_lines(table, map(repr, table.r.tolist()))",
         "_record_lines(table, map('{:.15g}'.format, table.r.tolist()))"),
    )),
    Mutant("seed-index-wraps", "derive_run_seed takes only indices in [0, 2**64)", (
        (SWEEP, '_checked_seed(context_index, "context_index")', "int(context_index) & _MASK64"),
        (SWEEP, '_checked_seed(run_index, "run_index")', "int(run_index) & _MASK64"),
    )),
    Mutant("context-checked-late", "context_batches names a bad context before simulating", (
        (SWEEP, "        if not isinstance(context, ContextMatrix):\n", "        if False:\n"),
    )),
    Mutant("figure-group-unfloored",
           "a figure group takes at least 81 rows, as a sweep block does", (
        (SWEEP, "_rows_per_call(_CELL_BUDGET // 2, params.turns) // runs",
         "_CELL_BUDGET // 2 // (params.turns + 1) // runs"),
    )),
    Mutant("figure-group-rows-as-contexts",
           "a figure group takes the whole contexts its rows hold", (
        (SWEEP, "_rows_per_call(_CELL_BUDGET // 2, params.turns) // runs)",
         "_rows_per_call(_CELL_BUDGET // 2, params.turns))"),
    )),
    Mutant("coefficient-shape-unchecked",
           "simulate_rows takes one row of four coefficients per seed", (
        (DYNAMICS, "if A.shape != (m, 4) and (m or A.size):", "if False:"),
    )),
    Mutant("record-not-compared",
           "a record whose non-r fields differ from the writer's line is rejected", (
        (SWEEP, "\n            or not all(map(str.__eq__, records, "
                "_record_lines(table, r_texts)))):", "):"),
    )),
    Mutant("r-range-unchecked", "a SweepTable's defined r lies in [-1, 1]", (
        (SWEEP, "        if outside.size:\n", "        if False:\n"),
    )),
    Mutant("closed-lower-tail", "r = -threshold is neutral, not complementary", (
        (SWEEP, "np.where(r < -threshold,", "np.where(r <= -threshold,"),
    )),
    Mutant("aic-no-intercept", "AIC counts the intercept among the parameters", (
        (STATS, "aic = float(base + 2 * (k_eff + 1))", "aic = float(base + 2 * k_eff)"),
    )),
    Mutant("gof-df", "a goodness-of-fit test has one df fewer than categories", (
        (STATS, "df = len(observed) - 1", "df = len(observed)"),
    )),
    Mutant("uncentred-tss", "R^2 compares the RSS with the sum of squares about the mean", (
        (STATS, "tss = float(((y - y.mean()) ** 2).sum())", "tss = float((y ** 2).sum())"),
    )),
    Mutant("provenance-no-dynamics", "report.json's provenance holds the dynamics settings", (
        (REPORT, 'settings.update(settings.pop("params"))', 'settings.pop("params")'),
    )),
    Mutant("q-half-branch", "Q(1/2, y) takes Cephes' continued fraction for y > 1.1", (
        (STATS, "if y > 1.1:", "if y > 1.5:"),
    )),
    Mutant("adj-r2-df", "adjusted R^2 divides the RSS by n - k_effective - 1", (
        (STATS, "(n - 1) / (n - k_eff - 1)", "(n - 1) / (n - k_eff)"),
    )),
    Mutant("rate-over-all", "a tail's negative rate is over that tail's records", (
        (REPORT, "neg[label] / n[label]", "neg[label] / len(table)"),
    )),
    Mutant("bic-selects-by-aic", "by_bic lists the models of lowest BIC", (
        (REPORT, "scores = [getattr(fit, criterion) for _, fit in fits]",
         "scores = [fit.aic for _, fit in fits]"),
    )),
    Mutant("rank-tol-1e-6", "a column is redundant at a residual of 1e-10 of its norm", (
        (STATS, "diag <= 1e-10 * norms", "diag <= 1e-6 * norms"),
    )),
    Mutant("reuse-without-ones-check",
           "only a buffer whose column 0 is all ones is fitted in place", (
        (STATS, "return A if (A[:, 0] == 1.0).all() else None", "return A"),
    )),
    Mutant("no-finite-check", "fit_least_squares rejects a non-finite X or y", (
        (STATS, "if not np.isfinite(values).all():", "if False:"),
    )),
    Mutant("repeated-column-name", "each fitted coefficient has a name of its own", (
        (STATS, "if name in names[:j]:", "if False:"),
    )),
    Mutant("eager-report-import", "import dyadsim.cli and sweep load neither report nor stats", (
        (CLI, "from dyadsim import __version__, dynamics, sweep as sweep_mod",
         "from dyadsim import __version__, dynamics, report, sweep as sweep_mod"),
    )),
)


def copy_tree(target: Path, edits=()) -> None:
    """Copy the tested parts of the repository to ``target`` and apply ``edits``."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".perfbench_work")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=skip)
        else:
            shutil.copy2(source, target / name)
    for file, old, new in edits:
        path = target / file
        text = path.read_text()
        if text.count(old) != 1:
            sys.exit(f"{file}: old text found {text.count(old)} times, not once: {old!r}")
        path.write_text(text.replace(old, new))


def tier1(tree: Path, ignore=()) -> dict[str, str]:
    """Run Tier-1 in ``tree``; each test's outcome ("passed", "failed" or
    "skipped"), by its JUnit id."""
    report = tree / "tier1.xml"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    # plain asserts give the same outcomes; rewritten ones would spend minutes
    # diffing each pair of long output texts a mutant makes unequal
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               "--assert=plain", f"--junitxml={report}", *(f"--ignore={path}" for path in ignore)]
    subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, check=False)
    outcomes = {}
    for case in ET.parse(report).iter("testcase"):
        test = f"{case.get('classname')}::{case.get('name')}"
        tags = {child.tag for child in case}
        if outcomes.get(test) == "failed":  # a failing call stays failed past its teardown
            continue
        outcomes[test] = ("failed" if tags & {"failure", "error"}
                          else "skipped" if "skipped" in tags else "passed")
    return outcomes


def selected(names) -> tuple:
    """The mutants named in ``names``, in ``MUTANTS``' order; every mutant
    when no name is given.  An unknown name exits with code 2."""
    known = [mutant.name for mutant in MUTANTS]
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant: {' '.join(unknown)}\nknown mutants: {' '.join(known)}",
              file=sys.stderr)
        sys.exit(2)
    return tuple(mutant for mutant in MUTANTS if not names or mutant.name in names)


def main(names) -> None:
    mutants = selected(names)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="dyadsim-mutants-") as scratch:
        parent = Path(scratch) / "parent"
        copy_tree(parent)
        baseline = {test for test, outcome in tier1(parent).items() if outcome == "passed"}
        print(f"unmutated tree: {len(baseline)} tests pass", flush=True)
        rows = []
        for mutant in mutants:
            tree = Path(scratch) / mutant.name
            copy_tree(tree, mutant.edits)
            caught = []
            for label, ignore in (("full", ()), ("digest-blind", DIGEST_FILES)):
                outcomes = tier1(tree, ignore)
                failed = sorted(t for t in baseline if outcomes.get(t) == "failed")
                caught.append(len(failed))
                print(f"{mutant.name} ({label}): {len(failed)} caught", *failed,
                      sep="\n  ", flush=True)
            rows.append((mutant, *caught))
            shutil.rmtree(tree)
    print("\nmutant | contract broken | caught (full) | caught (digest-blind)")
    for mutant, full, blind in rows:
        print(f"{mutant.name} | {mutant.contract} | {full} | {blind}{'' if blind else ' SURVIVES'}")
    print(f"wall time {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
