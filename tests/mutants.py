"""Mutation run: which Tier-1 tests catch a broken seeding or drawing contract.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

``MUTANTS`` lists each mutant as exact-text edits and the contract it
breaks.  Each run copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` to a temporary directory, so that the tests which start
subprocesses load the copy too, and runs the Tier-1 command there with
plain asserts and a JUnit report.  The script runs an unmutated copy once.
Then, for each mutant, it applies the edits to a fresh copy (an old text
not found exactly once stops the script) and runs Tier-1 twice: in full,
and "digest-blind", without ``tests/test_golden.py`` and
``tests/test_determinism.py``.  It prints the tests that pass unmutated and
fail under the mutant, then a summary table.  A mutant that no
digest-blind test catches is marked ``SURVIVES``.

pytest does not collect this file.  It writes only under its temporary
directories, and takes about 13 Tier-1 runs of wall time.
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
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
DIGEST_FILES = ("tests/test_golden.py", "tests/test_determinism.py")
DYNAMICS, SWEEP = "src/dyadsim/dynamics.py", "src/dyadsim/sweep.py"


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
    """Edit running ``line`` on the (turns, 2) ``noise`` of ``NoiseSource.turn_noise``."""
    call = 'self._rng.uniform(-half_width, half_width, (_checked_int("turns", turns), 2))'
    new = f"        noise = {call}\n        {line}\n        return noise\n"
    return DYNAMICS, f"        return {call}\n", new


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
        (SWEEP, "z = _mix64(z ^ int(run_index))", "z = _mix64(z)"),
        (SWEEP, "np.arange(runs, dtype=np.uint64)", "np.zeros(runs, dtype=np.uint64)"),
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


def main() -> None:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="dyadsim-mutants-") as scratch:
        parent = Path(scratch) / "parent"
        copy_tree(parent)
        baseline = {test for test, outcome in tier1(parent).items() if outcome == "passed"}
        print(f"unmutated tree: {len(baseline)} tests pass", flush=True)
        rows = []
        for mutant in MUTANTS:
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
    main()
