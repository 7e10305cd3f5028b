"""The sweep CSV, the figure payloads and the trajectories do not depend on
the BLAS kernel, its thread count or numpy's SIMD dispatch level.

Each setting runs ``sweep``, ``figures --input`` and two ``simulate`` runs in
child processes, the figures for two contexts simulated as one group, and its
outputs must match those of the host's default setting. One ``simulate`` run
stays finite; the other diverges and its final state alone is non-finite. A
child reports the OpenBLAS thread count and numpy's CPU features it ran
with, and OpenBLAS names its kernel on stderr (``OPENBLAS_VERBOSE=2``), so a
setting that did not take effect fails the test instead of passing it
vacuously. A setting the host cannot run is skipped with the reason: no single bundled
scipy-openblas library (whose thread count the child reads), fewer than 2
CPUs for 2 threads, a CPU without the forced kernel's instructions, or a
numpy without ``numpy._core``'s CPU feature table.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import dyadsim

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:
    CPU_FEATURES = None

PACKAGE_ROOT = str(Path(dyadsim.__file__).resolve().parent.parent)

OPENBLAS = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob(
    "libscipy_openblas64_*.so"))

FLAGS = ["--seed", "42", "--runs", "3", "--turns", "60"]

DISABLED_FEATURES = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

SETTINGS = {
    "1-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "2-threads": {"OPENBLAS_NUM_THREADS": "2"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "no-avx2-dispatch": {"NPY_DISABLE_CPU_FEATURES": " ".join(DISABLED_FEATURES)},
}

# the instructions a forced OpenBLAS kernel needs
KERNEL_NEEDS = {"Haswell": "AVX2", "Sandybridge": "AVX"}

# argv: the OpenBLAS library to ask for its thread count ("" for none), then
# the CLI's arguments; prints the thread count and numpy's CPU features as
# one JSON line, then runs the CLI
CHILD = """
import ctypes, json, sys
from dyadsim.cli import main
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:
    features = None
threads = None
if sys.argv[1]:
    get_threads = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    threads = get_threads()
print(json.dumps({"threads": threads, "features": features}), flush=True)
sys.exit(main(sys.argv[2:]))
"""


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _unmet(setting):
    """Why this host cannot run ``setting``, or None if it can."""
    if "NPY_DISABLE_CPU_FEATURES" in setting:
        if CPU_FEATURES is None:
            return "numpy._core's CPU feature table cannot be imported"
        unknown = [f for f in DISABLED_FEATURES if f not in CPU_FEATURES]
        return f"this numpy does not dispatch to {unknown}" if unknown else None
    if len(OPENBLAS) != 1:
        return f"need 1 bundled scipy-openblas library, found {len(OPENBLAS)}"
    if setting.get("OPENBLAS_NUM_THREADS", "1") != "1" and _cpus() < 2:
        return "fewer than 2 CPUs"
    needs = KERNEL_NEEDS.get(setting.get("OPENBLAS_CORETYPE"))
    if needs and CPU_FEATURES is None:
        return "numpy._core's CPU feature table cannot be imported"
    if needs and not CPU_FEATURES.get(needs):
        return f"the CPU has no {needs}"
    return None


def _run(args, env):
    lib = str(OPENBLAS[0]) if len(OPENBLAS) == 1 else ""
    result = subprocess.run([sys.executable, "-c", CHILD, lib, *args], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    cores = [line.removeprefix("Core: ") for line in result.stderr.splitlines()
             if line.startswith("Core: ")]
    return json.loads(result.stdout.splitlines()[0]), cores


def _digests(setting, out):
    """Digests of the outputs under ``setting``, after checking it took effect."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(setting, OPENBLAS_VERBOSE="2", PYTHONPATH=PACKAGE_ROOT)
    csv = out / "sweep.csv"
    seen = [_run(["sweep", *FLAGS, "--out", str(csv)], env),
            _run(["figures", *FLAGS, "--input", str(csv), "--context", "1,0;1,-1",
                  "--context", "1,1;1,1", "--out", str(out / "figs")], env)]
    stable, final_inf = out / "traj_stable.csv", out / "traj_final_inf.csv"
    trajectories = {
        stable: ["--turns", "60", "--context", "1,0;1,-1"],
        # at unit gain, state 1108 of this run is the first to leave double range
        final_inf: ["--turns", "1108", "--influence", "1.0", "--context", "1,1;1,1"],
    }
    for traj, args in trajectories.items():
        seen.append(_run(["simulate", "--seed", "42", *args, "--out", str(traj)], env))
    for probe, cores in seen:
        if "OPENBLAS_NUM_THREADS" in setting:
            assert probe["threads"] == int(setting["OPENBLAS_NUM_THREADS"])
        if "OPENBLAS_CORETYPE" in setting:
            assert cores == [setting["OPENBLAS_CORETYPE"]]
        if "NPY_DISABLE_CPU_FEATURES" in setting:
            assert not any(probe["features"][f] for f in DISABLED_FEATURES)
    files = [csv, *sorted((out / "figs").iterdir()), *trajectories]
    # the sweep CSV, the histogram, three panels of each context, both
    # simulated in one group, and the two trajectories
    assert len(files) == 10
    assert final_inf.read_text().endswith("\n1108,inf,inf\n")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}


@pytest.fixture(scope="module")
def host_default(tmp_path_factory):
    return _digests({}, tmp_path_factory.mktemp("host-default"))


@pytest.mark.parametrize("name", SETTINGS)
def test_outputs_equal_under_setting(name, host_default, tmp_path):
    setting = SETTINGS[name]
    reason = _unmet(setting)
    if reason is not None:
        pytest.skip(f"{name}: {reason}")
    assert _digests(setting, tmp_path) == host_default
