"""Full ternary context-space sweep: seeded batches and the results table.

All 3^4 = 81 context matrices are enumerated in a canonical lexicographic
order; each gets ``runs_per_context`` seeded simulations.  Per-run seeds are
derived from the master seed with a splitmix64-style mixing chain, so the
whole 8,100-run batch is reproducible bit for bit on any platform.
"""

import itertools
from dataclasses import dataclass, field
from math import isnan

import numpy as np

from dyadsim.dynamics import (
    ContextMatrix, ModelParams, _checked_int, _checked_seed, simulate_batch, simulate_rows,
)
from dyadsim.metrics import pearson_rows

__all__ = [
    "SweepConfig",
    "SweepTable",
    "TailCounts",
    "InvalidSweepError",
    "enumerate_contexts",
    "derive_run_seed",
    "classify_tail",
    "context_batch",
    "run_sweep",
    "tail_counts",
    "sweep_csv_text",
    "write_sweep_csv",
    "read_sweep_csv",
]

TAIL_LABELS = ("complementary", "neutral", "synchronous", "undefined")

SWEEP_CSV_HEADER = "context_index,s1,o1,o2,s2,run_index,run_seed,r,finite,tail"

# the CSV's finite flag and tail label, indexed by tail code
_ROW_SUFFIXES = ("true,complementary", "true,neutral", "true,synchronous", "false,undefined")

_MASK64 = (1 << 64) - 1

# most cells (rows x (turns + 1)) per simulate_rows and per pearson_rows
# call of run_sweep: bounds its buffers (16 B a cell) and temporaries
_CELL_BUDGET = 1 << 18
_PEARSON_CELLS = 1 << 15

_CONTEXTS = tuple(ContextMatrix(*combo) for combo in itertools.product((-1, 0, 1), repeat=4))

# a CSV row's canonical first five fields, "context_index,s1,o1,o2,s2,"
_CONTEXT_PREFIXES = tuple(
    f"{ci},{ctx.s1},{ctx.o1},{ctx.o2},{ctx.s2}," for ci, ctx in enumerate(_CONTEXTS)
)

# the writer's spellings as bytes: each context's first five fields, and the
# finite flag and tail label per tail code
_CONTEXT_FIELDS = np.array([p.split(",")[:5] for p in _CONTEXT_PREFIXES], dtype="S3")
_LABEL_FIELDS = np.array([s.split(",") for s in _ROW_SUFFIXES], dtype="S14")

# besides non-ASCII text, what read_sweep_csv leaves to the per-row loop:
# np.loadtxt ends a line at "\r", skips an empty line, drops a bytes field's
# trailing NULs, and strips \x1c-\x1f around a float, which float() rejects
_UNPROVEN = ("\r", "\n\n", "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


class InvalidSweepError(ValueError):
    """A sweep CSV failed structural or consistency validation."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings: integer master seed in [0, 2**64), integer batch size >= 1,
    dynamics, tail threshold."""

    master_seed: int
    runs_per_context: int = 100
    params: ModelParams = field(default_factory=ModelParams)
    tail_threshold: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "master_seed", _checked_seed(self.master_seed))
        runs = _checked_int("runs_per_context", self.runs_per_context)
        if runs < 1:
            raise ValueError("runs_per_context must be >= 1")
        object.__setattr__(self, "runs_per_context", runs)
        if not 0.0 < self.tail_threshold < 1.0:
            raise ValueError("tail_threshold must be in (0, 1)")


@dataclass(frozen=True)
class SweepTable:
    """All sweep runs in canonical order as parallel columns, plus the config.

    ``context_index`` indexes :func:`enumerate_contexts`; ``r`` is nan where
    the correlation is undefined, and the finite flag and tail follow from it.
    """

    config: SweepConfig
    context_index: np.ndarray
    run_index: np.ndarray
    run_seed: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return len(self.r)

    def r_array(self) -> np.ndarray:
        return self.r

    @property
    def finite(self) -> np.ndarray:
        return ~np.isnan(self.r)


def enumerate_contexts() -> list[ContextMatrix]:
    """All 81 ternary contexts, lexicographic over (s1, o1, o2, s2)."""
    return list(_CONTEXTS)


def _mix64(z: int) -> int:
    """splitmix64 finalizer: 64-bit avalanche mixing."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_run_seed(master_seed: int, context_index: int, run_index: int) -> int:
    """Per-run 64-bit seed from (master_seed, context_index, run_index).

    Chains the splitmix64 finalizer over the three inputs; platform
    independent and collision-free over any realistic sweep grid.
    """
    z = _mix64(int(master_seed) & _MASK64)
    z = _mix64(z ^ int(context_index))
    z = _mix64(z ^ int(run_index))
    return z


def _run_seeds(master_seed: int, context_indices, runs: int) -> np.ndarray:
    """:func:`derive_run_seed` over runs 0..runs-1 of each context, as one
    flat uint64 array in canonical (context, run) order."""
    z = _mix64(int(master_seed) & _MASK64)
    z = _mix64(z ^ np.asarray(context_indices, dtype=np.uint64))
    return _mix64(z[:, None] ^ np.arange(runs, dtype=np.uint64)).ravel()


def classify_tail(r: float, threshold: float) -> str:
    """Tail label for a correlation value (nan -> ``undefined``)."""
    if isnan(r):
        return "undefined"
    if r < -threshold:
        return "complementary"
    if r > threshold:
        return "synchronous"
    return "neutral"


def _tail_codes(r: np.ndarray, threshold: float) -> np.ndarray:
    """Index into ``TAIL_LABELS`` per row; agrees with :func:`classify_tail`."""
    codes = np.where(r < -threshold, 0, np.where(r > threshold, 2, 1))
    codes[np.isnan(r)] = 3
    return codes


def _table(config: SweepConfig, run_seed: list[int], r) -> SweepTable:
    """Table over the canonical (context, run) grid."""
    runs = config.runs_per_context
    return SweepTable(
        config=config,
        context_index=np.repeat(np.arange(81), runs),
        run_index=np.tile(np.arange(runs), 81),
        run_seed=np.array(run_seed, dtype=np.uint64),
        r=np.asarray(r, dtype=float),
    )


def context_batch(config: SweepConfig, context: ContextMatrix):
    """Seeded runs of one context, on the sweep's seed grid.

    Returns ``(seeds, B1, B2, finite)``: the per-run seeds, the
    (runs, turns + 1) series of both agents, and the mask of runs whose
    series stay finite throughout.
    """
    context_index = _CONTEXTS.index(context)
    seeds = _run_seeds(config.master_seed, [context_index], config.runs_per_context).tolist()
    B1, B2 = simulate_batch(context, config.params, seeds)
    finite = np.isfinite(B1).all(axis=1) & np.isfinite(B2).all(axis=1)
    return seeds, B1, B2, finite


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepTable:
    """Run the full 81-context sweep as blocks of :func:`simulate_rows` rows.

    A block holds at most ``_CELL_BUDGET`` cells (rows x (turns + 1)) and may
    span several contexts or part of one.  There is no finite pre-filter:
    :func:`pearson_rows` takes contiguous row slices of each block and gives
    a diverged row nan.  A row's result does not depend on the other rows,
    so the output does not depend on where blocks fall.  ``workers`` must be
    >= 1 and changes nothing.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    runs, params = config.runs_per_context, config.params
    seeds = _run_seeds(config.master_seed, range(81), runs)
    coefficients = np.repeat([params.coefficients(ctx) for ctx in _CONTEXTS], runs, axis=0)
    block = max(1, _CELL_BUDGET // (params.turns + 1))
    chunk = max(1, _PEARSON_CELLS // (params.turns + 1))
    r = np.empty(len(seeds))
    for lo in range(0, len(seeds), block):
        B1, B2 = simulate_rows(coefficients[lo:lo + block], params, seeds[lo:lo + block])
        block_r = r[lo:lo + block]  # a view: chunk slices stay inside the block
        for c in range(0, len(B1), chunk):
            block_r[c:c + chunk] = pearson_rows(B1[c:c + chunk], B2[c:c + chunk])
        del B1, B2  # free this block before the next one is allocated
    return _table(config, seeds, r)


@dataclass(frozen=True)
class TailCounts:
    """Per-tail record counts plus counts of inhibition-containing records."""

    counts: dict
    with_negative: dict


def tail_counts(table: SweepTable) -> TailCounts:
    """Exact per-tail counts and per-tail counts of contexts with a -1."""
    if len(table) == 0:
        raise ValueError("empty sweep table")
    codes = _tail_codes(table.r, table.config.tail_threshold)
    has_inhibition = np.array([ctx.has_inhibition for ctx in enumerate_contexts()])
    negative = codes[has_inhibition[table.context_index]]
    return TailCounts(
        counts=dict(zip(TAIL_LABELS, np.bincount(codes, minlength=4).tolist())),
        with_negative=dict(zip(TAIL_LABELS, np.bincount(negative, minlength=4).tolist())),
    )


def sweep_csv_text(table: SweepTable) -> str:
    """Sweep table as canonical CSV (float fields round-trip-safe)."""
    codes = _tail_codes(table.r, table.config.tail_threshold)
    lines = [SWEEP_CSV_HEADER]
    for ci, run_index, run_seed, r, code in zip(
        table.context_index.tolist(),
        table.run_index.tolist(),
        table.run_seed.tolist(),
        table.r.tolist(),
        codes.tolist(),
    ):
        lines.append(f"{_CONTEXT_PREFIXES[ci]}{run_index},{run_seed},{r!r},{_ROW_SUFFIXES[code]}")
    return "\n".join(lines) + "\n"


def write_sweep_csv(table: SweepTable, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(sweep_csv_text(table))


def _fail(row: int, message: str):
    raise InvalidSweepError(f"sweep CSV row {row}: {message}")


def _column_table(lines: list[str], config: SweepConfig, seeds: np.ndarray):
    """The table of ``lines`` (header first) if one ``np.loadtxt`` pass proves
    every record canonical, else None; never raises.

    The seven integer fields, the finite flag and the tail label are read as
    bytes, each one byte wider than its longest canonical spelling so that a
    longer field cannot be cut down to a match, and must equal what
    :func:`sweep_csv_text` writes for this grid and the parsed r.
    """
    runs = config.runs_per_context
    run_width = len(str(runs - 1)) + 1
    dtype = [("context", "S3", 5), ("run_index", f"S{run_width}"), ("run_seed", "S21"),
             ("r", float), ("labels", "S14", 2)]
    try:
        data = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          skiprows=1, max_rows=len(seeds))
    except ValueError:
        return None
    r = data["r"]
    canonical = (
        len(data) == len(seeds)
        and (data["context"].reshape(81, runs, 5) == _CONTEXT_FIELDS[:, None]).all()
        and (data["run_index"].reshape(81, runs)
             == np.arange(runs).astype(f"S{run_width}")).all()
        and (data["run_seed"] == seeds.astype("S21")).all()
        and not (np.abs(r) > 1.0).any()
        and (data["labels"] == _LABEL_FIELDS[_tail_codes(r, config.tail_threshold)]).all()
    )
    return _table(config, seeds, r.copy()) if canonical else None


def _row_table(lines: list[str], config: SweepConfig, seeds: np.ndarray) -> SweepTable:
    """The table of ``lines`` (header first), each field parsed and checked
    row by row; raises :class:`InvalidSweepError` on the first violation."""
    expected_seeds = seeds.tolist()
    rs = []
    for row, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 10:
            _fail(row, f"expected 10 fields, found {len(parts)}")
        try:
            ci = int(parts[0])
            entries = tuple(int(p) for p in parts[1:5])
            run_index = int(parts[5])
            run_seed = int(parts[6])
            r = float(parts[7])
        except ValueError:
            _fail(row, f"unparseable field in {line!r}")
        if (ci, run_index) != divmod(row, config.runs_per_context):
            _fail(row, f"canonical order violated: ({ci}, {run_index})")
        if entries != _CONTEXTS[ci].as_tuple():
            _fail(row, f"context {entries} does not match enumeration index {ci}")
        if run_seed != expected_seeds[row]:
            _fail(row, "run_seed does not match the master seed derivation")
        finite_str, tail = parts[8], parts[9]
        if finite_str not in ("true", "false"):
            _fail(row, f"bad finite flag {finite_str!r}")
        finite = finite_str == "true"
        if finite == isnan(r):
            _fail(row, "finite flag inconsistent with r")
        if abs(r) > 1.0:
            _fail(row, f"r={r!r} outside [-1, 1]")
        if tail != classify_tail(r, config.tail_threshold):
            _fail(row, f"tail label {tail!r} inconsistent with r={r!r}")
        rs.append(r)
    return _table(config, seeds, rs)


def read_sweep_csv(path, config: SweepConfig) -> SweepTable:
    """Read and validate a sweep CSV against the generating config.

    Checks structure (header, cardinality, canonical order), that contexts
    match the canonical enumeration, that run seeds match
    :func:`derive_run_seed` under ``config.master_seed``, that a defined r
    lies in [-1, 1], and that the finite flag and tail label are consistent
    with the stored r.  Raises :class:`InvalidSweepError` on the first
    violation.

    A file as :func:`sweep_csv_text` writes it is proven valid column by
    column (:func:`_column_table`).  Any other file goes to the per-row loop
    (:func:`_row_table`), which names the first violation or accepts equal
    spellings: ``+1`` or ``01`` in an integer field, and any spelling
    ``float()`` reads as the same r.  A line that ends in a carriage return
    fails, as its last field is then no label.
    """
    with open(path, "r", newline="") as fh:
        text = fh.read()
    provable = text.isascii() and not any(s in text for s in _UNPROVEN)
    lines = text.split("\n")
    del text  # the lines are the one copy kept
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise InvalidSweepError("bad or missing sweep CSV header")
    expected = 81 * config.runs_per_context
    if len(lines) - 1 != expected:
        raise InvalidSweepError(
            f"expected {expected} records (81 x {config.runs_per_context}), "
            f"found {len(lines) - 1}"
        )
    seeds = _run_seeds(config.master_seed, range(81), config.runs_per_context)
    table = _column_table(lines, config, seeds) if provable else None
    return _row_table(lines, config, seeds) if table is None else table
