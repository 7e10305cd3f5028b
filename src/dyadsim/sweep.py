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
    ContextMatrix, ModelParams, _checked_int, _checked_seed, simulate_rows,
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
    "context_batches",
    "run_sweep",
    "tail_counts",
    "sweep_csv_text",
    "write_sweep_csv",
    "read_sweep_csv",
]

TAIL_LABELS = ("complementary", "neutral", "synchronous", "undefined")
COMPLEMENTARY, NEUTRAL, SYNCHRONOUS, UNDEFINED = range(4)  # tail codes, indices into TAIL_LABELS

SWEEP_CSV_HEADER = "context_index,s1,o1,o2,s2,run_index,run_seed,r,finite,tail"
_FIELD_NAMES = SWEEP_CSV_HEADER.split(",")

# the CSV's finite flag and tail label, indexed by tail code; only an undefined r is nan
_ROW_SUFFIXES = tuple(
    f"{'false' if code == UNDEFINED else 'true'},{label}" for code, label in enumerate(TAIL_LABELS)
)

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

# characters sweep never writes that np.loadtxt would hide: it ends a line at
# "\r", drops a bytes field's trailing NULs and strips \x1c-\x1f around a
# float; read_sweep_csv rejects them, non-ASCII text and an empty line
_STRAY = "\r\x00\x1c\x1d\x1e\x1f"


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
        return TAIL_LABELS[UNDEFINED]
    if r < -threshold:
        return TAIL_LABELS[COMPLEMENTARY]
    if r > threshold:
        return TAIL_LABELS[SYNCHRONOUS]
    return TAIL_LABELS[NEUTRAL]


def _tail_codes(r: np.ndarray, threshold: float) -> np.ndarray:
    """Index into ``TAIL_LABELS`` per row; agrees with :func:`classify_tail`."""
    codes = np.where(r < -threshold, COMPLEMENTARY, np.where(r > threshold, SYNCHRONOUS, NEUTRAL))
    codes[np.isnan(r)] = UNDEFINED
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


def context_batches(config: SweepConfig, contexts):
    """Seeded runs of each context of a sequence, in order, on the sweep's seed grid.

    Yields ``(context, seeds, B1, B2, finite)`` per context: the context
    itself, the per-run seeds, the (runs, turns + 1) series of both agents,
    and the mask of runs whose series stay finite throughout.  The contexts
    are simulated as groups of whole contexts, one :func:`simulate_rows`
    call per group.  A group holds at most ``_CELL_BUDGET // 2`` cells, or
    one context when a context is larger; a row does not depend on the
    other rows, so neither does any batch.  A group is freed before the next
    one is simulated once the caller drops its batches.
    """
    runs, params = config.runs_per_context, config.params
    # half the budget: a group stays alive while its panels' CCF and lag temporaries are allocated
    group = max(1, _CELL_BUDGET // 2 // (runs * (params.turns + 1)))
    for g0 in range(0, len(contexts), group):
        members = contexts[g0:g0 + group]
        seeds = _run_seeds(config.master_seed, [_CONTEXTS.index(c) for c in members], runs)
        coefficients = np.repeat([params.coefficients(c) for c in members], runs, axis=0)
        B1, B2 = simulate_rows(coefficients, params, seeds.tolist())
        finite = np.isfinite(B1).all(axis=1) & np.isfinite(B2).all(axis=1)
        for k, context in enumerate(members):
            rows = slice(k * runs, (k + 1) * runs)
            yield context, seeds[rows].tolist(), B1[rows], B2[rows], finite[rows]
        del B1, B2


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepTable:
    """Run the full 81-context sweep as blocks of :func:`simulate_rows` rows.

    A block holds at most ``_CELL_BUDGET`` cells (rows x (turns + 1)) and may
    span several contexts or part of one.  There is no finite pre-filter:
    :func:`pearson_rows` takes contiguous row slices of each block and gives
    a diverged row nan.  A row's result does not depend on the other rows,
    so the output does not depend on where blocks fall.  ``workers`` must be
    an integer >= 1 and changes nothing.
    """
    _checked_int("workers", workers)
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


def _fail_unreadable(lines: list[str], fields: dict):
    """Raise naming the first record that does not have 10 fields, holds a
    character outside ASCII or in ``_STRAY``, or has an r that
    ``np.loadtxt(..., **fields)`` cannot read; the header is canonical."""
    for row, line in enumerate(lines[1:]):
        texts = line.split(",")
        if len(texts) != 10:
            _fail(row, f"expected 10 fields, found {len(texts)}")
        for name, text in zip(_FIELD_NAMES, texts):
            stray = [c for c in text if not c.isascii() or c in _STRAY]
            if stray:
                _fail(row, f"{name} {text!r} holds {stray[0]!r}, which sweep never writes")
        try:
            np.loadtxt([line], **fields)
        except ValueError:
            _fail(row, f"r {texts[7]!r} is not a number")


def read_sweep_csv(path, config: SweepConfig) -> SweepTable:
    """Read and validate a sweep CSV against the generating config.

    Every field except ``r`` must be spelled as :func:`sweep_csv_text`
    writes it for this config: the canonical (context, run) order and
    contexts, run seeds from :func:`derive_run_seed` under
    ``config.master_seed``, and the finite flag and tail label of the stored
    r.  ``r`` may be any decimal ``np.loadtxt`` reads, and a defined r must
    lie in [-1, 1].  The file must be ASCII, with no empty line, carriage
    return, NUL or 0x1c-0x1f separator (``_STRAY``) anywhere.

    One ``np.loadtxt`` pass reads the fields and one (rows, 10) mask in
    header order marks each field that differs from the canonical grid; the
    file is valid iff the mask is empty.  Raises :class:`InvalidSweepError`
    on a bad header or record count, else naming a wrong row and field
    (``sweep CSV row 5: s1 does not match: found '0', sweep writes '-1'``):
    the first row that holds a stray character or that ``loadtxt`` cannot
    read, else the mask's first.
    """
    try:
        with open(path, "r", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidSweepError(f"cannot decode sweep CSV {path}: {exc}") from None
    clean = text.isascii() and "\n\n" not in text and not any(c in text for c in _STRAY)
    lines = text.split("\n")
    del text  # the lines are the one copy kept
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise InvalidSweepError("bad or missing sweep CSV header")
    runs = config.runs_per_context
    if len(lines) - 1 != 81 * runs:
        raise InvalidSweepError(
            f"expected {81 * runs} records (81 x {runs}), found {len(lines) - 1}"
        )
    # each bytes field is one byte wider than its longest canonical spelling,
    # so that a longer field cannot be cut down to a match
    run_width = len(str(runs - 1)) + 1
    dtype = [("context", "S3", 5), ("run_index", f"S{run_width}"), ("run_seed", "S21"),
             ("r", float), ("labels", "S14", 2)]
    fields = dict(dtype=dtype, delimiter=",", comments=None)
    try:
        data = np.loadtxt(lines, skiprows=1, **fields) if clean else None
    except ValueError:
        data = None
    if data is None:
        _fail_unreadable(lines, fields)
    seeds = _run_seeds(config.master_seed, range(81), runs)
    r = data["r"]
    codes = _tail_codes(r, config.tail_threshold)
    wrong = np.empty((len(r), 10), dtype=bool)
    wrong[:, :5] = (data["context"].reshape(81, runs, 5) != _CONTEXT_FIELDS[:, None]).reshape(-1, 5)
    run_spellings = np.arange(runs).astype(f"S{run_width}")
    wrong[:, 5] = (data["run_index"].reshape(81, runs) != run_spellings).ravel()
    wrong[:, 6] = data["run_seed"] != seeds.astype("S21")
    wrong[:, 7] = np.abs(r) > 1.0
    wrong[:, 8:] = data["labels"] != _LABEL_FIELDS[codes]
    if wrong.any():
        row, k = divmod(int(wrong.argmax()), 10)
        if k == 7:
            _fail(row, f"r={float(r[row])!r} outside [-1, 1]")
        ci, run = divmod(row, runs)
        writes = f"{_CONTEXT_PREFIXES[ci]}{run},{seeds[row]},,{_ROW_SUFFIXES[codes[row]]}"
        found = lines[row + 1].split(",")[k]
        _fail(row, f"{_FIELD_NAMES[k]} does not match: found {found!r}, "
                   f"sweep writes {writes.split(',')[k]!r}")
    return _table(config, seeds, r.copy())
