"""Full ternary context-space sweep: seeded batches and the results table.

All 3^4 = 81 context matrices are enumerated in a canonical lexicographic
order; each gets ``runs_per_context`` seeded simulations.  Per-run seeds are
derived from the master seed with a splitmix64-style mixing chain, so the
whole 8,100-run batch is reproducible bit for bit on any platform.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from dyadsim.dynamics import (
    ContextMatrix, ModelParams, _checked_float, _checked_int, _checked_seed, simulate_rows,
)
from dyadsim.metrics import pearson_rows

__all__ = [
    "SweepConfig",
    "SweepTable",
    "TailCounts",
    "InvalidSweepError",
    "enumerate_contexts",
    "derive_run_seed",
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

# most cells (rows x (turns + 1)) per simulate_rows call: bounds the buffers
# (16 B a cell) and temporaries of a run_sweep block, and, at half of it, of
# a context_batches group.  Either takes at least _MIN_BLOCK_ROWS rows (one
# run per context), since a kernel call pays a fixed dispatch cost per turn
# whatever its rows: _rows_per_call states the rule for both
_CELL_BUDGET = 1 << 18
_PEARSON_CELLS = 1 << 15
_MIN_BLOCK_ROWS = 81

_CONTEXTS = tuple(ContextMatrix(*combo) for combo in itertools.product((-1, 0, 1), repeat=4))

# a CSV row's canonical first five fields, "context_index,s1,o1,o2,s2,"
_CONTEXT_PREFIXES = tuple(
    f"{ci},{ctx.s1},{ctx.o1},{ctx.o2},{ctx.s2}," for ci, ctx in enumerate(_CONTEXTS)
)

# characters sweep never writes, rejected anywhere in the file along with
# non-ASCII text and an empty line: float() strips "\r" around r as
# whitespace, and a NUL or 0x1c-0x1f separator is named as what it is
_STRAY = "\r\x00\x1c\x1d\x1e\x1f"


class InvalidSweepError(ValueError):
    """A sweep CSV failed structural or consistency validation."""


class AnalysisError(ValueError):
    """A statistic could not be computed from otherwise valid input.

    ``report`` raises it and exports it; it is defined here so that ``cli``
    can map it to its exit code without importing ``report``."""


@dataclass(frozen=True)
class SweepConfig:
    """Sweep settings: integer master seed in [0, 2**64), integer batch size >= 1,
    dynamics (a :class:`ModelParams`), tail threshold."""

    master_seed: int
    runs_per_context: int = 100
    params: ModelParams = field(default_factory=ModelParams)
    tail_threshold: float = 0.25

    def __post_init__(self):
        if not isinstance(self.params, ModelParams):
            raise ValueError(f"params must be a ModelParams, got {type(self.params).__name__}")
        object.__setattr__(self, "master_seed", _checked_seed(self.master_seed))
        runs = _checked_int("runs_per_context", self.runs_per_context)
        object.__setattr__(self, "runs_per_context", runs)
        threshold = _checked_float("tail_threshold", self.tail_threshold)
        object.__setattr__(self, "tail_threshold", threshold)
        if not 0.0 < threshold < 1.0:
            raise ValueError("tail_threshold must be in (0, 1)")


@dataclass(frozen=True)
class SweepTable:
    """All sweep runs in canonical (context, run) order: the config and one r per run.

    ``r`` is nan where the correlation is undefined, else in [-1, 1]
    (``ValueError`` names the first index outside), and the finite flag and
    tail follow from it.  The grid columns follow from the config:
    ``context_index`` indexes :func:`enumerate_contexts`, and ``run_seed`` is
    :func:`derive_run_seed` of each (context, run).
    """

    config: SweepConfig
    r: np.ndarray
    context_index: np.ndarray = field(init=False)
    run_index: np.ndarray = field(init=False)
    run_seed: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.config, SweepConfig):
            raise ValueError(f"config must be a SweepConfig, got {type(self.config).__name__}")
        runs = self.config.runs_per_context
        r = np.ascontiguousarray(self.r, dtype=float)
        if r.ndim != 1 or len(r) != 81 * runs:
            raise ValueError(f"r must hold 81 x {runs} = {81 * runs} values, found shape {r.shape}")
        outside = np.flatnonzero(np.abs(r) > 1.0)
        if outside.size:
            i = outside[0]
            raise ValueError(f"r[{i}] = {r[i].item()!r} outside [-1, 1]")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "context_index", np.repeat(np.arange(81), runs))
        object.__setattr__(self, "run_index", np.tile(np.arange(runs), 81))
        object.__setattr__(self, "run_seed", _run_seeds(self.config.master_seed, range(81), runs))

    def __len__(self) -> int:
        return len(self.r)

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
    independent and collision-free over any realistic sweep grid.  Each
    input must be an integer in [0, 2**64), as a seed must
    (``ValueError`` names the argument), so no two inputs give one chain.
    """
    z = _mix64(_checked_seed(master_seed, "master_seed"))
    z = _mix64(z ^ _checked_seed(context_index, "context_index"))
    z = _mix64(z ^ _checked_seed(run_index, "run_index"))
    return z


def _run_seeds(master_seed: int, context_indices, runs: int) -> np.ndarray:
    """:func:`derive_run_seed` over runs 0..runs-1 of each context, as one
    flat uint64 array in canonical (context, run) order, for a checked
    ``master_seed``."""
    z = _mix64(master_seed)
    z = _mix64(z ^ np.asarray(context_indices, dtype=np.uint64))
    return _mix64(z[:, None] ^ np.arange(runs, dtype=np.uint64)).ravel()


def _tail_codes(r: np.ndarray, threshold: float) -> np.ndarray:
    """Index into ``TAIL_LABELS`` per row: complementary below -threshold,
    synchronous above threshold, neutral between, undefined where r is nan."""
    codes = np.where(r < -threshold, COMPLEMENTARY, np.where(r > threshold, SYNCHRONOUS, NEUTRAL))
    codes[np.isnan(r)] = UNDEFINED
    return codes


def _rows_per_call(cells: int, turns: int) -> int:
    """Rows of ``turns + 1`` cells per :func:`simulate_rows` call: as many as
    ``cells`` holds, and at least ``_MIN_BLOCK_ROWS``."""
    return max(_MIN_BLOCK_ROWS, cells // (turns + 1))


def context_batches(config: SweepConfig, contexts):
    """Seeded runs of each context of an iterable, in order, on the sweep's seed grid.

    Yields ``(context, seeds, B1, B2, finite)`` per context: the context
    itself, the per-run seeds, the (runs, turns + 1) series of both agents,
    and the mask of runs whose series stay finite throughout.  The contexts
    are simulated as groups of whole contexts, one :func:`simulate_rows`
    call per group.  A group takes the whole contexts that fit in
    max(2^17 cells, 81 rows), the :func:`_rows_per_call` of half the
    ``_CELL_BUDGET``, and at least one context; a row does not depend on
    the other rows, so neither does any batch.  A group is freed
    before the next one is simulated once the caller drops its batches.
    Every context is checked before the first group is simulated:
    ``ValueError`` names the first that is not a :class:`ContextMatrix`,
    with its position.
    """
    contexts, runs, params = tuple(contexts), config.runs_per_context, config.params
    for position, context in enumerate(contexts):
        if not isinstance(context, ContextMatrix):
            raise ValueError(f"contexts[{position}] is {context!r}, not a ContextMatrix")
    # half the budget: a group stays alive while its panels' CCF and lag temporaries are allocated
    group = max(1, _rows_per_call(_CELL_BUDGET // 2, params.turns) // runs)
    for g0 in range(0, len(contexts), group):
        members = contexts[g0:g0 + group]
        seeds = _run_seeds(config.master_seed, [_CONTEXTS.index(c) for c in members], runs)
        coefficients = np.repeat([params.coefficients(c) for c in members], runs, axis=0)
        B1, B2 = simulate_rows(coefficients, params, seeds)
        finite = np.isfinite(B1).all(axis=1) & np.isfinite(B2).all(axis=1)
        for k, context in enumerate(members):
            rows = slice(k * runs, (k + 1) * runs)
            yield context, seeds[rows].tolist(), B1[rows], B2[rows], finite[rows]
        del B1, B2


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepTable:
    """Run the full 81-context sweep as blocks of :func:`simulate_rows` rows.

    A block holds at most max(``_CELL_BUDGET`` cells, ``_MIN_BLOCK_ROWS``
    rows), that is max(2^18 cells, 81 rows) with rows x (turns + 1) cells,
    and may span several contexts or part of one.  There is no finite
    pre-filter: :func:`pearson_rows` takes contiguous row slices of each
    block and gives a diverged row nan.  A row's result does not depend on
    the other rows, so the output does not depend on where blocks fall.
    ``workers`` must be an integer >= 1 and changes nothing.
    """
    _checked_int("workers", workers)
    runs, params = config.runs_per_context, config.params
    seeds = _run_seeds(config.master_seed, range(81), runs)
    coefficients = np.repeat([params.coefficients(ctx) for ctx in _CONTEXTS], runs, axis=0)
    block = _rows_per_call(_CELL_BUDGET, params.turns)
    chunk = max(1, _PEARSON_CELLS // (params.turns + 1))
    r = np.empty(len(seeds))
    for lo in range(0, len(seeds), block):
        B1, B2 = simulate_rows(coefficients[lo:lo + block], params, seeds[lo:lo + block])
        block_r = r[lo:lo + block]  # a view: chunk slices stay inside the block
        for c in range(0, len(B1), chunk):
            block_r[c:c + chunk] = pearson_rows(B1[c:c + chunk], B2[c:c + chunk])
        del B1, B2  # free this block before the next one is allocated
    return SweepTable(config, r)


@dataclass(frozen=True)
class TailCounts:
    """Per-tail record counts plus counts of inhibition-containing records."""

    counts: dict
    with_negative: dict


def tail_counts(table: SweepTable) -> TailCounts:
    """Exact per-tail counts and per-tail counts of contexts with a -1."""
    codes = _tail_codes(table.r, table.config.tail_threshold)
    has_inhibition = np.array([ctx.has_inhibition for ctx in enumerate_contexts()])
    negative = codes[has_inhibition[table.context_index]]
    return TailCounts(
        counts=dict(zip(TAIL_LABELS, np.bincount(codes, minlength=4).tolist())),
        with_negative=dict(zip(TAIL_LABELS, np.bincount(negative, minlength=4).tolist())),
    )


def _record_lines(table: SweepTable, r_texts):
    """Each record line of ``table``'s sweep CSV, in order, spelling each r
    as the matching entry of ``r_texts``: the one definition of a record."""
    codes = _tail_codes(table.r, table.config.tail_threshold)
    for ci, run_index, run_seed, r, code in zip(
        table.context_index.tolist(), table.run_index.tolist(), table.run_seed.tolist(),
        r_texts, codes.tolist(),
    ):
        yield f"{_CONTEXT_PREFIXES[ci]}{run_index},{run_seed},{r},{_ROW_SUFFIXES[code]}"


def sweep_csv_text(table: SweepTable) -> str:
    """Sweep table as canonical CSV (float fields round-trip-safe)."""
    return "\n".join([SWEEP_CSV_HEADER, *_record_lines(table, map(repr, table.r.tolist())), ""])


def write_sweep_csv(table: SweepTable, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(sweep_csv_text(table))


def _fail(row: int, message: str):
    raise InvalidSweepError(f"sweep CSV row {row}: {message}")


def _fail_unreadable(records: list[str], config: SweepConfig):
    """Raise naming the first bad row and field of a file that
    :func:`read_sweep_csv` does not accept: the first record that does not
    have 10 fields, holds a character outside ASCII or in ``_STRAY``, or has
    an r that ``float()`` cannot read; else the first record whose defined r
    lies outside [-1, 1] or that differs from the writer's line for its r
    text, at its first such field in header order."""
    rows = [line.split(",") for line in records]
    for row, texts in enumerate(rows):
        if len(texts) != 10:
            _fail(row, f"expected 10 fields, found {len(texts)}")
        for name, text in zip(_FIELD_NAMES, texts):
            stray = [c for c in text if not c.isascii() or c in _STRAY]
            if stray:
                _fail(row, f"{name} {text!r} holds {stray[0]!r}, which sweep never writes")
        try:
            float(texts[7])
        except ValueError:
            _fail(row, f"r {texts[7]!r} is not a number")
    r_texts = [texts[7] for texts in rows]
    r = np.array([float(text) for text in r_texts])
    outside = np.abs(r) > 1.0
    # a record whose r is outside fails at its r field at the latest, so
    # the labels its writer's line gets from the nan in its place are never read
    lines = _record_lines(SweepTable(config, np.where(outside, np.nan, r)), r_texts)
    for row, (texts, line) in enumerate(zip(rows, lines)):
        for name, found, writes in zip(_FIELD_NAMES, texts, line.split(",")):
            if name == "r" and outside[row]:
                _fail(row, f"r={r[row].item()!r} outside [-1, 1]")
            if found != writes:
                _fail(row, f"{name} does not match: found {found!r}, sweep writes {writes!r}")


def read_sweep_csv(path, config: SweepConfig) -> SweepTable:
    """Read and validate a sweep CSV against the generating config.

    ``r`` is each record's eighth field as ``float()`` reads it, and a
    defined r must lie in [-1, 1].  Every record must equal the line
    :func:`sweep_csv_text` writes for this config with that r text in place
    of its own spelling: the canonical (context, run) order and contexts,
    run seeds from :func:`derive_run_seed` under ``config.master_seed``, and
    the finite flag and tail label of the stored r.  The file must be ASCII,
    with no empty line, carriage return, NUL or 0x1c-0x1f separator
    (``_STRAY``) anywhere.

    Raises :class:`InvalidSweepError` on a bad header or record count, else
    naming a wrong row and field (``sweep CSV row 5: s1 does not match:
    found '0', sweep writes '-1'``), as :func:`_fail_unreadable` picks them.
    """
    try:
        with open(path, "r", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidSweepError(f"cannot decode sweep CSV {path}: {exc}") from None
    clean = text.isascii() and "\n\n" not in text and not any(c in text for c in _STRAY)
    records = text.split("\n")
    del text  # the records are the one copy kept
    if records and records[-1] == "":
        records.pop()
    if not records or records.pop(0) != SWEEP_CSV_HEADER:
        raise InvalidSweepError("bad or missing sweep CSV header")
    runs = config.runs_per_context
    if len(records) != 81 * runs:
        raise InvalidSweepError(f"expected {81 * runs} records (81 x {runs}), found {len(records)}")
    try:
        # the third field from the end is r in any record the writer's line can equal
        r_texts = [line.rsplit(",", 3)[1] for line in records]
        table = SweepTable(config, np.fromiter(map(float, r_texts), float, len(records)))
    except (IndexError, ValueError):
        table = None
    if (not clean or table is None
            or not all(map(str.__eq__, records, _record_lines(table, r_texts)))):
        _fail_unreadable(records, config)
    return table
