"""Two-agent linear update dynamics with ternary context coupling.

The state is a pair of scalar behaviors (b1, b2).  One turn applies the
affine map

    b1' = influence * (s1 * b1 + o1 * b2) + n1 - alpha * b1
    b2' = influence * (o2 * b1 + s2 * b2) + n2 - alpha * b2

where (s1, o1, o2, s2) are the ternary context coefficients, (n1, n2) are
independent uniform noise draws, and alpha is the decay fraction.  This is
the matrix form B' = (influence * C - alpha * Id) @ B + N; the code computes
exactly those coefficients so that results agree with an independent 2x2
matrix multiply to the last bit.

Reproducibility contract: a trajectory is a pure function of
(context, params, seed).  The seeded stream is consumed in a fixed order --
initial b1, initial b2, then one (n1, n2) pair per turn -- so trajectories
can be regenerated exactly, and the row-stacked kernel :func:`simulate_rows`
produces bitwise identical series to the scalar path.  The kernel takes a
run's 2 + 2*turns doubles u in one ``Generator.random`` call and maps each
onto its range as ``low + (high - low) * u``; ``Generator.uniform`` is that
same map over the same stream of doubles, so this equals the scalar path's
two ``uniform`` calls bit for bit.  The kernel does not construct one
``PCG64(seed)`` per run: it computes numpy's ``SeedSequence`` seeding of every
row's PCG64 ``(state, inc)`` on arrays at once, one LCG step early, reseeds
one reused generator per row through numpy's ``state`` setter and drops each
row's first draw, which takes that step, so each row reads numpy's own PCG64
stream for its seed.  :class:`NoiseSource` keeps numpy's constructor as the
reference.

The kernel draws rows in groups into a small scratch of about
``_WINDOW_CELLS`` cells (one row, if a row is larger), maps the draws onto
their ranges there, and copies each group transposed into a
row-major (2, rows, turns + 1) buffer.  It then steps the recurrence on
time-major windows: turns [t0, t1) of every row are copied
into a small (t1 - t0, 2, rows) scratch, stepped there on contiguous
columns, and copied back, the last state carried into the next window.
Each turn is then three ufunc calls over contiguous (2, rows) data instead
of over columns one row-length apart.  A window holds at most
``_WINDOW_CELLS`` cells, but is never under ``_MIN_WINDOW_TURNS`` turns deep,
so wide blocks still amortize each copy over several turns; being at most
turns + 1 deep, it is never larger than the block's own buffer.  Every
element sees the same operations in the same order, so the bytes do not
depend on the group or the window.
"""

import math
import numbers
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContextMatrix",
    "ModelParams",
    "BehaviorState",
    "NoiseSource",
    "NonFiniteStateError",
    "Trajectory",
    "step",
    "simulate",
    "simulate_rows",
    "simulate_batch",
]

TERNARY = (-1, 0, 1)

_MASK32 = (1 << 32) - 1
# numpy's SeedSequence hash constants
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# simulate_rows steps m rows on a time-major (turns, 2, m) scratch of at most
# _WINDOW_CELLS cells, or _MIN_WINDOW_TURNS turns deep when m is too wide for that
_WINDOW_CELLS = 1 << 16
_MIN_WINDOW_TURNS = 32


class NonFiniteStateError(ValueError):
    """A behavior state left double-precision range upstream."""


@dataclass(frozen=True)
class ContextMatrix:
    """Ternary 2x2 task context (s1, o1; o2, s2).

    Row 1 collects influences on Person 1 (s1 from self, o1 from Person 2);
    row 2 collects influences on Person 2 (o2 from Person 1, s2 from self).
    Entries: +1 active, 0 inactive, -1 inhibitory, each stored as a Python
    int (a numpy integer is converted; a bool or a float is rejected).
    """

    s1: int
    o1: int
    o2: int
    s2: int

    def __post_init__(self):
        for name in ("s1", "o1", "o2", "s2"):
            value = getattr(self, name)
            entry = _integer(value)
            if entry not in TERNARY:
                raise ValueError(f"context entry {name}={value!r} not in {{-1, 0, 1}}")
            object.__setattr__(self, name, entry)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.s1, self.o1, self.o2, self.s2)

    def swapped(self) -> "ContextMatrix":
        """Context with the two agents relabeled: (s2, o2; o1, s1)."""
        return ContextMatrix(s1=self.s2, o1=self.o2, o2=self.o1, s2=self.s1)

    @property
    def has_inhibition(self) -> bool:
        return min(self.as_tuple()) < 0

    def code(self) -> str:
        """Signed-digit string s1 o1 o2 s2, e.g. ``+10+1-1``."""
        return "".join("+1" if v == 1 else "-1" if v == -1 else "0" for v in self.as_tuple())


@dataclass(frozen=True)
class ModelParams:
    """Scalar dynamics parameters.

    ``influence`` is the per-channel transmission gain applied to every
    context entry.  The default 0.5 corresponds to full receptivity shared
    across the dyad's two channels; pass 1.0 for unit per-channel gain
    (several strongly coupled contexts then grow without bound, which the
    simulator permits and flags rather than clamps).
    """

    alpha: float = 0.1
    influence: float = 0.5
    noise_half_width: float = 0.5
    turns: int = 500

    def __post_init__(self):
        for name in ("alpha", "influence", "noise_half_width"):
            value = _checked_float(name, getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha!r}")
        if self.influence < 0.0:
            raise ValueError(f"influence must be >= 0, got {self.influence!r}")
        if self.noise_half_width < 0.0:
            raise ValueError(f"noise_half_width must be >= 0, got {self.noise_half_width!r}")
        object.__setattr__(self, "turns", _checked_int("turns", self.turns))

    def coefficients(self, context: ContextMatrix) -> tuple[float, float, float, float]:
        """Entries (a11, a12, a21, a22) of influence * C - alpha * Id."""
        a11 = self.influence * context.s1 - self.alpha
        a12 = self.influence * context.o1
        a21 = self.influence * context.o2
        a22 = self.influence * context.s2 - self.alpha
        return a11, a12, a21, a22


class BehaviorState(tuple):
    """Immutable (b1, b2) pair."""

    __slots__ = ()

    def __new__(cls, b1: float, b2: float):
        return super().__new__(cls, (float(b1), float(b2)))

    @property
    def b1(self) -> float:
        return self[0]

    @property
    def b2(self) -> float:
        return self[1]


def _integer(value):
    """``value`` as a Python int, or ``None`` if it is not a Python or numpy
    integer or is a ``bool``: the one rule for integer entries."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _checked_int(name: str, value) -> int:
    """``value`` as an int, or ``ValueError`` naming ``name`` if it fails
    :func:`_integer` or is below 1: the one rule for counts."""
    count = _integer(value)
    if count is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise ValueError(f"{name} must be >= 1")
    return count


def _checked_float(name: str, value) -> float:
    """``value`` as a Python float, or ``ValueError`` naming ``name`` if it is
    not a real number or is a ``bool``: the one rule for float settings."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be finite, got {value!r}") from None


def _checked_seed(seed) -> int:
    """``seed`` as an int, or ``ValueError`` naming it if it fails
    :func:`_integer` or lies outside [0, 2**64)."""
    value = _integer(seed)
    if value is None:
        raise ValueError(f"seed {seed!r} is not an integer")
    if not 0 <= value < 1 << 64:
        raise ValueError(f"seed {value} outside [0, 2**64)")
    return value


class NoiseSource:
    """Seeded uniform noise stream with a pinned draw order.

    Wraps numpy's PCG64 bit generator; ``ALGORITHM_ID`` names the generator
    and draw discipline so identical (seed, algorithm_id) pairs replay the
    same sequence on every platform.  Draw order: initial b1, initial b2,
    then one (n1, n2) pair per turn, drawn as a single (turns, 2) block.
    Seeds must be integers in [0, 2**64); any other seed raises ``ValueError``.
    """

    ALGORITHM_ID = "numpy-pcg64-uniform/1"

    def __init__(self, seed: int):
        self.seed = _checked_seed(seed)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def initial_state(self) -> BehaviorState:
        """Initial condition, both components uniform on [-0.5, 0.5]."""
        b1, b2 = self._rng.uniform(-0.5, 0.5, 2)
        return BehaviorState(b1, b2)

    def turn_noise(self, turns: int, half_width: float) -> np.ndarray:
        """(turns, 2) array of per-turn per-agent draws on [-h, +h]."""
        return self._rng.uniform(-half_width, half_width, (_checked_int("turns", turns), 2))


def draw_run_inputs(params: ModelParams, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial state (2,) and noise block (turns, 2) for one seeded run."""
    source = NoiseSource(seed)
    init = np.asarray(source.initial_state(), dtype=float)
    noise = source.turn_noise(params.turns, params.noise_half_width)
    return init, noise


def step(
    context: ContextMatrix,
    params: ModelParams,
    prev: BehaviorState,
    noise: tuple[float, float],
) -> BehaviorState:
    """Apply one update turn to ``prev`` with the given noise pair.

    Pure function of its arguments.  Raises :class:`NonFiniteStateError` if
    the incoming state is not finite (a diverging run has already left
    double-precision range).
    """
    b1, b2 = float(prev[0]), float(prev[1])
    if not (np.isfinite(b1) and np.isfinite(b2)):
        raise NonFiniteStateError(f"non-finite behavior state ({b1!r}, {b2!r})")
    a11, a12, a21, a22 = params.coefficients(context)
    n1, n2 = float(noise[0]), float(noise[1])
    return BehaviorState(a11 * b1 + a12 * b2 + n1, a21 * b1 + a22 * b2 + n2)


def _left_range(turn: int) -> NonFiniteStateError:
    return NonFiniteStateError(f"behavior state left double-precision range at turn {turn}")


@dataclass(frozen=True)
class Trajectory:
    """One simulated interaction: turn-indexed series for both agents.

    ``b1`` and ``b2`` have length turns + 1; index 0 is the initial
    condition drawn from the seeded stream.  Raises the
    :class:`NonFiniteStateError` that :func:`simulate` would: a state
    before the final turn is non-finite.  A non-finite final state alone
    does not raise.
    """

    context: ContextMatrix
    seed: int
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        finite = np.isfinite(self.b1[:-1]) & np.isfinite(self.b2[:-1])
        if not finite.all():
            raise _left_range(int(np.argmin(finite)))

    def __len__(self) -> int:
        return len(self.b1)

    @property
    def turns(self) -> int:
        return len(self.b1) - 1


def simulate(context: ContextMatrix, params: ModelParams, seed: int) -> Trajectory:
    """Run one seeded interaction of ``params.turns`` turns: the scalar
    reference, :func:`step` iterated over :func:`draw_run_inputs`.

    Deterministic given (context, params, seed).  Propagates
    :class:`NonFiniteStateError` if a state diverges beyond double range
    before the final turn.
    """
    init, noise = draw_run_inputs(params, seed)
    b1, b2 = np.empty((2, params.turns + 1))
    b1[0], b2[0] = state = BehaviorState(*init)
    for t in range(params.turns):
        try:
            state = step(context, params, state, noise[t])
        except NonFiniteStateError:
            raise _left_range(t) from None
        b1[t + 1], b2[t + 1] = state
    return Trajectory(context=context, seed=int(seed), b1=b1, b2=b2)


def _pcg64_states(seeds) -> Iterator[tuple[int, int]]:
    """``(state, inc)`` one LCG step before ``np.random.PCG64(seed)`` for
    each seed of a sequence or uint64 array of seeds in [0, 2**64): a
    generator set to it must drop its first draw, which takes that step.

    The seed's two 32-bit words go through ``SeedSequence``'s 4-word pool
    hashing and ``generate_state(4, np.uint64)``, as uint32 arithmetic over
    all seeds at once; the state is (w0:w1) + inc, added on (high, low) pairs
    of uint64 limbs.  The limbs of every ``state`` and of every ``inc`` are
    joined into Python ints in one object-dtype pass each, and the pairs are
    returned as a ``zip``.
    """
    words = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(len(words), dtype=np.uint32)
    entropy = [(words & _MASK32).astype(np.uint32), (words >> 32).astype(np.uint32), zero, zero]
    hash_const = _HASH_INIT_A  # runs on through every hashmix call, pool and mixing alike

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    out = np.empty((len(words), 8), dtype="<u4")
    hash_const = _HASH_INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value = value * hash_const
        out[:, i] = value ^ value >> 16
    # generate_state(4, np.uint64) reads the 8 words as 4 little-endian uint64;
    # inc = (w2:w3) << 1 | 1 and state = (w0:w1) + inc mod 2**128, where (hi:lo)
    # is hi << 64 | lo; the low-word add carries when its uint64 sum wraps
    w0, w1, w2, w3 = out.view("<u8").T
    one = np.uint64(1)
    inc_hi, inc_lo = w2 << one | w3 >> np.uint64(63), w3 << one | one
    state_lo = w1 + inc_lo
    state_hi = w0 + inc_hi + (state_lo < w1)
    states = (state_hi.astype(object) << 64 | state_lo.astype(object)).tolist()
    incs = (inc_hi.astype(object) << 64 | inc_lo.astype(object)).tolist()
    return zip(states, incs)


def simulate_rows(
    coefficients, params: ModelParams, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one seeded run per row, each with its own (a11, a12, a21, a22).

    Returns C-contiguous (B1, B2), each (len(seeds), turns + 1).  Row i is
    bitwise the :func:`simulate` output for ``seeds[i]`` under coefficients
    ``coefficients[i]`` (from :meth:`ModelParams.coefficients`), whatever the
    other rows; diverging runs are carried through as inf/nan, not raised.
    ``seeds`` is a 1-D uint64 array, taken as is since every uint64 is a
    valid seed, or any other sequence of integers in [0, 2**64), checked one
    by one; a bool or any other seed raises ``ValueError`` naming it.

    Rows are drawn through a scratch of about ``_WINDOW_CELLS`` cells, or
    of one row when a row is larger (see :func:`_draw_rows`).  The
    recurrence steps on a time-major window (see the module docstring) of at
    most ``_WINDOW_CELLS`` cells, but at least ``_MIN_WINDOW_TURNS`` and at
    most turns + 1 turns deep.  Neither size changes an output bit.
    """
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1):
        seeds = [_checked_seed(seed) for seed in seeds]
    m, width = len(seeds), params.turns + 1
    B = _draw_rows(params, seeds)  # B1, B2; draws first, then states
    # A[j, i] holds a_ij per row
    A = np.asarray(coefficients, dtype=float).reshape(m, 2, 2).transpose(2, 1, 0).copy()
    columns = B.transpose(2, 0, 1)  # time-major view: columns[t] is (2, m)
    depth = min(max(_WINDOW_CELLS // (2 * max(m, 1)), _MIN_WINDOW_TURNS), width)
    window = np.empty((depth, 2, m))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, params.turns, depth - 1):  # windows share one turn
            t1 = min(t0 + depth, width)
            steps = window[: t1 - t0]
            steps[...] = columns[t0:t1]
            _step_columns(A, steps)
            columns[t0 + 1:t1] = steps[1:]
    return B[0], B[1]


def _draw_rows(params: ModelParams, seeds) -> np.ndarray:
    """(2, rows, turns + 1) buffer of each seed's initial state and noise,
    mapped onto their ranges, for seeds already checked: a uint64 array or a
    list of ints.

    Rows are drawn in groups of ``_WINDOW_CELLS // (2 * (turns + 1))`` rows,
    at least one, each by one ``random`` call into all but the last column
    of a scratch row of 2 * (turns + 1) + 2 columns (an even count keeps
    each row 16-byte aligned); the uniform maps run in the scratch, and each
    group goes into the buffer in one transposed copy.  Each row's generator
    is reseeded from :func:`_pcg64_states`, computed for all rows before the
    first draw, one LCG step early; the row's first draw takes that step and
    is dropped.  The scratch and the seeding lists are freed on return,
    before the recurrence's window is allocated.
    """
    m, width = len(seeds), params.turns + 1
    B = np.empty((2, m, width))
    group = max(_WINDOW_CELLS // (2 * width), 1)
    scratch = np.empty((min(group, m), 2 * width + 2))[:, :-1]
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    lcg = {}  # one setter value for every row; only its state and inc change
    state = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}
    states = _pcg64_states(seeds)
    for g0 in range(0, m, group):
        draws = scratch[: m - g0]
        for row in draws:
            lcg["state"], lcg["inc"] = next(states)
            bit_generator.state = state
            rng.random(out=row)
        draws = draws[:, 1:].reshape(len(draws), width, 2)  # drop each first draw
        for part, h in ((draws[:, :1], 0.5), (draws[:, 1:], params.noise_half_width)):
            part *= h - -h  # uniform(-h, h) is -h + (h - -h) * u
            part += -h
        B[:, g0:g0 + len(draws)] = draws.transpose(2, 0, 1)
    return B


def _step_columns(A: np.ndarray, columns: np.ndarray) -> None:
    """Step the recurrence in place over time-major ``columns`` (turns, 2, m).

    ``columns[0]`` holds the starting states and ``columns[t]`` for t > 0
    the noise of turn t, which becomes its state.  A[j, i] holds a_ij per
    row, so products[j, i] = a_ij * b_j and each state is noise + (a_i1 * b1
    + a_i2 * b2), as in :func:`step`.  Every view is made once, outside
    the loop: a state viewed as (2, 1, m) broadcasts against A over i and
    lines up with the (2, 1, m) halves of products, so each turn is three
    ufunc calls and nothing else.
    """
    products, coupled = np.empty(A.shape), np.empty((2, 1, A.shape[2]))
    first, second = products[0][:, None], products[1][:, None]
    multiply, add = np.multiply, np.add
    states = list(columns[:, :, None])
    for prev, state in zip(states, states[1:]):
        multiply(A, prev, products)
        add(first, second, coupled)
        add(state, coupled, state)


def simulate_batch(context: ContextMatrix, params: ModelParams, seeds: list[int]):
    """:func:`simulate_rows` for seeded runs of one context."""
    return simulate_rows([params.coefficients(context)] * len(seeds), params, seeds)
