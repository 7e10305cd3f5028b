import re
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dyadsim import cli, dynamics
from dyadsim.dynamics import (
    BehaviorState,
    ContextMatrix,
    ModelParams,
    NoiseSource,
    NonFiniteStateError,
    Trajectory,
    _pcg64_states,
    draw_run_inputs,
    simulate,
    simulate_batch,
    simulate_rows,
    step,
)
from dyadsim.metrics import LagSpec, cross_correlation, histogram
from dyadsim.report import trajectory_csv_text
from dyadsim.sweep import SweepConfig, enumerate_contexts, run_sweep

from helpers import assert_same_text, trajectory_from_csv

UNIT_GAIN = ModelParams(influence=1.0)
# PCG64's 128-bit LCG multiplier (O'Neill 2014), as numpy's pcg64.h defines it
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def lcg_step(state, inc):
    """PCG64's state after one LCG step from ``state``."""
    return (state * PCG64_MULT + inc) % 2**128


class TestContextMatrix:
    def test_valid_entries(self):
        ctx = ContextMatrix(1, 0, -1, 1)
        assert ctx.as_tuple() == (1, 0, -1, 1)
        assert ctx.has_inhibition

    @pytest.mark.parametrize("bad", [2, -2, 5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="context entry"):
            ContextMatrix(bad, 0, 0, 0)

    @pytest.mark.parametrize("name, value", [
        ("s1", True), ("o1", 0.0), ("o2", 1.0), ("s2", np.float64(-1.0)), ("s1", np.bool_(True)),
        ("o1", Fraction(1)), ("o2", "1"), ("s2", None),
    ])
    def test_rejects_non_integer_entries(self, name, value):
        entries = {"s1": 0, "o1": 0, "o2": 0, "s2": 0, name: value}
        with pytest.raises(ValueError) as caught:
            ContextMatrix(**entries)
        assert str(caught.value) == f"context entry {name}={value!r} not in {{-1, 0, 1}}"

    def test_entries_are_stored_as_python_ints(self):
        ctx = ContextMatrix(np.int8(1), np.int64(0), np.uint8(0), -1)
        assert ctx == ContextMatrix(1, 0, 0, -1)
        assert [type(v) for v in ctx.as_tuple()] == [int] * 4
        assert ctx.code() == "+100-1"

    def test_swapped_relabels_agents(self):
        ctx = ContextMatrix(1, 0, -1, 1)
        assert ctx.swapped().as_tuple() == (1, -1, 0, 1)

    def test_code_string(self):
        assert ContextMatrix(1, 0, 1, -1).code() == "+10+1-1"
        assert ContextMatrix(0, 0, 0, 0).code() == "0000"


class TestModelParams:
    def test_defaults(self):
        params = ModelParams()
        assert params.alpha == 0.1
        assert params.influence == 0.5
        assert params.noise_half_width == 0.5
        assert params.turns == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"alpha": 1.0},
            {"influence": -1.0},
            {"noise_half_width": -0.5},
            {"turns": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "influence", "noise_half_width"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelParams(**{name: value})

    @pytest.mark.parametrize("turns", [20.0, 2.5, "20", np.float64(20.0)],
                             ids=["20.0", "2.5", "str", "np.float64"])
    def test_non_integer_turns_rejected(self, turns):
        message = f"^turns must be an integer, got {re.escape(repr(turns))}$"
        with pytest.raises(ValueError, match=message):
            ModelParams(turns=turns)

    def test_numpy_integer_turns_accepted_as_int(self):
        params = ModelParams(turns=np.int64(20))
        assert type(params.turns) is int and params == ModelParams(turns=20)


def _cli_setting(key, command="figures"):
    def call(value):
        args = cli.build_parser().parse_args([command])
        setattr(args, key, value)
        return cli._settings(args)[0][key]
    return call


def _sweep_workers(value):
    run_sweep(SweepConfig(1, runs_per_context=1, params=ModelParams(turns=4)), workers=value)


_SERIES = np.random.default_rng(3).normal(size=(2, 40))

# (name in the message, call taking the count and returning what it stores,
# or None where nothing is stored) for every entry point that takes a count
COUNT_ENTRY_POINTS = {
    "ModelParams.turns": ("turns", lambda v: ModelParams(turns=v).turns),
    "SweepConfig.runs_per_context": (
        "runs_per_context", lambda v: SweepConfig(1, runs_per_context=v).runs_per_context
    ),
    "run_sweep.workers": ("workers", _sweep_workers),
    "LagSpec.max_lag": ("max_lag", lambda v: LagSpec(max_lag=v).max_lag),
    "cross_correlation.max_lag": ("max_lag", lambda v: cross_correlation(*_SERIES, v).max_lag),
    "histogram.bin_count": ("bin_count", lambda v: histogram([0.5], v, 0.0, 1.0).bin_count),
    "cli.workers": ("workers", _cli_setting("workers", "sweep")),
    "cli.bins": ("bins", _cli_setting("bins")),
    "cli.max_lag": ("max_lag", _cli_setting("max_lag")),
}


def _cli_config(key, field):
    def call(value):
        args = cli.build_parser().parse_args(["figures"])
        setattr(args, key, value)
        config = cli._settings(args)[1]
        return getattr(config if field == "tail_threshold" else config.params, field)
    return call


# (name in the message, call taking the value and returning what it stores)
# for every entry point that takes a float setting
FLOAT_ENTRY_POINTS = {
    "ModelParams.alpha": ("alpha", lambda v: ModelParams(alpha=v).alpha),
    "ModelParams.influence": ("influence", lambda v: ModelParams(influence=v).influence),
    "ModelParams.noise_half_width": (
        "noise_half_width", lambda v: ModelParams(noise_half_width=v).noise_half_width
    ),
    "SweepConfig.tail_threshold": (
        "tail_threshold", lambda v: SweepConfig(1, tail_threshold=v).tail_threshold
    ),
    "cli.alpha": ("alpha", _cli_config("alpha", "alpha")),
    "cli.influence": ("influence", _cli_config("influence", "influence")),
    "cli.noise": ("noise", _cli_config("noise", "noise_half_width")),
    "cli.threshold": ("threshold", _cli_config("threshold", "tail_threshold")),
}


class TestFloatRule:
    @pytest.mark.parametrize("entry", FLOAT_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "value", [False, True, "0.1", Decimal("0.25"), np.bool_(False), 0.1j],
        ids=["False", "True", "str", "Decimal", "np.bool_", "complex"],
    )
    def test_rejected_naming_the_field(self, entry, value):
        name, call = FLOAT_ENTRY_POINTS[entry]
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("entry", FLOAT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [0.25, np.float32(0.25), np.float64(0.25), Fraction(1, 4)],
                             ids=["float", "np.float32", "np.float64", "Fraction"])
    def test_real_number_stored_as_float(self, entry, value):
        _, call = FLOAT_ENTRY_POINTS[entry]
        stored = call(value)
        assert type(stored) is float and stored == 0.25

    @pytest.mark.parametrize("name", ["alpha", "influence", "noise_half_width"])
    def test_int_stored_as_float(self, name):
        stored = getattr(ModelParams(**{name: 0}), name)
        assert type(stored) is float and stored == 0.0
        assert ModelParams(**{name: np.int64(0)}) == ModelParams(**{name: 0.0})

    # numpy's uniform(-h, h) raises OverflowError once h - -h is inf, and the
    # kernel's own map would return inf rows, so ModelParams refuses such an h
    @pytest.mark.parametrize("entry", ["ModelParams.noise_half_width", "cli.noise"])
    def test_noise_range_must_be_finite(self, entry):
        name, call = FLOAT_ENTRY_POINTS[entry]
        widest = sys.float_info.max / 2
        assert call(widest) == widest
        for value in (np.nextafter(widest, np.inf), 1e308):
            message = f"{name} must be <= {widest!r}, got {float(value)!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value)

    def test_widest_noise_kernel_matches_scalar(self):
        params = ModelParams(noise_half_width=sys.float_info.max / 2, turns=3)
        context = ContextMatrix(0, 0, 0, 0)
        B1, B2 = simulate_rows(np.array([params.coefficients(context)]), params, [5])
        trajectory = simulate(context, params, 5)
        assert B1[0].tobytes() == trajectory.b1.tobytes()
        assert B2[0].tobytes() == trajectory.b2.tobytes()

    def test_int_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(ValueError, match="^influence must be finite, got 1000"):
            ModelParams(influence=10**400)


class TestCountRule:
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("value, message", [
        (2.5, "must be an integer, got 2.5"),
        ("3", "must be an integer, got '3'"),
        (0, "must be >= 1"),
        (-1, "must be >= 1"),
        (True, "must be an integer, got True"),
        (False, "must be an integer, got False"),
    ], ids=["float", "str", "zero", "negative", "True", "False"])
    def test_rejected_with_the_shared_message(self, entry, value, message):
        name, call = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
            call(value)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_numpy_integer_accepted_as_int(self, entry):
        _, call = COUNT_ENTRY_POINTS[entry]
        stored = call(np.int64(2))
        assert stored is None or (type(stored) is int and stored == 2)


class TestStep:
    def test_zero_coupling_decay_only(self):
        # all-zero context reduces to b' = -alpha * b
        out = step(ContextMatrix(0, 0, 0, 0), UNIT_GAIN, BehaviorState(1.0, -1.0), (0.0, 0.0))
        assert out == pytest.approx((-0.1, 0.1), abs=1e-15)

    def test_identity_coupling(self):
        out = step(ContextMatrix(1, 0, 0, 1), UNIT_GAIN, BehaviorState(1.0, 1.0), (0.0, 0.0))
        assert out == pytest.approx((0.9, 0.9), abs=1e-15)

    def test_direct_substitution(self):
        out = step(ContextMatrix(1, 1, 1, 1), UNIT_GAIN, BehaviorState(1.0, 0.0), (0.2, -0.3))
        assert out == pytest.approx((1.1, 0.7), abs=1e-15)

    def test_rejects_non_finite_state(self):
        with pytest.raises(NonFiniteStateError):
            step(ContextMatrix(0, 0, 0, 0), UNIT_GAIN, BehaviorState(float("inf"), 0.0), (0.0, 0.0))
        with pytest.raises(NonFiniteStateError):
            step(ContextMatrix(0, 0, 0, 0), UNIT_GAIN, BehaviorState(0.0, float("nan")), (0.0, 0.0))

    def test_matches_matrix_product_within_one_ulp(self):
        # zero-noise step must equal (influence*C - alpha*Id) @ B built as an
        # explicit matrix, for every context and random states
        rng = np.random.default_rng(2024)
        for ctx in enumerate_contexts():
            M = UNIT_GAIN.influence * np.array(
                [[ctx.s1, ctx.o1], [ctx.o2, ctx.s2]], dtype=float
            ) - UNIT_GAIN.alpha * np.eye(2)
            states = rng.normal(0.0, 3.0, (50, 2))
            for b1, b2 in states:
                got = step(ctx, UNIT_GAIN, BehaviorState(b1, b2), (0.0, 0.0))
                want1 = M[0, 0] * b1 + M[0, 1] * b2
                want2 = M[1, 0] * b1 + M[1, 1] * b2
                for g, w in ((got.b1, want1), (got.b2, want2)):
                    assert abs(g - w) <= np.spacing(max(abs(g), abs(w)))


class TestNoiseSource:
    def test_reproducible_stream(self):
        params = ModelParams(turns=10)
        (init_a, noise_a), (init_b, noise_b) = (draw_run_inputs(params, 123) for _ in range(2))
        assert np.array_equal(init_a, init_b) and np.array_equal(noise_a, noise_b)

    def test_bounds(self):
        _, noise = draw_run_inputs(ModelParams(noise_half_width=0.25, turns=10_000), 7)
        assert noise.shape == (10_000, 2)
        assert (noise >= -0.25).all() and (noise <= 0.25).all()

    def test_zero_half_width(self):
        _, noise = draw_run_inputs(ModelParams(noise_half_width=0.0, turns=100), 7)
        assert noise.shape == (100, 2) and (noise == 0.0).all()

    def test_algorithm_id_pinned(self):
        assert NoiseSource.ALGORITHM_ID == "numpy-pcg64-uniform/1"


class TestSimulate:
    def test_deterministic_bitwise(self):
        ctx = ContextMatrix(1, 1, 1, 1)
        t1 = simulate(ctx, ModelParams(), 99)
        t2 = simulate(ctx, ModelParams(), 99)
        assert np.array_equal(t1.b1, t2.b1) and np.array_equal(t1.b2, t2.b2)

    def test_length_and_initial_state(self):
        params = ModelParams(turns=50)
        traj = simulate(ContextMatrix(0, 0, 0, 0), params, 5)
        assert len(traj) == 51
        init, _ = draw_run_inputs(params, 5)
        assert traj.b1[0] == init[0] and traj.b2[0] == init[1]
        assert -0.5 <= traj.b1[0] <= 0.5 and -0.5 <= traj.b2[0] <= 0.5

    def test_zero_noise_zero_context_decays_by_minus_alpha(self):
        # b' = -alpha * b each turn: geometric decay toward (0, 0)
        params = ModelParams(influence=1.0, noise_half_width=0.0, turns=20)
        traj = simulate(ContextMatrix(0, 0, 0, 0), params, 11)
        x = traj.b1[0]
        for t in range(1, 21):
            x = -0.1 * x
            assert traj.b1[t] == x
        assert abs(traj.b1[20]) < abs(traj.b1[0]) * 1e-19

    def test_zero_noise_identity_context_decays_by_one_minus_alpha(self):
        params = ModelParams(influence=1.0, noise_half_width=0.0, turns=20)
        traj = simulate(ContextMatrix(1, 0, 0, 1), params, 11)
        x, y = traj.b1[0], traj.b2[0]
        for t in range(1, 21):
            x, y = 0.9 * x, 0.9 * y
            assert traj.b1[t] == x and traj.b2[t] == y

    def test_full_coupling_unit_gain_grows_and_stays_finite(self):
        # at unit gain the (1,1;1,1) context has spectral gain 1.9; the run
        # must stay finite over 500 turns and match an independent
        # matrix-power accumulation of the affine recurrence
        params = ModelParams(influence=1.0)
        ctx = ContextMatrix(1, 1, 1, 1)
        traj = simulate(ctx, params, 7)
        assert np.isfinite(traj.b1).all() and np.isfinite(traj.b2).all()
        ratio = abs(traj.b1[500]) / abs(traj.b1[499])
        assert ratio == pytest.approx(1.9, rel=1e-3)

        init, noise = draw_run_inputs(params, 7)
        M = np.array([[0.9, 1.0], [1.0, 0.9]])
        final = np.linalg.matrix_power(M, 500) @ init
        for j in range(500):
            final += np.linalg.matrix_power(M, 499 - j) @ noise[j]
        assert traj.b1[500] == pytest.approx(final[0], rel=1e-9)
        assert traj.b2[500] == pytest.approx(final[1], rel=1e-9)

    def test_default_gain_full_coupling_stays_bounded(self):
        traj = simulate(ContextMatrix(1, 1, 1, 1), ModelParams(), 7)
        assert np.abs(traj.b1).max() < 50

    def test_divergence_raises_midway(self):
        # gain 1.9 leaves double range near turn 1106
        params = ModelParams(influence=1.0, turns=1300)
        with pytest.raises(NonFiniteStateError):
            simulate(ContextMatrix(1, 1, 1, 1), params, 3)


class TestTrajectory:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("agent", [0, 1])
    @pytest.mark.parametrize("k", [0, 3, 4])
    def test_non_finite_state_before_the_last_raises(self, k, agent, bad):
        series = np.zeros((2, 6))
        series[agent, k] = bad
        series[1 - agent, k + 1:] = np.inf  # a later non-finite state is not named
        message = f"^behavior state left double-precision range at turn {k}$"
        with pytest.raises(NonFiniteStateError, match=message):
            Trajectory(ContextMatrix(1, 1, 1, 1), 0, *series)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_final_state_alone_passes(self, bad):
        series = np.zeros((2, 6))
        series[:, -1] = bad
        assert len(Trajectory(ContextMatrix(1, 1, 1, 1), 0, *series)) - 1 == 5


class TestSimulateBatch:
    def test_bitwise_equal_to_scalar_path(self):
        params = ModelParams(turns=200)
        ctx = ContextMatrix(-1, 1, 0, 1)
        seeds = [11, 22, 33]
        B1, B2 = simulate_batch(ctx, params, seeds)
        for i, seed in enumerate(seeds):
            traj = simulate(ctx, params, seed)
            assert np.array_equal(B1[i], traj.b1)
            assert np.array_equal(B2[i], traj.b2)

    def test_divergent_runs_marked_not_raised(self):
        params = ModelParams(influence=1.0, turns=1300)
        B1, B2 = simulate_batch(ContextMatrix(1, 1, 1, 1), params, [3])
        assert not np.isfinite(B1[0]).all()

    @pytest.mark.parametrize("coefficients, shape", [
        ([(0.1, 0.2, 0.3, 0.4)] * 2, "(2, 4)"), ([0.1, 0.2, 0.3, 0.4], "(4,)"),
        ([(0.1, 0.2, 0.3)], "(1, 3)"), ([], "(0,)"),
    ], ids=["two-rows", "flat", "three-entries", "empty"])
    def test_kernel_needs_one_row_of_four_coefficients_per_seed(self, coefficients, shape):
        # unchecked, two rows for one seed raised numpy's "cannot reshape array
        # of size 8 into shape (1,2,2)" after drawing the row
        with pytest.raises(ValueError) as caught:
            simulate_rows(coefficients, ModelParams(turns=5), [1])
        assert str(caught.value) == f"coefficients must have shape (1, 4) for 1 seeds, found {shape}"


class TestSimulateBatchProperties:
    @settings(deadline=None, max_examples=80)
    @given(
        context=st.sampled_from(enumerate_contexts()),
        params=st.builds(
            ModelParams,
            alpha=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            influence=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
            noise_half_width=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
            turns=st.one_of(
                st.integers(min_value=1, max_value=200),
                st.integers(min_value=1100, max_value=1500),
            ),
        ),
        seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
    )
    @example(  # gain 1.9: leaves double range near turn 1106
        context=ContextMatrix(1, 1, 1, 1), params=ModelParams(influence=1.0, turns=1300),
        seeds=[3, 4],
    )
    @example(
        context=ContextMatrix(1, 0, 1, -1), params=ModelParams(noise_half_width=0.0, turns=50),
        seeds=[0],
    )
    def test_batch_equals_scalar(self, context, params, seeds):
        B1, B2 = simulate_batch(context, params, seeds)
        for i, seed in enumerate(seeds):
            try:
                traj = simulate(context, params, seed)
            except NonFiniteStateError:
                assert not (np.isfinite(B1[i]).all() and np.isfinite(B2[i]).all())
                continue
            assert B1[i].tobytes() == traj.b1.tobytes()
            assert B2[i].tobytes() == traj.b2.tobytes()


class TestSimulateRowsProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(enumerate_contexts()),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
            min_size=1,
            max_size=5,
        ),
        params=st.builds(
            ModelParams,
            alpha=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            influence=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
            noise_half_width=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
            turns=st.one_of(
                st.integers(min_value=1, max_value=200),
                st.integers(min_value=1100, max_value=1500),
            ),
        ),
    )
    @example(  # one diverging row (gain 1.9) among rows that stay finite
        rows=[(ContextMatrix(1, 1, 1, 1), 3), (ContextMatrix(0, 0, 0, 0), 4),
              (ContextMatrix(-1, 1, 0, 1), 5)],
        params=ModelParams(influence=1.0, turns=1300),
    )
    @example(
        rows=[(ContextMatrix(1, 0, 1, -1), 0), (ContextMatrix(0, 1, -1, 0), 0)],
        params=ModelParams(noise_half_width=0.0, turns=50),
    )
    def test_mixed_context_rows_equal_scalar(self, rows, params):
        B1, B2 = simulate_rows(
            [params.coefficients(context) for context, _ in rows], params,
            [seed for _, seed in rows],
        )
        assert B1.flags.c_contiguous and B2.flags.c_contiguous
        for i, (context, seed) in enumerate(rows):
            try:
                traj = simulate(context, params, seed)
            except NonFiniteStateError:
                assert not (np.isfinite(B1[i]).all() and np.isfinite(B2[i]).all())
                continue
            assert B1[i].tobytes() == traj.b1.tobytes()
            assert B2[i].tobytes() == traj.b2.tobytes()


def _rows_with_window(rows, params, depth):
    """simulate_rows over (context, seed) rows with a window ``depth`` turns
    deep (0: one window spanning every turn, with no boundary)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_MIN_WINDOW_TURNS", 2)
        patch.setattr(dynamics, "_WINDOW_CELLS",
                      2 * max(len(rows), 1) * (depth or params.turns + 1))
        return simulate_rows(
            [params.coefficients(context) for context, _ in rows], params,
            [seed for _, seed in rows],
        )


class TestWindowBoundaries:
    """The default window is deeper than any row here, so windows of a few
    turns are forced to put many boundaries inside every row."""

    @settings(deadline=None, max_examples=80)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(enumerate_contexts()),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
            min_size=1,
            max_size=5,
        ),
        params=st.builds(
            ModelParams,
            alpha=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            influence=st.one_of(st.just(2.0), st.floats(min_value=0.0, max_value=1.0)),
            noise_half_width=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
            turns=st.one_of(st.just(1), st.integers(min_value=1, max_value=60),
                            st.integers(min_value=600, max_value=700)),
        ),
        depth=st.one_of(st.just(0), st.integers(min_value=2, max_value=9)),
    )
    @example(  # first inf at turn 622, nan from 624: both cross boundaries
        rows=[(ContextMatrix(1, 1, 1, 0), 3), (ContextMatrix(0, 0, 0, 0), 4)],
        params=ModelParams(influence=2.0, turns=700), depth=3,
    )
    @example(  # the first inf state is the one carried into the second window
        rows=[(ContextMatrix(1, 1, 1, 0), 3)], params=ModelParams(influence=2.0, turns=700),
        depth=623,
    )
    @example(
        rows=[(ContextMatrix(1, 0, 1, -1), 0), (ContextMatrix(0, 1, -1, 0), 9)],
        params=ModelParams(noise_half_width=0.0, turns=50), depth=2,
    )
    @example(rows=[(ContextMatrix(-1, 1, 0, 1), 5)], params=ModelParams(turns=1), depth=2)
    def test_windowed_rows_equal_scalar(self, rows, params, depth):
        B1, B2 = _rows_with_window(rows, params, depth)
        assert B1.flags.c_contiguous and B2.flags.c_contiguous
        assert B1.shape == B2.shape == (len(rows), params.turns + 1)
        for i, (context, seed) in enumerate(rows):
            # the scalar path stops at the first non-finite state, so compare
            # through it against a run cut there
            finite = np.isfinite(B1[i]) & np.isfinite(B2[i])
            stop = params.turns if finite.all() else int(np.argmin(finite))
            traj = simulate(context, replace(params, turns=stop), seed)
            assert B1[i, :stop + 1].tobytes() == traj.b1.tobytes()
            assert B2[i, :stop + 1].tobytes() == traj.b2.tobytes()
        # past it, inf and nan must match one window with no boundary
        P1, P2 = _rows_with_window(rows, params, 0)
        assert B1.tobytes() == P1.tobytes() and B2.tobytes() == P2.tobytes()

    def test_diverging_row_crosses_boundaries(self):
        rows = [(ContextMatrix(1, 1, 1, 0), 3)]
        B1, B2 = _rows_with_window(rows, ModelParams(influence=2.0, turns=700), 3)
        assert np.isinf(B1[0, 622]) or np.isinf(B2[0, 622])
        assert np.isnan(B1[0, -1]) and np.isnan(B2[0, -1])

    @pytest.mark.parametrize("depth", [None, 0, 2, 5])
    def test_zero_rows(self, depth):
        params = ModelParams(turns=7)
        if depth is None:
            B1, B2 = simulate_rows([], params, [])
        else:
            B1, B2 = _rows_with_window([], params, depth)
        assert B1.shape == B2.shape == (0, 8)
        assert B1.flags.c_contiguous and B2.flags.c_contiguous


class TestBulkSeeder:
    @staticmethod
    def assert_numpy_state(seeds):
        """Each returned state is one LCG step before numpy's seeded state."""
        for seed, (state, inc) in zip(seeds, _pcg64_states(seeds), strict=True):
            reference = np.random.PCG64(seed).state["state"]
            assert (lcg_step(state, inc), inc) == (reference["state"], reference["inc"]), seed

    def test_edge_seeds_match_numpy(self):
        self.assert_numpy_state([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8))
    def test_random_seeds_match_numpy(self, seeds):
        self.assert_numpy_state(seeds)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_simulate_rows_rejects_out_of_range_seed(self, seed):
        params = ModelParams(turns=5)
        coefficients = [params.coefficients(ContextMatrix(1, 0, 0, 1))] * 2
        with pytest.raises(ValueError, match=f"seed {seed} outside"):
            simulate_rows(coefficients, params, [3, seed])

    def test_no_seeds_give_no_states(self):
        assert list(_pcg64_states([])) == []
        assert list(_pcg64_states(np.array([], dtype=np.uint64))) == []

    def test_uint64_array_gives_the_states_of_the_list(self):
        seeds = [0, 5, 2**32, 2**63 + 1, 2**64 - 1]
        states = list(_pcg64_states(np.array(seeds, dtype=np.uint64)))
        assert states == list(_pcg64_states(seeds))
        assert all(type(value) is int for pair in states for value in pair)

    def test_uint64_array_gives_the_bits_of_the_list(self):
        params = ModelParams(turns=30)
        contexts = enumerate_contexts()
        coefficients = [params.coefficients(c) for c in contexts + contexts[:2]]
        seeds = [3 * i + 2**63 for i in range(81)] + [0, 2**64 - 1]
        from_array = simulate_rows(coefficients, params, np.array(seeds, dtype=np.uint64))
        from_list = simulate_rows(coefficients, params, seeds)
        for a, b in zip(from_array, from_list, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_signed_array_is_checked_per_seed(self):
        params = ModelParams(turns=5)
        coefficients = [params.coefficients(ContextMatrix(1, 0, 0, 1))] * 2
        with pytest.raises(ValueError, match=r"^seed -1 outside \[0, 2\*\*64\)$"):
            simulate_rows(coefficients, params, np.array([3, -1], dtype=np.int64))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_scalar_path_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match=rf"^seed {seed} outside \[0, 2\*\*64\)$"):
            NoiseSource(seed)
        with pytest.raises(ValueError, match=f"seed {seed} outside"):
            simulate(ContextMatrix(1, 0, 0, 1), ModelParams(turns=5), seed)


class TestDrawGroups:
    """simulate_rows draws rows in groups of _WINDOW_CELLS // (2 * (turns + 1))
    rows, at least one."""

    @staticmethod
    def assert_rows_equal_scalar(params, contexts, seeds, rows):
        B1, B2 = simulate_rows([params.coefficients(c) for c in contexts], params, seeds)
        assert B1.shape == B2.shape == (len(seeds), params.turns + 1)
        for i in rows:
            traj = simulate(contexts[i], params, seeds[i])
            assert B1[i].tobytes() == traj.b1.tobytes()
            assert B2[i].tobytes() == traj.b2.tobytes()

    def test_rows_on_both_sides_of_a_group_boundary(self):
        params = ModelParams(turns=50)
        assert dynamics._WINDOW_CELLS // (2 * 51) == 642
        contexts = [enumerate_contexts()[i % 81] for i in range(643)]
        seeds = [7 * i + 1 for i in range(643)]
        self.assert_rows_equal_scalar(params, contexts, seeds, [0, 641, 642])

    def test_one_row_groups(self):
        params = ModelParams(turns=2**15)
        assert dynamics._WINDOW_CELLS // (2 * (2**15 + 1)) == 0
        contexts = [ContextMatrix(1, 0, 1, -1), ContextMatrix(-1, 1, 0, 1)]
        self.assert_rows_equal_scalar(params, contexts, [11, 2**64 - 1], [0, 1])


def _seeding_carries(seed):
    """Which carries of the seeding sum (w0:w1) + inc ``seed`` takes, from
    the words numpy's SeedSequence hashes it to."""
    w0, w1, w2, w3 = (int(w) for w in np.random.SeedSequence(seed).generate_state(4, np.uint64))
    inc_lo = (w3 << 1 | 1) % 2**64
    return {
        "sum": w1 + inc_lo >= 2**64,  # low-word add in (w0:w1) + inc
        "inc": w3 >= 2**63,  # w3's top bit moves into inc's high word
    }


class TestSeedingCarries:
    @pytest.mark.parametrize("carry, taken, seed", [
        ("sum", True, 0), ("sum", False, 3),
        ("inc", True, 7), ("inc", False, 9),
    ])
    def test_carry_matches_numpy(self, carry, taken, seed):
        assert _seeding_carries(seed)[carry] is taken
        reference = np.random.PCG64(seed).state["state"]
        [(state, inc)] = _pcg64_states([seed])
        assert (lcg_step(state, inc), inc) == (reference["state"], reference["inc"])


class TestSeedType:
    CONTEXT = ContextMatrix(1, 0, 0, 1)

    @pytest.mark.parametrize("seed", [7.9, 7.0, 2.5, "3", np.float64(7.0), None, True, False],
                             ids=["7.9", "7.0", "2.5", "str", "np.float64", "None", "True", "False"])
    def test_non_integer_seed_rejected(self, seed):
        params = ModelParams(turns=5)
        message = f"^seed {re.escape(repr(seed))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            NoiseSource(seed)
        with pytest.raises(ValueError, match=message):
            simulate(self.CONTEXT, params, seed)
        with pytest.raises(ValueError, match=message):
            simulate_rows([params.coefficients(self.CONTEXT)] * 2, params, [3, seed])

    @pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7), np.uint32(7)],
                             ids=["np.uint64", "np.int64", "np.uint32"])
    def test_integer_types_accepted(self, seed):
        params = ModelParams(turns=5)
        traj = simulate(self.CONTEXT, params, seed)
        assert type(traj.seed) is int and traj.seed == int(seed)
        reference = simulate(self.CONTEXT, params, int(seed))
        assert traj.b1.tobytes() == reference.b1.tobytes()
        B1, B2 = simulate_rows([params.coefficients(self.CONTEXT)], params, [seed])
        assert B1[0].tobytes() == reference.b1.tobytes()
        assert B2[0].tobytes() == reference.b2.tobytes()


class TestRelabelingSymmetry:
    def test_swapping_agents_swaps_series_exactly(self):
        # simulate swap(C) from the swapped initial state with swapped noise
        # and compare bitwise against the original trajectory
        params = ModelParams(turns=100)
        for ctx in [ContextMatrix(1, 0, 1, -1), ContextMatrix(-1, 1, 0, 1)]:
            seed = 17
            init, noise = draw_run_inputs(params, seed)
            original = simulate(ctx, params, seed)
            swapped_ctx = ctx.swapped()
            state = BehaviorState(init[1], init[0])
            for t in range(1, params.turns + 1):
                state = step(swapped_ctx, params, state, (noise[t - 1, 1], noise[t - 1, 0]))
                assert state.b1 == original.b2[t]
                assert state.b2 == original.b1[t]


def _trajectory_csv_reference(trajectory: Trajectory) -> str:
    """The per-element writer that trajectory_csv_text replaced, kept as its
    reference: one numpy scalar indexed per turn and agent."""
    lines = ["t,b1,b2"]
    for t in range(len(trajectory)):
        lines.append(f"{t},{float(trajectory.b1[t])!r},{float(trajectory.b2[t])!r}")
    return "\n".join(lines) + "\n"


@st.composite
def _series_pairs(draw):
    """Two float64 series of one length whose last state alone may be
    non-finite, as Trajectory allows."""
    turns = draw(st.integers(0, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return [np.array(draw(st.lists(finite, min_size=turns, max_size=turns)) + [draw(st.floats())])
            for _ in range(2)]


class TestTrajectoryCsv:
    @settings(max_examples=300, deadline=None)
    @given(_series_pairs())
    @example([np.array([-0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
              np.array([0.0, -5e-324, -1.7976931348623157e308, np.inf])])
    @example([np.array([0.1, np.nan]), np.array([-0.0, -np.inf])])
    def test_matches_the_per_element_writer(self, pair):
        trajectory = Trajectory(ContextMatrix(1, 0, 1, -1), 0, *pair)
        assert_same_text(trajectory_csv_text(trajectory), _trajectory_csv_reference(trajectory))

    def test_round_trip(self):
        traj = simulate(ContextMatrix(1, 0, 1, -1), ModelParams(turns=25), 4)
        text = trajectory_csv_text(traj)
        assert text.startswith("t,b1,b2\n")
        b1, b2 = trajectory_from_csv(text)
        assert np.array_equal(b1, traj.b1)
        assert np.array_equal(b2, traj.b2)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            trajectory_from_csv("a,b,c\n0,1,2\n")
