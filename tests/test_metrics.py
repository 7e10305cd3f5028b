import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as scipy_stats

import dyadsim.metrics as metrics_mod
from dyadsim.dynamics import ContextMatrix, ModelParams, simulate_batch, simulate_rows
from dyadsim.metrics import (
    CcfAggregate,
    CcfResult,
    LagDistribution,
    LagSpec,
    UndefinedCorrelationError,
    aggregate_ccf,
    cross_correlation,
    histogram,
    pearson_r,
    pearson_rows,
    turn_lags,
)
from dyadsim.report import ccf_csv_text, histogram_csv_text, lag_csv_text
from dyadsim.sweep import SweepConfig, context_batches, enumerate_contexts


def brute_force_lags(x, y, max_lag):
    """Independent nearest-on-state search (ties resolve to positive lag)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    on_x = [t for t in range(len(x)) if x[t] > x.mean()]
    on_y = [t for t in range(len(y)) if y[t] > y.mean()]
    counts = np.zeros(2 * max_lag + 1, dtype=int)
    total = 0
    if not on_x or not on_y:
        return counts, total
    for t in on_x:
        best = None
        for tp in on_y:
            if best is None:
                best = tp
                continue
            d, bd = abs(tp - t), abs(best - t)
            if d < bd or (d == bd and tp > best):
                best = tp
        lag = best - t
        if abs(lag) <= max_lag:
            counts[lag + max_lag] += 1
            total += 1
    return counts, total


class TestPearson:
    def test_perfect_positive(self):
        assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_r([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_hand_computed_example(self):
        # covariance 4 over sqrt(5 * 5)
        assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError,
                           match="^correlation undefined: zero variance$"):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_is_named(self, bad):
        for x, y in (([1, 2, 3], [1, 2, bad]), ([bad, 2, 3], [1, 1, 1])):
            with pytest.raises(UndefinedCorrelationError,
                               match="^correlation undefined: non-finite value$"):
                pearson_r(x, y)

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pearson_r([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_matches_reference_routine(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.normal(size=40)
            y = rng.normal(size=40) + 0.3 * x
            assert pearson_r(x, y) == pytest.approx(scipy_stats.pearsonr(x, y)[0], abs=1e-12)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            r = pearson_r(x, y)
            assert pearson_r(y, x) == pytest.approx(r, abs=1e-12)
            assert pearson_r(2.5 * x + 1.0, y) == pytest.approx(r, abs=1e-12)
            assert pearson_r(-2.5 * x + 1.0, y) == pytest.approx(-r, abs=1e-12)

    def test_huge_magnitudes_stay_defined(self):
        # exponentially growing series must not overflow the computation
        t = np.arange(400, dtype=float)
        x = np.exp(0.9 * t)
        y = 0.5 * x
        assert pearson_r(x, y) == pytest.approx(1.0, abs=1e-12)


def _pearson_rows_reference(x, y):
    """Reference row-wise Pearson r: abs temporaries and boolean-mask copies,
    one fresh temporary per product sum."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.full(x.shape[0], np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        xm = x - x.mean(axis=1, keepdims=True)
        ym = y - y.mean(axis=1, keepdims=True)
        xs = np.abs(xm).max(axis=1)
        ys = np.abs(ym).max(axis=1)
        ok = (xs > 0) & (ys > 0)
        if ok.any():
            xn = xm[ok] / xs[ok, None]
            yn = ym[ok] / ys[ok, None]
            num = (xn * yn).sum(axis=1)
            den = np.sqrt((xn * xn).sum(axis=1) * (yn * yn).sum(axis=1))
            r[ok] = np.clip(num / den, -1.0, 1.0)
    return r


_ROW_KINDS = ("normal", "normal", "constant", "inf", "-inf", "nan", "huge", "tiny")


@st.composite
def pearson_stacks(draw):
    """(m, n) pairs with m in 0..5, some rows constant or holding inf, nan or
    +-1e300, as whole arrays or as CCF-style strided segment views."""
    m = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=2, max_value=40))
    lag = draw(st.integers(min_value=0, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    wide = rng.normal(size=(2, m, n + lag)) * draw(st.sampled_from([1.0, 1e-3, 1e6]))
    for a in range(2):
        for i in range(m):
            kind = draw(st.sampled_from(_ROW_KINDS))
            at = draw(st.integers(min_value=0, max_value=n + lag - 1))
            if kind == "constant":
                wide[a, i] = 0.25
            elif kind in ("inf", "-inf", "nan"):
                wide[a, i, at] = float(kind)
            elif kind == "huge":
                wide[a, i, at:] *= 1e300
                wide[a, i, :at] = -1e300
            elif kind == "tiny":
                wide[a, i] *= 1e-300
    # like cross_correlation at lag k: x[:, :n - k] against y[:, k:]
    return wide[0, :, :n], wide[1, :, lag:]


class TestPearsonRowsReference:
    @settings(deadline=None, max_examples=300)
    @given(pearson_stacks())
    @example((np.full((3, 5), 2.0), np.arange(15.0).reshape(3, 5)))  # every row undefined
    @example((np.empty((0, 4)), np.empty((0, 4))))
    @example((np.array([[0.0, 1.0]]), np.array([[5.0, -5.0]])))
    @example((np.array([[1e300, -1e300, 1e300], [1.0, 2.0, 4.0]]),
              np.array([[np.inf, 0.0, 1.0], [3.0, 1.0, 2.0]])))
    def test_equals_reference_bitwise_and_leaves_inputs(self, case):
        x, y = case
        x_bytes, y_bytes = x.tobytes(), y.tobytes()
        expected = _pearson_rows_reference(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson_rows(x, y)
        assert r.shape == (len(x),)
        assert r.tobytes() == expected.tobytes()
        assert x.tobytes() == x_bytes and y.tobytes() == y_bytes



def _deviation_extremes(x):
    """Each row's max |deviation| both ways: one reduction over ``abs``, and
    two reductions as max(row max, -row min)."""
    with np.errstate(over="ignore", invalid="ignore"):
        xm = x - x.mean(axis=1, keepdims=True)
        return np.abs(xm).max(axis=1), np.maximum(xm.max(axis=1), -xm.min(axis=1))


def _pearson_rows_two_reductions(x, y):
    """``pearson_rows`` with each max |deviation| taken as two row
    reductions, max(row max, -row min), and a fresh product temporary.  An
    all-finite pair whose r comes out nan is computed again on its rows
    times 2**-e, where n < 2**e."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = _two_reductions(x, y)
    redo = np.isnan(r) & np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
    scale = 2.0 ** -x.shape[1].bit_length()
    r[redo] = _two_reductions(x[redo] * scale, y[redo] * scale)
    return r


def _two_reductions(x, y):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xm = x - x.mean(axis=1, keepdims=True)
        ym = y - y.mean(axis=1, keepdims=True)
        xs = np.maximum(xm.max(axis=1), -xm.min(axis=1))
        ys = np.maximum(ym.max(axis=1), -ym.min(axis=1))
        xm /= xs[:, None]
        ym /= ys[:, None]
        products = xm * ym
        num = products.sum(axis=1)
        sxx = np.multiply(xm, xm, out=products).sum(axis=1)
        den = np.sqrt(sxx * np.multiply(ym, ym, out=products).sum(axis=1))
        r = np.clip(num / den, -1.0, 1.0)
    r[~((xs > 0) & (ys > 0))] = np.nan
    return r


_MAX = np.finfo(float).max
_TINY = np.finfo(float).smallest_subnormal
# values that stress a row extreme: signed zeros, subnormals, the largest
# finite values (a row of them overflows its mean), infinities and nan
_EDGE_VALUES = (0.0, -0.0, _TINY, -_TINY, 2.2250738585072014e-308, -1.0, 0.25,
                _MAX, -_MAX, 1e308, np.inf, -np.inf, np.nan)

_EDGE_ROWS = {
    "nan": [1.0, np.nan, 2.0],
    "inf": [np.inf, 1.0, 2.0],
    "-inf": [-np.inf, 1.0, 2.0],
    "both infinities": [np.inf, -np.inf],
    "mean overflows": [_MAX, _MAX, 1.0],
    "mean overflows negative": [-_MAX, -_MAX, -1e308],
    "spread overflows": [_MAX, -_MAX],
    "constant": [0.1, 0.1, 0.1, 0.1],
    "signed zeros": [0.0, -0.0, 0.0],
    "negative zeros": [-0.0, -0.0],
    "subnormals": [_TINY, -_TINY, 3 * _TINY],
    "one subnormal": [0.0, _TINY],
    "two samples": [1.0, 3.0],
    "negative extreme": [5.0, 5.0, -20.0],
    "positive extreme": [-5.0, -5.0, 20.0],
}


@st.composite
def _edge_stacks(draw):
    """(m, n) pairs of rows with 2-6 samples drawn mostly from ``_EDGE_VALUES``."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=2, max_value=6))
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(width=64))
    return tuple(np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                        min_size=m, max_size=m)), dtype=float)
                 for _ in range(2))


class TestPearsonRowsRowExtremes:
    """The max |deviation| is one reduction over abs: abs and negation are
    exact and nan propagates through both forms, so r keeps its bits."""

    @pytest.mark.parametrize("row", _EDGE_ROWS.values(), ids=_EDGE_ROWS.keys())
    def test_edge_row_against_every_edge_row(self, row):
        rows = list(_EDGE_ROWS.values())
        for other in rows:
            n = min(len(row), len(other))
            x = np.array([row[:n], other[:n]])
            y = np.array([other[:n], row[:n]])
            assert pearson_rows(x, y).tobytes() == _pearson_rows_two_reductions(x, y).tobytes()
        one_pass, two_reductions = _deviation_extremes(np.array([row]))
        assert np.array_equal(one_pass, two_reductions, equal_nan=True)

    @settings(deadline=None, max_examples=400, derandomize=True)
    @given(_edge_stacks())
    def test_edge_stacks_keep_their_bits(self, case):
        x, y = case
        assert pearson_rows(x, y).tobytes() == _pearson_rows_two_reductions(x, y).tobytes()
        for series in case:
            one_pass, two_reductions = _deviation_extremes(series)
            assert np.array_equal(one_pass, two_reductions, equal_nan=True)

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(pearson_stacks())
    def test_mixed_stacks_keep_their_bits(self, case):
        x, y = case
        assert pearson_rows(x, y).tobytes() == _pearson_rows_two_reductions(x, y).tobytes()

class TestPearsonRowsNonFinite:
    def test_diverged_block_is_silent_and_equals_masked_call(self):
        params = ModelParams(influence=1.0, turns=1200)
        B1, B2 = simulate_rows(
            [params.coefficients(c) for c in enumerate_contexts()], params, range(81)
        )
        finite = np.isfinite(B1).all(axis=1) & np.isfinite(B2).all(axis=1)
        assert 0 < finite.sum() < len(finite)
        masked = np.full(len(B1), np.nan)
        masked[finite] = pearson_rows(B1[finite], B2[finite])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = pearson_rows(B1, B2)
        assert whole.tobytes() == masked.tobytes()


class TestPearsonRowsSumOverflow:
    """A finite pair whose row sums overflow has an r: the one of the pair
    scaled by 2**-11 (the series have 1,108 < 2**11 samples)."""

    @pytest.fixture(scope="class")
    def edge_pair(self):
        # unit gain, full coupling: both series stay finite to turn 1,107 and
        # end at 1.12e308, so each row's sum is inf
        B1, B2 = simulate_batch(ContextMatrix(1, 1, 1, 1),
                                ModelParams(influence=1.0, turns=1107), [42])
        assert np.isfinite(B1).all() and np.isfinite(B2).all()
        with np.errstate(over="ignore"):
            assert np.isinf(B1.sum()) and np.isinf(B2.sum())
        return B1, B2

    def test_row_equals_scaled_row(self, edge_pair):
        B1, B2 = edge_pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = pearson_rows(B1, B2)
        assert np.isfinite(r).all()
        assert r.tobytes() == pearson_rows(B1 * 2.0**-11, B2 * 2.0**-11).tobytes()
        assert r[0] == pytest.approx(np.corrcoef(B1[0] * 1e-300, B2[0] * 1e-300)[0, 1])

    def test_pearson_r_is_defined(self, edge_pair):
        B1, B2 = edge_pair
        r = pearson_r(B1[0], B2[0])
        assert r == pearson_rows(B1 * 2.0**-11, B2 * 2.0**-11)[0]

    def test_ccf_equals_scaled_ccf(self, edge_pair):
        B1, B2 = edge_pair
        values = cross_correlation(B1[0], B2[0], 20).values
        assert np.isfinite(values).all()
        scaled = cross_correlation(B1[0] * 2.0**-11, B2[0] * 2.0**-11, 20).values
        assert values.tobytes() == scaled.tobytes()


class TestCrossCorrelation:
    def test_self_correlation_at_zero_lag(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=60)
        res = cross_correlation(x, x, 2)
        assert res.value(0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_lag_equals_plain_pearson(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=80), rng.normal(size=80)
        assert cross_correlation(x, y, 3).value(0) == pearson_r(x, y)

    def test_delayed_sawtooth_peak_location(self):
        # y delays x by 5 samples (period-17 sawtooth, aperiodic within +-8)
        t = np.arange(200)
        x = (t % 17).astype(float)
        y = ((t - 5) % 17).astype(float)
        res = cross_correlation(x, y, 8)
        assert res.lags[np.argmax(res.values)] == 5
        assert res.value(5) == pytest.approx(1.0, abs=1e-12)
        # brute-force location check over all lags
        best = max(
            range(-8, 9),
            key=lambda k: np.corrcoef(x[: 200 - k], y[k:])[0, 1]
            if k >= 0
            else np.corrcoef(x[-k:], y[: 200 + k])[0, 1],
        )
        assert best == 5

    def test_independent_noise_is_flat(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, 500)
        y = rng.uniform(-0.5, 0.5, 500)
        res = cross_correlation(x, y, 20)
        assert np.abs(res.values).max() < 0.2

    def test_matches_per_lag_direct_recomputation(self):
        rng = np.random.default_rng(4)
        n = 90
        x = rng.normal(size=n)
        y = np.roll(x, 2) + 0.5 * rng.normal(size=n)
        res = cross_correlation(x, y, 6)
        for k in range(-6, 7):
            if k >= 0:
                expected = np.corrcoef(x[: n - k], y[k:])[0, 1]
            else:
                expected = np.corrcoef(x[-k:], y[: n + k])[0, 1]
            assert res.value(k) == pytest.approx(expected, abs=1e-12)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=70), rng.normal(size=70)
        ab = cross_correlation(x, y, 5)
        ba = cross_correlation(y, x, 5)
        for k in range(-5, 6):
            assert ab.value(k) == pytest.approx(ba.value(-k), abs=1e-12)

    def test_values_in_range(self):
        rng = np.random.default_rng(9)
        res = cross_correlation(rng.normal(size=100), rng.normal(size=100), 10)
        assert (np.abs(res.values) <= 1.0 + 1e-12).all()

    def test_zero_variance_segment_is_nan_only_there(self):
        x = np.ones(30)
        x[-1] = 2.0  # constant except the final sample
        y = np.arange(30, dtype=float)
        res = cross_correlation(x, y, 1)
        assert np.isnan(res.value(1))  # x[0:29] is constant
        assert np.isfinite(res.value(0))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="length"):
            cross_correlation(np.arange(10.0), np.arange(10.0), 4)
        with pytest.raises(ValueError, match="length > 10, got 10"):
            cross_correlation(np.zeros((3, 10)), np.zeros((3, 10)), 4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            cross_correlation(np.zeros(20), np.zeros(21), 2)
        with pytest.raises(ValueError, match="lengths differ"):
            cross_correlation(np.zeros((2, 20)), np.zeros((3, 20)), 2)


class TestAggregateCcf:
    def test_identical_results_have_zero_sd(self):
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=60), rng.normal(size=60)
        res = cross_correlation(x, y, 3)
        agg = aggregate_ccf([res, res])
        assert np.allclose(agg.sd, 0.0)
        assert np.array_equal(agg.n_defined, np.full(7, 2))

    def test_opposite_values_average_to_zero(self):
        base = CcfResult(max_lag=2, values=np.array([0.4, 0.2, 0.0, -0.2, -0.4]))
        flipped = CcfResult(max_lag=2, values=-base.values)
        agg = aggregate_ccf([base, flipped])
        assert np.allclose(agg.mean, 0.0)

    def test_undefined_entries_counted(self):
        a = CcfResult(max_lag=1, values=np.array([0.5, np.nan, 0.1]))
        b = CcfResult(max_lag=1, values=np.array([0.3, 0.2, 0.3]))
        agg = aggregate_ccf([a, b])
        assert list(agg.n_defined) == [2, 1, 2]
        assert agg.mean[1] == pytest.approx(0.2)
        assert np.isnan(agg.sd[1])  # needs two defined values

    def test_requires_two_results_and_common_max_lag(self):
        res = CcfResult(max_lag=1, values=np.zeros(3))
        with pytest.raises(ValueError):
            aggregate_ccf([res])
        with pytest.raises(ValueError):
            aggregate_ccf([res, CcfResult(max_lag=2, values=np.zeros(5))])

    @pytest.mark.parametrize("max_lag,shape", [(2, (3,)), (1, (5,)), (2, (4, 3)), (1, ())],
                             ids=["short", "long", "stack", "scalar"])
    def test_values_off_the_lag_axis_rejected(self, max_lag, shape):
        # accepted, the CSV writer wrote only as many lags as the shorter axis
        # allowed, and mixed widths reached aggregate_ccf as numpy's vstack error
        n = 2 * max_lag + 1
        message = rf"^values must have 2 \* max_lag \+ 1 = {n} entries on its last axis, " \
                  rf"found shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            CcfResult(max_lag=max_lag, values=np.full(shape, 0.1))
        assert CcfResult(max_lag=max_lag, values=np.zeros((4, n))).values.shape == (4, n)

    @pytest.mark.parametrize("field", ["mean", "sd", "n_defined"])
    def test_aggregate_off_the_lag_axis_rejected(self, field):
        # accepted, ccf_csv_text wrote only as many lags as the shortest field held
        fields = {"mean": np.zeros(5), "sd": np.zeros(5), "n_defined": np.zeros(5, dtype=int)}
        fields[field] = fields[field][:3]
        with pytest.raises(ValueError, match=rf"^{field} must have 2 \* max_lag \+ 1 = 5 "
                                             r"entries on its last axis, found shape \(3,\)$"):
            CcfAggregate(max_lag=2, **fields)
        with pytest.raises(ValueError, match="^max_lag must be >= 1$"):
            CcfAggregate(max_lag=0, mean=np.zeros(1), sd=np.zeros(1), n_defined=np.zeros(1))

    @pytest.mark.parametrize("max_lag,message", [
        (0, "max_lag must be >= 1"), (1.0, "max_lag must be an integer, got 1.0"),
        (True, "max_lag must be an integer, got True"),
    ], ids=["zero", "float", "bool"])
    def test_max_lag_must_be_a_count(self, max_lag, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CcfResult(max_lag=max_lag, values=np.zeros(3))
        assert type(CcfResult(max_lag=np.int64(1), values=np.zeros(3)).max_lag) is int


@st.composite
def stacked_series(draw, rows=st.integers(min_value=0, max_value=6)):
    """(m, n) series pairs, m drawn from ``rows``, some rows constant or with
    a constant segment, so that whole rows or single lags come out nan."""
    max_lag = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=2 * max_lag + 3, max_value=60))
    m = draw(rows)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = rng.normal(size=(m, n)) * draw(st.sampled_from([1.0, 1e-3, 1e6]))
    y = rng.normal(size=(m, n))
    for i in range(m):
        target = draw(st.sampled_from([x, y]))
        kind = draw(st.sampled_from(["random", "constant", "head", "tail"]))
        cut = draw(st.integers(min_value=1, max_value=n - 1))
        if kind == "constant":
            target[i] = 0.5
        elif kind == "head":
            target[i, :cut] = -2.0
        elif kind == "tail":
            target[i, cut:] = 3.0
    return x, y, max_lag


class TestStackedCcfProperties:
    @settings(deadline=None, max_examples=150)
    @given(stacked_series())
    def test_stacked_equals_per_row_bitwise(self, case):
        x, y, max_lag = case
        stacked = cross_correlation(x, y, max_lag)
        assert stacked.values.shape == (len(x), 2 * max_lag + 1)
        per_row = [cross_correlation(x[i], y[i], max_lag) for i in range(len(x))]
        for i, res in enumerate(per_row):
            assert res.values.shape == (2 * max_lag + 1,)
            assert stacked.values[i].tobytes() == res.values.tobytes()
        if len(x) >= 2:
            a, b = aggregate_ccf([stacked]), aggregate_ccf(per_row)
            for field in ("mean", "sd", "n_defined"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        else:
            with pytest.raises(ValueError, match="at least 2 results"):
                aggregate_ccf([stacked])

    @staticmethod
    def column_sliced(rows):
        """``rows`` as every other column of a wider array: no row is contiguous."""
        wide = np.zeros((len(rows), 2 * rows.shape[1]))
        wide[:, ::2] = rows
        return wide[:, ::2]

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(stacked_series(rows=st.integers(min_value=2, max_value=7)),
           st.sampled_from(["fortran", "column-sliced"]))
    def test_any_memory_layout_equals_per_row_bitwise(self, case, layout):
        # a Fortran stack's row sums run down its columns, not pairwise
        x, y, max_lag = case
        arrange = np.asfortranarray if layout == "fortran" else self.column_sliced
        stacked = cross_correlation(arrange(x), arrange(y), max_lag)
        for i in range(len(x)):
            assert stacked.values[i].tobytes() == \
                cross_correlation(x[i], y[i], max_lag).values.tobytes()


def serial_ccf(x, y, max_lag):
    """The CCF as one ``pearson_rows`` call per lag, in the calling thread."""
    n = x.shape[1]
    return np.stack([pearson_rows(x[:, : n - k], y[:, k:]) if k >= 0
                     else pearson_rows(x[:, -k:], y[:, : n + k])
                     for k in range(-max_lag, max_lag + 1)], axis=1)


class TestCcfThreads:
    """cross_correlation fills the negative lags on one helper thread; the
    values are the serial per-lag ones and no thread outlives the call."""

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(stacked_series(rows=st.sampled_from([0, 1, 2, 3, 7])))
    def test_equals_serial_pearson_rows_per_lag(self, case):
        x, y, max_lag = case
        before = threading.active_count()
        values = cross_correlation(x, y, max_lag).values
        assert threading.active_count() == before
        assert values.tobytes() == serial_ccf(x, y, max_lag).tobytes()

    def test_overflow_redo_rows_equal_serial(self):
        # a finite pair whose row sums overflow, among ordinary rows: each lag
        # takes pearson_rows' redo on the rows times 2**-11
        B1, B2 = simulate_batch(ContextMatrix(1, 1, 1, 1),
                                ModelParams(influence=1.0, turns=1107), [42])
        rng = np.random.default_rng(31)
        x = np.vstack([rng.normal(size=(2, 1108)), B1, rng.normal(size=(1, 1108))])
        y = np.vstack([rng.normal(size=(2, 1108)), B2, rng.normal(size=(1, 1108))])
        values = cross_correlation(x, y, 20).values
        assert np.isfinite(values).all()
        assert values.tobytes() == serial_ccf(x, y, 20).tobytes()

    def test_negative_lags_run_on_one_helper_thread(self, monkeypatch):
        # the integer part of a segment's first sample is the segment's start
        x = np.arange(40.0)[None, :]
        y = x + np.arange(40) % 3 / 4
        threads, real = {}, pearson_rows

        def recording(seg_x, seg_y, scratch=None):
            threads[int(seg_y[0, 0]) - int(seg_x[0, 0])] = threading.get_ident()
            return real(seg_x, seg_y, scratch)

        monkeypatch.setattr(metrics_mod, "pearson_rows", recording)
        values = cross_correlation(x, y, 4).values
        assert values.tobytes() == serial_ccf(x, y, 4).tobytes()
        assert sorted(threads) == list(range(-4, 5))
        helper = {threads[k] for k in range(-4, 0)}
        assert len(helper) == 1 and threading.get_ident() not in helper
        assert {threads[k] for k in range(5)} == {threading.get_ident()}

    @pytest.mark.parametrize("failing", ["negative", "positive"])
    def test_an_error_on_either_thread_is_raised_and_joined(self, monkeypatch, failing):
        x = np.arange(40.0)  # a negative lag's x segment starts past sample 0
        y = np.random.default_rng(7).normal(size=40)
        real = pearson_rows

        def raising(seg_x, seg_y, scratch=None):
            if (seg_x[0, 0] > 0) == (failing == "negative"):
                raise RuntimeError(f"{failing} lag")
            return real(seg_x, seg_y, scratch)

        monkeypatch.setattr(metrics_mod, "pearson_rows", raising)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^{failing} lag$"):
            cross_correlation(x, y, 3)
        assert threading.active_count() == before


class TestTurnLags:
    @pytest.mark.parametrize("max_lag,counts,message", [
        (1, np.arange(1, 6), "counts must have 2 * max_lag + 1 = 3 entries on its last axis, "
                             "found shape (5,)"),
        (2, np.ones(3, dtype=int), "counts must have 2 * max_lag + 1 = 5 entries on its last "
                                   "axis, found shape (3,)"),
        (0, np.array([5]), "max_lag must be >= 1"),
        ("1", np.ones(3, dtype=int), "max_lag must be an integer, got '1'"),
    ], ids=["long", "short", "zero-lag", "str-lag"])
    def test_distribution_off_the_lag_axis_rejected(self, max_lag, counts, message):
        # accepted, lag_csv_text wrote 3 of the 5 counts of the first case
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LagDistribution(max_lag=max_lag, counts=counts, total_events=int(counts.sum()))

    @pytest.mark.parametrize("total", [-5, 3, 5, 4.0, True, "4"],
                             ids=["negative", "below", "above", "float", "bool", "str"])
    def test_total_other_than_the_counts_sum_rejected(self, total):
        # accepted, lag_csv_text wrote a rel_freq of -0.2 for -5, and frequencies
        # summing past 1 for a total below the counts' sum
        message = f"total_events must be the integer sum of counts, 4, got {total!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LagDistribution(max_lag=1, counts=np.array([1, 2, 1]), total_events=total)
        dist = LagDistribution(max_lag=1, counts=np.array([1, 2, 1]), total_events=np.int64(4))
        assert type(dist.total_events) is int and dist.total_events == 4

    def test_identical_series_all_zero_lags(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=100)
        dist = turn_lags(x, x, LagSpec(max_lag=5))
        assert dist.counts[5] == dist.total_events > 0
        assert dist.lags[np.argmax(dist.counts)] == 0

    def test_shifted_impulse_train_mode(self):
        # one on-sample per period of 10; y delayed by 3 -> every lag is +3
        n = 100
        x = np.zeros(n)
        x[::10] = 1.0
        y = np.zeros(n)
        y[3::10] = 1.0
        dist = turn_lags(x, y, LagSpec(max_lag=20))
        assert dist.lags[np.argmax(dist.counts)] == 3
        expected_counts, expected_total = brute_force_lags(x, y, 20)
        assert np.array_equal(dist.counts, expected_counts)
        assert dist.total_events == expected_total

    def test_equidistant_tie_resolves_positive(self):
        x = np.zeros(11)
        x[5] = 1.0
        y = np.zeros(11)
        y[2] = 1.0
        y[8] = 1.0
        dist = turn_lags(x, y, LagSpec(max_lag=10))
        assert dist.total_events == 1
        assert dist.counts[10 + 3] == 1  # lag +3, not -3

    def test_constant_series_empty_distribution(self):
        dist = turn_lags(np.ones(50), np.random.default_rng(0).normal(size=50), LagSpec())
        assert dist.total_events == 0
        assert dist.counts.sum() == 0

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_zero_length_series_empty_distribution(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = turn_lags(np.zeros(shape), np.zeros(shape), LagSpec(max_lag=4))
        assert dist.total_events == 0
        assert dist.counts.tolist() == [0] * 9

    def test_events_beyond_max_lag_discarded(self):
        x = np.zeros(50)
        x[0] = 1.0
        y = np.zeros(50)
        y[30] = 1.0
        dist = turn_lags(x, y, LagSpec(max_lag=5))
        assert dist.total_events == 0

    def test_matches_brute_force_on_random_series(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(10, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            max_lag = int(rng.integers(1, 8))
            dist = turn_lags(x, y, LagSpec(max_lag=max_lag))
            counts, total = brute_force_lags(x, y, max_lag)
            assert np.array_equal(dist.counts, counts)
            assert dist.total_events == total

    def test_counts_sum_and_rel_freq(self):
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=80), rng.normal(size=80)
        dist = turn_lags(x, y, LagSpec(max_lag=10))
        assert dist.counts.sum() == dist.total_events
        if dist.total_events:
            assert dist.rel_freq.sum() == pytest.approx(1.0)


class TestStackedTurnLags:
    @settings(deadline=None, max_examples=200)
    @given(
        # few distinct values: constant rows (no on-states) and equidistant ties
        pairs=st.integers(min_value=1, max_value=30).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.lists(st.sampled_from([0.0, 0.0, 1.0]), min_size=n,
                                     max_size=n)] * 2),
                max_size=5,
            ).map(lambda rows: (n, rows))
        ),
        max_lag=st.integers(min_value=1, max_value=40),
    )
    def test_stacked_counts_equal_sum_of_rows(self, pairs, max_lag):
        n, rows = pairs
        x = np.array([row_x for row_x, _ in rows]).reshape(len(rows), n)
        y = np.array([row_y for _, row_y in rows]).reshape(len(rows), n)
        spec = LagSpec(max_lag=max_lag)
        stacked = turn_lags(x, y, spec)
        counts = np.zeros(2 * max_lag + 1, dtype=int)
        total = 0
        for row_x, row_y in zip(x, y):
            dist = turn_lags(row_x, row_y, spec)
            counts += dist.counts
            total += dist.total_events
        assert np.array_equal(stacked.counts, counts)
        assert stacked.total_events == total

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            turn_lags(np.zeros((2, 5)), np.zeros((2, 6)))

    def test_fortran_stack_counts_equal_sum_of_rows(self):
        # row 1 sums to 0 in exact arithmetic: its pairwise sum is -1.1e-17,
        # a column-order sum +1.7e-17, and its 0.0 samples lie in between
        x = np.round(np.random.default_rng(132).normal(size=(2, 40)), 1)
        spec = LagSpec(max_lag=3)
        rows = [turn_lags(row, row, spec) for row in x]
        for stack in (np.asfortranarray(x), x):
            dist = turn_lags(stack, stack, spec)
            assert np.array_equal(dist.counts, sum(row.counts for row in rows))
            assert dist.total_events == sum(row.total_events for row in rows) == 44

    @pytest.mark.parametrize("m, n", [(1, 7), (4, 30), (3, 2)])
    def test_lags_at_and_beyond_the_series_length(self, m, n):
        rng = np.random.default_rng(m * n)
        x, y = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        for max_lag in sorted({1, max(1, n - 2), max(1, n - 1), n, n + 1, 2 * n, 5 * n + 3}):
            counts, total = np.zeros(2 * max_lag + 1, dtype=int), 0
            for row_x, row_y in zip(x, y):
                row_counts, row_total = brute_force_lags(row_x, row_y, max_lag)
                counts, total = counts + row_counts, total + row_total
            dist = turn_lags(x, y, LagSpec(max_lag=max_lag))
            assert np.array_equal(dist.counts, counts) and dist.total_events == total

    def test_memory_does_not_grow_with_max_lag(self):
        # beyond the lags a row can hold, a larger max_lag adds its counts only
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=(100, 501)), rng.normal(size=(100, 501))
        peaks = {}
        for max_lag in (20, 50_000):
            tracemalloc.start()
            try:
                turn_lags(x, y, LagSpec(max_lag=max_lag))
                peaks[max_lag] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[50_000] < peaks[20] + 2 * 8 * (2 * 50_000 + 1)

    @pytest.mark.parametrize(
        "max_lag", [2**59 - 1, 2**62, 10**29, 10**400],
        ids=["2**59-1", "2**62", "10**29", "10**400"],
    )
    def test_max_lag_beyond_an_array_index_rejected(self, max_lag):
        with pytest.raises(ValueError, match=r"^max_lag must be at most 576460752303423486$"):
            LagSpec(max_lag=max_lag)

    def test_rows_whose_mean_overflows_count_as_rescaled(self):
        # the finite runs of the diverging lag panel of `lags --influence 1.0
        # --turns 1109 --runs 30 --context=1,1;1,1`: several sum past the
        # double limit.  A power-of-two rescale moves no comparison with the
        # mean, so the lags must equal those of the rows times 2**-600,
        # whose means are finite; an overflow warning fails the test.
        context = next(c for c in enumerate_contexts() if c.as_tuple() == (1, 1, 1, 1))
        params = ModelParams(influence=1.0, turns=1109)
        config = SweepConfig(master_seed=42, runs_per_context=30, params=params)
        _, _, B1, B2, finite = next(context_batches(config, [context]))
        x, y = B1[finite], B2[finite]
        with np.errstate(over="ignore"):
            assert np.isinf(x.mean(axis=1)).sum() >= 1
        spec = LagSpec(max_lag=20)
        got = turn_lags(x, y, spec)
        want = turn_lags(x * 2.0**-600, y * 2.0**-600, spec)
        assert np.array_equal(got.counts, want.counts)
        assert got.total_events == want.total_events > 0


class TestHistogram:
    def test_boundary_convention(self):
        hist = histogram([-1.0, 0.0, 1.0], 2, -1.0, 1.0)
        assert list(hist.counts) == [1, 2]
        assert hist.overflow == 0

    def test_final_bin_right_closed(self):
        hist = histogram([1.0], 4, -1.0, 1.0)
        assert hist.counts[-1] == 1

    def test_empty_input(self):
        hist = histogram([], 5, 0.0, 1.0)
        assert hist.counts.sum() == 0
        assert hist.overflow == 0

    def test_overflow_counted(self):
        hist = histogram([-2.0, 0.5, 3.0, np.nan], 2, -1.0, 1.0)
        assert hist.counts.sum() == 1
        assert hist.overflow == 3

    def test_counts_plus_overflow_equals_input(self):
        rng = np.random.default_rng(14)
        values = rng.normal(0, 2, 500)
        hist = histogram(values, 10, -1.0, 1.0)
        assert hist.counts.sum() + hist.overflow == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([1.0], 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            histogram([1.0], 2, 1.0, 1.0)
        inf, nan = float("inf"), float("nan")
        cases = ((0.0, inf), (-inf, 1.0), (-inf, inf), (nan, 1.0), (0.0, nan), (-1e308, 1e308))
        for lo, hi in cases:
            with pytest.raises(ValueError, match=r"^need finite lo < hi"):
                histogram([0.0, 0.5], 2, lo, hi)

    @pytest.mark.parametrize("bad", ["0", False, True, np.True_, None],
                             ids=["str", "False", "True", "np.True_", "None"])
    def test_range_ends_must_be_real_numbers(self, bad):
        for name, lo, hi in (("lo", bad, 2.0), ("hi", -1.0, bad)):
            with pytest.raises(ValueError) as caught:
                histogram([0.5], 2, lo, hi)
            assert str(caught.value) == f"{name} must be a real number, got {bad!r}"

    def test_numpy_range_ends_are_taken(self):
        hist = histogram([0.5], 2, np.float32(0.0), np.int64(1))
        assert (hist.lo, hist.hi, hist.counts.tolist()) == (0.0, 1.0, [0, 1])

    @pytest.mark.parametrize(
        "bin_count", [2**60 - 1, 2**63, 10**29, 10**400],
        ids=["2**60-1", "2**63", "10**29", "10**400"],
    )
    def test_bin_count_beyond_an_array_index_rejected(self, bin_count):
        with pytest.raises(ValueError, match=r"^bin_count must be at most 1152921504606846974$"):
            histogram([0.0], bin_count, -1.0, 1.0)

    def test_bin_width_underflow_rejected(self):
        # 5e-324 is the least subnormal, so half of it rounds to 0
        with pytest.raises(ValueError, match=r"^bin width \(hi - lo\) / bin_count underflows"):
            histogram([0.0], 2, 0.0, 5e-324)
        assert histogram([0.0, 5e-324], 1, 0.0, 5e-324).counts.tolist() == [2]


class TestCsvEmitters:
    def test_ccf_csv_shape(self):
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=60), rng.normal(size=60)
        agg = aggregate_ccf([cross_correlation(x, y, 2)] * 2)
        text = ccf_csv_text(agg)
        lines = text.strip().split("\n")
        assert lines[0] == "lag,mean,sd,n_defined"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "-2"

    def test_lag_csv_round_trip_values(self):
        dist = LagDistribution(max_lag=1, counts=np.array([1, 2, 1]), total_events=4)
        lines = lag_csv_text(dist).strip().split("\n")
        assert lines[0] == "lag,count,rel_freq"
        parsed = [line.split(",") for line in lines[1:]]
        assert [int(p[1]) for p in parsed] == [1, 2, 1]
        assert sum(float(p[2]) for p in parsed) == pytest.approx(1.0)

    def test_histogram_csv(self):
        hist = histogram([-1.0, 0.0, 1.0], 2, -1.0, 1.0)
        lines = histogram_csv_text(hist).strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert lines[1].split(",")[0] == "-1.0"
        assert lines[2].split(",")[2] == "2"
