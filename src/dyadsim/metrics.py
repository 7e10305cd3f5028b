"""Time-series coordination measures.

Pearson correlation, lagged cross-correlation functions with per-lag
overlap normalization, turn-taking lag distributions based on above-mean
"on" states, and fixed-range histograms.  All functions are pure and
reentrant; series are 1-D float arrays (or anything ``np.asarray`` accepts).
"""

import math
from dataclasses import dataclass

import numpy as np

from dyadsim.dynamics import _checked_float, _checked_int, _integer

__all__ = [
    "UndefinedCorrelationError",
    "pearson_r",
    "CcfResult",
    "cross_correlation",
    "CcfAggregate",
    "aggregate_ccf",
    "LagSpec",
    "LagDistribution",
    "turn_lags",
    "HistogramResult",
    "histogram",
]


class UndefinedCorrelationError(ValueError):
    """Correlation undefined (a series has zero variance or a non-finite value)."""


def _scaled_down(rows) -> np.ndarray:
    """The (m, n) ``rows`` times 2**-e, where n < 2**e: exact unless a sample
    underflows, and a finite row's sum and deviations from its mean stay finite."""
    return np.ldexp(rows, -np.frexp(rows.shape[1])[1])


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # huge, non-finite or constant rows overflow, meet inf - inf or 0 / 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xm = x - x.mean(axis=1, keepdims=True)
        ym = y - y.mean(axis=1, keepdims=True)
        # one C-contiguous buffer for |deviation| and the three row sums: the
        # pairwise sum over a contiguous row gives the same bits every time
        products = np.empty(xm.shape)
        xs = np.abs(xm, out=products).max(axis=1)
        ys = np.abs(ym, out=products).max(axis=1)
        xm /= xs[:, None]
        ym /= ys[:, None]
        num = np.multiply(xm, ym, out=products).sum(axis=1)
        sxx = np.multiply(xm, xm, out=products).sum(axis=1)
        den = np.sqrt(sxx * np.multiply(ym, ym, out=products).sum(axis=1))
        r = np.clip(num / den, -1.0, 1.0)
    r[~((xs > 0) & (ys > 0))] = np.nan
    return r


def pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise sample Pearson r for paired (m, n) arrays.

    Returns an (m,) array with nan marking undefined rows (zero variance or
    non-finite input).  Each row is centered and rescaled by its max
    absolute deviation before the dot products, so series spanning hundreds
    of orders of magnitude (diverging trajectories) stay in range.  That
    maximum is one row reduction over ``abs`` of the deviations, taken in
    the buffer that then holds the products of the three row sums.  Every
    row goes through the same arithmetic, and an undefined row's r is then
    set to nan.  A finite row whose sum or deviations overflow comes out nan
    that way, so each all-finite pair that does is computed again on its
    rows times 2**-e, where n < 2**e; r does not depend on that scale.  Row
    results do not depend on which other rows are present, which keeps
    batched and one-at-a-time evaluation bitwise identical.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = _pearson_rows(x, y)
    redo = np.flatnonzero(np.isnan(r))
    if redo.size:
        redo = redo[np.isfinite(x[redo]).all(axis=1) & np.isfinite(y[redo]).all(axis=1)]
        r[redo] = _pearson_rows(_scaled_down(x[redo]), _scaled_down(y[redo]))
    return r


def pearson_r(x, y) -> float:
    """Sample Pearson correlation coefficient of two equal-length series.

    Parameters
    ----------
    x, y : array-like
        Series of equal length >= 2.

    Returns
    -------
    float in [-1, 1].

    Raises
    ------
    UndefinedCorrelationError
        If either series holds a nan or inf ("non-finite value") or has zero
        variance, so the coefficient is undefined; callers that tabulate
        results should record an undefined marker instead.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise ValueError("pearson_r needs two 1-D series of equal length")
    if len(x) < 2:
        raise ValueError("pearson_r needs length >= 2")
    r = pearson_rows(x[None, :], y[None, :])[0]
    if np.isnan(r):
        finite = np.isfinite(x).all() and np.isfinite(y).all()
        cause = "zero variance" if finite else "non-finite value"
        raise UndefinedCorrelationError(f"correlation undefined: {cause}")
    return float(r)


class _LagAxis:
    """The ``lags`` property, and the check of its length, of a result over
    lags -max_lag..+max_lag."""

    @property
    def lags(self) -> np.ndarray:
        return np.arange(-self.max_lag, self.max_lag + 1)

    def _check_lag_axis(self, name: str) -> None:
        """Store ``max_lag`` as a count (:func:`_checked_int`), or raise
        ``ValueError`` unless the last axis of field ``name`` holds one entry
        per lag, naming both lengths."""
        object.__setattr__(self, "max_lag", _checked_int("max_lag", self.max_lag))
        shape, lags = np.shape(getattr(self, name)), 2 * self.max_lag + 1
        if not shape or shape[-1] != lags:
            raise ValueError(f"{name} must have 2 * max_lag + 1 = {lags} entries on its last "
                             f"axis, found shape {shape}")


@dataclass(frozen=True)
class CcfResult(_LagAxis):
    """Cross-correlation function over lags -max_lag..+max_lag.

    Sign convention: at positive lag k the value is the correlation of
    x[0:n-k] with y[k:n], i.e. Person 2's series lags Person 1's (Person 1
    leads).  ``values[max_lag]`` (k = 0) equals the plain Pearson r of the
    aligned series.  Undefined lags are nan.  A stacked result holds one CCF
    per row, and ``value`` reads a single series' CCF only.  ``max_lag`` must
    be an integer >= 1 and the last axis of ``values`` must hold
    2 * max_lag + 1 entries, else ``ValueError``.
    """

    max_lag: int
    values: np.ndarray

    def __post_init__(self):
        self._check_lag_axis("values")

    def value(self, k: int) -> float:
        if not -self.max_lag <= k <= self.max_lag:
            raise ValueError(f"lag {k} outside +-{self.max_lag}")
        return float(self.values[k + self.max_lag])


def _check_ccf_length(n: int, max_lag: int, given: str = "") -> None:
    """``ValueError`` ending in ``given`` unless ``n`` samples allow lags to ``max_lag``."""
    bound = 2 * max_lag + 2
    if n <= bound:
        raise ValueError(f"need length > {bound}, got {n}{given}")


def cross_correlation(x, y, max_lag: int) -> CcfResult:
    """Lagged Pearson cross-correlation of two series, or of stacked pairs.

    Each lag's value is a true Pearson coefficient of the overlapping
    segments, normalized by the means and variances of those segments
    alone.  A zero-variance overlap yields nan at that lag only.

    Parameters
    ----------
    x, y : array-like
        Equal-length series with ``len > 2 * max_lag + 2``, or (m, n)
        stacks of such series; ``values`` is then (m, 2 * max_lag + 1), and
        row i is bitwise the CCF of ``x[i]`` and ``y[i]``.
    max_lag : int
        Largest lag magnitude, >= 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    max_lag = _checked_int("max_lag", max_lag)
    if x.ndim not in (1, 2):
        raise ValueError("cross_correlation needs 1-D series or (m, n) stacks")
    if y.shape != x.shape:
        raise ValueError("series lengths differ")
    n = x.shape[-1]
    _check_ccf_length(n, max_lag)
    rows_x, rows_y = np.atleast_2d(x), np.atleast_2d(y)
    values = np.empty((len(rows_x), 2 * max_lag + 1))
    for k in range(-max_lag, max_lag + 1):
        if k >= 0:
            seg_x, seg_y = rows_x[:, : n - k], rows_y[:, k:]
        else:
            seg_x, seg_y = rows_x[:, -k:], rows_y[:, : n + k]
        values[:, k + max_lag] = pearson_rows(seg_x, seg_y)
    return CcfResult(max_lag=max_lag, values=values[0] if x.ndim == 1 else values)


@dataclass(frozen=True)
class CcfAggregate(_LagAxis):
    """Per-lag mean/SD over a batch of CCFs, with defined-value counts: an
    integer ``max_lag`` >= 1 and 2 * max_lag + 1 entries in each of ``mean``,
    ``sd`` and ``n_defined``, else ``ValueError``."""

    max_lag: int
    mean: np.ndarray
    sd: np.ndarray
    n_defined: np.ndarray

    def __post_init__(self):
        for name in ("mean", "sd", "n_defined"):
            self._check_lag_axis(name)


def aggregate_ccf(results: list[CcfResult]) -> CcfAggregate:
    """Per-lag arithmetic mean and sample SD over defined CCF values.

    All results must share ``max_lag``.  A result holds one CCF or a stack
    of them, and at least two CCFs are required in all.  Lags where fewer
    than one (mean) or two (SD) values are defined come out nan, and the
    count of defined entries is reported per lag.
    """
    blocks = [np.atleast_2d(res.values) for res in results]
    if sum(len(block) for block in blocks) < 2:
        raise ValueError("aggregate_ccf needs at least 2 results")
    max_lag = results[0].max_lag
    if any(res.max_lag != max_lag for res in results):
        raise ValueError("aggregate_ccf: mixed max_lag values")
    stack = np.vstack(blocks)
    defined = np.isfinite(stack)
    n_def = defined.sum(axis=0)
    mean = np.full(stack.shape[1], np.nan)
    sd = np.full(stack.shape[1], np.nan)
    for j in range(stack.shape[1]):
        col = stack[defined[:, j], j]
        if len(col) >= 1:
            mean[j] = col.mean()
        if len(col) >= 2:
            sd[j] = col.std(ddof=1)
    return CcfAggregate(max_lag=max_lag, mean=mean, sd=sd, n_defined=n_def)


# the most bins, and lags on either side, whose 8-byte counts and bin_count + 1
# float edges numpy can size in bytes
_MAX_BINS = np.iinfo(np.intp).max // 8 - 1
_MAX_LAG = (_MAX_BINS - 1) // 2


@dataclass(frozen=True)
class LagSpec:
    """Turn-lag extraction settings; on-states are samples strictly above
    the series' own mean (fixed rule)."""

    max_lag: int = 20

    def __post_init__(self):
        max_lag = _checked_int("max_lag", self.max_lag)
        if max_lag > _MAX_LAG:
            raise ValueError(f"max_lag must be at most {_MAX_LAG}")
        object.__setattr__(self, "max_lag", max_lag)


@dataclass(frozen=True)
class LagDistribution(_LagAxis):
    """Counts of signed nearest-on-state lags in [-max_lag, +max_lag]: an
    integer ``max_lag`` >= 1, 2 * max_lag + 1 ``counts`` and a ``total_events``
    that is the integer sum of the counts, else ``ValueError``."""

    max_lag: int
    counts: np.ndarray
    total_events: int

    def __post_init__(self):
        self._check_lag_axis("counts")
        total, expected = _integer(self.total_events), int(np.sum(self.counts))
        if total != expected:
            raise ValueError(f"total_events must be the integer sum of counts, {expected}, "
                             f"got {self.total_events!r}")
        object.__setattr__(self, "total_events", total)

    @property
    def rel_freq(self) -> np.ndarray:
        if self.total_events == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / self.total_events


def _above_mean(rows) -> np.ndarray:
    """Whether each sample of the (m, n) ``rows`` exceeds its row's mean.

    A finite row whose sum overflows is compared after the exact rescale of
    :func:`_scaled_down`, which keeps its sum finite and leaves every
    comparison as it would be without the overflow.  The mean is the row's
    sum over n, as ``mean`` computes it; for n = 0 it is nan, with no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.sum(axis=1, keepdims=True) / rows.shape[1]
    above = rows > mean
    big = np.isinf(mean[:, 0])
    if big.any():
        big &= np.isfinite(rows).all(axis=1)
        scaled = _scaled_down(rows[big])
        above[big] = scaled > scaled.mean(axis=1, keepdims=True)
    return above


def turn_lags(x, y, spec: LagSpec = LagSpec()) -> LagDistribution:
    """Distribution of lags from x's on-states to the nearest y on-state.

    A sample is "on" when strictly above its own series' mean.  Every on
    sample of ``x`` at time t is an event; the lag recorded is t' - t for
    the on sample t' of ``y`` minimizing |t' - t|, with equidistant ties
    resolved toward positive lag.  Events whose nearest |lag| exceeds
    ``spec.max_lag`` are discarded.  If either series has no on-states the
    distribution is empty (total_events = 0).  ``x`` and ``y`` may also be
    (m, n) stacks of series pairs; the result then merges the m pairs'
    distributions (counts and events summed), and each row's mean is its
    own series' mean.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("turn_lags needs 1-D series or (m, n) stacks")
    if x.shape != y.shape:
        raise ValueError("series lengths differ")
    max_lag = spec.max_lag
    rows_x, rows_y = np.atleast_2d(x), np.atleast_2d(y)
    n = x.shape[-1]
    # no lag inside a row exceeds n - 1, so lags beyond reach are another row's
    reach = min(max_lag, n)
    # one time axis for all rows: row i's sample t sits at i * (2n + reach) + t,
    # so an on-state of another row is farther than any of its own and than reach
    on = np.zeros((2, len(rows_x), 2 * n + reach), dtype=bool)
    on[0, :, :n] = _above_mean(rows_x)
    on[1, :, :n] = _above_mean(rows_y)
    on_x = np.flatnonzero(on[0])
    # end sentinels farther than reach from every event give each event an
    # on-state of y on both sides
    on_y = np.concatenate(([-reach - 1], np.flatnonzero(on[1]), [on[1].size]))
    # each array below is as long as the events: free or reuse them in turn,
    # since a figure group of long series stays allocated meanwhile
    del on
    pos = np.searchsorted(on_y, on_x)
    ahead = on_y[pos]
    ahead -= on_x
    pos -= 1
    behind = on_y[pos]  # minus the distance to the on-state behind
    behind -= on_x
    del pos, on_x
    # ties go to the on-state ahead (positive lag)
    lag = np.where(ahead <= -behind, ahead, behind)
    lag = lag[np.abs(lag) <= reach]
    counts = np.bincount(lag + max_lag, minlength=2 * max_lag + 1)
    return LagDistribution(max_lag=max_lag, counts=counts, total_events=len(lag))


HISTOGRAM_BINS = 40  # the r histogram's default bin count over [-1, 1]


@dataclass(frozen=True)
class HistogramResult:
    """Fixed-range uniform-bin counts plus an out-of-range overflow count."""

    lo: float
    hi: float
    counts: np.ndarray
    overflow: int

    @property
    def bin_count(self) -> int:
        return len(self.counts)

    @property
    def edges(self) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * np.arange(self.bin_count + 1) / self.bin_count


def histogram(values, bin_count: int, lo: float, hi: float) -> HistogramResult:
    """Count values into uniform bins over [lo, hi].

    Bins are left-closed/right-open except the final bin, which also
    includes ``hi``.  Values outside the range (including nan) land in the
    overflow count, never in a bin.
    """
    bin_count = _checked_int("bin_count", bin_count)
    if bin_count > _MAX_BINS:
        raise ValueError(f"bin_count must be at most {_MAX_BINS}")
    lo, hi = _checked_float("lo", lo), _checked_float("hi", hi)
    if not (lo < hi and math.isfinite(hi - lo)):  # an infinite width bins every value in bin 0
        raise ValueError(f"need finite lo < hi and hi - lo, got lo={lo}, hi={hi}")
    values = np.asarray(values, dtype=float).ravel()
    with np.errstate(invalid="ignore"):
        inside = (values >= lo) & (values <= hi)
    overflow = int((~inside).sum())
    width = (hi - lo) / bin_count
    if width == 0.0:
        raise ValueError(f"bin width (hi - lo) / bin_count underflows to 0: lo={lo}, hi={hi}, "
                         f"bin_count={bin_count}")
    idx = np.floor((values[inside] - lo) / width).astype(int)
    counts = np.bincount(np.minimum(idx, bin_count - 1), minlength=bin_count)
    return HistogramResult(lo=lo, hi=hi, counts=counts, overflow=overflow)

