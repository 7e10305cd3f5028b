"""Dummy coding, regression models over the sweep, and chi-square tests.

Each ternary context parameter is coded as two binary indicators (positive
level, negative level) with 0 as the reference.  The regression models
predict a run's correlation r from those indicators and their cross
parameter products:

* model 1 -- the 8 main-effect indicators;
* model 2 -- the interaction model: the 8 mains plus the 24 unique
  cross-parameter products (pair products counted once; an ordered count
  would give 48, which is what ``k_nominal`` records);
* model 3 -- the overall model, the union of models 1 and 2 (identical
  column set to model 2, so it is fitted once and reported twice);
* model 4 -- initiator-focused: Person 1's influence mains (s1, o2) plus
  all interactions;
* model 5 -- self-influence: both self mains (s1, s2) plus all
  interactions.

``ModelSpec.k_nominal`` is the conventional parameter count of each model
(8/48/56/28/28); ``FitResult.k_effective`` is the rank actually estimated.

The chi-square p-values are Q(df/2, x/2), computed in pure Python so that
the runtime needs numpy only.  The report's two tests have df = 1, whose
Q(1/2, y) is a port of Cephes' ``igamc`` (the code behind scipy's
``gammaincc``) and matches it bit for bit, given the same C library
``log``, ``exp`` and ``pow``.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from dyadsim.dynamics import ContextMatrix, _checked_float, _integer
from dyadsim.sweep import enumerate_contexts

__all__ = [
    "DummyEncoding",
    "encode_dummies",
    "INDICATOR_NAMES",
    "INTERACTION_NAMES",
    "ModelSpec",
    "model_spec",
    "MODEL_IDS",
    "Design",
    "build_design",
    "FitResult",
    "fit_least_squares",
    "Chi2Result",
    "chi2_gof",
    "chi2_two_proportion",
    "chi2_upper_tail",
]

_PARAMS = ("s1", "o1", "o2", "s2")
# two indicators per parameter: p for +1, n for -1 (0 is the reference)
INDICATOR_NAMES = tuple(param + level for param in _PARAMS for level in "pn")

# 24 unique cross-parameter products in canonical order
INTERACTION_NAMES = tuple(
    f"{a}{sa}:{b}{sb}" for a, b in itertools.combinations(_PARAMS, 2) for sa in "pn" for sb in "pn"
)


@dataclass(frozen=True)
class DummyEncoding:
    """Eight binary indicators; for each parameter at most one of p/n is 1."""

    s1p: int
    s1n: int
    o1p: int
    o1n: int
    o2p: int
    o2n: int
    s2p: int
    s2n: int

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in INDICATOR_NAMES], dtype=float)


def encode_dummies(context: ContextMatrix) -> DummyEncoding:
    """Dummy-code a context: Xp = [value == +1], Xn = [value == -1]."""
    return DummyEncoding(*(int(value == sign) for value in context.as_tuple() for sign in (1, -1)))


@dataclass(frozen=True)
class ModelSpec:
    """Column recipe for one regression model: mains, then interactions (intercept added)."""

    model_id: int
    name: str
    columns: tuple
    k_nominal: int


# model 3 is the union of the model-1 and model-2 column sets
_MODELS = {
    spec.model_id: spec
    for spec in (
        ModelSpec(1, "main-effects", INDICATOR_NAMES, 8),
        ModelSpec(2, "interactions", INDICATOR_NAMES + INTERACTION_NAMES, 48),
        ModelSpec(3, "overall", INDICATOR_NAMES + INTERACTION_NAMES, 56),
        ModelSpec(4, "initiator-focused", ("s1p", "s1n", "o2p", "o2n") + INTERACTION_NAMES, 28),
        ModelSpec(5, "self-influence", ("s1p", "s1n", "s2p", "s2n") + INTERACTION_NAMES, 28),
    )
}
MODEL_IDS = tuple(_MODELS)


def model_spec(model_id: int) -> ModelSpec:
    """Canonical column recipe for regression models 1-5."""
    try:
        return _MODELS[_integer(model_id)]
    except KeyError:
        raise ValueError(f"unknown model id {model_id!r}") from None


def _cell_terms() -> dict:
    """Each main and product term's (81,) column, one entry per context in
    enumeration order."""
    indicators = np.vstack([encode_dummies(ctx).as_array() for ctx in enumerate_contexts()])
    terms = dict(zip(INDICATOR_NAMES, indicators.T))
    for name in INTERACTION_NAMES:
        left, right = name.split(":")
        terms[name] = terms[left] * terms[right]
    return terms


_CELL_TERMS = _cell_terms()


@dataclass(frozen=True)
class Design:
    """Regression design: predictor matrix, response and column names."""

    X: np.ndarray
    y: np.ndarray
    columns: tuple


def build_design(table, spec: ModelSpec) -> Design:
    """Design matrix and response for one model over a sweep table.

    Rows with an undefined correlation are excluded.  Predictor
    columns follow ``spec.columns``.  ``X`` is the trailing k columns of a
    Fortran-ordered (n, k + 1) buffer whose column 0 is the intercept, so
    :func:`fit_least_squares` fits that buffer without copying it.
    """
    finite = table.finite
    if not finite.any():
        raise ValueError("no finite records to regress on")
    # the (k + 1, 81) term table, intercept first, gathered by context and
    # transposed: products of 0/1 values are exact, so X equals the per-row
    # products bit for bit; np.take returns the (k + 1, n) gather C-ordered
    # (terms[:, rows] would not), so its transpose is Fortran-ordered
    terms = np.vstack([np.ones(81), *(_CELL_TERMS[term] for term in spec.columns)])
    A = np.take(terms, table.context_index[finite], axis=1).T
    return Design(X=A[:, 1:], y=table.r[finite], columns=spec.columns)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary; the paper-style count is ``ModelSpec.k_nominal``."""

    coefficients: dict
    dropped: tuple
    rss: float
    n: int
    k_effective: int
    r2: float
    adj_r2: float
    aic: float
    bic: float


def _distinct_rows(A):
    """One row per run of equal adjacent rows of ``A``, scaled by the square
    root of the run's length.

    The scaled rows have the same Gram matrix ``A.T @ A``, so a QR of them
    has the same ``|R_jj|`` and column norms up to rounding.  A sweep's
    design lists its rows context by context, so it collapses to at most 81.
    """
    starts = np.flatnonzero(np.r_[len(A) > 0, (A[1:] != A[:-1]).any(axis=1)])
    return A[starts] * np.sqrt(np.diff(np.r_[starts, len(A)]))[:, None]


def _independent_columns(A) -> list:
    """Indices of the columns of ``A`` that the rank-revealing pass of
    :func:`fit_least_squares` keeps.

    ``|R_jj|`` equals column j's residual against the columns before it
    only while those are all kept: a redundant column still takes a row of
    R and hides part of the later residuals.  So each redundant column found
    is removed and the QR repeated.
    """
    norms = np.linalg.norm(A, axis=0)
    kept = np.flatnonzero(norms > 0.0)
    while kept.size:
        diag = np.abs(np.diagonal(np.linalg.qr(A[:, kept], mode="r")))
        redundant = np.flatnonzero(diag <= 1e-10 * norms[kept[: len(diag)]])
        if not redundant.size:
            # R has min(n, columns) rows: once n kept columns span all n
            # rows, every later column is redundant
            return kept[: len(diag)].tolist()
        kept = np.delete(kept, redundant[0])
    return []


def _intercept_led(X):
    """The Fortran-ordered (n, k + 1) array whose trailing k columns are
    exactly ``X`` and whose column 0 is all 1.0, over the memory that
    ``X``'s owner holds; None when there is no such array."""
    owner = X.base
    n, k = X.shape
    if (not isinstance(owner, np.ndarray) or not owner.flags.forc
            or owner.dtype != X.dtype or owner.size != n * (k + 1)):
        return None
    # the owner's elements in memory order, as a view
    A = owner.ravel(order="K").reshape((n, k + 1), order="F")
    trailing = A[:, 1:]
    if (trailing.ctypes.data, trailing.strides) != (X.ctypes.data, X.strides):
        return None
    return A if (A[:, 0] == 1.0).all() else None


def fit_least_squares(X, y, columns=None) -> FitResult:
    """Least-squares fit of ``y`` on an intercept plus the columns of ``X``.

    ``X`` must be 2-D (n, k) and ``y`` 1-D of length n, both finite, and
    ``columns`` k distinct names other than ``"intercept"`` (default x0,
    x1, ...); otherwise ``ValueError`` names the fault.  An ``X`` that is
    the trailing k columns of a Fortran-ordered (n, k + 1) array whose
    column 0 is all 1.0, as :func:`build_design` returns it, is fitted in
    that array; any other ``X`` is first copied into a new one.

    The rank-revealing pass is an unpivoted Householder QR of the design
    (intercept first): column j is redundant, and reported as dropped, when
    it is all zero or ``|R_jj| <= 1e-10 * ||column j||``, where ``|R_jj|``
    is the norm of its residual against the retained columns before it.
    Each redundant column found is removed and the QR repeated, so a
    full-rank design takes one QR.  The QR runs on one row per run of equal
    adjacent design rows, weighted by the square root of the run's length,
    which has the same Gram matrix as the full design: a sweep's design,
    listed context by context, has at most 81 runs.
    The retained set is then solved exactly on every row, which equals the
    minimum-norm solution restricted to those columns.

    Returns r2 = 1 - rss/tss, adjusted r2, and Gaussian profile-form
    information criteria aic = n*ln(rss/n) + 2*(k_effective + 1) and
    bic = n*ln(rss/n) + ln(n)*(k_effective + 1), where k_effective counts
    retained predictor columns beyond the intercept.  A perfect fit
    (rss = 0) yields -inf for both criteria.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (n, k), got shape {X.shape}")
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError(f"y must be 1-D of length n = {n}, got shape {y.shape}")
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
    columns = tuple(f"x{j}" for j in range(k)) if columns is None else tuple(columns)
    if len(columns) != k:
        raise ValueError("column name count does not match X")
    names = ("intercept",) + columns
    for j, name in enumerate(columns, 1):
        if name in names[:j]:  # a coefficient is reported under each name
            raise ValueError(f"column name {name!r} names "
                             f"{'the intercept' if name == 'intercept' else 'two columns'}")

    # Fortran order, the layout of the A[:, retained] copy: the bits of
    # lstsq's residual depend on it.  build_design's X is already the
    # trailing columns of such an array, which is fitted as it is.
    A = _intercept_led(X)
    if A is None:
        A = np.empty((n, k + 1), order="F")
        A[:, 0] = 1.0
        A[:, 1:] = X

    retained = _independent_columns(_distinct_rows(A))
    if not retained:
        raise ValueError("rank-0 design: nothing to estimate")
    if n < len(retained) + 1:
        raise ValueError(
            f"need at least rank + 1 = {len(retained) + 1} rows, got {n}"
        )

    A_r = A if len(retained) == k + 1 else A[:, retained]
    beta, *_ = np.linalg.lstsq(A_r, y, rcond=None)
    residuals = y - A_r @ beta
    rss = float(residuals @ residuals)
    tss = float(((y - y.mean()) ** 2).sum())
    if tss == 0.0:
        raise ValueError("constant response: r2 undefined")

    coefficients = {names[j]: float(b) for j, b in zip(retained, beta)}
    dropped = tuple(names[j] for j in range(A.shape[1]) if j not in retained)
    k_eff = len(retained) - 1  # the intercept, column 0, is never redundant
    r2 = 1.0 - rss / tss
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k_eff - 1)
    if rss > 0.0:
        base = n * np.log(rss / n)
        aic = float(base + 2 * (k_eff + 1))
        bic = float(base + np.log(n) * (k_eff + 1))
    else:
        aic = bic = float("-inf")
    return FitResult(coefficients=coefficients, dropped=dropped, rss=rss, n=n, k_effective=k_eff,
                     r2=float(r2), adj_r2=float(adj_r2), aic=aic, bic=bic)


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    df: int
    p_value: float


# Cephes igamc (S. L. Moshier, after DiDonato & Morris 1986 and Temme), the
# code behind scipy.special.gammaincc, at a = 1/2.  Its constants are
# Cephes values: lgam(0.5) and lgam1p(0.5) are 1 ulp off math.lgamma, and
# the expm1 on |t| <= 0.5 is the EP/EQ rational, not the C library's.
_MACHEP = 2.0 ** -53
_MAXLOG = 7.09782712893383996843e2
_BIG = 4.503599627370496e15
_BIGINV = 2.0 ** -52
_LGAM_HALF = 0.5723649429247
_LGAM1P_HALF = -0.12078223763524884
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_HALF = 0.8399333323251386  # sqrt(g / e) / lanczos_sum_expg_scaled(0.5)
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
            2.2726554820815502876593e-1, 2.0000000000000000000897e0)


def _cephes_expm1(t: float) -> float:
    """Cephes ``expm1`` for |t| <= 0.5, the only arguments it gets here."""
    tt = t * t
    r = t * ((_EXPM1_P[0] * tt + _EXPM1_P[1]) * tt + _EXPM1_P[2])
    r = r / (((_EXPM1_Q[0] * tt + _EXPM1_Q[1]) * tt + _EXPM1_Q[2]) * tt + _EXPM1_Q[3] - r)
    return r + r


def _q_half(y: float) -> float:
    """Q(1/2, y) for y >= 0, bit for bit Cephes ``igamc(0.5, y)``.

    At a = 1/2 igamc takes one of three branches (its asymptotic series
    needs a > 20), each written out here operation for operation.
    """
    if y == 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    log_y = math.log(y)
    if y > 1.1:
        # continued fraction, DLMF 8.9.2
        ax = 0.5 * log_y - y - _LGAM_HALF
        if ax < -_MAXLOG:
            return 0.0
        ax = math.exp(ax)
        b, z, c = 0.5, y + 0.5 + 1.0, 0.0  # b = 1 - a, z = y + b + 1
        pkm2, pkm1, qkm2, qkm1 = 1.0, y + 1.0, y, z * y
        ans = pkm1 / qkm1
        for _ in range(2000):
            c += 1.0
            b += 1.0
            z += 2.0
            bc = b * c
            pk = pkm1 * z - pkm2 * bc
            qk = qkm1 * z - qkm2 * bc
            if qk != 0:
                r = pk / qk
                t = abs((ans - r) / r)
                ans = r
            else:
                t = 1.0
            pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
            if abs(pk) > _BIG:
                pkm2, pkm1, qkm2, qkm1 = (v * _BIGINV for v in (pkm2, pkm1, qkm2, qkm1))
            if t <= _MACHEP:
                break
        return ans * ax
    if y <= 0.5 and -0.4 / log_y < 0.5:
        # 1 - P(1/2, y) by the power series, DLMF 8.11.4; the prefactor
        # y**a e**-y / Gamma(a) takes the Lanczos form near y = a
        if abs(0.5 - y) > 0.2:
            ax = math.exp(0.5 * log_y - y - _LGAM_HALF)
        else:
            ax = _LANCZOS_HALF * (math.exp(0.5 - y) * math.pow(y / _LANCZOS_G, 0.5))
        r, c, ans = 0.5, 1.0, 1.0
        for _ in range(2000):
            r += 1.0
            c *= y / r
            ans += c
            if c <= _MACHEP * ans:
                break
        return 1.0 - ans * ax / 0.5
    # the series for Q itself, DLMF 8.7.3
    fac, total = 1.0, 0.0
    for n in range(1, 2000):
        fac *= -y / n
        term = fac / (0.5 + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    return -_cephes_expm1(0.5 * log_y - _LGAM1P_HALF) - math.exp(0.5 * log_y - _LGAM_HALF) * total


def _log_term(s: float, y: float, log_y: float) -> float:
    """log(y**s e**-y / Gamma(s + 1)), a term of the chi-square tail's recurrence.

    For s >= 100 and y >= s/2 it is Stirling's form s log1p((y - s)/s) -
    (y - s) - log(2 pi s)/2 - sigma(s), whose parts are about |y - s| in
    size; the plain s log y - y - lgamma(s + 1) cancels parts of size s log y.
    Below y = s/2 a term is under 0.83**s while the sum is near 1, and
    log1p((y - s)/s) would reach -1 for a tiny y.
    """
    if s < 100.0 or 2.0 * y < s:
        return s * log_y - y - math.lgamma(s + 1.0)
    d, inv = y - s, 1.0 / s
    inv2 = inv * inv
    sigma = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680)))
    return s * math.log1p(d / s) - d - 0.5 * math.log(2.0 * math.pi * s) - sigma


def chi2_upper_tail(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square law, Q(df/2, x/2).

    df = 1 equals scipy's ``gammaincc(0.5, x / 2)`` bit for bit (see
    :func:`_q_half`).  A larger df steps up from Q(1/2, y) or
    Q(1, y) = e**-y, y = x/2, by Q(a + 1, y) = Q(a, y) + y**a e**-y / Gamma(a + 1):
    terms that underflow to 0 are skipped, and the loop stops once the
    terms, shrinking past a = y, can no longer change the sum.
    """
    if isinstance(df, bool) or not isinstance(df, numbers.Real) or not float(df).is_integer():
        raise ValueError(f"df must be an integer, got {df!r}")
    if df < 1:
        raise ValueError("df must be >= 1")
    x = _checked_float("chi-square statistic", x)
    if not x >= 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x!r}")
    y = x / 2.0
    if df % 2:
        q, a = _q_half(y), 0.5
    else:
        q, a = math.exp(-y), 1.0
    end = df / 2
    if a == end or y == 0.0 or y == math.inf:
        return q
    log_y = math.log(y)
    # the terms grow while a + 1 <= y; bisect for the first that can be
    # nonzero (exp underflows to 0 below -745.2; -800 leaves a margin)
    lo, hi = 0, int(min(end - a, max(y - a, 0.0)))
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_term(a + mid, y, log_y) < -800.0:
            lo = mid + 1
        else:
            hi = mid
    a += lo
    while a < end:
        t = math.exp(_log_term(a, y, log_y))
        q += t
        a += 1.0
        # past a = y each ratio y / (a + j) is at most y / a, so the rest
        # of the terms sum to at most t * y / (a - y)
        if a > y and q + t * y / (a - y) == q:
            break
    return q


def _check_counts(counts) -> None:
    """``ValueError`` naming the first of ``counts``, checked as given, that
    is not a finite non-negative integer (an integral float passes; a bool
    does not): the one rule for counts and group sizes."""
    for count in counts:
        if isinstance(count, bool) or not isinstance(count, numbers.Real):
            raise ValueError(f"count {count!r} is not a non-negative integer")
        if not (count >= 0 and (isinstance(count, numbers.Integral) or float(count).is_integer())):
            raise ValueError(f"count {float(count)} is not a non-negative integer")


def chi2_gof(observed, expected_probs) -> Chi2Result:
    """Pearson goodness-of-fit test of counts against given probabilities.

    ``observed`` are integer category counts; ``expected_probs`` are finite
    real numbers (a bool or a string is not) that must sum to 1 (within
    1e-9), and every expected count must be positive.
    """
    shape = np.shape(observed)
    if shape != np.shape(expected_probs) or len(shape) != 1 or shape[0] < 2:
        raise ValueError("need matching 1-D counts and probabilities (>= 2 categories)")
    _check_counts(observed)
    observed = np.asarray(observed, dtype=float)
    probs = np.array([_checked_float("probability", p) for p in expected_probs])
    if not np.isfinite(probs).all():
        raise ValueError(f"probabilities must be finite, got {probs.tolist()!r}")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
    total = observed.sum()
    if total < 1:
        raise ValueError("need a total count >= 1")
    expected = probs * total
    if (expected <= 0).any():
        raise ValueError("every expected count must be > 0")
    statistic = float(((observed - expected) ** 2 / expected).sum())
    df = len(observed) - 1
    return Chi2Result(statistic=statistic, df=df, p_value=chi2_upper_tail(statistic, df))


def chi2_two_proportion(count1: int, n1: int, count2: int, n2: int) -> Chi2Result:
    """Pearson chi-square for equality of two proportions (2x2, df = 1).

    No continuity correction.  Errors if any expected cell count is zero
    (all-success or all-failure margins).
    """
    _check_counts((count1, n1, count2, n2))
    for count, n in ((count1, n1), (count2, n2)):
        if n < 1:
            raise ValueError("group sizes must be >= 1")
        if not 0 <= count <= n:
            raise ValueError(f"count {count} outside [0, {n}]")
    table = np.array([[count1, n1 - count1], [count2, n2 - count2]], dtype=float)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    if (expected == 0).any():
        raise ValueError("zero expected cell count")
    statistic = float(((table - expected) ** 2 / expected).sum())
    return Chi2Result(statistic=statistic, df=1, p_value=chi2_upper_tail(statistic, 1))

