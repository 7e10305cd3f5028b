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
"""

import numbers
from dataclasses import dataclass

import numpy as np

from dyadsim.dynamics import ContextMatrix
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
    "fit_summary_csv_text",
    "coefficients_csv_text",
]

INDICATOR_NAMES = ("s1p", "s1n", "o1p", "o1n", "o2p", "o2n", "s2p", "s2n")

_PARAMS = ("s1", "o1", "o2", "s2")
_PARAM_PAIRS = tuple(
    (_PARAMS[i], _PARAMS[j]) for i in range(4) for j in range(i + 1, 4)
)

# 24 unique cross-parameter products in canonical order
INTERACTION_NAMES = tuple(
    f"{a}{sa}:{b}{sb}"
    for a, b in _PARAM_PAIRS
    for sa in ("p", "n")
    for sb in ("p", "n")
)

MODEL_IDS = (1, 2, 3, 4, 5)


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
    flags = {}
    for param, value in zip(_PARAMS, context.as_tuple()):
        flags[param + "p"] = 1 if value == 1 else 0
        flags[param + "n"] = 1 if value == -1 else 0
    return DummyEncoding(**flags)


@dataclass(frozen=True)
class ModelSpec:
    """Column recipe for one regression model (intercept always added)."""

    model_id: int
    name: str
    main_terms: tuple
    interaction_terms: tuple
    k_nominal: int

    @property
    def columns(self) -> tuple:
        return self.main_terms + self.interaction_terms


def model_spec(model_id: int) -> ModelSpec:
    """Canonical column recipe for regression models 1-5."""
    mains = INDICATOR_NAMES
    ints = INTERACTION_NAMES
    if model_id == 1:
        return ModelSpec(1, "main-effects", mains, (), 8)
    if model_id == 2:
        return ModelSpec(2, "interactions", mains, ints, 48)
    if model_id == 3:
        # union of the model-1 and model-2 column sets
        return ModelSpec(3, "overall", mains, ints, 56)
    if model_id == 4:
        return ModelSpec(4, "initiator-focused", ("s1p", "s1n", "o2p", "o2n"), ints, 28)
    if model_id == 5:
        return ModelSpec(5, "self-influence", ("s1p", "s1n", "s2p", "s2n"), ints, 28)
    raise ValueError(f"unknown model id {model_id!r}")


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
    """Regression design: predictor matrix, response, names, exclusions."""

    X: np.ndarray
    y: np.ndarray
    columns: tuple
    n_excluded: int


def build_design(table, spec: ModelSpec) -> Design:
    """Design matrix and response for one model over a sweep table.

    Rows with an undefined correlation are excluded and counted.  Predictor
    columns follow ``spec.columns``; the intercept is added at fit time.
    ``X`` is Fortran-ordered, the layout :func:`fit_least_squares` copies it
    into, so that copy runs over contiguous columns.
    """
    finite = table.finite
    n_excluded = len(table) - int(finite.sum())
    if n_excluded == len(table):
        raise ValueError("no finite records to regress on")
    # the (k, 81) term table gathered by context and transposed: products of
    # 0/1 values are exact, so X equals the per-row products bit for bit;
    # np.take returns the (k, n) gather C-ordered (terms[:, rows] would not)
    terms = np.vstack([_CELL_TERMS[term] for term in spec.columns])
    X = np.take(terms, table.context_index[finite], axis=1).T
    return Design(X=X, y=table.r[finite], columns=spec.columns, n_excluded=n_excluded)


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
    """The distinct rows of ``A``, each scaled by the square root of its
    count, or ``A`` itself when every row is distinct.

    The scaled rows have the same Gram matrix ``A.T @ A``, so a QR of them
    has the same ``|R_jj|`` and column norms up to rounding.  Rows are
    grouped by the key ``A @ 2**-j``, exact and injective for 0/1 rows of
    up to 53 columns; since other rows can share a key, the grouping is
    checked one column at a time, stopping at the first that breaks it,
    and ``A`` returned when it does not hold.
    """
    key = A @ 2.0 ** -np.arange(A.shape[1])
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    group_first = first[inverse]  # each row's group representative
    if len(first) == len(A) or not all((col[group_first] == col).all() for col in A.T):
        return A
    return A[first] * np.sqrt(counts)[:, None]


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
        # A itself while every column is kept: a copy would add n x k floats
        B = A if kept.size == A.shape[1] else A[:, kept]
        diag = np.abs(np.diagonal(np.linalg.qr(B, mode="r")))
        redundant = np.flatnonzero(diag <= 1e-10 * norms[kept[: len(diag)]])
        if not redundant.size:
            # R has min(n, columns) rows: once n kept columns span all n
            # rows, every later column is redundant
            return kept[: len(diag)].tolist()
        kept = np.delete(kept, redundant[0])
    return []


def fit_least_squares(X, y, columns=None) -> FitResult:
    """Least-squares fit of ``y`` on an intercept plus the columns of ``X``.

    The rank-revealing pass is an unpivoted Householder QR of the design
    (intercept first): column j is redundant, and reported as dropped, when
    it is all zero or ``|R_jj| <= 1e-10 * ||column j||``, where ``|R_jj|``
    is the norm of its residual against the retained columns before it.
    Each redundant column found is removed and the QR repeated, so a
    full-rank design takes one QR.  The QR runs on the design's distinct
    rows, each weighted by the square root of its count, which have the
    same Gram matrix as the full design: a sweep's design has at most 81.
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
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError("X must be (n, k) with len(y) == n")
    n, k = X.shape
    if columns is None:
        columns = tuple(f"x{j}" for j in range(k))
    columns = tuple(columns)
    if len(columns) != k:
        raise ValueError("column name count does not match X")

    names = ("intercept",) + columns
    # Fortran order, the layout of the A[:, retained] copy: the bits of
    # lstsq's residual depend on it
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
    k_eff = len(retained) - 1 if 0 in retained else len(retained)
    r2 = 1.0 - rss / tss
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k_eff - 1)
    if rss > 0.0:
        base = n * np.log(rss / n)
        aic = float(base + 2 * (k_eff + 1))
        bic = float(base + np.log(n) * (k_eff + 1))
    else:
        aic = bic = float("-inf")
    return FitResult(
        coefficients=coefficients,
        dropped=dropped,
        rss=rss,
        n=n,
        k_effective=k_eff,
        r2=float(r2),
        adj_r2=float(adj_r2),
        aic=aic,
        bic=bic,
    )


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    df: int
    p_value: float


def chi2_upper_tail(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square law, Q(df/2, x/2)."""
    if x < 0:
        raise ValueError("chi-square statistic must be >= 0")
    if not isinstance(df, numbers.Real) or not float(df).is_integer():
        raise ValueError(f"df must be an integer, got {df!r}")
    if df < 1:
        raise ValueError("df must be >= 1")
    # imported here, its only use, so that importing dyadsim does not load scipy
    from scipy.special import gammaincc

    return float(gammaincc(df / 2.0, x / 2.0))


def chi2_gof(observed, expected_probs) -> Chi2Result:
    """Pearson goodness-of-fit test of counts against given probabilities.

    ``observed`` are integer category counts; ``expected_probs`` must sum
    to 1 (within 1e-9) and every expected count must be positive.
    """
    observed = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if observed.shape != probs.shape or observed.ndim != 1 or len(observed) < 2:
        raise ValueError("need matching 1-D counts and probabilities (>= 2 categories)")
    for count in observed:
        if not (np.isfinite(count) and count >= 0 and count == int(count)):
            raise ValueError(f"count {count} is not a non-negative integer")
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
    for count, n in ((count1, n1), (count2, n2)):
        if n < 1:
            raise ValueError("group sizes must be >= 1")
        if not 0 <= count <= n:
            raise ValueError(f"count {count} outside [0, {n}]")
    table = np.array(
        [[count1, n1 - count1], [count2, n2 - count2]], dtype=float
    )
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    if (expected == 0).any():
        raise ValueError("zero expected cell count")
    statistic = float(((table - expected) ** 2 / expected).sum())
    return Chi2Result(statistic=statistic, df=1, p_value=chi2_upper_tail(statistic, 1))


def fit_summary_csv_text(fits) -> str:
    """Model summary CSV: `model_id,name,k_nominal,k_effective,r2,adj_r2,aic,bic`.

    ``fits`` is a sequence of (ModelSpec, FitResult) pairs.
    """
    lines = ["model_id,name,k_nominal,k_effective,r2,adj_r2,aic,bic"]
    for spec, fit in fits:
        lines.append(
            f"{spec.model_id},{spec.name},{spec.k_nominal},{fit.k_effective},"
            f"{fit.r2!r},{fit.adj_r2!r},{fit.aic!r},{fit.bic!r}"
        )
    return "\n".join(lines) + "\n"


def coefficients_csv_text(fits) -> str:
    """Coefficient dump CSV: `model_id,term,estimate,dropped`."""
    lines = ["model_id,term,estimate,dropped"]
    for spec, fit in fits:
        for term in ("intercept",) + spec.columns:
            if term in fit.coefficients:
                lines.append(f"{spec.model_id},{term},{fit.coefficients[term]!r},false")
            else:
                lines.append(f"{spec.model_id},{term},nan,true")
    return "\n".join(lines) + "\n"
