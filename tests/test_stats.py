import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expm1 as scipy_expm1, gammaincc, gammaln

from dyadsim import analyze, stats
from dyadsim.dynamics import ContextMatrix
from dyadsim.stats import (
    INDICATOR_NAMES,
    INTERACTION_NAMES,
    MODEL_IDS,
    _distinct_rows,
    build_design,
    chi2_gof,
    chi2_two_proportion,
    chi2_upper_tail,
    encode_dummies,
    fit_least_squares,
    model_spec,
)
from dyadsim.report import coefficients_csv_text, table1_csv_text
from dyadsim.sweep import SweepConfig, SweepTable, enumerate_contexts

ALL_TERMS = INDICATOR_NAMES + INTERACTION_NAMES


def _per_row_columns(context_index, columns):
    """Reference design: each context row dummy-coded, then every term as a
    per-row product, stacked column by column."""
    contexts = enumerate_contexts()
    indicators = np.array([encode_dummies(contexts[ci]).as_array() for ci in context_index])
    cols = []
    for term in columns:
        names = term.split(":")
        col = indicators[:, INDICATOR_NAMES.index(names[0])]
        if len(names) == 2:
            col = col * indicators[:, INDICATOR_NAMES.index(names[1])]
        cols.append(col)
    return np.column_stack(cols)


def _gram_schmidt_retained(A, tol=1e-10):
    """Reference rank pass: scan the columns in order and keep one when its
    Gram-Schmidt residual (re-orthogonalized once) against the kept ones
    exceeds tol times its norm."""
    Q = np.empty((A.shape[0], 0))
    retained = []
    for j in range(A.shape[1]):
        col = A[:, j]
        norm0 = np.linalg.norm(col)
        if norm0 == 0.0:
            continue
        resid = col - Q @ (Q.T @ col)
        resid -= Q @ (Q.T @ resid)
        norm_r = np.linalg.norm(resid)
        if norm_r > tol * norm0:
            retained.append(j)
            Q = np.column_stack([Q, resid / norm_r])
    return retained


@st.composite
def cell_designs(draw):
    """Designs whose rows repeat 0/1 term values of random contexts, with
    all-zero, duplicated and sum-of-columns columns mixed in."""
    cells = draw(st.lists(st.integers(0, 80), min_size=1, max_size=81, unique=True))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(cells), max_size=len(cells)))
    terms = draw(st.lists(st.sampled_from(ALL_TERMS), min_size=1, max_size=16, unique=True))
    cols = list(_per_row_columns(np.repeat(cells, counts), terms).T)
    names = list(terms)
    for step in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "duplicate", "sum"]))
        i, j = (draw(st.integers(0, len(cols) - 1)) for _ in range(2))
        col = {"zero": np.zeros_like(cols[0]), "duplicate": cols[i], "sum": cols[i] + cols[j]}
        at = draw(st.integers(0, len(cols)))
        cols.insert(at, col[kind])
        names.insert(at, f"{kind}{step}")
    y_seed = draw(st.integers(0, 2**32 - 1))
    X = np.column_stack(cols)
    return X, np.random.default_rng(y_seed).normal(size=len(X)), tuple(names)


@st.composite
def run_matrices(draw):
    """Small float or 0/1 matrices built from runs of one repeated row; a row
    can come back after others, so equal rows need not be adjacent."""
    k = draw(st.integers(1, 6))
    values = st.integers(0, 1) if draw(st.booleans()) else st.integers(-40, 40).map(lambda v: v / 8)
    pool = draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=1, max_size=5))
    runs = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 4)),
                         min_size=1, max_size=12))
    return np.array([pool[i] for i, length in runs for _ in range(length)], dtype=float)


class TestEncodeDummies:
    def test_reference_level_all_zero(self):
        enc = encode_dummies(ContextMatrix(0, 0, 0, 0))
        assert enc.as_array().sum() == 0

    def test_definition(self):
        enc = encode_dummies(ContextMatrix(1, 0, -1, 0))
        assert enc.s1p == 1 and enc.o2n == 1
        assert enc.as_array().sum() == 2

    def test_mutual_exclusion(self):
        for ctx in enumerate_contexts():
            enc = encode_dummies(ctx)
            for param in ("s1", "o1", "o2", "s2"):
                assert getattr(enc, param + "p") * getattr(enc, param + "n") == 0

    def test_every_context_matches_the_definition(self):
        for ctx in enumerate_contexts():
            enc = encode_dummies(ctx)
            expected = [int(v == sign) for v in ctx.as_tuple() for sign in (1, -1)]
            assert [getattr(enc, name) for name in INDICATOR_NAMES] == expected
            assert {type(getattr(enc, name)) for name in INDICATOR_NAMES} == {int}

    def test_each_indicator_sums_to_27_over_enumeration(self):
        total = np.zeros(8)
        for ctx in enumerate_contexts():
            total += encode_dummies(ctx).as_array()
        assert (total == 27).all()


class TestModelSpecs:
    def test_column_counts(self):
        assert len(model_spec(1).columns) == 8
        assert len(model_spec(2).columns) == 32
        assert len(model_spec(3).columns) == 32
        assert len(model_spec(4).columns) == 28
        assert len(model_spec(5).columns) == 28

    def test_nominal_counts(self):
        assert [model_spec(m).k_nominal for m in MODEL_IDS] == [8, 48, 56, 28, 28]

    def test_model3_is_union_of_1_and_2(self):
        assert set(model_spec(3).columns) == set(model_spec(1).columns) | set(
            model_spec(2).columns
        )

    def test_interaction_parents_cross_parameter(self):
        assert len(INTERACTION_NAMES) == 24
        for name in INTERACTION_NAMES:
            left, right = name.split(":")
            assert left[:2] != right[:2]

    def test_focus_models_keep_their_mains(self):
        assert model_spec(4).main_terms == ("s1p", "s1n", "o2p", "o2n")
        assert model_spec(5).main_terms == ("s1p", "s1n", "s2p", "s2n")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            model_spec(6)

    @pytest.mark.parametrize("model_id", [0, 6, -1, "1", None, 1.5, [1], {},
                                          True, 1.0, np.float64(4.0)])
    def test_unknown_model_id_is_named(self, model_id):
        with pytest.raises(ValueError) as caught:
            model_spec(model_id)
        assert str(caught.value) == f"unknown model id {model_id!r}"

    def test_numpy_integer_model_id(self):
        assert model_spec(np.int64(4)) is model_spec(4)


class TestBuildDesign:
    def test_model1_shape(self, default_table):
        design = build_design(default_table, model_spec(1))
        assert design.X.shape == (8100, 8)
        assert design.n_excluded == 0

    def test_zero_context_rows_all_zero(self, default_table):
        design = build_design(default_table, model_spec(3))
        rows = np.flatnonzero(default_table.context_index[default_table.finite] == 40)
        assert np.all(design.X[rows] == 0.0)

    def test_interaction_columns_are_products(self, default_table):
        design = build_design(default_table, model_spec(3))
        cols = {name: design.X[:, j] for j, name in enumerate(design.columns)}
        for name in INTERACTION_NAMES:
            left, right = name.split(":")
            assert np.array_equal(cols[name], cols[left] * cols[right])

    def test_indicator_values_binary(self, default_table):
        design = build_design(default_table, model_spec(1))
        assert set(np.unique(design.X)) <= {0.0, 1.0}

    @pytest.mark.parametrize("model_id", [1, 2, 4, 5])
    def test_gathered_design_equals_per_row_products(self, model_id):
        # runs of an undefined correlation (nan r) are scattered over the contexts
        runs = 3
        config = SweepConfig(master_seed=5, runs_per_context=runs)
        r = np.random.default_rng(model_id).uniform(-1.0, 1.0, size=81 * runs)
        r[::7] = np.nan
        table = SweepTable(config, r)
        spec = model_spec(model_id)
        design = build_design(table, spec)
        expected = _per_row_columns(table.context_index[~np.isnan(r)], spec.columns)
        assert design.n_excluded == int(np.isnan(r).sum())
        assert design.X.dtype == expected.dtype == np.float64
        assert design.X.shape == expected.shape
        assert design.X.tobytes() == expected.tobytes()
        assert design.X.flags.f_contiguous


class TestFitLeastSquares:
    def test_exact_fit(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=20)
        y = 2.0 * x + 1.0
        fit = fit_least_squares(x[:, None], y, ("x",))
        assert fit.coefficients["intercept"] == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-10)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.aic < -500  # essentially perfect fit

    def test_intercept_only_r2_zero(self):
        rng = np.random.default_rng(22)
        y = rng.normal(size=30)
        fit = fit_least_squares(np.empty((30, 0)), y, ())
        assert fit.k_effective == 0
        assert fit.r2 == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficients["intercept"] == pytest.approx(y.mean())

    def test_duplicated_column_dropped_without_changing_fit(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        base = fit_least_squares(X, y, ("a", "b", "c"))
        dup = fit_least_squares(
            np.column_stack([X, X[:, 1]]), y, ("a", "b", "c", "b_copy")
        )
        assert dup.dropped == ("b_copy",)
        assert dup.k_effective == base.k_effective == 3
        assert dup.r2 == pytest.approx(base.r2, abs=1e-12)
        assert dup.rss == pytest.approx(base.rss, rel=1e-12)
        for name in ("intercept", "a", "b", "c"):
            assert dup.coefficients[name] == pytest.approx(base.coefficients[name], abs=1e-9)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            X = rng.normal(size=(10, 3))
            y = rng.normal(size=10)
            fit = fit_least_squares(X, y)
            A = np.column_stack([np.ones(10), X])
            beta = np.linalg.solve(A.T @ A, A.T @ y)
            got = [fit.coefficients[name] for name in ("intercept", "x0", "x1", "x2")]
            assert np.allclose(got, beta, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        fit = fit_least_squares(X, y)
        A = np.column_stack([np.ones(60), X])
        coef = np.array([fit.coefficients[n] for n in ("intercept", "x0", "x1", "x2", "x3")])
        resid = y - A @ coef
        for j in range(A.shape[1]):
            col = A[:, j]
            bound = 1e-6 * np.linalg.norm(col) * max(np.linalg.norm(resid), 1e-30)
            assert abs(col @ resid) <= bound

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        perm = rng.permutation(50)
        a = fit_least_squares(X, y)
        b = fit_least_squares(X[perm], y[perm])
        assert a.r2 == pytest.approx(b.r2, abs=1e-12)
        assert a.rss == pytest.approx(b.rss, rel=1e-12)

    @pytest.mark.parametrize("model_id", [1, 2, 4, 5])
    def test_rank_pass_matches_gram_schmidt_on_sweep(self, default_table, model_id):
        design = build_design(default_table, model_spec(model_id))
        fit = fit_least_squares(design.X, design.y, design.columns)
        A = np.column_stack([np.ones(len(design.y)), design.X])
        names = ("intercept",) + design.columns
        retained = _gram_schmidt_retained(A)
        assert fit.dropped == tuple(names[j] for j in range(A.shape[1]) if j not in retained)
        assert fit.k_effective == len(retained) - 1

    @settings(deadline=None, max_examples=150)
    @given(cell_designs())
    def test_rank_pass_matches_gram_schmidt(self, design):
        X, y, columns = design
        A = np.column_stack([np.ones(len(y)), X])
        retained = _gram_schmidt_retained(A)
        if len(y) < len(retained) + 1:
            with pytest.raises(ValueError, match=r"need at least rank \+ 1"):
                fit_least_squares(X, y, columns)
            return
        fit = fit_least_squares(X, y, columns)
        names = ("intercept",) + columns
        assert fit.dropped == tuple(names[j] for j in range(A.shape[1]) if j not in retained)
        assert fit.k_effective == len(retained) - 1

    def test_fewer_rows_than_rank_plus_one_rejected(self):
        X = np.random.default_rng(29).normal(size=(3, 5))
        with pytest.raises(ValueError) as caught:
            fit_least_squares(X, np.array([0.1, 0.5, -0.2]))
        assert str(caught.value) == "need at least rank + 1 = 4 rows, got 3"

    def test_constant_response_rejected(self):
        X = np.random.default_rng(27).normal(size=(20, 2))
        with pytest.raises(ValueError, match="constant response"):
            fit_least_squares(X, np.full(20, 3.0))

    def test_aic_bic_formulas(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        fit = fit_least_squares(X, y)
        n, k = 40, fit.k_effective
        base = n * np.log(fit.rss / n)
        assert fit.aic == pytest.approx(base + 2 * (k + 1), rel=1e-12)
        assert fit.bic == pytest.approx(base + np.log(n) * (k + 1), rel=1e-12)

    def test_nesting_monotonicity_on_sweep(self, default_report):
        fits = {spec.model_id: fit for spec, fit in default_report.fits}
        assert fits[3].rss <= fits[2].rss + 1e-9
        assert fits[3].rss <= fits[1].rss + 1e-9
        assert fits[3].r2 >= fits[2].r2 - 1e-12
        assert fits[3].r2 >= fits[1].r2 - 1e-12


def _fit_bits(fit):
    """A FitResult as bytes: floats compared bit for bit."""
    floats = [fit.rss, fit.r2, fit.adj_r2, fit.aic, fit.bic, *fit.coefficients.values()]
    return (tuple(fit.coefficients), fit.dropped, fit.n, fit.k_effective,
            np.array(floats).tobytes())


class TestDistinctRows:
    def test_rank_pass_sees_at_most_81_rows(self, default_table, monkeypatch):
        # a key that silently fell back to the full design would pass every
        # output check, so count the rows the rank pass is given
        seen = []
        rank_pass = stats._independent_columns

        def spy(A):
            seen.append(A.shape[0])
            return rank_pass(A)

        monkeypatch.setattr(stats, "_independent_columns", spy)
        analyze(default_table)
        assert len(seen) == 4
        assert max(seen) <= 81

    def test_weighted_rows_have_the_same_gram_matrix(self, default_table):
        X = build_design(default_table, model_spec(2)).X
        A = np.column_stack([np.ones(len(X)), X])
        D = _distinct_rows(A)
        assert D.shape == (81, A.shape[1])
        assert np.allclose(D.T @ D, A.T @ A, rtol=1e-12, atol=0.0)

    def test_all_distinct_rows_return_the_input(self):
        A = np.random.default_rng(30).normal(size=(20, 4))
        assert np.array_equal(_distinct_rows(A), A)

    @pytest.mark.parametrize("rows", [[[1, 0], [0, 2]], [[1, 0], [0, 2], [1, 0]]])
    def test_rows_sharing_a_key_return_the_input(self, rows):
        # [1, 0] and [0, 2] both have key A @ 2**-j; no two adjacent rows are equal
        A = np.array(rows, dtype=float)
        assert np.array_equal(_distinct_rows(A), A)

    @settings(deadline=None, max_examples=200)
    @given(run_matrices())
    # [1, 0] and [0, 2] share the key A @ 2**-j: equal keys, adjacent and not
    @example(np.array([[1.0, 0.0], [0.0, 2.0]]))
    @example(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]))
    def test_collapsed_runs_keep_the_gram_matrix_and_the_rank_pass(self, A):
        D = _distinct_rows(A)
        rows = A.tolist()
        assert len(D) == 1 + sum(a != b for a, b in zip(rows, rows[1:]))
        gram, scale = A.T @ A, np.abs(A).T @ np.abs(A)
        assert (np.abs(D.T @ D - gram) <= 1e-12 * scale).all()
        assert stats._independent_columns(D) == stats._independent_columns(A)

    def test_fit_bits_do_not_depend_on_the_layout_of_x(self, default_table):
        design = build_design(default_table, model_spec(4))
        X, y = design.X, design.y
        views = (np.ascontiguousarray(X), np.asfortranarray(X), np.repeat(X, 2, axis=1)[:, ::2])
        fits = [fit_least_squares(v, y, design.columns) for v in views]
        assert fits[0].dropped == ()
        assert len({_fit_bits(fit) for fit in fits}) == 1
        # the residual's bits depend on the design's layout: the report
        # digests pin the Fortran-ordered one
        A = np.asfortranarray(np.column_stack([np.ones(len(y)), X]))
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ beta
        assert np.array(fits[0].rss).tobytes() == np.array(resid @ resid).tobytes()

    def test_duplicated_column_leaves_the_fit_bits(self, default_table):
        design = build_design(default_table, model_spec(4))
        base = fit_least_squares(design.X, design.y, design.columns)
        dup = fit_least_squares(
            np.column_stack([design.X, design.X[:, 0]]), design.y, design.columns + ("copy",)
        )
        assert dup.dropped == ("copy",)
        assert _fit_bits(replace(dup, dropped=())) == _fit_bits(base)


class TestChiSquare:
    def test_gof_exact_match_is_zero(self):
        res = chi2_gof((50, 50), (0.5, 0.5))
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0)

    def test_gof_hand_computed(self):
        res = chi2_gof((99, 1), (0.5, 0.5))
        assert res.statistic == pytest.approx(96.04, abs=1e-9)
        assert res.df == 1

    def test_gof_zero_iff_exact_proportions(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(4))
            counts = (probs * 1000).round()
            if counts.sum() == 0 or (counts == 0).any():
                continue
            res = chi2_gof(counts, counts / counts.sum())
            assert res.statistic == pytest.approx(0.0, abs=1e-18)
            skewed = counts.copy()
            skewed[0] += 5
            res2 = chi2_gof(skewed, counts / counts.sum())
            assert res2.statistic > 0.0

    def test_gof_validation(self):
        with pytest.raises(ValueError, match="sum"):
            chi2_gof((10, 10), (0.6, 0.6))
        with pytest.raises(ValueError, match="expected"):
            chi2_gof((10, 10), (1.0, 0.0))
        for observed, count in (([-1, 5], "-1.0"), ([0.5, 3.5], "0.5"), ([np.nan, 3], "nan")):
            with pytest.raises(ValueError, match=rf"^count {count} is not a non-negative"):
                chi2_gof(observed, (0.5, 0.5))

    def test_two_proportion_equal_is_zero(self):
        assert chi2_two_proportion(30, 100, 30, 100).statistic == 0.0

    def test_two_proportion_hand_computed(self):
        res = chi2_two_proportion(90, 100, 10, 100)
        assert res.statistic == pytest.approx(128.0, abs=1e-9)
        assert res.df == 1

    def test_two_proportion_symmetric_in_groups(self):
        a = chi2_two_proportion(37, 120, 61, 150)
        b = chi2_two_proportion(61, 150, 37, 120)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.5, 3.5, float("nan"), float("inf"), -1])
    def test_both_tests_share_one_count_rule(self, bad):
        # counts and group sizes alike
        calls = (lambda: chi2_gof((bad, 3), (0.5, 0.5)),
                 lambda: chi2_two_proportion(bad, 3, 1, 3),
                 lambda: chi2_two_proportion(1, 3, 1, bad))
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call()
            messages.add(str(caught.value))
        assert messages == {f"count {float(bad)} is not a non-negative integer"}

    @pytest.mark.parametrize("bad", [True, False, np.True_, "3", None, b"1"],
                             ids=["True", "False", "np.True_", "str", "None", "bytes"])
    def test_counts_are_checked_as_given(self, bad):
        calls = (lambda: chi2_gof((bad, 3), (0.5, 0.5)),
                 lambda: chi2_gof(np.array([3, bad], dtype=object), (0.5, 0.5)),
                 lambda: chi2_two_proportion(bad, 3, 1, 3),
                 lambda: chi2_two_proportion(1, 3, 1, bad))
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == f"count {bad!r} is not a non-negative integer"

    def test_integral_floats_and_numpy_integers_are_counts(self):
        assert chi2_gof((50.0, np.int64(50)), (0.5, 0.5)).statistic == 0.0
        assert chi2_gof(np.array([99, 1]), (0.5, 0.5)) == chi2_gof((99, 1), (0.5, 0.5))
        assert chi2_two_proportion(np.uint8(90), 100.0, 10, np.int32(100)) == \
            chi2_two_proportion(90, 100, 10, 100)

    def test_two_proportion_validation(self):
        with pytest.raises(ValueError):
            chi2_two_proportion(5, 0, 1, 10)
        with pytest.raises(ValueError):
            chi2_two_proportion(11, 10, 1, 10)
        with pytest.raises(ValueError, match="expected"):
            chi2_two_proportion(10, 10, 10, 10)

    def test_upper_tail_at_zero(self):
        assert chi2_upper_tail(0.0, 3) == 1.0

    def test_upper_tail_df2_closed_form(self):
        assert chi2_upper_tail(2 * np.log(2), 2) == pytest.approx(0.5, abs=1e-12)
        for x in np.linspace(0.0, 50.0, 101):
            assert chi2_upper_tail(x, 2) == pytest.approx(np.exp(-x / 2), abs=1e-8)

    def test_upper_tail_table_anchors(self):
        assert chi2_upper_tail(6.635, 1) == pytest.approx(0.01, abs=1e-3)
        assert chi2_upper_tail(3.841, 1) == pytest.approx(0.05, abs=1e-3)

    def test_upper_tail_validation(self):
        with pytest.raises(ValueError):
            chi2_upper_tail(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_upper_tail(1.0, 0)

    @pytest.mark.parametrize("df", [1.5, 0.5, float("nan"), float("inf"), "3", None, True, False])
    def test_upper_tail_rejects_non_integer_df(self, df):
        with pytest.raises(ValueError) as caught:
            chi2_upper_tail(3.0, df)
        assert str(caught.value) == f"df must be an integer, got {df!r}"

    def test_upper_tail_takes_integral_float_df(self):
        assert chi2_upper_tail(3.0, 2.0) == chi2_upper_tail(3.0, 2)


def _neighbours(x, steps=3):
    """``x`` and its ``steps`` nearest floats on each side."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# statistics x = 2y at Cephes igamc's branch points y (the prefactor's
# Lanczos window edges 0.3 and 0.7, the series switch e**-0.8, 0.5 and the
# continued fraction from 1.1), the subnormal onset near x = 1419.6, the
# cut to 0 at x = 1424.99 and the ends of the range
_DF1_STATISTICS = sorted({
    x
    for y in (0.3, math.exp(-0.8), 0.5, 0.7, 1.1)
    for x in _neighbours(2.0 * y)
} | set(_neighbours(1419.6)) | set(_neighbours(1424.9894684224535))
  | {0.0, 5e-324, 1e-300, 2.2250738585072014e-308, math.inf})


def _plain_upper_tail(x, df):
    """Q(df/2, x/2) by the same recurrence, every term added: no skip, no stop."""
    y = x / 2.0
    q, a = (stats._q_half(y), 0.5) if df % 2 else (math.exp(-y), 1.0)
    if y in (0.0, math.inf):
        return q
    while a < df / 2:
        q += math.exp(stats._log_term(a, y, math.log(y)))
        a += 1.0
    return q


def _mp_upper_tail(x, df):
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                               regularized=True)


class TestUpperTail:
    """``chi2_upper_tail``: df = 1 bitwise against scipy, larger df against mpmath."""

    @pytest.mark.parametrize("x", _DF1_STATISTICS, ids=float.hex)
    def test_df1_bitwise_equals_scipy_at_the_branch_edges(self, x):
        assert chi2_upper_tail(x, 1).hex() == float(gammaincc(0.5, x / 2.0)).hex()

    def test_df1_bitwise_equals_scipy_across_the_range(self):
        rng = np.random.default_rng(22)
        xs = np.concatenate([rng.uniform(0.0, 3.0, 2000), rng.uniform(0.0, 3000.0, 2000),
                             np.exp(rng.uniform(-740.0, 7.3, 2000))])
        expected = gammaincc(0.5, xs / 2.0)
        mismatched = [x for x, q in zip(xs.tolist(), expected.tolist())
                      if chi2_upper_tail(x, 1) != q]
        assert mismatched == []

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=3000.0))
    def test_df1_bitwise_property(self, x):
        assert chi2_upper_tail(x, 1).hex() == float(gammaincc(0.5, x / 2.0)).hex()

    def test_cephes_expm1_is_not_the_c_library_one(self):
        ts = np.linspace(-0.5, 0.5, 2001)
        assert [stats._cephes_expm1(t) for t in ts.tolist()] == scipy_expm1(ts).tolist()
        assert any(stats._cephes_expm1(t) != math.expm1(t) for t in ts.tolist())

    def test_cephes_constants(self):
        assert stats._LGAM_HALF == float(gammaln(0.5)) != math.lgamma(0.5)

    def test_df_2_to_200_within_1e_12_of_mpmath(self):
        far = []
        for df in range(2, 201):
            for x in (1e-3, 0.5, 0.5 * df, df - 1.0, df, df + 2.0 * math.sqrt(2.0 * df),
                      3.0 * df, 50.0, 700.0, 1500.0, 2500.0):
                expected = _mp_upper_tail(x, df)
                if expected > 1e-300 and abs(chi2_upper_tail(x, df) / expected - 1) > 1e-12:
                    far.append((df, x))
        assert far == []

    @pytest.mark.parametrize("df", [2, 3, 7, 40, 41, 199, 1000, 3001])
    def test_skip_and_stop_leave_the_sum_unchanged(self, df):
        rng = np.random.default_rng(df)
        xs = np.concatenate([rng.uniform(0.0, 4.0 * df + 100.0, 40), [1e-300, 0.1, 2000.0]])
        for x in xs.tolist():
            assert chi2_upper_tail(x, df) == _plain_upper_tail(x, df)

    def test_million_df_at_a_small_and_a_large_statistic(self):
        df = 10**6
        assert chi2_upper_tail(10.0, df) == pytest.approx(1.0, rel=1e-15)
        x = df + 3000.0
        assert chi2_upper_tail(x, df) == pytest.approx(float(_mp_upper_tail(x, df)), rel=1e-13)
        assert _mp_upper_tail(2.0 * df, df) < 1e-300
        assert chi2_upper_tail(2.0 * df, df) == 0.0

    @pytest.mark.parametrize("df", [200, 201, 1000, 3001, 10**4, 10**4 + 1, 10**5, 10**6,
                                    10**6 + 1])
    def test_large_df_within_1e_13_of_mpmath(self, df):
        # Stirling's form keeps each term's exponent exact to about |y - s|·eps;
        # the plain s·log(y) - y - lgamma(s + 1) lost 4e-10 at df = 10**6
        far = []
        for x in [df + k * math.sqrt(2.0 * df) for k in (-3, -1, 0, 1, 3)] + [df + 3000.0]:
            expected = _mp_upper_tail(x, df)
            if expected > 1e-300 and abs(chi2_upper_tail(x, df) / expected - 1) > 1e-13:
                far.append(x)
        assert far == []

    @pytest.mark.parametrize("df", [1, 2, 3, 10])
    def test_infinite_statistic_has_zero_tail(self, df):
        assert chi2_upper_tail(math.inf, df) == 0.0

    @pytest.mark.parametrize("x", [True, False, np.True_, "3", None, 1j],
                             ids=["True", "False", "np.True_", "str", "None", "complex"])
    def test_statistic_must_be_a_real_number(self, x):
        with pytest.raises(ValueError) as caught:
            chi2_upper_tail(x, 1)
        assert str(caught.value) == f"chi-square statistic must be a real number, got {x!r}"

    @pytest.mark.parametrize("x", [float("nan"), np.float64("nan"), -0.5, -math.inf])
    def test_statistic_outside_the_domain_named(self, x):
        with pytest.raises(ValueError) as caught:
            chi2_upper_tail(x, 1)
        assert str(caught.value) == f"chi-square statistic must be >= 0, got {float(x)!r}"


class TestCsvEmitters:
    def test_fit_summary_and_coefficients(self, default_report):
        summary = table1_csv_text(default_report)
        lines = summary.strip().split("\n")
        assert lines[0] == "model_id,name,k_nominal,k_effective,r2,adj_r2,aic,bic"
        assert len(lines) == 6
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == ["1", "2", "3", "4", "5"]

        coeffs = coefficients_csv_text(default_report)
        clines = coeffs.strip().split("\n")
        assert clines[0] == "model_id,term,estimate,dropped"
        # every model lists intercept plus every spec column exactly once
        per_model = {m: 0 for m in MODEL_IDS}
        for line in clines[1:]:
            per_model[int(line.split(",")[0])] += 1
        assert per_model == {1: 9, 2: 33, 3: 33, 4: 29, 5: 29}
