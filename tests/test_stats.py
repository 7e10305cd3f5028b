from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    coefficients_csv_text,
    encode_dummies,
    fit_least_squares,
    fit_summary_csv_text,
    model_spec,
)
from dyadsim.sweep import SweepConfig, SweepTable, derive_run_seed, enumerate_contexts

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
        context_index = np.repeat(np.arange(81), runs)
        run_index = np.tile(np.arange(runs), 81)
        table = SweepTable(
            config=config,
            context_index=context_index,
            run_index=run_index,
            run_seed=np.array(
                [derive_run_seed(5, c, j) for c, j in zip(context_index, run_index)],
                dtype=np.uint64,
            ),
            r=r,
        )
        spec = model_spec(model_id)
        design = build_design(table, spec)
        expected = _per_row_columns(context_index[~np.isnan(r)], spec.columns)
        assert design.n_excluded == int(np.isnan(r).sum())
        assert design.X.dtype == expected.dtype == np.float64
        assert design.X.shape == expected.shape
        assert design.X.tobytes() == expected.tobytes()
        assert design.X.flags.c_contiguous


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
        assert _distinct_rows(A) is A

    @pytest.mark.parametrize("rows", [[[1, 0], [0, 2]], [[1, 0], [0, 2], [1, 0]]])
    def test_rows_sharing_a_key_return_the_input(self, rows):
        # [1, 0] and [0, 2] both have key 1
        A = np.array(rows, dtype=float)
        assert _distinct_rows(A) is A

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

    @pytest.mark.parametrize("df", [1.5, 0.5, float("nan"), float("inf"), "3", None])
    def test_upper_tail_rejects_non_integer_df(self, df):
        with pytest.raises(ValueError) as caught:
            chi2_upper_tail(3.0, df)
        assert str(caught.value) == f"df must be an integer, got {df!r}"

    def test_upper_tail_takes_integral_float_df(self):
        assert chi2_upper_tail(3.0, 2.0) == chi2_upper_tail(3.0, 2)


class TestCsvEmitters:
    def test_fit_summary_and_coefficients(self, default_report):
        summary = fit_summary_csv_text(default_report.fits)
        lines = summary.strip().split("\n")
        assert lines[0] == "model_id,name,k_nominal,k_effective,r2,adj_r2,aic,bic"
        assert len(lines) == 6
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == ["1", "2", "3", "4", "5"]

        coeffs = coefficients_csv_text(default_report.fits)
        clines = coeffs.strip().split("\n")
        assert clines[0] == "model_id,term,estimate,dropped"
        # every model lists intercept plus every spec column exactly once
        per_model = {m: 0 for m in MODEL_IDS}
        for line in clines[1:]:
            per_model[int(line.split(",")[0])] += 1
        assert per_model == {1: 9, 2: 33, 3: 33, 4: 29, 5: 29}
