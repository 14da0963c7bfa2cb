"""CSV ingestion, standardization, and OLS sufficient statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfreg import (
    DataError,
    Dataset,
    FormulaError,
    InvalidInputError,
    fit_ols,
    load_csv,
    standardize,
)
from conftest import make_two_effect_dataset, make_two_effect_fit


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_numeric_columns(self, tmp_path):
        path = _write(
            tmp_path, "y,x1,x2\n1,2,3\n4,5,6\n7,8,9\n1.5,2.5,3.5\n0,0,1\n"
        )
        d = load_csv(path)
        assert d.column_names == ("y", "x1", "x2")
        assert d.n == 5
        assert d.n_dropped == 0
        assert np.allclose(d.column("x2"), [3, 6, 9, 3.5, 1])

    def test_two_level_string_column_coded_01(self, tmp_path):
        """Levels are coded in first-seen order: first level 0, second 1."""
        path = _write(tmp_path, "y,sex\n1.0,m\n2.0,f\n3.0,m\n")
        d = load_csv(path)
        assert np.array_equal(d.column("sex"), [0.0, 1.0, 0.0])

    def test_three_level_column_rejected(self, tmp_path):
        path = _write(tmp_path, "y,g\n1,a\n2,b\n3,c\n")
        with pytest.raises(DataError, match="3 distinct values"):
            load_csv(path)

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = _write(tmp_path, "y,x\n1,2\n,3\n4,NA\n5,6\nnull,7\n")
        d = load_csv(path)
        assert d.n == 2
        assert d.n_dropped == 3

    def test_ragged_row_reported_with_line_number(self, tmp_path):
        path = _write(tmp_path, "y,x\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = _write(tmp_path, "y,x,x\n1,2,3\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_empty_data_rejected(self, tmp_path):
        path = _write(tmp_path, "y,x\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_alternate_delimiter(self, tmp_path):
        path = _write(tmp_path, "y;x\n1;2\n3;4\n")
        d = load_csv(path, delimiter=";")
        assert d.n == 2
        assert np.array_equal(d.column("x"), [2.0, 4.0])

    def test_nonfinite_value_rejected(self, tmp_path):
        path = _write(tmp_path, "y,x\n1,2\ninf,4\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "absent.csv"))


class TestStandardize:
    def test_three_point_closed_form(self):
        d = Dataset(("a",), np.array([[1.0], [2.0], [3.0]]))
        z = standardize(d)
        assert np.allclose(z.column("a"), [-1.0, 0.0, 1.0], atol=1e-14)

    def test_mean_zero_unit_sample_sd(self):
        rng = np.random.default_rng(0)
        d = Dataset(("a", "b"), rng.standard_normal((40, 2)) * 5 + 3)
        z = standardize(d)
        for name in ("a", "b"):
            col = z.column(name)
            assert abs(col.mean()) < 1e-12
            assert abs(col.std(ddof=1) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        d = Dataset(("a",), rng.standard_normal((25, 1)) * 2 + 7)
        once = standardize(d)
        twice = standardize(once)
        assert np.allclose(once.columns, twice.columns, atol=1e-12)

    def test_constant_column_rejected_by_name(self):
        d = Dataset(("a", "b"), np.column_stack([np.ones(5), np.arange(5.0)]))
        with pytest.raises(InvalidInputError, match="'a'"):
            standardize(d)

    def test_subset_leaves_other_columns_alone(self):
        d = Dataset(
            ("a", "b"), np.column_stack([np.arange(5.0), np.arange(5.0) * 2])
        )
        z = standardize(d, which=("a",))
        assert np.array_equal(z.column("b"), d.column("b"))
        assert abs(z.column("a").mean()) < 1e-12


class TestFormula:
    def test_basic_fit_names(self, two_effect_data):
        fit = fit_ols(two_effect_data, "y ~ x1 + x2")
        assert fit.coef_names == ("(Intercept)", "x1", "x2")
        assert fit.k == 3

    def test_drop_intercept_minus_one(self, two_effect_data):
        fit = fit_ols(two_effect_data, "y ~ x1 + x2 - 1")
        assert fit.coef_names == ("x1", "x2")

    def test_drop_intercept_plus_zero(self, two_effect_data):
        fit = fit_ols(two_effect_data, "y ~ x1 + x2 + 0")
        assert fit.coef_names == ("x1", "x2")

    @pytest.mark.parametrize(
        "rhs, names",
        [
            ("x1 - + x2", ("(Intercept)", "x1", "x2")),
            ("-1 + x1", ("x1",)),
            ("x1 +", ("(Intercept)", "x1")),
        ],
    )
    def test_sign_is_the_operator_before_a_term(self, two_effect_data, rhs, names):
        assert fit_ols(two_effect_data, f"y ~ {rhs}").coef_names == names

    def test_empty_right_hand_side(self, two_effect_data):
        with pytest.raises(FormulaError, match="empty right-hand side"):
            fit_ols(two_effect_data, "y ~ +")

    def test_unknown_column(self, two_effect_data):
        with pytest.raises(FormulaError, match="nope"):
            fit_ols(two_effect_data, "y ~ x1 + nope")

    def test_duplicate_term(self, two_effect_data):
        with pytest.raises(FormulaError):
            fit_ols(two_effect_data, "y ~ x1 + x1")

    def test_response_reused_as_predictor(self, two_effect_data):
        with pytest.raises(FormulaError):
            fit_ols(two_effect_data, "y ~ y + x1")

    def test_missing_tilde(self, two_effect_data):
        with pytest.raises(FormulaError):
            fit_ols(two_effect_data, "y x1 + x2")


class TestFitOls:
    def test_two_effect_sufficient_statistics_exact(self, two_effect_data):
        """The orthogonalized construction reproduces its statistics exactly.

        The design satisfies X'X = diag(20, 19, 19) and the error vector
        is orthogonal to the column space with squared norm 19, so the
        fit must return beta_hat = (1, 0.7, 0.03) and s2 = 19 to machine
        precision.
        """
        fit = fit_ols(two_effect_data, "y ~ x1 + x2")
        ref = make_two_effect_fit()
        assert np.allclose(fit.beta_hat, ref.beta_hat, atol=1e-10)
        assert fit.s2 == pytest.approx(19.0, abs=1e-10)
        assert np.allclose(fit.xtx_inv, ref.xtx_inv, atol=1e-12)
        assert (fit.n, fit.k) == (20, 3)

    def test_exact_fit_rejected(self, tmp_path):
        x = np.arange(10.0)
        rows = "\n".join(f"{2 + 3 * v},{v}" for v in x)
        path = _write(tmp_path, "y,x\n" + rows + "\n")
        with pytest.raises(DataError, match="degenerate|residual"):
            fit_ols(load_csv(path), "y ~ x")

    def test_slope_recovered_within_5_se(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(100)
        y = x + rng.standard_normal(100)
        d = Dataset(("y", "x"), np.column_stack([y, x]))
        fit = fit_ols(d, "y ~ x")
        j = fit.coef_names.index("x")
        se = np.sqrt(fit.s2 / (fit.n - fit.k) * fit.xtx_inv[j, j])
        assert abs(fit.beta_hat[j] - 1.0) < 5 * se

    def test_orthonormal_design_identity_gram(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((30, 2)))
        y = q @ np.array([2.0, -1.0]) + 0.1 * np.linalg.qr(
            rng.standard_normal((30, 3))
        )[0][:, 2]
        d = Dataset(("y", "u", "v"), np.column_stack([y, q]))
        fit = fit_ols(d, "y ~ u + v - 1")
        assert np.allclose(fit.xtx_inv, np.eye(2), atol=1e-10)
        assert np.allclose(fit.beta_hat, q.T @ y, atol=1e-10)

    def test_rank_deficient_design_rejected(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(20)
        d = Dataset(
            ("y", "a", "b"),
            np.column_stack([rng.standard_normal(20), x, 2 * x]),
        )
        with pytest.raises(DataError, match="rank"):
            fit_ols(d, "y ~ a + b")

    def test_too_few_rows(self):
        d = Dataset(("y", "x"), np.array([[1.0, 2.0], [2.0, 1.0], [0.5, 3.0]]))
        with pytest.raises(DataError):
            fit_ols(d, "y ~ x")

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_residual_orthogonality(self, seed):
        """X'(y - X beta_hat) vanishes relative to X'y for any sample."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n) * 3 + x @ rng.standard_normal(2)
        d = Dataset(("y", "a", "b"), np.column_stack([y, x]))
        try:
            fit = fit_ols(d, "y ~ a + b")
        except DataError:
            return
        design = np.column_stack([np.ones(n), x])
        resid = y - design @ fit.beta_hat
        assert np.linalg.norm(design.T @ resid) < 1e-8 * max(
            np.linalg.norm(design.T @ y), 1.0
        )

    def test_s2_is_raw_rss(self):
        """s2 stores the plain residual sum of squares, not a variance."""
        rng = np.random.default_rng(77)
        x = rng.standard_normal(40)
        y = 2 * x + rng.standard_normal(40)
        d = Dataset(("y", "x"), np.column_stack([y, x]))
        fit = fit_ols(d, "y ~ x")
        design = np.column_stack([np.ones(40), x])
        rss = float(np.sum((y - design @ fit.beta_hat) ** 2))
        assert fit.s2 == pytest.approx(rss, rel=1e-12)


class TestDatasetType:
    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(("a", "a"), np.ones((3, 2)))

    def test_column_lookup_unknown(self):
        d = Dataset(("a",), np.ones((3, 1)))
        with pytest.raises(InvalidInputError):
            d.column("zzz")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(("a", "b"), np.ones((3, 1)))
