"""Bayes factors, complement handling, posterior probabilities, tables."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfreg
from bfreg import (
    ConstraintCenterWarning,
    ConstraintSystem,
    Dataset,
    HypothesisSyntaxError,
    InconsistentEqualityError,
    InvalidInputError,
    MultivariateT,
    NumericError,
    ProbEstimate,
    RegressionFit,
    bf_matrix,
    build_transform,
    conditional_xiI,
    exploratory_test,
    fit_ols,
    parse_hypotheses,
    posterior_probabilities,
)
from bfreg.constraints import minimal_fraction
from bfreg.engine import bf_unconstrained
from bfreg.hyparse import prior_center, validate
from bfreg.numkernel import _SHIFTS, _blocks, _path, derived_seed
from conftest import (
    make_random_fit,
    make_two_effect_dataset,
    make_two_effect_fit,
)
from oracle import oracle_complement_prob, oracle_inequality_prob

# pytest would otherwise try to collect the package entry point as a test
run_hypotheses = bfreg.test_hypotheses

# Frozen reference values for the two-effect scenario, computed with an
# independent script (scipy.stats t/multivariate_t plus direct gamma
# function algebra, no package code).  The prior density peaks are exact
# closed forms because the prior marginal scale matrices reduce to the
# identity there.  H2's f_ie is the bivariate t orthant, df 17, at
# standardised bounds (-0.7, -0.03) sqrt(17), by 30-digit mpmath
# quadrature of int t_17(x) T_18(...) dx (multivariate_t.cdf's value,
# 0.5457315952176547, was off by 1.1e-7).
H1_F_E = 0.06088469894718928
H1_C_E = 1.0 / (2.0 * np.pi)
H1_BF = 0.3825498458570321
H2_F_IE = 0.5457317058730390
H2_C_IE = 0.25
H2_BF = H2_F_IE / H2_C_IE
H3_F_E = 1.6078121556929343
H3_C_E = 1.0 / np.pi
H3_F_IE = 0.9958852473066347
H3_BF = 10.060613733940691
HC_BF = 0.6056912063764605
B31 = 26.29883097038439

THREE_HYP = "x1=x2=0; (x1,x2)>0; x1>x2=0"


def parse_one(text, coefs):
    systems = parse_hypotheses(text, coefs)
    assert len(systems) == 1
    return systems[0]


class TestPosteriorProbabilities:
    def test_worked_example_quadruple(self):
        p = posterior_probabilities((0.383, 2.183, 10.061, 0.606))
        assert np.allclose(p, (0.029, 0.165, 0.760, 0.046), atol=0.001)

    def test_normalization_example(self):
        p = posterior_probabilities((58.265, 32.525, 0.036, 0.357))
        assert p[0] == pytest.approx(0.639, abs=0.001)

    def test_equal_bayes_factors_give_uniform(self):
        assert np.allclose(posterior_probabilities([2.0, 2.0, 2.0]), 1 / 3)

    def test_weights_accepted_and_normalized(self):
        p = posterior_probabilities([1.0, 1.0], prior_probs=[3.0, 1.0])
        assert np.allclose(p, [0.75, 0.25])

    def test_equal_keyword(self):
        p = posterior_probabilities([1.0, 3.0], prior_probs="equal")
        assert np.allclose(p, [0.25, 0.75])

    def test_rejects_negative_bf(self):
        with pytest.raises(InvalidInputError):
            posterior_probabilities([-1.0, 2.0])

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            posterior_probabilities([1.0, 2.0], prior_probs=[1.0])

    def test_all_zero_scores_is_numeric_error(self):
        with pytest.raises(NumericError):
            posterior_probabilities([0.0, 0.0])

    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=6),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_scale_free(self, bs, scale):
        """Scaling every Bayes factor by a constant changes nothing."""
        p = posterior_probabilities(bs)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        q = posterior_probabilities([b * scale for b in bs])
        assert np.allclose(p, q, atol=1e-10)


class TestBfMatrix:
    def test_unit_diagonal_and_reciprocity(self):
        m = bf_matrix([0.383, 2.183, 10.061])
        assert np.allclose(np.diag(m), 1.0)
        assert np.allclose(m * m.T, 1.0, atol=1e-12)

    def test_transitivity(self):
        m = bf_matrix([0.5, 4.0, 8.0])
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    assert m[i, j] * m[j, l] == pytest.approx(m[i, l], rel=1e-12)


class TestBfUnconstrainedTwoEffect:
    """The deterministic scenario pins every component analytically."""

    def test_equality_only_hypothesis(self, two_effect_fit):
        cs = parse_one("x1=x2=0", two_effect_fit.coef_names)
        comp = bf_unconstrained(two_effect_fit, cs, 10_000, seed=1)
        assert comp.f_e == pytest.approx(H1_F_E, rel=1e-10)
        assert comp.c_e == pytest.approx(H1_C_E, rel=1e-12)
        assert comp.bf == pytest.approx(H1_BF, rel=1e-10)
        assert comp.c_ie is None and comp.f_ie is None
        assert comp.ci90 is None
        assert not comp.uses_mc

    def test_inequality_only_hypothesis(self, two_effect_fit):
        """(x1,x2)>0: two rows off the posterior's location are exact (the
        angular rule), so the factor is exact and has no interval."""
        cs = parse_one("(x1,x2)>0", two_effect_fit.coef_names)
        comp = bf_unconstrained(two_effect_fit, cs, 400_000, seed=2)
        assert comp.c_e is None and comp.f_e is None
        assert comp.f_ie.exact and comp.f_ie.n_draws == 0
        assert comp.f_ie.value == pytest.approx(H2_F_IE, rel=1e-12)
        assert comp.c_ie.exact and comp.c_ie.value == H2_C_IE
        assert comp.bf == pytest.approx(H2_BF, rel=1e-12)
        assert not comp.uses_mc
        assert comp.ci90 is None

    def test_mixed_hypothesis_fully_analytic(self, two_effect_fit):
        cs = parse_one("x1>x2=0", two_effect_fit.coef_names)
        comp = bf_unconstrained(two_effect_fit, cs, 10_000, seed=3)
        assert comp.f_e == pytest.approx(H3_F_E, rel=1e-10)
        assert comp.c_e == pytest.approx(H3_C_E, rel=1e-12)
        assert comp.f_ie.exact
        assert comp.f_ie.value == pytest.approx(H3_F_IE, abs=1e-12)
        assert comp.c_ie.exact
        assert comp.c_ie.value == 0.5
        assert comp.bf == pytest.approx(H3_BF, rel=1e-10)
        assert comp.ci90 is None

    def test_rank_deficient_centred_cone_is_exact(self, two_effect_fit):
        """x1>x2>0<x1: three rows of rank 2 through the prior's location
        take the closed form; under the identity prior scale the cone
        x1 > x2 > 0 is an eighth of the plane."""
        cs = parse_one("x1>x2>0<x1", two_effect_fit.coef_names)
        comp = bf_unconstrained(two_effect_fit, cs, 10_000, seed=8)
        assert comp.c_ie.exact and comp.c_ie.n_draws == 0
        assert comp.c_ie.value == pytest.approx(0.125, abs=1e-15)

    def test_printed_df_mode_changes_the_conditional(self, two_effect_fit):
        cs = parse_one("x1>x2=0", two_effect_fit.coef_names)
        normal = bf_unconstrained(two_effect_fit, cs, 10_000, seed=3)
        printed = bf_unconstrained(
            two_effect_fit, cs, 10_000, seed=3, df_as_printed=True
        )
        assert printed.bf != pytest.approx(normal.bf, rel=1e-6)

    def test_boundary_estimate_gives_unit_bayes_factor(self):
        fit = RegressionFit(
            coef_names=("(Intercept)", "x1"),
            beta_hat=np.array([2.0, 0.0]),
            s2=30.0,
            xtx_inv=np.diag([1 / 40, 1 / 39]),
            n=40,
            k=2,
        )
        cs = parse_one("x1>0", fit.coef_names)
        comp = bf_unconstrained(fit, cs, 10_000, seed=4)
        assert comp.f_ie.exact and comp.c_ie.exact
        assert comp.f_ie.value == 0.5
        assert comp.c_ie.value == 0.5
        assert comp.bf == 1.0

    def test_vanishing_prior_probability_raises(self):
        """A sliver of prior mass below the float range is an error, not a
        silent infinity.  With noise of scale 1e120 the prior on each slope
        is a t of scale near 1e120, so the cube 1e-8 > (x1,x2,x3) > 0
        holds prior mass near 1e-385."""
        fit = make_random_fit(seed=96, n=30, k=4, sigma=1e120)
        cs = parse_one("1e-8>(x1,x2,x3)>0", fit.coef_names)
        with pytest.warns(ConstraintCenterWarning):
            with pytest.raises(NumericError, match="prior"):
                bf_unconstrained(fit, cs, 20_000, seed=5)

    @pytest.mark.parametrize("mcrep", [_SHIFTS - 1, 50_000])
    def test_band_next_to_equality_centers_on_least_squares_point(
        self, two_effect_fit, mcrep
    ):
        """1 > x1 > x2 = 0 has no exact prior center; it warns and works.

        Given x2 = 0 the prior on x1 is t with 2 df and scale 1/2, centered
        at x1 = 1/2, so Pr(0 < x1 < 1) = 2 T_2(1/sqrt 2) - 1 = 1/sqrt 5.
        The band's two rows have rank 1: an exact interval at any budget,
        below one point per lattice shift too.
        """
        cs = parse_one("1 > x1 > x2 = 0", two_effect_fit.coef_names)
        with pytest.warns(ConstraintCenterWarning, match="^H1:"):
            comp = bf_unconstrained(two_effect_fit, cs, mcrep, seed=6)
        assert np.isfinite(comp.bf) and comp.bf > 0
        assert comp.c_ie.exact and comp.c_ie.n_draws == 0
        assert abs(comp.c_ie.value - 1 / np.sqrt(5)) <= 1e-12

    def test_inexact_band_counts_t_draws(self):
        """Below one point per lattice shift a band of rank 3, 1 > x1 > x2
        > x3 > x4 = 0, is not exact: its prior factor takes one point on each
        of that many shifts and agrees with raw t draws.  (A band of rank 2
        is exact by the angular rule.)"""
        n = _SHIFTS - 1
        fit = make_random_fit(seed=91, n=40, k=5)
        cs = parse_one("1 > x1 > x2 > x3 > x4 = 0", fit.coef_names)
        with pytest.warns(ConstraintCenterWarning, match="^H1:"):
            comp = bf_unconstrained(fit, cs, n, seed=6)
            ts = build_transform(cs, fit)
        red = cs.reduction
        prior = conditional_xiI(
            fit, ts, minimal_fraction(fit), ts.xi_hat[:1]
        ).relocate(red.center)
        ref = oracle_inequality_prob(prior, red.Rtilde_I, red.rtilde_I, 400_000, seed=7)
        assert not comp.c_ie.exact and comp.c_ie.n_draws == n
        se = np.hypot(comp.c_ie.std_error, ref.value * ref.rel_error_bound)
        assert comp.c_ie.std_error > 0 and abs(comp.c_ie.value - ref.value) < 4 * se

    def test_mixed_centred_cone_is_exact(self):
        """(x1,x2)>x3=0: the conditional prior cone has a closed form (and
        the posterior's pair off its location the angular rule).

        The oracle samples the conditional prior in raw coordinates with
        the apex at its own location.
        """
        fit = make_random_fit(seed=91, n=40, k=4)
        cs = parse_one("(x1,x2)>x3=0", fit.coef_names)
        comp = bf_unconstrained(fit, cs, 100_000, seed=92)
        assert comp.c_ie.exact and comp.f_ie.exact
        ts = build_transform(cs, fit)
        prior = conditional_xiI(fit, ts, minimal_fraction(fit), ts.xi_hat[:1])
        Rt = cs.reduction.Rtilde_I
        apex = Rt @ ts.xi_hat[1:]
        ref = oracle_inequality_prob(prior, Rt, apex, 400_000, seed=93)
        assert abs(comp.c_ie.value - ref.value) < 4 * ref.value * ref.rel_error_bound

    def test_dependent_equality_rows_are_inconsistent(self, two_effect_fit):
        """Hand-built systems bypassing the parser fail as validate does:
        a repeated row, and more equality rows (4) than coefficients (3)."""
        row = np.array([[0.0, 1.0, 0.0]])
        for R_E in (np.vstack([row, row]), np.vstack([np.eye(3), np.ones(3)])):
            q_E = R_E.shape[0]
            cs = ConstraintSystem(
                "H1", "x1=0", R_E, np.zeros(q_E), np.zeros((0, 3)), []
            )
            with pytest.raises(InconsistentEqualityError, match="dependent"):
                validate(cs)
            with pytest.raises(InconsistentEqualityError, match="dependent"):
                bf_unconstrained(two_effect_fit, cs, 10_000, seed=7)

    def test_overflowing_bayes_factor_saturates(self):
        """A log BF past the float range gives bf = inf, not OverflowError.

        Posteriors are normalised from the log BFs, so the hypothesis
        still gets (nearly) all the posterior mass.
        """
        k, n = 101, 10**12
        names = ("(Intercept)",) + tuple(f"x{j}" for j in range(1, k))
        fit = RegressionFit(names, np.zeros(k), float(n), np.eye(k) / n, n, k)
        text = "=".join(names[1:]) + "=0"
        comp = bf_unconstrained(fit, parse_one(text, names), 10_000, seed=8)
        assert comp.bf == np.inf
        assert np.isfinite(comp.log_bf) and comp.log_bf > 709.8
        res = run_hypotheses(fit, text, mcrep=10_000, seed=8)
        assert res.labels == ("H1", "Hc")
        assert np.all(np.isfinite(res.post_probs))
        assert res.post_probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert res.post_probs[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "text, equalities", [("0 < x1 = 1", "x1 = 1"), ("1 > x1 = 0", "x1 = 0")]
    )
    def test_vacuous_row_does_not_move_the_prior_center(
        self, two_effect_fit, text, equalities
    ):
        """A row the equalities make vacuous is dropped, not centered on.

        Its probability factors stay exactly 1, so the Bayes factor is the
        equality part's alone.
        """
        names = two_effect_fit.coef_names
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConstraintCenterWarning)
            comp = bf_unconstrained(two_effect_fit, parse_one(text, names), 10_000, 9)
            res = run_hypotheses(two_effect_fit, text, mcrep=10_000, seed=9)
        ref = bf_unconstrained(two_effect_fit, parse_one(equalities, names), 10_000, 9)
        for est in (comp.c_ie, comp.f_ie):
            assert est.exact and est.value == 1.0
        assert comp.log_bf == ref.log_bf
        assert res.components[0].log_bf == ref.log_bf

    def test_every_coefficient_pinned_leaves_the_equality_factor(self):
        """1 > x1 = (Intercept) = 0 on y ~ x1: no free direction is left,
        and the vacuous row leaves the Bayes factor of the equalities."""
        fit = make_random_fit(seed=94, n=40, k=2)
        names = fit.coef_names
        cs = parse_one("1 > x1 = (Intercept) = 0", names)
        comp = bf_unconstrained(fit, cs, 10_000, seed=95)
        pinned = parse_one("x1 = (Intercept) = 0", names)
        ref = bf_unconstrained(fit, pinned, 10_000, seed=95)
        for est in (comp.c_ie, comp.f_ie):
            assert est.exact and est.value == 1.0
        assert comp.log_bf == ref.log_bf
        res = run_hypotheses(fit, "1 > x1 = (Intercept) = 0", mcrep=10_000, seed=95)
        assert res.components[0].log_bf == ref.log_bf
        assert validate(cs).n_trivial_rows == 1


class TestTestHypotheses:
    def test_two_effect_full_run(self, two_effect_fit):
        res = run_hypotheses(
            two_effect_fit, THREE_HYP, mcrep=1_000_000, seed=42
        )
        assert res.labels == ("H1", "H2", "H3", "Hc")
        assert res.hypothesis_texts == (
            "x1=x2=0",
            "(x1,x2)>0",
            "x1>x2=0",
            "Not H1-H3",
        )
        bf = [c.bf for c in res.components]
        assert bf[0] == pytest.approx(H1_BF, rel=1e-10)
        assert bf[1] == pytest.approx(H2_BF, rel=0.01)
        assert bf[2] == pytest.approx(H3_BF, rel=1e-10)
        assert bf[3] == pytest.approx(HC_BF, rel=0.01)
        assert np.allclose(
            res.post_probs, (0.029, 0.165, 0.760, 0.046), atol=0.002
        )
        assert res.post_probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.bf_matrix[2, 0] == pytest.approx(B31, rel=0.001)

    def test_deterministic_given_seed(self, two_effect_fit):
        """The same seed gives the same bits; another seed moves the lattice
        estimate of H2, whose posterior rows have rank 3, and nothing
        exact."""
        text = "x1=x2=0; (Intercept)>x1>x2>0; x1>x2=0"
        a = run_hypotheses(two_effect_fit, text, mcrep=50_000, seed=7)
        b = run_hypotheses(two_effect_fit, text, mcrep=50_000, seed=7)
        assert [c.bf for c in a.components] == [c.bf for c in b.components]
        assert np.array_equal(a.post_probs, b.post_probs)
        c = run_hypotheses(two_effect_fit, text, mcrep=50_000, seed=8)
        assert not a.components[1].f_ie.exact
        assert a.components[1].bf != c.components[1].bf
        assert a.components[2].bf == c.components[2].bf

    def test_exploratory_string_delegates(self, two_effect_fit):
        res = run_hypotheses(two_effect_fit, "exploratory", seed=1)
        assert res.post_probs.shape == (3, 3)

    def test_error_carries_hypothesis_label(self, two_effect_fit):
        with pytest.raises(Exception, match="H2"):
            run_hypotheses(two_effect_fit, "x1>0; zzz>0", seed=1)

    def test_unlabelled_error_gets_the_hypothesis_label(self, two_effect_fit, monkeypatch):
        """An error raised without a label, here from the kernel, is raised
        again as the same type with its hypothesis' label in front."""

        def fail(*args):
            raise NumericError("boom")

        monkeypatch.setattr(bfreg.engine, "mvt_constraint_prob", fail)
        with pytest.raises(NumericError) as info:
            run_hypotheses(two_effect_fit, "x1>0", seed=1)
        assert type(info.value) is NumericError and str(info.value) == "H1: boom"

    def test_prior_weight_count_message_mentions_complement(
        self, two_effect_fit
    ):
        with pytest.raises(InvalidInputError, match="automatic complement"):
            run_hypotheses(
                two_effect_fit, "x1>0", prior_probs=[1.0, 2.0, 3.0], seed=1
            )

    @pytest.mark.parametrize(
        "weights, message",
        [
            ("Equal", "'equal' or numbers"),
            ([1.0, "a", 1.0], "'equal' or numbers"),
            ([[1.0, 1.0, 1.0]], r"shape \(1, 3\)"),
            ([1.0, -1.0, 1.0], "nonnegative"),
        ],
    )
    def test_malformed_prior_weights_are_invalid_input(
        self, two_effect_fit, weights, message
    ):
        with pytest.raises(InvalidInputError, match=message):
            run_hypotheses(
                two_effect_fit, "x1>0; x2>0", prior_probs=weights, mcrep=10_000, seed=1
            )

    def test_equality_reduction_runs_once_per_mixed_hypothesis(
        self, two_effect_fit, monkeypatch
    ):
        """validate, build_transform and bf_unconstrained share one
        reduction, and a second test of the same text over the same names
        reuses the validated system."""
        calls = []
        reduction = bfreg.hyparse.EqualityReduction

        def counted(*args):
            calls.append(1)
            return reduction(*args)

        monkeypatch.setattr(bfreg.hyparse, "EqualityReduction", counted)
        bfreg.engine._validated.cache_clear()
        run_hypotheses(two_effect_fit, "x1>x2=0", mcrep=10_000, seed=1)
        run_hypotheses(two_effect_fit, "x1>x2=0", mcrep=10_000, seed=2)
        assert len(calls) == 1

    def test_one_point_per_lattice_shift(self):
        """A budget of 100 takes one lattice point on each of 64 shifts;
        the prior's df is 1, where some shifts have only points of weight
        0.  Every seed gives finite factors and posteriors."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 2))
        y = x @ np.array([0.4, 0.2]) + rng.standard_normal(40)
        fit = fit_ols(Dataset(("y", "x1", "x2"), np.column_stack([y, x])), "y ~ x1 + x2")
        for seed in range(1, 21):
            with warnings.catch_warnings():
                # the chain has no exact prior center
                warnings.simplefilter("ignore", ConstraintCenterWarning)
                res = run_hypotheses(fit, "1 > x1 > x2 > 0", mcrep=100, seed=seed)
            for comp in res.components:
                assert np.isfinite(comp.log_bf)
                for est in (comp.c_ie, comp.f_ie):
                    assert 0.0 <= est.value <= 1.0 and np.isfinite(est.std_error)
            assert np.isfinite(res.post_probs).all()

    def test_prior_weights_reorder_posteriors(self, two_effect_fit):
        res = run_hypotheses(
            two_effect_fit,
            "x1>0",
            prior_probs=[1.0, 3.0],
            mcrep=50_000,
            seed=2,
        )
        b = [c.bf for c in res.components]
        expected = np.array([b[0] * 1.0, b[1] * 3.0])
        expected /= expected.sum()
        assert np.allclose(res.post_probs, expected, atol=1e-12)


def _clear_memos():
    bfreg.engine._validated.cache_clear()
    bfreg.numkernel._table_of.cache_clear()


def _same_result(a, b) -> bool:
    return (
        a.components == b.components
        and np.array_equal(a.post_probs, b.post_probs)
        and np.array_equal(a.bf_matrix, b.bf_matrix, equal_nan=True)
    )


class TestRepeatedTests:
    """What depends on the hypotheses alone is worked out once per text
    and coefficient names, and per row content, and reused."""

    # a mixed hypothesis, then three inequality-only ones (the first
    # rank-deficient) whose complement takes lattice terms
    HYP = "x1>x2=0; x1>x2>0<x1; x1>0; x2<x1"

    def test_memo_changes_no_bit(self):
        fits = [make_random_fit(seed) for seed in (31, 32)]
        _clear_memos()
        warm = [run_hypotheses(fit, self.HYP, mcrep=20_000, seed=s) for fit, s in zip(fits, (1, 2))]
        assert bfreg.engine._validated.cache_info().hits >= 1
        assert bfreg.numkernel._table_of.cache_info().hits >= 1
        for fit, s, res in zip(fits, (1, 2), warm):
            _clear_memos()
            assert _same_result(res, run_hypotheses(fit, self.HYP, mcrep=20_000, seed=s))

    def test_memoised_arrays_are_read_only(self, two_effect_fit):
        run_hypotheses(two_effect_fit, self.HYP, mcrep=20_000, seed=1)
        systems = bfreg.engine._validated(self.HYP, two_effect_fit.coef_names)
        with pytest.raises(ValueError, match="read-only"):
            systems[0].R_I[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            systems[0].reduction.Rtilde_I[0, 0] = 2.0
        red = systems[2].reduction
        table = bfreg.numkernel._table([(red.Rtilde_I, red.rtilde_I)])
        with pytest.raises(ValueError, match="read-only"):
            table.rows[0, 0] = 2.0

    def test_syntax_error_raises_on_every_call(self, two_effect_fit):
        for _ in range(2):
            with pytest.raises(HypothesisSyntaxError):
                run_hypotheses(two_effect_fit, "x1>>0", mcrep=1_000, seed=1)

    @pytest.mark.parametrize("text, label", [("x1 > 1; x1 < 0", "Hc"), ("1 > x1 > x2 = 0", "H1")])
    def test_center_warning_on_every_call(self, two_effect_fit, text, label):
        for seed in (1, 2):
            with pytest.warns(ConstraintCenterWarning, match=label):
                run_hypotheses(two_effect_fit, text, mcrep=20_000, seed=seed)


class TestComplement:
    def test_single_inequality_hypothesis_reuses_estimates(
        self, two_effect_fit
    ):
        res = run_hypotheses(
            two_effect_fit, "(x1,x2)>0", mcrep=200_000, seed=11
        )
        assert res.labels == ("H1", "Hc")
        assert res.hypothesis_texts[1] == "Not H1"
        h, hc = res.components
        assert hc.f_ie.value == pytest.approx(1.0 - h.f_ie.value, abs=1e-15)
        assert hc.c_ie.value == pytest.approx(1.0 - h.c_ie.value, abs=1e-15)
        assert hc.bf == pytest.approx(
            (1.0 - h.f_ie.value) / (1.0 - h.c_ie.value), rel=1e-12
        )

    def test_single_row_complement_is_the_t_tail(self):
        """x1 > 0 on the k = 5 fit, where Pr(x1 <= 0) is about 5e-13: Hc's
        f_ie is the t CDF of the negated row (scipy ``stdtr``), not ``1 -
        p``, which cancels to a few digits."""
        from scipy.special import stdtr

        fit = _k5_fit()
        hc = run_hypotheses(fit, "x1>0", mcrep=40_000, seed=1).components[1]
        post = bfreg.fractional_posterior_beta(fit, 1.0)
        want = stdtr(post.df, -post.location[1] / np.sqrt(post.scale[1, 1]))
        assert hc.f_ie.exact and want < 1e-12
        assert hc.f_ie.value == pytest.approx(want, rel=1e-15)

    def test_no_inequality_hypotheses_complement_is_unconstrained(
        self, two_effect_fit
    ):
        res = run_hypotheses(
            two_effect_fit, "x1=0; x2=0", mcrep=10_000, seed=12
        )
        assert res.labels == ("H1", "H2", "Hc")
        assert res.components[2].bf == 1.0
        assert not res.components[2].uses_mc

    def test_inexact_union_center_warns_for_complement(self, two_effect_fit):
        """x1 > 1 and x1 < 0 share no boundary point: only Hc warns.

        The union's prior center is x1 = 1/2, and the prior on x1 is a
        Cauchy of scale 1 there, so the complement keeps 2 atan(1/2) / pi
        of it.  The pinned Bayes factors come from centering the union on
        the pseudoinverse solution of the stacked rows, the same point.
        The two regions are disjoint in closed form, so the complement is
        exact by inclusion-exclusion: Hc's factor is ``(1 - f1 - f2) / (2
        atan(1/2) / pi)`` with ``f`` the posterior t tails (scipy.stats,
        df 17, scale 1/17 on x1 around 0.7).
        """
        with pytest.warns(ConstraintCenterWarning, match="^Hc:") as record:
            res = run_hypotheses(
                two_effect_fit, "x1 > 1; x1 < 0", mcrep=20_000, seed=3
            )
        assert len(record) == 1
        assert [c.bf for c in res.components] == pytest.approx(
            [0.2329279230312939, 0.010258668651996086, 2.97596277331726],
            rel=1e-12,
        )
        hc = res.components[2]
        want = 2 * np.arctan(0.5) / np.pi
        assert hc.c_ie.exact and hc.f_ie.exact
        assert abs(hc.c_ie.value - want) <= 1e-12

    def test_exhaustive_pair_omits_complement(self, two_effect_fit):
        """x1 > 0 and x1 < 0 cover everything but a null set."""
        res = run_hypotheses(
            two_effect_fit, "x1>0; x1<0", mcrep=100_000, seed=13
        )
        assert res.labels == ("H1", "H2")

    def test_disjoint_union_matches_sum(self, two_effect_fit):
        """For disjoint regions the union equals the sum of the parts."""
        res = run_hypotheses(
            two_effect_fit, "(x1,x2)>0; (x1,x2)<0", mcrep=400_000, seed=14
        )
        assert res.labels == ("H1", "H2", "Hc")
        h1, h2, hc = res.components
        # prior side: both hypotheses and the union center on the same
        # origin, so the exact orthant factors are the union's terms and
        # their intersection is empty in closed form: 1 - U_c = 1 - c1 - c2
        assert hc.c_ie.exact and h1.c_ie.exact and h2.c_ie.exact
        assert abs(hc.c_ie.value - (1.0 - h1.c_ie.value - h2.c_ie.value)) <= 1e-15
        # posterior side: both orthants are exact off the location too
        assert hc.f_ie.exact and h1.f_ie.exact and h2.f_ie.exact
        assert abs(hc.f_ie.value - (1.0 - h1.f_ie.value - h2.f_ie.value)) <= 1e-12

    def test_overlapping_union_bounded_by_sum(self, two_effect_fit):
        """x1 > 0 or x1 > x2 under a prior centred on both apexes.

        The prior is elliptical about the origin with x1, x2 uncorrelated
        and of equal scale, so both halves hold with probability 1/2 and
        both together with 1/4 + asin(1/sqrt 2) / (2 pi) = 3/8 (Sheppard):
        the union is 5/8 and its complement 3/8, exactly.
        """
        res = run_hypotheses(
            two_effect_fit, "x1>0; x1>x2", mcrep=400_000, seed=15
        )
        h1, h2, hc = res.components
        assert h1.c_ie.value == h2.c_ie.value == 0.5
        assert hc.c_ie.exact
        assert abs(hc.c_ie.value - 3.0 / 8.0) <= 1e-15

    def test_implied_hypothesis_leaves_an_exact_half(self, two_effect_fit):
        """x1 > x2 > 0 or x1 > x2: H1 lies inside H2, so the union is H2 and
        under the prior, centred on the apex, the complement keeps exactly
        1/2.  Their intersection repeats the row x1 - x2 > 0; with it the
        closed form of three rows read 0.4999999983230302."""
        res = run_hypotheses(two_effect_fit, "x1>x2>0; x1>x2", mcrep=20_000, seed=3)
        _, h2, hc = res.components
        assert hc.c_ie.exact and hc.c_ie.value == 0.5
        assert hc.f_ie.exact and abs(hc.f_ie.value - (1.0 - h2.f_ie.value)) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 3])
    def test_repeated_own_row_leaves_an_exact_eighth(self, two_effect_fit, seed):
        """(x1,x1) > x2 > 0 states x1 - x2 > 0 twice; the reduction keeps one
        copy, so the prior, centred on the apex, holds the cone with the
        closed form of two rows, 1/8 exactly (three rows read
        0.12499999832303021)."""
        res = run_hypotheses(two_effect_fit, "(x1,x1)>x2>0", mcrep=20_000, seed=seed)
        assert res.components[0].c_ie == ProbEstimate(0.125, 0.0, True, 0)

    def test_implied_row_leaves_the_prior_center_exact(self, two_effect_fit):
        """x1 > 1 implies x1 > 0: both H1 and the complement centre the
        prior on x1 = 1 exactly, with no warning, so each keeps 1/2."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConstraintCenterWarning)
            res = run_hypotheses(two_effect_fit, "0<x1>1", mcrep=20_000, seed=1)
        h1, hc = res.components
        assert h1.c_ie == hc.c_ie == ProbEstimate(0.5, 0.0, True, 0)

    def test_equality_hypotheses_do_not_shrink_the_complement(
        self, two_effect_fit
    ):
        """Measure-zero slices leave the complement untouched.

        The inequality hypothesis sits at a different position in each
        list, so its estimates take different streams; they are exact, so
        the complement's factor agrees to rounding.
        """
        with_eq = run_hypotheses(
            two_effect_fit, "x1=x2=0; (x1,x2)>0", mcrep=200_000, seed=16
        )
        only_ineq = run_hypotheses(
            two_effect_fit, "(x1,x2)>0", mcrep=200_000, seed=16
        )
        a, b = with_eq.components[-1], only_ineq.components[-1]
        assert a.f_ie.exact and a.c_ie.exact and b.f_ie.exact and b.c_ie.exact
        assert abs(np.log(a.bf) - np.log(b.bf)) <= 1e-12


def _k5_fit():
    """The k = 5 fit of scripts/dump_outputs.py: n = 200, slopes .5, .3, .1, -.1."""
    rng = np.random.default_rng(2018)
    x = rng.standard_normal((200, 4))
    y = 0.2 + x @ np.array([0.5, 0.3, 0.1, -0.1]) + rng.standard_normal(200)
    data = Dataset(("y", "x1", "x2", "x3", "x4"), np.column_stack([y, x]))
    return fit_ols(data, "y ~ x1 + x2 + x3 + x4")


def _posterior_t(fit, b):
    """Location, scale and df of the fraction-b posterior of beta."""
    nu = fit.n * b - fit.k
    return MultivariateT(fit.beta_hat, fit.s2 / nu * fit.xtx_inv, nu)


def _order_fit():
    """The fit of the benchmark's order-mc workload: n = 200, coefficients
    0, .6, .5, .4, .3, .2 and .1, centred predictors of variance 1 that are
    exactly decorrelated, and a raw residual sum of squares of n - k."""
    n, k = 200, 7
    return RegressionFit(
        coef_names=("(Intercept)", *(f"x{j}" for j in range(1, k))),
        beta_hat=np.array([0.0, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]),
        s2=float(n - k),
        xtx_inv=np.diag([1 / n] + [1 / (n - 1)] * (k - 1)),
        n=n,
        k=k,
    )


def _every_term_sum(dist, pivots, terms, table, known, mcrep, seed, cap):
    """``1 - U`` under the pieces of ``pivots`` with every term taken
    through ``_blocks`` of its ``_path`` on its stream and refined to the
    sum's target, none bounded: the value and the combined standard
    error.  For terms that each hold a piece and at most one other
    system."""
    assert pivots and all(node and len(S) <= 1 for S, node, _ in terms)
    signs, blocks = [], []
    for S, node, ix in terms:
        stream = derived_seed(seed, 2, *node, *S)
        signs.append((-1) ** len(S))
        blocks.append(_blocks(_path(dist, table.rows[ix], table.bounds[ix]), stream, cap))
    ests = [next(b) for b in blocks]
    value = sum(sign * est.value for sign, est in zip(signs, ests))
    target = bfreg.numkernel._term_target(value, sum(not est.exact for est in ests), mcrep)
    for k, b in enumerate(blocks):
        for finer in b:
            if ests[k].std_error <= target:
                break
            ests[k] = finer
    value = sum(sign * est.value for sign, est in zip(signs, ests))
    return value, np.sqrt(sum(est.std_error**2 for est in ests))


class TestComplementRoutes:
    """How the complement's ``1 - U`` is estimated, end to end."""

    def _routes(self, monkeypatch, returned=None):
        """The pivot systems of each route summed, in order: ``()`` for
        inclusion-exclusion, ``(i,)`` under the likeliest system ``i`` and
        every system for the walk."""
        taken = []
        term_sum = bfreg.numkernel._term_sum

        def spy(dist, pivots, *args):
            taken.append(pivots)
            out = term_sum(dist, pivots, *args)
            if returned is not None:
                returned.append(out)
            return out

        monkeypatch.setattr(bfreg.numkernel, "_term_sum", spy)
        return taken

    def test_unresolved_inclusion_exclusion_falls_back_to_direct(self, monkeypatch):
        """x4<x1>x2>0; x4<x2>x1>0 (rows of rank 3) leaves x1 <= 0, x2 <= 0,
        or the larger of x1, x2 at most x4: about 4e-8.

        Inclusion-exclusion cannot resolve it at mcrep 40000 and the
        disjoint pieces take over; the reference brackets it between the
        larger t tail of x1 <= 0 and x2 <= 0, each inside it, and the sum
        of the tails of those and of x1 <= x4 and x2 <= x4 (scipy.stats).
        """
        from scipy import stats

        fit = _k5_fit()
        taken = self._routes(monkeypatch)
        res = run_hypotheses(fit, "x4<x1>x2>0; x4<x2>x1>0", mcrep=40_000, seed=1)
        assert taken == [(), (0, 1), ()]
        h1, h2, hc = res.components
        post = _posterior_t(fit, 1.0)
        rows = np.array([[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, -1], [0, 0, 1, 0, -1]])
        sd = np.sqrt(np.diag(rows @ post.scale @ rows.T))
        tails = stats.t.cdf(-(rows @ post.location) / sd, post.df)
        f = hc.f_ie
        assert not f.exact and 0 < f.n_draws <= 40_000 and f.std_error > 0
        assert tails[:2].max() - 4 * f.std_error <= f.value <= tails.sum() + 4 * f.std_error
        assert f.std_error < 0.1 * f.value
        # the prior terms are exact orthants and their pair is empty
        assert hc.c_ie.exact
        assert abs(hc.c_ie.value - (1.0 - h1.c_ie.value - h2.c_ie.value)) <= 1e-15
        assert np.all(np.isfinite(res.bf_matrix))

    def test_single_hypothesis_near_one_takes_the_pieces(self, monkeypatch):
        """x4 < (x1,x2) > 0.12 (four rows of rank 3) on the k = 5 fit
        misses with posterior probability about 6e-5, so ``mcrep (1 - p) <
        1`` at mcrep 10000: Hc's f_ie is the sum of the hypothesis's
        disjoint pieces, against raw t draws, not ``1 - p`` with the SE of
        p."""
        fit = _k5_fit()
        text = "x4<(x1,x2)>0.12"
        taken = self._routes(monkeypatch)
        h, hc = run_hypotheses(fit, text, mcrep=10_000, seed=7).components
        assert 10_000 * (1.0 - h.f_ie.value) < 1.0
        assert taken == [(0,), ()]
        f = hc.f_ie
        assert not f.exact and 0 < f.n_draws <= 10_000
        systems = [(cs.R_I, cs.r_I) for cs in parse_hypotheses(text, fit.coef_names)]
        ref = oracle_complement_prob(_posterior_t(fit, 1.0), systems, 400_000, seed=71, rel_se=0.05)
        se = np.hypot(f.std_error, ref.value * ref.rel_error_bound)
        assert abs(f.value - ref.value) < 4 * se
        assert f.std_error < 0.1 * f.value

    def test_cancelling_terms_fall_back_to_the_walk(self, monkeypatch):
        """x1>0.1; x2<-0.2; x4<(x1,x2)>0.05 leaves about 7e-11 (x3>x4=0.5
        has an equality and no part in the union).  Under the pieces of
        x1>0.1 it is the exact Pr(x1 <= 0.1) less a lattice overlap of rank
        3 nearly as large, whose standard error outweighs the difference:
        the walk over every hypothesis's pieces follows, its estimate
        stands, and the points of both routes count."""
        fit = _k5_fit()
        text = "x1>0.1; x2<-0.2; x3>x4=0.5; x4<(x1,x2)>0.05"
        returned = []
        taken = self._routes(monkeypatch, returned)
        with pytest.warns(ConstraintCenterWarning):
            f = run_hypotheses(fit, text, mcrep=40_000, seed=1).components[-1].f_ie
        assert taken[:2] == [(0,), (0, 1, 2)]
        (route, balanced), (walk, _) = returned[:2]
        assert not balanced
        assert (f.value, f.std_error) == (walk.value, walk.std_error)
        assert f.n_draws == route.n_draws + walk.n_draws <= 40_000
        assert f.std_error < 0.2 * f.value

    def test_far_tail_terms_are_bounded_not_sampled(self, monkeypatch):
        """On the benchmark's order-mc fit, (x1,x2,x3)>0 misses with
        posterior probability about 3e-8, so Hc's f_ie sums the terms under
        its three pieces.  Six of them hold a piece and one of the two
        chains, far below 1e-12; their half-space bounds sum to far less
        than a hundredth of the others' standard error, so they take no
        point: one term starts the lattice, not seven.  The sum agrees
        within 1e-3 of its standard error with every term taken on its
        ``_path``, and its standard error with theirs to 1e-4."""
        text = "x1>x2>x3>x4>x5>x6; x6>x5>x4>x3>x2>x1; (x1,x2,x3)>0; x1>x2>x3=x4=x5=x6=0"
        starts, calls = [], []
        lattice, term_sum = bfreg.numkernel._lattice_prob, bfreg.numkernel._term_sum

        def count(*args):
            starts.append(args)
            return lattice(*args)

        def spy(*args):
            before = len(starts)
            out = term_sum(*args)
            calls.append((args, out[0], len(starts) - before))
            return out

        monkeypatch.setattr(bfreg.numkernel, "_lattice_prob", count)
        monkeypatch.setattr(bfreg.numkernel, "_term_sum", spy)
        hc = run_hypotheses(_order_fit(), text, mcrep=1_000_000, seed=5).components[-1]
        args, est, started = calls[0]
        assert args[1] == (2,) and hc.f_ie == est
        assert started == 1 and est.n_draws == 1024
        assert sum(len(S) == 1 for S, _, _ in args[2]) == 6
        value, se = _every_term_sum(*args)
        assert abs(est.value - value) <= 1e-3 * est.std_error
        assert abs(est.std_error / se - 1.0) <= 1e-4

    def test_terms_past_one_block_each_take_fewer_points(self):
        """43 worst-case terms (7 of inclusion-exclusion and the walk's 36
        leaves) leave less than one 1024-point block per term at mcrep
        40000: the terms take fewer points, within the budget, and agree
        with raw t draws."""
        fit = _k5_fit()
        text = "x1>x2>x3>x4; x3>x1>x4>x2; (x1,x2,x3,x4)>0"
        hc = run_hypotheses(fit, text, mcrep=40_000, seed=2).components[-1]
        systems = [(cs.R_I, cs.r_I) for cs in parse_hypotheses(text, fit.coef_names)]
        prior = _posterior_t(fit, minimal_fraction(fit)).relocate(np.zeros(fit.k))
        for est, dist, seed in ((hc.f_ie, _posterior_t(fit, 1.0), 21), (hc.c_ie, prior, 22)):
            assert not est.exact and 0 < est.n_draws <= 40_000 and est.std_error > 0
            ref = oracle_complement_prob(dist, systems, 400_000, seed)
            se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
            assert abs(est.value - ref.value) < 4 * se

    def test_same_seed_same_bits(self):
        fit = _k5_fit()
        text = "x1>x2>0; (x3,x4)<0; (x1,x2)>(x3,x4)"
        a = run_hypotheses(fit, text, mcrep=40_000, seed=4).components[-1]
        b = run_hypotheses(fit, text, mcrep=40_000, seed=4).components[-1]
        for x, y in ((a.f_ie, b.f_ie), (a.c_ie, b.c_ie)):
            assert x == y and x.value.hex() == y.value.hex()
            assert x.std_error.hex() == y.std_error.hex()
        c = run_hypotheses(fit, text, mcrep=40_000, seed=5).components[-1]
        assert c.f_ie != a.f_ie and c.c_ie != a.c_ie

    @pytest.mark.parametrize("mcrep", [10_000, 100_000, 1_000_000])
    def test_points_within_mcrep(self, mcrep):
        fit = _k5_fit()
        for text in (
            "x1>x2>0; (x3,x4)<0",
            "x1>x2>0; x2>x1>0",
            "x1>0.1; x2<-0.2; (x1,x2)>0.05",
            "x1>x2>0; (x3,x4)<0; (x1,x2)>(x3,x4)",
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConstraintCenterWarning)
                hc = run_hypotheses(fit, text, mcrep=mcrep, seed=6).components[-1]
            for est in (hc.f_ie, hc.c_ie):
                assert 0 <= est.n_draws <= mcrep
                assert est.exact or est.std_error > 0

    def test_prior_reuse_needs_the_union_center(self, two_effect_fit, monkeypatch):
        """A component's c_ie stands for its term only when its prior
        center is the union's; f_ie always may."""
        seen = []
        complement = bfreg.engine.complement_prob

        def spy(dist, systems, known, mcrep, seed):
            seen.append(list(known))
            return complement(dist, systems, known, mcrep, seed)

        monkeypatch.setattr(bfreg.engine, "complement_prob", spy)
        with pytest.warns(ConstraintCenterWarning):
            res = run_hypotheses(two_effect_fit, "x1 > 1; x1 < 0", mcrep=20_000, seed=3)
        # centers 1, 0 and 1/2
        assert seen[0] == [c.f_ie for c in res.components[:2]]
        assert seen[1] == [None, None]
        seen.clear()
        res = run_hypotheses(two_effect_fit, "(x1,x2)>0; (x1,x2)<0", mcrep=20_000, seed=3)
        assert all(a is c.c_ie for a, c in zip(seen[1], res.components[:2]))


def _generated_hypotheses(rng, names):
    """2 to 4 inequality hypotheses over ``names``: orthants of one to
    three coefficients either way, chains of two or three (down to 0 or
    not) and single coefficients against a number."""
    texts = []
    for _ in range(rng.integers(2, 5)):
        pick = list(rng.permutation(names)[: rng.integers(1, min(3, len(names)) + 1)])
        kind = rng.integers(3)
        if kind == 0:
            group = "(" + ",".join(pick) + ")" if len(pick) > 1 else pick[0]
            texts.append(group + rng.choice([">0", "<0"]))
        elif kind == 1 and len(pick) > 1:
            texts.append(">".join(pick) + rng.choice(["", ">0"]))
        else:
            texts.append(f"{pick[0]}{rng.choice(['>', '<'])}{rng.choice([-0.2, 0.1, 0.3])}")
    return "; ".join(texts)


class TestGeneratedComplements:
    """Hc's factors on generated hypothesis sets, against raw t draws."""

    def test_against_raw_draws(self, monkeypatch):
        """32 generated sets of 2 to 4 inequality hypotheses on simulated
        fits (k 3 to 5, n 20 to 60, effects of 0.3 to 1.5 either way) at
        mcrep 20000: Hc's f_ie and c_ie lie within 4 combined standard
        errors of the share of 100000 raw draws in which no hypothesis
        holds, whose standard error is that of at least one hit and one
        miss, and no inexact factor's standard error is below the spacing
        of doubles at its value.  Many sets have one hypothesis nearly certain, and in at
        least five of them a complement term's half-space bound is below
        1e-9, far below what any term there is refined to, so it is
        bounded rather than sampled."""
        bounds = []
        bound = bfreg.numkernel._half_space_bound

        def spy(a, C, df):
            bounds.append(bound(a, C, df))
            return bounds[-1]

        monkeypatch.setattr(bfreg.numkernel, "_half_space_bound", spy)
        n_draws, bounded, checked = 100_000, 0, 0
        for case in range(32):
            rng = np.random.default_rng(900 + case)
            k, n = int(rng.integers(3, 6)), int(rng.integers(20, 61))
            beta = rng.choice([-1.0, 1.0], k) * rng.uniform(0.3, 1.5, k)
            fit = make_random_fit(900 + case, n=n, k=k, beta=beta)
            text = _generated_hypotheses(rng, list(fit.coef_names[1:]))
            bounds.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConstraintCenterWarning)
                hc = run_hypotheses(fit, text, mcrep=20_000, seed=case + 1).components[-1]
            if hc.label != "Hc" or hc.f_ie is None:  # the hypotheses exhaust the line
                continue
            systems = parse_hypotheses(text, fit.coef_names)
            rows = [(cs.R_I, cs.r_I) for cs in systems]
            center, _ = prior_center(
                np.vstack([cs.reduction.Rtilde_I for cs in systems]),
                np.concatenate([cs.reduction.rtilde_I for cs in systems]),
            )
            prior = _posterior_t(fit, minimal_fraction(fit)).relocate(center)
            for est, dist, seed in ((hc.f_ie, _posterior_t(fit, 1.0), 2 * case), (hc.c_ie, prior, 2 * case + 1)):
                ref = oracle_complement_prob(dist, rows, n_draws, seed).value
                p = min(max(ref, 1.0 / n_draws), 1.0 - 1.0 / n_draws)
                se = np.hypot(est.std_error, np.sqrt(p * (1.0 - p) / n_draws))
                assert abs(est.value - ref) < 4 * se, (case, text)
                assert est.exact or est.std_error >= np.spacing(est.value), (case, text)
            checked += 1
            bounded += min(bounds, default=1.0) < 1e-9
        assert checked >= 25 and bounded >= 5


_FLIP = {">": "<", "<": ">", "=": "="}


def _generated_chains(rng, names):
    """1 to 3 hypotheses over ``names``, each a chain given as its operands
    and comparisons: two or three names, down to a number or not, or a
    group of two names against a name or a number.  A comparison is ``=``
    one time in eight, ``<`` or ``>`` otherwise."""
    chains = []
    for _ in range(rng.integers(1, 4)):
        pick = [str(x) for x in rng.permutation(names)]
        bound = str(rng.choice(["0", "0.1", "-0.2"]))
        if rng.random() < 0.5 or len(names) < 3:
            operands = ["(" + ",".join(pick[:2]) + ")", pick[2] if len(pick) > 2 and rng.random() < 0.5 else bound]
        else:
            operands = pick[: rng.integers(2, 4)] + ([bound] if rng.random() < 0.5 else [])
        ops = [str(rng.choice(["=", ">", "<"], p=[0.125, 0.4375, 0.4375])) for _ in operands[1:]]
        chains.append((operands, ops))
    return chains


def _chain_text(operands, ops):
    return "".join(a + op for a, op in zip(operands, ops)) + operands[-1]


def _reversed_text(operands, ops):
    """The chain read right to left: ``a>b`` as ``b<a``."""
    return _chain_text(operands[::-1], [_FLIP[op] for op in ops[::-1]])


def _expanded_text(operands, ops):
    """A leading group of two spelled out: ``(a,b)>c`` as ``a>c<b``."""
    if not operands[0].startswith("("):
        return _chain_text(operands, ops)
    a, b = operands[0][1:-1].split(",")
    return _chain_text([a, operands[1], b], [ops[0], _FLIP[ops[0]]])


def _assert_same_factor(a, b, where) -> int:
    """Two Bayes factors of one hypothesis: each probability factor exact
    on both sides to 1e-12 relative, or within 4 combined standard errors
    (and the rounding of a value near 1); ``log_bf`` to 1e-12 relative
    when every factor is exact.  Returns how many factors were inexact."""
    inexact = 0
    for x, y in ((a.c_ie, b.c_ie), (a.f_ie, b.f_ie)):
        assert (x is None) == (y is None), where
        if x is None:
            continue
        if x.exact and y.exact:
            assert abs(x.value - y.value) <= 1e-12 * x.value, where
        else:
            tol = 4.0 * np.hypot(x.std_error, y.std_error) + 4.0 * np.finfo(float).eps
            assert abs(x.value - y.value) <= tol, (where, x, y)
            inexact += 1
    if not inexact:
        assert abs(a.log_bf - b.log_bf) <= 1e-12 * max(abs(a.log_bf), 1.0), where
    return inexact


class TestGeneratedRewrites:
    """Rewritten hypotheses state the same rows; permuted ones permute."""

    def test_rewrites_and_order(self):
        """On 32 generated fits (k 3 to 5, n 12 to 60) with 1 to 3 generated
        hypotheses each, at mcrep 20000 and one seed: reading every chain
        right to left (``a>b`` as ``b<a``), spelling out each leading group
        (``(x1,x2)>0`` as ``x1>0<x2``) and reversing the order of the
        hypotheses leave every exact factor and exact ``log_bf`` within
        1e-12 relative and every lattice factor within 4 combined standard
        errors, complement included.  Under the reversed order the
        posteriors are reversed: exactly so, to 1e-12, when every factor
        is exact.  Every posterior vector is finite and sums to 1.  About a
        tenth of the factors compared are lattice estimates."""
        checked = inexact = 0
        for case in range(32):
            rng = np.random.default_rng(700 + case)
            k, n = int(rng.integers(3, 6)), int(rng.integers(12, 61))
            fit = make_random_fit(700 + case, n=n, k=k)
            chains = _generated_chains(rng, list(fit.coef_names[1:]))
            texts = {
                form: "; ".join(render(*c) for c in chains)
                for form, render in (
                    ("as drawn", _chain_text),
                    ("reversed", _reversed_text),
                    ("expanded", _expanded_text),
                )
            }
            texts["reordered"] = "; ".join(_chain_text(*c) for c in chains[::-1])
            results = {}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConstraintCenterWarning)
                for form, text in texts.items():
                    try:
                        results[form] = run_hypotheses(fit, text, mcrep=20_000, seed=case + 1)
                    except bfreg.BfregError as exc:
                        results[form] = type(exc)
            base = results["as drawn"]
            if isinstance(base, type):  # an invalid draw is invalid in every form
                assert all(r is base for r in results.values()), (case, texts)
                continue
            m = len(chains)
            for form, res in results.items():
                assert not isinstance(res, type), (case, form, texts[form], res)
                post = res.post_probs
                assert np.isfinite(post).all() and abs(post.sum() - 1.0) <= 1e-12
                if form == "as drawn":
                    continue
                order = list(range(m))[::-1] if form == "reordered" else list(range(m))
                order += list(range(m, len(base.components)))  # the complement stays last
                assert res.labels[m:] == base.labels[m:], (case, form)
                for i, j in enumerate(order):
                    where = (case, form, texts[form])
                    inexact += _assert_same_factor(base.components[j], res.components[i], where)
                if not any(c.uses_mc for c in base.components + res.components):
                    assert np.abs(res.post_probs - base.post_probs[order]).max() <= 1e-12
            checked += 1
        assert checked >= 24 and inexact >= 40


class TestInvariance:
    def test_scale_invariance_homogeneous_hypotheses(self):
        """Multiplying y by a positive constant changes no Bayes factor.

        Analytic factors cancel exactly; Monte Carlo factors see the
        same standard draws pushed through a consistently scaled
        distribution, so they agree within combined standard errors
        (and in practice to many more digits).
        """
        data = make_two_effect_dataset()
        lam = 7.3
        scaled = Dataset(
            data.column_names,
            np.column_stack(
                [lam * data.column("y"), data.column("x1"), data.column("x2")]
            ),
        )
        fit_a = fit_ols(data, "y ~ x1 + x2")
        fit_b = fit_ols(scaled, "y ~ x1 + x2")
        res_a = run_hypotheses(fit_a, THREE_HYP, mcrep=100_000, seed=21)
        res_b = run_hypotheses(fit_b, THREE_HYP, mcrep=100_000, seed=21)
        for ca, cb in zip(res_a.components, res_b.components):
            if ca.uses_mc:
                se = np.hypot(
                    ca.f_ie.std_error / max(ca.f_ie.value, 1e-12),
                    ca.c_ie.std_error / max(ca.c_ie.value, 1e-12),
                )
                assert abs(np.log(cb.bf) - np.log(ca.bf)) < 3 * np.sqrt(2) * se
            else:
                assert cb.bf == pytest.approx(ca.bf, rel=1e-9)

    def test_relabeling_invariance_analytic_paths(self):
        """Swapping predictor order while renaming terms is a no-op."""
        data = make_two_effect_dataset()
        fit_a = fit_ols(data, "y ~ x1 + x2")
        fit_b = fit_ols(data, "y ~ x2 + x1")
        text = "x1=x2=0; x1>x2=0"
        res_a = run_hypotheses(fit_a, text, mcrep=10_000, seed=22)
        res_b = run_hypotheses(fit_b, text, mcrep=10_000, seed=22)
        for ca, cb in zip(res_a.components, res_b.components):
            assert cb.bf == pytest.approx(ca.bf, rel=1e-10)
        assert np.allclose(res_a.post_probs, res_b.post_probs, atol=1e-10)

    def test_occam_smaller_prior_region_wins_when_fit_saturates(self):
        """Nested order constraints with near-total posterior support:
        the sharper hypothesis earns the larger Bayes factor."""
        fit = RegressionFit(
            coef_names=("(Intercept)", "x1", "x2"),
            beta_hat=np.array([0.0, 3.0, 3.0]),
            s2=50.0,
            xtx_inv=np.diag([1 / 60, 1 / 59, 1 / 59]),
            n=60,
            k=3,
        )
        nested = bf_unconstrained(
            fit, parse_one("(x1,x2)>0", fit.coef_names), 400_000, seed=23
        )
        loose = bf_unconstrained(
            fit, parse_one("x1>0", fit.coef_names), 400_000, seed=24
        )
        assert nested.f_ie.value > 0.99
        assert loose.f_ie.value > 0.99
        assert nested.bf > loose.bf


def make_scaled_fit(k=12, seed=2018):
    """OLS fit whose k - 1 predictors have scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    scales = np.logspace(-3, 3, k - 1)
    x = rng.standard_normal((60, k - 1)) * scales
    beta = rng.normal(0.0, 0.3, k - 1) / scales
    y = 0.4 + x @ beta + rng.standard_normal(60)
    names = ("y",) + tuple(f"x{j}" for j in range(1, k))
    data = Dataset(names, np.column_stack([y, x]))
    return fit_ols(data, "y ~ " + " + ".join(names[1:]))


def make_screen_data(seed, n=30, k=5):
    """Data for ``y ~ x1 + ... + x{k-1}`` with standard normal predictors."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k - 1))
    y = x @ rng.normal(0.0, 0.5, k - 1) + rng.standard_normal(n)
    names = ("y",) + tuple(f"x{j}" for j in range(1, k))
    return Dataset(names, np.column_stack([y, x]))


class TestExploratory:
    def test_rows_sum_to_one(self, two_effect_fit):
        res = exploratory_test(two_effect_fit, seed=1)
        assert np.allclose(res.post_probs.sum(axis=1), 1.0, atol=1e-12)
        assert res.post_probs.shape == (3, 3)

    def test_all_paths_exact_no_seed_sensitivity(self, two_effect_fit):
        a = exploratory_test(two_effect_fit, seed=1)
        b = exploratory_test(two_effect_fit, seed=999)
        assert np.array_equal(a.post_probs, b.post_probs)
        for comps in a.components:
            for comp in comps:
                assert not comp.uses_mc

    def test_symmetry_at_zero_estimate(self):
        fit = RegressionFit(
            coef_names=("(Intercept)", "x1"),
            beta_hat=np.array([1.0, 0.0]),
            s2=25.0,
            xtx_inv=np.diag([1 / 30, 1 / 29]),
            n=30,
            k=2,
        )
        res = exploratory_test(fit, seed=1)
        row = res.post_probs[1]
        assert row[0] == pytest.approx(row[2], abs=1e-10)

    def test_strong_positive_effect_concentrates(self):
        fit = RegressionFit(
            coef_names=("(Intercept)", "x1"),
            beta_hat=np.array([0.0, 2.0]),
            s2=80.0,
            xtx_inv=np.diag([1 / 100, 1 / 99]),
            n=100,
            k=2,
        )
        res = exploratory_test(fit, seed=1)
        row = res.post_probs[1]
        assert row[2] > 0.999
        assert row[0] < 1e-4

    def test_posterior_ratio_equals_bf_matrix_entry(self, two_effect_fit):
        res = exploratory_test(two_effect_fit, seed=1)
        for j, name in enumerate(res.coef_names):
            row = res.post_probs[j]
            m = res.bf_matrices[name]
            assert row[1] / row[2] == pytest.approx(m[1, 2], rel=1e-12)

    @pytest.mark.parametrize("make_fit", [make_two_effect_fit, make_scaled_fit])
    def test_matches_generic_path(self, make_fit):
        fit = make_fit()
        res = exploratory_test(fit, seed=1)
        assert len(res.components) == fit.k
        for name, triple in zip(fit.coef_names, res.components):
            assert [c.label for c in triple] == ["H1", "H2", "H3"]
            for comp, op in zip(triple, "<=>"):
                ref = bf_unconstrained(fit, parse_one(f"{name}{op}0", fit.coef_names))
                assert comp.log_bf == pytest.approx(ref.log_bf, rel=1e-12)
                assert comp.bf == pytest.approx(ref.bf, rel=1e-12)
                assert comp.ci90 is None and ref.ci90 is None
                for field in ("c_e", "f_e"):
                    got, want = getattr(comp, field), getattr(ref, field)
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert got == pytest.approx(want, rel=1e-12)
                for field in ("c_ie", "f_ie"):
                    got, want = getattr(comp, field), getattr(ref, field)
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert got.value == pytest.approx(want.value, rel=1e-12)
                        assert got.exact and want.exact
                        assert got.std_error == 0.0 and got.n_draws == 0

    def test_zero_scale_diagonal_is_numeric_error(self):
        fit = RegressionFit(
            coef_names=("(Intercept)", "x1", "x2"),
            beta_hat=np.array([1.0, 0.7, 0.03]),
            s2=19.0,
            xtx_inv=np.diag([1 / 20, 0.0, 1 / 19]),
            n=20,
            k=3,
        )
        with pytest.raises(NumericError, match="numerically zero"):
            exploratory_test(fit)

    def test_underflowing_coefficient(self):
        """z = 16962 underflows Pr(x1 < 0) to 0; the row and the
        non-finite pairwise ratios are those of the per-system path."""
        fit = RegressionFit(
            coef_names=("(Intercept)", "x1"),
            beta_hat=np.array([1.0, 60.0]),
            s2=25.0,
            xtx_inv=np.diag([1 / 30, 1 / 1000]),
            n=2000,
            k=2,
        )
        res = exploratory_test(fit)
        assert res.post_probs[1].tolist() == [0.0, 0.0, 1.0]
        lt, eq, gt = (c.log_bf for c in res.components[1])
        assert lt == -np.inf
        assert eq == pytest.approx(-11867.611118009852, rel=1e-12)
        assert gt == pytest.approx(np.log(2.0), rel=1e-15)
        m = res.bf_matrices["x1"]
        assert np.array_equal(
            np.isnan(m), [[True, True, False], [True, True, False], [False] * 3]
        )
        assert m[:2, 2].tolist() == [0.0, 0.0]
        assert m[2].tolist() == [np.inf, np.inf, 1.0]

    @given(st.integers(0, 10**6), st.permutations(["x1", "x2", "x3", "x4"]))
    @settings(max_examples=30, deadline=None)
    def test_permuting_predictors_permutes_rows(self, seed, order):
        data = make_screen_data(seed)
        base = exploratory_test(fit_ols(data, "y ~ x1 + x2 + x3 + x4"))
        perm = exploratory_test(fit_ols(data, "y ~ " + " + ".join(order)))
        rows = [0] + [int(name[1:]) for name in order]
        assert perm.coef_names == tuple(base.coef_names[i] for i in rows)
        np.testing.assert_allclose(
            perm.post_probs, base.post_probs[rows], rtol=0, atol=1e-12
        )

    @given(
        st.integers(0, 10**6),
        st.integers(1, 4),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=30, deadline=None)
    def test_rescaling_a_predictor_changes_no_row(self, seed, j, c):
        data = make_screen_data(seed)
        cols = data.columns.copy()
        cols[:, j] *= c
        formula = "y ~ x1 + x2 + x3 + x4"
        base = exploratory_test(fit_ols(data, formula))
        scaled = exploratory_test(fit_ols(Dataset(data.column_names, cols), formula))
        np.testing.assert_allclose(
            scaled.post_probs, base.post_probs, rtol=0, atol=1e-12
        )


class TestAgainstSimulatedTruth:
    def test_true_order_hypothesis_dominates_eventually(self):
        """With n = 400 and well separated effects the generating order
        hypothesis collects most of the posterior mass."""
        rng = np.random.default_rng(1234)
        n = 400
        x = rng.standard_normal((n, 3))
        y = 0.6 * x[:, 0] + 0.4 * x[:, 1] + 0.2 * x[:, 2] + rng.standard_normal(n)
        fit = fit_ols(
            Dataset(("y", "x1", "x2", "x3"), np.column_stack([y, x])),
            "y ~ x1 + x2 + x3",
        )
        res = run_hypotheses(
            fit, "x1>x2>x3>0; x3>x2>x1>0", mcrep=50_000, seed=5
        )
        assert res.labels[0] == "H1"
        assert res.post_probs[0] == max(res.post_probs)
        assert res.post_probs[0] > 0.9
