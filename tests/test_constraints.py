"""Coefficient-space transform and the fractional t distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfreg import (
    ConstraintCenterWarning,
    InvalidInputError,
    MultivariateT,
    build_transform,
    conditional_xiI,
    fractional_posterior_beta,
    marginal_xiE,
    parse_hypotheses,
)
from bfreg.constraints import minimal_fraction
from bfreg.numkernel import mvt_logpdf
from conftest import make_random_fit, make_two_effect_fit
from oracle import projector_null_rows

COEFS4 = ("(Intercept)", "x1", "x2", "x3")


def parse_one(text, coefs):
    systems = parse_hypotheses(text, coefs)
    assert len(systems) == 1
    return systems[0]


class TestBuildTransform:
    def test_no_equalities_identity_transform(self, two_effect_fit):
        cs = parse_one("x1 > 0", two_effect_fit.coef_names)
        ts = build_transform(cs, two_effect_fit)
        assert np.array_equal(ts.T, np.eye(3))
        assert np.array_equal(cs.reduction.D, np.eye(3))
        assert np.allclose(cs.reduction.center, np.zeros(3), atol=1e-14)
        assert ts.q_E == 0

    def test_null_basis_annihilates_equality_rows(self):
        fit = make_random_fit(2, n=50, k=4)
        cs = parse_one("x1 = x2 = x3 > 0", fit.coef_names)
        ts = build_transform(cs, fit)
        assert np.array_equal(ts.T[cs.q_E :], cs.reduction.D)
        assert np.linalg.norm(cs.R_E @ cs.reduction.D.T) < 1e-12

    def test_inverse_block_identities(self):
        fit = make_random_fit(3, n=50, k=4)
        cs = parse_one("(x1, x2) > x3 = 0", fit.coef_names)
        ts = build_transform(cs, fit)
        # T^{-1} = [R_E^+  D^+] by blocks, so R~_I and r~_I are read off it
        t_inv = np.linalg.inv(ts.T)
        red = cs.reduction
        assert np.allclose(t_inv[:, :1], np.linalg.pinv(cs.R_E), atol=1e-9)
        assert np.allclose(red.Rtilde_I, cs.R_I @ t_inv[:, 1:], atol=1e-9)
        assert np.allclose(
            red.rtilde_I, cs.r_I - cs.R_I @ t_inv[:, :1] @ cs.r_E, atol=1e-9
        )

    def test_mixed_hypothesis_zero_center_block(self, two_effect_fit):
        """Homogeneous constraints put the prior center at the origin."""
        cs = parse_one("x1 > x2 = 0", two_effect_fit.coef_names)
        assert np.array_equal(cs.r_E, [0.0])
        assert np.allclose(cs.reduction.center, np.zeros(2), atol=1e-12)

    def test_boundary_property_consistent_system(self):
        fit = make_random_fit(4, n=50, k=4)
        cs = parse_one("x1 > x2 = 0.3", fit.coef_names)
        red = cs.reduction
        assert red.center_exact
        assert np.allclose(red.Rtilde_I @ red.center, red.rtilde_I, atol=1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_boundary_property_random_consistent_systems(self, seed):
        """R~_I mu0_I = r~_I whenever the stacked system is solvable."""
        rng = np.random.default_rng(seed)
        fit = make_random_fit(seed, n=40, k=4)
        beta_star = rng.standard_normal(4)
        R_E = rng.standard_normal((1, 4))
        R_I = rng.standard_normal((2, 4))
        cs = type(parse_one("x1 > 0", fit.coef_names))(
            "H1",
            "synthetic",
            R_E,
            R_E @ beta_star,
            R_I,
            R_I @ beta_star,
        )
        red = cs.reduction
        assert red.center_exact
        scale = max(1.0, np.linalg.norm(red.rtilde_I))
        assert np.allclose(
            red.Rtilde_I @ red.center, red.rtilde_I, atol=1e-9 * scale
        )

    def test_inconsistent_center_warns(self, two_effect_fit):
        """A bounded band has no exact stacked solution, so a warning fires."""
        cs = parse_one("1 > x1 > 0", two_effect_fit.coef_names)
        with pytest.warns(ConstraintCenterWarning):
            build_transform(cs, two_effect_fit)
        assert not cs.reduction.center_exact

    def test_equivalence_chain_on_feasible_points(self):
        """R_I beta > r_I iff R~_I (D beta) > r~_I on the equality slice."""
        fit = make_random_fit(5, n=50, k=4)
        cs = parse_one("(x1, x2) > x3 = 0.2", fit.coef_names)
        red = cs.reduction
        rng = np.random.default_rng(99)
        particular = np.linalg.lstsq(cs.R_E, cs.r_E, rcond=None)[0]
        for _ in range(100):
            beta = particular + red.D.T @ rng.standard_normal(3) * 2.0
            raw = bool(np.all(cs.R_I @ beta > cs.r_I))
            reduced = bool(np.all(red.Rtilde_I @ (red.D @ beta) > red.rtilde_I))
            assert raw == reduced

    def test_projector_cross_check_spans_same_bayes_relevant_space(self):
        """The literal projector rows span the same null space as D."""
        R_E = np.array([[0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        rows = projector_null_rows(R_E)
        assert rows.shape[0] == 2
        assert np.linalg.norm(R_E @ rows.T) < 1e-10
        fit = make_random_fit(6, n=50, k=4)
        cs = parse_one("x1 = x2 = x3 > 0", fit.coef_names)
        ts = build_transform(cs, fit)
        # same row space as the orthonormal basis used by the transform
        combined = np.vstack([rows, ts.T[cs.q_E :]])
        assert np.linalg.matrix_rank(combined, tol=1e-10) == 2


class TestFractionalPosterior:
    def test_full_data_posterior(self, two_effect_fit):
        d = fractional_posterior_beta(two_effect_fit, 1.0)
        assert d.df == 17.0
        assert np.allclose(d.scale, 19.0 / 17.0 * two_effect_fit.xtx_inv)
        assert np.array_equal(d.location, two_effect_fit.beta_hat)

    def test_minimal_fraction_gives_cauchy_df(self, two_effect_fit):
        b = minimal_fraction(two_effect_fit)
        assert b == pytest.approx(4.0 / 20.0, abs=1e-15)
        d = fractional_posterior_beta(two_effect_fit, b)
        assert d.df == 1.0
        assert np.allclose(d.scale, 19.0 * two_effect_fit.xtx_inv)

    @given(st.integers(8, 200), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_minimal_fraction_df_is_always_one(self, n, k):
        """nb - k snaps to exactly 1 for b = (k+1)/n regardless of n, k."""
        if n < k + 2:
            return
        fit = make_random_fit(0, n=max(n, k + 2), k=k)
        d = fractional_posterior_beta(fit, minimal_fraction(fit))
        assert d.df == 1.0

    def test_fraction_bounds(self, two_effect_fit):
        with pytest.raises(InvalidInputError):
            fractional_posterior_beta(two_effect_fit, 1.5)
        with pytest.raises(InvalidInputError):
            fractional_posterior_beta(two_effect_fit, 0.1)


class TestMarginalXiE:
    def test_matches_linear_pushforward(self):
        fit = make_random_fit(7, n=50, k=4)
        cs = parse_one("x1 = x2 = 0", fit.coef_names)
        ts = build_transform(cs, fit)
        marg = marginal_xiE(fit, ts, 1.0)
        base = fractional_posterior_beta(fit, 1.0)
        assert np.allclose(marg.location, cs.R_E @ base.location, atol=1e-12)
        assert np.allclose(
            marg.scale, cs.R_E @ base.scale @ cs.R_E.T, atol=1e-12
        )
        assert marg.df == base.df

    def test_prior_marginal_is_cauchy(self):
        fit = make_random_fit(8, n=50, k=3)
        cs = parse_one("x1 = 0", fit.coef_names)
        ts = build_transform(cs, fit)
        prior = marginal_xiE(fit, ts, minimal_fraction(fit))
        assert prior.df == 1.0

    def test_requires_equalities(self, two_effect_fit):
        cs = parse_one("x1 > 0", two_effect_fit.coef_names)
        ts = build_transform(cs, two_effect_fit)
        with pytest.raises(InvalidInputError):
            marginal_xiE(two_effect_fit, ts, 1.0)


class TestConditionalXiI:
    def test_prior_conditional_scale_closed_form(self):
        """At its own center the prior conditional scale is the Schur
        complement shrunk by s^2 / (1 + q_E)."""
        fit = make_random_fit(9, n=50, k=4)
        cs = parse_one("x1 > x2 = 0", fit.coef_names)
        ts = build_transform(cs, fit)
        b = minimal_fraction(fit)
        cond = conditional_xiI(fit, ts, b, ts.xi_hat[: ts.q_E])
        A = fit.xtx_inv
        D = cs.reduction.D
        DA = D @ A
        RA = cs.R_E @ A
        schur = DA @ D.T - DA @ cs.R_E.T @ np.linalg.solve(RA @ cs.R_E.T, RA @ D.T)
        expected = fit.s2 / (1.0 + ts.q_E) * schur
        assert np.allclose(cond.scale, expected, atol=1e-10)
        assert cond.df == 1.0 + ts.q_E

    def test_orthogonal_blocks_location_ignores_conditioning_value(
        self, two_effect_fit
    ):
        cs = parse_one("x1 > x2 = 0", two_effect_fit.coef_names)
        ts = build_transform(cs, two_effect_fit)
        at_zero = conditional_xiI(two_effect_fit, ts, 1.0, np.array([0.0]))
        far = conditional_xiI(two_effect_fit, ts, 1.0, np.array([5.0]))
        assert np.allclose(at_zero.location, far.location, atol=1e-12)
        free = cs.reduction.D @ two_effect_fit.beta_hat
        assert np.allclose(at_zero.location, free)

    def test_factorization_of_the_joint_density(self):
        """Joint log density = marginal at the split + conditional there.

        This is the identity that pins the conditional scale factor and
        the degrees of freedom update.
        """
        rng = np.random.default_rng(31)
        for case in range(4):
            fit = make_random_fit(40 + case, n=50, k=4)
            cs = parse_one("(x1, x2) > x3 = 0.1", fit.coef_names)
            ts = build_transform(cs, fit)
            for b in (minimal_fraction(fit), 0.5, 1.0):
                base = fractional_posterior_beta(fit, b)
                joint = MultivariateT(
                    ts.T @ base.location,
                    ts.T @ base.scale @ ts.T.T,
                    base.df,
                )
                marg = marginal_xiE(fit, ts, b)
                for _ in range(50):
                    xi = joint.location + rng.standard_normal(4) * 2.0
                    cond = conditional_xiI(fit, ts, b, xi[: ts.q_E])
                    lhs = mvt_logpdf(xi, joint)
                    rhs = mvt_logpdf(xi[: ts.q_E], marg) + mvt_logpdf(
                        xi[ts.q_E :], cond
                    )
                    assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_printed_df_mode_breaks_factorization(self):
        """The compatibility df (nu without the q_E bump) cannot factor
        the joint density; the mismatch must be visible, not subtle."""
        fit = make_random_fit(50, n=50, k=4)
        cs = parse_one("x1 > x2 = 0.1", fit.coef_names)
        ts = build_transform(cs, fit)
        base = fractional_posterior_beta(fit, 1.0)
        joint = MultivariateT(
            ts.T @ base.location, ts.T @ base.scale @ ts.T.T, base.df
        )
        marg = marginal_xiE(fit, ts, 1.0)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(25):
            xi = joint.location + rng.standard_normal(4) * 2.0
            cond = conditional_xiI(
                fit, ts, 1.0, xi[: ts.q_E], df_as_printed=True
            )
            lhs = mvt_logpdf(xi, joint)
            rhs = mvt_logpdf(xi[: ts.q_E], marg) + mvt_logpdf(
                xi[ts.q_E :], cond
            )
            worst = max(worst, abs(lhs - rhs))
        assert worst > 1e-3

    def test_dimension_check(self, two_effect_fit):
        cs = parse_one("x1 > x2 = 0", two_effect_fit.coef_names)
        ts = build_transform(cs, two_effect_fit)
        with pytest.raises(InvalidInputError):
            conditional_xiI(two_effect_fit, ts, 1.0, np.zeros(2))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1 > x2", "hypothesis has no equality constraints"),
            ("(Intercept) = x1 = x2 = 0", "no free directions remain after the equalities"),
        ],
    )
    def test_needs_equalities_and_a_free_direction(self, two_effect_fit, text, message):
        cs = parse_one(text, two_effect_fit.coef_names)
        ts = build_transform(cs, two_effect_fit)
        with pytest.raises(InvalidInputError, match=message):
            conditional_xiI(two_effect_fit, ts, 1.0, np.zeros(ts.q_E))
