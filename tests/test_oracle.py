"""Cross-checks between the reference estimators and the package.

The oracle module draws with a different generator, integrates a
sigma^2 mixture instead of evaluating Student t densities, and counts
raw-coordinate proportions.  These tests first sanity-check the oracle
against closed forms, then demand agreement with the package paths.
"""

import numpy as np
import pytest

from bfreg import MultivariateT, build_transform, parse_hypotheses
from bfreg.constraints import marginal_xiE
from bfreg.engine import bf_unconstrained
from bfreg.numkernel import mvt_constraint_prob, mvt_logpdf

from conftest import make_random_fit
from oracle import oracle_bf, oracle_inequality_prob, oracle_marginal_density


def parse_one(text, coefs):
    (cs,) = parse_hypotheses(text, coefs)
    return cs


class TestOracleSelfChecks:
    def test_scalar_median(self):
        dist = MultivariateT(np.array([0.0]), np.array([[1.0]]), 3.0)
        est = oracle_inequality_prob(dist, [[1.0]], [0.0], 100_000, seed=1)
        se = est.value * est.rel_error_bound
        assert abs(est.value - 0.5) < 3 * se

    def test_independent_orthant(self):
        dist = MultivariateT(np.zeros(2), np.eye(2), 5.0)
        est = oracle_inequality_prob(
            dist, np.eye(2), np.zeros(2), 200_000, seed=2
        )
        se = est.value * est.rel_error_bound
        assert abs(est.value - 0.25) < 3 * se

    def test_density_quadrature_error_bound_is_small(self, two_effect_fit):
        est = oracle_marginal_density(
            two_effect_fit, 1.0, np.array([[0.0, 1.0, 0.0]]), [0.0]
        )
        assert est.rel_error_bound < 1e-6
        assert est.value > 0


class TestAgainstPackageKernels:
    def test_constraint_prob_agreement_random_instances(self):
        """Two independent estimators of the same region probability."""
        rng = np.random.default_rng(99)
        for trial in range(20):
            dim = int(rng.integers(1, 4))
            m = int(rng.integers(1, dim + 1))
            a = rng.standard_normal((dim, dim))
            scale = a @ a.T + dim * np.eye(dim)
            loc = rng.standard_normal(dim)
            df = float(rng.uniform(1.0, 30.0))
            dist = MultivariateT(loc, scale, df)
            R = rng.standard_normal((m, dim))
            r = R @ loc - rng.uniform(0.1, 1.0, m)
            ours = mvt_constraint_prob(dist, R, r, 100_000, seed=1000 + trial)
            ref = oracle_inequality_prob(dist, R, r, 100_000, seed=2000 + trial)
            se = np.hypot(
                ours.std_error, ref.value * ref.rel_error_bound
            )
            assert abs(ours.value - ref.value) < 4 * max(se, 1e-12), (
                f"trial {trial}: {ours.value} vs {ref.value}"
            )

    def test_marginal_density_matches_t_closed_form(self):
        """Quadrature over sigma^2 reproduces the analytic marginal."""
        rng = np.random.default_rng(17)
        for trial in range(10):
            fit = make_random_fit(seed=300 + trial, n=40, k=3)
            j = int(rng.integers(1, 3))
            R = np.zeros((1, 3))
            R[0, j] = 1.0
            target = round(float(fit.beta_hat[j] + rng.normal(0.0, 0.5)), 4)
            cs = parse_one(f"x{j} = {target}", fit.coef_names)
            ts = build_transform(cs, fit)
            for b in (1.0, (fit.k + 1) / fit.n):
                dist = marginal_xiE(fit, ts, b)
                analytic = float(
                    np.exp(mvt_logpdf(np.array([target]), dist))
                )
                ref = oracle_marginal_density(fit, b, R, [target])
                assert ref.value == pytest.approx(analytic, rel=1e-4)

    def test_fraction_changes_the_density(self, two_effect_fit):
        R = np.array([[0.0, 1.0, 0.0]])
        full = oracle_marginal_density(two_effect_fit, 1.0, R, [0.0])
        frac = oracle_marginal_density(two_effect_fit, 0.2, R, [0.0])
        assert full.value != pytest.approx(frac.value, rel=1e-3)

    def test_minimal_fraction_has_cauchy_tails(self, two_effect_fit):
        """Far from its center the b-minimal marginal decays like a
        squared reciprocal: doubling the distance quarters the density.

        Distances stay modest so the sigma^2 quadrature grid still
        covers the mixture components that carry the tail.  The scale
        here is 1, so the exact ratio is 401/101, under one percent
        from the limit.
        """
        R = np.array([[0.0, 1.0, 0.0]])
        center = two_effect_fit.beta_hat[1]
        b_min = (two_effect_fit.k + 1) / two_effect_fit.n
        near = oracle_marginal_density(two_effect_fit, b_min, R, [center + 10.0])
        far = oracle_marginal_density(two_effect_fit, b_min, R, [center + 20.0])
        assert near.value / far.value == pytest.approx(4.0, rel=0.02)


class TestOracleBayesFactors:
    def test_equality_only(self, two_effect_fit):
        cs = parse_one("x1=x2=0", two_effect_fit.coef_names)
        engine = bf_unconstrained(two_effect_fit, cs, 1_000, seed=1)
        ref = oracle_bf(two_effect_fit, cs, 1_000, seed=1)
        assert ref.value == pytest.approx(engine.bf, rel=1e-3)

    def test_inequality_only(self, two_effect_fit):
        cs = parse_one("(x1,x2)>0", two_effect_fit.coef_names)
        engine = bf_unconstrained(two_effect_fit, cs, 400_000, seed=3)
        ref = oracle_bf(two_effect_fit, cs, 400_000, seed=5)
        rel_engine = np.hypot(
            engine.f_ie.std_error / engine.f_ie.value,
            engine.c_ie.std_error / engine.c_ie.value,
        )
        tol = 3 * np.hypot(rel_engine, ref.rel_error_bound)
        assert abs(np.log(ref.value) - np.log(engine.bf)) < tol

    def test_mixed_case(self, two_effect_fit):
        cs = parse_one("x1>x2=0", two_effect_fit.coef_names)
        engine = bf_unconstrained(two_effect_fit, cs, 10_000, seed=1)
        ref = oracle_bf(two_effect_fit, cs, 200_000, seed=7)
        assert ref.value == pytest.approx(engine.bf, rel=0.02)
        assert engine.bf == pytest.approx(10.0606, abs=0.001)

    def test_mixed_case_random_fit(self):
        fit = make_random_fit(seed=44, n=60, k=4, beta=(0.2, 0.8, 0.1, -0.3))
        cs = parse_one("x1>x3=0", fit.coef_names)
        engine = bf_unconstrained(fit, cs, 400_000, seed=9)
        ref = oracle_bf(fit, cs, 400_000, seed=11)
        tol = 3 * max(ref.rel_error_bound, 5e-3)
        assert abs(np.log(ref.value) - np.log(engine.bf)) < tol
