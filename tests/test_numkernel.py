"""Linear algebra and Student t primitive behavior."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import ndtr, ndtri, owens_t

from bfreg import (
    DecompositionError,
    InvalidInputError,
    MultivariateT,
    NumericError,
    ProbEstimate,
)
from bfreg import numkernel
from bfreg.numkernel import (
    _estimates,
    _radial,
    complement_prob,
    derived_seed,
    mvt_constraint_prob,
    mvt_logpdf,
    t_cdf,
)
from oracle import mvt_sample, oracle_complement_prob, oracle_inequality_prob


_trapz = getattr(np, "trapezoid", getattr(np, "trapz", None))


class TestMvtLogpdf:
    def test_standard_cauchy_mode(self):
        """d=1, df=1, unit scale at the mode is the Cauchy peak 1/pi."""
        d = MultivariateT(np.zeros(1), np.eye(1), 1.0)
        assert mvt_logpdf(np.zeros(1), d) == pytest.approx(np.log(1 / np.pi), abs=1e-12)

    def test_normalization_against_2d_quadrature(self):
        """The density height at the mode matches brute-force normalization.

        For location 0, scale I2, df 5 the kernel at the origin is 1, so
        the density there must equal one over the integral of the
        unnormalized kernel (1 + |x|^2/5)^(-7/2) over the plane.
        """
        grid = np.linspace(-100.0, 100.0, 8001)
        xx, yy = np.meshgrid(grid, grid, sparse=True)
        kernel = (1.0 + (xx**2 + yy**2) / 5.0) ** (-3.5)
        h = grid[1] - grid[0]
        total = kernel.sum() * h * h
        d = MultivariateT(np.zeros(2), np.eye(2), 5.0)
        assert np.exp(mvt_logpdf(np.zeros(2), d)) == pytest.approx(
            1.0 / total, rel=1e-6
        )

    def test_integrates_to_one_1d(self):
        d = MultivariateT(np.array([0.3]), np.array([[2.0]]), 4.0)
        xs = np.linspace(-400.0, 400.0, 20001)
        vals = np.array([np.exp(mvt_logpdf(np.array([x]), d)) for x in xs])
        assert abs(_trapz(vals, xs) - 1.0) < 1e-4

    def test_integrates_to_one_2d(self):
        d = MultivariateT(np.zeros(2), np.array([[1.0, 0.3], [0.3, 2.0]]), 4.0)
        grid = np.linspace(-60.0, 60.0, 401)
        h = grid[1] - grid[0]
        total = 0.0
        for x in grid:
            row = np.array(
                [np.exp(mvt_logpdf(np.array([x, y]), d)) for y in grid]
            )
            total += row.sum() * h * h
        assert abs(total - 1.0) < 1e-4

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((2, 2))
        scale = s @ s.T + 2 * np.eye(2)
        mu = rng.standard_normal(2)
        x = rng.standard_normal(2)
        c = rng.standard_normal(2)
        a = mvt_logpdf(x, MultivariateT(mu, scale, 3.0))
        b = mvt_logpdf(x + c, MultivariateT(mu + c, scale, 3.0))
        assert a == pytest.approx(b, abs=1e-12)

    def test_non_pd_scale_rejected(self):
        d = MultivariateT(np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]), 3.0)
        with pytest.raises(DecompositionError):
            mvt_logpdf(np.zeros(2), d)


class TestTCdf:
    def test_symmetry_point(self):
        assert t_cdf(0.0, 1.0) == 0.5

    def test_cauchy_closed_form(self):
        assert t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_against_quadrature(self):
        """x=2, df=7 agrees with direct numeric integration of the pdf."""
        from scipy.special import gammaln

        df = 7.0
        const = np.exp(gammaln(4.0) - gammaln(3.5)) / np.sqrt(df * np.pi)
        pdf = lambda x: const * (1.0 + x * x / df) ** (-4.0)
        body, err = integrate.quad(pdf, 0.0, 2.0, epsabs=1e-13)
        assert err < 1e-11
        assert t_cdf(2.0, 7.0) == pytest.approx(0.5 + body, abs=1e-10)

    def test_saturates_at_infinities(self):
        assert t_cdf(np.inf, 3.0) == 1.0
        assert t_cdf(-np.inf, 3.0) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            t_cdf(np.nan, 3.0)

    @given(
        st.floats(-50, 50, allow_nan=False),
        st.floats(0.5, 200, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_complement_sums_exactly_to_one(self, x, df):
        """F(x) + F(-x) is exactly 1.0 in floating point, not just close."""
        assert t_cdf(x, df) + t_cdf(-x, df) == 1.0

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(0.5, 50))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, a, b, df):
        lo, hi = sorted((a, b))
        assert t_cdf(lo, df) <= t_cdf(hi, df)


def _within_4_se(est, t_hits):
    """``est`` agrees with the hit rate of independent t draws."""
    p_t = t_hits.mean()
    se = np.hypot(est.std_error, np.sqrt(p_t * (1.0 - p_t) / t_hits.size))
    return abs(est.value - p_t) < 4 * se


class TestMvtConstraintProb:
    def test_univariate_symmetric_exact(self):
        d = MultivariateT(np.zeros(1), np.eye(1), 5.0)
        est = mvt_constraint_prob(d, np.eye(1), np.zeros(1), 1000, seed=1)
        assert est.exact
        assert est.std_error == 0.0
        assert est.value == 0.5

    def test_independent_orthant_quarter(self):
        d = MultivariateT(np.zeros(2), np.diag([1.0, 3.0]), 8.0)
        est = mvt_constraint_prob(d, np.eye(2), np.zeros(2), 400_000, seed=2)
        assert est.exact and est.n_draws == 0
        assert est.value == 0.25
        # off the apex the lattice rule decides; uncorrelated is not independent
        # for a t, so the reference is raw sampling of the same law
        r = np.array([-0.3, 0.4])
        est = mvt_constraint_prob(d, np.eye(2), r, 400_000, seed=2)
        ref = oracle_inequality_prob(d, np.eye(2), r, 400_000, seed=12)
        assert not est.exact and 0 < est.n_draws <= 400_000
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se

    def test_correlated_orthant_against_elliptical_formula(self):
        """Orthant mass of an elliptical pair is 1/4 + asin(rho)/(2 pi).

        The formula holds for every df; rho = 0.5 gives exactly 1/3.
        """
        d = MultivariateT(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0)
        est = mvt_constraint_prob(d, np.eye(2), np.zeros(2), 500_000, seed=3)
        assert est.exact
        assert abs(est.value - 1.0 / 3.0) <= 1e-15

    @pytest.mark.parametrize("df", [1.0, 5.0, 60.0])
    @pytest.mark.parametrize("q", [2, 3])
    def test_centred_cone_closed_form_against_sampling(self, q, df):
        """Two or three rows through the location: Sheppard and Plackett.

        The apex is away from the origin and the correlations are random;
        raw t draws of the same law are the reference.
        """
        rng = np.random.default_rng(60 + q + int(df))
        s = rng.standard_normal((4, 4))
        d = MultivariateT(rng.standard_normal(4), s @ s.T + 0.5 * np.eye(4), df)
        r_mat = rng.standard_normal((q, 4))
        r_vec = r_mat @ d.location
        est = mvt_constraint_prob(d, r_mat, r_vec, 400_000, seed=61)
        assert est.exact and est.std_error == 0.0 and est.n_draws == 0
        ref = oracle_inequality_prob(d, r_mat, r_vec, 400_000, seed=62)
        assert abs(est.value - ref.value) < 4 * ref.value * ref.rel_error_bound

    def test_centred_chain_takes_the_lattice_path(self):
        """Five rows through the location: the lattice rule without df.

        The estimate reruns to the same bits, stays within its draw
        budget, and agrees with t draws of the same law.
        """
        rng = np.random.default_rng(70)
        s = rng.standard_normal((6, 6))
        d = MultivariateT(rng.standard_normal(6), s @ s.T + np.eye(6), 3.0)
        chain = np.eye(6)[:-1] - np.eye(6)[1:]
        r_vec = chain @ d.location
        n = 300_000
        est = mvt_constraint_prob(d, chain, r_vec, n, seed=71)
        assert est == mvt_constraint_prob(d, chain, r_vec, n, seed=71)
        assert not est.exact and 0 < est.n_draws <= n
        t_hits = np.all(mvt_sample(d, n, seed=72) @ chain.T > r_vec, axis=1)
        assert _within_4_se(est, t_hits)

    @pytest.mark.parametrize("df", [1.0, 5.0, 60.0])
    @pytest.mark.parametrize(
        "q, centred",
        [(2, False), (3, False), (4, False), (5, False), (6, False),
         (4, True), (5, True), (6, True)],
    )
    def test_lattice_path_against_sampling(self, q, centred, df):
        """The lattice rule agrees with raw t draws within 4 SE.

        Random correlations; the bounds are either scattered around the
        location or, for q >= 4, the location itself (a centred cone).
        """
        rng = np.random.default_rng(100 + 10 * q + int(df) + centred)
        s = rng.standard_normal((7, 7))
        d = MultivariateT(rng.standard_normal(7), s @ s.T + 0.5 * np.eye(7), df)
        r_mat = rng.standard_normal((q, 7))
        r_vec = r_mat @ d.location
        if not centred:
            r_vec += 0.5 * rng.standard_normal(q) * np.sqrt(
                np.diag(r_mat @ d.scale @ r_mat.T)
            )
        est = mvt_constraint_prob(d, r_mat, r_vec, 1_000_000, seed=101)
        assert not est.exact and 0 < est.n_draws <= 1_000_000
        ref = oracle_inequality_prob(d, r_mat, r_vec, 400_000, seed=102)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se

    def test_lattice_path_reruns_to_the_same_bits(self):
        rng = np.random.default_rng(110)
        s = rng.standard_normal((5, 5))
        d = MultivariateT(rng.standard_normal(5), s @ s.T + np.eye(5), 4.0)
        r_vec = rng.standard_normal(5)
        a = mvt_constraint_prob(d, np.eye(5), r_vec, 200_000, seed=111)
        b = mvt_constraint_prob(d, np.eye(5), r_vec, 200_000, seed=111)
        assert a.value.hex() == b.value.hex()
        assert a.std_error.hex() == b.std_error.hex()
        assert a == b
        assert mvt_constraint_prob(d, np.eye(5), r_vec, 200_000, seed=112) != a

    def test_centred_cone_does_not_depend_on_df(self):
        """A cone through the location drops the radial coordinate."""
        rng = np.random.default_rng(120)
        s = rng.standard_normal((5, 5))
        scale = s @ s.T + np.eye(5)
        loc = rng.standard_normal(5)
        chain = np.eye(5)[:-1] - np.eye(5)[1:]
        est = [
            mvt_constraint_prob(
                MultivariateT(loc, scale, df), chain, chain @ loc, 100_000, seed=121
            )
            for df in (1.0, 60.0)
        ]
        assert not est[0].exact
        assert est[0].value.hex() == est[1].value.hex()
        assert est[0] == est[1]

    @pytest.mark.parametrize("mcrep", [1, 63, 64, 1000, 5000, 20_000, 1_000_000])
    def test_lattice_points_within_mcrep(self, mcrep):
        """``n_draws <= mcrep``; below the cap the SE meets the binomial one.

        The cap is reached when doubling the points would pass mcrep;
        fewer points than shifts take one point on each of fewer shifts.
        """
        rng = np.random.default_rng(130)
        for q in (2, 4, 6):
            s = rng.standard_normal((q, q))
            d = MultivariateT(rng.standard_normal(q), s @ s.T + np.eye(q), 5.0)
            r_vec = rng.standard_normal(q)
            est = mvt_constraint_prob(d, np.eye(q), r_vec, mcrep, seed=131)
            assert 0 < est.n_draws <= mcrep
            if 2 * est.n_draws <= mcrep:
                p = est.value
                assert est.std_error <= np.sqrt(p * (1.0 - p) / mcrep)

    @pytest.mark.parametrize("budget", [1, 8, 63])
    @pytest.mark.parametrize("df", [1.0, 5.0])
    @pytest.mark.parametrize("q", [2, 3])
    def test_budgets_below_one_point_per_shift(self, q, df, budget):
        """Budgets of 1, 8 and 63 take one point on each of as many shifts.

        Off the apex every estimate is inexact with a positive standard
        error and stays within its budget, and over 2000 seeds the mean is
        within a tenth of the mean reported standard error of the same
        rule at a budget of 1e9.
        """
        d, r_vec, ref = _off_apex_case(q, df)
        ests = [mvt_constraint_prob(d, np.eye(q), r_vec, budget, seed) for seed in range(2000)]
        assert all(not e.exact and e.std_error > 0 and 0 < e.n_draws <= budget for e in ests)
        mean = np.mean([e.value for e in ests])
        assert abs(mean - ref.value) <= 0.1 * np.mean([e.std_error for e in ests])

    def test_no_spread_carries_the_error_of_one_hit(self):
        """Forty scales beyond the location every point is 0, and forty
        before it every point is 1: inexact, with the standard error of
        one hit in the budget, not 0."""
        d = MultivariateT(np.zeros(2), np.array([[1.0, 0.3], [0.3, 1.0]]), 1e4)
        one_hit = np.sqrt((1 / 1e6) * (1 - 1 / 1e6) / 1e6)
        for bound, value in ((40.0, 0.0), (-40.0, 1.0)):
            est = mvt_constraint_prob(d, np.eye(2), np.full(2, bound), 1_000_000, seed=1)
            assert not est.exact and est.value == value
            assert est.std_error == pytest.approx(one_hit, rel=1e-12)

    def test_lattice_standard_error_coverage(self):
        """At most 8% of 400 errors exceed two reported standard errors.

        Twenty random systems (q 2 to 6, df 1, 5 or 60, off the apex or
        centred) at twenty seeds each, against the same rule with a
        standard error target 100 times finer.
        """
        rng = np.random.default_rng(140)
        z = []
        for k in range(20):
            q = 2 + k % 5
            df = (1.0, 5.0, 60.0)[k % 3]
            s = rng.standard_normal((q, q))
            d = MultivariateT(rng.standard_normal(q), s @ s.T + 0.5 * np.eye(q), df)
            r_vec = d.location + 0.7 * rng.standard_normal(q)
            if q > 3 and k % 2 == 0:
                r_vec = d.location
            hp = mvt_constraint_prob(d, np.eye(q), r_vec, 10**10, seed=1000 + k)
            for seed in range(20):
                est = mvt_constraint_prob(d, np.eye(q), r_vec, 1_000_000, seed=seed)
                z.append((est.value - hp.value) / np.hypot(est.std_error, hp.std_error))
        assert np.mean(np.abs(z) > 2.0) <= 0.08

    def test_complementary_halves_exact_path(self):
        d = MultivariateT(np.array([0.4]), np.array([[2.3]]), 9.0)
        above = mvt_constraint_prob(d, np.array([[1.0]]), np.array([0.1]), 10, 1)
        below = mvt_constraint_prob(d, np.array([[-1.0]]), np.array([-0.1]), 10, 1)
        assert above.exact and below.exact
        assert above.value + below.value == 1.0

    def test_four_orthants_partition_the_plane(self):
        """The four sign patterns of a 2-row system have total mass 1."""
        rng = np.random.default_rng(8)
        s = rng.standard_normal((3, 3))
        d = MultivariateT(rng.standard_normal(3), s @ s.T + 3 * np.eye(3), 7.0)
        r_mat = rng.standard_normal((2, 3))
        r_vec = rng.standard_normal(2)
        estimates = []
        for i, signs in enumerate(([1, 1], [1, -1], [-1, 1], [-1, -1])):
            flip = np.asarray(signs, dtype=float)
            estimates.append(
                mvt_constraint_prob(
                    d, flip[:, None] * r_mat, flip * r_vec, 300_000, seed=21 + i
                )
            )
        total = sum(e.value for e in estimates)
        se = np.sqrt(sum(e.std_error**2 for e in estimates))
        assert abs(total - 1.0) < 3 * se

    def test_affine_consistency(self):
        """Pr(R xi > r) is invariant under an invertible reparameterization."""
        rng = np.random.default_rng(12)
        mu = rng.standard_normal(3)
        s = rng.standard_normal((3, 3))
        scale = s @ s.T + 3 * np.eye(3)
        a = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        r_mat = rng.standard_normal((2, 3))
        r_vec = rng.standard_normal(2)
        base = MultivariateT(mu, scale, 5.0)
        mapped = MultivariateT(a @ mu, a @ scale @ a.T, 5.0)
        p1 = mvt_constraint_prob(base, r_mat, r_vec, 400_000, seed=31)
        p2 = mvt_constraint_prob(
            mapped, r_mat @ np.linalg.inv(a), r_vec, 400_000, seed=31
        )
        se = np.hypot(p1.std_error, p2.std_error)
        assert abs(p1.value - p2.value) < 3 * se

    def test_transformed_and_raw_paths_agree(self):
        """Full-row-rank systems may be estimated in the reduced space.

        A rank-2 system on a 3-d t can be sampled either through the
        2-d transformed t or by raw 3-d draws; the two estimates must
        agree within combined Monte Carlo error.
        """
        rng = np.random.default_rng(14)
        s = rng.standard_normal((3, 3))
        d = MultivariateT(rng.standard_normal(3), s @ s.T + 3 * np.eye(3), 6.0)
        r_full = rng.standard_normal((2, 3))
        r_vec = rng.standard_normal(2)
        est_fast = mvt_constraint_prob(d, r_full, r_vec, 400_000, seed=41)
        # forcing the raw path: append a redundant copy of row 0 so the
        # matrix is rank deficient, which describes the same region
        r_rank_def = np.vstack([r_full, r_full[:1]])
        r_vec_def = np.concatenate([r_vec, r_vec[:1]])
        est_raw = mvt_constraint_prob(d, r_rank_def, r_vec_def, 400_000, seed=42)
        se = np.hypot(est_fast.std_error, est_raw.std_error)
        assert abs(est_fast.value - est_raw.value) < 3 * se

    def test_zero_rows_are_resolved_without_sampling(self):
        d = MultivariateT(np.zeros(2), np.eye(2), 4.0)
        trivially_true = mvt_constraint_prob(
            d, np.array([[0.0, 0.0]]), np.array([-1.0]), 10, 1
        )
        assert trivially_true.exact and trivially_true.value == 1.0
        impossible = mvt_constraint_prob(
            d, np.array([[0.0, 0.0]]), np.array([0.0]), 10, 1
        )
        assert impossible.exact and impossible.value == 0.0

    def test_dimension_mismatch(self):
        d = MultivariateT(np.zeros(2), np.eye(2), 4.0)
        with pytest.raises(InvalidInputError):
            mvt_constraint_prob(d, np.eye(3), np.zeros(3), 10, 1)


@functools.lru_cache(maxsize=None)
def _off_apex_case(q, df):
    """A random ``q``-row law off the apex, its bounds and their estimate
    at a budget of 1e9."""
    rng = np.random.default_rng(500 + q + int(df))
    d = _random_law(rng, q, df)
    r_vec = d.location + 0.7 * rng.standard_normal(q) * np.sqrt(np.diag(d.scale))
    return d, r_vec, mvt_constraint_prob(d, np.eye(q), r_vec, 10**9, seed=1)


def _orthant_2(h, k, rho):
    """``Pr(Z_1 > h, Z_2 > k)`` for standard normals of correlation ``rho``,
    by Owen's T function (Owen 1956, Ann. Math. Statist. 27); ``h, k != 0``."""
    h, k = -h, -k  # the lower orthant at (h, k)
    c = np.sqrt(1.0 - rho * rho)
    beta = 0.0 if h * k > 0 else 0.5
    return (
        0.5 * ndtr(h) + 0.5 * ndtr(k) - beta
        - owens_t(h, (k - rho * h) / (h * c)) - owens_t(k, (h - rho * k) / (k * c))
    )


def _quadrature_prob(d, r):
    """``Pr(Y > r)`` for a bivariate t ``Y ~ d``: the normal orthant at ``s a``
    integrated over the chi law of ``s = sqrt(w / df)`` (scipy quad)."""
    sd = np.sqrt(np.diag(d.scale))
    a = (r - d.location) / sd
    rho = d.scale[0, 1] / (sd[0] * sd[1])
    df = d.df

    def f(s):
        return 2.0 * df * s * stats.chi2.pdf(df * s * s, df) * _orthant_2(s * a[0], s * a[1], rho)

    return integrate.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)[0]


class TestRadialMap:
    """The lattice's radial coordinate: a Wilson-Hilferty map and its weight."""

    @pytest.mark.parametrize("df", [0.2, 1.0, 3.0, 17.0, 193.0, 1e5])
    def test_weight_is_the_likelihood_ratio(self, df):
        """``omega`` is proportional to the chi-square density of ``df s^2``
        times ``d(df s^2)/dz`` over the normal density of ``z``; ``s`` is
        monotone in ``u``; ``omega`` is 0 exactly where ``b <= 0``.  Below
        df 2/9, ``b`` is negative at ``z = 0``."""
        u = np.concatenate([[0.0, 1e-300, 1e-12], np.linspace(1e-6, 1 - 1e-6, 2001), [1.0]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            s, omega = _radial(u, df)
        z = ndtri(np.minimum(u, 1.0 - np.finfo(float).eps))
        c = 2.0 / (9.0 * df)
        b = 1.0 - c + z * np.sqrt(c)
        live = b > 0.0
        assert np.all(omega[~live] == 0.0) and np.all(s[~live] == 0.0)
        assert np.all(omega[live] > 0.0) and live.mean() > 0.4
        assert np.all(np.diff(s) >= 0.0) and np.all(np.diff(s[live]) > 0.0)
        w = df * s[live] ** 2
        assert w == pytest.approx(df * b[live] ** 3, rel=1e-14)
        log_ratio = np.log(omega[live]) - (
            stats.chi2.logpdf(w, df)
            + np.log(3.0 * df * b[live] ** 2 * np.sqrt(c))
            - stats.norm.logpdf(z[live])
        )
        assert np.ptp(log_ratio) <= 1e-9

    def test_standard_error_coverage_against_independent_references(self):
        """At most 8% of 1280 errors exceed two reported standard errors,
        and at each df their mean is within 0.25.

        Sixteen systems off the apex at each of df 1, 3, 17 and 193,
        twenty seeds each: fifteen of two rows against quadrature of the
        normal orthant over the chi law (``_quadrature_prob``), and one of
        three rows against raw t draws (``oracle_inequality_prob``).
        Neither reference uses the lattice or its radial map, so a bias of
        the map shows here, where the same rule at a finer target cannot
        see it.  The shift spread understates the error a little (about
        6.5% of errors pass two standard errors, against 5% for Student's
        t with 63 df), so the share is pooled over every df.
        """
        rng = np.random.default_rng(160)
        z = {}
        for df in (1.0, 3.0, 17.0, 193.0):
            z[df] = []
            for q in (2,) * 15 + (3,):
                d = _random_law(rng, q, df)
                r_vec = d.location + 0.7 * rng.standard_normal(q)
                if q == 2:
                    ref, ref_se = _quadrature_prob(d, r_vec), 0.0
                else:
                    o = oracle_inequality_prob(d, np.eye(q), r_vec, 1_000_000, seed=161, rel_se=2e-3)
                    ref, ref_se = o.value, o.value * o.rel_error_bound
                for seed in range(20):
                    est = mvt_constraint_prob(d, np.eye(q), r_vec, 20_000, seed=seed)
                    assert not est.exact and est.n_draws == 1024
                    z[df].append((est.value - ref) / np.hypot(est.std_error, ref_se))
        for df, errors in z.items():
            assert abs(np.mean(errors)) <= 0.25, df
        pooled = np.concatenate(list(z.values()))
        assert len(pooled) == 1280
        assert np.mean(np.abs(pooled) > 2.0) <= 0.08


class TestDomainTypes:
    def test_prob_estimate_exact_requires_zero_se(self):
        with pytest.raises(InvalidInputError):
            ProbEstimate(0.5, 0.01, True, 100)

    def test_prob_estimate_bounds(self):
        with pytest.raises(InvalidInputError):
            ProbEstimate(1.5, 0.0, True, 0)

    def test_mvt_requires_symmetric_scale(self):
        with pytest.raises(InvalidInputError):
            MultivariateT(np.zeros(2), np.array([[1.0, 0.9], [0.0, 1.0]]), 2.0)
        # the bound on |S - S'| is 1e-8 of the largest entry, or of 1
        for big in (1.0, 1e4):
            just_below = big * np.array([[1.0, 0.5], [0.5 + 0.5e-8, 1.0]])
            MultivariateT(np.zeros(2), just_below, 2.0)
            just_above = big * np.array([[1.0, 0.5], [0.5 + 2e-8, 1.0]])
            with pytest.raises(InvalidInputError, match="symmetric"):
                MultivariateT(np.zeros(2), just_above, 2.0)

    def test_mvt_requires_positive_df(self):
        with pytest.raises(InvalidInputError):
            MultivariateT(np.zeros(1), np.eye(1), 0.0)

    def test_relocate_keeps_shape_and_moves_location(self):
        d = MultivariateT(np.zeros(2), np.eye(2), 3.0)
        moved = d.relocate(np.array([1.0, 2.0]))
        assert np.array_equal(moved.location, [1.0, 2.0])
        assert np.array_equal(moved.scale, d.scale)
        assert moved.df == d.df


def _refined(blocks, mcrep):
    """The last of ``blocks`` before its SE meets the binomial one at mcrep,
    the stop rule of ``mvt_constraint_prob``."""
    est = None
    for est in blocks:
        if est.std_error <= np.sqrt(est.value * (1.0 - est.value) / mcrep):
            break
    return est


def _random_law(rng, d, df):
    s = rng.standard_normal((d, d))
    return MultivariateT(rng.standard_normal(d), s @ s.T + 0.5 * np.eye(d), df)


class TestSingularLattice:
    """Rank-deficient rows on the lattice, against raw t draws."""

    @pytest.mark.parametrize("df", [3.0, 60.0])
    @pytest.mark.parametrize("centred", [False, True])
    def test_grouped_comparison(self, df, centred):
        """``(x1,x2) > (x3,x4)``: four rows of rank 3."""
        rng = np.random.default_rng(200 + int(df) + centred)
        d = _random_law(rng, 4, df)
        R = np.array(
            [[1, 0, -1, 0], [1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 0, -1]], dtype=float
        )
        r = R @ d.location if centred else 0.3 * rng.standard_normal(4)
        assert np.linalg.matrix_rank(R) == 3
        est = _refined(_estimates(d, R, r, False, 201, 1_000_000), 1_000_000)
        assert not est.exact and 0 < est.n_draws <= 1_000_000
        ref = oracle_inequality_prob(d, R, r, 400_000, seed=202)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se

    @pytest.mark.parametrize("df", [3.0, 60.0])
    def test_chain_and_orthant(self, df):
        """``x1 > ... > x6`` with ``(x1, x2, x3) > 0``: eight rows of rank 6."""
        rng = np.random.default_rng(210 + int(df))
        d = _random_law(rng, 6, df)
        chain = np.eye(6)[:-1] - np.eye(6)[1:]
        R = np.vstack([chain, np.eye(6)[:3]])
        r = np.zeros(8)
        est = _refined(_estimates(d, R, r, False, 211, 1_000_000), 1_000_000)
        assert not est.exact and est.value > 0
        ref = oracle_inequality_prob(d, R, r, 400_000, seed=212, rel_se=0.05)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se
        # exchangeable and centred: one order of six, with at least three
        # of the six signs positive, (42 / 64) / 720
        iid = MultivariateT(np.zeros(6), np.eye(6), df)
        est = _refined(_estimates(iid, R, r, False, 213, 1_000_000), 1_000_000)
        assert abs(est.value - 42 / 64 / 720) < 4 * est.std_error

    @pytest.mark.parametrize("df", [3.0, 60.0])
    def test_triangle(self, df):
        """``x1 > 0, x2 > 0, x1 + x2 < 0.3``: a bounded region, not a cone."""
        d = MultivariateT(np.array([0.1, 0.05]), np.array([[0.04, 0.01], [0.01, 0.02]]), df)
        R = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        r = np.array([0.0, 0.0, -0.3])
        est = _refined(_estimates(d, R, r, False, 221, 1_000_000), 1_000_000)
        assert not est.exact and est.value > 0
        ref = oracle_inequality_prob(d, R, r, 400_000, seed=222)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se

    @pytest.mark.parametrize("df", [3.0, 60.0])
    def test_band_is_an_exact_t_difference(self, df):
        """``0.6 > x1 + x2 > 0.1``: rank 1, a difference of two t CDFs."""
        from scipy import stats

        rng = np.random.default_rng(230 + int(df))
        d = _random_law(rng, 3, df)
        row = np.array([1.0, 1.0, 0.0])
        R = np.vstack([row, -row])
        r = np.array([0.1, -0.6])
        est = next(_estimates(d, R, r, False, 231, 1_000_000))
        m, sd = row @ d.location, np.sqrt(row @ d.scale @ row)
        want = stats.t.cdf((0.6 - m) / sd, df) - stats.t.cdf((0.1 - m) / sd, df)
        assert est.exact and est.n_draws == 0
        assert abs(est.value - want) <= 1e-12

    def test_chain_against_its_reverse_is_an_inexact_zero(self):
        """Crossed bounds on every point: 0, a prune signal, never exact."""
        rng = np.random.default_rng(240)
        d = _random_law(rng, 6, 5.0)
        chain = np.eye(6)[:-1] - np.eye(6)[1:]
        R = np.vstack([chain, -chain])
        for r in (np.zeros(10), R @ d.location):
            est = next(_estimates(d, R, r, False, 241, 1_000_000))
            assert est.value == 0.0 and not est.exact and est.n_draws == 1024

    def test_full_rank_rows_keep_the_cholesky_path(self):
        """The same full-rank system through either factor: equal values."""
        rng = np.random.default_rng(250)
        d = _random_law(rng, 5, 4.0)
        R, r = np.eye(5)[:4], 0.3 * rng.standard_normal(4)
        full = next(_estimates(d, R, r, True, 251, 100_000))
        singular = next(_estimates(d, R, r, False, 251, 100_000))
        assert full.n_draws == singular.n_draws
        assert abs(full.value - singular.value) <= 1e-12


def _routes(monkeypatch, returned=None):
    """Record the pivot systems of each route ``complement_prob`` sums, in
    order: ``()`` for inclusion-exclusion, ``(i,)`` under the likeliest
    system ``i`` and every system for the walk; and what each returns in
    ``returned`` when it is a list."""
    taken = []
    term_sum = numkernel._term_sum

    def spy(dist, pivots, *args):
        taken.append(pivots)
        out = term_sum(dist, pivots, *args)
        if returned is not None:
            returned.append(out)
        return out

    monkeypatch.setattr(numkernel, "_term_sum", spy)
    return taken


def _own_estimates(d, systems, mcrep, seed):
    """Each system's own probability, as the engine's components give it."""
    return [mvt_constraint_prob(d, R, r, mcrep, seed + i) for i, (R, r) in enumerate(systems)]


class TestComplementProb:
    """``Pr(no system holds)`` from lattice terms, against raw t draws."""

    def test_inclusion_exclusion_against_sampling(self, monkeypatch):
        """Three systems, one of them rank-deficient, none known."""
        rng = np.random.default_rng(300)
        d = _random_law(rng, 4, 5.0)
        systems = [
            (np.array([[1.0, -1.0, 0, 0], [0, 1.0, 0, 0]]), np.zeros(2)),
            (np.array([[0, 0, -1.0, 0], [0, 0, 0, -1.0]]), np.zeros(2)),
            (np.array([[1.0, 0, -1, 0], [1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 0, -1]]), np.zeros(4)),
        ]
        taken = _routes(monkeypatch)
        est = complement_prob(d, systems, [None] * 3, 1_000_000, seed=301)
        assert taken == [()]
        assert not est.exact and 0 < est.n_draws <= 1_000_000
        ref = oracle_complement_prob(d, systems, 400_000, seed=302)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se

    def test_opposite_rows_prune_only_when_disjoint(self):
        """``x1 > 0.1, x2 > 0`` or ``x1 < 0.6``: the pair's opposite rows
        overlap on a band, so their intersection is a term.  ``x1 > 0.6``
        or ``x1 < 0.1`` is empty in closed form, and its complement is the
        exact band ``0.1 <= x1 <= 0.6``."""
        rng = np.random.default_rng(305)
        d = _random_law(rng, 3, 4.0)
        band = [
            (np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.array([0.1, 0.0])),
            (np.array([[-1.0, 0, 0]]), np.array([-0.6])),
        ]
        est = complement_prob(d, band, [None] * 2, 1_000_000, seed=306)
        ref = oracle_complement_prob(d, band, 400_000, seed=307)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se
        apart = [
            (np.array([[1.0, 0, 0]]), np.array([0.6])),
            (np.array([[-1.0, 0, 0]]), np.array([-0.1])),
        ]
        est = complement_prob(d, apart, [None] * 2, 1_000_000, seed=308)
        assert est.exact
        m, sd = d.location[0], np.sqrt(d.scale[0, 0])
        assert abs(est.value - (t_cdf((0.6 - m) / sd, 4.0) - t_cdf((0.1 - m) / sd, 4.0))) <= 1e-12

    def test_known_terms_make_an_exact_union_exact(self):
        """Exact singles and a pair empty in closed form: 1 - c1 - c2."""
        d = MultivariateT(np.zeros(2), np.array([[1.0, 0.3], [0.3, 2.0]]), 1.0)
        systems = [(np.eye(2), np.zeros(2)), (-np.eye(2), np.zeros(2))]
        known = _own_estimates(d, systems, 10_000, 310)
        assert all(k.exact for k in known)
        est = complement_prob(d, systems, known, 10_000, seed=311)
        assert est.exact and est.n_draws == 0
        assert est.value == 1.0 - (known[0].value + known[1].value)

    def test_direct_route_is_chosen_when_no_miss_would_show(self, monkeypatch):
        """``mcrep (1 - max p_i) < 1``: never inclusion-exclusion.  The
        route under the likeliest system fits beside the walk and runs
        first; its subtracted term outweighs its pieces, so the walk over
        the disjoint pieces follows.  Far from the boundary, 1 - U is ~6e-5."""
        d = MultivariateT(np.array([4.1, 4.1]), np.array([[1.0, 0.2], [0.2, 1.0]]), 60.0)
        systems = [(np.eye(2), np.zeros(2)), (np.array([[1.0, -1.0]]), np.zeros(1))]
        mcrep = 5000
        known = _own_estimates(d, systems, mcrep, 320)
        assert mcrep * (1.0 - max(k.value for k in known)) < 1.0
        taken = _routes(monkeypatch)
        est = complement_prob(d, systems, known, mcrep, seed=321)
        assert taken == [(0,), (0, 1)]
        assert not est.exact and 0 < est.n_draws <= mcrep
        ref = oracle_complement_prob(d, systems, 1_000_000, seed=322, rel_se=0.05)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se

    def _apart_near_one(self):
        """An orthant and its opposite, which share no point, far inside
        the first: ``mcrep (1 - p_1) < 1`` at mcrep 20000, 1 - U ~3e-5."""
        d = MultivariateT(np.full(3, 4.6), 0.8 * np.eye(3) + 0.2, 60.0)
        systems = [(np.eye(3), np.zeros(3)), (-np.eye(3), np.zeros(3))]
        known = _own_estimates(d, systems, 20_000, 325)
        assert 20_000 * (1.0 - known[0].value) < 1.0
        return d, systems, known

    def test_likeliest_system_alone_when_no_two_overlap(self, monkeypatch):
        """``Pr(not H_1)`` by its own pieces, less the known ``p_2``: the
        terms under system 1's three pieces, no walk, no inclusion-exclusion."""
        d, systems, known = self._apart_near_one()
        taken = _routes(monkeypatch)
        est = complement_prob(d, systems, known, 20_000, seed=326)
        assert taken == [(0,)]
        assert not est.exact and 0 < est.n_draws <= 20_000
        ref = oracle_complement_prob(d, systems, 1_000_000, seed=327, rel_se=0.1)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se
        assert complement_prob(d, systems, known, 20_000, seed=326) == est
        # x1 > 0 or x1 < -0.5, five scales from the first: the band between
        # them is Pr(not H_1) - p_2, exact
        d = MultivariateT(np.array([5.0, 0.0]), np.eye(2), 60.0)
        band = [(np.array([[1.0, 0.0]]), np.zeros(1)), (np.array([[-1.0, 0.0]]), np.array([0.5]))]
        known = _own_estimates(d, band, 20_000, 329)
        est = complement_prob(d, band, known, 20_000, seed=329)
        assert est.exact and est.n_draws == 0
        assert est.value == pytest.approx(t_cdf(-5.0, 60.0) - t_cdf(-5.5, 60.0), rel=1e-12)

    def test_no_overlap_takes_the_likeliest_pieces_less_the_known(self):
        """An orthant and ``x1 < -0.5``, which share no point: ``1 - U`` is
        the walk over the orthant's pieces, on the same streams, less the
        exact ``p_2``, to the bit."""
        d = MultivariateT(np.full(2, 4.6), 0.8 * np.eye(2) + 0.2, 60.0)
        systems = [(np.eye(2), np.zeros(2)), (np.array([[-1.0, 0.0]]), np.array([0.5]))]
        known = _own_estimates(d, systems, 20_000, 330)
        assert 20_000 * (1.0 - known[0].value) < 1.0 and known[1].exact
        est = complement_prob(d, systems, known, 20_000, seed=331)
        walk = complement_prob(d, systems[:1], known[:1], 20_000, seed=derived_seed(331, 3))
        assert not est.exact and est.n_draws == walk.n_draws > 0
        assert est.value == walk.value - known[1].value
        assert est.std_error == walk.std_error

    def test_unresolved_likeliest_system_falls_back_to_all_pieces(self, monkeypatch):
        """A known ``p_2`` that meets its term's target but whose standard
        error outweighs the pieces' it is subtracted from: the walk over
        every system's pieces follows, its estimate stands, and the points
        of both routes count."""
        d, systems, known = self._apart_near_one()
        noisy = ProbEstimate(known[1].value, 1e-5, False, 64)
        returned = []
        taken = _routes(monkeypatch, returned)
        est = complement_prob(d, systems, [known[0], noisy], 20_000, seed=328)
        assert taken == [(0,), (0, 1)]
        (route, balanced), (walk, _) = returned
        assert not balanced and route.std_error >= 1e-5
        assert (est.value, est.std_error) == (walk.value, walk.std_error)
        assert est.n_draws == route.n_draws + walk.n_draws <= 20_000

    def test_known_estimate_short_of_its_target_is_refined(self, monkeypatch):
        """A known ``p_2`` too coarse for ``1 - U`` is estimated afresh: the
        terms under system 1's pieces still stand alone, at the cost of
        its points."""
        d, systems, known = self._apart_near_one()
        coarse = ProbEstimate(known[1].value, 1e-3, False, 64)
        taken = _routes(monkeypatch)
        est = complement_prob(d, systems, [known[0], coarse], 20_000, seed=328)
        assert taken == [(0,)]
        assert est.std_error < 1e-5 and est.n_draws <= 20_000
        assert est.n_draws > complement_prob(d, systems, known, 20_000, seed=328).n_draws

    def test_overlapping_systems_near_one_take_the_likeliest_pieces(self, monkeypatch):
        """x1 > x2 > x3, x3 > x2 > x1 and (x1, x2, x3) > 0, deep in the
        orthant: ``mcrep (1 - p_3) < 1`` at mcrep 20000 and ``1 - U`` is
        about 2e-5.  The orthant's pieces, less their overlaps with each
        chain, stand alone, against raw t draws."""
        d = MultivariateT(np.array([5.5, 5.0, 4.2]), 0.8 * np.eye(3) + 0.2, 60.0)
        chain = np.eye(3)[:-1] - np.eye(3)[1:]
        systems = [(chain, np.zeros(2)), (-chain[::-1], np.zeros(2)), (np.eye(3), np.zeros(3))]
        known = _own_estimates(d, systems, 20_000, 400)
        assert 20_000 * (1.0 - known[2].value) < 1.0
        taken = _routes(monkeypatch)
        est = complement_prob(d, systems, known, 20_000, seed=401)
        assert taken == [(2,)]
        assert not est.exact and 0 < est.n_draws <= 20_000
        ref = oracle_complement_prob(d, systems, 1_000_000, seed=402, rel_se=0.1)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se

    def test_every_term_needs_one_point_of_the_budget(self):
        """These systems need 7 inclusion-exclusion terms and 36 leaves of
        the walk, 43 in all.  At mcrep 40000, less than one 1024-point
        block per term, the terms take fewer points and agree with raw t
        draws; at mcrep 6 no route fits one point per term."""
        d = MultivariateT(np.zeros(4), np.eye(4), 5.0)
        chain = np.eye(4)[:-1] - np.eye(4)[1:]
        systems = [(chain, np.zeros(3)), (chain[:, [2, 0, 3, 1]], np.zeros(3)), (np.eye(4), np.zeros(4))]
        table = numkernel._table(systems)
        assert len(numkernel._terms((), table, math.inf)) == 7
        assert len(numkernel._terms((0, 1, 2), table, math.inf)) == 36
        est = complement_prob(d, systems, [None] * 3, 40_000, seed=330)
        assert not est.exact and 0 < est.n_draws <= 40_000 and est.std_error > 0
        ref = oracle_complement_prob(d, systems, 400_000, seed=331)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se
        with pytest.raises(NumericError, match="complement"):
            complement_prob(d, systems, [None] * 3, 6, seed=330)

    def test_pivot_sets_agree(self):
        """Inclusion-exclusion (no pivot), the pieces of one system and the
        walk over every system's pieces sum to the same ``1 - U``: on
        random unions of two or three systems (a rank-deficient one among
        them, df 1, 5 or 60, off the apex or centred) the three sums agree
        within 4 combined standard errors."""
        rng = np.random.default_rng(360)
        for k in range(12):
            d = _random_law(rng, 3, (1.0, 5.0, 60.0)[k % 3])
            systems = []
            for q in (2, 3) if k % 2 else (1, 2, 4):
                R = rng.standard_normal((q, 3))
                off = 0.0 if k % 4 == 0 else 0.5 * rng.standard_normal(q)
                systems.append((R, R @ d.location + off))
            m, table = len(systems), numkernel._table(systems)
            ests = []
            for pivots in ((), (k % m,), tuple(range(m))):
                terms = numkernel._terms(pivots, table, math.inf)
                est, _ = numkernel._term_sum(
                    d, pivots, terms, table, [None] * m, 100_000, 3600 + k, 100_000
                )
                ests.append(est)
            for a, b in itertools.combinations(ests, 2):
                assert abs(a.value - b.value) <= 4 * np.hypot(a.std_error, b.std_error) + 1e-12

    @pytest.mark.parametrize("mcrep", [10_000, 100_000, 1_000_000])
    def test_points_within_mcrep(self, mcrep):
        rng = np.random.default_rng(340)
        for k in range(6):
            d = _random_law(rng, 4, (1.0, 5.0, 60.0)[k % 3])
            qs = (1, 2) if k < 3 else (2, 2)
            systems = [(rng.standard_normal((q, 4)), rng.standard_normal(q)) for q in qs]
            known = _own_estimates(d, systems, mcrep, 341) if k % 2 else [None] * 2
            est = complement_prob(d, systems, known, mcrep, seed=342 + k)
            assert est is not None and 0 <= est.n_draws <= mcrep
            assert est.exact == (est.n_draws == 0 and est.std_error == 0.0)

    def test_complement_standard_error_coverage(self):
        """At most 8% of 300 errors exceed two reported standard errors.

        Fifteen random unions of two or three systems (a rank-deficient
        one among them, df 1, 5 or 60, off the apex or centred) at twenty
        seeds each, against the same estimate at a budget 100 times
        larger.  Exact unions have no error to cover.
        """
        rng = np.random.default_rng(350)
        z = []
        for k in range(15):
            d = _random_law(rng, 3, (1.0, 5.0, 60.0)[k % 3])
            qs = (2, 3) if k % 2 else (1, 2, 4)
            systems = [(rng.standard_normal((q, 3)), None) for q in qs]
            systems = [
                (R, R @ d.location if k % 5 == 0 else R @ d.location + 0.5 * rng.standard_normal(len(R)))
                for R, _ in systems
            ]
            hp = complement_prob(d, systems, [None] * len(qs), 10**7, seed=3500 + k)
            for seed in range(20):
                est = complement_prob(d, systems, [None] * len(qs), 100_000, seed=seed)
                if not est.exact:
                    z.append((est.value - hp.value) / np.hypot(est.std_error, hp.std_error))
        assert len(z) >= 200
        assert np.mean(np.abs(z) > 2.0) <= 0.08
