"""Linear algebra and Student t primitive behavior."""

import functools
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import ndtr, ndtri, owens_t, stdtr

from bfreg import (
    Dataset,
    DecompositionError,
    InvalidInputError,
    MultivariateT,
    NumericError,
    ProbEstimate,
    fit_ols,
    parse_hypotheses,
)
from bfreg import numkernel
from bfreg.constraints import fractional_posterior_beta
from bfreg.engine import test_hypotheses as run_hypotheses
from bfreg.numkernel import (
    _blocks,
    _factor,
    _log_gamma_ratio,
    _log_gamma_step,
    _path,
    _radial,
    complement_prob,
    derived_seed,
    mvt_constraint_prob,
    mvt_logpdf,
    t_cdf,
)
from oracle import (
    mvt_sample,
    oracle_complement_prob,
    oracle_inequality_prob,
    reference_lattice_prob,
    reference_radial,
)


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

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.zeros(3), r"point has shape \(3,\), expected \(2,\)"),
            (np.array([0.0, np.inf]), "non-finite"),
            (np.array([np.nan, 0.0]), "non-finite"),
        ],
    )
    def test_bad_point_rejected(self, x, message):
        with pytest.raises(InvalidInputError, match=message):
            mvt_logpdf(x, MultivariateT(np.zeros(2), np.eye(2), 3.0))


def _exact_log_gamma_step(n, d):
    """``log Gamma(n + d/2) - log Gamma(n)`` for integers ``n >= 1`` and
    ``d >= 0`` in integer arithmetic: a product of integers for even ``d``;
    for odd ``d = 2m + 1``, ``Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)``
    with ``k = n + m``.  One correctly rounded division, then a log."""
    m, odd = divmod(d, 2)
    if not odd:
        return math.log(math.prod(range(n, n + m))) if m else 0.0
    k = n + m
    ratio = math.factorial(2 * k) / (4**k * math.factorial(k) * math.factorial(n - 1))
    return math.log(ratio) + 0.5 * math.log(math.pi)


class TestLogGammaRatio:
    """``log Gamma(a + 1/2) / Gamma(a)`` without the difference of lgammas."""

    @pytest.mark.parametrize("n", [*range(1, 21), 50, 470, 498, 2500, 50_000])
    def test_against_integer_arithmetic(self, n):
        """``Gamma(n + 1/2) / Gamma(n) = (2n)! sqrt(pi) / (4^n n! (n-1)!)``:
        within 2 ulp of the exact log, where ``lgamma(n + 1/2) -
        lgamma(n)`` is off by up to 1e-12 near n = 500."""
        want = _exact_log_gamma_step(n, 1)
        assert abs(_log_gamma_ratio(n) - want) <= 4.5e-16 * max(1.0, abs(want))

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 6, 7])
    @pytest.mark.parametrize("n", [1, 3, 17, 470, 2500])
    def test_step_of_a_dimension(self, n, d):
        """``mvt_logpdf``'s ``lgamma((nu + d)/2) - lgamma(nu/2)`` at ``nu = 2n``."""
        want = _exact_log_gamma_step(n, d)
        assert abs(_log_gamma_step(n, d) - want) <= 1e-15 * max(1.0, abs(want))

    def test_half_integers_and_small_arguments(self):
        """``a = 1/2``: ``Gamma(1) / Gamma(1/2) = 1 / sqrt(pi)``; ``a = 3/2``:
        ``Gamma(2) / Gamma(3/2) = 2 / sqrt(pi)``; small ``a``: ``Gamma(a +
        1/2) / Gamma(a)`` tends to ``a sqrt(pi)``."""
        assert _log_gamma_ratio(0.5) == pytest.approx(-0.5 * math.log(math.pi), rel=1e-15)
        assert _log_gamma_ratio(1.5) == pytest.approx(math.log(2.0 / math.sqrt(math.pi)), rel=1e-15)
        a = 1e-9
        assert _log_gamma_ratio(a) == pytest.approx(math.log(a * math.sqrt(math.pi)), rel=1e-9)


class TestTCdf:
    def test_symmetry_point(self):
        assert t_cdf(0.0, 1.0) == 0.5

    @pytest.mark.parametrize("df", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("x", [1.0, np.array([-1.0, 1.0])])
    def test_bad_df_rejected(self, x, df):
        with pytest.raises(InvalidInputError, match="df must be a positive finite number"):
            t_cdf(x, df)

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

    @pytest.mark.parametrize(
        "df", [0.01, 0.2, 0.5, 1.0, 1.5, 3.0, 17.0, 193.0, 940.0, 5000.0, 1e5, 1e6, 1e7]
    )
    def test_scalar_against_stdtr(self, df):
        """A scalar is within 1e-12 relative of ``scipy.special.stdtr`` for
        ``|x| <= 1e3``, in both tails, except where stdtr loses digits (df 1
        near 0) or underflows: by the continued fraction in Python floats up
        to 5000 df, including around ``|x| = sqrt(3)``, where it switches
        between ``I_x(a, 1/2)`` and ``1 - I_y(1/2, a)``, and by stdtr above."""
        from scipy.special import stdtr

        switch = math.sqrt(3.0 * (1.0 - 1.0 / (0.5 * df + 1.0)))
        for x in np.concatenate(
            [-np.logspace(-10, 3, 131), [-0.5, -1.0, -2.0, -switch], -np.linspace(1.6, 2.0, 41)]
        ):
            for t in (x, -x):
                want = float(stdtr(df, t))
                if (df == 1.0 and abs(t) < 1e-3) or min(want, 1.0 - want) < 1e-300:
                    continue
                got = t_cdf(float(t), df)
                assert abs(got - want) <= 1e-12 * min(want, 1.0 - want) or (
                    t > 0 and abs(got - want) <= 1e-16
                ), (df, t)

    def test_cauchy_keeps_the_digits_near_zero(self):
        """At df 1 the lower tail is ``atan(-1 / x) / pi`` for ``x < 0``: within
        1e-14 relative for ``|x| <= 1e12``, where stdtr reads 0.5 at -5e-9,
        and within 1e-13 where ``df / x^2`` is subnormal and the tail is
        taken from its log, near -357."""
        for x in -np.logspace(-12, 12, 241):
            want = np.arctan(-1.0 / x) / np.pi
            assert abs(t_cdf(float(x), 1.0) - want) <= 1e-14 * want
        assert t_cdf(-5e-9, 1.0) == pytest.approx(0.5 - 5e-9 / np.pi, rel=1e-15)
        assert t_cdf(-5e-9, 1.0) < 0.5 - 1.59e-9
        for x in (-1e155, -1e160):
            want = -1.0 / (np.pi * x)
            assert abs(t_cdf(x, 1.0) - want) <= 1e-13 * want

    def test_array_path_agrees_with_the_scalar(self):
        x = np.linspace(-30.0, 30.0, 61)
        for df in (2.5, 45.0, 940.0):
            got = t_cdf(x, df)
            assert got.shape == x.shape
            want = np.array([t_cdf(float(v), df) for v in x])
            assert np.all(np.abs(got - want) <= 1e-12 * np.minimum(want, 1.0 - want))

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


class TestStreams:
    """Each estimate's stream is keyed by a hash of its seed and path."""

    PARENTS = (5, 2**63 - 25)
    # every path of length 0 to 4 over the entries 0, 1 and 2: 121 paths,
    # among them each shorter path with trailing zeros appended
    PATHS = [p for n in range(5) for p in itertools.product(range(3), repeat=n)]

    @pytest.mark.parametrize("parent", PARENTS)
    def test_paths_give_distinct_keys(self, parent):
        """No two paths share a key, trailing zeros included, under a small
        parent and a 63-bit one: a rule that pads short keys with zeros
        would give ``(s, 2)`` and ``(s, 2, 0)`` one stream."""
        keys = [derived_seed(parent, *p) for p in self.PATHS]
        assert len(set(keys)) == len(self.PATHS)
        assert all(0 <= k < 2**64 for k in keys)

    @pytest.mark.parametrize("parent", PARENTS)
    def test_shifts_are_distinct_uniforms(self, parent):
        """Every key's shifts lie in [0, 1), and no two keys share them."""
        shifts = [numkernel._shifts(derived_seed(parent, *p), 4) for p in self.PATHS]
        assert all(u.shape == (4, numkernel._SHIFTS) for u in shifts)
        assert all(u.min() >= 0.0 and u.max() < 1.0 for u in shifts)
        assert len({u.tobytes() for u in shifts}) == len(self.PATHS)

    def test_golden_values(self):
        """The rule is pinned: BLAKE2b-64 of the packed words, and the first
        53 bits of SHAKE-256's first word as a shift."""
        assert derived_seed(0) == 1786884285633530058
        assert derived_seed(2**63 - 1, 20, 1, 0) == 9999326997121900848
        assert numkernel._shifts(0, 1)[0, 0] == float.fromhex("0x1.20f31d1b88320p-5")

    def test_same_bits_in_another_process(self):
        """A lattice estimate, a derived seed and the shifts reproduce to
        the bit in a fresh interpreter."""
        code = (
            "import numpy as np\n"
            "from bfreg.numkernel import MultivariateT, _shifts, derived_seed, mvt_constraint_prob\n"
            "d = MultivariateT(np.array([0.3, -0.2, 0.1]), np.eye(3) + 0.2, 7.0)\n"
            "est = mvt_constraint_prob(d, np.eye(3), np.zeros(3), 5000, derived_seed(9, 1, 2))\n"
            "print(est.value.hex(), est.std_error.hex(), derived_seed(9, 1, 2), _shifts(9, 3).tobytes().hex())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            check=True,
            capture_output=True,
            text=True,
        ).stdout.split()
        d = MultivariateT(np.array([0.3, -0.2, 0.1]), np.eye(3) + 0.2, 7.0)
        est = mvt_constraint_prob(d, np.eye(3), np.zeros(3), 5000, derived_seed(9, 1, 2))
        assert not est.exact
        here = [est.value.hex(), est.std_error.hex(), str(derived_seed(9, 1, 2))]
        assert out == here + [numkernel._shifts(9, 3).tobytes().hex()]


def _within_4_se(est, t_hits):
    """``est`` agrees with the hit rate of independent t draws."""
    p_t = t_hits.mean()
    se = np.hypot(est.std_error, np.sqrt(p_t * (1.0 - p_t) / t_hits.size))
    return abs(est.value - p_t) < 4 * se


class TestMvtConstraintProb:
    @pytest.mark.parametrize(
        "R, r, n_draws, message",
        [
            ([[1.0, np.nan]], [0.0], 100, "constraint matrix must be a finite 2-d array"),
            ([[1.0, 0.0], [0.0, np.inf]], [0.0, 0.0], 100, "finite 2-d array"),
            ([[1.0, 0.0]], [0.0, 0.0], 100, "constraint bound has the wrong length"),
            ([[1.0, 0.0], [0.0, 1.0]], [0.0], 100, "constraint bound has the wrong length"),
            ([[1.0, 0.0]], [np.nan], 100, "constraint bound contains non-finite entries"),
            ([[1.0, 0.0]], [-np.inf], 100, "constraint bound contains non-finite entries"),
            ([[1.0, 0.0]], [0.0], 0, "n_draws must be at least 1"),
        ],
    )
    def test_bad_input_rejected(self, R, r, n_draws, message):
        d = MultivariateT(np.zeros(2), np.eye(2), 5.0)
        with pytest.raises(InvalidInputError, match=message):
            mvt_constraint_prob(d, R, r, n_draws, seed=1)

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
        # off the apex the angular rule is exact; uncorrelated is not
        # independent for a t, so the reference is raw sampling of the same law
        r = np.array([-0.3, 0.4])
        est = mvt_constraint_prob(d, np.eye(2), r, 400_000, seed=2)
        ref = oracle_inequality_prob(d, np.eye(2), r, 400_000, seed=12)
        assert est.exact and est.n_draws == 0
        assert abs(est.value - ref.value) < 4 * ref.value * ref.rel_error_bound

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

    def test_centred_closed_form_against_the_correlation(self):
        """Two and three rows through the location of a random law, each
        pair's angle from the rows in the scale's factor: within 1e-15 of
        ``1/4 + asin(rho)/(2 pi)`` and ``1/8 + sum asin(rho_ij)/(4 pi)`` on
        the correlation of ``R S R'``.  A row and a positive multiple of
        it read exactly 1/2, a row and its negation exactly 0, and a third
        row with them gives the pair's value (to 1e-15) or exactly 0.  A
        singular scale of rank 2 in 3 dimensions, whose Cholesky factor
        mostly fails, reads the pair's formula to 1e-14."""
        rng = np.random.default_rng(65)
        for _ in range(20):
            B = rng.standard_normal((3, 2))
            d = MultivariateT(rng.standard_normal(3), B @ B.T, 5.0)
            R = rng.standard_normal((2, 3))
            C = _correlation(R @ d.scale @ R.T)
            est = mvt_constraint_prob(d, R, R @ d.location, 10, seed=1)
            assert est.exact and abs(est.value - (0.25 + np.arcsin(C[0, 1]) / (2.0 * np.pi))) <= 1e-14
        for _ in range(20):
            d = _random_law(rng, 4, 5.0)
            R = rng.standard_normal((3, 4))
            for q in (2, 3):
                C = _correlation(R[:q] @ d.scale @ R[:q].T)
                angles = sum(np.arcsin(C[i, j]) for i in range(q) for j in range(i + 1, q))
                want = 0.5**q + angles / (2 ** (q - 1) * np.pi)
                est = mvt_constraint_prob(d, R[:q], R[:q] @ d.location, 10, seed=1)
                assert est.exact and abs(est.value - want) <= 1e-15
            u, w = R[0], R[1]
            for rows, want in (([u, 3.7 * u], 0.5), ([u, -u], 0.0), ([-u, u, w], 0.0)):
                rows = np.array(rows)
                assert mvt_constraint_prob(d, rows, rows @ d.location, 10, seed=1).value == want
            pair = mvt_constraint_prob(d, np.array([u, w]), np.array([u, w]) @ d.location, 10, seed=1)
            rows = np.array([u, 0.3 * u, w])
            est = mvt_constraint_prob(d, rows, rows @ d.location, 10, seed=1)
            assert est.exact and abs(est.value - pair.value) <= 1e-15

    def test_centred_chain_takes_the_lattice_path(self):
        """Six rows through the location: the lattice rule without df
        (four and five rows take Plackett's reduction, ``TestPlackett``).

        The estimate reruns to the same bits, stays within its draw
        budget, and agrees with t draws of the same law.
        """
        rng = np.random.default_rng(70)
        s = rng.standard_normal((7, 7))
        d = MultivariateT(rng.standard_normal(7), s @ s.T + np.eye(7), 3.0)
        chain = np.eye(7)[:-1] - np.eye(7)[1:]
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
        location or, for q >= 4, the location itself (a centred cone).  Two
        rows off the location are exact (the angular rule) and are held to
        the same draws, and so are three at df 60, above the trivariate
        rule's cut-over.  Centred cones of 4 and 5 rows can be exact
        (Plackett's reduction), so they go to the lattice directly
        (``_lattice_only``).
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
        prob = _lattice_only if centred and q <= 5 else mvt_constraint_prob
        est = prob(d, r_mat, r_vec, 1_000_000, seed=101)
        exact = q == 2 or q == 3 and df >= numkernel._TRIVARIATE_MIN_DF
        assert est.exact == exact and (est.n_draws == 0) == est.exact
        assert est.n_draws <= 1_000_000
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
        """A cone through the location drops the radial coordinate: six
        rows, which the lattice takes."""
        rng = np.random.default_rng(120)
        s = rng.standard_normal((7, 7))
        scale = s @ s.T + np.eye(7)
        loc = rng.standard_normal(7)
        chain = np.eye(7)[:-1] - np.eye(7)[1:]
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
        for q in (3, 4, 6):
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

        ``q + 1`` rows off the apex (two rows are exact): every estimate is
        inexact with a positive standard error and stays within its budget,
        and over 2000 seeds the mean is within a tenth of the mean reported
        standard error of the same rule at a budget of 1e9.
        """
        d, r_vec, ref = _off_apex_case(q + 1, df)
        ests = [
            mvt_constraint_prob(d, np.eye(q + 1), r_vec, budget, seed) for seed in range(2000)
        ]
        assert all(not e.exact and e.std_error > 0 and 0 < e.n_draws <= budget for e in ests)
        mean = np.mean([e.value for e in ests])
        assert abs(mean - ref.value) <= 0.1 * np.mean([e.std_error for e in ests])

    @pytest.mark.parametrize("cap", [64, 100, 127])
    def test_one_point_per_shift_at_df_1(self, cap):
        """At 64 to 127 points each shift takes one point; at df 1 about
        5% of them have weight 0, so some shift's own ratio is 0/0.  Every
        seed still gives a finite estimate in [0, 1]."""
        d = MultivariateT(np.zeros(4), np.eye(4) + 0.3, 1.0)
        R = np.eye(4)[:-1] - np.eye(4)[1:]
        for seed in range(200):
            est = mvt_constraint_prob(d, R, np.array([0.3, 0.2, 0.1]), cap, seed)
            assert not est.exact and est.n_draws == numkernel._SHIFTS
            assert 0.0 <= est.value <= 1.0 and 0.0 < est.std_error < 1.0

    def test_no_spread_carries_the_error_of_one_hit(self):
        """Forty scales beyond the location every point is 0, and forty
        before it every point is 1: inexact, with the standard error of
        one hit in the budget, not 0.  Four rows of rank 4 stay on the
        lattice (three would take the trivariate rule, or drop rows that
        hold to rounding)."""
        d = MultivariateT(np.zeros(4), 0.7 * np.eye(4) + 0.3, 1e4)
        one_hit = np.sqrt((1 / 1e6) * (1 - 1 / 1e6) / 1e6)
        for bound, value in ((40.0, 0.0), (-40.0, 1.0)):
            est = mvt_constraint_prob(d, np.eye(4), np.full(4, bound), 1_000_000, seed=1)
            assert not est.exact and est.value == value
            assert est.std_error == pytest.approx(one_hit, rel=1e-12)

    def test_lattice_standard_error_coverage(self):
        """At most 8% of 400 errors exceed two reported standard errors.

        Twenty random systems (q 2 to 6, df 1, 5 or 60, off the apex or
        centred) at twenty seeds each, against the same rule with a
        standard error target 100 times finer.  Two rows off the apex take
        the exact angular rule in ``mvt_constraint_prob``, three can take
        the trivariate rule, and centred cones of 4 or 5 rows can take
        Plackett's reduction; here they go to the lattice directly
        (``_lattice_only``).
        """
        rng = np.random.default_rng(140)
        z = []
        for k in range(20):
            q = 2 + k % 5
            df = (1.0, 5.0, 60.0)[k % 3]
            s = rng.standard_normal((q, q))
            d = MultivariateT(rng.standard_normal(q), s @ s.T + 0.5 * np.eye(q), df)
            r_vec = d.location + 0.7 * rng.standard_normal(q)
            centred = q > 3 and k % 2 == 0
            if centred:
                r_vec = d.location
            prob = _lattice_only if q <= 3 or centred and q <= 5 else mvt_constraint_prob
            hp = prob(d, np.eye(q), r_vec, 10**10, seed=1000 + k)
            for seed in range(20):
                est = prob(d, np.eye(q), r_vec, 1_000_000, seed=seed)
                assert not est.exact
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
        assert all(e.exact for e in estimates)
        assert abs(sum(e.value for e in estimates) - 1.0) <= 1e-12

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
        assert p1.exact and p2.exact
        assert abs(p1.value - p2.value) <= 1e-12

    def test_transformed_and_raw_paths_agree(self):
        """Full-row-rank systems may be estimated in the reduced space.

        A rank-2 system on a 3-d t, as two rows or with one of them
        repeated: the two descriptions of the same region are exact by the
        angular rule and agree to rounding.
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
        assert est_fast.exact and est_raw.exact
        assert abs(est_fast.value - est_raw.value) <= 1e-12

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


def _conditional_prob(a, b, rho, df):
    """``Pr(X > a, Y > b)`` for a standard bivariate t of correlation
    ``rho``: ``int_a^inf t_df(x) Pr(T_{df+1} > (b - rho x) sqrt((df + 1) /
    ((1 - rho^2) (df + x^2)))) dx`` (scipy quad, relative tolerance
    1e-13, with stdtr), on pieces at relative steps from ``a`` and from the
    kink at ``b / rho``, and beyond the last in ``u = top / x``.  The
    integrand is positive, so the far tail keeps its relative accuracy,
    which the normal orthant of ``_quadrature_prob`` (Owen's T) does not."""
    c = math.sqrt((1.0 - rho) * (1.0 + rho))
    # the gamma ratio by its series: a difference of gammaln values loses
    # about eps gammaln(df / 2), 1.4e-12 relative at df 5000
    log_norm = _log_gamma_ratio(0.5 * df) - 0.5 * math.log(df * math.pi)

    def f(x):
        z = (b - rho * x) * math.sqrt((df + 1.0) / (df + x * x)) / c
        return math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(x * x / df)) * stdtr(df + 1.0, -z)

    knots = [a] + ([b / rho] if rho > 0.0 and b / rho > a else [])
    edges = sorted({k + h * max(1.0, abs(k)) for k in knots for h in (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0)})
    top = edges[-1]
    pieces = [(f, lo, hi) for lo, hi in zip(edges, edges[1:])]
    pieces.append((lambda u: f(top / u) * top / (u * u), 0.0, 1.0))
    return sum(
        integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for g, lo, hi in pieces
    )


def _pair(a, b, rho, df):
    """``Pr(X > a, Y > b)`` for the standard bivariate t, by ``mvt_constraint_prob``."""
    d = MultivariateT(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]), df)
    return mvt_constraint_prob(d, np.eye(2), np.array([a, b]), 10_000, seed=1)


class TestAngularRule:
    """Rows of rank 2 off the location: the exact angular rule."""

    @pytest.mark.parametrize("df", [0.5, 1.0, 5.0, 17.0, 193.0, 996.0, 5000.0, 1e5])
    def test_pairs_against_quadrature(self, df):
        """Within 1e-10 relative of ``_conditional_prob`` over |rho| <= 0.95,
        bounds on either side of the location and far tails down to
        probabilities below 1e-30; and of ``_quadrature_prob`` where its
        normal orthant keeps its digits (above 1e-6)."""
        tails = {0.5: (10.0, 1e8, 1e30, 1e60), 1.0: (10.0, 1e3, 1e15, 1e30)}.get(
            df, (3.0, 10.0, 1e3, 1e7) if df < 100 else (3.0, 6.0, 8.0, 12.0)
        )
        cases = [
            (a, b, rho)
            for rho in (-0.95, -0.5, 0.0, 0.3, 0.95)
            for a, b in ((0.3, 0.5), (-1.0, 0.7), (2.0, -0.5), (-2.0, -3.0))
        ] + [(s, 0.8 * s, rho) for rho in (-0.6, 0.3, 0.9) for s in tails]
        smallest = 1.0
        for a, b, rho in cases:
            est = _pair(a, b, rho, df)
            assert est.exact and est.n_draws == 0
            want = _conditional_prob(a, b, rho, df)
            assert abs(est.value - want) <= 1e-10 * want, (a, b, rho)
            smallest = min(smallest, want)
            if want > 1e-6 and max(abs(a), abs(b)) <= 3.0:
                d = MultivariateT(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]), df)
                assert abs(est.value - _quadrature_prob(d, np.array([a, b]))) <= 1e-10 * want
        assert smallest < 1e-30

    @pytest.mark.parametrize("rho", [1.0 - 1e-8, -(1.0 - 1e-8)])
    def test_nearly_dependent_pair(self, rho):
        """|rho| = 1 - 1e-8 has residual variance 2e-8, above ``_DEPENDENT``:
        still rank 2, against the quadrature, and near the rank-1 interval
        of rho = +-1, which differs from it by about the residual sd."""
        for df in (1.0, 17.0):
            for a, b in ((0.3, 0.5), (-0.4, 0.2), (1.5, -1.0)):
                est = _pair(a, b, rho, df)
                want = _conditional_prob(a, b, rho, df)
                assert est.exact and abs(est.value - want) <= 1e-10 * max(want, 1e-3)
                step = _pair(a, b, math.copysign(1.0, rho), df)
                assert abs(est.value - step.value) <= 1e-3

    def test_dependent_rows_against_the_lattice(self):
        """Three and four rows of rank 2 off the location (a strip cut by a
        third row, a quadrilateral, a wedge with a redundant row) agree
        with the lattice at a budget of 2^22 within 4 SE."""
        d = MultivariateT(np.array([0.2, -0.1]), np.array([[1.0, 0.4], [0.4, 2.0]]), 5.0)
        systems = [
            (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.array([-0.5, -0.8, 0.3])),
            (np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]), np.array([-0.3, -0.4, -1.5, -1.0])),
            (np.array([[1.0, 1.0], [1.0, -1.0], [2.0, 0.0]]), np.array([0.4, 0.1, 0.2])),
        ]
        for R, r in systems:
            est = mvt_constraint_prob(d, R, r, 10_000, seed=1)
            assert est.exact and _factor(_correlation(R @ d.scale @ R.T))[0].shape[1] == 2
            ref = _lattice_only(d, R, r, 1 << 22, seed=2)
            assert not ref.exact and abs(est.value - ref.value) < 4 * ref.std_error

    def test_centred_cone_of_four_rows_is_its_arc(self):
        """Four rows through the location of a law of identity scale, at
        angles 0, 0.3, 0.5 and 1: the cone is the arc of directions within
        pi/2 of all four, pi - 1 of 2 pi, whatever the df."""
        phi = np.array([0.0, 0.3, 0.5, 1.0])
        R = np.column_stack([np.cos(phi), np.sin(phi)])
        for df in (1.0, 9.0):
            d = MultivariateT(np.array([1.0, -2.0]), np.eye(2), df)
            est = mvt_constraint_prob(d, R, R @ d.location, 10_000, seed=1)
            assert est.exact and abs(est.value - (np.pi - 1.0) / (2.0 * np.pi)) <= 1e-15


def _smallest_residual_variance(C):
    """The smallest variance of a row of ``C`` given all the others."""
    return 1.0 / np.linalg.inv(C).diagonal().max()


def _edge_correlation(rng, q, factor):
    """A random correlation of ``q`` rows whose smallest residual variance
    is ``factor`` times ``_PLACKETT_MIN_VAR``: ``(1 - s) I + s C0`` for a
    nearly singular ``C0`` of rows of rank ``q - 1`` (centred ones, whose
    correlations are negative, half the time), ``s`` found by bisection."""
    G = rng.standard_normal((q, q - 1))
    if rng.random() < 0.5:
        G -= G.mean(axis=0)
    C0 = _correlation(G @ G.T + 1e-9 * np.eye(q))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        C = (1.0 - s) * np.eye(q) + s * C0
        if _smallest_residual_variance(C) >= factor * numkernel._PLACKETT_MIN_VAR:
            lo = s
        else:
            hi = s
    return (1.0 - lo) * np.eye(q) + lo * C0


def _orthant_at_nodes(n, C):
    """``_centred_orthant_prob(C)`` with ``n`` nodes in Plackett's rule."""
    nodes = numkernel._PLACKETT_NODES
    try:
        numkernel._PLACKETT_NODES = n
        numkernel._plackett_rule.cache_clear()
        return numkernel._centred_orthant_prob(C)
    finally:
        numkernel._PLACKETT_NODES = nodes
        numkernel._plackett_rule.cache_clear()


def _accepted_cone(rng, q, df):
    """A random law of dimension ``q + 3`` and ``q`` random rows through its
    location whose correlation passes the cut-over of Plackett's rule."""
    while True:
        d = _random_law(rng, q + 3, df)
        R = rng.standard_normal((q, q + 3))
        C = _correlation(R @ d.scale @ R.T)
        if _smallest_residual_variance(C) >= numkernel._PLACKETT_MIN_VAR:
            return d, R, R @ d.location


def _centred_path(C):
    """``_path`` of the cone ``Y > 0`` for a centred ``Y`` of correlation ``C``."""
    q = C.shape[0]
    return _path(MultivariateT(np.zeros(q), C, 5.0), np.eye(q), np.zeros(q))


class TestPlackett:
    """Centred cones of 4 and 5 rows of full rank: Plackett's reduction to
    a 1-d integral of the closed forms of 2 and 3 rows."""

    @pytest.mark.parametrize("q", [4, 5])
    def test_against_a_rule_of_1024_nodes(self, q):
        """Within 1e-12 relative of the same reduction at 1024 nodes over
        random correlations: 30 of random rows and 30 on the edge of the
        cut-over, their smallest residual variance 1.001 times
        ``_PLACKETT_MIN_VAR``, where the rule is least accurate.  Each is
        exact on ``_path``; the same edges at 0.999 times the cut-over go
        to the lattice."""
        rng = np.random.default_rng(460 + q)
        cones = []
        while len(cones) < 30:
            s = rng.standard_normal((q, q + 2))
            C = _correlation(s @ s.T)
            if _smallest_residual_variance(C) >= numkernel._PLACKETT_MIN_VAR:
                cones.append(C)
        cones += [_edge_correlation(rng, q, 1.001) for _ in range(30)]
        for C in cones:
            est = _centred_path(C)
            assert isinstance(est, ProbEstimate) and est.exact
            assert abs(est.value - _orthant_at_nodes(1024, C)) <= 1e-12 * est.value
        for _ in range(5):
            assert isinstance(_centred_path(_edge_correlation(rng, q, 0.999)), numkernel._Lattice)

    def test_order_chains(self):
        """``x1 > ... > x6`` (5 rows) and ``x1 > ... > x5`` (4 rows) through
        the location of an exchangeable law: 1/720 and 1/120."""
        for k, want in ((6, 1.0 / 720.0), (5, 1.0 / 120.0)):
            d = MultivariateT(np.arange(k, dtype=float), np.eye(k) + 0.5, 3.0)
            chain = np.eye(k)[:-1] - np.eye(k)[1:]
            est = mvt_constraint_prob(d, chain, chain @ d.location, 1_000_000, seed=1)
            assert est.exact and est.std_error == 0.0 and est.n_draws == 0
            assert abs(est.value - want) <= 1e-12 * want

    def test_row_order_and_reflection(self):
        """Permuting the rows, or negating every row and bound (the cone
        reflected through its apex), leaves the probability within 1e-12
        relative."""
        rng = np.random.default_rng(470)
        for k in range(12):
            d, R, r = _accepted_cone(rng, 4 + k % 2, 5.0)
            est = mvt_constraint_prob(d, R, r, 1000, seed=1)
            others = [(R[p], r[p]) for p in (rng.permutation(len(R)) for _ in range(6))]
            for R2, r2 in [(R, r), *others, (-R, -r)]:
                other = mvt_constraint_prob(d, R2, r2, 1000, seed=1)
                assert other.exact and abs(other.value - est.value) <= 1e-12 * est.value

    @pytest.mark.parametrize("sizes", [(2, 2), (2, 3)])
    def test_independent_blocks_multiply(self, sizes):
        """A block-diagonal correlation, its rows interleaved, has the
        product of the blocks' orthant probabilities: Sheppard's ``1/4 +
        asin(rho) / (2 pi)`` and Plackett's ``1/8 + sum asin(rho_ij) / (4
        pi)``, to 1e-12 relative."""
        rng = np.random.default_rng(480 + sum(sizes))
        q, checked = sum(sizes), 0
        for _ in range(8):
            blocks = [_correlation(s @ s.T) for s in (rng.standard_normal((m, m + 1)) for m in sizes)]
            want = 1.0
            for B in blocks:
                m = B.shape[0]
                angles = sum(np.arcsin(B[i, j]) for i in range(m) for j in range(i + 1, m))
                want *= 0.5**m + angles / (2 ** (m - 1) * np.pi)
            C = np.zeros((q, q))
            C[:2, :2], C[2:, 2:] = blocks
            p = rng.permutation(q)
            C = C[np.ix_(p, p)]
            if _smallest_residual_variance(C) < numkernel._PLACKETT_MIN_VAR:
                continue
            est = _centred_path(C)
            assert est.exact and abs(est.value - want) <= 1e-12 * want
            checked += 1
        assert checked >= 5

    def test_does_not_depend_on_df(self):
        """The same cone at df 1, 5 and 60 gives the same bits."""
        d, R, r = _accepted_cone(np.random.default_rng(490), 5, 1.0)
        ests = [
            mvt_constraint_prob(MultivariateT(d.location, d.scale, df), R, r, 1000, 1)
            for df in (1.0, 5.0, 60.0)
        ]
        assert ests[0].exact and len({e.value.hex() for e in ests}) == 1

    @pytest.mark.parametrize("q", [4, 5])
    def test_against_the_lattice(self, q):
        """Within 4 SE of the lattice at 2^20 points on two random laws."""
        rng = np.random.default_rng(500 + q)
        for k in range(2):
            d, R, r = _accepted_cone(rng, q, 4.0)
            est = mvt_constraint_prob(d, R, r, 1000, seed=1)
            assert est.exact
            *_, ref = numkernel._lattice_prob(*_lattice_args(d, R, r), d.df, 501 + k, 1 << 20)
            assert ref.n_draws == 1 << 20 and abs(est.value - ref.value) < 4 * ref.std_error

    def test_what_stays_on_the_lattice(self):
        """Centred cones of rank 3 with 4 rows, and of 6 rows, take the
        lattice."""
        d = _random_law(np.random.default_rng(510), 6, 5.0)
        rank3 = np.array([[1, 0, -1, 0], [1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 0, -1]], dtype=float)
        R4 = np.column_stack([rank3, np.zeros((4, 2))])
        R6 = np.eye(6)
        for R in (R4, R6):
            assert isinstance(_path(d, R, R @ d.location), numkernel._Lattice)


def _conditional_prob3(a, C, df):
    """``Pr(Y > a)`` for a standardised trivariate t ``Y`` of correlation
    ``C``: ``int_{a_0}^inf t_df(y) P_2(y) dy`` (scipy quad, relative
    tolerance 1e-13), where given ``Y_0 = y`` the other two rows are a
    bivariate t with ``df + 1`` degrees of freedom, location ``rho y``
    (``rho = C[1:, 0]``) and scale ``(C_22 - rho rho') (df + y^2) / (df +
    1)``.  The pair's probability ``P_2`` is the angular rule's, but
    ``_conditional_prob``'s where a standardised conditional bound is within
    0.05 of 0: there the angular rule reads up to 1e-6 relative off.  The
    pieces start at relative steps from ``a_0`` and from each ``a_k /
    rho_k``, where a conditional bound crosses 0, and the last runs in ``u
    = top / y``.  The density's gamma ratio is taken by its series, as in
    ``_conditional_prob``."""
    rho = C[1:, 0]
    S = C[1:, 1:] - np.outer(rho, rho)
    sd, r = np.sqrt(np.diag(S)), S[0, 1] / math.sqrt(S[0, 0] * S[1, 1])
    pair = MultivariateT(np.zeros(2), np.array([[1.0, r], [r, 1.0]]), df + 1.0)
    log_norm = _log_gamma_ratio(0.5 * df) - 0.5 * math.log(df * math.pi)

    def f(y):
        b = (a[1:] - rho * y) / (sd * math.sqrt((df + y * y) / (df + 1.0)))
        if np.abs(b).min() < 0.05:
            p = _conditional_prob(b[0], b[1], r, df + 1.0)
        else:
            p = mvt_constraint_prob(pair, np.eye(2), b, 10, seed=1).value
        return math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(y * y / df)) * p

    knots = [a[0]] + [a[k] / rho[k - 1] for k in (1, 2) if rho[k - 1] and a[k] / rho[k - 1] > a[0]]
    steps = (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0)
    edges = sorted({k + h * max(1.0, abs(k)) for k in knots for h in steps})
    top = edges[-1]
    pieces = [(f, lo, hi) for lo, hi in zip(edges, edges[1:])]
    pieces.append((lambda u: f(top / u) * top / (u * u), 0.0, 1.0))
    return math.fsum(
        integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for g, lo, hi in pieces
    )


def _standard_law_path(a, C, df):
    """``_path`` of ``Y > a`` for a standardised ``Y`` of correlation ``C``."""
    return _path(MultivariateT(np.zeros(len(a)), C, df), np.eye(len(a)), np.asarray(a, dtype=float))


class TestTrivariateRule:
    """Three rows of rank 3 off the location: Plackett's identity along a
    correlation path, each derivative's mean over the radial law in closed
    form (``_trivariate_prob``), behind its gates of df, conditioning and
    cancellation, and after rows that hold to rounding are dropped."""

    @pytest.mark.parametrize("df", [30.0, 193.0, 996.0])
    def test_against_the_conditional_pair(self, df):
        """Within 1e-12 relative of ``_conditional_prob3`` wherever the
        rule is taken: random correlations with every ``|rho| <= 0.95``
        and bounds around the location, and far tails down to 1e-30 (three
        positively correlated rows far beyond it).  At the cut-over, df 30,
        and above."""
        rng = np.random.default_rng(560 + int(df))
        cases = []
        for _ in range(40):
            s = rng.standard_normal((3, 4))
            C = _correlation(s @ s.T)
            a = np.sort(1.5 * rng.standard_normal(3))[::-1]
            taken = isinstance(_standard_law_path(a, C, df), ProbEstimate)
            if taken and np.abs(C[np.triu_indices(3, 1)]).max() <= 0.95:
                cases.append((a, C))
                if len(cases) == 6:
                    break
        far = {30.0: 40.0, 193.0: 12.0, 996.0: 10.0}[df]
        for shift in (0.5 * far, far):
            s = np.abs(rng.standard_normal((3, 2)))
            C = _correlation(s @ s.T + np.eye(3))
            cases.append((np.sort(shift + 0.3 * rng.standard_normal(3))[::-1], C))
        smallest = 1.0
        for a, C in cases:
            est = _standard_law_path(a, C, df)
            want = _conditional_prob3(a, C, df)
            assert isinstance(est, ProbEstimate) and est.exact, (a, C)
            assert abs(est.value - want) <= 1e-12 * want, (a, C)
            smallest = min(smallest, want)
        assert len(cases) == 8 and smallest < 1e-30

    def test_row_order(self):
        """Every order of the rows, and every order of a law's coordinates,
        gives the same probability to 1e-13 relative."""
        rng = np.random.default_rng(570)
        checked = 0
        for _ in range(8):
            d = _random_law(rng, 3, 193.0)
            r = d.location + 0.8 * np.sqrt(np.diag(d.scale)) * rng.standard_normal(3)
            est = mvt_constraint_prob(d, np.eye(3), r, 1000, seed=1)
            if not est.exact:
                continue
            checked += 1
            for perm in itertools.permutations(range(3)):
                other = mvt_constraint_prob(d, np.eye(3)[list(perm)], r[list(perm)], 1000, seed=1)
                assert other.exact and abs(other.value - est.value) <= 1e-13 * est.value
        assert checked >= 4

    def test_a_row_that_holds_to_rounding_is_dropped(self, monkeypatch):
        """A row whose t tail is at most eps/4 of the other two rows'
        probability is dropped: the pair takes the angular rule, not the
        trivariate one, and the value is within 1e-12 of the three rows'
        ``_conditional_prob3``, and the pair's to the bit.  A row whose
        tail is just above that stays."""
        called = []
        rule = numkernel._trivariate_prob
        monkeypatch.setattr(numkernel, "_trivariate_prob", lambda *args: called.append(1) or rule(*args))
        C = np.array([[1.0, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 1.0]])
        for df, low in ((996.0, -11.0), (193.0, -14.0)):
            a = np.array([1.2, 0.4, low])
            est = _standard_law_path(a, C, df)
            pair = _standard_law_path(a[:2], C[:2, :2], df)
            assert not called and est == pair
            assert t_cdf(low, df) <= 0.25 * np.finfo(float).eps * pair.value
            want = _conditional_prob3(a, C, df)
            assert abs(est.value - want) <= 1e-12 * want
        a = np.array([1.2, 0.4, -6.0])
        est = _standard_law_path(a, C, 996.0)
        assert called and est.exact
        assert abs(est.value - _conditional_prob3(a, C, 996.0)) <= 1e-12 * est.value

    def test_sim_study_chain(self):
        """The benchmark's sim-study at seed 7001, operation 419 (dataset
        19, rebuilt with numpy as the workload builds it): H1's f_ie,
        ``x1>x2>x3>0`` off the location at df 996, takes the trivariate
        rule and is within 1e-12 relative of ``_conditional_prob3``; every
        estimate of the operation is exact."""
        rng = np.random.default_rng(7001)
        for _ in range(20):
            x = rng.standard_normal((1000, 3))
            y = x @ np.array([0.45, 0.30, 0.15]) + rng.standard_normal(1000)
        fit = fit_ols(Dataset(("y", "x1", "x2", "x3"), np.column_stack([y, x])), "y ~ x1 + x2 + x3")
        res = run_hypotheses(fit, "x1>x2>x3>0; x3>x2>x1>0", mcrep=20_000, seed=1)
        for comp in res.components:
            assert comp.f_ie.exact and comp.c_ie.exact and comp.f_ie.n_draws == 0
        cs = parse_hypotheses("x1>x2>x3>0", fit.coef_names)[0]
        post = fractional_posterior_beta(fit, 1.0)
        want = _conditional_prob3(*_standardised(post, cs.R_I, cs.r_I), post.df)
        f = res.components[0].f_ie.value
        assert abs(f - want) <= 1e-12 * want and abs(f - 0.949192) < 1e-6

    def test_each_side_of_the_gates(self):
        """Which path each system takes on either side of the gates: the
        df cut-over (30 exact, 29.5 the lattice), the cut-over of
        ``_PLACKETT_MIN_VAR`` (an edge correlation at 1.001 and 0.999 of
        it) and the cancellation gate (an exchangeable correlation of
        -0.3 whose parts add up to 57 and 72 times the sum)."""
        lattice = numkernel._Lattice
        C = np.full((3, 3), -0.3) + 1.3 * np.eye(3)
        below, beyond = np.array([0.95, 0.85, 0.75]), np.array([1.0, 0.9, 0.8])
        est = _standard_law_path(below, C, 193.0)
        assert est.exact and abs(est.value - _conditional_prob3(below, C, 193.0)) <= 1e-12 * est.value
        assert isinstance(_standard_law_path(beyond, C, 193.0), lattice)
        assert _standard_law_path(below, C, numkernel._TRIVARIATE_MIN_DF).exact
        assert isinstance(_standard_law_path(below, C, 29.5), lattice)
        rng = np.random.default_rng(580)
        a = np.array([0.3, 0.0, -0.3])
        for _ in range(3):
            edge = _edge_correlation(rng, 3, 1.001)
            est = _standard_law_path(a, edge, 193.0)
            assert est.exact and abs(est.value - _conditional_prob3(a, edge, 193.0)) <= 1e-12 * est.value
            assert isinstance(_standard_law_path(a, _edge_correlation(rng, 3, 0.999), 193.0), lattice)


class TestHalfSpaceBound:
    """``_half_space_bound``: an upper bound on ``Pr(Y > a)`` from one
    half-space that holds the region, which lets a complement leave a
    far-tail term unsampled."""

    @pytest.mark.parametrize("df", [0.5, 1.0, 5.0, 17.0, 193.0, 996.0])
    def test_above_the_angular_rule(self, df):
        """At or above the exact rank-2 probability of ``_angular_prob``
        over |rho| <= 0.95, bounds on either side of the location and far
        tails down to probabilities below 1e-30, and below the tail of the
        largest single bound times 1.01: the ascent finds a half-space at
        least that far."""
        tails = {0.5: (10.0, 1e8, 1e30, 1e60), 1.0: (10.0, 1e3, 1e15, 1e30)}.get(
            df, (3.0, 10.0, 1e3, 1e7) if df < 100 else (3.0, 6.0, 8.0, 12.0)
        )
        cases = [
            (a, b, rho)
            for rho in (-0.95, -0.5, 0.0, 0.3, 0.95)
            for a, b in ((0.3, 0.5), (-1.0, 0.7), (2.0, -0.5), (-2.0, -3.0))
        ] + [(s, 0.8 * s, rho) for rho in (-0.6, 0.3, 0.9) for s in tails]
        smallest = 1.0
        for a, b, rho in cases:
            C = np.array([[1.0, rho], [rho, 1.0]])
            bounds = np.array([a, b])
            exact = numkernel._angular_prob(bounds, _factor(C)[0], df)
            bound = numkernel._half_space_bound(bounds, C, df)
            assert exact <= bound <= 1.0, (a, b, rho)
            if max(a, b) > 0.0:
                assert bound <= 1.01 * t_cdf(-max(a, b), df), (a, b, rho)
            smallest = min(smallest, exact)
        assert smallest < 1e-30

    @pytest.mark.parametrize("df", [1.0, 5.0, 60.0])
    def test_above_the_lattice_on_rank_three(self, df):
        """At or above ``P - 4 SE`` of the lattice at 2^22 points on
        systems of rank 3 off the location: an orthant with one far bound,
        a chain with an orthant (five rows), and a tetrahedron-like cone
        of four rows.  The orthant at df 60 takes the trivariate rule in
        ``_path``, so every system goes to the lattice directly."""
        rng = np.random.default_rng(370 + int(df))
        d = _random_law(rng, 3, df)
        sd = np.sqrt(np.diag(d.scale))
        chain = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        systems = [
            (np.eye(3), d.location + sd * np.array([2.5, -0.3, 0.2])),
            (np.vstack([chain, np.eye(3)]), None),
            (np.vstack([np.eye(3), [[1.0, 1.0, 1.0]]]), None),
        ]
        for k, (R, r) in enumerate(systems):
            if r is None:  # every row off the location by 1.5 of its sd
                r = R @ d.location + 1.5 * np.sqrt(np.diag(R @ d.scale @ R.T))
            a, C = _standardised(d, R, r)
            bound = numkernel._half_space_bound(a, C, df)
            ref = _refined(numkernel._lattice_prob(a, *_factor(C), df, 371 + k, 1 << 22), 1 << 22)
            assert ref.value > 0.0 and ref.value - 4.0 * ref.std_error <= bound <= 1.0

    def test_one_when_the_location_satisfies_every_row(self):
        rng = np.random.default_rng(380)
        C = _correlation(_random_law(rng, 4, 5.0).scale)
        for a in (np.zeros(4), -np.abs(rng.standard_normal(4)), np.array([-1.0, -0.0, -2.0, -1e-300])):
            assert numkernel._half_space_bound(a, C, 5.0) == 1.0

    def test_never_nan_on_singular_or_empty_regions(self):
        """Rows of rank 2 in three (a sum of two), an empty triangle, a
        row and its opposite that share no point, and equal rows: a
        probability in [0, 1] each time, 1 where ``lam' C lam`` vanishes."""
        h = math.sqrt(0.5)
        sum_rows = np.array([[1.0, 0.0, h], [0.0, 1.0, h], [h, h, 1.0]])
        flip = np.diag([1.0, 1.0, -1.0])  # the third row negated: x1 + x2 bounded above
        cases = [
            (np.array([1.0, 1.0, 3.0]), sum_rows),
            (np.array([1.0, 1.0, -0.5]), flip @ sum_rows @ flip),
            (np.array([1.0, -0.5]), np.array([[1.0, -1.0], [-1.0, 1.0]])),
            (np.array([2.0, 3.0, 1e300]), np.ones((3, 3))),
        ]
        for df in (1.0, 60.0):
            for a, C in cases:
                bound = numkernel._half_space_bound(a, C, df)
                assert 0.0 <= bound <= 1.0
        assert numkernel._half_space_bound(*cases[2], 1.0) == 1.0


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
        see it.  Two rows take the exact angular rule in
        ``mvt_constraint_prob``, and three at df 193 the trivariate rule,
        so here every system goes to the lattice directly, with its stop
        rule.  The shift spread understates the error a little
        (about 6.5% of errors pass two standard errors, against 5% for
        Student's t with 63 df), so the share is pooled over every df.
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
                    est = _lattice_only(d, np.eye(q), r_vec, 20_000, seed)
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

    def test_prob_estimate_rejects_a_negative_standard_error(self):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            ProbEstimate(0.5, -1e-3, False, 0)

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
        assert np.array_equal(MultivariateT(2.0, 1.0, 3.0).relocate(5).location, [5.0])

    @pytest.mark.parametrize(
        "location", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [np.nan, 0.0], [0.0, -np.inf]]
    )
    def test_relocate_checks_the_new_location(self, location):
        """A location the constructor rejects, relocate rejects too."""
        d = MultivariateT(np.zeros(2), np.eye(2), 3.0)
        with pytest.raises(InvalidInputError):
            MultivariateT(location, d.scale, d.df)
        with pytest.raises(InvalidInputError):
            d.relocate(location)


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


def _correlation(S):
    sd = np.sqrt(np.diag(S))
    return S / np.outer(sd, sd)


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
        est = _refined(_blocks(_path(d, R, r), 201, 1_000_000), 1_000_000)
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
        est = _refined(_blocks(_path(d, R, r), 211, 1_000_000), 1_000_000)
        assert not est.exact and est.value > 0
        ref = oracle_inequality_prob(d, R, r, 400_000, seed=212, rel_se=0.05)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se
        # exchangeable and centred: one order of six, with at least three
        # of the six signs positive, (42 / 64) / 720
        iid = MultivariateT(np.zeros(6), np.eye(6), df)
        est = _refined(_blocks(_path(iid, R, r), 213, 1_000_000), 1_000_000)
        assert abs(est.value - 42 / 64 / 720) < 4 * est.std_error

    @pytest.mark.parametrize("df", [3.0, 60.0])
    def test_triangle(self, df):
        """``x1 > 0, x2 > 0, x1 + x2 < 0.3``: a bounded region, not a cone,
        exact by the angular rule; and the tetrahedron ``x1, x2, x3 > 0,
        x1 + x2 + x3 < 0.3``, four rows of rank 3, on the lattice."""
        d = MultivariateT(np.array([0.1, 0.05]), np.array([[0.04, 0.01], [0.01, 0.02]]), df)
        R = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        r = np.array([0.0, 0.0, -0.3])
        est = _refined(_blocks(_path(d, R, r), 221, 1_000_000), 1_000_000)
        assert est.exact and est.value > 0
        ref = oracle_inequality_prob(d, R, r, 400_000, seed=222)
        assert abs(est.value - ref.value) < 4 * ref.value * ref.rel_error_bound
        scale = np.array([[0.04, 0.01, 0.0], [0.01, 0.02, 0.005], [0.0, 0.005, 0.03]])
        d = MultivariateT(np.array([0.1, 0.05, 0.08]), scale, df)
        R = np.vstack([np.eye(3), -np.ones(3)])
        r = np.array([0.0, 0.0, 0.0, -0.3])
        est = _refined(_blocks(_path(d, R, r), 223, 1_000_000), 1_000_000)
        assert not est.exact and est.value > 0
        ref = oracle_inequality_prob(d, R, r, 400_000, seed=224)
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
        est = next(_blocks(_path(d, R, r), 231, 1_000_000))
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
            est = next(_blocks(_path(d, R, r), 241, 1_000_000))
            assert est.value == 0.0 and not est.exact and est.n_draws == 1024

    def test_full_rank_rows_keep_the_cholesky_path(self):
        """A dependent row appended to four independent ones sends the
        factor down its pivoting branch, which gives the Cholesky factor of
        the four and bounds the last column its coefficients reach."""
        rng = np.random.default_rng(250)
        d = _random_law(rng, 5, 4.0)
        R = np.vstack([np.eye(5)[:4], [1.0, -2.0, 0.5, 0.0, 0.0]])
        C = _correlation(R @ d.scale @ R.T)
        L, col = _factor(C)
        assert L.shape == (5, 4) and col.tolist() == [0, 1, 2, 3, 2]
        assert np.abs(L[:4] - np.linalg.cholesky(C[:4, :4])).max() <= 1e-12
        assert np.abs(L @ L.T - C).max() <= 1e-12
        full, col = _factor(C[:4, :4])
        assert np.array_equal(full, np.linalg.cholesky(C[:4, :4]))
        assert col.tolist() == [0, 1, 2, 3]


def _standardised(dist, R, r):
    """The standardised bounds and correlation of ``R xi > r`` as ``_path``
    takes them: rows sorted by bound, largest first."""
    S = R @ dist.scale @ R.T
    sd = np.sqrt(np.diag(S))
    a = (r - R @ dist.location) / sd
    order = np.argsort(-a, kind="stable")
    return a[order], S[np.ix_(order, order)] / np.outer(sd[order], sd[order])


def _lattice_args(dist, R, r):
    """The standardised bounds, factor and columns of ``R xi > r`` that
    ``_path`` leaves to the lattice: rows sorted by bound, largest
    first."""
    a, C = _standardised(dist, R, r)
    return (a, *_factor(C))


def _lattice_only(dist, R, r, cap, seed):
    """``Pr(R xi > r)`` by the lattice rule whatever its rank, with the
    stop rule of ``mvt_constraint_prob``."""
    return _refined(numkernel._lattice_prob(*_lattice_args(dist, R, r), dist.df, seed, cap), cap)


def _bits(blocks):
    return [(e.value.hex(), e.std_error.hex(), e.exact, e.n_draws) for e in blocks]


class TestLatticeReference:
    """The in-place lattice integrand gives the bits of the reference that
    reads as the formula (``oracle.reference_lattice_prob``): every block's
    value, standard error and point count."""

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("centred", [False, True])
    def test_chains(self, rank, centred):
        rng = np.random.default_rng(400 + rank)
        d = _random_law(rng, rank + 1, 4.0)
        R = np.eye(rank + 1)[:-1] - np.eye(rank + 1)[1:]
        r = R @ d.location + (0.0 if centred else 0.4 * rng.standard_normal(rank))
        a, L, col = _lattice_args(d, R, r)
        assert L.shape[1] == rank and (not a.any()) == centred
        args = (a, L, col, d.df, 401, 1 << 15)
        assert _bits(numkernel._lattice_prob(*args)) == _bits(reference_lattice_prob(*args))

    @pytest.mark.parametrize("centred", [False, True])
    @pytest.mark.parametrize("df", [1.0, 7.0])
    def test_columns_bounded_from_both_sides(self, centred, df):
        """Dependent rows bound columns from below and above, several of
        each on one column."""
        rng = np.random.default_rng(410 + int(df))
        d = _random_law(rng, 3, df)
        e = np.eye(3)
        R = np.array(
            [e[0], e[1], e[2], e[0] + e[1], -e[0] - e[1], 2 * e[0] + 2 * e[1], -e[0], e[1] - e[2]]
        )
        r = R @ d.location + (0.0 if centred else -0.3 - 0.5 * rng.random(len(R)))
        a, L, col = _lattice_args(d, R, r)
        low = L[np.arange(len(R)), col] > 0
        assert L.shape[1] == 3 and (~low).sum() >= 2
        assert any((col == j).sum() >= 3 and 0 < j for j in range(3))
        args = (a, L, col, d.df, 411, 1 << 14)
        assert _bits(numkernel._lattice_prob(*args)) == _bits(reference_lattice_prob(*args))

    @pytest.mark.parametrize(
        "centred, cap",
        [*itertools.product([False, True], [1, 8, 63]), (False, 64), (False, 100), (False, 127)],
    )
    def test_caps_below_one_point_per_shift(self, centred, cap):
        """Caps of at most one point per shift give one block.  Caps of 64
        to 127 are taken at df 1 off the apex, where some shifts have only
        points of weight 0: the pooled ratio stays finite."""
        df = 1.0 if cap >= numkernel._SHIFTS else 3.0
        rng = np.random.default_rng(420 + cap)
        d = _random_law(rng, 4, df)
        R = np.eye(4)[:-1] - np.eye(4)[1:]
        r = R @ d.location + (0.0 if centred else 0.4 * rng.standard_normal(3))
        args = (*_lattice_args(d, R, r), d.df, 421, cap)
        blocks = list(numkernel._lattice_prob(*args))
        assert len(blocks) == 1 and math.isfinite(blocks[0].value)
        assert _bits(blocks) == _bits(reference_lattice_prob(*args))

    @pytest.mark.parametrize("df", [0.2, 1.0, 5.0, 940.0])
    def test_radial_map(self, df):
        """The radial factor and weight, with points of ``b <= 0`` (weight
        0) at df 0.2 and 1, and the input left as it was."""
        u = np.random.default_rng(440).random((64, 64))
        u[0, :2] = [0.0, 1.0]
        before = u.copy()
        got, want = _radial(u, df), reference_radial(u, df)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(u, before)

    def test_blocks_of_two_chunks(self):
        """Past ``_CHUNK // _SHIFTS`` points per shift a block is summed in
        chunks."""
        rng = np.random.default_rng(430)
        d = _random_law(rng, 3, 5.0)
        R = np.eye(3)[:-1] - np.eye(3)[1:]
        args = (*_lattice_args(d, R, R @ d.location + 0.3), d.df, 431, 1 << 20)
        blocks = _bits(numkernel._lattice_prob(*args))
        assert blocks[-1][3] // numkernel._SHIFTS == 4 * (numkernel._CHUNK // numkernel._SHIFTS)
        assert blocks == _bits(reference_lattice_prob(*args))


class TestPooledRatio:
    """The one lattice statistic: ``sum omega prod e_j / sum omega`` over
    every point, with the delta-method standard error over the shifts."""

    def test_all_weights_zero_is_a_half(self):
        est = numkernel._pooled_ratio(np.zeros(64), np.zeros(64), 64)
        assert (est.value, est.std_error, est.exact, est.n_draws) == (0.5, 0.0, False, 64)

    def test_one_point_shows_no_spread(self):
        est = numkernel._pooled_ratio(np.array([0.3]), np.array([0.8]), 1)
        assert est.value == pytest.approx(0.375, rel=1e-15)
        assert est.std_error == 0.0 and est.n_draws == 1

    def test_equal_weights_give_the_shift_means(self):
        """With every weight ``n`` the ratio is the mean of the shift means
        and its standard error their standard deviation over ``sqrt(k)``."""
        means = np.random.default_rng(450).random(64)
        est = numkernel._pooled_ratio(16.0 * means, np.full(64, 16.0), 1024)
        assert est.value == pytest.approx(means.mean(), rel=1e-14)
        assert est.std_error == pytest.approx(means.std(ddof=1) / 8.0, rel=1e-12)
        assert est.n_draws == 1024

    def test_ratio_of_sums_with_a_weightless_shift(self):
        """A shift whose weights are all 0 adds nothing to either sum: the
        ratio is 1.1 / 2, the residuals ``sums - p weights`` are -0.075, 0
        and 0.075, and the standard error ``sqrt(0.01125 / 6) * 3 / 2``."""
        sums, weights = np.array([0.2, 0.0, 0.9]), np.array([0.5, 0.0, 1.5])
        est = numkernel._pooled_ratio(sums, weights, 3)
        assert est.value == pytest.approx(0.55, rel=1e-15)
        assert est.std_error == pytest.approx(0.06495190528383290, rel=1e-12)


class TestRankRule:
    """One factor decides the rank of every multi-row estimate (``_factor``)."""

    @pytest.mark.parametrize("df", [1.0, 7.0])
    def test_centred_rank_deficient_cones_are_exact(self, df):
        """``x1 > x2 > 0 < x1``: three rows of rank 2 through the location
        have the closed form of their two independent rows; a parallel pair
        is 1/2 and an antiparallel pair 0."""
        rng = np.random.default_rng(260 + int(df))
        d = _random_law(rng, 3, df)
        R = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        est = mvt_constraint_prob(d, R, R @ d.location, 10_000, 261)
        pair = mvt_constraint_prob(d, R[:2], R[:2] @ d.location, 10_000, 261)
        assert est.exact and pair.exact and est.n_draws == 0
        assert abs(est.value - pair.value) <= 1e-12
        rho = _correlation(R[:2] @ d.scale @ R[:2].T)[0, 1]
        assert abs(pair.value - (0.25 + np.arcsin(rho) / (2 * np.pi))) <= 1e-15
        row = rng.standard_normal(3)
        for R, want in ((np.vstack([row, 2.0 * row]), 0.5), (np.vstack([row, -row]), 0.0)):
            est = mvt_constraint_prob(d, R, R @ d.location, 10_000, 262)
            assert est.exact and est.value == want

    @pytest.mark.parametrize("centred", [False, True])
    def test_near_dependent_rows_against_sampling(self, centred):
        """A row 1e-7 off the span of two others has full rank by SVD but a
        residual variance below ``_DEPENDENT``: it shares their column, and
        the three rows of rank 2 are exact (the angular rule off the
        location)."""
        rng = np.random.default_rng(270 + centred)
        d = _random_law(rng, 4, 5.0)
        R = np.array(
            [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, -1.0, 0.0], [1.0, 1.0, -1.0, 1e-7]]
        )
        assert np.linalg.matrix_rank(R) == 3
        C = _correlation(R @ d.scale @ R.T)
        assert C[2, 2] - C[2, :2] @ np.linalg.solve(C[:2, :2], C[:2, 2]) < 1e-10
        assert _factor(C)[0].shape[1] == 2
        r = R @ d.location + (0.0 if centred else 0.3 * rng.standard_normal(3))
        est = mvt_constraint_prob(d, R, r, 1_000_000, 271)
        assert est.exact
        ref = oracle_inequality_prob(d, R, r, 400_000, seed=272)
        se = np.hypot(est.std_error, ref.value * ref.rel_error_bound)
        assert abs(est.value - ref.value) < 4 * se

    @pytest.mark.parametrize("df", [1.0, 4.0])
    def test_semidefinite_scale_gives_the_exact_interval(self, df):
        """Scale ``[[1, 1], [1, 1]]``: both coordinates are ``mu + T`` for
        one t variable ``T``, so ``x1 > 0, x2 > 0`` is ``T > 0.2``."""
        d = MultivariateT(np.array([0.3, -0.2]), np.ones((2, 2)), df)
        est = mvt_constraint_prob(d, np.eye(2), np.zeros(2), 10_000, 280)
        assert est.exact and est.value == t_cdf(-0.2, df)

    @pytest.mark.parametrize(
        "scale",
        [
            [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]],
            [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
        ],
        ids=["negative-residual", "dependent-row-mismatch"],
    )
    @pytest.mark.parametrize("rows", ["independent", "dependent"])
    @pytest.mark.parametrize("centred", [False, True])
    def test_indefinite_scale_raises(self, scale, rows, centred):
        d = MultivariateT(np.zeros(3), np.array(scale), 3.0)
        R = np.eye(3) if rows == "independent" else np.vstack([np.eye(3), [1.0, 1.0, 0.0]])
        r = np.zeros(len(R)) if centred else -0.1 * np.arange(1, len(R) + 1)
        with pytest.raises(DecompositionError, match="semidefinite"):
            mvt_constraint_prob(d, R, r, 10_000, 290)

    @pytest.mark.parametrize("extra", [False, True])
    def test_negative_row_variance_raises(self, extra):
        """A row along the eigenvector of eigenvalue -0.8 has variance -0.8:
        alone, and with ``x1 > 0``, it raises, before any square root of a
        negative variance warns."""
        scale = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        d = MultivariateT(np.zeros(3), scale, 3.0)
        row = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)
        assert row @ d.scale @ row == pytest.approx(-0.8)
        R = np.vstack([row, [1.0, 0.0, 0.0]]) if extra else row[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecompositionError, match="semidefinite"):
                mvt_constraint_prob(d, R, -0.1 * np.ones(len(R)), 10_000, 291)

    @pytest.mark.parametrize("bound, want", [(-0.1, 1.0), (0.1, 0.0)])
    def test_singular_row_is_a_step(self, bound, want):
        """Scale ``[[1, 1], [1, 1]]`` leaves ``x1 - x2`` constant at its
        location, 0: one row along it holds everywhere or nowhere."""
        d = MultivariateT(np.zeros(2), np.ones((2, 2)), 3.0)
        est = mvt_constraint_prob(d, np.array([[1.0, -1.0]]), np.array([bound]), 10_000, 292)
        assert est == ProbEstimate(want, 0.0, True, 0)

    @pytest.mark.parametrize("bound, want", [(-0.1, 0.5), (0.1, 0.0)])
    def test_singular_row_among_several(self, bound, want):
        """Scale ``[[1, 1, 0], [1, 1, 0], [0, 0, 1]]`` leaves ``x1 - x2``
        constant at 0: when it holds, the other row alone decides (``x3 > 0``,
        1/2); when it fails, nothing does."""
        d = MultivariateT(np.zeros(3), np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]]), 5.0)
        R = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        est = mvt_constraint_prob(d, R, np.array([bound, 0.0]), 10_000, 293)
        assert est == ProbEstimate(want, 0.0, True, 0)


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

    @pytest.mark.parametrize(
        "bound, rows",
        [(0.0, [0, 1]), (-0.5, [0, 1]), (0.5, [1, 2])],
        ids=["equal", "looser", "tighter"],
    )
    def test_implied_rows_leave_a_term(self, bound, rows):
        """``x1 > x2 > 0`` and ``2 (x1 - x2) > bound``: in their intersection
        term a row that another row implies (a positive multiple of it with
        a bound no tighter) is dropped, and of two that imply each other
        the first stays."""
        x12 = np.array([1.0, -1.0, 0.0])
        systems = [
            (np.array([x12, [0.0, 1.0, 0.0]]), np.zeros(2)),
            (2.0 * x12[None, :], np.array([bound])),
        ]
        table = numkernel._table(systems)
        (ix,) = [ix for S, _, ix in table.terms(()) if S == (0, 1)]
        assert ix.tolist() == rows

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
        route under the likeliest system, ``x1, x2 > 0``, fits beside the
        walk and runs first; its pieces are exact and its subtracted terms,
        inside ``x1 > x2 > x3``, are lattice estimates of rank 3 that
        outweigh them, so the walk over the disjoint pieces follows.  Far
        from the boundary, 1 - U is ~1.2e-4."""
        d = MultivariateT(np.full(3, 4.1), 0.8 * np.eye(3) + 0.2, 60.0)
        chain = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        systems = [(np.eye(3)[:2], np.zeros(2)), (chain, np.zeros(2))]
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
        the first: ``mcrep (1 - p_1) < 1`` at mcrep 20000, 1 - U ~3e-5.
        At df 20, below the trivariate rule's cut-over, the orthant's
        piece of three rows stays on the lattice."""
        d = MultivariateT(np.full(3, 5.5), 0.8 * np.eye(3) + 0.2, 20.0)
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
        """An orthant of rank 3 and ``x1 < -0.5``, which share no point:
        ``1 - U`` is the walk over the orthant's pieces, on the same streams,
        less the exact ``p_2``, to the bit.  At df 20, below the trivariate
        rule's cut-over, the orthant's piece of three rows stays on the
        lattice."""
        d = MultivariateT(np.full(3, 5.5), 0.8 * np.eye(3) + 0.2, 20.0)
        systems = [(np.eye(3), np.zeros(3)), (np.array([[-1.0, 0.0, 0.0]]), np.array([0.5]))]
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
        chain, stand alone, against raw t draws.  At df 20, below the
        trivariate rule's cut-over, the terms of three rows stay on the
        lattice."""
        d = MultivariateT(np.array([6.5, 6.0, 5.2]), 0.8 * np.eye(3) + 0.2, 20.0)
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
        with pytest.raises(NumericError, match=r"complement.*\(increase mcrep\)$"):
            complement_prob(d, systems, [None] * 3, 6, seed=330)

    def test_no_budget_advice_past_the_term_limit(self):
        """13 systems of two random rows have more than ``_MAX_TERMS``
        terms on every route, inclusion-exclusion's subsets and the walk's
        leaves alike, so no budget fits them and the error does not advise
        a larger mcrep."""
        rng = np.random.default_rng(1313)
        d = MultivariateT(np.zeros(4), np.eye(4), 5.0)
        systems = [(rng.standard_normal((2, 4)), np.zeros(2)) for _ in range(13)]
        with pytest.raises(NumericError, match="complement") as info:
            complement_prob(d, systems, [None] * 13, 1_000_000, seed=1)
        assert "mcrep" not in str(info.value)

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
