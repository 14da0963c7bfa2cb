"""Brute-force reference estimators for the Bayes factor components.

These deliberately avoid the package's numeric kernels.  Draws come
from numpy's default generator rather than the package's seeded Philox
streams, marginal densities are obtained by integrating the
normal-given-sigma^2 mixture over a sigma^2 quadrature grid instead of
evaluating the closed-form Student t, and region probabilities are raw
sample proportions in the original coordinates (never the transformed
low-dimensional shortcut).  Agreement between oracle and package is
then evidence about the algebra rather than a tautology.  The only
shared pieces are the distribution *parameters* of the conditional
laws, which a separate factorization invariant pins down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from bfreg import (
    ConstraintSystem,
    MultivariateT,
    RegressionFit,
    build_transform,
    conditional_xiI,
)
from bfreg.constraints import minimal_fraction

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class OracleEstimate:
    """A reference value with a crude relative error bound.

    ``rel_error_bound`` is one standard error (sampling methods) or a
    half-grid refinement difference (quadrature); callers scale it as
    needed.  ``method`` is one of sampling_proportion, kde_density,
    quadrature.
    """

    value: float
    rel_error_bound: float
    method: str


def _draw_t(rng, location, scale, df, n_draws):
    """Student t draws via the normal over sqrt(chi2/df) representation."""
    loc = np.atleast_1d(np.asarray(location, dtype=float))
    chol = np.linalg.cholesky(np.asarray(scale, dtype=float))
    z = rng.standard_normal((n_draws, loc.size)) @ chol.T
    w = rng.chisquare(df, n_draws) / df
    return loc + z / np.sqrt(w)[:, None]


def mvt_sample(dist: MultivariateT, n_draws: int, seed: int):
    """``n_draws`` raw t draws from ``dist``, shape ``(n_draws, d)``."""
    rng = np.random.default_rng(seed)
    return _draw_t(rng, dist.location, dist.scale, dist.df, n_draws)


# Cap on the chunks of draws one proportion may take to reach its target.
_MAX_CHUNKS = 64


def oracle_inequality_prob(
    dist: MultivariateT, R, r, n_draws: int, seed: int, rel_se: float = np.inf
) -> OracleEstimate:
    """Proportion of raw draws from ``dist`` satisfying R x > r.

    Draws come in chunks of ``n_draws`` from one stream, one chunk by
    default; more follow (up to ``_MAX_CHUNKS``) until the proportion's
    relative standard error is at most ``rel_se``.
    """
    rng = np.random.default_rng(seed)
    R = np.atleast_2d(np.asarray(R, float))
    r = np.asarray(r, float)
    hits = draws = 0
    while True:
        x = _draw_t(rng, dist.location, dist.scale, dist.df, n_draws)
        hits += int(np.all(x @ R.T > r, axis=1).sum())
        draws += n_draws
        p = hits / draws
        se = float(np.sqrt(max(p * (1.0 - p), 0.0) / draws))
        rel = se / p if p > 0 else float("inf")
        if rel <= rel_se or draws >= _MAX_CHUNKS * n_draws:
            return OracleEstimate(p, rel, "sampling_proportion")


def oracle_complement_prob(
    dist: MultivariateT, systems, n_draws: int, seed: int, rel_se: float = np.inf
) -> OracleEstimate:
    """Proportion of raw draws from ``dist`` where no ``R x > r`` of
    ``systems`` holds, drawn in chunks as :func:`oracle_inequality_prob`."""
    rng = np.random.default_rng(seed)
    misses = draws = 0
    while True:
        x = _draw_t(rng, dist.location, dist.scale, dist.df, n_draws)
        hit = np.zeros(n_draws, dtype=bool)
        for R, r in systems:
            hit |= np.all(x @ np.atleast_2d(R).T > r, axis=1)
        misses += int(n_draws - hit.sum())
        draws += n_draws
        p = misses / draws
        se = float(np.sqrt(max(p * (1.0 - p), 0.0) / draws))
        rel = se / p if p > 0 else float("inf")
        if rel <= rel_se or draws >= _MAX_CHUNKS * n_draws:
            return OracleEstimate(p, rel, "sampling_proportion")


def _sigma2_grid(fit: RegressionFit, n_nodes: int):
    # wide span: the minimal-fraction mixing law has a very heavy right
    # tail (inverse gamma with shape 1/2), and truncating it biases far
    # tail densities noticeably
    s2_hat = fit.s2 / (fit.n - fit.k)
    return np.geomspace(1e-6 * s2_hat, 1e6 * s2_hat, n_nodes)


def _log_integrand(fit, b, R, v, grid):
    """log of invgamma(sigma^2) times N(v; R beta_hat, sigma^2/b R A R')."""
    shape = (fit.n * b - fit.k) / 2.0
    ig_scale = b * fit.s2 / 2.0
    mean = R @ fit.beta_hat
    base = R @ fit.xtx_inv @ R.T / b
    q = R.shape[0]
    sign, logdet_base = np.linalg.slogdet(base)
    if sign <= 0:
        raise ValueError("constraint covariance is not positive definite")
    dev = v - mean
    quad = float(dev @ np.linalg.solve(base, dev))
    log_norm = -0.5 * (
        q * np.log(2.0 * np.pi * grid) + logdet_base + quad / grid
    )
    return stats.invgamma.logpdf(grid, shape, scale=ig_scale) + log_norm


def oracle_marginal_density(
    fit: RegressionFit, b: float, R_E, r_E, n_sigma_grid: int = 3000
) -> OracleEstimate:
    """Density of R_E beta at r_E under the fraction-b posterior.

    Integrates the conditional normal density against the inverse gamma
    law of sigma^2 on a log-spaced grid (trapezoid in log sigma^2,
    spanning 1e-6 to 1e6 times the usual residual variance estimate).
    The reported error bound compares against the half-resolution grid.
    """
    R = np.atleast_2d(np.asarray(R_E, dtype=float))
    v = np.atleast_1d(np.asarray(r_E, dtype=float))
    if R.shape[0] > 2:
        raise ValueError("quadrature oracle supports at most two equality rows")
    grid = _sigma2_grid(fit, n_sigma_grid)
    log_g = _log_integrand(fit, b, R, v, grid) + np.log(grid)
    u = np.log(grid)
    peak = log_g.max()
    if not np.isfinite(peak):
        raise ValueError("quadrature grid underflowed everywhere")
    fine = _trapezoid(np.exp(log_g - peak), u)
    coarse = _trapezoid(np.exp(log_g[::2] - peak), u[::2])
    value = float(fine * np.exp(peak))
    rel = abs(fine - coarse) / fine if fine > 0 else float("inf")
    return OracleEstimate(value, float(rel), "quadrature")


def projector_null_rows(R_E):
    """Independent rows of ``I - R_E'(R_E R_E')^{-1} R_E``.

    A cross-check construction of the free directions: the projector onto
    the null space of ``R_E``, thinned to a spanning set of rows.  The
    rows are not orthonormal; ``bfreg.build_transform`` uses the orthonormal
    SVD basis instead, and any basis of the same null space yields the
    same Bayes factors.
    """
    R_E = np.atleast_2d(np.asarray(R_E, dtype=float))
    k = R_E.shape[1]
    P = np.eye(k) - R_E.T @ np.linalg.solve(R_E @ R_E.T, R_E)
    rows = []
    for row in P:
        trial = np.array(rows + [row])
        if np.linalg.matrix_rank(trial) > len(rows):
            rows.append(row)
    return np.array(rows) if rows else np.zeros((0, k))


def _posterior_beta_t(fit: RegressionFit, b: float) -> MultivariateT:
    nu = fit.n * b - fit.k
    return MultivariateT(fit.beta_hat, fit.s2 / nu * fit.xtx_inv, nu)


def oracle_bf(
    fit: RegressionFit,
    cs: ConstraintSystem,
    n_draws: int,
    seed: int,
    rel_se: float = np.inf,
) -> OracleEstimate:
    """Reference Bayes factor against the unconstrained model.

    Assembled per constraint case from oracle densities and raw
    proportions, each proportion drawn until its relative standard error
    is at most ``rel_se`` (see :func:`oracle_inequality_prob`).  The prior
    density factor is evaluated at its own location (relocation does not
    change a t density's peak height), so no relocated distribution object
    is ever built here.
    """
    b_min = minimal_fraction(fit)
    if cs.q_I == 0:
        f = oracle_marginal_density(fit, 1.0, cs.R_E, cs.r_E)
        c = oracle_marginal_density(fit, b_min, cs.R_E, cs.R_E @ fit.beta_hat)
        return OracleEstimate(
            f.value / c.value,
            f.rel_error_bound + c.rel_error_bound,
            "quadrature",
        )
    if cs.q_E == 0:
        post = _posterior_beta_t(fit, 1.0)
        mu0 = np.linalg.lstsq(cs.R_I, cs.r_I, rcond=None)[0]
        prior_base = _posterior_beta_t(fit, b_min)
        prior = MultivariateT(mu0, prior_base.scale, prior_base.df)
        f = oracle_inequality_prob(post, cs.R_I, cs.r_I, n_draws, seed + 1, rel_se)
        c = oracle_inequality_prob(prior, cs.R_I, cs.r_I, n_draws, seed + 2, rel_se)
        rel = float(np.hypot(f.rel_error_bound, c.rel_error_bound))
        return OracleEstimate(f.value / c.value, rel, "sampling_proportion")
    ts = build_transform(cs, fit)
    f_e = oracle_marginal_density(fit, 1.0, cs.R_E, cs.r_E)
    c_e = oracle_marginal_density(fit, b_min, cs.R_E, cs.R_E @ fit.beta_hat)
    cond_post = conditional_xiI(fit, ts, 1.0, cs.r_E)
    cond_prior = conditional_xiI(fit, ts, b_min, ts.xi_hat[: cs.q_E])
    Rt, rt = cs.reduction.Rtilde_I, cs.reduction.rtilde_I
    f_ie = oracle_inequality_prob(cond_post, Rt, rt, n_draws, seed + 3, rel_se)
    # the prior region is the cone with its apex at the conditional prior's
    # own location, whatever center rule the engine uses
    apex = Rt @ ts.xi_hat[cs.q_E :]
    c_ie = oracle_inequality_prob(cond_prior, Rt, apex, n_draws, seed + 4, rel_se)
    value = (f_e.value / c_e.value) * (f_ie.value / c_ie.value)
    rel = float(
        f_e.rel_error_bound
        + c_e.rel_error_bound
        + np.hypot(f_ie.rel_error_bound, c_ie.rel_error_bound)
    )
    return OracleEstimate(value, rel, "sampling_proportion")
