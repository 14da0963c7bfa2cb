"""Reference values for bfreg's outputs, computed without bfreg.

Nothing here imports bfreg.  The fit is redone by least squares in numpy,
densities and one-row probabilities come from ``scipy.stats`` in closed
form, cones centred on the distribution's location use the Gaussian
orthant probability (exact for q <= 3 by Sheppard's and Plackett's
formulas, Genz's method from ``scipy.stats.multivariate_normal`` above),
and other regions use ``scipy.stats.multivariate_t.cdf``.  A cone whose
apex is the centre has the same probability under every elliptical law,
so the orthant formulas hold for the Cauchy-tailed prior too.

Estimates that are not exact carry a standard error taken from
independent replicates (different QMC scrambles), so a check can count
the reference's error beside the engine's.

scipy.stats and scipy.optimize are imported where they are used, so that
importing this module adds nothing to a process whose memory or import
time is being measured.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Replicates per QMC reference value; their spread gives its standard error.
_REPLICATES = 4


@dataclass(frozen=True)
class Ref:
    """A reference probability; ``se == 0`` means exact to rounding."""

    value: float
    se: float


@dataclass(frozen=True)
class Fit:
    """OLS summary in the same conventions as bfreg (raw RSS in ``s2``)."""

    beta: np.ndarray
    s2: float
    xtx_inv: np.ndarray
    n: int
    k: int


@dataclass(frozen=True)
class Hypothesis:
    """``R_E beta = r_E`` and ``R_I beta > r_I`` over all k coefficients."""

    R_E: np.ndarray
    r_E: np.ndarray
    R_I: np.ndarray
    r_I: np.ndarray


@dataclass(frozen=True)
class BFRef:
    """Reference pieces of one Bayes factor against the unconstrained model."""

    log_density_ratio: float  # log f_E - log c_E, 0 without equalities
    f_ie: Ref | None
    c_ie: Ref | None

    @property
    def exact(self) -> bool:
        return all(p is None or p.se == 0.0 for p in (self.f_ie, self.c_ie))


def ols(X, y) -> Fit:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    n, k = X.shape
    return Fit(beta, float(resid @ resid), np.linalg.inv(X.T @ X), n, k)


def _t_params(fit: Fit, b: float):
    """Location, scale matrix and df of the fraction-b posterior of beta."""
    nu = round(b * fit.n - fit.k, 9)
    return fit.beta, fit.s2 / nu * fit.xtx_inv, nu


def _replicated(draw) -> Ref:
    vals = np.array([draw(rep) for rep in range(_REPLICATES)])
    return Ref(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size)))


def orthant(cov) -> Ref:
    """Pr(Y > 0) for a centred elliptical Y with scale ``cov``."""
    from scipy import stats

    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    q = cov.shape[0]
    sd = np.sqrt(np.diag(cov))
    rho = cov / np.outer(sd, sd)
    if q == 1:
        return Ref(0.5, 0.0)
    if q == 2:
        return Ref(0.25 + math.asin(rho[0, 1]) / (2 * math.pi), 0.0)
    if q == 3:
        s = math.asin(rho[0, 1]) + math.asin(rho[0, 2]) + math.asin(rho[1, 2])
        return Ref(0.125 + s / (4 * math.pi), 0.0)
    return _replicated(
        lambda rep: stats.multivariate_normal.cdf(
            np.zeros(q), cov=rho, abseps=1e-7, releps=1e-7, rng=rep
        )
    )


def upper_prob(loc, shape, df) -> Ref:
    """Pr(Y > 0) componentwise for ``Y ~ t(loc, shape, df)``."""
    from scipy import stats

    loc = np.atleast_1d(np.asarray(loc, dtype=float))
    shape = np.atleast_2d(np.asarray(shape, dtype=float))
    sd = np.sqrt(np.diag(shape))
    if np.all(np.abs(loc) <= 1e-12 * (1.0 + sd)):
        return orthant(shape)
    if loc.size == 1:
        return Ref(float(stats.t.sf(-loc[0] / sd[0], df)), 0.0)
    # Pr(Y > 0) = Pr(-Y < 0) with -Y ~ t(-loc, shape, df)
    return _replicated(
        lambda rep: float(
            np.clip(
                stats.multivariate_t.cdf(
                    np.zeros(loc.size),
                    loc=-loc,
                    shape=shape,
                    df=df,
                    maxpts=2000 * loc.size,
                    random_state=rep,
                ),
                0.0,
                1.0,
            )
        )
    )


def condition(mu, S, df, R_E, r_E):
    """Law of ``x ~ t(mu, S, df)`` given ``R_E x = r_E`` (a degenerate t)."""
    M = R_E @ S @ R_E.T
    G = np.linalg.solve(M, R_E @ S)  # M^-1 R_E S
    d = r_E - R_E @ mu
    delta = float(d @ np.linalg.solve(M, d))
    q = R_E.shape[0]
    loc = mu + G.T @ d
    scale = (df + delta) / (df + q) * (S - S @ R_E.T @ G)
    return loc, 0.5 * (scale + scale.T), df + q


def _log_t_density(x, loc, shape, df) -> float:
    from scipy import stats

    return float(stats.multivariate_t.logpdf(x, loc=loc, shape=shape, df=df))


def _reduce(R, r):
    """Drop rows implied by the others; None when the interior is empty.

    Works on the open polyhedron ``R x > r`` inside a large box, which is
    exact for the cones used here (the box contains the apex).
    """
    from scipy.optimize import linprog

    q, d = R.shape
    box = 1e3 * (1.0 + float(np.abs(r).max(initial=0.0)))
    bounds = [(-box, box)] * d
    norms = np.linalg.norm(R, axis=1)
    # maximise the common slack t of R x >= r + t |R_i|
    res = linprog(
        np.append(np.zeros(d), -1.0),
        A_ub=np.hstack([-R, norms[:, None]]),
        b_ub=-r,
        bounds=bounds + [(None, 1.0)],
        method="highs",
    )
    if res.status != 0 or -res.fun <= 1e-9:
        return None
    keep = list(range(q))
    for i in range(q):
        others = [j for j in keep if j != i]
        if not others:
            continue
        res = linprog(
            R[i], A_ub=-R[others], b_ub=-r[others], bounds=bounds, method="highs"
        )
        if res.status == 0 and res.fun >= r[i] - 1e-9 * (1.0 + abs(r[i])):
            keep.remove(i)
    return R[keep], r[keep]


def _inclusion_exclusion(systems):
    """Signed, non-redundant intersections whose sum is Pr(union)."""
    cones = []
    for size in range(1, len(systems) + 1):
        for subset in itertools.combinations(systems, size):
            reduced = _reduce(
                np.vstack([h.R_I for h in subset]),
                np.concatenate([h.r_I for h in subset]),
            )
            if reduced is None:
                continue
            R, r = reduced
            if np.linalg.matrix_rank(R) < R.shape[0]:
                raise NotImplementedError("intersection is not a simplicial cone")
            cones.append(((-1) ** (size + 1), R, r))
    return cones


class Reference:
    """Reference values for one fit; QMC results are cached per region."""

    def __init__(self, fit: Fit):
        self.fit = fit
        self.post = _t_params(fit, 1.0)
        self.prior = _t_params(fit, (fit.k + 1) / fit.n)
        self._memo = {}

    def region_prob(self, law, R, r) -> Ref:
        """Pr(R x > r) for ``x ~ t(*law)``; R must have full row rank."""
        mu, S, df = law
        R = np.atleast_2d(R)
        key = (mu.tobytes(), S.tobytes(), df, R.tobytes(), r.tobytes())
        if key not in self._memo:
            self._memo[key] = upper_prob(R @ mu - r, R @ S @ R.T, df)
        return self._memo[key]

    def bayes_factor(self, h: Hypothesis) -> BFRef:
        """Reference for one hypothesis, following the method's definitions.

        Posterior: the full-data t.  Prior: the minimal-fraction t,
        relocated to the minimum-norm point of the stacked constraints; for
        a mixed hypothesis the prior is conditioned at its own location and
        the region is the cone through that location.
        """
        mu, S, nu = self.post
        _, S0, nu0 = self.prior
        log_ratio = 0.0
        q_E, q_I = h.R_E.shape[0], h.R_I.shape[0]
        if q_E:
            log_ratio += _log_t_density(h.r_E, h.R_E @ mu, h.R_E @ S @ h.R_E.T, nu)
            log_ratio -= _log_t_density(h.r_E, h.r_E, h.R_E @ S0 @ h.R_E.T, nu0)
        if not q_I:
            return BFRef(log_ratio, None, None)
        if q_E:
            f_ie = self.region_prob(condition(mu, S, nu, h.R_E, h.r_E), h.R_I, h.r_I)
            _, scale0, _ = condition(mu, S0, nu0, h.R_E, h.R_E @ mu)
            c_ie = orthant(h.R_I @ scale0 @ h.R_I.T)
        else:
            f_ie = self.region_prob(self.post, h.R_I, h.r_I)
            center = np.linalg.pinv(h.R_I) @ h.r_I
            c_ie = self.region_prob((center, S0, nu0), h.R_I, h.r_I)
        return BFRef(log_ratio, f_ie, c_ie)

    def _union_prob(self, law, cones) -> Ref:
        """Pr(any system holds), summing the terms of :func:`_inclusion_exclusion`."""
        value, var = 0.0, 0.0
        for sign, R, r in cones:
            p = self.region_prob(law, R, r)
            value += sign * p.value
            var += p.se**2
        return Ref(value, math.sqrt(var))

    def complement(self, hypotheses) -> tuple[Ref, Ref] | None:
        """Reference ``(f_ie, c_ie)`` of the automatic complement.

        Returns None without inequality-only hypotheses (the complement is
        then the unconstrained model and is exact).
        """
        ineq = [h for h in hypotheses if h.R_E.shape[0] == 0 and h.R_I.shape[0]]
        if not ineq:
            return None
        _, S0, nu0 = self.prior
        stack_R = np.vstack([h.R_I for h in ineq])
        stack_r = np.concatenate([h.r_I for h in ineq])
        center = np.linalg.pinv(stack_R) @ stack_r
        cones = _inclusion_exclusion(ineq)
        u_f = self._union_prob(self.post, cones)
        u_c = self._union_prob((center, S0, nu0), cones)
        return Ref(1.0 - u_f.value, u_f.se), Ref(1.0 - u_c.value, u_c.se)

    def exploratory_probs(self) -> np.ndarray:
        """Closed-form {< 0, = 0, > 0} posterior probabilities, one row each."""
        from scipy import stats

        _, S, nu = self.post
        _, S0, nu0 = self.prior
        sd = np.sqrt(np.diag(S))
        z = self.fit.beta / sd
        below = stats.t.cdf(-z, nu) / 0.5
        above = stats.t.sf(-z, nu) / 0.5
        at_zero = (stats.t.pdf(z, nu) / sd) / (
            stats.t.pdf(0.0, nu0) / np.sqrt(np.diag(S0))
        )
        bf = np.column_stack([below, at_zero, above])
        return bf / bf.sum(axis=1, keepdims=True)
