"""Multivariate Student-t primitives: density, CDF and region probabilities.

Math notes
----------
All Student-t quantities here use the *scale matrix* convention: a
``MultivariateT(location=mu, scale=S, df=nu)`` has density proportional to
``(1 + (x-mu)' S^{-1} (x-mu)/nu) ** (-(nu+d)/2)`` and covariance
``nu/(nu-2) * S`` for ``nu > 2``.  The scale matrix is *not* the
covariance; off-by-a-degrees-of-freedom factors are the dominant bug class
in this kind of code, so every consumer must be explicit about which
object it passes.  With ``d=1, df=1, scale=1`` the density is the standard
Cauchy.

Every estimate that is not exact is a lattice rule whose random shifts
are drawn from a Philox generator (counter based), keyed by a
``SeedSequence`` over the user seed, so the contract is: same seed + same
budget -> identical estimate, bit for bit.

Probability estimates
---------------------
:func:`mvt_constraint_prob` is where the estimation path of a region
probability is chosen:

- exact 1-d: the univariate t CDF for a single row;
- closed form: two or three rows through the location (below);
- QMC: any other system is estimated on the transformed law of ``R xi``
  by Genz-Bretz separation of variables on randomly shifted lattice
  points (:func:`_lattice_prob`), with the standard error taken from the
  spread of independent shifts.  The radial chi coordinate of a cone off
  the location is the Wilson-Hilferty cube of a normal quantile, and
  each point is weighted by the ratio of the exact law to that map's
  (:func:`_radial`); a shift's estimate is its weighted mean.  In a
  rank-deficient ``R`` a row that depends on the rows before it shares
  their column of the factor and bounds it from above or below (Genz and
  Kwong 2000), and rank 1 is an exact interval.  A budget below one
  point per shift takes one point on each of fewer shifts.

The budget ``n_draws`` (the engine's ``mcrep``) is a precision budget in
draw-equivalents: an estimate refines until its standard error is at most
the binomial one of that many independent draws, and never evaluates more
lattice points than that.

:func:`complement_prob` estimates the probability that none of several
systems holds, the engine's complement, as a sum of region probabilities
that take the same paths.  It is one identity: split the complement of
each *pivot* system into its disjoint pieces and take inclusion-exclusion
over the other systems inside them.  No pivot is inclusion-exclusion,
every system the walk over disjoint pieces, and, when one system is
nearly certain, the likeliest system alone, taken only when its
subtracted terms add no more variance than its added ones.  The terms
share the budget; a route whose terms do not fit it is skipped.

Every path takes the rows it is given as they are.  Deciding rows the
equalities leave without coefficient content is the job of the cached
equality reduction (:attr:`bfreg.hyparse.ConstraintSystem.reduction`),
whose live rows are what the engine passes.

A cone whose apex is the location of the law (every row has ``R mu = r``
to within ``_APEX_TOL`` of its standard deviation, as for every prior
factor with an exact center) has the same probability under every
elliptical law, whatever the df: the Gaussian orthant probability of the
correlation of ``R S R'``.  With two or three rows that probability is
exact (Sheppard's and Plackett's formulas); with more the lattice rule
drops its radial coordinate, so the estimate does not depend on df.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln, ndtr, ndtri, stdtr

from .errors import DecompositionError, InvalidInputError, NumericError

# The lattice evaluates its points in chunks of at most this many to bound
# memory.  The chunks set the order of summation, so the size must stay
# constant for an estimate to reproduce to the bit.
_CHUNK = 1 << 18

_EPS = float(np.finfo(float).eps)

# A row whose offset |R mu - r| is within this many of its standard
# deviations counts as passing through the location.  Moving the apex by
# delta standard deviations moves a cone probability p by at most
# 0.4 q delta (0.4 bounds every standardized t density), so treating such
# a cone as centred changes log p by less than 1.2e-10 for p >= 1e-3 and
# q <= 3.  Centers computed by least squares on well-scaled rows miss by
# about 1e-16.
_APEX_TOL = 1e-13

# The lattice rule of the transformed path: _SHIFTS independent random
# shifts give the standard error, and the points per shift double from
# _LATTICE_BLOCK, so blocks hold 1024 * 2**j points.  An error divided by
# a standard error from S shifts follows Student's t with S - 1 df: with
# 16 shifts 6e-4 of the estimates land beyond 4.5 standard errors, with
# 64 none of 10000 did.
_SHIFTS = 64
_LATTICE_BLOCK = 16
_TINY = float(np.finfo(float).tiny)
_BELOW_ONE = 1.0 - _EPS / 2.0

# In a rank-deficient system a row of the correlation whose residual
# variance, given the rows before it, is at most _DEPENDENT gets no
# column of its own (a residual standard deviation of 1e-5).  Roundoff
# leaves its coefficients on later columns near eps / 1e-5 = 2e-11, so
# the last coefficient above _NONZERO is the column it bounds.
_DEPENDENT = 1e-10
_NONZERO = 1e-8

# Rows R_b = -c R_a (c > 0) with c r_a + r_b >= 0 cannot both hold: the
# closed-form test for an empty union term, to this relative tolerance.
_PARALLEL_TOL = 1e-12

# A complement is a sum of at most this many lattice terms in the worst
# case; a route with more is skipped.
_MAX_TERMS = 4096


def _seed_sequence(seed, path=()):
    entropy = (int(seed) % (1 << 63),) + tuple(int(p) % (1 << 63) for p in path)
    return np.random.SeedSequence(entropy)


def rng_from_seed(seed, *path):
    """Philox generator keyed on ``(seed, *path)``.

    Counter-based, so sequential chunked consumption reproduces the serial
    stream exactly.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derived_seed(seed, *path):
    """Deterministically derive an independent child seed from ``seed``.

    Used to give every estimate in a larger computation its own
    reproducible stream.
    """
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class MultivariateT:
    """Multivariate Student-t distribution in the scale-matrix convention.

    Attributes
    ----------
    location : ndarray, shape (d,)
    scale : ndarray, shape (d, d)
        Symmetric positive definite scale matrix (see module notes; this
        is not the covariance).
    df : float
        Degrees of freedom, > 0.
    """

    location: np.ndarray
    scale: np.ndarray
    df: float

    def __post_init__(self):
        loc = np.atleast_1d(np.asarray(self.location, dtype=float))
        S = np.asarray(self.scale, dtype=float)
        if S.ndim == 0:
            S = S.reshape(1, 1)
        if loc.ndim != 1:
            raise InvalidInputError("location must be a vector")
        d = loc.shape[0]
        if S.shape != (d, d):
            raise InvalidInputError(
                f"scale has shape {S.shape}, expected ({d}, {d})"
            )
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(S))):
            raise InvalidInputError("non-finite distribution parameters")
        atol = 1e-8 * max(float(np.abs(S).max(initial=0.0)), 1.0)
        if not np.abs(S - S.T).max(initial=0.0) <= atol:
            raise InvalidInputError("scale matrix must be symmetric")
        df = float(self.df)
        if not (df > 0 and math.isfinite(df)):
            raise InvalidInputError("df must be a positive finite number")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "scale", S)
        object.__setattr__(self, "df", df)

    @property
    def dim(self) -> int:
        return self.location.shape[0]

    def relocate(self, new_location) -> "MultivariateT":
        """Same scale and df, new location."""
        return replace(self, location=np.asarray(new_location, dtype=float))


@dataclass(frozen=True)
class ProbEstimate:
    """A probability with its estimation pedigree.

    ``exact`` estimates carry ``std_error == 0`` and ``n_draws == 0``.
    Every other estimate is a lattice (QMC) rule over ``n_draws`` points
    in all, and carries the standard error of its independent random
    shifts, which is positive: where the shifts show no spread it is that
    of one hit in the budget (:func:`_one_hit_se`).  A complement sums
    lattice terms: ``n_draws`` counts every point it evaluated and its
    standard error combines those of its terms.
    """

    value: float
    std_error: float
    exact: bool
    n_draws: int

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise InvalidInputError(f"probability {self.value} outside [0, 1]")
        if self.exact and self.std_error != 0.0:
            raise InvalidInputError("exact estimates must have zero std_error")
        if self.std_error < 0.0:
            raise InvalidInputError("std_error must be nonnegative")


def _cholesky(S):
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            "scale matrix is not positive definite"
        ) from exc


def mvt_logpdf(x, dist: MultivariateT) -> float:
    """Log density of ``dist`` at ``x``.

    Parameters
    ----------
    x : array_like, shape (d,)
    dist : MultivariateT

    Returns
    -------
    float
        ``gammaln((nu+d)/2) - gammaln(nu/2) - (d/2) log(nu pi)
        - (1/2) log|S| - ((nu+d)/2) log(1 + quad/nu)``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dist.dim,):
        raise InvalidInputError(
            f"point has shape {x.shape}, expected ({dist.dim},)"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("evaluation point contains non-finite entries")
    L = _cholesky(dist.scale)
    z = solve_triangular(L, x - dist.location, lower=True)
    quad = float(z @ z)
    d, df = dist.dim, dist.df
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(
        gammaln(0.5 * (df + d))
        - gammaln(0.5 * df)
        - 0.5 * d * math.log(df * math.pi)
        - 0.5 * logdet
        - 0.5 * (df + d) * math.log1p(quad / df)
    )


def t_cdf(x, df):
    """CDF of the standard univariate Student-t: a float for a scalar ``x``,
    else an array of its shape.

    Evaluated through the regularized incomplete beta function; absolute
    error is far below 1e-12 over the usable range.  Saturates at 0/1 for
    infinite arguments.  The complement identity ``t_cdf(z) + t_cdf(-z)
    == 1`` holds exactly in floating point by construction.
    """
    df = float(df)
    if not (df > 0 and math.isfinite(df)):
        raise InvalidInputError("df must be a positive finite number")
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise InvalidInputError("t_cdf argument is NaN")
    p = np.where(x >= 0.0, 1.0 - stdtr(df, -x), stdtr(df, x))
    return float(p) if p.ndim == 0 else p


def mvt_constraint_prob(dist: MultivariateT, R, r, n_draws, seed) -> ProbEstimate:
    """Estimate ``Pr(R xi > r)`` for ``xi ~ dist``.

    A single constraint row is evaluated exactly through the univariate t
    CDF.  With several rows the probability is taken under the
    lower-dimensional transformed t of ``R xi``: two or three full-rank
    rows through the location have a closed form, rows of rank 1 an exact
    interval, and every other system takes the lattice rule of
    :func:`_lattice_prob`, which stops once its standard error is at most
    the binomial one of ``n_draws`` draws and never uses more than
    ``n_draws`` points.  A lattice estimate whose shifts show no spread
    (every point 0, say, in a far tail) carries the standard error of one
    hit in ``n_draws`` instead of 0.  The rows are taken as given (see the
    module notes).
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if R.ndim != 2 or not np.all(np.isfinite(R)):
        raise InvalidInputError("constraint matrix must be a finite 2-d array")
    if R.shape[1] != dist.dim:
        raise InvalidInputError(
            f"constraint matrix has {R.shape[1]} columns, expected {dist.dim}"
        )
    if r.shape != (R.shape[0],):
        raise InvalidInputError("constraint bound has the wrong length")
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("constraint bound contains non-finite entries")
    if n_draws < 1:
        raise InvalidInputError("n_draws must be at least 1")

    for est in _estimates(dist, R, r, _full_row_rank(R), seed, n_draws):
        if est.exact or _resolved(est, n_draws):
            break
    if est.exact or est.std_error > 0.0:
        return est
    return replace(est, std_error=_one_hit_se(n_draws))


def _full_row_rank(R) -> bool:
    """Whether the rows of ``R`` are independent (one row always counts)."""
    q, d = R.shape
    return q == 1 or (q <= d and np.linalg.matrix_rank(R) == q)


def _estimates(dist: MultivariateT, R, r, full, seed, cap):
    """Successive estimates of ``Pr(R xi > r)``, each finer than the last.

    One exact estimate for a single row (the univariate t CDF) or for
    two or three full-rank rows through the location (closed form);
    otherwise the blocks of :func:`_lattice_prob` on the law of ``R xi``.
    ``full`` says whether ``R`` has full row rank.
    """
    q = R.shape[0]
    if q == 1:
        m = float(R[0] @ dist.location)
        s2 = float(R[0] @ dist.scale @ R[0])
        if s2 <= 0.0:
            yield ProbEstimate(1.0 if m > r[0] else 0.0, 0.0, True, 0)
        else:
            yield ProbEstimate(t_cdf((m - r[0]) / math.sqrt(s2), dist.df), 0.0, True, 0)
        return
    law = MultivariateT(R @ dist.location, R @ dist.scale @ R.T, dist.df)
    centred = _apex_at_location(law, [(np.eye(q), r)])
    if full and q <= 3 and centred:
        yield ProbEstimate(_centred_orthant_prob(law.scale), 0.0, True, 0)
        return
    yield from _lattice_prob(law, r, centred, full, seed, cap)


@functools.lru_cache(maxsize=None)
def _root_primes(n):
    """Square roots of the first ``n`` primes, the lattice's generator
    (read-only: one array serves every call)."""
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    alpha = np.sqrt(np.array(primes, dtype=float))
    alpha.flags.writeable = False
    return alpha


def _singular_factor(C):
    """Lower factor of a semidefinite correlation ``C`` over its independent rows.

    Rows are taken in order (Genz and Kwong 2000, JSCS 68; Genz and
    Bretz 2009, LNS 195, section 4.1).  A row whose residual variance
    given the rows before it exceeds ``_DEPENDENT`` opens a column; any
    other row gets no column and bounds the last one on which its
    coefficient is nonzero.  Returns the ``(q, rank)`` factor ``L`` with
    ``L L' = C`` and, for each row, the column it bounds.
    """
    q = C.shape[0]
    L = np.zeros((q, q))
    col = np.empty(q, dtype=int)
    pivots = []
    for i in range(q):
        m = len(pivots)
        for c, p in enumerate(pivots):
            L[i, c] = (C[i, p] - L[i, :c] @ L[p, :c]) / L[p, c]
        v = C[i, i] - L[i, :m] @ L[i, :m]
        if v > _DEPENDENT:
            L[i, m] = math.sqrt(v)
            col[i] = m
            pivots.append(i)
        else:
            col[i] = np.flatnonzero(np.abs(L[i, :m]) > _NONZERO)[-1]
            L[i, col[i] + 1 :] = 0.0
    return L[:, : len(pivots)], col


def _lattice_prob(law: MultivariateT, r, centred, full, seed, cap):
    """Quasi-Monte Carlo estimates of ``Pr(Y > r)`` for ``Y ~ law``, q >= 2.

    Genz-Bretz separation of variables (Genz 1992, JCGS 1; Genz and Bretz
    2009, LNS 195).  The rows are sorted by standardised bound ``a = (r - mu)
    / sd``, largest (least likely) first, and ``L`` is a lower factor of
    their correlation: the Cholesky factor when ``full`` (full row rank),
    else :func:`_singular_factor`, whose dependent rows share the column
    they bound.  Then ``Y > r`` reads ``L z > s a`` for standard normals
    ``z`` and the radial factor ``s = sqrt(w / df)``, ``w ~
    chi-square(df)``.  ``s`` is not drawn by the inverse chi-square CDF,
    which would cost more than the rest of the integrand: the last uniform
    ``u`` maps to ``s`` by the Wilson-Hilferty cube of :func:`_radial`, and
    each point carries the weight ``omega`` of the exact law of ``s``
    against that map's.  Given ``s`` and the earlier ``z``, the rows of
    column ``j`` bound ``z_j`` from below (a positive coefficient) or above
    (a negative one), to ``(lo_j, hi_j)``; the column holds with probability
    ``e_j = max(Phi(-lo_j) - Phi(-hi_j), 0)`` and ``z_j`` is drawn in it as
    ``-Phi^-1(Phi(-hi_j) + (1 - u_j) e_j)``, so the integrand is ``prod
    e_j`` over the unit cube of ``z_1, ..., z_{rank-1}, s``.  Without an
    upper bound this is ``e_j = Phi(-lo_j)``, ``z_j = -Phi^-1(e_j (1 -
    u_j))``.  A ``centred`` cone has ``a = 0`` and drops ``s``: its estimate
    does not depend on df, and every weight is 1.  Rank 1 needs no integral:
    the rows bound one t variable, and the single estimate is the exact
    interval probability.  Bounds that cross at every point give an estimate
    of 0, which is not exact: a far-tail region can underflow to 0 too.

    The points of shift ``k`` are ``|2 frac(i sqrt(p_j) + shift_kj) - 1|``
    (Richtmyer's generator, one prime ``p_j`` per coordinate, folded by
    the baker's transform) for ``i = 1, 2, ...``, with ``_SHIFTS`` uniform
    shifts drawn from ``seed``.  Each shift estimates the probability by
    the self-normalised ratio ``sum omega prod e_j / sum omega`` over its
    points, which returns a constant integrand exactly and stays in [0,
    1]; the unnormalised mean ``sum omega prod e_j / n`` would add the
    lattice error of ``omega`` itself, which swamps a probability near 1.
    The estimate is the mean of the shift ratios and its standard error
    their spread.  Points per shift double from ``_LATTICE_BLOCK``, and an
    estimate is yielded after each block (``n_draws`` counts the points
    so far) until the next block would pass ``cap`` points in all.  A
    ``cap`` below one point per shift takes one point on each of ``cap``
    shifts and yields once: a shift of one point has a ratio of 0/0 where
    ``omega`` is 0, so the ratio is pooled over all of them
    (:func:`_pooled_ratio`).
    """
    cap = int(cap)
    n_shifts = min(_SHIFTS, cap)
    q = law.dim
    sd = np.sqrt(np.diag(law.scale))
    a = np.zeros(q) if centred else (r - law.location) / sd
    order = np.argsort(-a, kind="stable")
    a, sd = a[order], sd[order]
    C = law.scale[np.ix_(order, order)] / np.outer(sd, sd)
    L, col = (_cholesky(C), np.arange(q)) if full else _singular_factor(C)
    rank = L.shape[1]
    # per column: (row, whether the row bounds it from below)
    bounds = [[(i, L[i, j] > 0.0) for i in np.flatnonzero(col == j)] for j in range(rank)]
    if rank == 1:
        cuts = [(a[i] / L[i, 0], low) for i, low in bounds[0]]
        lo = max(b for b, low in cuts if low)
        hi = min((b for b, low in cuts if not low), default=math.inf)
        p = t_cdf(-lo, law.df) - t_cdf(-hi, law.df)
        yield ProbEstimate(max(p, 0.0), 0.0, True, 0)
        return
    dims = rank - 1 if centred else rank
    alpha = _root_primes(dims)
    shifts = rng_from_seed(seed).random((dims, n_shifts, 1))

    def integrand(i):
        """Sums over points ``i`` of the weighted values and of the weights,
        one per shift."""
        x = i * alpha[:, None, None] + shifts
        # x >= 0, so x - floor(x) is the exact fractional part, as x % 1.0
        u = np.abs(2.0 * (x - np.floor(x)) - 1.0)
        s, weight = 0.0, np.ones((n_shifts, i.size))
        if not centred:
            s, weight = _radial(u[-1], law.df)
        z = np.empty((rank - 1, n_shifts, i.size))
        prob = np.ones((n_shifts, i.size))
        for j in range(rank):
            lo = hi = None
            for row, low in bounds[j]:
                b = (s * a[row] - np.tensordot(L[row, :j], z[:j], axes=1)) / L[row, j]
                if low:
                    lo = b if lo is None else np.maximum(lo, b)
                else:
                    hi = b if hi is None else np.minimum(hi, b)
            if hi is None:
                e = ndtr(-lo)
                prob *= e
                if j < rank - 1:
                    z[j] = -ndtri(np.maximum(e * (1.0 - u[j]), _TINY))
            else:
                top = ndtr(-hi)
                e = np.maximum(ndtr(-lo) - top, 0.0)
                prob *= e
                if j < rank - 1:
                    z[j] = -ndtri(np.clip(top + (1.0 - u[j]) * e, _TINY, _BELOW_ONE))
        return (prob * weight).sum(axis=1), weight.sum(axis=1)

    sums, weights = np.zeros(n_shifts), np.zeros(n_shifts)
    step = _CHUNK // _SHIFTS
    done, n = 0, min(_LATTICE_BLOCK, cap // n_shifts)
    while True:
        for start in range(done, n, step):
            total, weight = integrand(np.arange(start + 1, min(n, start + step) + 1.0))
            sums += total
            weights += weight
        if n_shifts < _SHIFTS:
            yield _pooled_ratio(sums, weights)
            return
        means = sums / weights
        se = float(means.std(ddof=1)) / math.sqrt(_SHIFTS)
        yield ProbEstimate(float(means.mean()), se, False, n * _SHIFTS)
        if 2 * n * _SHIFTS > cap:
            return
        done, n = n, 2 * n


def _pooled_ratio(sums, weights):
    """The estimate of ``k < _SHIFTS`` shifts of one point each: the ratio
    ``sum omega prod e_j / sum omega`` over all their points, with the
    delta-method standard error of a ratio of means.  A point of weight 0
    says nothing, so with no point of positive weight the estimate is 1/2.
    A single point shows no spread: its standard error is 0."""
    k, total = len(sums), float(weights.sum())
    if total == 0.0:
        return ProbEstimate(0.5, 0.0, False, k)
    p = min(float(sums.sum()) / total, 1.0)
    se = 0.0
    if k > 1:
        resid = sums - p * weights
        se = math.sqrt(float(resid @ resid) / (k * (k - 1))) * k / total
    return ProbEstimate(p, se, False, k)


def _radial(u, df):
    """The radial factor ``s`` at uniforms ``u`` and its weight, for df ``df``.

    ``s^2 = b^3`` with ``b = 1 - c + z sqrt(c)``, ``z = Phi^-1(u)`` and ``c =
    2 / (9 df)``: the Wilson-Hilferty cube (Wilson and Hilferty 1931,
    PNAS 17), which makes ``s^2`` nearly ``chi-square(df) / df``.  The
    weight is the exact density of ``s^2`` times ``ds^2/dz`` over the
    normal density of ``z``, ``exp((3 df / 2 - 1) log b - df b^3 / 2 + z^2
    / 2)``, taken relative to its value at ``b = 1`` through ``log1p(b -
    1)`` so that its terms do not cancel at large df (``b`` at ``z = 0`` is
    not positive below df 2/9); it is 0 where ``b <= 0``.  ``u`` is
    clipped to ``1 - eps``; ``u = 0`` has weight 0.  Over its mean, the
    weight has variance 0.065 at df 1, 4e-5 at df 17 and 2e-7 at df 193.
    It is bounded for df >= 2/3; below that it grows without bound as
    ``b`` falls to 0, and its variance is infinite for df <= 1/3.  Every
    law bfreg builds has df >= 1.
    """
    z = ndtri(np.minimum(u, 1.0 - _EPS))
    c = 2.0 / (9.0 * df)
    x = z * math.sqrt(c) - c  # b - 1
    live = x > -1.0
    x = np.where(live, x, 0.0)
    z = np.where(live, z, 0.0)
    log_weight = (
        (1.5 * df - 1.0) * np.log1p(x)
        - 0.5 * df * (x * (3.0 + x * (3.0 + x)))
        + 0.5 * z * z
    )
    b = 1.0 + x
    return np.where(live, b * np.sqrt(b), 0.0), np.where(live, np.exp(log_weight), 0.0)


def _centred_orthant_prob(S) -> float:
    """``Pr(Y > 0)`` for a centred elliptical ``Y`` of dimension 2 or 3.

    With ``rho`` the correlation of the scale ``S``, this is
    ``1/4 + asin(rho_12) / (2 pi)`` for two rows (Sheppard) and
    ``1/8 + sum_{i<j} asin(rho_ij) / (4 pi)`` for three (Plackett 1954,
    Biometrika 41); it does not depend on df.
    """
    q = S.shape[0]
    sd = np.sqrt(np.diag(S))
    rho = S / np.outer(sd, sd)
    angles = sum(
        math.asin(min(1.0, max(-1.0, float(rho[i, j]))))
        for i in range(q)
        for j in range(i + 1, q)
    )
    return min(1.0, max(0.0, 0.5**q + angles / (2 ** (q - 1) * math.pi)))


def _apex_at_location(dist: MultivariateT, systems) -> bool:
    """Whether every row of every ``(R, r)`` passes through ``dist.location``.

    Each offset ``R mu - r`` is measured in standard deviations of its
    row, ``sqrt((R S R')_ii)``.
    """
    for R, r in systems:
        offset = R @ dist.location - r
        var = np.einsum("ij,jk,ik->i", R, dist.scale, R)
        if np.any(np.abs(offset) > _APEX_TOL * np.sqrt(var)):
            return False
    return True


def _one_hit_se(n) -> float:
    """Binomial standard error of one hit in ``n`` draws, and of a fair
    coin for ``n = 1``, where one hit would be certainty."""
    p = 1.0 / max(n, 2)
    return math.sqrt(p * (1.0 - p) / n)


def complement_prob(dist: MultivariateT, systems, known, mcrep, seed):
    """Estimate ``Pr(no (R, r) in systems has R xi > r)`` for ``xi ~ dist``.

    The union ``U`` of the systems is never sampled: ``1 - U`` is a sum of
    region probabilities ("terms"), each estimated as in
    :func:`_estimates`.  The complement of a system ``H_t`` is the union
    of its disjoint pieces, row ``j`` fails and the rows before it hold.
    For any set ``T`` of *pivot* systems,

        1 - U = sum over the nodes N (one piece of each pivot) and the
                subsets S of the other systems of (-1)^|S| Pr(N and H_S)

    (:func:`_terms`, summed by :func:`_term_sum`).  Three pivot sets give
    the three routes:

    - ``T`` empty is inclusion-exclusion, ``1 - sum over subsets S of
      (-1)^(|S|+1) Pr(H_S)``: its empty term is the whole space, the base 1;
    - ``T = {i}``, the likeliest system ``i`` (the largest known estimate),
      takes inclusion-exclusion over the others inside its pieces: at most
      ``|pieces(H_i)| 2^(m-1)`` terms;
    - ``T`` every system is the walk over disjoint positive pieces, with
      ``S`` empty only: the product of every system's pieces.

    ``known`` holds, per system, an estimate of its own probability under
    ``dist`` (a component's factor) or None.  They bound ``1 - U <= 1 -
    max p_i``.  When ``mcrep (1 - max p_i) < 1``, where a sample of
    ``mcrep`` would see no miss, the route under the likeliest system is
    tried first (with two or more systems); otherwise inclusion-exclusion
    is.  The route tried stands when its standard error is within the
    binomial one of its value at ``mcrep``, and the likeliest system's
    only when also the variance of its subtracted terms is at most that of
    its added ones: this keeps a noisy term from being subtracted from a
    nearly equal one.  Otherwise the walk follows.  When no two systems
    overlap, the likeliest system's terms are its pieces less the others'
    probabilities.

    A term whose rows contain a pair ``R_b = -c R_a`` (``c > 0``) with ``c
    r_a + r_b >= 0`` is empty in closed form and left out, and a pivot
    that a system of ``S`` is disjoint from drops out of that term, as its
    pieces sum to 1 inside ``H_S``.  A subset none of whose terms is
    positive is not extended.  Every term first takes one lattice block,
    or its cap of points when that is smaller; the value of the sum then
    sets each term's standard error target, the binomial one of ``1 - U``
    at ``mcrep`` over the square root of the number of inexact terms, and
    terms refine to it.  A ``known`` estimate stands for the term of its
    system alone when it is exact or meets that target.

    Each term needs at least one lattice point, so a route fits when its
    terms fit in ``mcrep`` (and ``_MAX_TERMS``) beside those of the routes
    that fit before it: inclusion-exclusion, then the walk, then the
    likeliest system's.  A route that does not fit is skipped, and when
    none fits :class:`~bfreg.errors.NumericError` is raised.  Each term is
    capped at ``mcrep`` over the number of terms of the routes that fit,
    so ``n_draws``, which counts every lattice point evaluated, a route
    not taken included, never passes ``mcrep``.  The last route that runs
    stands whether or not it resolves: its standard error says how
    precise it is.  The value is clamped to [0, 1], its standard error
    combines those of the terms, and it is exact when every term is.  An
    inexact sum whose terms show no spread (its only inexact terms are
    zeros) carries the standard error of one hit in ``mcrep``.
    """
    m = len(systems)
    table = _table(systems)
    p_max = max((est.value for est in known if est is not None), default=0.0)
    near_one = mcrep * (1.0 - p_max) < 1.0  # a sample of mcrep would see no miss
    every = tuple(range(m))
    wanted = [((), seed), (every, seed)] if not near_one else [(every, seed)]
    if m >= 2 and near_one:
        first = max((i for i in range(m) if known[i] is not None), key=lambda i: known[i].value)
        wanted.append(((first,), derived_seed(seed, 3)))
    limit = min(mcrep, _MAX_TERMS)
    routes = []
    for pivots, route_seed in wanted:
        terms = _terms(pivots, table, limit - sum(len(t) for _, t, _ in routes))
        if terms is not None:
            routes.append((pivots, terms, route_seed))
    if not routes:
        raise NumericError(
            f"the complement needs more than {limit} lattice terms on every "
            "route (increase mcrep)"
        )
    routes.sort(key=lambda route: route[0] == every)  # the walk runs last
    cap = mcrep // max(sum(len(terms) for _, terms, _ in routes), 1)
    spent = 0
    for k, (pivots, terms, route_seed) in enumerate(routes):
        est, balanced = _term_sum(dist, pivots, terms, table, known, mcrep, route_seed, cap)
        # under a pivot, the subtracted terms must not outweigh the added
        if k == len(routes) - 1 or ((balanced or not pivots) and _resolved(est, mcrep)):
            return est if est.exact else replace(est, n_draws=est.n_draws + spent)
        spent += est.n_draws


def _table(systems):
    """What :func:`_terms` reads of ``systems``: ``(rows, bounds, conflict,
    own, pieces, disjoint)``.

    Every row of a piece or a term is row ``k`` of a system or its
    negation, row ``n + k``, of the signed table ``rows x > bounds``, and
    one table of conflicts between them (:func:`_conflicts`) serves every
    check.  ``own`` holds each system's rows, ``pieces`` its pieces that
    do not conflict in themselves, and ``disjoint[i][j]`` whether systems
    ``i`` and ``j`` conflict."""
    A = np.vstack([R for R, _ in systems])
    a = np.concatenate([r for _, r in systems])
    rows, bounds, n = np.vstack([A, -A]), np.concatenate([a, -a]), len(a)
    conflict = _conflicts(rows, bounds)
    own = np.split(np.arange(n), np.cumsum([len(r) for _, r in systems])[:-1])
    pieces = [
        [(j, P) for j, P in _pieces(ix, n) if not conflict[np.ix_(P, P)].any()]
        for ix in own
    ]
    m = len(own)
    disjoint = [
        [i != j and bool(conflict[np.ix_(own[i], own[j])].any()) for j in range(m)]
        for i in range(m)
    ]
    return rows, bounds, conflict, own, pieces, disjoint


def _resolved(est, mcrep) -> bool:
    """Whether a standard error is within the binomial one of the value at ``mcrep``."""
    return est.std_error <= math.sqrt(est.value * (1.0 - est.value) / mcrep)


def _pieces(own, n):
    """The disjoint pieces of ``not (R x > r)`` for a system's rows ``own``
    of the signed table: row ``j`` fails (row ``n + own[j]``), rows before
    it hold."""
    return [(j, np.append(own[:j], n + own[j])) for j in range(len(own))]


def _conflicts(A, a):
    """Whether rows ``i`` and ``j`` of ``A x > a`` share no point by the closed
    form, for every pair ``(i, j)``: ``A_j = -c A_i`` with ``c > 0`` and ``c
    a_i + a_j >= 0``."""
    c = -(A @ A.T) / np.einsum("ij,ij->i", A, A)[:, None]
    resid = np.linalg.norm(A[None, :, :] + c[:, :, None] * A[:, None, :], axis=2)
    parallel = (c > 0.0) & (resid <= _PARALLEL_TOL * np.linalg.norm(A, axis=1))
    gap = c * a[:, None] + a[None, :]
    slack = _PARALLEL_TOL * (np.abs(c * a[:, None]) + np.abs(a[None, :]))
    return parallel & (gap >= -slack)


def _next_level(level, m, disjoint):
    """Subsets one larger than those of ``level`` whose every subset one
    smaller is in ``level`` and which hold no disjoint pair."""
    have = set(level)
    out = []
    for S in level:
        for j in range(S[-1] + 1 if S else 0, m):
            T = S + (j,)
            if not any(disjoint[i][j] for i in S) and all(
                T[:k] + T[k + 1 :] in have for k in range(len(S))
            ):
                out.append(T)
    return out


def _terms(pivots, table, limit):
    """The terms of ``1 - U`` under the pieces of ``pivots``, level by level
    over the subsets ``S`` of the other systems that hold no disjoint pair,
    then depth first over one piece of each pivot: ``(S, node, ix)`` for
    ``Pr(piece node_k of the k-th pivot holds, and every system of S
    does)``, with ``ix`` its rows of the signed table, the pieces' first.
    A node whose rows conflict is left out, a pivot that a system of ``S``
    is disjoint from drops out, and ``S`` empty with no pivot left is the
    whole space, not a term.  ``table`` is that of :func:`_table`.  None
    when there are more than ``limit``."""
    _, _, conflict, own, pieces, disjoint = table
    others = [k for k in range(len(own)) if k not in pivots]
    apart = [[disjoint[a][b] for b in others] for a in others]
    terms = []

    def walk(live, node, at):
        """Add the terms of the current ``S`` (rows ``ix``) below ``node``,
        whose pieces hold rows ``at``, depth first; False once there are
        more than ``limit``."""
        if not live:
            terms.append((S, node, np.concatenate([at, ix])))
            return len(terms) <= limit
        for j, piece in live[0]:
            if not conflict[at][:, piece].any():
                if not walk(live[1:], node + (j,), np.concatenate([at, piece])):
                    return False
        return True

    level = [()]
    while level:
        for T in level:
            S = tuple(others[t] for t in T)
            ix = np.concatenate([np.zeros(0, dtype=int), *(own[k] for k in S)])
            live = [
                [(j, P) for j, P in pieces[t] if not (S and conflict[P][:, ix].any())]
                for t in pivots
                if not any(disjoint[t][k] for k in S)
            ]
            if (S or live) and not walk(live, (), np.zeros(0, dtype=int)):
                return None
        level = _next_level(level, len(others), apart)
    return terms


def _start(dist, R, r, seed, cap):
    """The first estimate of a term and the iterator of finer ones."""
    blocks = _estimates(dist, R, r, _full_row_rank(R), seed, cap)
    return next(blocks), blocks


def _refine(est, blocks, target):
    """Take finer estimates until the standard error meets ``target``."""
    while est.std_error > target:
        finer = next(blocks, None)
        if finer is None:
            break
        est = finer
    return est


def _term_target(v, terms, mcrep) -> float:
    """Binomial standard error of ``v`` at ``mcrep`` (at least one hit
    or miss), over the square root of the number of inexact terms."""
    v = min(max(v, 1.0 / mcrep), 1.0 - 1.0 / mcrep)
    n = max(sum(not est.exact for est in terms), 1)
    return math.sqrt(v * (1.0 - v) / mcrep / n)


def _sum_estimate(value, terms, points, mcrep) -> ProbEstimate:
    """The clamped value of a sum of ``terms``, with their combined error."""
    value = min(max(value, 0.0), 1.0)
    if all(est.exact for est in terms):
        return ProbEstimate(value, 0.0, True, 0)
    se = math.sqrt(sum(est.std_error**2 for est in terms))
    return ProbEstimate(value, se or _one_hit_se(mcrep), False, points)


def _term_sum(dist, pivots, terms, table, known, mcrep, seed, cap):
    """``1 - U`` as the base (1 with no pivot, the whole space; else 0)
    plus the :func:`_terms` under ``pivots``, each signed ``(-1)^|S|``, and
    whether the subtracted terms' variance is at most the added terms'.

    A term's stream is ``derived_seed(seed, 1, *S)`` without a piece and
    ``(2, *node, *S)`` with one.  A subset none of whose terms is positive
    is not extended, and a ``known`` estimate stands for the term of its
    system alone unless it is inexact and misses the target, when that
    term is estimated afresh.  ``table`` is that of :func:`_table`."""
    rows, bounds = table[:2]
    items = []  # [subset, row indices, estimate, finer estimates or None for a known one]
    live = {()}
    for S, node, ix in terms:
        if any(S[:k] + S[k + 1 :] not in live for k in range(len(S))):
            continue
        if not node and len(S) == 1 and known[S[0]] is not None:
            est, blocks = known[S[0]], None
        else:
            key = (2, *node, *S) if node else (1, *S)
            est, blocks = _start(dist, rows[ix], bounds[ix], derived_seed(seed, *key), cap)
        items.append([S, ix, est, blocks])
        if est.value > 0.0:
            live.add(S)
    base = 0.0 if pivots else 1.0

    def value():
        return base - sum((-1) ** (len(S) + 1) * est.value for S, _, est, _ in items)

    target = _term_target(value(), [est for _, _, est, _ in items], mcrep)
    for item in items:
        S, ix, est, blocks = item
        if blocks is None:
            if est.exact or est.std_error <= target:
                continue
            est, blocks = _start(dist, rows[ix], bounds[ix], derived_seed(seed, 1, *S), cap)
        item[2:] = _refine(est, blocks, target), blocks
    points = sum(est.n_draws for _, _, est, blocks in items if blocks is not None)
    var = [0.0, 0.0]  # of the added terms, of the subtracted ones
    for S, _, est, _ in items:
        var[len(S) % 2] += est.std_error**2
    est = _sum_estimate(value(), [est for _, _, est, _ in items], points, mcrep)
    return est, var[1] <= var[0]
