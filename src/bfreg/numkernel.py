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

Monte Carlo draws are generated as ``location + (z @ L') * sqrt(df/w)``
with ``z`` standard normal, ``w`` chi-square(df) and ``L`` the Cholesky
factor of the scale.  The generator is Philox (counter based), keyed by a
``SeedSequence`` over the user seed, so chunked draws reproduce the serial
stream and the contract is: same seed + same number of draws -> identical
estimate, bit for bit.

Probability estimates
---------------------
:func:`mvt_constraint_prob` is where the estimation path of a region
probability is chosen:

- exact 1-d: the univariate t CDF for a single row;
- closed form: two or three rows through the location (below);
- QMC: any other system whose ``R`` has full row rank is estimated on
  the transformed law of ``R xi`` by Genz-Bretz separation of variables
  on randomly shifted lattice points (:func:`_lattice_prob`), with the
  standard error taken from the spread of independent shifts;
- MC: a rank-deficient ``R`` (or a budget of fewer draws than shifts)
  counts hits of draws of ``xi`` itself in :func:`mc_union_prob`, the
  kernel that also estimates the engine's union for the complement.

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
drops its radial coordinate, so the estimate does not depend on df.  In
:func:`mc_union_prob`, when every system's apex is the location, the hit
test depends only on the direction of a draw from the location, so it
counts standard normals ``z L'`` against ``R y > 0`` and skips the
chi-square draws and the location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaincinv, gammaln, ndtr, ndtri, stdtr

from .errors import DecompositionError, InvalidInputError

# Draws are produced in fixed-size chunks to bound memory; the chunk size
# is part of no contract but must stay constant for stream reproducibility
# to be meaningful across call sites.
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

    Used to give every Monte Carlo estimate in a larger computation its
    own reproducible stream.
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
    Monte Carlo estimates count hits over ``n_draws`` draws and carry the
    binomial standard error ``sqrt(p(1-p)/n_draws)``; lattice (QMC)
    estimates average the integrand over ``n_draws`` points and carry
    the standard error of their independent random shifts.
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


def _sample_chunks(dist: MultivariateT, n_draws: int, seed, centred=False):
    """Yield draws from ``dist`` in fixed-size chunks (shared RNG stream).

    With ``centred`` only the Gaussian part ``z L'`` of each draw is
    produced: it points from the location in the same direction as the
    t draw ``location + z L' sqrt(df / w)`` would.
    """
    L = _cholesky(dist.scale)
    rng = rng_from_seed(seed)
    loc, df, d = dist.location, dist.df, dist.dim
    done = 0
    while done < n_draws:
        m = int(min(_CHUNK, n_draws - done))
        y = rng.standard_normal((m, d)) @ L.T
        if not centred:
            y *= np.sqrt(df / rng.chisquare(df, m))[:, None]
            y += loc
        yield y
        # release the chunk before the next one is drawn, so that two
        # chunks are never alive at once
        del y
        done += m


def mvt_constraint_prob(dist: MultivariateT, R, r, n_draws, seed) -> ProbEstimate:
    """Estimate ``Pr(R xi > r)`` for ``xi ~ dist``.

    A single constraint row is evaluated exactly through the univariate t
    CDF.  With several rows and a full row rank ``R`` the probability is
    taken under the lower-dimensional transformed t of ``R xi``: two or
    three rows through the location have a closed form, and every other
    system takes the lattice rule of :func:`_lattice_prob`, which stops
    once its standard error is at most the binomial one of ``n_draws``
    draws and never uses more than ``n_draws`` points.  Otherwise ``xi``
    itself is sampled ``n_draws`` times and the rows are checked
    directly.  The rows are taken as given (see the module notes).
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

    q = R.shape[0]
    if q == 1:
        m = float(R[0] @ dist.location)
        s2 = float(R[0] @ dist.scale @ R[0])
        if s2 <= 0.0:
            return ProbEstimate(1.0 if m > r[0] else 0.0, 0.0, True, 0)
        z = (m - r[0]) / math.sqrt(s2)
        return ProbEstimate(t_cdf(z, dist.df), 0.0, True, 0)

    if q <= dist.dim and np.linalg.matrix_rank(R) == q:
        law = MultivariateT(R @ dist.location, R @ dist.scale @ R.T, dist.df)
        centred = _apex_at_location(law, [(np.eye(q), r)])
        if q <= 3 and centred:
            return ProbEstimate(_centred_orthant_prob(law.scale), 0.0, True, 0)
        if n_draws >= _SHIFTS:
            return _lattice_prob(law, r, n_draws, seed, centred)
    return mc_union_prob(dist, [(R, r)], n_draws, seed)


def _first_primes(n):
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return np.array(primes, dtype=float)


def _lattice_prob(dist: MultivariateT, r, n_draws, seed, centred) -> ProbEstimate:
    """Quasi-Monte Carlo estimate of ``Pr(Y > r)`` for ``Y ~ dist``, q >= 2.

    Genz-Bretz separation of variables (Genz 1992, JCGS 1; Genz and Bretz
    2009, LNS 195).  The rows are sorted by standardised bound
    ``a = (r - mu) / sd``, largest (least likely) first, and ``L`` is the
    Cholesky factor of their correlation.  Then ``Y > r`` reads
    ``L z > s a`` for standard normals ``z`` and the radial factor
    ``s = sqrt(w / df)``, ``w ~ chi-square(df)``, drawn as
    ``sqrt(2 gammaincinv(df/2, u) / df)``.  Given ``s`` and the earlier
    ``z``, row ``i`` holds with probability ``e_i = Phi(-c_i)`` and ``z_i``
    is drawn above ``c_i`` as ``-Phi^-1(e_i (1 - u_i))``, so the integrand
    is ``prod e_i`` over the unit cube of ``s, z_1, ..., z_{q-1}``.  A
    ``centred`` cone has ``a = 0`` and drops ``s``: its estimate does not
    depend on df.

    The points of shift ``k`` are ``|2 frac(i sqrt(p_j) + shift_kj) - 1|``
    (Richtmyer's generator, one prime ``p_j`` per coordinate, folded by
    the baker's transform) for ``i = 1, 2, ...``, with ``_SHIFTS`` uniform
    shifts drawn from ``seed``; the standard error is the spread of the
    shift means.  Points per shift double from ``_LATTICE_BLOCK`` until
    that error is at most the binomial one of ``n_draws`` draws,
    ``sqrt(p(1-p)/n_draws)``, or until the next block would pass
    ``n_draws`` points in all.  ``n_draws`` of the estimate counts the
    points used.
    """
    n_draws = int(n_draws)
    q = dist.dim
    sd = np.sqrt(np.diag(dist.scale))
    a = np.zeros(q) if centred else (r - dist.location) / sd
    order = np.argsort(-a, kind="stable")
    a, sd = a[order], sd[order]
    L = _cholesky(dist.scale[np.ix_(order, order)] / np.outer(sd, sd))
    dims = q - 1 if centred else q
    alpha = np.sqrt(_first_primes(dims))
    shifts = rng_from_seed(seed).random((dims, _SHIFTS, 1))

    def integrand(i):
        """Values at points ``i`` of every shift, shape (_SHIFTS, len(i))."""
        u = np.abs(2.0 * ((i * alpha[:, None, None] + shifts) % 1.0) - 1.0)
        s = 0.0
        if not centred:
            w = 2.0 * gammaincinv(0.5 * dist.df, np.minimum(u[-1], 1.0 - _EPS))
            s = np.sqrt(w / dist.df)
        z = np.empty((q - 1, _SHIFTS, i.size))
        prob = np.ones((_SHIFTS, i.size))
        for row in range(q):
            c = (s * a[row] - np.tensordot(L[row, :row], z[:row], axes=1)) / L[row, row]
            e = ndtr(-c)
            prob *= e
            if row < q - 1:
                z[row] = -ndtri(np.maximum(e * (1.0 - u[row]), _TINY))
        return prob

    sums = np.zeros(_SHIFTS)
    step = _CHUNK // _SHIFTS
    done, n = 0, min(_LATTICE_BLOCK, n_draws // _SHIFTS)
    while True:
        for start in range(done, n, step):
            sums += integrand(np.arange(start + 1, min(n, start + step) + 1.0)).sum(axis=1)
        means = sums / n
        p = float(means.mean())
        se = float(means.std(ddof=1)) / math.sqrt(_SHIFTS)
        if se <= math.sqrt(p * (1.0 - p) / n_draws) or 2 * n * _SHIFTS > n_draws:
            return ProbEstimate(p, se, False, n * _SHIFTS)
        done, n = n, 2 * n


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


def mc_union_prob(dist: MultivariateT, systems, n_draws, seed) -> ProbEstimate:
    """Monte Carlo estimate of ``Pr(R xi > r for some (R, r) in systems)``.

    Every system is checked on the same ``n_draws`` draws of ``xi ~
    dist``.  When every system's apex sits at the location, the draws are
    the Gaussian parts ``z L'`` alone and a hit is ``R y > 0``.  The
    estimate carries the binomial standard error.
    """
    n_draws = int(n_draws)
    if n_draws < 1:
        raise InvalidInputError("n_draws must be at least 1")
    centred = _apex_at_location(dist, systems)
    hits = 0
    for chunk in _sample_chunks(dist, n_draws, seed, centred):
        sat = np.zeros(chunk.shape[0], dtype=bool)
        for R, r in systems:
            y = chunk @ R.T
            sat |= np.all(y > (0.0 if centred else r), axis=1)
        hits += int(sat.sum())
        del chunk, y
    p = hits / n_draws
    return ProbEstimate(p, math.sqrt(p * (1.0 - p) / n_draws), False, n_draws)
