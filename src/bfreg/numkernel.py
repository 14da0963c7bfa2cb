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
are read from SHAKE-256 of its seed (:func:`_shifts`), and every stream
of a larger computation has its own seed, the BLAKE2b hash of the user
seed and the stream's path (:func:`derived_seed`); no numpy generator is
involved.  The hashes are those of the standard, the same on every
platform and in every process, so the contract is: same seed + same
budget -> identical estimate, bit for bit.

Probability estimates
---------------------
:func:`_path` is where the estimation path of a region probability is
chosen, for :func:`mvt_constraint_prob` and every term of
:func:`complement_prob` alike.  The rows are taken under the
transformed law of ``R xi``, whose correlation has one lower factor
(:func:`_factor`): a row whose residual variance given the rows before
it is at most ``_DEPENDENT`` depends on them, shares their column of the
factor and bounds it from above or below (Genz and Kwong 2000).  That
factor is the only rank rule.

- closed form: one to three rows through the location, of any rank,
  before any rank rule, from the angles between the rows in the factor
  of the law's scale (:func:`_centred_cone_prob`, below);
- exact interval: rows of rank 1, a single row among them, which bound
  one t variable, by the univariate t CDF (:func:`t_cdf`, in Python
  floats up to 5000 df);
- Plackett's reduction: four or five rows through the location, of full
  rank, each of residual variance at least ``_PLACKETT_MIN_VAR`` given
  the others, as a one-dimensional integral of the closed forms, to
  about 1e-12 relative (:func:`_centred_orthant_prob`);
- angular rule: any other rows of rank 2, exact to rounding, as a
  one-dimensional integral over the angle of a ray in the plane of the
  factor's columns (:func:`_angular_prob`);
- trivariate rule: three rows of rank 3 off the location.  A row whose t
  tail is at most ``eps/4`` of the other two rows' exact probability
  holds to rounding and is dropped, and the pair takes its path (the
  angular rule, or the interval).  Otherwise, at df of at least
  ``_TRIVARIATE_MIN_DF`` and on rows that pass the cut-over of
  ``_PLACKETT_MIN_VAR``, Plackett's identity along a path of
  correlations gives the probability as a radial integral plus
  one-dimensional integrals of closed forms (:func:`_trivariate_prob`),
  to about 1e-12 relative, unless its parts cancel by more than
  ``_CANCELLATION``;
- QMC: any other system of rank 3 or more is estimated by Genz-Bretz
  separation of variables on randomly shifted lattice points
  (:func:`_lattice_prob`).
  The radial chi coordinate of a cone off the location is the
  Wilson-Hilferty cube of a normal quantile, and each point is weighted
  by the ratio of the exact law to that map's (:func:`_radial`).  The
  estimate is ``sum omega prod e_j / sum omega`` pooled over all points,
  with the delta-method standard error over the shifts
  (:func:`_pooled_ratio`), so a shift whose weights are all 0 leaves it
  finite.  A budget below one point per shift takes one point on each of
  fewer shifts.  The integrand works in place, with signs moved where
  rounding leaves them exact, and gives the bits of the formula as
  written: its time goes to ``ndtr`` and ``ndtri``.

Only the lattice, the trivariate rule, the t CDF of an array and that of
a scalar above 5000 df use ``scipy.special``, which they import on first
use: importing the package loads no scipy, and a process whose estimates
are all exact by the other paths at df up to 5000 never does (a cold
``import scipy.special`` costs more than the rest of a small analysis).
The Gauss-Legendre nodes of the exact rules, and the Gauss-Laguerre
nodes of the trivariate rule's radial integral at each df, are built on
first use (:func:`_gauss_legendre`, :func:`_radial_rule`).

A region probability needs the scale of the law to be positive
semidefinite only: a singular scale makes some rows dependent, and a
row of variance 0 holds everywhere or nowhere.  Among several rows, one
such row that fails makes the estimate an exact 0, and rows that all
hold leave the others to be estimated.  A row variance below
``-_DEPENDENT`` relative to ``|R| |S| |R|'`` (which bounds its
roundoff), a residual variance below ``-_DEPENDENT``, or a factor that
does not return the correlation raises
:class:`~bfreg.errors.DecompositionError`.

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
share the budget; a route whose terms do not fit it is skipped.  A
term's row that another of its rows implies (a positive multiple with a
bound no tighter) is left out of it.  What depends on the rows alone
(the signed table of rows, their parallel pairs and pieces, the
disjoint systems and the union's prior center, computed when the table
is made, and the terms of each pivot set, on first use) is worked out
once per distinct row content and kept, for the last ``_TABLES``
contents, in a read-only :class:`_Table`.  Only the estimates depend on
the law, the seed and the budget.  The pair tests, the prior center and
the test of rows through the location are those of :mod:`bfreg.hyparse`,
which owns every fact about constraint rows, so the parser and the
kernel decide them alike.

A complement term left to the lattice need not be sampled when it
cannot move the sum.  For any ``lam >= 0`` over its rows, ``lam' Y``
is a univariate t, so the term is at most the t tail at the distance
``lam' (r - R mu) / sqrt(lam' R S R' lam)``; coordinate ascent in
Python floats finds the ``lam`` of the Mahalanobis distance from the
location to the region (:func:`_half_space_bound`).  A term whose bound
is at most ``_NEGLIGIBLE`` of the smallest target its sum can set
waits, unstarted, and is taken as 0 when the waiting terms' bounds sum
to at most ``_NEGLIGIBLE`` of the larger of the other terms' combined
standard error and ``_NEGLIGIBLE`` of the sum's value; that sum then
joins the error.  Otherwise it is estimated like the others
(:func:`_term_sum`).  The value's share is there for sums whose other
terms are exact and leave no error to compare with.  A waiting term's
bound is no sampling variance, so it does not count when the subtracted
terms' variance is weighed against the added ones'.  Every term starts
in one place, on its path computed at most once, whether it starts at
once, after waiting, or when its ``known`` estimate misses its target.
On the benchmark's ``order-mc``, the complement's posterior factor sums
three exact pieces (the last by the trivariate rule) and six lattice
terms beyond 1e-12, which wait: it takes no lattice point, and its
standard error is the sum of their bounds, about 1e-5 of its value.

Every path takes the rows it is given as they are.  Deciding rows the
equalities leave without coefficient content, and dropping rows another
implies, is the job of the cached equality reduction
(:attr:`bfreg.hyparse.ConstraintSystem.reduction`), whose live rows are
what the engine passes.

A cone whose apex is the location of the law (every row passes through
it by :func:`bfreg.hyparse._through`, the rule that also decides whether
a prior center is exact, so the prior factor of every hypothesis whose
center is exact, and of no other, is one) has the same probability under
every elliptical law, whatever the df: the Gaussian orthant probability
of the correlation of ``R S R'``.  With one to three rows that probability is
exact (Sheppard's and Plackett's formulas, which hold for a singular
correlation too).  Their angles are taken from the rows times the
Cholesky factor of the law's scale, not from ``R S R'``: two rows whose
coefficients' scales differ by 1e5 are near dependence, and forming
``R S R'`` loses half the digits of their ``1 - rho^2``.  Four or five
rows of full rank that pass the cut-over of ``_PLACKETT_MIN_VAR`` are
exact to about 1e-12 relative (Plackett's reduction to a
one-dimensional integral of those formulas).  With more, of rank 2, the
angular rule gives the arc of the circle the cone cuts, and otherwise
the lattice rule drops its radial coordinate, so the estimate does not
depend on df.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import DecompositionError, InvalidInputError, NumericError
from .hyparse import _parallel_pairs, _through, _unimplied, prior_center

# The lattice evaluates its points in chunks of at most this many to bound
# memory.  The chunks set the order of summation, so the size must stay
# constant for an estimate to reproduce to the bit.
_CHUNK = 1 << 18

_EPS = float(np.finfo(float).eps)

# The lattice rule of the transformed path: _SHIFTS independent random
# shifts give the delta-method standard error of the pooled ratio, and the
# points per shift double from _LATTICE_BLOCK, so blocks hold 1024 * 2**j
# points.  An error divided by a standard error from S shifts follows
# Student's t with S - 1 df: for the mean of the shift ratios, which the
# pooled ratio equals on a centred cone and to second order elsewhere,
# with 16 shifts 6e-4 of the estimates landed beyond 4.5 standard errors,
# with 64 none of 10000 did.
_SHIFTS = 64
_LATTICE_BLOCK = 16
_TINY = float(np.finfo(float).tiny)
_BELOW_ONE = 1.0 - _EPS / 2.0

# The kernel's one rank rule (:func:`_factor`): a row of the correlation
# whose residual variance, given the rows before it, is at most
# _DEPENDENT depends on them and gets no column of its own (a residual
# standard deviation of 1e-5).  Roundoff leaves its coefficients on later
# columns near eps / 1e-5 = 2e-11, so the last coefficient above
# _NONZERO is the column it bounds.  A residual variance below
# -_DEPENDENT is no roundoff: the scale is not positive semidefinite.
_DEPENDENT = 1e-10
_NONZERO = 1e-8

# A complement is a sum of at most this many lattice terms in the worst
# case; a route with more is skipped.
_MAX_TERMS = 4096

# Tables of row structure (:func:`_table`) kept, for the most recently used
# distinct row contents.
_TABLES = 128

# A complement term left to the lattice waits, unstarted, while its
# half-space bound is at most _NEGLIGIBLE of the smallest standard error
# target its sum can set, and is taken as 0 when the waiting terms' bounds
# sum to at most _NEGLIGIBLE of the larger of the other terms' combined
# standard error and _NEGLIGIBLE of the sum's value, and the sum then joins
# the error: it grows by a factor of at most sqrt(1 + _NEGLIGIBLE^2) =
# 1.00005, or comes to at most 1e-4 of the value (:func:`_term_sum`).
_NEGLIGIBLE = 1e-2

# The bound's coordinate ascent (:func:`_half_space_bound`) takes steps
# over-relaxed by _BOUND_RELAX and stops after _BOUND_SWEEPS sweeps, or
# once a sweep raises its objective by at most _BOUND_GAIN of it: on the
# far-tail complement terms of order-mc (6 to 8 rows of rank 6) it came
# within 1e-4 of the distance in 5 to 12 sweeps, where plain ascent took
# 4 to 38.  The ratio it gives is shrunk by _BOUND_SHRINK, which
# raises a tail T(-t) at t >= 1 by more than 1e-10 relative, far above the
# 1e-12 relative error of t_cdf.
_BOUND_RELAX = 1.5
_BOUND_SWEEPS = 16
_BOUND_GAIN = 1e-4
_BOUND_SHRINK = 1e-9


def _key(seed, path=()):
    """The words of ``(seed, *path)``, each taken modulo 2**64, packed as
    8 bytes little-endian: the message's length fixes the path's, so a
    path and the same path with a trailing 0 differ."""
    return b"".join((int(x) % (1 << 64)).to_bytes(8, "little") for x in (seed, *path))


def derived_seed(seed, *path):
    """Deterministically derive an independent child seed from ``seed``:
    the 64-bit BLAKE2b hash of ``(seed, *path)`` (:func:`_key`).

    Used to give every estimate in a larger computation its own
    reproducible stream.
    """
    import hashlib  # on first use, so that importing bfreg does not load it

    return int.from_bytes(hashlib.blake2b(_key(seed, path), digest_size=8).digest(), "little")


def _shifts(seed, dims):
    """The lattice's ``(dims, _SHIFTS)`` uniform shifts in [0, 1) for
    ``seed``: 53-bit uniforms ``(u >> 11) 2^-53`` of the 64-bit words
    ``u`` of SHAKE-256 of :func:`_key` of ``seed``.  A shift's
    coordinates do not depend on how many shifts a call takes."""
    import hashlib

    words = np.frombuffer(hashlib.shake_256(_key(seed)).digest(8 * dims * _SHIFTS), "<u8")
    return (words >> 11).astype(float).reshape(dims, _SHIFTS) * 2.0**-53


@dataclass(frozen=True)
class MultivariateT:
    """Multivariate Student-t distribution in the scale-matrix convention.

    Attributes
    ----------
    location : ndarray, shape (d,)
    scale : ndarray, shape (d, d)
        Symmetric scale matrix (see module notes; this is not the
        covariance).  Region probabilities need it positive
        semidefinite; the density needs it positive definite.
    df : float
        Degrees of freedom, > 0.
    """

    location: np.ndarray
    scale: np.ndarray
    df: float

    def __post_init__(self):
        loc = _location(self.location)
        S = np.asarray(self.scale, dtype=float)
        if S.ndim == 0:
            S = S.reshape(1, 1)
        d = loc.shape[0]
        if S.shape != (d, d):
            raise InvalidInputError(
                f"scale has shape {S.shape}, expected ({d}, {d})"
            )
        _check_law(loc, S)
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
        """Same scale and df, new location.

        Only the location is checked, as the constructor checks it: the
        scale and df are this law's, which were checked when it was made."""
        loc = _location(new_location)
        if loc.shape != self.location.shape:
            raise InvalidInputError(
                f"location has shape {loc.shape}, expected {self.location.shape}"
            )
        if not np.isfinite(loc).all():
            raise InvalidInputError("non-finite distribution parameters")
        law = object.__new__(type(self))
        law.__dict__.update(location=loc, scale=self.scale, df=self.df)
        return law


def _check_law(loc, S):
    """Raise :class:`InvalidInputError` unless the location ``loc`` and the
    scale ``S`` are finite and ``S`` is symmetric."""
    size = float(np.abs(S).max(initial=0.0))  # not finite when S is not
    if not (np.isfinite(loc).all() and math.isfinite(size)):
        raise InvalidInputError("non-finite distribution parameters")
    if not np.abs(S - S.T).max(initial=0.0) <= 1e-8 * max(size, 1.0):
        raise InvalidInputError("scale matrix must be symmetric")


def _location(x):
    """``x`` as a float vector, a scalar as one of length 1."""
    loc = np.asarray(x, dtype=float)
    if loc.ndim == 0:
        return loc.reshape(1)
    if loc.ndim != 1:
        raise InvalidInputError("location must be a vector")
    return loc


@dataclass(frozen=True)
class ProbEstimate:
    """A probability with its estimation pedigree.

    ``exact`` estimates carry ``std_error == 0`` and ``n_draws == 0``.
    Every other estimate is a lattice (QMC) rule over ``n_draws`` points
    in all, one weighted ratio pooled over them, and carries the
    delta-method standard error of that ratio over its independent random
    shifts, which is positive: where the shifts show no spread it is that
    of one hit in the budget (:func:`_one_hit_se`).  A complement sums
    lattice terms: ``n_draws`` counts every point it evaluated and its
    standard error combines those of its terms with the sum of the
    half-space bounds of the far-tail terms it took as 0, unsampled
    (:func:`_term_sum`).
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
        ``lgamma((nu+d)/2) - lgamma(nu/2) - (d/2) log(nu pi)
        - (1/2) log|S| - ((nu+d)/2) log(1 + quad/nu)``, whose gamma ratio
        is taken by :func:`_log_gamma_ratio`, not as a difference.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dist.dim,):
        raise InvalidInputError(
            f"point has shape {x.shape}, expected ({dist.dim},)"
        )
    if not np.isfinite(x).all():
        raise InvalidInputError("evaluation point contains non-finite entries")
    L = _cholesky(dist.scale)
    z = np.linalg.solve(L, x - dist.location)
    quad = float(z @ z)
    d, df = dist.dim, dist.df
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(
        _log_gamma_step(0.5 * df, d)
        - 0.5 * d * math.log(df * math.pi)
        - 0.5 * logdet
        - 0.5 * (df + d) * math.log1p(quad / df)
    )


def _log_gamma_ratio(a) -> float:
    """``log Gamma(a + 1/2) - log Gamma(a)`` for ``a > 0``.

    From its asymptotic series at ``a >= 16``, ``log(a) / 2 - 1/(8 a) +
    1/(192 a^3) - 1/(640 a^5) + 17/(14336 a^7) - 31/(18432 a^9)``, whose
    next term is below 4e-3 / a^11; below that, shifted up by ``Gamma(a +
    3/2) / Gamma(a + 1) = (a + 1/2) / a * Gamma(a + 1/2) / Gamma(a)``.
    The difference of ``lgamma`` values loses ``eps lgamma(a)``, 1e-12 at
    ``a`` near 500."""
    a = float(a)
    shift = 0.0
    while a < 16.0:
        shift += math.log1p(0.5 / a)
        a += 1.0
    x = 1.0 / a
    x2 = x * x
    series = x * (-1 / 8 + x2 * (1 / 192 + x2 * (-1 / 640 + x2 * (17 / 14336 - x2 * 31 / 18432))))
    return 0.5 * math.log(a) + series - shift


def _log_gamma_step(a, d) -> float:
    """``log Gamma(a + d/2) - log Gamma(a)`` for an integer ``d >= 0``: a
    sum of logs, and :func:`_log_gamma_ratio` for the half step of odd
    ``d``."""
    m, odd = divmod(int(d), 2)
    start = a + 0.5 if odd else a
    out = _log_gamma_ratio(a) if odd else 0.0
    return out + sum(math.log(start + k) for k in range(m))


def t_cdf(x, df):
    """CDF of the standard univariate Student-t: a float for a scalar ``x``,
    else an array of its shape.

    A scalar at df up to ``_CF_DF_MAX`` is evaluated in Python floats by
    :func:`_t_tail`, to within 1e-12 relative of ``scipy.special.stdtr``
    at df 0.01 to 5000 for ``|x| <= 1e3`` (at most 5e-13 over a grid of
    those, in a tail near 1e-255, and it grows with df: the continued
    fraction takes ``x = df / (df + t^2)`` near 1 rounded, which costs
    ``df eps`` relative), and within 1e-14 of the Cauchy closed form at
    df 1, where ``stdtr`` loses up to 3e-9 near 0: ``t_cdf(-5e-9, 1)`` is
    0.5 - 1.59e-9.  An array, or a scalar at a larger df, goes to
    ``stdtr``, imported on first use: a vectorised continued fraction
    costs far more per call than ``stdtr`` (the exploratory screen is one
    such call, for both signs of every coefficient).  Saturates at 0/1 for
    infinite arguments.  The complement identity ``t_cdf(z) + t_cdf(-z) ==
    1`` holds exactly in floating point by construction.
    """
    df = float(df)
    if not (df > 0 and math.isfinite(df)):
        raise InvalidInputError("df must be a positive finite number")
    scalar = np.ndim(x) == 0
    x = float(x) if scalar else np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise InvalidInputError("t_cdf argument is NaN")
    if scalar and df <= _CF_DF_MAX:
        p = _t_tail(abs(x), df)
        return 1.0 - p if x >= 0.0 else p
    from scipy.special import stdtr

    p = stdtr(df, -np.abs(x))
    out = np.where(x >= 0.0, 1.0 - p, p)
    return float(out) if scalar else out


# The continued fraction of the incomplete beta function stops once a step
# changes it by at most _CF_EPS; it converged within 60 steps everywhere
# its tests look.  Above _CF_DF_MAX degrees of freedom the t CDF of a
# scalar goes to stdtr, where the continued fraction would lose more than
# 1e-12 to the rounding of its argument.
_CF_EPS = 1e-16
_CF_STEPS = 500
_CF_DF_MAX = 5000.0


def _t_tail(t, df) -> float:
    """``Pr(T <= -t)`` for ``t >= 0`` and ``T`` a standard t with ``df``
    degrees of freedom, in Python floats.

    It is ``I_x(df/2, 1/2) / 2`` with ``x = df / (df + t^2)``, the
    regularized incomplete beta function taken by its continued fraction
    (:func:`_beta_cf`) as ``I_x(a, b)`` when ``x < (a + 1) / (a + b + 2)``
    and as ``1 - I_y(b, a)``, ``y = t^2 / (df + t^2)``, otherwise, where
    each converges fast (Numerical Recipes' ``betai``).  The prefactor
    ``x^a y^b / B(a, b)`` is taken in logs, with ``log x = -log1p(t^2 /
    df)``, ``log y = -log1p(df / t^2)`` and ``log B(a, 1/2) = log(pi) / 2
    - log Gamma(a + 1/2) / Gamma(a)`` (:func:`_log_gamma_ratio`)."""
    if t == 0.0:
        return 0.5
    if t == math.inf:
        return 0.0
    a, r, x, log_front = _tail_front(t, df)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_cf(a, 0.5, x) / a
    return 0.5 - front * _beta_cf(0.5, a, 1.0 / (1.0 + r))


def _log_t_tail(t, df) -> float:
    """``log Pr(T <= -t)`` for ``t > 0``, finite where the tail itself
    underflows to 0 (``stdtr`` does below about 5e-324).  In the tail, where
    :func:`_t_tail` takes ``I_x(df/2, 1/2)`` directly, it is the log of
    that prefactor plus the log of its continued fraction; nearer 0, the
    log of :func:`_t_tail`."""
    a, _, x, log_front = _tail_front(t, df)
    if x < (a + 1.0) / (a + 2.5):
        return log_front + math.log(0.5 * _beta_cf(a, 0.5, x) / a)
    return math.log(_t_tail(t, df))


def _tail_front(t, df) -> tuple:
    """``(a, r, x, log_front)`` of :func:`_t_tail` at ``t > 0``: ``a =
    df/2``, ``r = x / y``, ``x`` and the log of the prefactor ``x^a y^(1/2)
    / B(a, 1/2)``."""
    a = 0.5 * df
    r = df / t / t  # x / y, without squaring t
    if sys.float_info.min <= r < math.inf:
        log_x, log_y = -math.log1p(1.0 / r), -math.log1p(r)
    else:  # t^2 / df outside the range of normal floats
        log_r = math.log(df) - 2.0 * math.log(t)
        log_x, log_y = min(log_r, 0.0), min(-log_r, 0.0)
    log_front = a * log_x + 0.5 * log_y + _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
    x = r / (1.0 + r) if r < 1.0 else 1.0 / (1.0 + 1.0 / r)
    return a, r, x, log_front


def _beta_cf(a, b, x) -> float:
    """The continued fraction of ``I_x(a, b) a B(a, b) / (x^a (1 - x)^b)``
    by the modified Lentz method (Numerical Recipes, section 6.4)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _CF_STEPS):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= _CF_EPS:
            return h
    raise NumericError(f"the t CDF did not converge (x={x}, a={a}, b={b})")


def mvt_constraint_prob(dist: MultivariateT, R, r, n_draws, seed) -> ProbEstimate:
    """Estimate ``Pr(R xi > r)`` for ``xi ~ dist``.

    The path is chosen by :func:`_path`: one to three rows through the
    location (by :func:`bfreg.hyparse._through`, as for the prior factor
    of every hypothesis whose center is exact) are a closed form, rows of
    rank 1, a single row among them, an exact interval of the univariate
    t CDF, four or five through the location of full rank and well
    conditioned Plackett's reduction (:func:`_centred_orthant_prob`),
    other rows of rank 2 the exact angular rule of :func:`_angular_prob`,
    and three rows of rank 3 off the location, within the gates of df,
    conditioning and cancellation, the exact trivariate rule of
    :func:`_trivariate_prob`, after a row that holds to rounding is
    dropped.  Every other system of rank 3 or more takes the lattice rule
    of :func:`_lattice_prob`, a weighted ratio pooled over all its points
    with a delta-method standard error, which stops once that error is at
    most the binomial one of ``n_draws`` draws and never uses more than
    ``n_draws`` points.  A lattice estimate whose shifts show no spread
    (every point 0, say, in a far tail) carries the standard error of one
    hit in ``n_draws`` instead of 0.  The rows are taken as given (see
    the module notes).
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if R.ndim != 2 or not np.isfinite(R).all():
        raise InvalidInputError("constraint matrix must be a finite 2-d array")
    if R.shape[1] != dist.dim:
        raise InvalidInputError(
            f"constraint matrix has {R.shape[1]} columns, expected {dist.dim}"
        )
    if r.shape != (R.shape[0],):
        raise InvalidInputError("constraint bound has the wrong length")
    if not np.isfinite(r).all():
        raise InvalidInputError("constraint bound contains non-finite entries")
    if n_draws < 1:
        raise InvalidInputError("n_draws must be at least 1")

    for est in _blocks(_path(dist, R, r), seed, n_draws):
        if est.exact or _resolved(est, n_draws):
            break
    if est.exact or est.std_error > 0.0:
        return est
    return replace(est, std_error=_one_hit_se(n_draws))


class _Lattice:
    """A region left to :func:`_lattice_prob`: ``Pr(Y > a)`` for a
    standardised t ``Y`` with ``df`` degrees of freedom and correlation
    ``C``, and the factor of ``C`` (:func:`_factor`) when it is known.  A
    plain class: a dataclass would cost a cold process about 1 ms to
    create."""

    __slots__ = ("a", "C", "df", "factor")

    def __init__(self, a, C, df, factor=None):
        self.a, self.C, self.df, self.factor = a, C, df, factor


def _path(dist: MultivariateT, R, r):
    """The estimation path of ``Pr(R xi > r)``: an exact
    :class:`ProbEstimate`, or the :class:`_Lattice` it is left to.  This
    and :func:`_standard_path`, which it ends in, are the one place where
    the path of a region probability is chosen.

    Rows of variance 0 under the scale are constants: one that fails
    gives an exact 0, and if all hold the other rows take their path.  One
    to three rows through the location (by :func:`bfreg.hyparse._through`
    on ``R mu``, the rule of the prior center's ``exact`` flag), of any
    rank, are exact in closed form (:func:`_centred_cone_prob`) on
    the rows times the Cholesky factor of the scale, before any rank rule:
    rows near dependence keep the digits of their angle, and a row and a
    positive multiple of it read exactly 1/2.  Otherwise the rows are taken under
    the law ``Y`` of ``R xi``: they are sorted by standardised bound ``a =
    (r - mu) / sd``, largest (least likely) first, and their correlation
    is factored by :func:`_factor`, whose rank decides the rest.  Rows of
    rank 1, a single row among them, bound one t variable and are exact,
    the interval between their largest lower and smallest upper cut.
    Four or five rows through the location of full rank whose every row
    has a residual variance given all the others (``1 / max diag C^-1``)
    of at least ``_PLACKETT_MIN_VAR`` are exact by Plackett's reduction
    (:func:`_centred_orthant_prob`); that cut-over reads the same in every
    row order.  Any other system of rank 2 is exact by the angular rule of
    :func:`_angular_prob`.  Three rows of rank 3 off the location first
    drop a row whose t tail (one ``stdtr`` call for all three) is at most
    ``eps/4`` of the other two rows' exact probability, which the pair then
    returns: the three rows' probability lies within that tail below it.
    Otherwise, at df of at least ``_TRIVARIATE_MIN_DF`` and on rows that
    pass the cut-over of ``_PLACKETT_MIN_VAR``, they are exact by the
    trivariate rule of :func:`_trivariate_prob` unless its parts cancel by
    more than ``_CANCELLATION``.  Each gate keeps the rule where its error
    table stays below 1e-12 relative.  Any other system is left to the
    lattice.  More than three rows whose first three have rank 3 by that
    factor, and that are not four or five through the location, are left
    to it unfactored: the factor is taken when the lattice starts, which
    a complement term whose bound is negligible never does
    (:func:`_term_sum`), and for rows of rank below the full, such as a
    chain with an orthant, it costs more than the bound.
    """
    q = R.shape[0]
    df, mu, S = dist.df, R @ dist.location, R @ dist.scale @ R.T
    _check_law(mu, S)  # the law of R xi, checked as MultivariateT would
    var = np.diagonal(S)
    if not (var > 0.0).all():
        _check_variances(R, dist.scale, var)
        const, hold = var <= 0.0, mu > r
        if const.all() or not hold[const].all():
            return ProbEstimate(float(hold[const].all()), 0.0, True, 0)
        return _path(dist, R[~const], r[~const])
    sd = np.sqrt(var)
    centred = bool(_through(R, r, dist.location, mu).all())
    if centred and q <= 3:
        try:  # the rows in coordinates where the scale is the identity
            M = R @ np.linalg.cholesky(dist.scale)
        except np.linalg.LinAlgError:  # a singular scale
            M = _factor(S / (sd[:, None] * sd))[0]
        return ProbEstimate(_centred_cone_prob(M), 0.0, True, 0)
    a = np.zeros(q) if centred else (r - mu) / sd
    order = np.argsort(-a, kind="stable")
    a, sd = a[order], sd[order]
    return _standard_path(a, S[order][:, order] / (sd[:, None] * sd), df, centred)


def _standard_path(a, C, df, centred):
    """The path of ``Pr(Y > a)`` for a standardised t ``Y`` with ``df``
    degrees of freedom and correlation ``C``, its rows sorted by bound,
    largest first, and ``centred`` when every bound is at the location
    (more than three rows): the part of :func:`_path` that reads the
    standardised rows alone, so that a row dropped from three takes it on
    the other two."""
    q = len(a)
    if q > 3 and not (centred and q <= 5) and _factor(C[:3, :3])[0].shape[1] == 3:
        return _Lattice(a, C, df)  # of rank 3 or more: factored when it starts
    L, col = _factor(C)
    rank = L.shape[1]
    if rank == 1:
        cuts = a / L[:, 0]
        low = L[:, 0] > 0.0
        lo = float(cuts[low].max())
        hi = float(cuts[~low].min(initial=math.inf))
        p = t_cdf(-lo, df) - t_cdf(-hi, df)
        return ProbEstimate(max(p, 0.0), 0.0, True, 0)
    if centred and q <= 5 and rank == q and _well_conditioned(C):
        return ProbEstimate(_centred_orthant_prob(C), 0.0, True, 0)
    if rank == 2:
        return ProbEstimate(_angular_prob(a, L, df), 0.0, True, 0)
    if q == 3:  # three rows of rank 3 off the location
        tails = t_cdf(np.concatenate([a, -a]), df).tolist()  # one stdtr call
        fail, hold = tails[:3], tails[3:]
        for k in (2, 1, 0):  # the row least likely to fail first
            rest = [m for m in range(3) if m != k]
            if fail[k] <= 0.25 * _EPS * min(hold[m] for m in rest):
                other = _standard_path(a[rest], C[np.ix_(rest, rest)], df, False)
                if fail[k] <= 0.25 * _EPS * other.value:  # row k holds to rounding
                    return other
        if df >= _TRIVARIATE_MIN_DF and _well_conditioned(C):
            p = _trivariate_prob(a, C, df)
            if p is not None:
                return ProbEstimate(p, 0.0, True, 0)
    return _Lattice(a, C, df, (L, col))


def _well_conditioned(C) -> bool:
    """Whether every row of the correlation ``C`` has a residual variance
    given all the others, ``1 / max diag C^-1``, of at least
    ``_PLACKETT_MIN_VAR``; that reads the same in every row order."""
    return 1.0 / np.linalg.inv(C).diagonal().max() >= _PLACKETT_MIN_VAR


def _blocks(path, seed, cap):
    """The estimates on a :func:`_path`: the exact one alone, or the blocks
    of :func:`_lattice_prob`."""
    if isinstance(path, ProbEstimate):
        return iter((path,))
    L, col = path.factor or _factor(path.C)
    return _lattice_prob(path.a, L, col, path.df, seed, cap)


def _check_variances(R, S, var):
    """Raise :class:`DecompositionError` when the variance ``var`` of a row
    of ``R`` under the scale ``S`` is below ``-_DEPENDENT`` relative to
    ``|R| |S| |R|'``, which bounds its roundoff: ``S`` is then not positive
    semidefinite.  A row whose variance roundoff can explain is singular."""
    A = np.abs(R)
    if (var < -_DEPENDENT * ((A @ np.abs(S)) * A).sum(axis=1)).any():
        raise DecompositionError("scale matrix is not positive semidefinite")


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


def _factor(C):
    """Lower factor of a positive semidefinite correlation ``C`` over its
    independent rows.

    Rows are taken in order (Genz and Kwong 2000, JSCS 68; Genz and
    Bretz 2009, LNS 195, section 4.1).  A row whose residual variance
    given the rows before it exceeds ``_DEPENDENT`` opens a column; any
    other row gets no column and bounds the last one on which its
    coefficient is nonzero.  Returns the ``(q, rank)`` factor ``L`` with
    ``L L' = C`` and, for each row, the column it bounds.  When every row
    opens a column this is the Cholesky factor, which is taken as such.

    ``C`` is not positive semidefinite, and :class:`DecompositionError`
    is raised, when a residual variance is below ``-_DEPENDENT`` or when
    ``L L'`` misses ``C`` by more than a dependent row can: its residual
    standard deviation, at most ``sqrt(_DEPENDENT)``, plus the
    coefficients below ``_NONZERO`` that it drops.
    """
    q = C.shape[0]
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        pass
    else:
        if (np.diagonal(L) ** 2 > _DEPENDENT).all():
            return L, np.arange(q)
    L = np.zeros((q, q))
    col = np.empty(q, dtype=int)
    pivots = []
    for i in range(q):
        m = len(pivots)
        for c, p in enumerate(pivots):
            L[i, c] = (C[i, p] - L[i, :c] @ L[p, :c]) / L[p, c]
        v = C[i, i] - L[i, :m] @ L[i, :m]
        if not v >= -_DEPENDENT:
            raise DecompositionError("scale matrix is not positive semidefinite")
        if v > _DEPENDENT:
            L[i, m] = math.sqrt(v)
            col[i] = m
            pivots.append(i)
        else:
            col[i] = np.flatnonzero(np.abs(L[i, :m]) > _NONZERO)[-1]
            L[i, col[i] + 1 :] = 0.0
    L = L[:, : len(pivots)]
    if np.abs(L @ L.T - C).max() > math.sqrt(_DEPENDENT) + q * _NONZERO:
        raise DecompositionError("scale matrix is not positive semidefinite")
    return L, col


# The angular rule of :func:`_angular_prob`: on each piece of the circle,
# Gauss-Legendre rules of _ANGULAR_NODES nodes on subintervals halving
# toward both ends _ANGULAR_DEPTH times, the innermost two mapped by the
# power _ANGULAR_POWER.  Against a far finer rule (30 nodes on subintervals
# shrinking by 1.5 down to 1.5^-60), its worst relative error over 300
# random rank-2 systems (2-4 rows, df 0.5 to 996, probabilities down to
# 1e-39) was 1e-13; with 10 nodes or 6 halvings it was 1.5e-11 and 5e-8.
_ANGULAR_NODES = 12
_ANGULAR_DEPTH = 8
_ANGULAR_POWER = 4

# Plackett's reduction of a centred cone of 4 or 5 rows
# (:func:`_centred_orthant_prob`) takes _PLACKETT_NODES Gauss-Legendre
# nodes, and only when every row's residual variance given all the others
# is at least _PLACKETT_MIN_VAR; other cones go to the lattice.  That
# variance is within a factor q of C's smallest eigenvalue, which sets how
# near t = 1 the integrand's singularities lie.  Against the same rule at
# 1024 nodes, over 3000 random correlations, the worst relative error at a
# smallest residual variance of 0.01-0.02, 0.02-0.05, 0.05-0.1, 0.1-0.2
# and above was 2.6e-11, 5.5e-12, 4.3e-13, 4.7e-13 and 1.0e-13; over 400
# on the edge, at a variance of just 0.05, 0.07 and 0.1, it was 9.6e-13,
# 5.7e-13 and 2.8e-13.  Near the cut-over what is left is rounding, about
# 1e-17 absolute (eps 2^-q through the weights), at probabilities down to
# 2e-5.
_PLACKETT_NODES = 32
_PLACKETT_MIN_VAR = 0.1

# The trivariate rule of three rows of rank 3 off the location
# (:func:`_trivariate_prob`) takes _RADIAL_NODES generalized Gauss-Laguerre
# nodes for its radial integral and Plackett's nodes for its correlation
# paths, and only at df of at least _TRIVARIATE_MIN_DF, on rows that pass
# the cut-over of _PLACKETT_MIN_VAR, and where the parts of its sum add up
# to at most _CANCELLATION times the sum; other systems go to the lattice.
# Against a quadrature of the exact pair given the first row (scipy quad,
# relative 1e-13), over 40 random systems per df (every |rho| <= 0.95,
# bounds around the location and shifted into the tail, probabilities down
# to 1e-37), the worst relative error within those gates was, at df 17,
# 20, 25, 30, 60, 193 and 996: 2.2e-11, 1.5e-11, 4.3e-12, 4.9e-15, 3.0e-14,
# 1.7e-14 and 6.6e-15.  The radial integrand is smooth in s, not in s^2,
# so its error grows as df falls (at df 17 with 32 nodes it reached
# 1.9e-9).  Beyond the cancellation gate the error is the rounding of the
# parts, about 1e-16 to 1e-15 times their ratio to the sum: at df 30 and
# above it reached 1.6e-13 at ratios up to 1e3, 9.7e-11 up to 1e5, and
# 0.18 beyond.  Rows nearer dependence lose more: at a residual variance
# of 6e-8 the error was 3e-9.
_RADIAL_NODES = 48
_TRIVARIATE_MIN_DF = 30.0
_CANCELLATION = 64.0


def _golub_welsch(diag, off):
    """Nodes and weights of the Gauss rule of the probability measure whose
    monic orthogonal polynomials have the Jacobi matrix of diagonal
    ``diag`` and off-diagonal ``off``: its eigenvalues, and the squared
    first components of its eigenvectors (Golub and Welsch 1969), which
    sum to 1 whatever the measure's scale."""
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, v[0] ** 2


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Nodes and weights of the ``n``-node Gauss-Legendre rule on (0, 1),
    built on first use (read-only: one pair serves every call).

    From the Jacobi matrix of the Legendre recurrence
    (:func:`_golub_welsch`): within 5e-15 of
    ``numpy.polynomial.legendre.leggauss``, without that module's import
    in a cold process (nor that of ``numpy.ma``, which ``np.unique``
    imports)."""
    k = np.arange(1.0, n)
    x, w = _golub_welsch(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    return _read_only((x + 1.0) / 2.0), _read_only(w)


@functools.lru_cache(maxsize=None)
def _angular_rule():
    """Nodes and weights in (0, 1) of the rule of :func:`_angular_prob`
    for one piece (read-only: one pair serves every call): the
    Gauss-Legendre rule of :func:`_gauss_legendre` on each subinterval."""
    x, w = _gauss_legendre(_ANGULAR_NODES)
    halves = [0.5**j for j in range(2, _ANGULAR_DEPTH + 2)]
    edges = np.array(sorted({0.0, 0.5, 1.0, *halves, *(1.0 - h for h in halves)}))
    width = np.diff(edges)
    nodes = edges[:-1, None] + width[:, None] * x
    weights = width[:, None] * w * np.ones_like(nodes)
    # the power map takes a singularity (theta - end)^nu to a smooth power
    p = _ANGULAR_POWER
    nodes[0], weights[0] = width[0] * x**p, width[0] * p * x ** (p - 1) * w
    nodes[-1], weights[-1] = 1.0 - width[-1] * x**p, weights[0]
    return _read_only(nodes.ravel()), _read_only(weights.ravel())


def _angular_breaks(a, L):
    """The angles at which the integrand of :func:`_angular_prob` changes
    form, sorted in ``[0, 2 pi)``, and the first again plus ``2 pi``: the
    directions along each row's line (where it turns from a lower to an
    upper bound), the foot of the perpendicular to each line off the
    origin (where the bound is nearest) and every vertex off the origin."""
    rows = [(float(ai), float(l0), float(l1)) for ai, (l0, l1) in zip(a, L)]
    angles = []
    for k, (ai, l0, l1) in enumerate(rows):
        along = math.atan2(l0, -l1)
        angles += [along, along + math.pi]
        if ai:
            angles.append(math.atan2(l1, l0) if ai > 0.0 else math.atan2(-l1, -l0))
        for aj, m0, m1 in rows[:k]:
            det = l0 * m1 - l1 * m0
            x, y = ai * m1 - aj * l1, l0 * aj - m0 * ai
            if det and (x or y):
                angles.append(math.atan2(y / det, x / det))
    # sorted and deduplicated in Python: np.unique would import numpy.ma
    breaks = sorted({x % (2.0 * math.pi) for x in angles})
    return np.array(breaks + [breaks[0] + 2.0 * math.pi])


def _ray_bounds(a, L, theta):
    """At each angle of ``theta``, the rows' coefficients ``c`` on the ray
    and the radii between which it meets ``L w > a``: a row with ``c > 0``
    bounds the radius from below by ``a / c``, one with ``c < 0`` from
    above; the lower bound is at least 0."""
    c = L @ np.array([np.cos(theta), np.sin(theta)])
    r = a[:, None] / c
    lo = np.where(c > 0.0, r, 0.0).max(axis=0, initial=0.0)
    hi = np.where(c < 0.0, r, math.inf).min(axis=0)
    return c, lo, hi


def _log_radial_survival(r, df):
    """``log G(r) = -(df/2) log1p(r^2 / df)``, as ``-df (log t + log1p(1 /
    t^2) / 2)`` with ``t = r / sqrt(df)`` beyond ``t = 1``, so that ``r^2``
    never overflows."""
    t = r / math.sqrt(df)
    far = t > 1.0
    t[far] = np.log(t[far]) + 0.5 * np.log1p(1.0 / (t[far] * t[far]))
    t[~far] = 0.5 * np.log1p(t[~far] * t[~far])
    return -df * t


def _angular_prob(a, L, df) -> float:
    """``Pr(L w > a)`` for a spherical bivariate t ``w`` with ``df`` degrees
    of freedom and a ``(q, 2)`` factor ``L`` (of rank 2): exact to
    rounding and the rule's error.

    :func:`_factor`'s coordinates make the rows a polygon, possibly open,
    under a law whose radial survival is elementary, ``G(r) = Pr(|w| >
    r) = (1 + r^2 / df)^(-df/2)``.  The ray at angle ``theta`` meets the
    polygon between the radii ``r_lo`` and ``r_hi`` (:func:`_ray_bounds`),
    so ``P = (1 / 2 pi) int_0^{2 pi} [G(r_lo) - G(r_hi)]_+ dtheta``, the
    t analogue of Craig's (1991) formula for a normal polygon, taken as
    ``G(r_lo) (-expm1(log G(r_hi) - log G(r_lo)))`` so that a far tail
    keeps its relative accuracy.  The circle is cut at the angles of
    :func:`_angular_breaks`, so that on each piece the same rows bound
    the ray and the integrand is smooth inside: its peaks (a vertex, the
    foot of a perpendicular) are ends, and so are the directions along a
    line, where ``G`` behaves as a power ``df`` of the distance in angle.
    A piece the ray misses counts 0 and one it crosses unbounded from the
    origin counts its length; the others take the Gauss-Legendre rule of
    :func:`_angular_rule`, graded toward both ends.  Rows through the
    origin only cut the circle, so a centred cone is its arc over ``2
    pi``."""
    breaks = _angular_breaks(a, L)
    start, length = breaks[:-1], np.diff(breaks)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c, lo, hi = _ray_bounds(a, L, start + 0.5 * length)
        live = hi > lo
        if (c == 0.0).any():  # along a line: the row holds on no ray unless a < 0
            live &= ~((c == 0.0) & (a[:, None] >= 0.0)).any(axis=0)
        whole = live & (lo == 0.0) & (hi == math.inf)
        total = float(length[whole].sum())
        part = live & ~whole
        if part.any():
            nodes, weights = _angular_rule()
            theta = (start[part, None] + length[part, None] * nodes).ravel()
            _, lo, hi = _ray_bounds(a, L, theta)
            log_lo, log_hi = _log_radial_survival(lo, df), _log_radial_survival(hi, df)
            value = np.exp(log_lo) * -np.expm1(log_hi - log_lo)
            value[~(hi > lo)] = 0.0
            total += float(value @ (length[part, None] * weights).ravel())
    return min(max(total / (2.0 * math.pi), 0.0), 1.0)


def _lattice_prob(a, L, col, df, seed, cap):
    """Quasi-Monte Carlo estimates of ``Pr(L z > s a)``, rank of ``L`` >= 2.

    Genz-Bretz separation of variables (Genz 1992, JCGS 1; Genz and Bretz
    2009, LNS 195).  :func:`_blocks` passes, from :func:`_path`, the
    standardised bounds ``a`` of the sorted rows and :func:`_factor`'s
    lower factor ``L`` of their correlation with ``col``, the column each
    row bounds, so that ``Y > r`` reads ``L z > s a`` for standard
    normals ``z`` and the radial factor ``s = sqrt(w / df)``, ``w ~
    chi-square(df)``.  ``s`` is
    not drawn by the inverse chi-square CDF, which would cost more than
    the rest of the integrand: the last uniform ``u`` maps to ``s`` by the
    Wilson-Hilferty cube of :func:`_radial`, and each point carries the
    weight ``omega`` of the exact law of ``s`` against that map's.  Given ``s`` and the earlier ``z``, the rows of
    column ``j`` bound ``z_j`` from below (a positive coefficient) or above
    (a negative one), to ``(lo_j, hi_j)``; the column holds with probability
    ``e_j = max(Phi(-lo_j) - Phi(-hi_j), 0)`` and ``z_j`` is drawn in it as
    ``-Phi^-1(Phi(-hi_j) + (1 - u_j) e_j)``, so the integrand is ``prod
    e_j`` over the unit cube of ``z_1, ..., z_{rank-1}, s``.  Without an
    upper bound this is ``e_j = Phi(-lo_j)``, ``z_j = -Phi^-1(e_j (1 -
    u_j))``.  A centred cone has ``a = 0`` and drops ``s``: its estimate
    does not depend on df, and every weight is 1.  Bounds that cross at
    every point give an estimate of 0, which is not exact: a far-tail
    region can underflow to 0 too.

    The points of shift ``k`` are ``|2 frac(i sqrt(p_j) + shift_kj) - 1|``
    (Richtmyer's generator, one prime ``p_j`` per coordinate, folded by
    the baker's transform) for ``i = 1, 2, ...``, with ``_SHIFTS`` uniform
    shifts drawn from ``seed``.  The estimate is the self-normalised ratio
    ``sum omega prod e_j / sum omega`` over every point of every shift,
    which returns a constant integrand exactly and stays in [0, 1]; the
    unnormalised mean ``sum omega prod e_j / n`` would add the lattice
    error of ``omega`` itself, which swamps a probability near 1.  Its
    standard error is the delta-method one of a ratio of means over the
    independent shifts (:func:`_pooled_ratio`).  The ratio is pooled, not
    taken per shift: a shift of few points, at df 1 say, can have ``sum
    omega = 0``.  Points per shift double from ``_LATTICE_BLOCK``, and an
    estimate is yielded after each block (``n_draws`` counts the points
    so far) until the next block would pass ``cap`` points in all.  A
    ``cap`` below one point per shift takes one point on each of ``cap``
    shifts and yields once.

    The integrand works in place on each chunk, so that its time goes to
    ``ndtr`` and ``ndtri``, and moves signs where rounding to nearest
    leaves them exact: it keeps ``w_j = -z_j = Phi^-1(top + (1 - u_j)
    e_j)``, takes the rows' coefficients on earlier columns negated, so
    that their products with ``w`` are ``L z``, and hands ``ndtr`` the
    negated bounds ``(L z - s a) / L_jj`` as they are.  Each row takes its
    own vector-matrix product: one product over a column's rows rounds
    differently.  The estimates are bit for bit those of the formula as
    written above (``reference_lattice_prob`` in the tests' oracle).
    """
    from scipy.special import ndtr, ndtri

    cap = int(cap)
    n_shifts = min(_SHIFTS, cap)
    centred = not a.any()
    q, rank = L.shape
    # the rows grouped by the column they bound, those that bound it from
    # below first; per column a slice of them, with their negated
    # coefficients on the earlier columns and their coefficient on it
    if rank == q:  # the Cholesky factor: row j alone bounds column j
        starts, n_low = range(q + 1), [1] * q
    else:
        order, starts, n_low = [], [0], []
        for j in range(rank):
            rows = np.flatnonzero(col == j)
            low = L[rows, j] > 0.0
            order += [*rows[low], *rows[~low]]
            starts.append(len(order))
            n_low.append(int(low.sum()))
        L, a = L[order], a[order]
    neg_L, neg_a = -L, -a[:, None, None]
    columns = []
    for j in range(rank):
        rows = slice(starts[j], starts[j + 1])
        columns.append((rows, n_low[j], neg_L[rows, :j], L[rows, j, None, None]))
    dims = rank - 1 if centred else rank
    alpha = _root_primes(dims)[:, None, None]
    shifts = _shifts(seed, dims)[:, :n_shifts, None]

    def integrand(i):
        """Sums over points ``i`` of the weighted values and of the weights,
        one per shift."""
        shape = (n_shifts, i.size)
        u = i * alpha + shifts
        # u >= 0, so u - floor(u) is the exact fractional part, as u % 1.0
        u -= np.floor(u)
        u *= 2.0
        u -= 1.0
        np.abs(u, out=u)
        s = 0.0
        if not centred:
            s, weight = _radial(u[-1], df)
        neg_sa = s * neg_a
        v = np.subtract(1.0, u[: rank - 1], out=u[: rank - 1])  # 1 - u_j
        # w_j = -z_j; -b = (L z - s a) / L_jj, by the signs of the docstring
        w = np.empty((rank - 1, *shape))
        for j, (rows, n_low, coef, pivot) in enumerate(columns):
            if j == 0:  # no earlier column: L z is 0
                nb = neg_sa[rows]
            else:
                # one vector-matrix product per row: a product over several
                # rows at once rounds differently and would move the bits
                k = len(coef)
                wj = w[:j].reshape(j, -1)
                nb = np.empty((k, n_shifts * i.size))
                for row, c in enumerate(coef):
                    np.matmul(c, wj, out=nb[row])
                nb = nb.reshape(k, *shape)
                if not centred:
                    nb += neg_sa[rows]
            nb /= pivot
            lo = nb[0] if n_low == 1 else nb[:n_low].min(axis=0)
            e = ndtr(lo, out=lo)
            upper = n_low < len(nb)
            if upper:
                hi = nb[n_low] if n_low == len(nb) - 1 else nb[n_low:].max(axis=0)
                top = ndtr(hi, out=hi)
                e -= top
                np.maximum(e, 0.0, out=e)
            if j == 0:
                prob = e
            elif j == 1:  # a centred cone's column 0 is one constant
                prob = prob * e
            else:
                prob *= e
            if j < rank - 1:  # w_j = Phi^-1(top + (1 - u_j) e_j)
                t = v[j]
                t *= e
                if upper:
                    t += top
                    np.minimum(t, _BELOW_ONE, out=t)
                np.maximum(t, _TINY, out=t)
                ndtri(t, out=w[j])
        if centred:  # every weight is 1
            return prob.sum(axis=1), np.full(n_shifts, float(i.size))
        prob *= weight
        return prob.sum(axis=1), weight.sum(axis=1)

    sums, weights = np.zeros(n_shifts), np.zeros(n_shifts)
    step = _CHUNK // _SHIFTS
    done, n = 0, min(_LATTICE_BLOCK, cap // n_shifts)
    while True:
        for start in range(done, n, step):
            total, weight = integrand(np.arange(start + 1, min(n, start + step) + 1.0))
            sums += total
            weights += weight
        yield _pooled_ratio(sums, weights, n * n_shifts)
        if 2 * n * n_shifts > cap:
            return
        done, n = n, 2 * n


def _pooled_ratio(sums, weights, n_draws):
    """The lattice estimate of ``n_draws`` points from the per-shift sums of
    ``omega prod e_j`` and of ``omega``: their ratio over all points, with
    the delta-method standard error of a ratio of means over the ``k``
    shifts.  Equal weights (a centred cone) give the mean of the shift
    ratios and their standard deviation over ``sqrt(k)``.  With no point of
    positive weight the estimate is 1/2; one shift has standard error 0."""
    k, total = len(sums), float(weights.sum())
    if total == 0.0:
        return ProbEstimate(0.5, 0.0, False, n_draws)
    p = min(float(sums.sum()) / total, 1.0)
    se = 0.0
    if k > 1:
        resid = sums - p * weights
        se = math.sqrt(float(resid @ resid) / (k * (k - 1))) * k / total
    return ProbEstimate(p, se, False, n_draws)


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
    law bfreg builds has df >= 1.  The points with ``b <= 0`` are masked
    only when there are some.
    """
    from scipy.special import ndtri

    z = ndtri(np.minimum(u, 1.0 - _EPS))
    c = 2.0 / (9.0 * df)
    x = z * math.sqrt(c) - c  # b - 1
    dead = x <= -1.0 if x.min() <= -1.0 else None
    if dead is not None:
        x[dead] = 0.0
        z[dead] = 0.0
    log_weight = (
        (1.5 * df - 1.0) * np.log1p(x)
        - 0.5 * df * (x * (3.0 + x * (3.0 + x)))
        + 0.5 * z * z
    )
    b = 1.0 + x
    s, weight = b * np.sqrt(b), np.exp(log_weight)
    if dead is not None:
        s[dead] = 0.0
        weight[dead] = 0.0
    return s, weight


def _centred_cone_prob(M) -> float:
    """``Pr(M z > 0)`` for a spherical ``z`` and one to three rows ``M``,
    singular or not; it does not depend on the law's radial part.

    The closed forms ``1/2``, ``1/4 + asin(rho_12) / (2 pi)`` (Sheppard)
    and ``1/8 + sum_{i<j} asin(rho_ij) / (4 pi)`` (Plackett 1954,
    Biometrika 41), with ``asin(rho_ij) = atan2(cos theta, sin theta)``
    for the angle ``theta`` between the unit vectors ``u_i`` and ``u_j``
    of rows ``i`` and ``j``: ``cos theta = u_i' u_j`` and ``sin theta = |u_i
    - u_j| |u_i + u_j| / 2``.  A row and a positive multiple of it read
    exactly 1/2 and a row and its negation exactly 0, and a pair near
    dependence keeps the digits of its entries in ``sin theta``, which a
    rounded ``rho_ij`` near 1 loses through ``asin``."""
    units = [[x / math.hypot(*row) for x in row] for row in M.tolist()]
    angles = 0.0
    for k, u in enumerate(units):
        for v in units[:k]:
            cos = math.fsum(x * y for x, y in zip(u, v))
            apart = math.hypot(*(x - y for x, y in zip(u, v)))
            along = math.hypot(*(x + y for x, y in zip(u, v)))
            angles += math.atan2(cos, 0.5 * apart * along)
    q = len(units)
    return min(1.0, max(0.0, 0.5**q + angles / (2 ** (q - 1) * math.pi)))


def _centred_orthant_prob(rho) -> float:
    """``Pr(Y > 0)`` for a centred elliptical ``Y`` of dimension 4 or 5 and
    full rank whose scale has the correlation ``rho``; it does not depend
    on df.

    Plackett's reduction along ``C(t) = I + t (rho - I)``:
    ``dP/drho_ij = phi_2(0, 0; rho_ij) P_{q-2}(R_ij)``, where ``R_ij`` is
    the correlation of the other rows given rows ``i`` and ``j`` at 0,
    again centred, so that

        P = 2^-q + int_0^1 sum_{i<j} rho_ij phi_2(0, 0; t rho_ij)
                   P_{q-2}(R_ij(t)) dt

    with ``P_{q-2}`` the closed form of two or three rows
    (:func:`_centred_cone_prob`).  The integral
    is the Gauss-Legendre rule of :func:`_plackett_rule`, evaluated in one
    pass over every node and pair: given rows ``i`` and ``j``, whose
    correlation ``a = t rho_ij`` has the factor ``[[1, 0], [a, s]]``, ``s
    = sqrt(1 - a^2)``, the covariance of the other rows is ``C(t)_oo - b
    b' - e e'`` with ``b = t rho_oi`` and ``e = (t rho_oj - a b) / s``, of
    which only the variances and the correlations the closed form reads
    are formed.  Its error grows as ``rho`` nears singularity: :func:`_path`
    takes it only above the cut-over of ``_PLACKETT_MIN_VAR``, which also
    keeps every conditional correlation within 0.95 of 0 (each row's
    residual variance given the others is at least 0.1).
    """
    q = rho.shape[0]
    t, w = _plackett_rule()
    i, j, o, k, l = _plackett_pairs(q)
    tt = t[:, None, None]
    c = rho[i, j]
    a = t[:, None] * c  # (nodes, pairs)
    s = np.sqrt(1.0 - a * a)
    b = tt * rho[o, i[:, None]]  # (nodes, pairs, q - 2)
    e = (tt * rho[o, j[:, None]] - a[..., None] * b) / s[..., None]
    var = 1.0 - b * b - e * e
    # (nodes, pairs, pairs of the other rows)
    cov = tt * rho[o[:, k], o[:, l]] - b[..., k] * b[..., l] - e[..., k] * e[..., l]
    m = q - 2
    angles = np.arcsin(cov / np.sqrt(var[..., k] * var[..., l])).sum(axis=-1)
    inner = 0.5**m + angles / (2 ** (m - 1) * math.pi)
    density = (c * inner / s).sum(axis=-1) / (2.0 * math.pi)
    return min(1.0, max(0.0, 0.5**q + float(w @ density)))


@functools.lru_cache(maxsize=None)
def _plackett_rule():
    """Nodes ``t`` in (0, 1) and weights of the integral of
    :func:`_centred_orthant_prob` (read-only): Gauss-Legendre in ``u``
    with ``t = 1 - (1 - u)^2``, which takes the square-root behaviour of
    the integrand at ``t = 1`` to a smooth one."""
    u, w = _gauss_legendre(_PLACKETT_NODES)
    v = 1.0 - u
    return _read_only(1.0 - v * v), _read_only(2.0 * v * w)


@functools.lru_cache(maxsize=None)
def _plackett_pairs(q):
    """For each pair ``i < j`` of ``q`` rows, ``i``, ``j`` and the other
    rows ``o``, and the pairs ``k < l`` of positions in ``o``, as
    read-only index arrays."""
    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    o = [[k for k in range(q) if k != i and k != j] for i, j in pairs]
    i, j = zip(*pairs)
    k, l = zip(*[(k, l) for k in range(q - 2) for l in range(k + 1, q - 2)])
    return tuple(_read_only(np.array(x)) for x in (i, j, o, k, l))


@functools.lru_cache(maxsize=_TABLES)
def _radial_rule(df):
    """Nodes ``V``, their square roots and weights of the
    ``_RADIAL_NODES``-node Gauss rule of
    the chi-square law of ``df`` degrees of freedom (read-only, built on
    first use per df): generalized Gauss-Laguerre in ``V / 2`` with
    ``alpha = df/2 - 1`` (:func:`_golub_welsch`), whose weights, unlike
    those of ``scipy.special.roots_genlaguerre``, do not overflow at large
    df."""
    alpha = 0.5 * df - 1.0
    k = np.arange(1.0, _RADIAL_NODES)
    x, w = _golub_welsch(2.0 * np.arange(_RADIAL_NODES) + alpha + 1.0, np.sqrt(k * (k + alpha)))
    return _read_only(2.0 * x), _read_only(np.sqrt(2.0 * x)), _read_only(w)


def _trivariate_prob(a, rho, df):
    """``Pr(Y > a)`` for a standardised t ``Y`` of three rows with ``df``
    degrees of freedom and correlation ``rho`` of full rank, or None where
    the sum below cancels by more than ``_CANCELLATION``.

    With ``Y = Z / s``, ``Z`` normal of correlation ``rho`` and ``s^2`` a
    chi-square over df, ``P = E_s Pr(Z > s a)``.  Plackett's identity,
    ``dPr(Z > b) / drho_ij = phi_2(b_i, b_j; rho_ij) Pr(Z_o > b_o | Z_i =
    b_i, Z_j = b_j)``, integrated along the path that first turns on the
    pair ``i, j`` of largest ``|rho|`` and then both correlations of the
    third row ``p`` (Genz 2004, Stat. Comput. 14), gives ``P = A + B +
    C``:

    - ``A = E_s prod_k Phi(-s a_k)``, the rows uncorrelated, on the radial
      rule of :func:`_radial_rule` in ``V = df s^2``, tilted by ``lam =
      sum_{a_k > 0} a_k^2 / df``: ``A = (1 + lam)^(-df/2) E_V[exp(lam V /
      (2 (1 + lam))) prod_k Phi(-a_k sqrt(V / (df (1 + lam))))]``, whose
      integrand no longer decays in a far tail, taken through
      ``log_ndtr``;
    - ``B = c_ij int_0^1 K(a_i, a_j; tau c_ij) T(-a_p sqrt(df / (df + Q)))
      dtau``, with row ``p`` uncorrelated;
    - ``C = sum_{m in (i, j)} c_pm int_0^1 K(a_p, a_m; t c_pm) T(-mu_o(t)
      sqrt(df / (df + Q))) dt``, ``o`` the third row and ``mu_o(t)`` its
      standardised bound given rows ``p`` and ``m`` under the correlation
      at ``t``.

    Here ``K(x, y; rho) = (1 + Q / df)^(-df/2) / (2 pi sqrt(1 - rho^2))``
    with ``Q = (x^2 - 2 rho x y + y^2) / (1 - rho^2)`` and ``T`` the t CDF
    with df degrees of freedom: each derivative's mean over ``s`` is
    closed, ``E_s[exp(-s^2 Q / 2) Phi(-s c)] = (1 + Q / df)^(-df/2) T(-c
    sqrt(df / (df + Q)))``.  Both integrals take the nodes of
    :func:`_plackett_rule`, and the t CDFs are one ``stdtr`` call.  The
    parts can have either sign, so their rounding, about ``eps (|A| + |B|
    + |C|)``, is relative to ``P`` as large as their ratio to it."""
    from scipy.special import log_ndtr, stdtr

    c = (rho[0, 1], rho[0, 2], rho[1, 2])
    i, j, p = ((0, 1, 2), (0, 2, 1), (1, 2, 0))[max(range(3), key=lambda k: abs(c[k]))]
    V, root_V, w = _radial_rule(df)
    lam = sum(x * x for x in a.tolist() if x > 0.0) / df
    tilt = 1.0 + lam
    log_terms = log_ndtr(np.outer(a, root_V / -math.sqrt(df * tilt))).sum(axis=0)
    log_terms += (0.5 * lam / tilt) * V
    A = math.exp(-0.5 * df * math.log1p(lam)) * float(w @ np.exp(log_terms))
    # Each derivative (B's, then C's two) is that of a pair u, v of bounds
    # x, y, whose correlation r the path turns on, with the third row's
    # bound z and its correlations s_u, s_v with them.
    t, weight = _plackett_rule()
    a_i, a_j, a_p = float(a[i]), float(a[j]), float(a[p])
    c_ij, c_pi, c_pj = float(rho[i, j]), float(rho[p, i]), float(rho[p, j])
    x, y, z = (np.array(v)[:, None] for v in ((a_i, a_p, a_p), (a_j, a_i, a_j), (a_p, a_j, a_i)))
    coef = np.array([c_ij, c_pi, c_pj])[:, None]
    r = coef * t
    s_u, s_v = np.array([0.0, c_pj, c_pi])[:, None] * t, np.array([0.0, c_ij, c_ij])[:, None]
    det = (1.0 - r) * (1.0 + r)
    b_u, b_v = (s_u - r * s_v) / det, (s_v - r * s_u) / det
    bound = (z - b_u * x - b_v * y) / np.sqrt(1.0 - s_u * b_u - s_v * b_v)
    Q = (x * x - 2.0 * r * x * y + y * y) / det
    parts = stdtr(df, -bound * np.sqrt(df / (df + Q)))
    parts *= np.exp(-0.5 * df * np.log1p(Q / df)) / np.sqrt(det)
    parts = parts @ weight * coef[:, 0] / (2.0 * math.pi)
    B, C = float(parts[0]), float(parts[1] + parts[2])
    P = A + B + C
    if not (P > 0.0 and abs(A) + abs(B) + abs(C) <= _CANCELLATION * P):
        return None
    return min(P, 1.0)


def _one_hit_se(n) -> float:
    """Binomial standard error of one hit in ``n`` draws, and of a fair
    coin for ``n = 1``, where one hit would be certainty."""
    p = 1.0 / max(n, 2)
    return math.sqrt(p * (1.0 - p) / n)


def complement_prob(dist: MultivariateT, systems, known, mcrep, seed):
    """Estimate ``Pr(no (R, r) in systems has R xi > r)`` for ``xi ~ dist``.

    The union ``U`` of the systems is never sampled: ``1 - U`` is a sum of
    region probabilities ("terms"), each estimated on its :func:`_path`
    (:func:`_blocks`).  The complement of a system ``H_t`` is the union
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
    max p_i``, where one scan finds the likeliest known system.  When
    ``mcrep (1 - max p_i) < 1``, where a sample of ``mcrep`` would see
    no miss, the route under the likeliest system is
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
    system alone when it is exact or meets that target.  A term left to
    the lattice whose half-space bound (:func:`_half_space_bound`) is
    negligible waits, unstarted, and is 0 within its bound when the
    waiting terms' bounds together are negligible beside the larger of
    the others' standard error and 1e-2 of the sum's value; otherwise it
    is estimated like the rest.  Exact terms leave no standard error, so
    the value is the yardstick beside them, and a waiting term's bound
    does not count as variance when a route's subtracted terms are
    weighed against its added ones.  A known estimate and a bound are
    provisional: a term starts, on its path computed at most once, in one
    place (:func:`_term_sum`).

    Each term needs at least one lattice point, so a route fits when its
    terms fit in ``mcrep`` (and ``_MAX_TERMS``) beside those of the routes
    that fit before it: inclusion-exclusion, then the walk, then the
    likeliest system's.  A route that does not fit is skipped, and when
    none fits :class:`~bfreg.errors.NumericError` is raised, advising a
    larger ``mcrep`` only when some route has at most ``_MAX_TERMS``
    terms.  Each term is
    capped at ``mcrep`` over the number of terms of the routes that fit,
    so ``n_draws``, which counts every lattice point evaluated, a route
    not taken included, never passes ``mcrep``.  The last route that runs
    stands whether or not it resolves: its standard error says how
    precise it is.  The value is clamped to [0, 1], its standard error
    combines those of the terms and the sum of the bounds of the terms
    taken as 0, and it is exact when every term is.  An
    inexact sum whose terms show no spread (its only inexact terms are
    zeros) carries the standard error of one hit in ``mcrep``, and any
    other at least the rounding of the sum, ``eps`` times its value and
    the terms' values.
    """
    m = len(systems)
    table = _table(systems)
    first = max((i for i in range(m) if known[i]), key=lambda i: known[i].value, default=None)
    # the likeliest known system is so likely that a sample of mcrep would see no miss
    near_one = first is not None and mcrep * (1.0 - known[first].value) < 1.0
    every = tuple(range(m))
    wanted = [((), seed), (every, seed)] if not near_one else [(every, seed)]
    if m >= 2 and near_one:
        wanted.append(((first,), derived_seed(seed, 3)))
    limit = min(mcrep, _MAX_TERMS)
    routes, listed = [], False
    for pivots, route_seed in wanted:
        terms = table.terms(pivots)
        listed |= terms is not None  # within _MAX_TERMS: a larger mcrep fits it
        if terms is not None and len(terms) <= limit - sum(len(t) for _, t, _ in routes):
            routes.append((pivots, terms, route_seed))
    if not routes:
        raise NumericError(
            f"the complement needs more than {limit} lattice terms on every "
            "route" + (" (increase mcrep)" if listed else "")
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
    """The :class:`_Table` of ``systems``, a list of ``(R, r)``.

    Kept per distinct row content (shape and bytes of every ``R`` and
    ``r``) for the last ``_TABLES`` contents, so that what depends on the
    rows alone is worked out once however many laws, seeds and budgets
    they are estimated under."""
    key = []
    for R, r in systems:
        R, r = np.asarray(R, dtype=float), np.asarray(r, dtype=float)
        key.append((R.shape, R.tobytes(), r.tobytes()))
    return _table_of(tuple(key))


@functools.lru_cache(maxsize=_TABLES)
def _table_of(key):
    return _Table([(np.frombuffer(R).reshape(shape), np.frombuffer(r)) for shape, R, r in key])


def _read_only(a):
    a.flags.writeable = False
    return a


class _Table:
    """What :func:`_terms` and :func:`_term_sum` read of ``systems``, a
    list of ``(R, r)``.  Its arrays are read-only: one table serves every
    call on the same rows.

    Every row of a piece or a term is row ``k`` of a system or its
    negation, row ``n + k``, of the signed table ``rows x > bounds``, and
    one table of the pairs of parallel rows that conflict or imply one
    another (:func:`bfreg.hyparse._parallel_pairs`) serves every check.
    ``pairs`` holds ``(conflict, implied)`` of the signed rows, ``own``
    each system's rows, ``pieces`` its pieces that do not conflict in
    themselves, ``disjoint[i][j]`` whether systems ``i`` and ``j``
    conflict, and ``center`` the read-only
    :func:`~bfreg.hyparse.prior_center` of every system's rows stacked and
    whether it is exact.  These are computed when the table is made:
    every table reaches :func:`_terms`, which reads the first four, and
    the engine reads the center of every table it builds.  Only the terms
    of each pivot set (:meth:`terms`) are computed on first use and
    kept."""

    def __init__(self, systems):
        A = np.vstack([R for R, _ in systems])
        a = np.concatenate([r for _, r in systems])
        self.rows = _read_only(np.vstack([A, -A]))
        self.bounds = _read_only(np.concatenate([a, -a]))
        self.pairs = tuple(_read_only(m) for m in _parallel_pairs(self.rows, self.bounds))
        conflict, n, m = self.pairs[0], len(a), len(systems)
        ends = np.cumsum([len(r) for _, r in systems])[:-1]
        own = self.own = [_read_only(ix) for ix in np.split(np.arange(n), ends)]
        self.pieces = [
            [(j, _read_only(P)) for j, P in _pieces(ix, n) if not conflict[np.ix_(P, P)].any()]
            for ix in own
        ]
        self.disjoint = [
            [i != j and bool(conflict[np.ix_(own[i], own[j])].any()) for j in range(m)]
            for i in range(m)
        ]
        center, exact = prior_center(A, a)
        self.center = _read_only(center), exact
        self._terms = {}

    def terms(self, pivots):
        """:func:`_terms` under ``pivots`` up to ``_MAX_TERMS`` (None past them)."""
        if pivots not in self._terms:
            self._terms[pivots] = _terms(pivots, self, _MAX_TERMS)
        return self._terms[pivots]


def _resolved(est, mcrep) -> bool:
    """Whether a standard error is within the binomial one of the value at ``mcrep``."""
    return est.std_error <= math.sqrt(est.value * (1.0 - est.value) / mcrep)


def _pieces(own, n):
    """The disjoint pieces of ``not (R x > r)`` for a system's rows ``own``
    of the signed table: row ``j`` fails (row ``n + own[j]``), rows before
    it hold."""
    return [(j, np.append(own[:j], n + own[j])) for j in range(len(own))]


def _next_level(level, m, disjoint):
    """Subsets one larger than those of ``level`` that hold no disjoint
    pair.  ``level`` holds every such subset of its size, so each of
    theirs is ``S + (j,)`` with ``S`` in it."""
    return [
        S + (j,)
        for S in level
        for j in range(S[-1] + 1 if S else 0, m)
        if not any(disjoint[i][j] for i in S)
    ]


def _terms(pivots, table, limit):
    """The terms of ``1 - U`` under the pieces of ``pivots``, level by level
    over the subsets ``S`` of the other systems that hold no disjoint pair,
    then depth first over one piece of each pivot: ``(S, node, ix)`` for
    ``Pr(piece node_k of the k-th pivot holds, and every system of S
    does)``, with ``ix`` its rows of the signed table, the pieces' first,
    less the rows another of them implies (:func:`_unimplied`).  A node
    whose rows conflict is left out, a pivot that a system of ``S`` is
    disjoint from drops out, and ``S`` empty with no pivot left is the
    whole space, not a term.  ``table`` is a :class:`_Table`.  None when
    there are more than ``limit``."""
    (conflict, implied), own = table.pairs, table.own
    pieces, disjoint = table.pieces, table.disjoint
    others = [k for k in range(len(own)) if k not in pivots]
    apart = [[disjoint[a][b] for b in others] for a in others]
    terms = []

    def walk(live, node, at):
        """Add the terms of the current ``S`` (rows ``ix``) below ``node``,
        whose pieces hold rows ``at``, depth first; False once there are
        more than ``limit``."""
        if not live:
            terms.append((S, node, _read_only(_unimplied(np.concatenate([at, ix]), implied))))
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
    return tuple(terms)


def _start(path, seed, cap):
    """The first estimate on a :func:`_path` and the iterator of finer ones."""
    blocks = _blocks(path, seed, cap)
    return next(blocks), blocks


def _refine(est, blocks, target):
    """Take finer estimates until the standard error meets ``target``."""
    while est.std_error > target:
        finer = next(blocks, None)
        if finer is None:
            break
        est = finer
    return est


def _term_target(v, n, mcrep) -> float:
    """Binomial standard error of ``v`` at ``mcrep`` (at least one hit
    or miss), over the square root of ``n``, the number of inexact terms."""
    v = min(max(v, 1.0 / mcrep), 1.0 - 1.0 / mcrep)
    return math.sqrt(v * (1.0 - v) / mcrep / max(n, 1))


def _sum_estimate(value, terms, points, mcrep) -> ProbEstimate:
    """The clamped value of a sum of ``terms``, with their combined error,
    at least the rounding the sum can carry, ``eps`` times the value and
    the terms' values."""
    value = min(max(value, 0.0), 1.0)
    if all(est.exact for est in terms):
        return ProbEstimate(value, 0.0, True, 0)
    se = math.sqrt(sum(est.std_error**2 for est in terms))
    if not se:
        return ProbEstimate(value, _one_hit_se(mcrep), False, points)
    rounding = _EPS * (value + sum(est.value for est in terms))
    return ProbEstimate(value, max(se, rounding), False, points)


def _half_space_bound(a, C, df) -> float:
    """An upper bound on ``Pr(Y > a)`` for a standardised t ``Y`` with
    ``df`` degrees of freedom and correlation ``C``, from one half-space.

    Every point of the region has ``lam' Y >= lam' a`` for any ``lam >=
    0``, and ``lam' Y`` is a univariate t of scale ``sqrt(lam' C lam)``, so
    the probability is at most ``T(-lam' a / sqrt(lam' C lam))`` when
    ``lam' a > 0``.  The best ``lam`` maximises ``2 a' lam - lam' C lam``
    over ``lam >= 0``, whose maximum is the squared Mahalanobis distance
    from the location to the region.  Coordinate ascent (Hildreth 1957),
    over-relaxed by ``_BOUND_RELAX`` (projected SOR), approaches it in
    Python floats: it stops after ``_BOUND_SWEEPS`` sweeps over the rows,
    or once a sweep raises the objective by at most ``_BOUND_GAIN`` of it.
    Any ``lam`` gives a bound, so the sweeps only decide how tight it is.

    The ascent runs on ``a / max(a)``, so that ``lam`` stays near 1 when
    ``a`` is far from it, and the ratio is scaled back.  It is shrunk by
    what rounding can move: ``4 q eps sum |lam_i a_i|`` off its
    numerator, ``_DEPENDENT (sum lam)^2`` (the kernel's rank rule, far
    above the rounding of ``C`` and of the quadratic form) onto its
    squared denominator, and a relative ``_BOUND_SHRINK`` for the error of
    :func:`t_cdf`.  The bound is 1 when no row is off the location (every
    ``a <= 0``), or when the numerator is not positive or ``lam' C lam``
    is not above ``_DEPENDENT (sum lam)^2``, as on a singular ``C`` whose
    region is empty."""
    top = float(a.max())
    if top <= 0.0:
        return 1.0
    a, C = (a / top).tolist(), C.tolist()  # the ratio scales with a, lam need not
    lam, g = [0.0] * len(a), [0.0] * len(a)  # g = C lam
    objective = 0.0
    for _ in range(_BOUND_SWEEPS):
        rise = 0.0
        for i, row in enumerate(C):
            slope = a[i] - g[i]
            step = max(_BOUND_RELAX * slope / row[i], -lam[i])
            if step:
                lam[i] += step
                rise += step * (2.0 * slope - step * row[i])
                g = [gj + step * c for gj, c in zip(g, row)]
        objective += rise
        if rise <= _BOUND_GAIN * objective:
            break
    num = sum(x * y for x, y in zip(lam, a))
    slack = 4.0 * len(a) * _EPS * sum(abs(x * y) for x, y in zip(lam, a))
    var = sum(x * sum(c * y for c, y in zip(row, lam)) for x, row in zip(lam, C))
    margin = _DEPENDENT * sum(lam) ** 2
    if not (num > slack and var > margin):
        return 1.0
    return t_cdf(-top * (num - slack) / math.sqrt(var + margin) * (1.0 - _BOUND_SHRINK), df)


def _term_sum(dist, pivots, terms, table, known, mcrep, seed, cap):
    """``1 - U`` as the base (1 with no pivot, the whole space; else 0)
    plus the :func:`_terms` under ``pivots``, each signed ``(-1)^|S|``, and
    whether the subtracted terms' variance is at most the added terms'.

    Each term is one record: its subset ``S``, its rows of the signed
    table, its stream key, ``(1, *S)`` without a piece and ``(2, *node,
    *S)`` with one, its :func:`_path` once computed, its estimate, and
    its finer estimates once started.  A subset none of whose terms is
    positive is not extended.  ``table`` is a :class:`_Table`.

    A term starts in one place: its path is computed at most once, its
    first estimate taken on ``derived_seed(seed, *key)`` and refined to
    the target at hand.  Most terms start at once; two kinds take a
    provisional estimate instead.  The term of a system alone takes its
    ``known`` estimate.  A term left to the lattice takes ``0`` within
    its bound (:func:`_half_space_bound`) and waits when that bound is at
    most ``_NEGLIGIBLE`` of ``floor``, the smallest target the sum can set
    (:func:`_term_target` at ``v = 1 / mcrep`` over every term): it keeps
    its subset live and counts as an inexact term for the target, so no
    other term refines less for it.  Once the started terms set the
    target and refine to it, an unstarted term starts when its
    provisional estimate is inexact and misses the target, which a
    waiting bound never does.  The waiting terms are then 0 within the
    sum of their bounds when that sum is at most ``_NEGLIGIBLE`` of the
    larger of the others' combined standard error and ``_NEGLIGIBLE`` of
    the sum's value, and it joins that error; otherwise they start too.
    The value's share keeps far-tail terms unstarted beside exact ones,
    whose standard error of 0 would start them all, and makes them cost
    at most 1e-4 of the value in precision.  The variances weighed, of the
    added and the subtracted terms, leave out terms still waiting: a bound
    is no sampling variance, and beside exact added terms it would reject
    every route under a pivot."""
    floor = _term_target(1.0 / mcrep, len(terms), mcrep)
    items, live = [], {()}

    def start(t, target):
        """Start the term ``t`` on its path, computed once, and refine it to ``target``."""
        if t.path is None:
            t.path = _path(dist, table.rows[t.ix], table.bounds[t.ix])
        est, t.blocks = _start(t.path, derived_seed(seed, *t.key), cap)
        t.est = _refine(est, t.blocks, target)

    def waits(t):
        """Whether ``t`` waits on its bound: its path is computed, and it is
        not started (a ``known`` estimate has no path until it starts)."""
        return t.blocks is None and t.path is not None

    for S, node, ix in terms:
        if any(S[:k] + S[k + 1 :] not in live for k in range(len(S))):
            continue
        key = (2, *node, *S) if node else (1, *S)
        t = SimpleNamespace(S=S, ix=ix, key=key, path=None, est=None, blocks=None)
        items.append(t)
        if not node and len(S) == 1 and known[S[0]] is not None:
            t.est = known[S[0]]
        else:
            t.path = _path(dist, table.rows[ix], table.bounds[ix])
            if isinstance(t.path, _Lattice):
                bound = _half_space_bound(t.path.a, t.path.C, t.path.df)
                if bound <= _NEGLIGIBLE * floor:  # 0 within its bound, below every target
                    t.est = ProbEstimate(0.0, bound, False, 0)
            if t.est is None:
                start(t, math.inf)  # refined once the started terms set the target
        if t.est.value > 0.0 or waits(t):
            live.add(S)
    base = 0.0 if pivots else 1.0

    def value():
        return base - sum((-1) ** (len(t.S) + 1) * t.est.value for t in items)

    target = _term_target(value(), sum(not t.est.exact for t in items), mcrep)
    for t in items:
        if t.blocks is not None:
            t.est = _refine(t.est, t.blocks, target)
        elif not t.est.exact and t.est.std_error > target:  # never a waiting bound
            start(t, target)
    waiting = [t for t in items if waits(t)]
    rest = [t.est for t in items if not waits(t)]
    bound = sum(t.est.std_error for t in waiting)
    spread = math.sqrt(sum(est.std_error**2 for est in rest))
    if bound > _NEGLIGIBLE * max(spread, _NEGLIGIBLE * abs(value())):
        for t in waiting:
            start(t, target)
        waiting, rest = [], [t.est for t in items]
    ests = rest + [ProbEstimate(0.0, bound, False, 0)] if waiting else rest
    points = sum(t.est.n_draws for t in items if t.blocks is not None)
    var = [0.0, 0.0]  # of the added terms, of the subtracted ones
    for t in items:
        if not waits(t):
            var[len(t.S) % 2] += t.est.std_error**2
    return _sum_estimate(value(), ests, points, mcrep), var[1] <= var[0]
