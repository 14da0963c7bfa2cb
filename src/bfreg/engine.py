"""Bayes factors against the unconstrained model, and everything built on them.

Each stated hypothesis H_t with equality part (R_E, r_E) and inequality
part (R_I, r_I) gets a Bayes factor B_tu against the unconstrained model
that factorizes as

    B_tu = (f_E / c_E) * (f_IE / c_IE)

where f_E is the posterior marginal density of xi_E at r_E, c_E the
corresponding density under the minimal-fraction prior relocated to the
constraint boundary, f_IE the posterior probability of the inequality
region (conditioned on the equalities when both parts are present) and
c_IE the same probability under the relocated prior.  Densities are
handled in log space throughout; only the probability factors ever carry
estimation error, that of a randomly shifted lattice rule, and single-row
inequality systems take an exact CDF path.  The automatic complement
covers whatever region the stated inequality-only hypotheses leave free.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .constraints import (
    build_transform,
    conditional_xiI,
    fractional_posterior_beta,
    marginal_xiE,
    minimal_fraction,
    warn_if_inexact,
)
from .errors import BfregError, InvalidInputError, NumericError
from .hyparse import (
    ConstraintSystem,
    is_exploratory,
    parse_hypotheses,
    validate,
)
from .model import RegressionFit
from .numkernel import (
    MultivariateT,
    ProbEstimate,
    _log_gamma_ratio,
    _table,
    complement_prob,
    derived_seed,
    mvt_constraint_prob,
    mvt_logpdf,
    t_cdf,
)

_Z90 = 1.6448536269514722  # the standard normal 95% quantile, to the nearest double

# When the stated inequality-only hypotheses leave less prior mass than
# this (plus estimation slack) uncovered, they exhaust the parameter
# space and no complement is added.
_EXHAUSTION_TOL = 1e-3

# An inequality factor with no region left to estimate.
_CERTAIN = ProbEstimate(1.0, 0.0, True, 0)


@dataclass(frozen=True)
class BFComponents:
    """One hypothesis' Bayes factor against the unconstrained model.

    ``c_e``/``f_e`` are prior/posterior densities (None without an
    equality part), ``c_ie``/``f_ie`` prior/posterior constraint
    probabilities (None without an inequality part).  ``ci90`` is a 90%
    interval for ``bf`` when estimation error is present, else None.
    """

    label: str
    c_e: float | None
    f_e: float | None
    c_ie: ProbEstimate | None
    f_ie: ProbEstimate | None
    log_bf: float
    bf: float
    ci90: tuple | None = None

    @property
    def uses_mc(self) -> bool:
        return any(
            p is not None and not p.exact for p in (self.c_ie, self.f_ie)
        )


@dataclass(frozen=True)
class TestResult:
    """Outcome of a confirmatory test of stated hypotheses."""

    labels: tuple
    hypothesis_texts: tuple
    components: tuple
    prior_probs: np.ndarray
    post_probs: np.ndarray
    bf_matrix: np.ndarray
    seed: int
    mcrep: int


@dataclass(frozen=True)
class ExploratoryResult:
    """Per-coefficient {< 0, = 0, > 0} posterior probability table."""

    coef_names: tuple
    post_probs: np.ndarray
    components: tuple
    bf_matrices: dict
    seed: int
    mcrep: int


def _equal_weights(prior_probs) -> bool:
    return prior_probs is None or (
        isinstance(prior_probs, str) and prior_probs == "equal"
    )


def posterior_probabilities(bayes_factors, prior_probs=None) -> np.ndarray:
    """Normalize Bayes factors and prior weights into posterior probabilities.

    ``Pr(H_t | y) = B_tu w_t / sum_s B_su w_s``.  ``prior_probs`` may be
    None or "equal" for uniform weights; weights must be nonnegative and
    not all zero.  The result sums to 1.
    """
    b = np.atleast_1d(np.asarray(bayes_factors, dtype=float))
    if np.any(b < 0) or not np.all(np.isfinite(b)):
        raise InvalidInputError("Bayes factors must be finite and nonnegative")
    w = None
    if not _equal_weights(prior_probs):
        w = _prior_weights(prior_probs, b.shape[-1])
    with np.errstate(divide="ignore"):
        return _log_posteriors(np.log(b), w)


def _prior_weights(prior_probs, n: int, detail: str = "") -> np.ndarray:
    """The prior weights of ``n`` hypotheses, normalised to sum to 1.

    ``prior_probs`` is None or "equal" for uniform weights, else ``n``
    nonnegative finite numbers, not all zero.  Anything else raises
    :class:`~bfreg.errors.InvalidInputError`; ``detail`` says in its
    message what the ``n`` hypotheses are.
    """
    if _equal_weights(prior_probs):
        w = np.ones(n)
    else:
        try:
            w = np.atleast_1d(np.asarray(prior_probs, dtype=float))
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"prior weights must be 'equal' or numbers, got {prior_probs!r}"
            ) from None
        if w.shape != (n,):
            got = f"{w.size}" if w.ndim == 1 else f"an array of shape {w.shape} of"
            raise InvalidInputError(f"got {got} prior weights, expected {n}{detail}")
        if np.any(w < 0) or not np.all(np.isfinite(w)) or w.sum() <= 0:
            raise InvalidInputError(
                "prior weights must be nonnegative and not all zero"
            )
    return w / w.sum()


def _log_posteriors(log_bf, w=None) -> np.ndarray:
    """Posterior probabilities from log Bayes factors, normalised in log space.

    With ``score_t = log B_tu + log w_t``, ``Pr(H_t | y) = exp(score_t -
    max_s score_s)`` divided by its sum over ``t``, so a Bayes factor past
    the float range still gets its share.
    Each ``log_bf`` is finite or -inf (a zero Bayes factor); ``w`` holds
    weights from :func:`_prior_weights`, or None for equal ones.  A
    matrix of ``log_bf`` is normalised row by row, each row with the same
    weights.
    """
    lb = np.atleast_1d(np.asarray(log_bf, dtype=float))
    if lb.ndim > 2 or lb.shape[-1] == 0:
        raise InvalidInputError("need a nonempty vector of Bayes factors")
    if np.any(np.isnan(lb) | (lb == np.inf)):
        raise InvalidInputError("log Bayes factors must be finite or -inf")
    with np.errstate(divide="ignore"):
        score = lb if w is None else lb + np.log(w)
    if np.any(np.all(np.isneginf(score), axis=-1)):
        raise NumericError("all hypotheses have zero weighted Bayes factor")
    p = np.exp(score - score.max(axis=-1, keepdims=True))
    return p / p.sum(axis=-1, keepdims=True)


def bf_matrix(components) -> np.ndarray:
    """Pairwise Bayes factors ``B[i, j] = bf_i / bf_j``."""
    b = np.array(
        [c.bf if isinstance(c, BFComponents) else float(c) for c in components]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return b[:, None] / b[None, :]


def _ratio_ci90(bf, f_est: ProbEstimate, c_est: ProbEstimate):
    """Delta-method 90% interval on log B for a ratio of estimated proportions."""
    if not (f_est.std_error > 0 or c_est.std_error > 0):
        return None
    if f_est.value <= 0 or bf <= 0:
        return None
    var = 0.0
    if f_est.std_error > 0:
        var += (f_est.std_error / f_est.value) ** 2
    if c_est.std_error > 0:
        var += (c_est.std_error / c_est.value) ** 2
    h = _Z90 * math.sqrt(var)
    return (bf * math.exp(-h), bf * math.exp(h))


def _exp(log_x: float) -> float:
    """``exp(log_x)``, or inf where it overflows the float range."""
    try:
        return math.exp(log_x)
    except OverflowError:
        return math.inf


def _t_logpdf(z, sd, df):
    """``mvt_logpdf`` in 1-d, elementwise, at ``z`` scales ``sd`` from the mean."""
    return (
        _log_gamma_ratio(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - np.log(sd)
        - 0.5 * (df + 1) * np.log1p(np.square(z) / df)
    )


def _check_prior_prob(est: ProbEstimate, label: str, what: str):
    if est.value <= 0.0:
        raise NumericError(
            f"{label}: prior {what} is numerically zero; the hypothesis "
            "sits in the extreme tail of the implicit prior (increase "
            "mcrep or reconsider the constraint)"
        )


def _fit_laws(fit: RegressionFit) -> tuple:
    """The posterior and the minimal-fraction prior of ``beta`` under ``fit``."""
    return (
        fractional_posterior_beta(fit, 1.0),
        fractional_posterior_beta(fit, minimal_fraction(fit)),
    )


def bf_unconstrained(
    fit: RegressionFit,
    cs: ConstraintSystem,
    mcrep: int = 1_000_000,
    seed: int = 0,
    *,
    df_as_printed: bool = False,
    _laws: tuple | None = None,
) -> BFComponents:
    """Bayes factor of one constrained hypothesis against the unconstrained.

    Dispatches on the constraint structure: equality-only hypotheses are a
    ratio of analytic densities, inequality-only hypotheses a ratio of
    region probabilities, and mixed hypotheses the product of both with
    the probabilities conditioned on the equality slice.  The inequality
    rows are the live rows of the system's reduction; when the equalities
    leave none, both probability factors are exactly 1.  The lattice
    estimates of numerator and denominator use independent streams
    derived from ``seed``.  ``_laws`` is :func:`_fit_laws` of ``fit`` when
    the caller has built it, as :func:`test_hypotheses` does once for all
    its hypotheses.
    """
    label = cs.label
    if cs.q_E:
        ts = build_transform(cs, fit)
    elif cs.k != fit.k:  # build_transform's checks: without equalities no rotation is needed
        raise InvalidInputError(f"hypothesis is over {cs.k} coefficients, model has {fit.k}")
    else:
        warn_if_inexact(label, cs.reduction.center_exact)

    c_e = f_e = None
    c_ie = f_ie = None
    log_bf = 0.0

    if cs.q_E:
        b_min = minimal_fraction(fit)
        post = marginal_xiE(fit, ts, 1.0)
        prior = marginal_xiE(fit, ts, b_min).relocate(cs.r_E)
        log_f = mvt_logpdf(cs.r_E, post)
        log_c = mvt_logpdf(cs.r_E, prior)
        f_e = _exp(log_f)
        c_e = _exp(log_c)
        log_bf += log_f - log_c

    red = cs.reduction
    R, r = red.Rtilde_I, red.rtilde_I
    if cs.q_I:
        # certain when the equalities leave no live row (see the reduction)
        f_ie = c_ie = _CERTAIN
    if R.shape[0]:
        if cs.q_E:
            post = conditional_xiI(fit, ts, 1.0, cs.r_E, df_as_printed=df_as_printed)
            prior = conditional_xiI(
                fit, ts, b_min, ts.xi_hat[: cs.q_E], df_as_printed=df_as_printed
            )
        else:
            post, prior = _laws or _fit_laws(fit)
        prior = prior.relocate(red.center)
        f_ie = mvt_constraint_prob(post, R, r, mcrep, derived_seed(seed, 1))
        c_ie = mvt_constraint_prob(prior, R, r, mcrep, derived_seed(seed, 2))
        _check_prior_prob(c_ie, label, "constraint probability")
        with np.errstate(divide="ignore"):
            log_bf += float(np.log(f_ie.value)) - math.log(c_ie.value)

    bf = _exp(log_bf)
    ci90 = None
    if f_ie is not None and c_ie is not None:
        ci90 = _ratio_ci90(bf, f_ie, c_ie)
    return BFComponents(label, c_e, f_e, c_ie, f_ie, log_bf, bf, ci90)


def _union_prob(dist: MultivariateT, systems, n_draws: int, seed) -> ProbEstimate:
    """Pr(any system's inequalities hold), one minus
    :func:`~bfreg.numkernel.complement_prob` on each reduction's live rows.

    Nothing calls it: it stays only as the site where the benchmark's
    tracer counts ``engine.union_draws``, and goes once that counter reads
    the complement's returned estimates instead.
    """
    rows = [(cs.reduction.Rtilde_I, cs.reduction.rtilde_I) for cs in systems]
    est = complement_prob(dist, rows, [None] * len(systems), n_draws, seed)
    return replace(est, value=1.0 - est.value)


def bf_complement(
    fit: RegressionFit,
    systems,
    components,
    mcrep: int = 1_000_000,
    seed: int = 0,
    *,
    _laws: tuple | None = None,
):
    """Bayes factor of the complement of the stated hypotheses.

    Equality-constrained hypotheses occupy measure-zero slices and are
    ignored; the complement divides what the inequality-only hypotheses
    leave over: ``B_cu = (1 - U_f) / (1 - U_c)`` with U the posterior or
    prior probability of the union of their regions, the prior centered
    by :func:`~bfreg.hyparse.prior_center` on all their reduced rows
    (those a system's own rows imply are gone; warning as Hc when
    inexact).  ``1 - U`` is a sum of region probabilities by
    inclusion-exclusion or by disjoint pieces
    (:func:`~bfreg.numkernel.complement_prob`), exact when every term is;
    a hypothesis' own ``f_ie`` (and its ``c_ie`` when its prior center is
    the union's) stands for its term when precise enough.  Terms share
    the ``mcrep`` budget, one lattice point each at least, and
    :class:`~bfreg.errors.NumericError` is raised when no route's terms
    fit it.  A single inequality-only hypothesis takes the same path;
    with none the complement is the unconstrained model itself (B = 1).
    Returns None when the stated hypotheses exhaust the space.  ``_laws``
    is as for :func:`bf_unconstrained`.
    """
    ineq = [
        (cs, comp)
        for cs, comp in zip(systems, components)
        if cs.q_E == 0 and cs.q_I > 0
    ]
    if not ineq:
        return BFComponents("Hc", None, None, _CERTAIN, _CERTAIN, 0.0, 1.0, None)
    rows = [(cs.reduction.Rtilde_I, cs.reduction.rtilde_I) for cs, _ in ineq]
    post, prior = _laws or _fit_laws(fit)
    known = [comp.f_ie for _, comp in ineq]
    f_ie = complement_prob(post, rows, known, mcrep, derived_seed(seed, 1))
    center, exact = _table(rows).center  # prior_center of every row, kept with the rows
    warn_if_inexact("Hc", exact)
    known = [
        comp.c_ie if np.array_equal(cs.reduction.center, center) else None
        for cs, comp in ineq
    ]
    c_ie = complement_prob(prior.relocate(center), rows, known, mcrep, derived_seed(seed, 2))
    if c_ie.value < _EXHAUSTION_TOL + 3.0 * c_ie.std_error:
        return None
    with np.errstate(divide="ignore"):
        log_bf = float(np.log(f_ie.value)) - math.log(c_ie.value)
    bf = _exp(log_bf)
    return BFComponents(
        "Hc", None, None, c_ie, f_ie, log_bf, bf, _ratio_ci90(bf, f_ie, c_ie)
    )


@functools.lru_cache(maxsize=64)
def _validated(hypothesis_text: str, coef_names: tuple) -> tuple:
    """The systems of ``hypothesis_text`` over ``coef_names``, parsed and
    validated once per distinct pair: each system's equality reduction
    and prior center come with it.  Errors are not kept, so a bad text
    raises on every call."""
    systems = tuple(parse_hypotheses(hypothesis_text, coef_names))
    for cs in systems:
        validate(cs)
    return systems


def _complement_text(n_hypotheses: int) -> str:
    if n_hypotheses == 1:
        return "Not H1"
    return f"Not H1-H{n_hypotheses}"


def test_hypotheses(
    fit: RegressionFit,
    hypothesis_text: str,
    prior_probs=None,
    mcrep: int = 1_000_000,
    seed: int = 0,
    *,
    df_as_printed: bool = False,
):
    """Run a full confirmatory (or exploratory) test.

    Parses and validates the hypothesis text, computes every Bayes factor
    against the unconstrained model, appends the automatic complement
    when the stated hypotheses do not exhaust the space, and converts to
    posterior probabilities.  The same seed yields a bit-identical
    result.  The text ``"exploratory"`` delegates to
    :func:`exploratory_test`.

    What depends on the hypotheses alone is done once and reused across
    fits and seeds: the parsed and validated systems (with their
    equality reductions and prior centers) are kept per ``(text,
    fit.coef_names)`` for the last 64 distinct pairs, and the
    complement's term structure and prior center per distinct row content
    (:func:`~bfreg.numkernel.complement_prob`).  The posterior and the
    minimal-fraction prior of ``fit`` are built once per call and serve
    every hypothesis and the complement.  Warnings about inexact prior
    centers are raised on every call.
    """
    mcrep = int(mcrep)
    if mcrep < 1:
        raise InvalidInputError("mcrep must be positive")
    if is_exploratory(hypothesis_text):
        return exploratory_test(fit, mcrep=mcrep, seed=seed)
    systems = _validated(hypothesis_text, tuple(fit.coef_names))
    laws = _fit_laws(fit)
    components = []
    for i, cs in enumerate(systems):
        try:
            components.append(
                bf_unconstrained(
                    fit,
                    cs,
                    mcrep,
                    derived_seed(seed, 10, i),
                    df_as_printed=df_as_printed,
                    _laws=laws,
                )
            )
        except BfregError as exc:
            if str(exc).startswith(f"{cs.label}:"):
                raise
            raise type(exc)(f"{cs.label}: {exc}") from exc
    complement = bf_complement(
        fit, systems, components, mcrep, derived_seed(seed, 20), _laws=laws
    )
    texts = [cs.source for cs in systems]
    if complement is not None:
        components.append(complement)
        texts.append(_complement_text(len(systems)))
    plus = " plus the automatic complement" if complement is not None else ""
    detail = f" ({len(systems)} stated hypotheses{plus})"
    w = _prior_weights(prior_probs, len(components), detail)
    post = _log_posteriors([c.log_bf for c in components], w)
    return TestResult(
        labels=tuple(c.label for c in components),
        hypothesis_texts=tuple(texts),
        components=tuple(components),
        prior_probs=w,
        post_probs=post,
        bf_matrix=bf_matrix(components),
        seed=seed,
        mcrep=mcrep,
    )


def exploratory_test(
    fit: RegressionFit, mcrep: int = 1_000_000, seed: int = 0
) -> ExploratoryResult:
    """For every coefficient, test {< 0, = 0, > 0} with equal priors.

    With ``z_j = beta_j / sqrt(v_j)``, ``v`` and ``v0`` the scale diagonals
    of the posterior and the minimal-fraction prior, the Bayes factors are
    ``T_nu(-z_j) / (1/2)``, ``t_nu(0; beta_j, v_j) / t_nu0(0; 0, v0_j)`` and
    ``T_nu(z_j) / (1/2)``: those of :func:`bf_unconstrained` on ``x<0``,
    ``x=0`` and ``x>0``, evaluated for all coefficients at once.  All are
    exact (``seed`` and ``mcrep`` are only recorded), each row sums to 1,
    and no complement applies (the three hypotheses exhaust the line).
    """
    post, prior = _fit_laws(fit)
    v, v0 = np.diag(post.scale), np.diag(prior.scale)
    if not np.all(np.minimum(v, v0) > 0):
        raise NumericError("H1: prior constraint probability is numerically zero")
    sd = np.sqrt(v)
    z = post.location / sd
    f_lt, f_gt = t_cdf(-z, post.df), t_cdf(z, post.df)
    log_f = _t_logpdf(z, sd, post.df)
    log_c = _t_logpdf(0.0, np.sqrt(v0), prior.df)
    log_half = math.log(0.5)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_bf = np.column_stack(
            [np.log(f_lt) - log_half, log_f - log_c, np.log(f_gt) - log_half]
        )
        bf = np.exp(log_bf)
        f_e, c_e = np.exp(log_f), np.exp(log_c)
        matrices = bf[:, :, None] / bf[:, None, :]
    half = ProbEstimate(0.5, 0.0, True, 0)
    lt, gt = ([ProbEstimate(p, 0.0, True, 0) for p in a.tolist()] for a in (f_lt, f_gt))
    columns = (a.tolist() for a in (f_e, c_e, log_bf, bf))
    components = tuple(
        (
            BFComponents("H1", None, None, half, p_lt, lb[0], b[0]),
            BFComponents("H2", c, f, None, None, lb[1], b[1]),
            BFComponents("H3", None, None, half, p_gt, lb[2], b[2]),
        )
        for p_lt, p_gt, f, c, lb, b in zip(lt, gt, *columns)
    )
    return ExploratoryResult(
        coef_names=fit.coef_names,
        post_probs=_log_posteriors(log_bf),
        components=components,
        bf_matrices=dict(zip(fit.coef_names, matrices)),
        seed=seed,
        mcrep=int(mcrep),
    )
