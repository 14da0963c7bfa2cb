"""Reparameterization and fractional posterior distributions.

Math notes
----------
For a hypothesis with equality part ``R_E beta = r_E`` (q_E rows, full row
rank) the coefficient vector is rotated into ``xi = T beta`` with
``T = [R_E; D]`` where the rows of ``D`` form an orthonormal basis of the
null space of ``R_E``.  Then ``xi_E = R_E beta`` carries the equality
part, ``xi_I = D beta`` the free directions, and
``T^{-1} = [R_E^+  D^+]`` by blocks.  Inequalities map to
``Rtilde_I xi_I > rtilde_I`` with ``Rtilde_I = R_I D^+`` and
``rtilde_I = r_I - R_I R_E^+ r_E``.

The fraction ``b`` of the likelihood used to build the implicit prior
gives the unconstrained fractional posterior

    beta | y^b  ~  t(beta_hat, s2 (nb - k)^{-1} (X'X)^{-1}, nb - k)

so ``b = 1`` is the full posterior and the minimal fraction
``b = (k+1)/n`` leaves a single degree of freedom (a Cauchy-tailed
default prior).  Marginals and conditionals follow the standard
Student-t identities: given the joint ``t(mu, K, nu)`` split into blocks
E and I,

    xi_E            ~ t(mu_E, K_EE, nu)
    xi_I | xi_E = x ~ t(mu_I + K_IE K_EE^{-1} (x - mu_E),
                        (nu + delta)/(nu + q_E) * (K_II - K_IE K_EE^{-1} K_EI),
                        nu + q_E)

with ``delta = (x - mu_E)' K_EE^{-1} (x - mu_E)``.  The conditional
degrees of freedom are ``nu + q_E``; the ``df_as_printed`` switch drops
the ``+ q_E`` for comparison with older write-ups that tabulate the
unadjusted value, at the cost of breaking the exact joint = marginal x
conditional factorization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConstraintCenterWarning, InvalidInputError, NumericError
from .hyparse import ConstraintSystem
from .model import RegressionFit
from .numkernel import MultivariateT


@dataclass(frozen=True)
class TransformedSystem:
    """A hypothesis rotated into the ``xi = T beta`` coordinates."""

    T: np.ndarray
    D: np.ndarray
    T_inv_E: np.ndarray
    T_inv_I: np.ndarray
    Rtilde_I: np.ndarray
    rtilde_I: np.ndarray
    xi_hat: np.ndarray
    r_star: np.ndarray
    mu0: np.ndarray
    q_E: int
    q_I: int
    k: int
    consistent: bool


def minimal_fraction(fit: RegressionFit) -> float:
    """The smallest usable training fraction, ``(k + 1) / n``."""
    return (fit.k + 1) / fit.n


def _snap_df(nu: float) -> float:
    # b arrives as a float ratio; nb - k is integral for the fractions of
    # interest and is snapped so the minimal fraction lands on df exactly 1.
    nearest = round(nu)
    if abs(nu - nearest) < 1e-9 and nearest > 0:
        return float(nearest)
    return nu


def fractional_posterior_beta(fit: RegressionFit, b: float) -> MultivariateT:
    """Unconstrained fractional posterior of ``beta`` for fraction ``b``.

    ``t(beta_hat, s2 (nb - k)^{-1} (X'X)^{-1}, nb - k)``; requires
    ``k/n < b <= 1``.
    """
    if b > 1.0 + 1e-12:
        raise InvalidInputError(f"fraction b = {b} exceeds 1")
    nu = _snap_df(b * fit.n - fit.k)
    if nu <= 0:
        raise InvalidInputError(
            f"fraction b = {b} too small: n*b must exceed k = {fit.k}"
        )
    return MultivariateT(fit.beta_hat, fit.s2 / nu * fit.xtx_inv, nu)


def build_transform(cs: ConstraintSystem, fit: RegressionFit) -> TransformedSystem:
    """Construct the rotation and derived quantities for one hypothesis.

    The prior center ``mu0 = T beta0`` places the implicit prior on the
    boundary of the constrained region, with ``beta0`` the minimum-norm
    least-squares solution of the stacked system ``[R_E; R_I] beta =
    [r_E; r_I]``.  When that stacked system has no exact solution a
    :class:`ConstraintCenterWarning` is emitted and the least-squares
    point is used.
    """
    if cs.k != fit.k:
        raise InvalidInputError(
            f"hypothesis is over {cs.k} coefficients, model has {fit.k}"
        )
    k = cs.k
    D, T_inv_E, T_inv_I, Rtilde, rtilde = cs.reduction
    if D.shape[0] != k - cs.q_E:
        raise NumericError(f"{cs.label}: equality rows are not linearly independent")
    if cs.q_E:
        if not np.allclose(cs.R_E @ T_inv_E, np.eye(cs.q_E), atol=1e-9):
            raise NumericError(f"{cs.label}: transform is numerically singular")
        if D.size and not np.allclose(D @ T_inv_I, np.eye(k - cs.q_E), atol=1e-9):
            raise NumericError(f"{cs.label}: transform is numerically singular")
    T = np.vstack([cs.R_E, D])

    xi_hat = T @ fit.beta_hat
    r_star = Rtilde @ xi_hat[cs.q_E:]

    stack_R = np.vstack([cs.R_E, cs.R_I])
    stack_r = np.concatenate([cs.r_E, cs.r_I])
    beta0, *_ = np.linalg.lstsq(stack_R, stack_r, rcond=None)
    consistent = bool(
        np.linalg.norm(stack_R @ beta0 - stack_r)
        <= 1e-8 * (1.0 + np.linalg.norm(stack_r))
    )
    if not consistent:
        warnings.warn(
            f"{cs.label}: the stacked constraint system has no exact "
            "solution; the prior is centered on its least-squares point",
            ConstraintCenterWarning,
            stacklevel=2,
        )
    mu0 = T @ beta0
    return TransformedSystem(
        T=T,
        D=D,
        T_inv_E=T_inv_E,
        T_inv_I=T_inv_I,
        Rtilde_I=Rtilde,
        rtilde_I=rtilde,
        xi_hat=xi_hat,
        r_star=r_star,
        mu0=mu0,
        q_E=cs.q_E,
        q_I=cs.q_I,
        k=k,
        consistent=consistent,
    )


def _joint_xi(fit: RegressionFit, ts: TransformedSystem, b: float) -> MultivariateT:
    base = fractional_posterior_beta(fit, b)
    scale = ts.T @ base.scale @ ts.T.T
    return MultivariateT(ts.T @ base.location, 0.5 * (scale + scale.T), base.df)


def marginal_xiE(fit: RegressionFit, ts: TransformedSystem, b: float) -> MultivariateT:
    """Marginal fractional posterior of the equality block ``xi_E``."""
    if ts.q_E == 0:
        raise InvalidInputError("hypothesis has no equality constraints")
    joint = _joint_xi(fit, ts, b)
    q = ts.q_E
    return MultivariateT(joint.location[:q], joint.scale[:q, :q], joint.df)


def conditional_xiI(
    fit: RegressionFit,
    ts: TransformedSystem,
    b: float,
    xi_E_value,
    df_as_printed: bool = False,
) -> MultivariateT:
    """Conditional fractional posterior of ``xi_I`` given ``xi_E``.

    Location, scale and degrees of freedom follow the Student-t
    conditioning identities in the module notes.  ``df_as_printed``
    reports the unadjusted degrees of freedom ``nb - k`` instead of
    ``nb - k + q_E`` (comparison mode only; it breaks the joint
    factorization).
    """
    if ts.q_E == 0:
        raise InvalidInputError("hypothesis has no equality constraints")
    if ts.k - ts.q_E == 0:
        raise InvalidInputError("no free directions remain after the equalities")
    x = np.atleast_1d(np.asarray(xi_E_value, dtype=float))
    if x.shape != (ts.q_E,):
        raise InvalidInputError(
            f"xi_E value has shape {x.shape}, expected ({ts.q_E},)"
        )
    joint = _joint_xi(fit, ts, b)
    q = ts.q_E
    nu = joint.df
    K_EE = joint.scale[:q, :q]
    K_IE = joint.scale[q:, :q]
    K_II = joint.scale[q:, q:]
    try:
        cf = cho_factor(K_EE)
    except np.linalg.LinAlgError as exc:
        raise NumericError("equality block scale is not positive definite") from exc
    dev = x - joint.location[:q]
    w = cho_solve(cf, dev)
    location = joint.location[q:] + K_IE @ w
    delta = float(dev @ w)
    correction = K_IE @ cho_solve(cf, K_IE.T)
    scale = (nu + delta) / (nu + q) * (K_II - correction)
    scale = 0.5 * (scale + scale.T)
    df = nu if df_as_printed else nu + q
    return MultivariateT(location, scale, df)
