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
``rtilde_I = r_I - R_I R_E^+ r_E``; a row the equalities leave without
coefficient content is dropped when vacuously true and rejected
otherwise.  That reduction and the prior center ``mu0 = (r_E, c)``, with
``c`` the minimum-norm least-squares solution of the remaining rows
``Rtilde_I xi_I = rtilde_I``, depend on the hypothesis alone and are
cached on the system (:attr:`~bfreg.hyparse.ConstraintSystem.reduction`).
When ``c`` is exact every inequality boundary passes through it, so each
prior region is a cone with its apex at the prior's center; otherwise (a
band such as ``1 > x1 > 0``) a :class:`ConstraintCenterWarning` is raised.

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

from .errors import ConstraintCenterWarning, InvalidInputError, NumericError
from .hyparse import ConstraintSystem
from .model import RegressionFit
from .numkernel import MultivariateT


@dataclass(frozen=True)
class TransformedSystem:
    """A hypothesis rotated into the ``xi = T beta`` coordinates of one fit.

    ``T = [R_E; D]``, ``xi_hat = T beta_hat`` and ``q_E`` are what the
    conditioning helpers need.  The reduced inequalities and the prior
    center depend on the hypothesis alone and are read from
    :attr:`~bfreg.hyparse.ConstraintSystem.reduction`.
    """

    T: np.ndarray
    xi_hat: np.ndarray
    q_E: int


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


def warn_if_inexact(label: str, exact: bool) -> None:
    """Warn unless ``label``'s prior center is exact; the warning is
    attributed to the caller of this function's caller."""
    if not exact:
        warnings.warn(
            f"{label}: the stacked constraint system has no exact "
            "solution; the prior is centered on its least-squares point",
            ConstraintCenterWarning,
            stacklevel=3,
        )


def build_transform(cs: ConstraintSystem, fit: RegressionFit) -> TransformedSystem:
    """Rotate one hypothesis into ``xi = T beta`` for ``fit``.

    ``T`` is stacked from ``R_E`` and the null-space basis ``D`` of the
    system's cached reduction (see the module notes); only ``xi_hat = T
    beta_hat`` is computed here.  A :class:`ConstraintCenterWarning` is
    emitted when the reduction's prior center is only a least-squares
    point.
    """
    if cs.k != fit.k:
        raise InvalidInputError(
            f"hypothesis is over {cs.k} coefficients, model has {fit.k}"
        )
    red = cs.reduction
    warn_if_inexact(cs.label, red.center_exact)
    T = np.vstack([cs.R_E, red.D])
    return TransformedSystem(T=T, xi_hat=T @ fit.beta_hat, q_E=cs.q_E)


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
    if ts.T.shape[0] == ts.q_E:
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
        L = np.linalg.cholesky(K_EE)
    except np.linalg.LinAlgError as exc:
        raise NumericError("equality block scale is not positive definite") from exc
    # with K_EE = L L', K_IE K_EE^{-1} = A' L^{-1} for A = L^{-1} K_EI
    A = np.linalg.solve(L, K_IE.T)
    v = np.linalg.solve(L, x - joint.location[:q])
    location = joint.location[q:] + A.T @ v
    delta = float(v @ v)
    scale = (nu + delta) / (nu + q) * (K_II - A.T @ A)
    scale = 0.5 * (scale + scale.T)
    df = nu if df_as_printed else nu + q
    return MultivariateT(location, scale, df)
