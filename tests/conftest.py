"""Shared fixtures and fit builders for the test suite."""

import sys
from pathlib import Path

import numpy as np
import pytest

from bfreg import Dataset, RegressionFit, fit_ols

# the demo script owns the raw two-effect data; make_two_effect_fit is its fit
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from two_effect_demo import build_dataset as make_two_effect_dataset  # noqa: E402


def make_two_effect_fit() -> RegressionFit:
    """Orthogonal-design fit with two standardized effects.

    The sufficient statistics are set directly so downstream analytic
    quantities are reproducible to machine precision: n = 20 rows, an
    intercept of 1, slopes 0.7 and 0.03, raw residual sum of squares 19,
    and X'X = diag(20, 19, 19) as produced by two centered columns with
    sample variance 1 that are exactly decorrelated.
    """
    return RegressionFit(
        coef_names=("(Intercept)", "x1", "x2"),
        beta_hat=np.array([1.0, 0.7, 0.03]),
        s2=19.0,
        xtx_inv=np.diag([1 / 20, 1 / 19, 1 / 19]),
        n=20,
        k=3,
    )


def make_random_fit(seed, n: int = 50, k: int = 3, beta=None, sigma=1.0):
    """OLS fit on simulated data with k - 1 standard normal predictors."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k - 1))
    if beta is None:
        beta = rng.normal(0.0, 0.8, size=k)
    beta = np.asarray(beta, dtype=float)
    y = beta[0] + x @ beta[1:] + sigma * rng.standard_normal(n)
    names = ("y",) + tuple(f"x{j}" for j in range(1, k))
    data = Dataset(column_names=names, columns=np.column_stack([y, x]))
    return fit_ols(data, "y ~ " + " + ".join(names[1:]))


def make_k5_dataset() -> Dataset:
    """The k = 5 data of scripts/dump_outputs.py: n = 200, an intercept of
    0.2 and slopes .5, .3, .1, -.1 on independent standard normals."""
    rng = np.random.default_rng(2018)
    x = rng.standard_normal((200, 4))
    y = 0.2 + x @ np.array([0.5, 0.3, 0.1, -0.1]) + rng.standard_normal(200)
    return Dataset(("y", "x1", "x2", "x3", "x4"), np.column_stack([y, x]))


@pytest.fixture
def two_effect_fit():
    return make_two_effect_fit()


@pytest.fixture
def two_effect_data():
    return make_two_effect_dataset()
