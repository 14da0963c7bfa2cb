"""Default Bayes factors for equality- and order-constrained hypotheses
on linear regression coefficients.

Typical use::

    from bfreg import load_csv, fit_ols, test_hypotheses

    data = load_csv("study.csv")
    fit = fit_ols(data, "y ~ x1 + x2")
    result = test_hypotheses(fit, "x1 > x2 > 0; x1 = x2 = 0", seed=1)
    print(result.post_probs)
"""

from .constraints import (
    TransformedSystem,
    build_transform,
    conditional_xiI,
    fractional_posterior_beta,
    marginal_xiE,
)
from .engine import (
    BFComponents,
    ExploratoryResult,
    TestResult,
    bf_matrix,
    exploratory_test,
    posterior_probabilities,
    test_hypotheses,
)
from .errors import (
    BfregError,
    ConstraintCenterWarning,
    DataError,
    DecompositionError,
    FormulaError,
    HypothesisSyntaxError,
    InconsistentEqualityError,
    InfeasibleHypothesisError,
    InvalidInputError,
    NumericError,
)
from .hyparse import ConstraintSystem, parse_hypotheses
from .model import Dataset, RegressionFit, fit_ols, load_csv, standardize
from .numkernel import MultivariateT, ProbEstimate

__version__ = "0.1.0"

__all__ = [
    "BFComponents",
    "BfregError",
    "ConstraintCenterWarning",
    "ConstraintSystem",
    "DataError",
    "Dataset",
    "DecompositionError",
    "ExploratoryResult",
    "FormulaError",
    "HypothesisSyntaxError",
    "InconsistentEqualityError",
    "InfeasibleHypothesisError",
    "InvalidInputError",
    "MultivariateT",
    "NumericError",
    "ProbEstimate",
    "RegressionFit",
    "TestResult",
    "TransformedSystem",
    "bf_matrix",
    "build_transform",
    "conditional_xiI",
    "exploratory_test",
    "fit_ols",
    "fractional_posterior_beta",
    "load_csv",
    "marginal_xiE",
    "parse_hypotheses",
    "posterior_probabilities",
    "standardize",
    "test_hypotheses",
]
