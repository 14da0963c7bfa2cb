"""Run the two-predictor demonstration analysis end to end.

Builds a small synthetic dataset with an exactly orthogonalized design
(n = 20, coefficients 1.0, 0.7 and 0.03, error variance tuned so the
raw residual sum of squares is 19 when the noise is frozen), fits the
regression, and evaluates three competing hypotheses about the two
slopes plus the automatic complement.  With the default frozen noise
the Bayes factors land on the familiar values 0.383, 2.183 and 10.061.

Usage:
    python scripts/two_effect_demo.py
    python scripts/two_effect_demo.py --fresh-noise --seed 7 --mcrep 500000
"""

import argparse
import sys

import numpy as np

from bfreg import Dataset, fit_ols, test_hypotheses
from bfreg.cli import render_test_text

HYPOTHESES = "x1=x2=0; (x1,x2)>0; x1>x2=0"


def build_dataset(design_seed=7, noise_seed=None):
    """Orthonormalized two-predictor design with optional fresh noise.

    Two predictor columns are centered and orthonormalized by QR, then
    scaled so each has sample variance 1 and X'X = diag(20, 19, 19).
    With the default frozen error (the third orthonormal direction scaled
    to norm sqrt(19)) the fit reproduces beta_hat = (1, 0.7, 0.03) and a
    raw residual sum of squares of 19 to the last bit.  Passing
    ``noise_seed`` swaps in fresh standard normal errors while keeping
    the design fixed.  The test suite uses this dataset too.
    """
    n = 20
    rng = np.random.default_rng(design_seed)
    z = rng.standard_normal((n, 3))
    z -= z.mean(axis=0)
    q, _ = np.linalg.qr(z)
    x = q[:, :2] * np.sqrt(19.0)
    if noise_seed is None:
        err = q[:, 2] * np.sqrt(19.0)
    else:
        err = np.random.default_rng(noise_seed).standard_normal(n)
    y = 1.0 + 0.7 * x[:, 0] + 0.03 * x[:, 1] + err
    return Dataset(("y", "x1", "x2"), np.column_stack([y, x]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42, help="RNG seed")
    parser.add_argument(
        "--mcrep", type=int, default=1_000_000, help="Monte Carlo draws"
    )
    parser.add_argument(
        "--fresh-noise",
        action="store_true",
        help="draw new noise (seeded by --seed) instead of the frozen errors",
    )
    args = parser.parse_args(argv)

    noise_seed = args.seed if args.fresh_noise else None
    data = build_dataset(noise_seed=noise_seed)
    fit = fit_ols(data, "y ~ x1 + x2")

    print(f"n = {fit.n}, coefficients = {np.round(fit.beta_hat, 4)}")
    print(f"residual sum of squares = {fit.s2:.4f}")
    print()

    result = test_hypotheses(
        fit, HYPOTHESES, mcrep=args.mcrep, seed=args.seed
    )
    print(render_test_text(result, show=("computation", "ci", "bf-matrix")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
