"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line (run with ``-s`` to see
them) and then asserts, so the terse report survives even when a
criterion fails.  Tolerances follow the method's published arithmetic:
analytic paths get tight absolute or relative bounds, Monte Carlo paths
get three standard errors (propagated through the Bayes factor where
needed), and sampling-consistency claims get explicit success-count
thresholds across seeds.
"""

import time

import numpy as np
import pytest

import bfreg
from bfreg import (
    ConstraintSystem,
    Dataset,
    MultivariateT,
    RegressionFit,
    build_transform,
    conditional_xiI,
    exploratory_test,
    fit_ols,
    parse_hypotheses,
    posterior_probabilities,
)
from bfreg.constraints import (
    fractional_posterior_beta,
    marginal_xiE,
    minimal_fraction,
)
from bfreg.engine import bf_unconstrained
from bfreg.numkernel import mvt_logpdf

from conftest import make_random_fit, make_two_effect_dataset, make_two_effect_fit
from oracle import oracle_bf

run_hypotheses = bfreg.test_hypotheses

THREE_HYP = "x1=x2=0; (x1,x2)>0; x1>x2=0"


def report(num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\ncriterion {num:>2} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_01_posterior_probability_arithmetic():
    bf = (0.383, 2.183, 10.061, 0.606)
    p = posterior_probabilities(bf)
    ok_values = bool(
        np.all(np.abs(p - np.array([0.029, 0.165, 0.760, 0.046])) <= 0.001)
    )
    best = min(
        (
            (lambda t0: (posterior_probabilities(bf), time.perf_counter() - t0))(
                time.perf_counter()
            )[1]
        )
        for _ in range(20)
    )
    ok_time = best < 1e-3
    ok = report(
        1,
        "posterior probability arithmetic",
        ok_values and ok_time,
        f"p={np.round(p, 3)}, best={best * 1e6:.0f}us",
    )
    assert ok


def test_criterion_02_normalization_example():
    p = posterior_probabilities((58.265, 32.525, 0.036, 0.357))
    ok = abs(p[0] - 0.639) <= 0.001
    report(2, "four-way normalization", ok, f"p1={p[0]:.4f}")
    assert ok


def test_criterion_03_complement_bayes_factor(two_effect_fit):
    res = run_hypotheses(two_effect_fit, THREE_HYP, mcrep=1_000_000, seed=101)
    comp = res.components[-1]
    se_b = comp.bf * np.hypot(
        comp.f_ie.std_error / comp.f_ie.value,
        comp.c_ie.std_error / comp.c_ie.value,
    )
    # 0.606 is printed to three decimals, hence the half-ulp slack
    ok = abs(comp.bf - 0.606) <= 3 * se_b + 0.0005
    report(
        3,
        "complement Bayes factor",
        ok,
        f"Bc={comp.bf:.4f}, 3se={3 * se_b:.4f}",
    )
    assert ok


def test_criterion_04_orthant_prior_probabilities():
    fit = RegressionFit(
        coef_names=("(Intercept)", "x1", "x2", "x3"),
        beta_hat=np.array([0.2, 0.5, 0.4, 0.3]),
        s2=46.0,
        xtx_inv=np.diag([1 / 50, 1 / 50, 1 / 50, 1 / 50]),
        n=50,
        k=4,
    )
    t0 = time.perf_counter()
    details = []
    ok = True
    for q, text in ((1, "x1>0"), (2, "(x1,x2)>0"), (3, "(x1,x2,x3)>0")):
        (cs,) = parse_hypotheses(text, fit.coef_names)
        comp = bf_unconstrained(fit, cs, 1_000_000, seed=200 + q)
        target = 0.5**q
        if comp.c_ie.exact:
            ok = ok and comp.c_ie.value == target
        else:
            ok = ok and abs(comp.c_ie.value - target) <= 3 * comp.c_ie.std_error
        details.append(f"q{q}={comp.c_ie.value:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        4,
        "orthant prior probabilities",
        ok,
        ", ".join(details) + f", {elapsed:.1f}s",
    )
    assert ok


def _random_equality_instance(rng, fit, q_e):
    R_E = rng.standard_normal((q_e, fit.k))
    r_E = R_E @ fit.beta_hat + rng.normal(0.0, 0.3, q_e)
    return ConstraintSystem(
        "H1", "synthetic", R_E, r_E, np.zeros((0, fit.k)), np.zeros(0)
    )


def _random_inequality_instance(rng, fit, q_i):
    R_I = rng.standard_normal((q_i, fit.k))
    r_I = R_I @ fit.beta_hat - rng.uniform(0.2, 1.2, q_i)
    return ConstraintSystem(
        "H1", "synthetic", np.zeros((0, fit.k)), np.zeros(0), R_I, r_I
    )


def _random_mixed_instance(rng, fit, q_i):
    R_E = rng.standard_normal((1, fit.k))
    r_E = R_E @ fit.beta_hat + rng.normal(0.0, 0.2, 1)
    beta_star = fit.beta_hat + np.linalg.pinv(R_E) @ (r_E - R_E @ fit.beta_hat)
    R_I = rng.standard_normal((q_i, fit.k))
    r_I = R_I @ beta_star - rng.uniform(0.3, 1.0, q_i)
    return ConstraintSystem("H1", "synthetic", R_E, r_E, R_I, r_I)


# Relative standard error each oracle proportion is drawn down to, so that
# the oracle's own error (two proportions in quadrature, at most 0.0142)
# stays below a third of the 0.05 bound even where a prior cone holds
# only 0.2% of the mass.
_ORACLE_REL_SE = 0.01


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = {"equality": 0.0, "inequality": 0.0, "mixed": 0.0}
    worst_oracle = 0.0
    for i in range(20):
        fit = make_random_fit(seed=5000 + i, n=50, k=int(rng.integers(3, 5)))

        cs = _random_equality_instance(rng, fit, int(rng.integers(1, 3)))
        engine = bf_unconstrained(fit, cs, 10_000, seed=600 + i)
        ref = oracle_bf(fit, cs, 10_000, seed=700 + i)
        worst["equality"] = max(
            worst["equality"], abs(engine.bf / ref.value - 1.0)
        )

        cs = _random_inequality_instance(rng, fit, int(rng.integers(1, 4)))
        engine = bf_unconstrained(fit, cs, 400_000, seed=800 + i)
        ref = oracle_bf(fit, cs, 400_000, seed=900 + i, rel_se=_ORACLE_REL_SE)
        worst["inequality"] = max(
            worst["inequality"], abs(engine.bf / ref.value - 1.0)
        )
        worst_oracle = max(worst_oracle, ref.rel_error_bound)

        cs = _random_mixed_instance(rng, fit, int(rng.integers(1, 3)))
        engine = bf_unconstrained(fit, cs, 400_000, seed=1000 + i)
        ref = oracle_bf(fit, cs, 400_000, seed=1100 + i, rel_se=_ORACLE_REL_SE)
        worst["mixed"] = max(worst["mixed"], abs(engine.bf / ref.value - 1.0))
        worst_oracle = max(worst_oracle, ref.rel_error_bound)
    elapsed = time.perf_counter() - t0
    ok = (
        worst["equality"] < 1e-3
        and worst["inequality"] < 0.05
        and worst["mixed"] < 0.05
        and worst_oracle <= 0.05 / 3
        and elapsed < 300.0
    )
    report(
        5,
        "oracle equivalence (20 instances/case)",
        ok,
        f"eq={worst['equality']:.2e}, ineq={worst['inequality']:.3f}, "
        f"mixed={worst['mixed']:.3f}, oracle rel SE<={worst_oracle:.4f}, "
        f"{elapsed:.0f}s",
    )
    assert ok


def test_criterion_06_factorization_invariant():
    rng = np.random.default_rng(606)
    worst = 0.0
    fractions = (None, 0.5, 1.0)
    for i in range(20):
        fit = make_random_fit(seed=6000 + i, n=50, k=4)
        q_e = int(rng.integers(1, 3))
        q_i = int(rng.integers(1, 3))
        cs = _random_mixed_instance(rng, fit, q_i)
        if q_e == 2:
            extra = rng.standard_normal((1, fit.k))
            cs = ConstraintSystem(
                "H1",
                "synthetic",
                np.vstack([cs.R_E, extra]),
                np.concatenate([cs.r_E, extra @ fit.beta_hat]),
                cs.R_I,
                cs.r_I,
            )
        ts = build_transform(cs, fit)
        b = fractions[i % 3]
        b = minimal_fraction(fit) if b is None else b
        base = fractional_posterior_beta(fit, b)
        joint = MultivariateT(
            ts.T @ base.location, ts.T @ base.scale @ ts.T.T, base.df
        )
        marg = marginal_xiE(fit, ts, b)
        for _ in range(50):
            xi = joint.location + rng.standard_normal(fit.k) * 2.0
            cond = conditional_xiI(fit, ts, b, xi[: ts.q_E])
            lhs = mvt_logpdf(xi, joint)
            rhs = mvt_logpdf(xi[: ts.q_E], marg) + mvt_logpdf(
                xi[ts.q_E :], cond
            )
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-8
    report(6, "density factorization invariant", ok, f"worst={worst:.2e}")
    assert ok


def test_criterion_07_exploratory_coherence(two_effect_fit):
    res = exploratory_test(two_effect_fit, seed=1)
    ok = bool(np.all(np.abs(res.post_probs.sum(axis=1) - 1.0) < 1e-12))
    zero_fit = RegressionFit(
        coef_names=("(Intercept)", "x1"),
        beta_hat=np.array([1.0, 0.0]),
        s2=25.0,
        xtx_inv=np.diag([1 / 30, 1 / 29]),
        n=30,
        k=2,
    )
    row = exploratory_test(zero_fit, seed=1).post_probs[1]
    ok = ok and abs(row[0] - row[2]) < 1e-10
    report(
        7,
        "exploratory coherence",
        ok,
        f"row sums ok, |p(<0)-p(>0)|={abs(row[0] - row[2]):.1e}",
    )
    assert ok


def test_criterion_08_parser_fidelity():
    coefs = ("(Intercept)", "x1", "x2", "x3")
    (order,) = parse_hypotheses("x1 > x2 > x3 > 0", coefs)
    ok = (
        np.array_equal(
            order.R_I, [[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
        )
        and np.array_equal(order.r_I, [0, 0, 0])
        and order.q_E == 0
    )
    (eq_order,) = parse_hypotheses("x1 = x2 = x3 > 0", coefs)
    ok = ok and (
        np.array_equal(eq_order.R_E, [[0, 1, -1, 0], [0, 0, 1, -1]])
        and np.array_equal(eq_order.r_E, [0, 0])
        and np.array_equal(eq_order.R_I, [[0, 0, 0, 1]])
        and np.array_equal(eq_order.r_I, [0])
    )
    report(8, "parser fidelity (integer-exact matrices)", ok)
    assert ok


def test_criterion_09_large_sample_consistency():
    t0 = time.perf_counter()
    hits = 0
    n_seeds = 50
    for s in range(n_seeds):
        rng = np.random.default_rng(9000 + s)
        n = 1000
        x = rng.standard_normal((n, 3))
        y = (
            0.2
            + 0.45 * x[:, 0]
            + 0.30 * x[:, 1]
            + 0.15 * x[:, 2]
            + rng.standard_normal(n)
        )
        fit = fit_ols(
            Dataset(("y", "x1", "x2", "x3"), np.column_stack([y, x])),
            "y ~ x1 + x2 + x3",
        )
        res = run_hypotheses(
            fit, "x1>x2>x3>0; x3>x2>x1>0", mcrep=20_000, seed=s + 1
        )
        if int(np.argmax(res.post_probs)) == 0:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 45 and elapsed < 120.0
    report(
        9,
        "large-sample consistency",
        ok,
        f"{hits}/{n_seeds} top-ranked, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_10_small_sample_shape():
    hits = 0
    n_seeds = 100
    for s in range(n_seeds):
        data = make_two_effect_dataset(noise_seed=10_000 + s)
        fit = fit_ols(data, "y ~ x1 + x2")
        res = run_hypotheses(fit, THREE_HYP, mcrep=20_000, seed=s + 1)
        if int(np.argmax(res.post_probs)) == 2:
            hits += 1
    ok = hits >= 70
    report(
        10,
        "small-sample shape (mixed hypothesis wins)",
        ok,
        f"{hits}/{n_seeds} top-ranked",
    )
    assert ok


def test_criterion_11_invariance_suites():
    data = make_two_effect_dataset()
    lam = 5.0
    scaled = Dataset(
        data.column_names,
        np.column_stack(
            [lam * data.column("y"), data.column("x1"), data.column("x2")]
        ),
    )
    fit_a = fit_ols(data, "y ~ x1 + x2")
    fit_b = fit_ols(scaled, "y ~ x1 + x2")
    res_a = run_hypotheses(fit_a, THREE_HYP, mcrep=100_000, seed=77)
    res_b = run_hypotheses(fit_b, THREE_HYP, mcrep=100_000, seed=77)
    ok = True
    worst_scale = 0.0
    for ca, cb in zip(res_a.components, res_b.components):
        if ca.uses_mc:
            se = np.sqrt(
                2
                * (
                    (ca.f_ie.std_error / ca.f_ie.value) ** 2
                    + (ca.c_ie.std_error / ca.c_ie.value) ** 2
                )
            )
            ok = ok and abs(np.log(cb.bf) - np.log(ca.bf)) < 3 * se
        else:
            worst_scale = max(worst_scale, abs(cb.bf / ca.bf - 1.0))
    ok = ok and worst_scale < 1e-9

    fit_p = fit_ols(data, "y ~ x2 + x1")
    res_p = run_hypotheses(fit_p, "x1=x2=0; x1>x2=0", mcrep=10_000, seed=78)
    res_o = run_hypotheses(fit_a, "x1=x2=0; x1>x2=0", mcrep=10_000, seed=78)
    worst_perm = max(
        abs(cp.bf / co.bf - 1.0)
        for cp, co in zip(res_p.components, res_o.components)
    )
    ok = ok and worst_perm < 1e-10
    report(
        11,
        "scale and permutation invariance",
        ok,
        f"scale={worst_scale:.1e}, perm={worst_perm:.1e}",
    )
    assert ok
