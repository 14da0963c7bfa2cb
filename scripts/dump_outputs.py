"""Write the JSON documents of a fixed set of analyses to one file.

Every case is rendered with ``bfreg.cli.render_json`` at a fixed seed, so
two checkouts that compute the same numbers write byte-identical files.
The cases cover every estimation path: the benchmark's workload inputs
(``order-mc`` operations 0-3 and ``sim-study`` operations 0-9 at seeds 1,
2 and 5, so that comparing two dumps is the whole bit check of a change
that keeps the arithmetic; ``explore-wide`` at seed 5), mixed hypotheses
with zero and nonzero bounds, a band whose prior center is inexact,
inequalities that the equalities make vacuous (with free directions left
and with every coefficient pinned), raw-coordinate systems, three rows of
rank 2 through the prior's location (closed form), two- and three-system
complements (one whose inclusion-exclusion does not resolve its small
value and falls back to disjoint pieces, one whose terms leave less than
one lattice block each at ``K5_MCREP`` and take fewer points, and one
whose far-tail terms, bounded at first, are estimated after all because
the other terms' standard error is too small beside their bounds), a
far-tail complement at 1 degree of freedom, where the half-space bounds
of its terms are loosest,
``df_as_printed``, the exploratory screen of the k5 fit and of a fit
whose ``Pr(x1 < 0)`` underflows (every factor of every coefficient), a
five-row chain off and through the location of a fixed t law (the
lattice rule off the location, at 7 and at 1 degree of freedom, and at
1 degree of freedom with a budget of one point per lattice shift;
Plackett's reduction through it), rows
of rank 2 off the location of fixed t laws (the angular rule: a pair at
1 degree of freedom, a pair near 1e-13 at 193, a strip cut by a third
row, four rows through the location, and pairs of correlation +-(1 -
1e-8), just above the factor's rank-1 cut-over), centred cones of full
rank (four rows whose correlation is not exchangeable, which Plackett's
reduction takes, and five rows just below its cut-over, which the
lattice does), three rows of rank 3 off the location of fixed laws (the
trivariate rule, a system beyond its cancellation gate and one below its
df cut-over, both on the lattice, and one whose third row holds to
rounding and is dropped), two texts on the k5 fit whose complement lies
near 1e-101 and 1e-142, the chain ``x1 > x2 > x3 > b`` on fits whose
predictors are in units of 1e-3 to 1e3 ("badly scaled chain seed=N" for
seeds 3, 10, 60 and 191 of :func:`_badly_scaled_chain`; each prior
center is exact, and the prior factor is a centred cone), the README
demo and, on its fit, a complement whose intersection term repeats a row
and a hypothesis that repeats one of its own rows.  Four k5 texts at one seed use every operand form of the grammar, so the bit
check covers the parser too.  Three cases are the text reports instead:
the README demo and, on the k5 fit, a lattice factor that reads an
inexact 0 beside exact ones, each with every ``--show`` table, and the
k5 screen with its Bayes factor matrices.  Three cases run the CLI
itself: the README command, ``--hyp exploratory`` on its data (the
JSON's exploratory mode), and ``x1<0; x1>0`` on a fit where ``Pr(x1 <
0)`` underflows (the JSON's non-finite numbers).  A case that raises
records its error instead.

Usage:
    python scripts/dump_outputs.py OUT [--root CHECKOUT]
    python scripts/dump_outputs.py --compare OLD NEW

``--root`` imports bfreg and the benchmark inputs from another checkout
(default: the one holding this script), so a change is checked with

    python scripts/dump_outputs.py new.json
    python scripts/dump_outputs.py old.json --root path/to/parent
    python scripts/dump_outputs.py --compare old.json new.json

``--compare`` prints, per case, whether it is byte-identical, and for
each probability estimate that differs its old and new value and
``|new - old| / sqrt(se_old^2 + se_new^2)``, or for two exact values
their relative change ``|new - old| / |old|``.  Its last line counts the
cases that differ, gives the largest ``|dv|/se``, totals the lattice
points (``n_draws``) of every estimate, old -> new, counts the changed
estimates that are exact in either file and names every case with an
estimate moved beyond 4 standard errors.  It exits 1 when
the two files hold different cases or different errors.  A checkout
whose lattice took the mean of per-shift ratios at 64 points or more
records an error (a NaN probability) for the chain at one point per
shift, so a comparison against it exits 1 on that case alone.  A
checkout whose ``render_json`` takes a ``CliConfig`` rather than a
formula is dumped with its own copy of this script.
"""

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SEED = 5
# The Monte Carlo workloads' first operations at three seeds: together they
# are the bit check of a change that keeps the estimates' arithmetic.
WORKLOAD_SEEDS = (1, 2, 5)
ORDER_OPS = 4
SIM_OPS = 10
K5_SEEDS = ((1, False), (12345, False), (3, True))
K5_MCREP = 40_000
K5_HYPOTHESES = (
    "(x1,x2)>(x3,x4)",
    "x1>x2>0; (x3,x4)<0",
    "x1>x2>0; (x3,x4)<0; (x1,x2)>(x3,x4)",
    "x1>0.1; x2<-0.2; x3>x4=0.5; (x1,x2)>0.05",
    "x1>x2=0.3",
    "(x1,x2)>x3=0",
    "x1>x2>x3=x4=0",
    "x1>x2=0",
    "x1>0",
    "x1=x2=0",
    "1 > x1 > x2 = 0",
    "0 < x1 = 1",
    "1 > x1 = x2 = x3 = x4 = (Intercept) = 0",
    "x1>x2>0; x2>x1>0",
    "x1>x2>x3>x4; x3>x1>x4>x2; (x1,x2,x3,x4)>0",
    "x1>x2>0<x1",
    "x1>x2>x3; x3<x1",
)
# Texts that exercise every operand form of the grammar (signed numbers in
# each form, groups, the intercept, spacing), at one seed.
PARSE_SEED = 1
PARSE_HYPOTHESES = (
    " ( x1 , x2 ) > -.5e-1 ; x3 < +2 ",
    "(Intercept) > (x1,x2) = x3 < 1E-1",
    "0 = x4 < (x1, x2, x3)",
    "((Intercept),x1)>0",
)
README_HYPOTHESES = "x1=x2=0; (x1,x2)>0; x1>x2=0"
# Two order hypotheses on a fit where Pr(x1 < 0) underflows: log_bf is -inf.
UNDERFLOW_HYPOTHESES = "x1<0; x1>0"
REPEATED_ROW = "x1>x2>0; x1>x2"
REPEATED_OWN_ROW = "(x1,x1)>x2>0"
ALL_TABLES = ("computation", "ci", "bf-matrix")
CHAIN_SEEDS = (1, 12345)
CHAIN_MCREP = 1_000_000
# One lattice point on each of the 64 shifts: at df 1 some shifts hold only
# points of weight 0.
ONE_POINT_MCREP = 100
# A complement at 1 degree of freedom, where half-space bounds are loosest,
# far inside the orthant (x1, x2, x3) > 0 and the chain x3 > x2 > x1, with
# x4 > 1e11 and x4 > x2 far beyond: most of its terms lie far out in the
# tails.  (location, scale, df, systems as (rows, bounds), mcrep, seed)
FAR_TAIL_DF1 = (
    (1e4, 3e4, 6e4, 0.0),
    ((1.0, 0.5, 0.3, 0.0), (0.5, 1.0, 0.5, 0.2), (0.3, 0.5, 1.0, 0.1), (0.0, 0.2, 0.1, 1.0)),
    1.0,
    (
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), (0.0, 0.0, 0.0)),
        (((0, 0, 0, 1), (0, -1, 0, 1)), (1e11, 0.0)),
        (((-1, 1, 0, 0), (0, -1, 1, 0)), (0.0, 0.0)),
    ),
    10_000,
    7,
)
# Hc's lattice terms whose bounds are negligible before the others refine
# but not after: their sum falls back to estimating them (seed 1).
FALLBACK_HYPOTHESES = "x1>0.1; x2<-0.2; x3>x4=0.5; x4<(x1,x2)>0.05"
# H3's f_ie is a lattice estimate of 0 (seed 1), so its ci90 is None while
# it is inexact; H1 and H2 are exact and no complement is added.
INEXACT_ZERO_HYPOTHESES = "x1>0; x1<0; x1>x2>x3>30"
# Centred cones of full rank under fixed laws, as RANK2_CASES: four rows
# whose correlation is not exchangeable (Plackett's reduction), and the five
# coordinates of an exchangeable law of correlation -0.2448, each of
# residual variance 0.0975 given the others, just below the reduction's
# cut-over (the lattice).
CENTRED_CASES = (
    (
        "four rows df=4",
        (0.5, -1.0, 2.0, 0.3),
        ((2.0, 0.5, 0.3, 0.1), (0.5, 1.0, 0.2, 0.4), (0.3, 0.2, 1.5, -0.3), (0.1, 0.4, -0.3, 1.0)),
        4.0, ((1, 0, 0, 0), (0, 1, -1, 0), (0, 0, 1, 0), (1, 0, 0, -1)), None,
    ),
    (
        "five rows below the cut-over df=6",
        (0.0, 1.0, 2.0, 3.0, 4.0),
        tuple(tuple(1.0 if i == j else -0.2448 for j in range(5)) for i in range(5)),
        6.0, tuple(tuple(int(i == j) for j in range(5)) for i in range(5)), None,
    ),
)
# Three rows of rank 3 off the location of fixed laws, as RANK2_CASES: the
# trivariate rule and each of its gates.  An exchangeable correlation of
# -0.3 at df 193 whose rule's parts add up to 57 times the sum (exact) and
# to 72 times (beyond the cancellation gate: the lattice); the first at df
# 20, below the df cut-over (the lattice); and a third row whose t tail is
# below eps/4 of the other two rows' probability (dropped: the angular
# rule on the pair).
MINUS_03 = tuple(tuple(1.0 if i == j else -0.3 for j in range(3)) for i in range(3))
EYE3 = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
THREE_ROW_CASES = (
    ("trivariate rule df=193", (0.0, 0.0, 0.0), MINUS_03, 193.0, EYE3, (0.95, 0.85, 0.75)),
    ("beyond the cancellation gate df=193", (0.0, 0.0, 0.0), MINUS_03, 193.0, EYE3, (1.0, 0.9, 0.8)),
    ("below the df cut-over df=20", (0.0, 0.0, 0.0), MINUS_03, 20.0, EYE3, (0.95, 0.85, 0.75)),
    (
        "a row that holds to rounding df=996",
        (0.0, 0.0, 0.0), ((1.0, 0.4, -0.3), (0.4, 1.0, 0.2), (-0.3, 0.2, 1.0)), 996.0, EYE3,
        (1.2, 0.4, -11.0),
    ),
)
# Fits whose predictors are in units of 1e-3 to 1e3, each with a chain
# x1 > x2 > x3 > b (:func:`_badly_scaled_chain`): seed 3's prior factor
# took the lattice, seeds 10 and 191 read a prior factor of 0 (the lattice,
# and the angular rule on a correlation of -1 to 9 digits), and seed 60's
# 90% interval overflowed, while every prior center is exact.
BADLY_SCALED_SEEDS = (3, 10, 60, 191)
BADLY_SCALED_MCREP = 20_000
# Two texts on the k5 fit whose complement's posterior factor lies near
# 1e-101 and 1e-142: as a lattice estimate of one hit, its 90% interval
# overflowed.
FAR_TAIL_HYPOTHESES = ("(x1,x2)>-.5e-1; x3<+3", "(x1,x2)>0; x3<5")
# Rows of rank 2 under fixed laws: (name, location, scale, df, rows, bounds
# or None for rows through the location).
NEAR_ONE = 1.0 - 1e-8
RANK2_CASES = (
    ("pair off-apex df=1", (0.3, -0.2), ((1.0, 0.4), (0.4, 2.0)), 1.0, ((1, 0), (0, 1)), (0.5, -0.6)),
    ("pair far tail df=193", (0.0, 0.0), ((1.0, 0.3), (0.3, 1.0)), 193.0, ((1, 0), (0, 1)), (6.4, 5.76)),
    (
        "strip cut by a third row df=5",
        (0.2, -0.1), ((1.0, 0.4), (0.4, 2.0)), 5.0, ((1, 0), (-1, 0), (0, 1)), (-0.5, -0.8, 0.3),
    ),
    (
        "centred cone of four rows df=3",
        (1.0, -2.0), ((1.0, 0.3), (0.3, 1.5)), 3.0, ((1, 0), (0, 1), (1, 1), (1, -0.5)), None,
    ),
    (
        "pair rho=1-1e-8 df=17",
        (0.0, 0.0), ((1.0, NEAR_ONE), (NEAR_ONE, 1.0)), 17.0, ((1, 0), (0, 1)), (0.3, 0.5),
    ),
    (
        "pair rho=-(1-1e-8) df=17",
        (0.0, 0.0), ((1.0, -NEAR_ONE), (-NEAR_ONE, 1.0)), 17.0, ((1, 0), (0, 1)), (-0.4, 0.2),
    ),
)


def _cli(cli, argv):
    """The exit code and standard output of ``bfreg`` on ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _underflow_csv(tmp):
    """A CSV of ``y = 60 x1 + 0.01 noise`` over 2000 rows, on which the
    posterior ``Pr(x1 < 0)`` underflows to 0; returns its path."""
    rng = np.random.default_rng(2018)
    x = rng.standard_normal(2000)
    y = 60.0 * x + 0.01 * rng.standard_normal(2000)
    path = str(Path(tmp) / "underflow.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,x1\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(y.tolist(), x.tolist()))
    return path


def _badly_scaled_chain(seed):
    """The columns ``y, x1, ..., x4`` of 60 rows whose predictors are in
    units of 1e-3 to 1e3, slopes inverse to them and unit noise, and the
    chain ``x1 > x2 > x3 > b`` with ``b`` a round number in (-100, 100)."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3, 3, 4)
    x = rng.standard_normal((60, 4)) * scales
    beta = rng.uniform(-2, 2, 4) / scales
    y = x @ beta + rng.standard_normal(60)
    b = round(float(rng.uniform(-100, 100)), 2)
    return np.column_stack([y, x]), f"x1 > x2 > x3 > {b}"


def _outcome(fn):
    """``fn()`` or the error it raised, as text."""
    try:
        return fn()
    except Exception as exc:  # the error itself is the output to compare
        return f"error: {type(exc).__name__}: {exc}"


def _k5_fit(model):
    rng = np.random.default_rng(2018)
    x = rng.standard_normal((200, 4))
    y = 0.2 + x @ np.array([0.5, 0.3, 0.1, -0.1]) + rng.standard_normal(200)
    names = ("y", "x1", "x2", "x3", "x4")
    data = model.Dataset(names, np.column_stack([y, x]))
    return model.fit_ols(data, "y ~ x1 + x2 + x3 + x4")


def _chain_prob(numkernel, seed, centred, df=7.0, mcrep=None):
    """``Pr(x1 > ... > x6)`` under a fixed 6-d t with ``df`` degrees of
    freedom at a budget of ``mcrep`` (default ``CHAIN_MCREP``), as the
    estimate's JSON."""
    rng = np.random.default_rng(2018)
    s = rng.standard_normal((6, 6))
    dist = numkernel.MultivariateT(rng.standard_normal(6), s @ s.T + np.eye(6), df)
    chain = np.eye(6)[:-1] - np.eye(6)[1:]
    r = chain @ dist.location if centred else np.zeros(5)
    return _estimate_json(numkernel.mvt_constraint_prob(dist, chain, r, mcrep or CHAIN_MCREP, seed))


def _estimate_json(est):
    return json.dumps(
        {
            "value": est.value,
            "std_error": est.std_error,
            "exact": est.exact,
            "n_draws": est.n_draws,
        }
    )


def _region_prob(numkernel, location, scale, df, rows, bounds, seed=SEED):
    """``Pr(R xi > r)`` under a fixed t law at a budget of ``CHAIN_MCREP``,
    as the estimate's JSON; ``bounds`` None puts the rows through the
    location."""
    dist = numkernel.MultivariateT(np.array(location), np.array(scale), df)
    R = np.array(rows, dtype=float)
    r = R @ dist.location if bounds is None else np.array(bounds)
    return _estimate_json(numkernel.mvt_constraint_prob(dist, R, r, CHAIN_MCREP, seed))


def _complement_json(numkernel, location, scale, df, systems, mcrep, seed):
    """``Pr(no system holds)`` under a fixed t law, each system's own
    estimate known as the engine passes it, as the estimate's JSON."""
    dist = numkernel.MultivariateT(np.array(location), np.array(scale), df)
    systems = [(np.array(R, dtype=float), np.array(r, dtype=float)) for R, r in systems]
    known = [
        numkernel.mvt_constraint_prob(dist, R, r, mcrep, numkernel.derived_seed(seed, i))
        for i, (R, r) in enumerate(systems)
    ]
    return _estimate_json(numkernel.complement_prob(dist, systems, known, mcrep, seed))


def _screen_json(res):
    """An exploratory result with every factor of every coefficient."""

    def prob(est):
        if est is None:
            return None
        return [est.value, est.std_error, est.exact, est.n_draws]

    return json.dumps(
        {
            "coefficients": list(res.coef_names),
            "posterior_probs": res.post_probs.tolist(),
            "components": [
                [
                    {
                        "label": c.label,
                        "log_bf": c.log_bf,
                        "bf": c.bf,
                        "c_e": c.c_e,
                        "f_e": c.f_e,
                        "c_ie": prob(c.c_ie),
                        "f_ie": prob(c.f_ie),
                        "ci90": c.ci90,
                    }
                    for c in triple
                ]
                for triple in res.components
            ],
            "bf_matrices": {k: m.tolist() for k, m in res.bf_matrices.items()},
        }
    )


def cases(tmp):
    """Yield ``(name, thunk)`` pairs; each thunk returns the case's text.

    bfreg is read through its modules, whose names have not changed
    between versions, rather than through the package exports.
    """
    import bfreg.cli as cli
    import bfreg.engine as engine
    import bfreg.model as model
    import bfreg.numkernel as numkernel
    from perfbench import workloads

    demo = workloads.CliDemo(SEED, tmp)
    yield "cli-demo", lambda: _cli(cli, demo.argv(0))
    for name, data, formula, hyp in (
        ("cli exploratory json", str(demo.csv), "y ~ x1 + x2", "exploratory"),
        (
            f"cli underflow json {UNDERFLOW_HYPOTHESES}",
            _underflow_csv(tmp), "y ~ x1", UNDERFLOW_HYPOTHESES,
        ),
    ):
        argv = ["test", "--data", data, "--formula", formula, "--hyp", hyp]
        yield name, lambda argv=argv: _cli(cli, [*argv, "--output", "json", "--seed", str(SEED)])

    for seed in WORKLOAD_SEEDS:
        order = workloads.OrderMC(seed)
        for i in range(ORDER_OPS):
            yield f"order-mc seed={seed} op={i}", lambda order=order, i=i: cli.render_json(
                order.operation(i), "order-mc"
            )
        sim = workloads.SimStudy(seed)
        for i in range(SIM_OPS):
            yield f"sim-study seed={seed} op={i}", lambda sim=sim, i=i: cli.render_json(
                sim.operation(i)[2], sim.FORMULA
            )
    wide = workloads.ExploreWide(SEED)
    yield "explore-wide", lambda: cli.render_json(
        wide.operation(0), "explore-wide"
    )

    fit = _k5_fit(model)
    formula = "y ~ x1 + x2 + x3 + x4"
    for seed, df_as_printed in K5_SEEDS:
        for text in K5_HYPOTHESES:
            yield f"k5 seed={seed} df_as_printed={df_as_printed} {text}", (
                lambda text=text, seed=seed, flag=df_as_printed: cli.render_json(
                    engine.test_hypotheses(
                        fit, text, mcrep=K5_MCREP, seed=seed, df_as_printed=flag
                    ),
                    formula,
                )
            )

    yield f"k5 seed=1 fallback {FALLBACK_HYPOTHESES}", lambda: cli.render_json(
        engine.test_hypotheses(fit, FALLBACK_HYPOTHESES, mcrep=K5_MCREP, seed=1), formula
    )
    yield f"k5 seed=1 text {INEXACT_ZERO_HYPOTHESES}", lambda: cli.render_test_text(
        engine.test_hypotheses(fit, INEXACT_ZERO_HYPOTHESES, mcrep=K5_MCREP, seed=1),
        ALL_TABLES,
    )
    for text in PARSE_HYPOTHESES:
        yield f"k5 seed={PARSE_SEED} parse {text!r}", lambda text=text: cli.render_json(
            engine.test_hypotheses(fit, text, mcrep=K5_MCREP, seed=PARSE_SEED), formula
        )
    for text in FAR_TAIL_HYPOTHESES:
        yield f"k5 seed=1 far tail {text}", lambda text=text: cli.render_json(
            engine.test_hypotheses(fit, text, mcrep=K5_MCREP, seed=1), formula
        )

    for seed in BADLY_SCALED_SEEDS:
        columns, text = _badly_scaled_chain(seed)
        scaled = model.fit_ols(model.Dataset(("y", "x1", "x2", "x3", "x4"), columns), formula)
        yield f"badly scaled chain seed={seed}", lambda fit=scaled, text=text: cli.render_json(
            engine.test_hypotheses(fit, text, mcrep=BADLY_SCALED_MCREP, seed=1), formula
        )

    yield "k5 exploratory", lambda: _screen_json(engine.exploratory_test(fit, seed=1))
    underflow_fit = model.RegressionFit(
        coef_names=("(Intercept)", "x1"),
        beta_hat=np.array([1.0, 60.0]),
        s2=25.0,
        xtx_inv=np.diag([1 / 30, 1 / 1000]),
        n=2000,
        k=2,
    )
    yield "k5 exploratory text", lambda: cli.render_exploratory_text(
        engine.exploratory_test(fit, seed=1), ("bf-matrix",)
    )
    yield "exploratory underflow", lambda: _screen_json(
        engine.exploratory_test(underflow_fit, seed=1)
    )

    for seed in CHAIN_SEEDS:
        for name, centred in (("off-apex", False), ("centred", True)):
            yield f"q5 chain {name} seed={seed}", (
                lambda seed=seed, centred=centred: _chain_prob(numkernel, seed, centred)
            )
        yield f"q5 chain off-apex df=1 seed={seed}", (
            lambda seed=seed: _chain_prob(numkernel, seed, False, df=1.0)
        )
    yield f"q5 chain off-apex df=1 mcrep={ONE_POINT_MCREP} seed={CHAIN_SEEDS[0]}", (
        lambda: _chain_prob(numkernel, CHAIN_SEEDS[0], False, df=1.0, mcrep=ONE_POINT_MCREP)
    )
    for name, *law in RANK2_CASES:
        yield f"rank 2 {name}", lambda law=law: _region_prob(numkernel, *law)
    for name, *law in CENTRED_CASES:
        yield f"centred cone {name}", lambda law=law: _region_prob(numkernel, *law)
    for name, *law in THREE_ROW_CASES:
        yield f"three rows {name}", lambda law=law: _region_prob(numkernel, *law)
    yield "complement far tail df=1", lambda: _complement_json(numkernel, *FAR_TAIL_DF1)

    demo_fit = model.RegressionFit(
        coef_names=("(Intercept)", "x1", "x2"),
        beta_hat=np.array([1.0, 0.7, 0.03]),
        s2=19.0,
        xtx_inv=np.diag([1 / 20, 1 / 19, 1 / 19]),
        n=20,
        k=3,
    )
    yield "readme-demo", lambda: cli.render_json(
        engine.test_hypotheses(demo_fit, README_HYPOTHESES, seed=42),
        "y ~ x1 + x2",
    )
    yield "readme-demo text", lambda: cli.render_test_text(
        engine.test_hypotheses(demo_fit, README_HYPOTHESES, seed=42), ALL_TABLES
    )
    yield f"readme-fit seed=3 {REPEATED_ROW}", lambda: cli.render_json(
        engine.test_hypotheses(demo_fit, REPEATED_ROW, seed=3),
        "y ~ x1 + x2",
    )
    yield f"readme-fit seed=3 {REPEATED_OWN_ROW}", lambda: cli.render_json(
        engine.test_hypotheses(demo_fit, REPEATED_OWN_ROW, seed=3),
        "y ~ x1 + x2",
    )


_ESTIMATE_KEYS = {"value", "std_error", "exact", "n_draws"}

# --compare names every case with an estimate moved by more than this many
# combined standard errors.
FAR = 4.0


def _estimates(node, path=""):
    """``(path, (value, std_error, exact, n_draws))`` of every probability
    estimate in a case's JSON: the documents' objects and the screen's lists."""
    if isinstance(node, dict):
        if _ESTIMATE_KEYS <= node.keys():
            yield path, tuple(node[k] for k in ("value", "std_error", "exact", "n_draws"))
            return
        prefix = f"{path}{node['label']}." if "label" in node else path
        for key, child in node.items():
            if key in ("c_ie", "f_ie") and isinstance(child, list):
                yield f"{prefix}{key}", tuple(child)
            else:
                yield from _estimates(child, f"{prefix}{key}" if key != "label" else prefix)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _estimates(child, f"{path}[{i}].")


def _document(text):
    """A case's JSON document (the CLI case behind its exit line), or None."""
    if text.startswith("exit "):
        text = text.split("\n", 1)[1]
    try:
        return json.loads(text)
    except ValueError:
        return None


def compare(old_path, new_path) -> int:
    """Print how two dump files differ, case by case; 1 when cases or errors do."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    status, differing, z_max, exact_moved = 0, 0, 0.0, 0
    points = [0, 0]  # lattice points of every estimate in both files, old and new
    far = []  # the cases with an estimate moved beyond FAR standard errors
    for name in sorted(old.keys() ^ new.keys()):
        print(f"only in {'old' if name in old else 'new'}: {name}")
        status = 1
    for name in [n for n in old if n in new]:
        a, b = old[name], new[name]
        doc_a, doc_b = _document(a), _document(b)
        for k, doc in enumerate((doc_a, doc_b)):
            points[k] += sum(est[3] for _, est in _estimates(doc)) if doc is not None else 0
        if a == b:
            print(f"same    {name}")
            continue
        print(f"differs {name}")
        differing += 1
        if a.startswith("error:") or b.startswith("error:"):
            print(f"    {a.splitlines()[0]!r} -> {b.splitlines()[0]!r}")
            status = 1
            continue
        if doc_a is None or doc_b is None:
            continue
        est_a, est_b = dict(_estimates(doc_a)), dict(_estimates(doc_b))
        for path in est_a.keys() | est_b.keys():
            if est_a.get(path) == est_b.get(path):
                continue
            if path not in est_a or path not in est_b:
                print(f"    {path}: only in {'old' if path in est_a else 'new'}")
                continue
            (va, sa, xa, _), (vb, sb, xb, _) = est_a[path], est_b[path]
            se = math.hypot(sa, sb)
            exact_moved += bool(xa or xb)
            if se == 0.0 and va != vb:  # exact to exact
                change = f"|dv|/|v| = {abs(vb - va) / abs(va) if va else math.inf:.3g}"
            else:
                z = abs(vb - va) / se if se > 0 else 0.0
                z_max = max(z_max, z)
                change = f"|dv|/se = {z:.3g}"
                if z > FAR and name not in far:
                    far.append(name)
            print(f"    {path}: {est_a[path]} -> {est_b[path]}  {change}")
    print(
        f"{differing} of {len(old.keys() & new.keys())} cases differ; largest |dv|/se = "
        f"{z_max:.3g}; lattice points (n_draws) {points[0]} -> {points[1]}; "
        f"{exact_moved} exact estimates changed; beyond {FAR:g} se: "
        + ("; ".join(far) or "none")
    )
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="file to write the JSON map of outputs to")
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parents[1]),
        help="checkout to import bfreg and perfbench from",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two dump files"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("OUT is required unless --compare is given")
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, thunk in cases(tmp):
            outputs[name] = _outcome(thunk)
            print(name, file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(outputs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
