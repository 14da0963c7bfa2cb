"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Every workload is a closed loop with one client.  The benchmark calls
``operation(i)`` repeatedly; ``check(output)`` compares one output with
references from :mod:`perfbench.reference`, which never use bfreg's
sampler; ``stats(output)`` reads the counts the per-layer report needs.
"""

from __future__ import annotations

import json
import functools
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import bfreg.engine
import bfreg.model

from . import ROOT, bfreg_env, reference

Z90 = 1.6448536269514722  # standard normal 95% quantile, as in bfreg's ci90

# One comparison passes within N_SE standard errors.  A run makes
# thousands (every Monte Carlo estimate of every operation), so the
# threshold rises with their number to keep the chance of any false
# failure in a run below FALSE_ALARM (Bonferroni).
N_SE = 4.0
FALSE_ALARM = 1e-3
CHECKS_PER_OP = 10  # at most two estimates for each of five Bayes factors
# Below this many hits (or misses) log B is far from normal; the count is
# then tested exactly against the reference instead.
MIN_COUNT = 25
CHILD_TIMEOUT_S = 120


def op_seed(seed: int, i: int) -> int:
    """Nonzero per-operation seed for bfreg (0 would ask for a clock seed)."""
    return 1 + (seed * 1_000_003 + i) % (2**31 - 2)


def hypothesis(names, greater=(), equal=()):
    """Constraint matrices for ``a > b`` pairs and ``a = b`` pairs.

    ``b`` may be None for a comparison with zero.  Rows follow the order
    bfreg's parser gives, so each part matches it row for row.
    """
    index = {n: j for j, n in enumerate(names)}

    def rows(pairs):
        R = np.zeros((len(pairs), len(names)))
        for row, (a, b) in zip(R, pairs):
            row[index[a]] += 1.0
            if b is not None:
                row[index[b]] -= 1.0
        return R, np.zeros(len(pairs))

    R_E, r_E = rows(equal)
    R_I, r_I = rows(greater)
    return reference.Hypothesis(R_E, r_E, R_I, r_I)


def chain(names):
    """``names[0] > names[1] > ...`` as pairs."""
    return list(zip(names, names[1:]))


def frozen_design(rng, n, beta, rss):
    """Design and noise from ``rng`` with fixed sufficient statistics.

    Predictors and noise are centred and orthonormalised (QR), predictors
    scaled to sample variance 1 and the noise to ``||e||^2 = rss``, so the
    OLS fit returns ``beta`` and ``rss`` exactly for every seed: the seed
    changes the data but not the posterior.  This is the construction of
    the README demo data.
    """
    p = len(beta) - 1
    z = rng.standard_normal((n, p + 1))
    z -= z.mean(axis=0)
    q, _ = np.linalg.qr(z)
    x = q[:, :p] * math.sqrt(n - 1)
    y = beta[0] + x @ np.asarray(beta[1:]) + q[:, p] * math.sqrt(rss)
    return x, y


def _component(comp) -> dict:
    """A BFComponents in the form of the CLI's JSON."""

    def prob(est):
        if est is None:
            return None
        return {
            "value": est.value,
            "std_error": est.std_error,
            "exact": est.exact,
            "n_draws": est.n_draws,
        }

    return {
        "label": comp.label,
        "bf": comp.bf,
        "log_bf": comp.log_bf,
        "ci90": list(comp.ci90) if comp.ci90 is not None else None,
        "c_ie": prob(comp.c_ie),
        "f_ie": prob(comp.f_ie),
    }


def var_log_bf(comp) -> float | None:
    """Var(log B) read from the reported 90% interval."""
    if comp["ci90"] is None:
        return None
    return (math.log(comp["ci90"][1] / comp["bf"]) / Z90) ** 2


def _mc_estimates(comp):
    return [
        comp[k] for k in ("f_ie", "c_ie") if comp[k] is not None and not comp[k]["exact"]
    ]


def alpha_for(n_ops: int) -> float:
    """False-failure probability allowed to each comparison in a run."""
    return FALSE_ALARM / (CHECKS_PER_OP * max(n_ops, 1))


def _z(alpha: float) -> float:
    return max(N_SE, statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0))


def _count_ok(est, ref, alpha) -> bool:
    """Exact binomial test of an estimate's hit count against the reference.

    The reference's own error widens the null to a band of N_SE of its
    standard errors; the count fails when it is improbable under every
    probability in that band.
    """
    from scipy.stats import binom

    n = est["n_draws"]
    hits = round(est["value"] * n)
    lo = min(max(ref.value - N_SE * ref.se, 0.0), 1.0)
    hi = min(max(ref.value + N_SE * ref.se, 0.0), 1.0)
    p_value = 2.0 * min(binom.cdf(hits, n, lo), binom.sf(hits - 1, n, hi))
    return p_value >= alpha


def _few(est) -> bool:
    hits = round(est["value"] * est["n_draws"])
    return min(hits, est["n_draws"] - hits) < MIN_COUNT


def check_component(comp, ref, alpha=FALSE_ALARM / CHECKS_PER_OP) -> list:
    """Problems with one Bayes factor, empty when it agrees with ``ref``.

    Exact factors must match to 1e-9 in log B.  Monte Carlo factors must
    match within ``_z(alpha)`` standard errors of log B, the engine's
    (from its ci90) and the reference's together; when an estimate has
    fewer than MIN_COUNT hits or misses, including the zero-hit and
    all-hit estimates that report SE 0, each estimate's count is tested
    instead.
    """
    label = comp["label"]
    pairs = [(comp["f_ie"], ref.f_ie), (comp["c_ie"], ref.c_ie)]
    mc = [(est, r) for est, r in pairs if est is not None and not est["exact"]]
    if ref.exact and not mc:
        ref_log = ref.log_density_ratio
        if ref.f_ie is not None:
            ref_log += math.log(ref.f_ie.value) - math.log(ref.c_ie.value)
        if abs(comp["log_bf"] - ref_log) > 1e-9 * max(1.0, abs(ref_log)):
            return [f"{label}: exact log BF {comp['log_bf']!r} != {ref_log!r}"]
        return []
    if any(_few(est) or not 0.0 < r.value < 1.0 for est, r in mc):
        return [
            f"{label}: {est['value']!r} over {est['n_draws']} draws vs "
            f"reference {r.value!r} +- {r.se:.2g}"
            for est, r in mc
            if not _count_ok(est, r, alpha)
        ]
    ref_log = ref.log_density_ratio + math.log(ref.f_ie.value) - math.log(ref.c_ie.value)
    var = var_log_bf(comp) or 0.0
    var += (ref.f_ie.se / ref.f_ie.value) ** 2 + (ref.c_ie.se / ref.c_ie.value) ** 2
    z = _z(alpha)
    if abs(comp["log_bf"] - ref_log) > z * math.sqrt(var):
        return [
            f"{label}: log BF {comp['log_bf']:.6g} vs reference {ref_log:.6g} "
            f"(> {z:.2f} SE = {z * math.sqrt(var):.3g})"
        ]
    return []


def check_test(components, post_probs, refs, complement_ref, alpha) -> list:
    """Problems with a confirmatory result: every factor and the posterior."""
    problems = []
    for comp, ref in zip(components, refs):
        problems += check_component(comp, ref, alpha)
    if len(components) == len(refs) + 1:
        if complement_ref is None:
            problems.append("unexpected exact complement")
        else:
            f_ie, c_ie = complement_ref
            problems += check_component(
                components[-1], reference.BFRef(0.0, f_ie, c_ie), alpha
            )
    elif complement_ref is not None:
        problems.append("complement missing")
    post = np.asarray(post_probs, dtype=float)
    if not (np.all(np.isfinite(post)) and abs(post.sum() - 1.0) <= 1e-12):
        problems.append(f"posterior probabilities {post.tolist()} do not sum to 1")
    return problems


def result_stats(components, bf_matrix) -> dict:
    """Counts of known defects and the precision of the Monte Carlo factors."""
    zero_or_all = sum(
        est["value"] in (0.0, 1.0) and est["n_draws"] > 0
        for comp in components
        for est in _mc_estimates(comp)
    )
    nonfinite = sum(
        not isinstance(v, (int, float)) or not math.isfinite(v)
        for row in bf_matrix
        for v in row
    )
    variances = [v for v in map(var_log_bf, components) if v is not None]
    return {
        "zero_or_all_hit_estimates": zero_or_all,
        "nonfinite_bf_matrix": nonfinite,
        "max_var_log_bf": max(variances, default=0.0),
    }


class Workload:
    """One operation, its checks and counts.

    References are computed on first use, after the timed loop, so that
    the benchmark's own scipy.stats does not count in the peak resident
    set of an in-process workload.
    """

    name = ""  # its "why" is in BENCHMARK.json
    spawns = False  # True when an operation runs in a child process
    calibration = "interpreter"  # the run's calibration kernel most like the work

    def operation(self, i, tracer=None):
        raise NotImplementedError

    def retain(self, output):
        """The part of an output that :meth:`check` needs."""
        return output

    def check(self, output, alpha=FALSE_ALARM / CHECKS_PER_OP) -> list:
        raise NotImplementedError

    def stats(self, output) -> dict | None:
        raise NotImplementedError


def _references(design, hyps):
    ref = reference.Reference(reference.ols(*design))
    return ref, [ref.bayes_factor(h) for h in hyps], ref.complement(hyps)


class CliDemo(Workload):
    name = "cli-demo"
    spawns = True
    HYP = "x1=x2=0; (x1,x2)>0; x1>x2=0"
    PUBLISHED = {"H1": 0.383, "H3": 10.061}

    def __init__(self, seed, out_dir, tiny=False):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.mcrep = 10_000 if tiny else None
        # n = 20, intercept 1, slopes .7 and .03, raw RSS 19: the demo data
        x, y = frozen_design(np.random.default_rng(seed), 20, (1.0, 0.7, 0.03), 19.0)
        self.csv = self.out_dir / f"cli-demo-{seed}.csv"
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write("y,x1,x2\n")
            for row in np.column_stack([y, x]):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        names = ("(Intercept)", "x1", "x2")
        self.hyps = [
            hypothesis(names, equal=[("x1", "x2"), ("x2", None)]),
            hypothesis(names, greater=[("x1", None), ("x2", None)]),
            hypothesis(names, greater=[("x1", "x2")], equal=[("x2", None)]),
        ]
        self.design = (np.column_stack([np.ones(20), x]), y)
        self.env = bfreg_env()

    @functools.cached_property
    def refs(self):
        return _references(self.design, self.hyps)[1:]

    def argv(self, i):
        args = [
            "test",
            "--data", str(self.csv),
            "--formula", "y ~ x1 + x2",
            "--hyp", self.HYP,
            "--output", "json",
            "--seed", str(op_seed(self.seed, i)),
        ]
        if self.mcrep:
            args += ["--mcrep", str(self.mcrep)]
        return args

    def operation(self, i, tracer=None):
        """One cold ``python -m bfreg.cli`` process; returns its outputs."""
        if tracer is None:
            cmd = [sys.executable, "-m", "bfreg.cli", *self.argv(i)]
        else:
            spans = self.out_dir / f"spans-{os.getpid()}.jsonl"
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(spans)]
            cmd += self.argv(i)
        out_path = self.out_dir / f"stdout-{os.getpid()}.txt"
        err_path = self.out_dir / f"stderr-{os.getpid()}.txt"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            # reap with wait4 to read this child's own peak resident set
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        if tracer is not None:
            tracer.absorb(spans, i)
        return {
            "returncode": proc.returncode,
            "stdout": stdout,
            "stderr": stderr,
            "rss_kb": usage.ru_maxrss,
            "wall": wall,
        }

    def _doc(self, output):
        if output["returncode"] != 0:
            raise ValueError(f"exit {output['returncode']}: {output['stderr'][-300:]}")
        return json.loads(output["stdout"])

    def check(self, output, alpha=FALSE_ALARM / CHECKS_PER_OP) -> list:
        try:
            doc = self._doc(output)
        except ValueError as exc:
            return [str(exc)]
        comps = doc["bf_unconstrained"]
        problems = check_test(comps, doc["posterior_probs"], *self.refs, alpha)
        for comp in comps:
            want = self.PUBLISHED.get(comp["label"])
            if want is not None and round(comp["bf"], 3) != want:
                problems.append(f"{comp['label']}: BF {comp['bf']:.5f} != published {want}")
        return problems

    def stats(self, output) -> dict | None:
        try:
            doc = self._doc(output)
        except ValueError:  # reported by check
            return None
        matrix = [[v if not isinstance(v, str) else float(v) for v in row] for row in doc["bf_matrix"]]
        return result_stats(doc["bf_unconstrained"], matrix)


def _check_result(res, refs, complement_ref, alpha) -> list:
    comps = [_component(c) for c in res.components]
    return check_test(comps, res.post_probs, refs, complement_ref, alpha)


class OrderMC(Workload):
    name = "order-mc"
    calibration = "sampler"
    HYP = (
        "x1>x2>x3>x4>x5>x6; x6>x5>x4>x3>x2>x1; (x1,x2,x3)>0; "
        "x1>x2>x3=x4=x5=x6=0"
    )
    BETA = (0.0, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.mcrep = 50_000 if tiny else 1_000_000
        n = 200
        k = len(self.BETA)
        x, y = frozen_design(np.random.default_rng(seed), n, self.BETA, float(n - k))
        preds = [f"x{j}" for j in range(1, k)]
        data = bfreg.model.Dataset(("y", *preds), np.column_stack([y, x]))
        self.fit = bfreg.model.fit_ols(data, "y ~ " + " + ".join(preds))
        names = ("(Intercept)", *preds)
        self.hyps = [
            hypothesis(names, greater=chain(preds)),
            hypothesis(names, greater=chain(preds[::-1])),
            hypothesis(names, greater=[(p, None) for p in preds[:3]]),
            hypothesis(
                names,
                greater=chain(preds[:3]),
                equal=chain(preds[2:]) + [(preds[-1], None)],
            ),
        ]
        self.design = (np.column_stack([np.ones(n), x]), y)

    @functools.cached_property
    def refs(self):
        return _references(self.design, self.hyps)

    def operation(self, i, tracer=None):
        return bfreg.engine.test_hypotheses(
            self.fit, self.HYP, mcrep=self.mcrep, seed=op_seed(self.seed, i)
        )

    def check(self, output, alpha=FALSE_ALARM / CHECKS_PER_OP) -> list:
        return _check_result(output, *self.refs[1:], alpha)

    def stats(self, output) -> dict:
        return result_stats([_component(c) for c in output.components], output.bf_matrix)


class SimStudy(Workload):
    name = "sim-study"
    HYP = "x1>x2>x3>0; x3>x2>x1>0"
    FORMULA = "y ~ x1 + x2 + x3"
    # the defaults of scripts/consistency_experiment.py
    N, BETA, SIGMA, MCREP, POOL = 1000, (0.45, 0.30, 0.15), 1.0, 20_000, 50

    def __init__(self, seed, tiny=False):
        self.seed = seed
        pool = 3 if tiny else self.POOL
        rng = np.random.default_rng(seed)
        self.datasets, self.designs = [], []
        for _ in range(pool):
            x = rng.standard_normal((self.N, 3))
            y = x @ np.asarray(self.BETA) + self.SIGMA * rng.standard_normal(self.N)
            self.datasets.append(
                bfreg.model.Dataset(("y", "x1", "x2", "x3"), np.column_stack([y, x]))
            )
            self.designs.append((np.column_stack([np.ones(self.N), x]), y))
        names = ("(Intercept)", "x1", "x2", "x3")
        self.hyps = [
            hypothesis(names, greater=chain(["x1", "x2", "x3"]) + [("x3", None)]),
            hypothesis(names, greater=chain(["x3", "x2", "x1"]) + [("x1", None)]),
        ]
        self._refs = {}

    def operation(self, i, tracer=None):
        j = i % len(self.datasets)
        fit = bfreg.model.fit_ols(self.datasets[j], self.FORMULA)
        res = bfreg.engine.test_hypotheses(
            fit, self.HYP, mcrep=self.MCREP, seed=op_seed(self.seed, i)
        )
        return j, fit, res

    def _reference(self, j):
        if j not in self._refs:
            self._refs[j] = _references(self.designs[j], self.hyps)
        return self._refs[j]

    def check(self, output, alpha=FALSE_ALARM / CHECKS_PER_OP) -> list:
        j, fit, res = output
        ref, refs, complement_ref = self._reference(j)
        problems = _check_result(res, refs, complement_ref, alpha)
        if not np.allclose(fit.beta_hat, ref.fit.beta, rtol=1e-9, atol=1e-12):
            problems.append(f"dataset {j}: beta_hat differs from least squares")
        return problems

    def stats(self, output) -> dict:
        res = output[2]
        return result_stats([_component(c) for c in res.components], res.bf_matrix)


class ExploreWide(Workload):
    name = "explore-wide"
    calibration = "linalg"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        n, k = (200, 10) if tiny else (1000, 60)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, k - 1))
        beta = rng.normal(0.0, 0.1, size=k)
        y = beta[0] + x @ beta[1:] + rng.standard_normal(n)
        preds = [f"x{j}" for j in range(1, k)]
        data = bfreg.model.Dataset(("y", *preds), np.column_stack([y, x]))
        self.fit = bfreg.model.fit_ols(data, "y ~ " + " + ".join(preds))
        self.design = (np.column_stack([np.ones(n), x]), y)

    @functools.cached_property
    def expected(self):
        return reference.Reference(reference.ols(*self.design)).exploratory_probs()

    def operation(self, i, tracer=None):
        return bfreg.engine.exploratory_test(self.fit, seed=op_seed(self.seed, i))

    def retain(self, output):
        return output.post_probs

    def check(self, probs, alpha=FALSE_ALARM / CHECKS_PER_OP) -> list:
        problems = []
        sums = probs.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-12):
            problems.append(f"row sums off by {np.abs(sums - 1.0).max():.3g}")
        rel = np.abs(probs - self.expected) / np.maximum(np.abs(self.expected), 1e-300)
        if not np.all(rel <= 1e-9):
            problems.append(f"posterior probabilities off by {rel.max():.3g} relative")
        return problems

    def stats(self, output) -> dict:
        comps = [_component(c) for triple in output.components for c in triple]
        matrix = [row for m in output.bf_matrices.values() for row in m.tolist()]
        return result_stats(comps, matrix)


WORKLOADS = {w.name: w for w in (CliDemo, OrderMC, SimStudy, ExploreWide)}


def make(name, seed, out_dir, tiny=False) -> Workload:
    cls = WORKLOADS[name]
    if cls.spawns:
        return cls(seed, out_dir, tiny=tiny)
    return cls(seed, tiny=tiny)
