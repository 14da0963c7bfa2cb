"""Write the JSON documents of a fixed set of analyses to one file.

Every case is rendered with ``bfreg.cli.render_json`` at a fixed seed, so
two checkouts that compute the same numbers write byte-identical files.
The cases cover every estimation path: the benchmark's workload inputs at
seed 5, mixed hypotheses with zero and nonzero bounds, a band whose
prior center is inexact, inequalities that the equalities make vacuous
(with free directions left and with every coefficient pinned),
raw-coordinate systems, two- and three-system complements (one whose
inclusion-exclusion does not resolve its small value and falls back to
disjoint pieces, one whose terms leave less than one lattice block each
at ``K5_MCREP`` and take fewer points), ``df_as_printed``, the
exploratory screen of the k5 fit and of a fit whose ``Pr(x1 < 0)``
underflows (every factor of every coefficient), a five-row chain off and
through the location of a fixed t law (the lattice rule; off the
location at 7 and at 1 degree of freedom) and the README demo.  Two
cases are the text reports instead: the README demo with every
``--show`` table, and the k5 screen with its Bayes factor matrices.  A
case that raises records its error instead.

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
cases that differ and gives the largest ``|dv|/se``.  It exits 1 when
the two files hold different cases or different errors.
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
)
README_HYPOTHESES = "x1=x2=0; (x1,x2)>0; x1>x2=0"
ALL_TABLES = ("computation", "ci", "bf-matrix")
CHAIN_SEEDS = (1, 12345)
CHAIN_MCREP = 1_000_000


def _config(cli, formula, mode="test"):
    return cli.CliConfig(
        mode=mode,
        data="",
        formula=formula,
        hyp="",
        prior_probs="equal",
        mcrep=0,
        seed=0,
        seed_was_derived=False,
        standardize=False,
        output="json",
        show=(),
        delimiter=",",
        df_as_printed=False,
    )


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


def _chain_prob(numkernel, seed, centred, df=7.0):
    """``Pr(x1 > ... > x6)`` under a fixed 6-d t with ``df`` degrees of
    freedom, as the estimate's JSON."""
    rng = np.random.default_rng(2018)
    s = rng.standard_normal((6, 6))
    dist = numkernel.MultivariateT(rng.standard_normal(6), s @ s.T + np.eye(6), df)
    chain = np.eye(6)[:-1] - np.eye(6)[1:]
    r = chain @ dist.location if centred else np.zeros(5)
    est = numkernel.mvt_constraint_prob(dist, chain, r, CHAIN_MCREP, seed)
    return json.dumps(
        {
            "value": est.value,
            "std_error": est.std_error,
            "exact": est.exact,
            "n_draws": est.n_draws,
        }
    )


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

    def cli_demo():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(demo.argv(0))
        return f"exit {code}\n{out.getvalue()}"

    yield "cli-demo", cli_demo

    order = workloads.OrderMC(SEED)
    yield "order-mc", lambda: cli.render_json(
        order.operation(0), _config(cli, "order-mc")
    )
    sim = workloads.SimStudy(SEED)
    for i in range(3):
        yield f"sim-study-{i}", lambda i=i: cli.render_json(
            sim.operation(i)[2], _config(cli, sim.FORMULA)
        )
    wide = workloads.ExploreWide(SEED)
    yield "explore-wide", lambda: cli.render_json(
        wide.operation(0), _config(cli, "explore-wide", mode="exploratory")
    )

    fit = _k5_fit(model)
    cfg = _config(cli, "y ~ x1 + x2 + x3 + x4")
    for seed, df_as_printed in K5_SEEDS:
        for text in K5_HYPOTHESES:
            yield f"k5 seed={seed} df_as_printed={df_as_printed} {text}", (
                lambda text=text, seed=seed, flag=df_as_printed: cli.render_json(
                    engine.test_hypotheses(
                        fit, text, mcrep=K5_MCREP, seed=seed, df_as_printed=flag
                    ),
                    cfg,
                )
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
        _config(cli, "y ~ x1 + x2"),
    )
    yield "readme-demo text", lambda: cli.render_test_text(
        engine.test_hypotheses(demo_fit, README_HYPOTHESES, seed=42), ALL_TABLES
    )


_ESTIMATE_KEYS = {"value", "std_error", "exact", "n_draws"}


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
    status, differing, z_max = 0, 0, 0.0
    for name in sorted(old.keys() ^ new.keys()):
        print(f"only in {'old' if name in old else 'new'}: {name}")
        status = 1
    for name in [n for n in old if n in new]:
        a, b = old[name], new[name]
        if a == b:
            print(f"same    {name}")
            continue
        print(f"differs {name}")
        differing += 1
        if a.startswith("error:") or b.startswith("error:"):
            print(f"    {a.splitlines()[0]!r} -> {b.splitlines()[0]!r}")
            status = 1
            continue
        doc_a, doc_b = _document(a), _document(b)
        if doc_a is None or doc_b is None:
            continue
        est_a, est_b = dict(_estimates(doc_a)), dict(_estimates(doc_b))
        for path in est_a.keys() | est_b.keys():
            if est_a.get(path) == est_b.get(path):
                continue
            if path not in est_a or path not in est_b:
                print(f"    {path}: only in {'old' if path in est_a else 'new'}")
                continue
            (va, sa, *_), (vb, sb, *_) = est_a[path], est_b[path]
            se = math.hypot(sa, sb)
            if se == 0.0 and va != vb:  # exact to exact
                change = f"|dv|/|v| = {abs(vb - va) / abs(va) if va else math.inf:.3g}"
            else:
                z = abs(vb - va) / se if se > 0 else 0.0
                z_max = max(z_max, z)
                change = f"|dv|/se = {z:.3g}"
            print(f"    {path}: {est_a[path]} -> {est_b[path]}  {change}")
    print(f"{differing} of {len(old.keys() & new.keys())} cases differ; largest |dv|/se = {z_max:.3g}")
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
