"""Command line interface.

Two subcommands: ``bfreg test`` runs stated hypotheses from ``--hyp``,
``bfreg exploratory`` runs the per-coefficient {< 0, = 0, > 0} screen.
Text output mirrors the tabular report layout users of the underlying
method expect; ``--output json`` emits the full unrounded result under
the versioned schema ``bfreg/1``.  Exit codes: 0 on success, 1 for
parse/validation/data problems, 2 for numeric failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .engine import (
    BFComponents,
    ExploratoryResult,
    TestResult,
    test_hypotheses,
)
from .errors import InvalidInputError, NumericError
from .model import fit_ols, load_csv, parse_formula, standardize

_MIN_MCREP = 10_000
_SCHEMA = "bfreg/1"


class _Parser(argparse.ArgumentParser):
    # Bad flags are an input problem: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bfreg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, needs_hyp in (("test", True), ("exploratory", False)):
        p = sub.add_parser(name, help=f"run the {name} analysis")
        p.add_argument("--data", required=True, help="CSV file with a header row")
        p.add_argument(
            "--formula", required=True, help='model formula, e.g. "y ~ x1 + x2"'
        )
        if needs_hyp:
            p.add_argument(
                "--hyp",
                required=True,
                help="semicolon-separated hypotheses, e.g. \"x1>x2>0;x1=x2=0\"",
            )
        p.add_argument(
            "--prior-probs",
            default="equal",
            help='"equal" or comma-separated positive weights '
            "(include the complement when one is added)",
        )
        p.add_argument(
            "--mcrep",
            type=int,
            default=1_000_000,
            help="precision budget per estimate in draw-equivalents: refine "
            "to the standard error of this many independent draws, with no "
            "more lattice points (minimum 10000)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="RNG seed; 0 or unset derives one from the clock "
            "(BFREG_SEED env var is the fallback)",
        )
        p.add_argument(
            "--standardize",
            action="store_true",
            help="standardize all model variables before fitting",
        )
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument(
            "--show",
            action="append",
            choices=("bf-matrix", "computation", "ci"),
            default=[],
            help="extra text tables (repeatable)",
        )
        p.add_argument("--delimiter", default=",", help="CSV field delimiter")
        p.add_argument(
            "--lemma-df-as-printed",
            action="store_true",
            help="reproduce unadjusted conditional degrees of freedom "
            "(comparison mode)",
        )
    return parser


def _resolve_seed(arg_seed) -> tuple:
    seed = arg_seed
    if seed is None:
        env = os.environ.get("BFREG_SEED", "").strip()
        if env:
            try:
                seed = int(env)
            except ValueError:
                raise InvalidInputError(
                    f"BFREG_SEED must be an integer, got {env!r}"
                ) from None
        else:
            seed = 0
    if seed == 0:
        return int(time.time_ns()) % (1 << 31), True
    return int(seed), False


def _prior_probs(text):
    """None for ``"equal"``, else the positive weights ``text`` lists."""
    prior = text.strip()
    if prior == "equal":
        return None
    try:
        weights = tuple(float(w) for w in prior.split(","))
    except ValueError:
        raise InvalidInputError(
            f"--prior-probs must be 'equal' or comma-separated numbers, "
            f"got {prior!r}"
        ) from None
    if any(not (w > 0 and math.isfinite(w)) for w in weights):
        raise InvalidInputError("--prior-probs weights must be positive")
    return weights


# --- formatting -------------------------------------------------------

def _fmt(x, places=3) -> str:
    if x is None:
        return "NA"
    if isinstance(x, float) and math.isinf(x):
        return "Inf"
    if isinstance(x, float) and math.isnan(x):
        return "NA"
    return f"{x:.{places}f}"


def _ci_places(bf, lb, ub) -> int:
    """Fewest decimals, at least 3, at which ``lb < bf < ub`` still shows."""
    places = 3
    while places < 17:
        shown = [float(_fmt(x, places)) for x in (lb, bf, ub)]
        if shown[0] < shown[1] < shown[2]:
            break
        places += 1
    return places


def _table(headers, rows, row_labels) -> str:
    label_w = max(len(str(r)) for r in row_labels) if row_labels else 0
    widths = [
        max(len(h), max((len(row[j]) for row in rows), default=0))
        for j, h in enumerate(headers)
    ]
    lines = [
        " " * label_w + " " + " ".join(h.rjust(widths[j]) for j, h in enumerate(headers))
    ]
    for lab, row in zip(row_labels, rows):
        lines.append(
            str(lab).ljust(label_w)
            + " "
            + " ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
        )
    return "\n".join(lines)


def _hypotheses_block(labels, texts) -> str:
    lines = ["Hypotheses:", ""]
    for lab, text in zip(labels, texts):
        lines.append(f'  {lab}:   "{text}"')
    return "\n".join(lines)


def _component_cells(comp: BFComponents):
    c_ie = comp.c_ie.value if comp.c_ie is not None else None
    f_ie = comp.f_ie.value if comp.f_ie is not None else None
    c = comp.c_e * c_ie if (comp.c_e is not None and c_ie is not None) else None
    f = comp.f_e * f_ie if (comp.f_e is not None and f_ie is not None) else None
    return [
        _fmt(comp.c_e),
        _fmt(c_ie),
        _fmt(c),
        _fmt(comp.f_e),
        _fmt(f_ie),
        _fmt(f),
        _fmt(comp.bf),
    ]


def render_test_text(res: TestResult, show) -> str:
    parts = [_hypotheses_block(res.labels, res.hypothesis_texts)]
    lines = ["Posterior probability of each hypothesis (rounded):", ""]
    for lab, p in zip(res.labels, res.post_probs):
        lines.append(f"  {lab}:   {p:.3f}")
    parts.append("\n".join(lines))

    if "computation" in show:
        headers = ["c(E)", "c(I|E)", "c", "f(E)", "f(I|E)", "f", "B(t,u)", "PP(t)"]
        rows = [
            _component_cells(comp) + [_fmt(p)]
            for comp, p in zip(res.components, res.post_probs)
        ]
        parts.append(
            "Computation table:\n\n" + _table(headers, rows, res.labels)
        )
    if "ci" in show:
        headers = ["B(t,u)", "lb. (5%)", "ub. (95%)"]
        rows = []
        for comp in res.components:
            if comp.ci90 is None:
                rows.append([_fmt(comp.bf), "NA", "NA"])
            else:
                places = _ci_places(comp.bf, *comp.ci90)
                rows.append([_fmt(x, places) for x in (comp.bf, *comp.ci90)])
        note = ""
        if not any(comp.uses_mc for comp in res.components):
            note = "\n(all Bayes factors are exact; no Monte Carlo error)"
        parts.append(
            "Bayes factors vs. unconstrained (90% credibility interval):\n\n"
            + _table(headers, rows, res.labels)
            + note
        )
    if "bf-matrix" in show:
        rows = [
            [_fmt(res.bf_matrix[i, j]) for j in range(len(res.labels))]
            for i in range(len(res.labels))
        ]
        parts.append("BF matrix:\n\n" + _table(list(res.labels), rows, res.labels))
    return "\n\n".join(parts) + "\n"


def render_exploratory_text(res: ExploratoryResult, show) -> str:
    hypotheses = ("H1", "H2", "H3")
    regions = ["X < 0", "X = 0", "X > 0"]
    rows = [[f"{p:.3f}" for p in row] for row in res.post_probs]
    parts = [
        _hypotheses_block(hypotheses, regions),
        "Posterior probabilities for each variable (rounded),\n"
        "assuming equal prior probabilities:\n\n"
        + _table(hypotheses, [regions, *rows], ["", *res.coef_names]),
    ]
    if "bf-matrix" in show:
        for name in res.coef_names:
            M = res.bf_matrices[name]
            cells = [[_fmt(M[i, j]) for j in range(3)] for i in range(3)]
            parts.append(
                f"BF matrix for {name}:\n\n" + _table(hypotheses, cells, hypotheses)
            )
    return "\n\n".join(parts) + "\n"


def _prob_json(est) -> dict | None:
    if est is None:
        return None
    return {
        "value": est.value,
        "std_error": est.std_error,
        "exact": est.exact,
        "n_draws": est.n_draws,
    }


def _component_json(comp: BFComponents) -> dict:
    return {
        "label": comp.label,
        "bf": comp.bf,
        "log_bf": comp.log_bf,
        "ci90": list(comp.ci90) if comp.ci90 is not None else None,
        "c_e": comp.c_e,
        "f_e": comp.f_e,
        "c_ie": _prob_json(comp.c_ie),
        "f_ie": _prob_json(comp.f_ie),
    }


def _json_safe(x):
    """``x`` with every non-finite float in it, at any depth, as its repr:
    ``"inf"``, ``"-inf"`` or ``"nan"``."""
    if isinstance(x, dict):
        return {key: _json_safe(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return repr(float(x))
    return x


def render_json(res, formula, standardize=False) -> str:
    """The result as strict JSON, echoing the ``formula`` it was fitted
    with and whether the data were standardized: non-finite numbers are
    strings, and ``mode`` is that of the result."""
    doc = {
        "schema": _SCHEMA,
        "mode": "test" if isinstance(res, TestResult) else "exploratory",
        "formula": formula,
        "standardize": standardize,
        "seed": res.seed,
        "mcrep": res.mcrep,
    }
    if isinstance(res, TestResult):
        doc.update(
            {
                "hypotheses": [
                    {"label": lab, "text": text}
                    for lab, text in zip(res.labels, res.hypothesis_texts)
                ],
                "prior_probs": res.prior_probs.tolist(),
                "posterior_probs": res.post_probs.tolist(),
                "bf_unconstrained": [
                    _component_json(c) for c in res.components
                ],
                "bf_matrix": res.bf_matrix.tolist(),
            }
        )
    else:
        doc.update(
            {
                "coefficients": list(res.coef_names),
                "posterior_probs": res.post_probs.tolist(),
                "bf_matrices": {
                    name: res.bf_matrices[name].tolist() for name in res.coef_names
                },
            }
        )
    return json.dumps(_json_safe(doc), indent=2, allow_nan=False)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if ns.mcrep < _MIN_MCREP:
            raise InvalidInputError(f"--mcrep must be at least {_MIN_MCREP}")
        prior = _prior_probs(ns.prior_probs)
        seed, derived = _resolve_seed(ns.seed)
        if derived:
            print(f"seed: {seed} (time-derived)", file=sys.stderr)
        data = load_csv(ns.data, delimiter=ns.delimiter)
        if ns.standardize:
            response, terms, _ = parse_formula(ns.formula)
            data = standardize(data, [response, *terms])
        res = test_hypotheses(
            fit_ols(data, ns.formula),
            getattr(ns, "hyp", "exploratory"),
            prior_probs=prior,
            mcrep=ns.mcrep,
            seed=seed,
            df_as_printed=ns.lemma_df_as_printed,
        )
        if ns.output == "json":
            print(render_json(res, ns.formula, ns.standardize))
        elif isinstance(res, ExploratoryResult):
            print(render_exploratory_text(res, ns.show), end="")
        else:
            print(render_test_text(res, ns.show), end="")
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
