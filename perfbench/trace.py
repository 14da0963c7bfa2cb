"""Spans around the calls into bfreg's modules, recorded from outside.

The tracer rebinds the module attributes that bfreg's callers look up at
call time (``bfreg.engine.mvt_constraint_prob``, ``bfreg.hyparse.linprog``
and so on) to timing wrappers, and restores the originals afterwards.
Nothing in bfreg changes.  A span records its name, start, end, parent and
operation id; spans stay in memory until :meth:`Tracer.dump`.  Counters
record how often a call was made, or how many draws it asked for, without
a span, so their time stays in the caller's self time.

This module imports nothing heavy: the traced CLI child imports it before
bfreg so that bfreg's import can be timed on its own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

# (module, attribute, span name).  Several attributes may share a span name.
SPAN_SITES = (
    ("bfreg.cli", "load_csv", "model.load_csv"),
    ("bfreg.cli", "fit_ols", "model.fit_ols"),
    ("bfreg.model", "fit_ols", "model.fit_ols"),
    ("bfreg.engine", "parse_hypotheses", "hyparse.parse"),
    ("bfreg.engine", "validate", "hyparse.validate"),
    ("bfreg.engine", "build_transform", "constraints.transform"),
    ("bfreg.engine", "fractional_posterior_beta", "constraints.dist"),
    ("bfreg.engine", "marginal_xiE", "constraints.dist"),
    ("bfreg.engine", "conditional_xiI", "constraints.dist"),
    ("bfreg.engine", "mvt_constraint_prob", "numkernel.prob"),
    ("bfreg.engine", "mvt_logpdf", "numkernel.logpdf"),
    ("bfreg.engine", "bf_unconstrained", "engine.bf"),
    ("bfreg.engine", "bf_complement", "engine.complement"),
    ("bfreg.engine", "posterior_probabilities", "engine.posterior"),
    ("bfreg.engine", "bf_matrix", "engine.posterior"),
    ("bfreg.cli", "render_json", "cli.render"),
    ("bfreg.cli", "render_test_text", "cli.render"),
    ("bfreg.cli", "render_exploratory_text", "cli.render"),
)


def _one(args, kwargs):
    return 1


def _union_draws(args, kwargs):
    # engine._union_prob(dist, systems, n_draws, seed)
    return int(kwargs["n_draws"] if "n_draws" in kwargs else args[2])


# (module, attribute, counter name, amount per call)
COUNT_SITES = (
    ("bfreg.hyparse", "linprog", "hyparse.lp_solves", _one),
    ("bfreg.numkernel", "t_cdf", "numkernel.tcdf_calls", _one),
    ("bfreg.engine", "_union_prob", "engine.union_draws", _union_draws),
)

# Which end-to-end metric each layer's metrics should move, and where.
MOVES = {
    "import": "setup_s on every workload; analysis_s on cli-demo",
    "model": "analysis_s on cli-demo (load_csv) and sim-study (fit_ols)",
    "hyparse": "analysis_s on sim-study; not explore-wide, which never validates",
    "constraints": "analysis_s on explore-wide, and on sim-study to a lesser degree",
    "numkernel": "analysis_s and engine.logbf_var_s on order-mc (most) and "
    "sim-study; prob_mc_calls and draws stay 0 on explore-wide",
    "engine": "analysis_s on order-mc and sim-study",
    "cli": "analysis_s on cli-demo",
    "trace": "none: the cost of tracing itself",
}


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self.op = None
        self._stack = []

    def begin_op(self, op):
        self.op = op

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "op": self.op,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap_span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(self.spans)
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                self._annotate(name, me, rec, out)
                return out

        return traced

    def wrap_count(self, name, fn, amount):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts.append({"name": name, "n": amount(args, kwargs), "op": self.op})
            return fn(*args, **kwargs)

        return counted

    def _annotate(self, name, me, rec, out):
        """Read counts from return values (ProbEstimate, BFComponents)."""
        if name == "numkernel.prob":
            rec["exact"] = bool(out.exact)
            rec["draws"] = int(out.n_draws)
            rec["hits"] = round(out.value * out.n_draws)
            rec["_result"] = out
        elif name == "engine.bf":
            for child in self.spans[me + 1 :]:
                if child["parent"] == me and "_result" in child:
                    res = child.pop("_result")
                    child["role"] = "post" if res is out.f_ie else "prior"

    def install(self):
        """Rebind every site; returns what :meth:`restore` needs."""
        saved = []
        for mod_name, attr, name in SPAN_SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap_span(name, orig))
        for mod_name, attr, name, amount in COUNT_SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap_count(name, orig, amount))
        return saved

    @staticmethod
    def restore(saved):
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        saved = self.install()
        try:
            yield self
        finally:
            self.restore(saved)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({k: v for k, v in rec.items() if k != "_result"}))
                fh.write("\n")
            for rec in self.counts:
                fh.write(json.dumps(dict(rec, kind="count")) + "\n")

    def absorb(self, path, op):
        """Append spans and counters dumped by another process as ``op``."""
        base = len(self.spans)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                rec["op"] = op
                if rec.pop("kind", None) == "count":
                    self.counts.append(rec)
                else:
                    if rec["parent"] >= 0:
                        rec["parent"] += base
                    self.spans.append(rec)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [rec["end"] - rec["start"] for rec in spans]
    for rec in spans:
        if rec["parent"] >= 0:
            out[rec["parent"]] -= rec["end"] - rec["start"]
    return out


# span name -> (metric, use self time instead of duration)
_SPAN_TIMES = {
    "model.load_csv": ("model.load_csv_s", False),
    "model.fit_ols": ("model.fit_ols_s", False),
    "hyparse.parse": ("hyparse.parse_s", False),
    "hyparse.validate": ("hyparse.validate_s", False),
    "constraints.transform": ("constraints.transform_s", False),
    "constraints.dist": ("constraints.dist_s", False),
    "numkernel.prob": ("numkernel.prob_s", True),
    "numkernel.logpdf": ("numkernel.logpdf_s", False),
    "engine.bf": ("engine.bf_s", True),
    "engine.complement": ("engine.complement_s", True),
    "engine.posterior": ("engine.posterior_s", False),
    "cli.import": ("cli.import_s", False),
    "cli.main": ("cli.main_s", False),
    "cli.render": ("cli.render_s", False),
}
_SPAN_CALLS = {
    "constraints.transform": "constraints.transform_calls",
    "constraints.dist": "constraints.dist_calls",
    "numkernel.logpdf": "numkernel.logpdf_calls",
    "engine.bf": "engine.bf_calls",
}
_COUNTERS = ("hyparse.lp_solves", "numkernel.tcdf_calls", "engine.union_draws")
# Raw per-operation sums behind the ratios; summed over operations first.
_RAW = ("_mc_prob_s", "_prior_hits", "_prior_draws", "_post_hits", "_post_draws")


def _blank():
    names = [m for m, _ in _SPAN_TIMES.values()] + list(_SPAN_CALLS.values())
    names += list(_COUNTERS) + list(_RAW)
    names += ["numkernel.prob_exact_calls", "numkernel.prob_mc_calls", "numkernel.draws"]
    return dict.fromkeys(names, 0)


def per_op(spans, counts, ops):
    """Layer metrics for each operation id in ``ops``."""
    table = {op: _blank() for op in ops}
    selfs = self_times(spans)
    for rec, own in zip(spans, selfs):
        row = table.get(rec["op"])
        if row is None:
            continue
        name = rec["name"]
        if name in _SPAN_TIMES:
            metric, use_self = _SPAN_TIMES[name]
            row[metric] += own if use_self else rec["end"] - rec["start"]
        if name in _SPAN_CALLS:
            row[_SPAN_CALLS[name]] += 1
        if name == "numkernel.prob":
            if rec["exact"]:
                row["numkernel.prob_exact_calls"] += 1
            else:
                row["numkernel.prob_mc_calls"] += 1
                row["numkernel.draws"] += rec["draws"]
                row["_mc_prob_s"] += own
                role = rec.get("role", "post")
                row[f"_{role}_hits"] += rec["hits"]
                row[f"_{role}_draws"] += rec["draws"]
    for rec in counts:
        if rec["op"] in table:
            table[rec["op"]][rec["name"]] += rec["n"]
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(table):
    """Median over operations of each metric; ratios from summed raw counts."""
    rows = list(table.values())
    out = {
        name: statistics.median(row[name] for row in rows)
        for name in rows[0]
        if not name.startswith("_")
    }
    total = {name: sum(row[name] for row in rows) for name in _RAW}
    draws = sum(row["numkernel.draws"] for row in rows)
    out["numkernel.draws_per_s"] = _ratio(draws, total["_mc_prob_s"])
    out["numkernel.prior_hit_ratio"] = _ratio(total["_prior_hits"], total["_prior_draws"])
    out["numkernel.post_hit_ratio"] = _ratio(total["_post_hits"], total["_post_draws"])
    return out
