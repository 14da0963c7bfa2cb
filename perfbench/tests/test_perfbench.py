"""Tests of the benchmark itself: span arithmetic, workloads, rebinding."""

import importlib
import math

import numpy as np
import pytest

import bfreg.engine
from perfbench import reference, run, trace, workloads


def _span(name, start, end, parent, **extra):
    return dict(name=name, start=start, end=end, parent=parent, op=0, **extra)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("engine.bf", 0.0, 10.0, -1),
        _span("numkernel.prob", 1.0, 4.0, 0, exact=False, draws=100, hits=25, role="post"),
        _span("constraints.dist", 4.0, 5.0, 0),
        _span("numkernel.prob", 5.0, 9.0, 0, exact=False, draws=100, hits=5, role="prior"),
        _span("numkernel.logpdf", 6.0, 7.5, 3),
    ]
    assert trace.self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 2.5, 1.5])
    row = trace.per_op(spans, [{"name": "engine.union_draws", "n": 7, "op": 0}], [0])[0]
    assert row["engine.bf_s"] == pytest.approx(2.0)
    assert row["numkernel.prob_s"] == pytest.approx(5.5)
    assert row["constraints.dist_s"] == pytest.approx(1.0)
    assert row["numkernel.logpdf_s"] == pytest.approx(1.5)
    assert row["numkernel.prob_mc_calls"] == 2
    assert row["numkernel.draws"] == 200
    assert row["engine.union_draws"] == 7
    summary = trace.summarize({0: row})
    assert summary["numkernel.draws_per_s"] == pytest.approx(200 / 5.5)
    assert summary["numkernel.post_hit_ratio"] == pytest.approx(0.25)
    assert summary["numkernel.prior_hit_ratio"] == pytest.approx(0.05)


@pytest.fixture
def traced_sim_op():
    wl = workloads.make("sim-study", 3, None, tiny=True)
    tracer = trace.Tracer()
    tracer.begin_op(0)
    with tracer.installed():
        _, _, result = wl.operation(0)
    return tracer, result


def test_tracer_records_nesting_and_roles(traced_sim_op):
    tracer, result = traced_sim_op
    bf_spans = [i for i, s in enumerate(tracer.spans) if s["name"] == "engine.bf"]
    probs = [s for s in tracer.spans if s["name"] == "numkernel.prob"]
    assert len(bf_spans) == len(result.components) - 1
    assert all(s["parent"] in bf_spans for s in probs)
    assert sorted(s["role"] for s in probs) == ["post", "post", "prior", "prior"]
    assert all("_result" not in s for s in tracer.spans)


def test_trace_restores_every_rebound_name():
    sites = [(m, a) for m, a, _ in trace.SPAN_SITES]
    sites += [(m, a) for m, a, _, _ in trace.COUNT_SITES]
    originals = {site: getattr(importlib.import_module(site[0]), site[1]) for site in sites}
    wl = workloads.make("order-mc", 4, None, tiny=True)
    tracer = trace.Tracer()
    with pytest.raises(RuntimeError), tracer.installed():
        assert bfreg.engine.mvt_constraint_prob is not originals[
            ("bfreg.engine", "mvt_constraint_prob")
        ]
        wl.operation(0)
        raise RuntimeError("restore must survive an error")
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn
    recorded = len(tracer.spans), len(tracer.counts)
    wl.operation(1)
    assert (len(tracer.spans), len(tracer.counts)) == recorded


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_check(name, tmp_path):
    wl = workloads.make(name, 5, tmp_path, tiny=True)
    for i in range(2):
        out = wl.operation(i)
        stats = wl.stats(out)
        assert wl.check(wl.retain(out)) == []
        assert stats["zero_or_all_hit_estimates"] >= 0


def test_traced_cli_child_reports_spans(tmp_path):
    wl = workloads.make("cli-demo", 6, tmp_path, tiny=True)
    tracer = trace.Tracer()
    tracer.begin_op(0)
    out = wl.operation(0, tracer)
    assert wl.check(out) == []
    row = trace.per_op(tracer.spans, tracer.counts, [0])[0]
    assert row["cli.main_s"] > row["cli.render_s"] > 0
    assert row["hyparse.lp_solves"] == 2
    assert row["numkernel.prob_mc_calls"] == 2


def test_explore_wide_never_samples():
    wl = workloads.make("explore-wide", 7, None, tiny=True)
    tracer = trace.Tracer()
    tracer.begin_op(0)
    with tracer.installed():
        wl.operation(0)
    summary = trace.summarize(trace.per_op(tracer.spans, tracer.counts, [0]))
    assert summary["numkernel.prob_mc_calls"] == 0
    assert summary["numkernel.draws"] == 0
    assert summary["numkernel.prob_exact_calls"] > 0


def test_check_rejects_a_wrong_bayes_factor(tmp_path):
    wl = workloads.make("cli-demo", 8, tmp_path, tiny=True)
    good = wl.operation(0)
    doc = workloads.json.loads(good["stdout"])
    h2 = doc["bf_unconstrained"][1]
    h2["log_bf"] += 0.5
    h2["bf"] *= math.exp(0.5)
    h2["ci90"] = [v * math.exp(0.5) for v in h2["ci90"]]
    doc["bf_unconstrained"][0]["bf"] = 0.384
    bad = dict(good, stdout=workloads.json.dumps(doc))
    problems = wl.check(bad)
    assert any(p.startswith("H2: log BF") for p in problems)
    assert any("published 0.383" in p for p in problems)


def test_zero_hit_estimate_is_judged_by_its_count():
    zero = {"value": 0.0, "std_error": 0.0, "exact": False, "n_draws": 10_000}
    prior = {"value": 0.25, "std_error": 0.004, "exact": False, "n_draws": 10_000}
    comp = {"label": "H", "bf": 0.0, "log_bf": -math.inf, "ci90": None, "f_ie": zero, "c_ie": prior}
    tiny = reference.BFRef(0.0, reference.Ref(1e-7, 0.0), reference.Ref(0.25, 0.0))
    assert workloads.check_component(comp, tiny) == []
    large = reference.BFRef(0.0, reference.Ref(0.01, 0.0), reference.Ref(0.25, 0.0))
    assert workloads.check_component(comp, large) != []


def test_rare_counts_pass_at_the_run_wide_threshold():
    # One hit where 0.003 were expected, and six where one was: each
    # happens about once in a run of a few hundred operations.
    prior = {"value": 0.02, "std_error": 0.001, "exact": False, "n_draws": 20_000}
    ref_c = reference.Ref(0.02, 0.0)
    alpha = workloads.alpha_for(365)
    for hits, expected in ((1, 1.5e-7), (6, 5.2e-5)):
        est = {"value": hits / 20_000, "std_error": 0.0, "exact": False, "n_draws": 20_000}
        comp = {"label": "H", "bf": 1.0, "log_bf": 0.0, "ci90": [0.5, 2.0], "f_ie": est, "c_ie": prior}
        ref = reference.BFRef(0.0, reference.Ref(expected, 0.0), ref_c)
        assert workloads.check_component(comp, ref, alpha) == []
        assert workloads.check_component(comp, ref, 0.05) != []


def test_union_reference_matches_closed_form():
    # Exchangeable slopes: chain and reverse chain over six, and three
    # positive.  Pr(chain and x3 > 0) = (1/720) Pr(at least 3 of 6 > 0).
    wl = workloads.make("order-mc", 9, None, tiny=True)
    ref = wl.refs[0]
    _, c_ie = ref.complement(wl.hyps)
    union = 2 / 720 + 1 / 8 - (42 / 64) / 720 - (1 / 64) / 720
    assert c_ie.value == pytest.approx(1.0 - union, abs=5 * c_ie.se + 1e-7)
    chain = ref.bayes_factor(wl.hyps[0])
    assert chain.c_ie.value == pytest.approx(1 / 720, abs=5 * chain.c_ie.se + 1e-8)


def test_orthant_closed_forms():
    assert reference.orthant(np.eye(2)).value == pytest.approx(0.25)
    rho = 0.3
    cov = np.array([[1, rho, rho], [rho, 1, rho], [rho, rho, 1]])
    assert reference.orthant(cov).value == pytest.approx(0.125 + 3 * math.asin(rho) / (4 * math.pi))


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(x) for x in range(20, 0, -1)])
    assert value == 10.0
    assert pct == pytest.approx(50.0)
