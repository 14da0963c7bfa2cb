"""bfreg's benchmark: one workload per run, end to end or traced.

Usage (from the root of a checkout; bfreg is imported from ``src``)::

    python3 perfbench/run.py --workload order-mc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` measures the per-layer metrics: operations alternate
between untraced and traced, the traced ones with the spans of
:mod:`perfbench.trace`.  Metric names, units and directions come from
``BENCHMARK.json``.  Each operation's output is checked against
references that do not use bfreg's sampler; an operation that raises,
exits nonzero or fails its check counts as failed.

The run prints one line per metric, then a JSON report (environment,
sample counts, failures), and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch
files (the demo CSV, CLI output, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":  # import the package from the root, not its modules from here
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from perfbench import ROOT, bfreg_env  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
# One client on a 2-core machine: BLAS gets one thread so the sampler's
# matrix products do not compete with the other core's tenants.
BLAS_THREADS = 1
MIN_OPS = 15  # the tail percentile needs ten samples beyond it; five more steady it
MIN_TRACED_OPS = 5  # of each kind in a traced run
SETUP_PROBES = 5
IMPORT_PROBES = 3
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120


# The machine this runs on is shared: its speed drifts by up to half
# within seconds, and the program's wall time drifts with it.  A fixed
# calibration kernel, timed before and after every operation and set-up
# probe, measures that speed; end-to-end times are divided by it and
# multiplied by the kernel's nominal time, its time on an uncontended core
# of the Intel Xeon (2 vCPU) this benchmark was defined on.  They read as
# seconds at that nominal speed; raw medians go to the report line.  Each
# workload names the kernel whose work is most like its own, because
# contention slows cache-resident interpreter work and streaming array
# work by different amounts.


def _interpreter_kernel(np):
    """Python loops and small linear algebra, like imports and set-up."""
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(40):
        a = rng.standard_normal((200, 20))
        acc += float(np.linalg.svd(a.T @ a, compute_uv=False)[0])
        acc += sum(i * 0.5 for i in range(2000))
    return acc


def _sampler_kernel(np):
    """Streaming t draws and hit counts, like bfreg's Monte Carlo chunks."""
    rng = np.random.Generator(np.random.Philox(0))
    chol = np.linalg.cholesky(np.eye(6) + 0.5)
    hits = 0
    for _ in range(2):
        z = rng.standard_normal((131072, 6))
        w = rng.chisquare(3.0, 131072)
        hits += int(np.all((z @ chol.T) * np.sqrt(3.0 / w)[:, None] > 0, axis=1).sum())
    return hits


def _linalg_kernel(np):
    """Small dense factorizations, like the exact paths' transforms and densities."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((60, 60))
    scale = a @ a.T + 60.0 * np.eye(60)
    acc = 0.0
    for _ in range(25):
        row = rng.standard_normal((1, 60))
        _, _, vt = np.linalg.svd(row, full_matrices=True)
        t = vt @ scale @ vt.T
        acc += float(np.linalg.cholesky(0.5 * (t + t.T))[0, 0])
        acc += float(np.linalg.lstsq(row, np.ones(1), rcond=None)[0][0])
        acc += float(np.linalg.pinv(vt[1:])[0, 0])
    return acc


# kernel name -> (kernel, nominal seconds)
KERNELS = {
    "interpreter": (_interpreter_kernel, 0.009),
    "sampler": (_sampler_kernel, 0.055),
    "linalg": (_linalg_kernel, 0.012),
}


def calibration(kernel) -> float:
    """Seconds the named kernel takes now."""
    import numpy as np

    fn = KERNELS[kernel][0]
    t0 = time.perf_counter()
    fn(np)
    return time.perf_counter() - t0


@dataclass
class Op:
    i: int
    wall: float
    output: object
    error: str | None
    traced: bool
    stats: dict | None = None
    slowdown: float = 1.0  # calibration time against nominal, before and after

    @property
    def scaled(self) -> float:
        return self.wall / self.slowdown


def setup_probe() -> float:
    """Seconds to ``import bfreg, bfreg.cli`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import bfreg, bfreg.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=bfreg_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout)


def importtime_probe() -> dict:
    """Import costs of ``bfreg.cli`` read from ``python -X importtime``."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import bfreg.cli"],
        env=bfreg_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    total = bfreg_self = 0
    first = {}
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        top_level = not name[1:].startswith(" ")
        name = name.strip()
        first.setdefault(name, int(cumulative))
        if name.startswith("bfreg"):
            bfreg_self += int(own)
            if top_level:
                total += int(cumulative)
    return {
        "import.total_s": total / 1e6,
        "import.scipy_optimize_s": first.get("scipy.optimize", 0) / 1e6,
        "import.scipy_linalg_s": first.get("scipy.linalg", 0) / 1e6,
        "import.bfreg_self_s": bfreg_self / 1e6,
    }


def environment(seed) -> dict:
    import ctypes
    import glob

    import cpuinfo
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    if libs:
        with contextlib.suppress(AttributeError, OSError):
            threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_()
    return {
        "cpu": cpuinfo.get_cpu_info().get("brand_raw"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "seed": seed,
    }


def timed_op(wl, i, tracer) -> Op:
    """Run and time one operation; keep its counts and what its check needs."""
    if tracer is not None:
        tracer.begin_op(i)
    in_process = tracer is not None and not wl.spawns
    with tracer.installed() if in_process else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            out, err = wl.operation(i, tracer), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    if err is not None:
        return Op(i, wall, None, err, tracer is not None)
    if wl.spawns:
        wall = out["wall"]  # spawn to exit, without reading spans back
    # Only the part the check needs is kept, so that memory does not grow
    # with the number of operations a run happens to complete.
    return Op(i, wall, wl.retain(out), None, tracer is not None, wl.stats(out))


def closed_loop(wl, seconds, min_ops, tracer=None) -> list:
    """One client; with a tracer, every second operation is traced."""
    ops = []
    speed = Speed(wl.calibration)
    t_end = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < t_end:
        i = len(ops)
        op = timed_op(wl, i, tracer if tracer is not None and i % 2 else None)
        op.slowdown = speed.next()
        ops.append(op)
    return ops


class Speed:
    """Slowdown against nominal, averaged over the two ends of each interval."""

    def __init__(self, kernel):
        self.kernel = kernel
        calibration(kernel)  # untimed: first use of the code paths
        self.last = calibration(kernel)

    def next(self) -> float:
        now = calibration(self.kernel)
        slowdown = (self.last + now) / 2 / KERNELS[self.kernel][1]
        self.last = now
        return slowdown


def setup_times() -> tuple[list, list]:
    """Raw and calibrated times of SETUP_PROBES set-up probes."""
    raw, scaled = [], []
    speed = Speed("interpreter")
    for _ in range(SETUP_PROBES):
        raw.append(setup_probe())
        scaled.append(raw[-1] / speed.next())
    return raw, scaled


def check_ops(wl, ops):
    """Failures by operation id, and the per-operation stats of the rest."""
    from perfbench.workloads import alpha_for

    alpha = alpha_for(len(ops))
    failures, stats = {}, {}
    for op in ops:
        problems = [op.error] if op.error else wl.check(op.output, alpha)
        if problems:
            failures[op.i] = problems
        else:
            stats[op.i] = op.stats
    return failures, stats


def tail(walls):
    """Highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(walls)
    j = len(ordered) - TAIL_BEYOND
    return ordered[j - 1], 100.0 * j / len(ordered)


def end_to_end(wl, seconds):
    setup_raw, setup = setup_times()
    if not wl.spawns:
        wl.operation(-1)  # untimed: lazy set-up and first-call costs
    ops = closed_loop(wl, seconds, MIN_OPS)
    if wl.spawns:
        rss_kb = max(op.output["rss_kb"] for op in ops if op.output is not None)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures, stats = check_ops(wl, ops)
    scaled = [op.scaled for op in ops]
    tail_s, pct = tail(scaled)
    metrics = {
        "setup_s": statistics.median(setup),
        "analysis_s": statistics.median(scaled),
        "analysis_tail_s": tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": 1.0 - len(failures) / len(ops),
    }
    report = {
        "setup_raw_s": statistics.median(setup_raw),
        "analysis_raw_s": statistics.median(op.wall for op in ops),
        "analysis_tail_raw_s": tail([op.wall for op in ops])[0],
        "slowdown": statistics.median(op.slowdown for op in ops),
        "tail_percentile": pct,
        "tail_samples": len(ops),
        "tail_samples_beyond": TAIL_BEYOND,
        "fail_ratio": len(failures) / len(ops),
    }
    return ops, failures, metrics, report


def traced(wl, seconds, seed):
    from perfbench import trace

    probes = [importtime_probe() for _ in range(IMPORT_PROBES)]
    metrics = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    if not wl.spawns:
        wl.operation(-1)
    tracer = trace.Tracer()
    ops = closed_loop(wl, seconds, 2 * MIN_TRACED_OPS, tracer)
    failures, stats = check_ops(wl, ops)
    plain = [op for op in ops if not op.traced]
    done = [op for op in ops if op.traced]
    table = trace.per_op(tracer.spans, tracer.counts, [op.i for op in done])
    metrics.update(trace.summarize(table))
    metrics["cli.process_s"] = (
        statistics.median(op.wall - table[op.i]["cli.main_s"] - table[op.i]["cli.import_s"] for op in done)
        if wl.spawns
        else 0.0
    )
    del metrics["cli.import_s"]
    ok = [stats[op.i] for op in done if op.i in stats]
    for key, name in (
        ("zero_or_all_hit_estimates", "numkernel.zero_or_all_hit_estimates"),
        ("nonfinite_bf_matrix", "engine.nonfinite_bf_matrix"),
    ):
        metrics[name] = statistics.median(s[key] for s in ok) if ok else 0
    precision = [op.wall * stats[op.i]["max_var_log_bf"] for op in plain if op.i in stats]
    metrics["engine.logbf_var_s"] = statistics.median(precision) if precision else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(op.scaled for op in done) / statistics.median(
        op.scaled for op in plain
    )
    tracer.dump(OUT_DIR / f"trace-{wl.name}-{seed}.jsonl")
    report = {"traced_ops": len(done), "untraced_ops": len(plain), "moves": trace.MOVES}
    return ops, failures, metrics, report


def run_one(spec, name, seed, seconds, trace_on) -> int:
    from perfbench import workloads

    declared = spec["per_layer" if trace_on else "end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[name]
    wl = workloads.make(name, seed, OUT_DIR)
    if trace_on:
        ops, failures, metrics, report = traced(wl, seconds, seed)
    else:
        ops, failures, metrics, report = end_to_end(wl, seconds)
    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    for m in declared:
        print(f"{name:<13} {m['name']:<38} {metrics[m['name']]:<14.6g} {m['unit']}")
    report.update(
        workload=name,
        why=why,
        seconds=seconds,
        trace=int(trace_on),
        attempted=len(ops),
        failed=len(failures),
        failures={str(i): p[:3] for i, p in list(failures.items())[:5]},
        env=environment(seed),
    )
    print(json.dumps({"report": report}))
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(names, seed, seconds, trace_on) -> int:
    """Every workload in its own process; the last line maps name to result."""
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(trace_on))]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        if out.returncode != 0 or not lines:
            print(f"{name}: exit {out.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads, children inherit
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, args.trace)
    if not (ROOT / "src" / "bfreg").is_dir():
        print(f"error: bfreg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
