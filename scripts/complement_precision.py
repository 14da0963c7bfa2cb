"""Precision per second of the complement's posterior estimate on order-mc.

Builds the benchmark's ``order-mc`` inputs as ``scripts/dump_outputs.py``
does (seed 5, mcrep 1e6) and runs its analysis at ``N`` operation seeds.
For the automatic complement's posterior probability ``1 - U_f`` (Hc's
``f_ie``) it prints:

- the routes ``complement_prob`` summed, named by their pivot systems
  (inclusion-exclusion, the likeliest system's pieces or the walk over
  every system's pieces), with how many seeds took each;
- the mean against a reference, in standard errors of the mean (the
  reference's own error included);
- the median relative standard error;
- the share of seeds whose error exceeds two reported standard errors;
- ``SE^2 x s``: the mean reported variance times the mean seconds of the
  estimate, and the same with the variance across seeds.

The reference is the walk over every hypothesis's disjoint pieces with
each piece refined to ``--ref-points`` lattice points (2**20 by default),
about 5 s on a 2-vCPU Xeon; each seed's analysis takes 0.03-0.1 s there.

Usage:
    python scripts/complement_precision.py [--seeds N] [--root CHECKOUT]

``--root`` imports bfreg and the benchmark inputs from another checkout
(default: the one holding this script), so the parent of a change is
measured with the same script.  The checkout must have the term builder
and sum of ``bfreg.numkernel`` (``_table``, ``_terms`` and ``_term_sum``).
"""

import argparse
import collections
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

SEED = 5


def route_name(pivots, m):
    """The route of ``complement_prob`` that sums the terms under ``pivots``."""
    if not pivots:
        return "inclusion-exclusion"
    return "walk" if len(pivots) == m else f"likeliest {pivots[0]}"


def reference(numkernel, dist, rows, points):
    """``1 - U`` by the walk over every system's pieces, each at ``points``
    lattice points."""
    every, table = tuple(range(len(rows))), numkernel._table(rows)
    terms = numkernel._terms(every, table, math.inf)
    # an unreachable binomial target makes every piece refine to its cap
    est, _ = numkernel._term_sum(dist, every, terms, table, [None] * len(rows), 1 << 62, 1, points)
    return est


def run(n_seeds, ref_points):
    import bfreg.engine as engine
    import bfreg.numkernel as numkernel
    from perfbench import workloads

    order = workloads.OrderMC(SEED)
    calls = []  # per f_ie: (routes, seconds, estimate, dist, rows)
    taken = []
    complement = engine.complement_prob

    def timed(dist, rows, known, mcrep, seed):
        start = len(taken)
        t0 = time.perf_counter()
        est = complement(dist, rows, known, mcrep, seed)
        seconds = time.perf_counter() - t0
        routes = tuple(route_name(pivots, len(rows)) for pivots in taken[start:])
        calls.append((routes, seconds, est, dist, rows))
        return est

    term_sum = numkernel._term_sum

    def spy(dist, pivots, *args):
        taken.append(pivots)
        return term_sum(dist, pivots, *args)

    numkernel._term_sum = spy
    engine.complement_prob = timed

    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(n_seeds):
            calls.clear()
            order.operation(i)
            results.append(calls[0])  # the posterior's; the prior's follows

    _, _, _, dist, rows = results[0]
    t0 = time.perf_counter()
    ref = reference(numkernel, dist, rows, ref_points)
    ref_s = time.perf_counter() - t0

    routes = collections.Counter(r for r, *_ in results)
    seconds = np.array([s for _, s, *_ in results])
    value = np.array([est.value for _, _, est, *_ in results])
    se = np.array([est.std_error for _, _, est, *_ in results])
    sem = math.sqrt(value.var(ddof=1) / n_seeds + ref.std_error**2)
    z = (value - ref.value) / np.hypot(se, ref.std_error)

    print(f"bfreg from {Path(engine.__file__).parents[2]}")
    print(f"order-mc seed {SEED}, {n_seeds} operation seeds, Hc f_ie")
    for r, count in routes.most_common():
        print(f"  route {' -> '.join(r) or '(none)'}: {count}")
    print(
        f"reference ({ref_points} points per piece, {ref_s:.0f} s): "
        f"{ref.value:.5e} +- {ref.std_error:.2g}"
    )
    print(f"mean {value.mean():.5e}: {(value.mean() - ref.value) / sem:+.2f} sem")
    print(f"median relative SE {np.median(se / value):.3%}")
    print(f"share |z| > 2: {np.mean(np.abs(z) > 2):.1%}")
    print(f"mean seconds {seconds.mean():.4f}, median {np.median(seconds):.4f}")
    print(f"SE^2 x s (reported): {np.mean(se**2) * seconds.mean():.3e}")
    print(f"SE^2 x s (across seeds): {value.var(ddof=1) * seconds.mean():.3e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1000, help="operation seeds")
    parser.add_argument(
        "--ref-points", type=int, default=1 << 20, help="lattice points per reference piece"
    )
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parents[1]),
        help="checkout to import bfreg and perfbench from",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    run(args.seeds, args.ref_points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
