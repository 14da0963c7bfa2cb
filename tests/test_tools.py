"""The bit-check tools and the example scripts under ``scripts/`` run, and
the dump agrees across processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name, *args):
    return [sys.executable, str(SCRIPTS / name), *map(str, args)]


def test_dump_is_byte_identical_across_processes_and_the_precision_script_runs(tmp_path):
    """``scripts/dump_outputs.py`` in two fresh processes with different
    ``PYTHONHASHSEED`` values writes the same bytes and the same cases, so
    the determinism contract holds across processes on every path the
    dump takes, and ``--compare`` of the two exits 0 with no case
    differing.  ``scripts/complement_precision.py``, which calls the
    complement's term builder and sum by name, runs on a small budget."""
    dumps = [tmp_path / f"hash{seed}.json" for seed in (1, 2)]
    runs = [
        subprocess.Popen(
            _script("dump_outputs.py", out),
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed, out in zip((1, 2), dumps)
    ]
    for run in runs:
        _, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
    first, second = (path.read_bytes() for path in dumps)
    assert first == second
    n = len(json.loads(first))
    assert n > 0 and len(json.loads(second)) == n
    compare = subprocess.run(
        _script("dump_outputs.py", "--compare", *dumps), capture_output=True, text=True, timeout=60
    )
    assert compare.returncode == 0, compare.stdout + compare.stderr
    assert compare.stdout.splitlines()[-1].startswith(f"0 of {n} cases differ;")
    precision = subprocess.run(
        _script("complement_precision.py", "--seeds", 2, "--ref-points", 1024),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert precision.returncode == 0, precision.stderr


def test_example_scripts_run(tmp_path):
    """The paper's consistency simulation, on a small sample, and the
    two-effect demonstration at its defaults both exit 0: the first
    reports how often the true order ranked first, the second its table
    of pairwise Bayes factors."""
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    for args, expect in (
        (_script("consistency_experiment.py", "--n", 100, "--n-seeds", 3), "true order ranked first in"),
        (_script("two_effect_demo.py"), "BF matrix:"),
    ):
        run = subprocess.run(args, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert expect in run.stdout, run.stdout
