"""bfreg's benchmark; ``python3 perfbench/run.py --help`` runs it."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bfreg_env() -> dict:
    """This process's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env
