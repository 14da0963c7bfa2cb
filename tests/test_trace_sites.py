"""The benchmark's tracer rebinds bfreg module attributes by name.

``perfbench/trace.py`` lists them in ``SPAN_SITES`` and ``COUNT_SITES``;
renaming one in bfreg would break the traced benchmark run, so every
listed attribute must exist.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves_on_bfreg():
    trace = load_trace()
    sites = [site[:2] for site in trace.SPAN_SITES + trace.COUNT_SITES]
    assert sites
    missing = [
        f"{module}.{attr}"
        for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
