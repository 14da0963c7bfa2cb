"""Run bfreg's command line with the benchmark's tracer installed.

Usage: python perfbench/traced_cli.py SPANS_FILE [bfreg arguments...]

Times ``import bfreg.cli`` and ``bfreg.cli.main`` as spans, traces the
calls inside, writes every span to SPANS_FILE (JSON lines) at the end and
exits with main's exit code.
"""

import sys
from pathlib import Path

# the perfbench package from the root, not its modules from this directory
sys.path[0] = str(Path(__file__).resolve().parents[1])

from perfbench.trace import Tracer  # noqa: E402


def main(argv):
    spans_file, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.begin_op(0)
    with tracer.span("cli.import"):
        import bfreg.cli
    with tracer.installed(), tracer.span("cli.main"):
        code = bfreg.cli.main(args)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
