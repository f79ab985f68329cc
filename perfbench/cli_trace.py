"""Run ``dunklstar`` CLI arguments in this process with the tracer installed.

Usage: python3 perfbench/cli_trace.py <dunklstar arguments>

The CLI's own output goes to stdout unchanged.  The per-layer metrics of
this one process are written to stderr as a final line starting with
``PERFBENCH_TRACE``.  Needs ``src`` on ``PYTHONPATH``.
"""

import json
import sys

import dunklstar  # noqa: F401  (loads every package module before patching)

from tracing import TRACE_MARK, Tracer, module


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin()
    tracer.enable()
    try:
        code = module("cli").main(argv)
    finally:
        tracer.disable()
        sys.stdout.flush()
        metrics = tracer.report()
        print(TRACE_MARK + json.dumps({"metrics": metrics, "absent": tracer.absent}),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
