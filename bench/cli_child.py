"""Run ``felog.cli.main`` with spans, for the traced ``cli`` workload.

Usage: python cli_child.py <felog arguments>

felog's output goes to stdout as usual and the exit code is main's. The
last stderr line is a marker followed by JSON: the seconds spent importing
``felog.cli`` and inside ``main``, and the span statistics of the call.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402

import felog.cli  # noqa: E402

_T1 = time.perf_counter()

import json  # noqa: E402

import spans  # noqa: E402

trace = spans.Trace()
spans.install(trace)
t2 = time.perf_counter()
code = felog.cli.main(sys.argv[1:])
t3 = time.perf_counter()
report = {"import_s": _T1 - _T0, "main_s": t3 - t2, "spans": trace.summary()}
sys.stdout.flush()
sys.stderr.write(spans.CHILD_MARK + json.dumps(report) + "\n")
sys.exit(code)
