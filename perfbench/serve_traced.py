"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_traced.py SPANS_FILE ENDPOINT``

Installs the same wrappers as the traced client (:mod:`tracing`), then hands
``ENDPOINT`` to the program's own ``serve`` entry point.  When the service
exits, its spans are written to ``SPANS_FILE``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.cli import main  # noqa: E402

from tracing import Tracer, install  # noqa: E402

if __name__ == "__main__":
    spans_file, endpoint = sys.argv[1:3]
    tracer = Tracer()
    install(tracer)
    try:
        code = main(["serve", endpoint])
    finally:
        tracer.dump(spans_file)
    sys.exit(code)
