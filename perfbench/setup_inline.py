"""One cold ``symmetric_inline`` set-up, in a process of its own.

Usage: ``python perfbench/setup_inline.py < warm.json``

Reads ``{"warm": [[base, text], ...], "expected": [class, ...]}``, then times
loading the library, opening a ``local://inline`` session and sending the
warm-up requests, and writes ``{"setup_s": seconds, "failed": count}``.  A
fresh process per set-up means every set-up does the same cold work: no
import, and no process-wide cache of the program, is warm from an earlier one.
"""

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import Run, closed_loop  # noqa: E402

if __name__ == "__main__":
    job = json.load(sys.stdin)
    started = perf_counter()
    from repro.api import connect

    with connect("local://inline") as session:
        failed = closed_loop([session], job["warm"], job["expected"], Run())
        setup_s = perf_counter() - started
    json.dump({"setup_s": setup_s, "failed": failed}, sys.stdout)
