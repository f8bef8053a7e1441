"""The expected answers, from the program's differential oracle.

Usage: ``python perfbench/oracle.py < problems.json > classes.json``

Reads a JSON list of ``[delta, [[parent, [children...]], ...]]`` problems and
writes the JSON list of their complexity classes, each computed with the
frozenset reference kernel (``kernel_override("reference")``), never with the
path the benchmark times.  It runs as its own process, so its memory peak
stays out of the measured one.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.classifier import classify  # noqa: E402
from repro.core.kernel import kernel_override  # noqa: E402
from repro.core.problem import LCLProblem  # noqa: E402


def reference_class(delta, configs) -> str:
    with kernel_override("reference"):
        result = classify(LCLProblem.create(delta=delta, configurations=configs))
    return result.complexity.value


if __name__ == "__main__":
    problems = json.load(sys.stdin)
    json.dump([reference_class(delta, configs) for delta, configs in problems], sys.stdout)
