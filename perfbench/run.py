"""Request-path benchmark: three closed-loop workloads, one command.

Usage::

    python3 perfbench/run.py --workload hits_tcp --seed 1 --seconds 25 --trace 0

Each run generates its inputs from ``--seed``, computes the expected class of
every base problem with the reference kernel, sets up ``SETUPS`` times, and
sends a fixed number of requests (``--seconds`` times the workload's nominal
rate, so a run lasts about ``--seconds`` on a 2-core host).  The last line of
standard output is one JSON object; the lines before it name the machine and
print every metric with its unit.  ``--trace 1`` reports the per-layer metrics
of a traced pass over a quarter of the request count instead, together with
its overhead against an untraced pass over as many requests of another seed.
The exit code is 1 when any answer is wrong or a sanity check fails.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
# A run is cut after WATCHDOG_BASE + WATCHDOG_PER_SECOND * --seconds.  The
# slowest workload, cold_batch_tcp with its four servers, takes about 2.5 x
# --seconds in all on a 2-core host; at --seconds 25 the limit is 170 s.
WATCHDOG_BASE = 45
WATCHDOG_PER_SECOND = 5
# Nominal rates turn --seconds into a fixed request count: the count, not a
# clock, ends a run, so every run of a seed sends identical traffic.  The
# symmetric count is a whole number of blocks of its mix.  p99 needs at
# least 1000 samples to have ten beyond it.
NOMINAL = {
    # workload: (unit, units per second, stream, units per block)
    "hits_tcp": ("requests", 3400, inputs.hits_stream, 1),
    "cold_batch_tcp": ("batches", 35, inputs.cold_stream, 1),  # per server
    "symmetric_inline": ("requests", 58, inputs.symmetric_stream, inputs.SYMMETRIC_BLOCK_SIZE),
}
MIN_SAMPLES = 1000
# The reference kernel is slow (about 10 s for the cold stream in one
# process); two processes halve the time a run spends before its set-ups.
ORACLE_PROCESSES = 2

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "service.request_ms": "ms",
    "service.wire_ms": "ms",
    "service.frames": "count",
    "api.classify_ms": "ms",
    "parser.calls": "count",
    "parser.parse_us": "us",
    "canonical.calls": "count",
    "canonical.form_us": "us",
    "canonical.form_ms_max": "ms",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.lookup_us": "us",
    "cache.store_us": "us",
    "serialization.relabel_us": "us",
    "serialization.decode_us": "us",
    "serialization.encode_us": "us",
    "backends.flushes": "count",
    "backends.rows_per_flush": "count",
    "backends.flush_ms": "ms",
    "scheduler.submits": "count",
    "scheduler.searches": "count",
    "scheduler.dedup_ratio": "ratio",
    "scheduler.queue_wait_ms": "ms",
    "kernel.searches": "count",
    "kernel.search_ms": "ms",
    "kernel.search_ms_p99": "ms",
    **{f"{layer}.self_share": "ratio" for layer in tracing.LAYERS},
    "trace.overhead_ratio": "ratio",
}


def throughput(run: workloads.Run) -> float:
    """Correct answers per second over the run's fixed request count."""
    return (len(run.latencies) - run.failed) / run.seconds


def end_to_end(run: workloads.Run) -> dict:
    """The six end-to-end metrics; p99 is the nearest-rank 99th percentile
    over every answer of the run."""
    attempted = len(run.latencies)
    return {
        "throughput_rps": throughput(run),
        "latency_p50_ms": statistics.median(run.latencies) * 1e3,
        "latency_p99_ms": tracing.p99(run.latencies) * 1e3,
        "ok_ratio": (attempted - run.failed) / attempted,
        "setup_s": statistics.median(run.setups),
        "rss_mb": run.rss_mb,
    }


def sanity_checks(workload: str, metrics: dict, items: int) -> list:
    """Proof from the trace that the workload does what it claims."""
    if workload == "hits_tcp":
        return [
            ("kernel.searches == 0", metrics["kernel.searches"] == 0),
            ("cache.hit_ratio == 1", metrics["cache.hit_ratio"] == 1.0),
        ]
    if workload == "cold_batch_tcp":
        return [
            ("cache.hit_ratio == 0", metrics["cache.hit_ratio"] == 0.0),
            (f"kernel.searches == {items}", metrics["kernel.searches"] == items),
        ]
    return []  # symmetric_inline: cache.hit_ratio is recorded as it stands


def expected_classes(bases) -> list:
    """Each base problem's class from the reference kernel (``oracle.py``),
    computed by ``ORACLE_PROCESSES`` processes over interleaved shares."""
    oracles = [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "oracle.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(ORACLE_PROCESSES)
    ]
    try:
        # Hand out every share before reading, so the oracles run side by side.
        for index, oracle in enumerate(oracles):
            oracle.stdin.write(json.dumps(bases[index::ORACLE_PROCESSES]))
            oracle.stdin.close()
        shares = [json.loads(oracle.stdout.read()) for oracle in oracles]
        if any(oracle.wait() != 0 for oracle in oracles):
            raise RuntimeError("the reference oracle failed")
    finally:
        for oracle in oracles:
            if oracle.poll() is None:
                oracle.kill()
            oracle.wait()
    classes = [None] * len(bases)
    for index, share in enumerate(shares):
        classes[index::ORACLE_PROCESSES] = share
    return classes


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, choices=range(1, 61),
                        metavar="1..60")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    limit = WATCHDOG_BASE + WATCHDOG_PER_SECOND * args.seconds

    def on_watchdog(signum, frame):
        raise TimeoutError(f"benchmark run exceeded {limit} s")

    signal.signal(signal.SIGALRM, on_watchdog)
    signal.alarm(limit)
    from repro.core.kernel import active_kernel

    unit, rate, make_stream, block = NOMINAL[args.workload]
    size = max(args.seconds * rate, MIN_SAMPLES if unit == "requests" else 0)
    size = -(-size // block) * block
    if args.trace:
        # A quarter of the count, twice: untraced for the overhead, then
        # traced.  Spans stay in memory, so fewer requests keep them small.
        # The untraced pass sends traffic of another seed (``~seed``), so the
        # traced pass finds no process-wide cache of the program warm with
        # its own requests.
        size = max(block, size // 4 // block * block)
        plain_stream = make_stream(~args.seed, size)
        plain_expected = expected_classes(plain_stream.bases)
    stream = make_stream(args.seed, size)
    expected = expected_classes(stream.bases)
    run_workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            plain = run_workload(plain_stream, plain_expected, workdir, 1, False)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            run = run_workload(stream, expected, workdir, 1, True)
            server = tracing.load(run.server_spans) if run.server_spans else None
            metrics = tracing.layer_metrics(
                tracer.records, server, tracer.queue_waits, run.window
            )
            overhead = throughput(plain) / throughput(run) - 1
            metrics["trace.overhead_ratio"] = overhead
            units = PER_LAYER_UNITS
            checks = sanity_checks(args.workload, metrics, len(run.latencies))
            attempted = len(run.latencies) + len(plain.latencies)
            failed = run.failed + plain.failed
            warm_failed = run.warm_failed + plain.warm_failed
        else:
            run = run_workload(stream, expected, workdir, SETUPS, False)
            metrics = end_to_end(run)
            units = END_TO_END_UNITS
            checks = []
            attempted = len(run.latencies)
            failed = run.failed
            warm_failed = run.warm_failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        signal.alarm(0)

    correct = failed == 0 and warm_failed == 0 and all(ok for _name, ok in checks)
    print(f"machine: cores={os.cpu_count()} python={platform.python_version()} "
          f"kernel={active_kernel()} seed={args.seed}")
    print(f"workload: {args.workload} {unit}={len(stream.timed)} samples={len(run.latencies)} "
          f"stream_sha256={stream.digest()}")
    print("expected: " + ", ".join(
        f"{name}={cls}" for name, cls in list(zip(stream.names, expected))[:8]
    ) + (" ..." if len(expected) > 8 else ""))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, ok in checks:
        print(f"check: {name}: {'pass' if ok else 'FAIL'}")
    if failed or warm_failed:
        print(f"error: {failed} timed and {warm_failed} warm-up answers wrong or failed "
              "(a program bug)", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
