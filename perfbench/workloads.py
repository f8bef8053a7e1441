"""The three closed-loop workloads: set-up, warm-up and the timed requests.

Each workload drives the program from outside only: sessions from
``repro.api.connect`` and, for the TCP workloads, a ``python -m repro serve``
subprocess (or :mod:`serve_traced` when spans are recorded).  A run sets up
``setups`` times — spawn or open, connect, warm up — so ``setup_s`` can be
reported as a median.  The TCP workloads keep the last set-up for the timed
requests; ``symmetric_inline`` times each set-up in a fresh process.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import monotonic_ns, perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from inputs import Stream

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HITS_CONNECTIONS = 2
# Servers that each serve the whole cold stream in one run.  The cold p99 is
# set by the server's full garbage collections, whose total length moves by
# up to half from one server process to the next for the same stream; the
# figures pool the answers of four servers, so no one of them sets p99.
COLD_SERVERS = 4


@dataclass
class Run:
    """What one workload run measured."""

    latencies: List[float] = field(default_factory=list)  # seconds, in answer order
    began: float = 0.0  # perf_counter when the loop's first request was sent
    seconds: float = 0.0  # from first request to last answer, summed over loops
    failed: int = 0
    warm_failed: int = 0
    setups: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    window: Tuple[int, int] = (0, 0)  # monotonic ns around the timed requests
    server_spans: Optional[str] = None


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _answer_ok(outcome, expected: str) -> bool:
    return outcome.outcome == "ok" and outcome.complexity == expected


class Server:
    """A ``repro serve`` subprocess with a fresh sqlite cache in ``directory``.

    Ready once it has announced its address on stderr; the sessions then read
    the ``hello`` frame when they connect.
    """

    def __init__(self, directory: str, spans_file: Optional[str]) -> None:
        # A relative cache path keeps the URL free of characters the
        # endpoint parser would need escaped.
        self.directory = directory
        os.makedirs(directory)
        cache = os.path.relpath(os.path.join(directory, "cache.db"), ROOT)
        endpoint = f"tcp://127.0.0.1:0?cache=sqlite:{cache}"
        if spans_file is None:
            command = [sys.executable, "-m", "repro", "serve", endpoint]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"), spans_file, endpoint]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.log: List[str] = []
        self.address: Optional[Tuple[str, int]] = None
        for line in self.process.stderr:
            self.log.append(line)
            match = re.search(r"listening on (\S+):(\d+)\s*$", line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                break
        if self.address is None:
            self.process.wait(timeout=30)
            raise RuntimeError("repro serve exited before listening:\n" + "".join(self.log))
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()

    def _read_log(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)

    @property
    def endpoint(self) -> str:
        return f"tcp://{self.address[0]}:{self.address[1]}"

    def stop(self, session) -> None:
        """Shut the service down through ``session``, or kill it without one."""
        try:
            if session is not None:
                session.shutdown()
                self.process.wait(timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self._drain.join(timeout=10)
            shutil.rmtree(self.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Request loops
# ----------------------------------------------------------------------
def closed_loop(
    sessions: Sequence, requests: Sequence[Tuple[int, str]], expected: List[str], run: Run
) -> int:
    """One thread per session, each sending its share back to back.

    Records every request's latency and completion time in ``run`` and
    returns the number of wrong or failed answers.
    """
    share = len(sessions)
    records: List[List[Tuple[float, float]]] = [[] for _ in sessions]
    failures = [0] * share
    barrier = threading.Barrier(share, action=lambda: setattr(run, "began", perf_counter()))

    def client(index: int) -> None:
        session, out = sessions[index], records[index]
        mine = requests[index::share]
        barrier.wait()
        for base, text in mine:
            sent = perf_counter()
            try:
                ok = _answer_ok(session.classify(text), expected[base])
            except Exception:  # noqa: BLE001 - any failed request counts as one
                ok = False
            done = perf_counter()
            out.append((done - sent, done))
            failures[index] += not ok

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True) for index in range(share)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    answers = sorted((pair for out in records for pair in out), key=lambda pair: pair[1])
    run.latencies.extend(latency for latency, _done in answers)
    run.seconds += answers[-1][1] - run.began
    return sum(failures)


def batch_loop(
    session, batches: Sequence[List[Tuple[int, str]]], expected: List[str], run: Run
) -> int:
    """Send each batch with ``classify_many``; time every item from the send."""
    failures = 0
    run.began = perf_counter()
    for batch in batches:
        sent = perf_counter()
        received = 0
        try:
            # Exhaust the stream, so the terminal frame is read here too.
            for outcome in session.classify_many([text for _base, text in batch]):
                run.latencies.append(perf_counter() - sent)
                failures += not _answer_ok(outcome, expected[batch[received][0]])
                received += 1
        except Exception:  # noqa: BLE001 - the rest of the batch failed
            pass
        failures += len(batch) - received
        run.latencies.extend([perf_counter() - sent] * (len(batch) - received))
    run.seconds += perf_counter() - run.began
    return failures


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _tcp_workload(
    stream: Stream,
    expected: List[str],
    workdir: str,
    setups: int,
    traced: bool,
    connections: int,
    loop,
    servers: int,
) -> Run:
    """The last ``servers`` set-ups each serve the whole timed stream."""
    from repro.api import connect

    run = Run()
    for attempt in range(setups):
        timed = attempt >= setups - servers
        spans_file = os.path.join(workdir, f"server-{attempt}.spans") if traced else None
        started = perf_counter()
        server = Server(os.path.join(workdir, f"serve-{traced:d}-{attempt}"), spans_file)
        sessions: List = []
        try:
            sessions = [connect(server.endpoint) for _ in range(connections)]
            run.warm_failed += loop(sessions, stream.warm, expected, Run())
            run.setups.append(perf_counter() - started)
            if timed:
                begin = monotonic_ns()
                run.failed += loop(sessions, stream.timed, expected, run)
                run.window = (begin, monotonic_ns())
                run.rss_mb = max(run.rss_mb, peak_rss_mb(server.process.pid))
            server.stop(sessions[0])
        except BaseException:
            server.stop(None)  # a failing run does not wait on the service
            raise
        finally:
            for session in sessions:
                session.close()
        run.server_spans = spans_file
    return run


def hits_tcp(stream: Stream, expected: List[str], workdir: str, setups: int, traced: bool) -> Run:
    return _tcp_workload(
        stream, expected, workdir, setups, traced, HITS_CONNECTIONS, closed_loop, 1
    )


def cold_batch_tcp(
    stream: Stream, expected: List[str], workdir: str, setups: int, traced: bool
) -> Run:
    def batches(sessions, requests, expected, run):
        return batch_loop(sessions[0], requests, expected, run)

    return _tcp_workload(
        stream, expected, workdir, setups, traced, 1, batches, COLD_SERVERS
    )


def symmetric_inline(
    stream: Stream, expected: List[str], workdir: str, setups: int, traced: bool
) -> Run:
    """Set-ups each run cold in a fresh process (:mod:`setup_inline`); the
    timed requests then go through a session of this process, warmed first."""
    from repro.api import connect

    run = Run()
    job = json.dumps({"warm": stream.warm, "expected": expected})
    for _attempt in range(setups):
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_inline.py")],
            input=job,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        report = json.loads(child.stdout)
        run.setups.append(report["setup_s"])
        run.warm_failed += report["failed"]
    with connect("local://inline") as session:
        run.warm_failed += closed_loop([session], stream.warm, expected, Run())
        begin = monotonic_ns()
        run.failed = closed_loop([session], stream.timed, expected, run)
        run.window = (begin, monotonic_ns())
    run.rss_mb = peak_rss_mb(os.getpid())
    return run


WORKLOADS: Dict[str, Callable[..., Run]] = {
    "hits_tcp": hits_tcp,
    "cold_batch_tcp": cold_batch_tcp,
    "symmetric_inline": symmetric_inline,
}
