"""The asyncio classification service: one shared cache, streaming responses.

:class:`ClassificationService` wraps one :class:`~repro.engine.BatchClassifier`
(and therefore one :class:`~repro.engine.cache.ClassificationCache`) behind
the JSON-lines protocol of :mod:`repro.service.protocol`.  Two transports
speak the identical protocol:

* **stdio** (:meth:`ClassificationService.serve_stdio`) — one connection on
  stdin/stdout, for supervisors and piping (``python -m repro serve --stdio``),
* **TCP** (:meth:`ClassificationService.serve_tcp`) — any number of
  concurrent connections on a listening socket.

Batch and census requests *stream*: every classified problem is written as an
``item`` frame the moment its certificate search (or cache hit) completes,
followed by a terminal ``done`` frame with the request summary.  All searches
execute through the single-flight :class:`~repro.workers.ClassificationScheduler`
on a configurable worker backend (``--worker-backend inline|threads|processes``,
``--workers N``).  Every request runs through one engine fan-out
(:meth:`~repro.engine.batch.BatchClassifier.fan_out`; a ``classify`` is a
one-item fan-out): a pooled backend gets the whole batch submitted up front
and frames stream as each future resolves, a synchronous backend classifies
item by item.  Independent problems from concurrent connections classify
concurrently, and concurrent requests for the same uncached canonical key
share exactly one search.  The process-wide work lock of protocol version 1
is gone — the cache and scheduler synchronize internally.  The ``warm``
operation pre-schedules a future batch or census's canonical keys so the
shared cache is hot before the real request arrives.

Protocol version 3 exposes the scheduler's fairness controls: every
scheduling operation accepts ``priority`` (``interactive`` > ``batch`` >
``warm``; per-op defaults match those classes) and ``deadline_ms`` (a per-
canonical-key search budget — blown budgets stream as ``outcome: "timeout"``
items instead of stalling the request), and the ``cancel`` operation cancels
an in-flight request's fan-out when addressed — from a second connection —
by its request id: submitted searches are detached, the rest never start.
Interrupted searches release their workers and are never written to the
cache.
When the cache has a durable backend (a bare/``json:`` path or a
``sqlite:`` database — see :mod:`repro.engine.backends`) persistence is
**write-behind**: stores mark keys dirty and a background flusher persists
them once an interval elapses or enough keys are pending
(``DEFAULT_CACHE_FLUSH_INTERVAL`` / ``DEFAULT_CACHE_FLUSH_MAX_DIRTY``,
overridable via ``cache_flush_interval``/``cache_flush_count`` endpoint
parameters).  Mutating requests therefore no longer rewrite the whole file;
shutdown still persists a final full snapshot, so a killed service loses at
most the not-yet-flushed increment.

:class:`ThreadedService` runs the TCP variant on a background thread of the
current process — the embedding used by ``tests/test_service.py`` and the
warm-service benchmark in ``benchmarks/bench_random_census.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    IO,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.problem import LCLProblem
from ..engine.batch import BatchClassifier, BatchFanOut, BatchItem
from ..engine.cache import ClassificationCache
from ..engine.canonical import canonical_form
from ..engine.serialization import problem_from_spec, result_to_dict
from ..obs import build_registry, render_prometheus
from ..obs.trace import RequestTrace, Tracer, new_request_id
from ..problems.pools import census_draws, census_params
from ..workers.backends import DEFAULT_WORKERS
from ..workers.scheduler import PRIORITIES
from .protocol import (
    ERROR_BAD_PROBLEM,
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ProtocolError,
    Request,
    decode_frame,
    decode_request,
    done_frame,
    encode_frame,
    error_frame,
    hello_frame,
    item_frame,
    result_frame,
)

MAX_LINE_BYTES = 16 * 1024 * 1024
"""Per-line read limit: batch requests serialize many problems on one line."""

DEFAULT_CACHE_FLUSH_INTERVAL = 1.0
"""Seconds between write-behind flushes of a persistent service cache."""

DEFAULT_CACHE_FLUSH_MAX_DIRTY = 64
"""Pending dirty keys that trigger an immediate write-behind flush."""

_SendFrame = Callable[[Dict[str, Any]], Awaitable[None]]


@contextlib.contextmanager
def _raising(code: str) -> Iterator[None]:
    """Re-raise the shared validators' ``ValueError`` as a ``code`` error."""
    try:
        yield
    except ValueError as error:
        raise ProtocolError(code, str(error)) from error


def item_payload(item: BatchItem) -> Dict[str, Any]:
    """The JSON-friendly ``data`` object of one classified problem.

    An interrupted search (``outcome`` of ``"timeout"``/``"cancelled"``)
    yields a *timeout item frame*: same shape, ``complexity``/``details``/
    ``result`` are ``None`` — the classification does not exist.
    """
    if not item.ok:
        return {
            "name": item.problem.name,
            "outcome": item.outcome,
            "complexity": None,
            "details": None,
            "from_cache": False,
            "canonical_key": item.canonical_key,
            "result": None,
            "elapsed_ms": item.elapsed_seconds * 1000.0,
        }
    return {
        "name": item.problem.name,
        "outcome": item.outcome,
        "complexity": item.result.complexity.value,
        "details": item.result.describe(),
        "from_cache": item.from_cache,
        "canonical_key": item.canonical_key,
        "result": result_to_dict(item.result),
        "elapsed_ms": item.elapsed_seconds * 1000.0,
    }


class ClassificationService:
    """A long-running classifier sharing one cache across all clients.

    Parameters
    ----------
    cache:
        The shared :class:`ClassificationCache`.  A fresh unbounded in-memory
        cache is created when omitted.  Give it a ``path`` (a cache URL —
        bare/``json:`` file or ``sqlite:`` database) for persistence and
        ``max_entries`` for an LRU budget; persistent caches flush dirty
        keys in the background (write-behind, see the module docstring).
    backend:
        Worker backend name executing the certificate searches (``inline``,
        ``threads``, ``processes``).  Defaults to ``threads``: in-process
        concurrency so independent requests never block each other, without
        process-spawn cost (use ``processes`` for CPU parallelism on cold
        censuses).
    workers:
        Pool size for the backend (default: CPU count, but at least 4 so a
        single-core host still overlaps independent requests).
    """

    def __init__(
        self,
        cache: Optional[ClassificationCache] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.cache = cache if cache is not None else ClassificationCache()
        # Persistent caches get write-behind persistence out of the box:
        # stores mark keys dirty and a background flusher persists them by
        # interval/count threshold, instead of the pre-PR-9 full-file
        # rewrite after every mutating request.  Explicit cache_flush_*
        # settings on the cache win over these defaults.
        if self.cache.persistent and not self.cache.autosave:
            self.cache.enable_write_behind(
                flush_interval=DEFAULT_CACHE_FLUSH_INTERVAL,
                flush_max_dirty=DEFAULT_CACHE_FLUSH_MAX_DIRTY,
            )
        if workers is None:
            workers = max(DEFAULT_WORKERS, 4)
        self.classifier = BatchClassifier(
            cache=self.cache, backend=backend or "threads", workers=workers
        )
        self.scheduler = self.classifier.scheduler
        # Spawn pool workers now (and detect a process pool degrading to
        # inline execution) so the fan-out strategy (submit up front, or
        # item by item) matches how searches will really run from the very
        # first request.
        self.scheduler.backend.probe()
        self.requests_served = 0
        self.started_at = time.monotonic()
        # Observability: tracing is env-gated (REPRO_TRACE), the metrics
        # registry is always wired (pull-based — it costs nothing until a
        # `metrics` request collects it).  Same builder as the local session,
        # which is what makes local-vs-remote metrics parity structural.
        self.tracer = Tracer.from_env()
        self.registry = build_registry(
            self.classifier,
            self.tracer,
            lambda: self.requests_served,
            self.started_at,
        )
        # In-flight fan-outs addressable by `cancel`, keyed by request id.
        # Ids are client-chosen, so several connections may reuse one id;
        # cancel then targets all of them.  Only touched on the loop thread.
        self._active_requests: Dict[Any, List[BatchFanOut]] = {}
        self._shutdown_event: Optional[asyncio.Event] = None
        self._writers: List[asyncio.StreamWriter] = []
        self._connection_tasks: "set" = set()
        self.tcp_address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Engine access
    # ------------------------------------------------------------------
    async def _fan_out(
        self,
        request: Request,
        problems: List[LCLProblem],
        priority: str,
        deadline: Optional[float],
        traces: List[Optional[RequestTrace]],
        emit: Callable[[int, BatchItem], Awaitable[None]],
    ) -> None:
        """Classify ``problems`` through one engine fan-out; emit items in order.

        No global lock: the scheduler single-flights per canonical key, so
        concurrent connections classifying *different* problems proceed in
        parallel, and ones racing on the *same* problem share one search.
        The work runs off the event loop in two kinds of executor hop: one
        starts the fan-out (a pooled backend submits every problem there, so
        searches overlap) and one collects each item.  The fan-out is
        addressable by ``cancel`` before it submits anything, so it settles
        every cancel race itself.  Each item's trace closes once ``emit``
        has sent the item.
        """
        loop = asyncio.get_running_loop()
        fan = BatchFanOut(self.classifier, problems, priority, deadline, traces)
        entries = self._active_requests.setdefault(request.id, [])
        entries.append(fan)
        try:
            await loop.run_in_executor(None, fan.start)
            for seq, trace in enumerate(traces):
                item = await loop.run_in_executor(None, fan.__next__)
                await emit(seq, item)
                if trace is not None:
                    trace.finish(item.outcome)
        finally:
            entries.remove(fan)
            if not entries:
                self._active_requests.pop(request.id, None)

    @staticmethod
    def _request_options(
        params: Mapping[str, Any], default_priority: str
    ) -> Tuple[str, Optional[float]]:
        """Validate the protocol-v3 ``priority``/``deadline_ms`` fields.

        Returns ``(priority, deadline_seconds)``.  Omitted fields fall back
        to the operation's default priority and no deadline — the exact
        protocol-v2 behavior.
        """
        priority = params.get("priority", default_priority)
        if priority not in PRIORITIES:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"bad priority {priority!r} (known: {', '.join(PRIORITIES)})",
            )
        deadline_ms = params.get("deadline_ms")
        if deadline_ms is None:
            return priority, None
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ProtocolError(ERROR_BAD_REQUEST, "deadline_ms must be a number")
        if deadline_ms <= 0:
            raise ProtocolError(ERROR_BAD_REQUEST, "deadline_ms must be positive")
        return priority, deadline_ms / 1000.0

    def _save_cache(self) -> bool:
        """Persist the shared cache when it has a backing path."""
        if not self.cache.path:
            return False
        self.cache.save()  # the cache snapshots under its own lock
        return True

    # ------------------------------------------------------------------
    # Operation handlers
    # ------------------------------------------------------------------
    async def _handle_classify(self, request: Request, send: _SendFrame) -> None:
        spec = request.params.get("problem")
        if spec is None:
            raise ProtocolError(ERROR_BAD_REQUEST, "classify requires params.problem")
        priority, deadline = self._request_options(
            request.params, default_priority="interactive"
        )
        with _raising(ERROR_BAD_PROBLEM):
            problem = problem_from_spec(spec, "<request>")
        # The trace is keyed by the *wire* request id, so the client that
        # sent this frame can fetch its span tree back with the `trace` op.
        trace = self.tracer.start("classify", request_id=request.id)

        async def reply(_seq: int, item: BatchItem) -> None:
            await send(result_frame(request.id, item_payload(item)))

        try:
            await self._fan_out(
                request, [problem], priority, deadline, [trace], reply
            )
        except BaseException:
            if trace is not None:
                trace.finish("error")
            raise
        # Persistence is write-behind: the store marked the key dirty and
        # the cache's background flusher persists it (interval/count
        # thresholds), so mutating requests no longer rewrite the file.

    async def _stream_batch(
        self,
        request: Request,
        problems: List[LCLProblem],
        send: _SendFrame,
        priority: str,
        deadline: Optional[float],
    ) -> Dict[str, Any]:
        """Stream one ``item`` frame per problem; return the hit/miss summary.

        Frames go out in submission order as each item resolves (see
        :meth:`_fan_out`).  ``deadline`` bounds each canonical key's search;
        expired or cancelled keys stream as ``outcome: "timeout"``/
        ``"cancelled"`` items while the rest of the request completes
        normally.  On a synchronous backend (``inline``, or a ``processes``
        pool that degraded to inline execution) a ``cancel`` skips the items
        not yet started but cannot interrupt the search already running.
        """
        outcomes = {"ok": 0, "timeout": 0, "cancelled": 0}
        hits = 0

        async def emit(seq: int, item: BatchItem) -> None:
            nonlocal hits
            outcomes[item.outcome] += 1
            hits += int(item.from_cache)
            await send(item_frame(request.id, seq, item_payload(item)))

        # Per-item traces under sub-ids "<request id>.<seq>", so any item of
        # a batch/census is individually retrievable via the `trace` op.
        traces: List[Optional[RequestTrace]]
        if self.tracer.enabled:
            base = request.id if request.id is not None else new_request_id()
            traces = [
                self.tracer.start(request.op, request_id=f"{base}.{seq}")
                for seq in range(len(problems))
            ]
        else:
            traces = [None] * len(problems)
        await self._fan_out(request, problems, priority, deadline, traces, emit)
        # One denominator for the whole hit/miss story: the *completed*
        # items.  Interrupted items are neither hits nor misses, so
        # hits + misses == completed and hit_rate == hits / (hits + misses).
        completed = outcomes["ok"]
        return {
            "count": len(problems),
            "cache_hits": hits,
            "cache_misses": completed - hits,
            "hit_rate": hits / completed if completed else 0.0,
            "timeouts": outcomes["timeout"],
            "cancelled": outcomes["cancelled"],
        }

    async def _handle_classify_batch(self, request: Request, send: _SendFrame) -> None:
        specs = request.params.get("problems")
        if not isinstance(specs, list) or not specs:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                "classify_batch requires params.problems: a non-empty list",
            )
        priority, deadline = self._request_options(
            request.params, default_priority="batch"
        )
        # Resolve everything up front so malformed input yields one error
        # frame instead of a half-finished stream.
        with _raising(ERROR_BAD_PROBLEM):
            problems = [
                problem_from_spec(spec, f"<request>#{index + 1}")
                for index, spec in enumerate(specs)
            ]
        summary = await self._stream_batch(request, problems, send, priority, deadline)
        summary["stats"] = self.classifier.stats_report()
        await send(done_frame(request.id, summary))

    async def _handle_census(self, request: Request, send: _SendFrame) -> None:
        with _raising(ERROR_BAD_REQUEST):
            echo_params = census_params(request.params)
        problems = census_draws(echo_params)
        # A census is bulk background work: it defaults to the lowest
        # priority class so interactive classifies overtake its fan-out.
        priority, deadline = self._request_options(
            request.params, default_priority="warm"
        )
        counts: Dict[str, int] = {}

        async def send_and_tally(frame: Dict[str, Any]) -> None:
            data = frame["data"]
            # Interrupted items tally under their outcome ("timeout"/
            # "cancelled") instead of a complexity class.
            value = data["complexity"] if data["complexity"] else data["outcome"]
            counts[value] = counts.get(value, 0) + 1
            await send(frame)

        summary = await self._stream_batch(
            request, problems, send_and_tally, priority, deadline
        )
        summary["counts"] = counts
        summary["params"] = echo_params
        summary["stats"] = self.classifier.stats_report()
        await send(done_frame(request.id, summary))

    async def _handle_warm(self, request: Request, send: _SendFrame) -> None:
        """Pre-populate the cache with a future batch/census's canonical keys.

        ``params.problems`` (a list of problem specs) and/or ``params.census``
        (the census parameter object) name the workload; every distinct
        uncached canonical key is scheduled on the worker backend.  With
        ``params.wait=true`` the response is sent after the searches finish;
        otherwise it returns immediately and the cache fills (and persists)
        in the background.  ``params.budget_ms`` is a wall-clock budget
        spread best-effort across the whole sweep: when it expires, this
        warm's unfinished searches are cancelled and the summary reports
        ``within_budget`` — a budget implies waiting.
        """
        params = request.params
        specs = params.get("problems")
        census = params.get("census")
        wait = bool(params.get("wait", False))
        priority, deadline = self._request_options(params, default_priority="warm")
        budget_ms = params.get("budget_ms")
        budget: Optional[float] = None
        if budget_ms is not None:
            if isinstance(budget_ms, bool) or not isinstance(budget_ms, (int, float)):
                raise ProtocolError(ERROR_BAD_REQUEST, "budget_ms must be a number")
            if budget_ms < 0:
                raise ProtocolError(ERROR_BAD_REQUEST, "budget_ms must be non-negative")
            budget = budget_ms / 1000.0
        if specs is None and census is None:
            raise ProtocolError(
                ERROR_BAD_REQUEST, "warm requires params.problems or params.census"
            )
        problems: List[LCLProblem] = []
        if specs is not None:
            if not isinstance(specs, list) or not specs:
                raise ProtocolError(
                    ERROR_BAD_REQUEST, "warm params.problems must be a non-empty list"
                )
            with _raising(ERROR_BAD_PROBLEM):
                problems.extend(
                    problem_from_spec(spec, f"<warm>#{index + 1}")
                    for index, spec in enumerate(specs)
                )
        if census is not None:
            if not isinstance(census, dict):
                raise ProtocolError(
                    ERROR_BAD_REQUEST, "warm params.census must be an object"
                )
            with _raising(ERROR_BAD_REQUEST):
                echo = census_params(census)
            problems.extend(census_draws(echo))
        loop = asyncio.get_running_loop()
        summary = await loop.run_in_executor(
            None,
            lambda: self.scheduler.warm(
                [canonical_form(problem) for problem in problems],
                wait=wait,
                priority=priority,
                deadline=deadline,
                budget=budget,
            ),
        )
        summary["count"] = len(problems)
        # Warmed results persist via the same write-behind flusher as every
        # other store — no special-cased idle save; shutdown still flushes
        # whatever a background warm landed after the last interval.
        await send(result_frame(request.id, summary))

    async def _handle_cancel(self, request: Request, send: _SendFrame) -> None:
        """Cancel an in-flight request by its id (from another connection).

        Requests are processed sequentially per connection, so a ``cancel``
        necessarily arrives on a *different* connection than the stream it
        targets (the CLI's ``client cancel`` opens one).  Every submission of
        the addressed request is detached from its search; searches with no
        remaining waiters are cancelled and release their worker.  Ids are
        client-chosen — when several connections share one id, all of them
        are cancelled.  An id with nothing in flight answers ``found: false``
        (cancellation is inherently racy, so a miss is not an error).  The
        ``cancelled`` count covers submissions detached *at response time*: a
        cancel that races the target's fan-out can report 0 yet still take
        effect, because the fan-out never submits its remaining items and
        detaches any submission that was under way (see
        :class:`~repro.engine.batch.BatchFanOut`).
        """
        target = request.params.get("request_id")
        if target is None:
            raise ProtocolError(ERROR_BAD_REQUEST, "cancel requires params.request_id")
        if not isinstance(target, (str, int)):
            raise ProtocolError(
                ERROR_BAD_REQUEST, "cancel params.request_id must be a string or integer"
            )
        entries = list(self._active_requests.get(target, []))
        cancelled = sum(entry.cancel() for entry in entries)
        await send(
            result_frame(
                request.id,
                {
                    "request_id": target,
                    "found": bool(entries),
                    "cancelled": cancelled,
                },
            )
        )

    async def _handle_stats(self, request: Request, send: _SendFrame) -> None:
        await send(result_frame(request.id, self.stats_payload()))

    async def _handle_metrics(self, request: Request, send: _SendFrame) -> None:
        """The ``repro.metrics/1`` snapshot plus its Prometheus rendering.

        Both shapes travel in one frame so scrapers take the ``text`` field
        verbatim while programmatic clients keep the structured snapshot —
        and the local session renders the *same* snapshot through the *same*
        function, which the parity test pins.
        """
        snapshot = self.registry.snapshot()
        await send(
            result_frame(
                request.id,
                {"snapshot": snapshot, "text": render_prometheus(snapshot)},
            )
        )

    async def _handle_trace(self, request: Request, send: _SendFrame) -> None:
        """Fetch the finished span tree of ``params.request_id``, if retained."""
        target = request.params.get("request_id")
        if target is None:
            raise ProtocolError(ERROR_BAD_REQUEST, "trace requires params.request_id")
        if not isinstance(target, (str, int)):
            raise ProtocolError(
                ERROR_BAD_REQUEST, "trace params.request_id must be a string or integer"
            )
        doc = self.tracer.get(target)
        await send(
            result_frame(
                request.id,
                {"request_id": target, "found": doc is not None, "trace": doc},
            )
        )

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` response: service, cache, batch, worker, trace counters."""
        return {
            "service": {
                "requests_served": self.requests_served,
                "uptime_seconds": time.monotonic() - self.started_at,
            },
            # cache.info() is the one source of the cache-section shape, so
            # local and remote stats expose identical fields by construction.
            "cache": self.cache.info(),
            "batch": self.classifier.stats.as_dict(),
            "workers": self.scheduler.stats_payload(),
            "trace": self.tracer.as_dict(),
        }

    async def _handle_shutdown(self, request: Request, send: _SendFrame) -> None:
        saved = self._save_cache()
        await send(result_frame(request.id, {"ok": True, "cache_saved": saved}))
        self.request_shutdown()

    _HANDLERS = {
        "classify": _handle_classify,
        "classify_batch": _handle_classify_batch,
        "census": _handle_census,
        "warm": _handle_warm,
        "cancel": _handle_cancel,
        "stats": _handle_stats,
        "metrics": _handle_metrics,
        "trace": _handle_trace,
        "shutdown": _handle_shutdown,
    }

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (safe to call from the event loop)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    @property
    def shutting_down(self) -> bool:
        return self._shutdown_event is not None and self._shutdown_event.is_set()

    # ------------------------------------------------------------------
    # Connection loop (transport-independent)
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        readline: Callable[[], Awaitable[bytes]],
        send: _SendFrame,
    ) -> None:
        """Speak the protocol on one connection until EOF or shutdown."""
        await send(hello_frame())
        while not self.shutting_down:
            try:
                raw = await readline()
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            if not raw:
                break  # EOF: client went away
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            await self._dispatch_line(line, send)

    async def _dispatch_line(self, line: str, send: _SendFrame) -> None:
        """Validate and execute one request line, answering on ``send``."""
        try:
            request = decode_request(line)
        except ProtocolError as error:
            await send(error_frame(_best_effort_id(line), error))
            return
        self.requests_served += 1
        handler = self._HANDLERS[request.op]
        try:
            await handler(self, request, send)
        except ProtocolError as error:
            await send(error_frame(request.id, error))
        except Exception as error:  # noqa: BLE001 - protocol boundary
            await send(
                error_frame(
                    request.id,
                    ProtocolError(ERROR_INTERNAL, f"{type(error).__name__}: {error}"),
                )
            )

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------
    async def serve_stdio(
        self,
        stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None,
    ) -> None:
        """Serve one connection on text streams (default: ``sys.stdin/out``).

        Lines are read on executor threads, which works for pipes, terminals
        and regular files alike; writes flush per frame so clients see items
        as they stream.
        """
        import sys

        in_stream = stdin if stdin is not None else sys.stdin
        out_stream = stdout if stdout is not None else sys.stdout
        loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()

        async def readline() -> bytes:
            line = await loop.run_in_executor(None, in_stream.readline)
            return line.encode("utf-8")

        async def send(frame: Dict[str, Any]) -> None:
            out_stream.write(encode_frame(frame))
            out_stream.flush()

        try:
            await self._serve_connection(readline, send)
        finally:
            self._save_cache()
            # close() drains in-flight background warms into the in-memory
            # cache; cache.close() then persists a final full snapshot (and
            # stops the write-behind flusher), so shutdown loses nothing.
            self.classifier.close()
            self.cache.close()
            self.tracer.close()

    async def serve_tcp(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_callback: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> None:
        """Serve concurrent connections on ``host:port`` until shutdown.

        ``port=0`` binds an ephemeral port; the actual address is stored in
        :attr:`tcp_address` and passed to ``ready_callback`` once listening.
        """
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_tcp_connection, host, port, limit=MAX_LINE_BYTES
        )
        sockname = server.sockets[0].getsockname()
        self.tcp_address = (sockname[0], sockname[1])
        if ready_callback is not None:
            ready_callback(self.tcp_address)
        try:
            await self._shutdown_event.wait()
        finally:
            self._save_cache()
            # Close lingering connections *before* waiting on the server:
            # idle handlers sit in readline() and only finish once their
            # transport closes underneath them.  Then give the handler tasks
            # a moment to observe EOF and unwind, so loop teardown does not
            # cancel them mid-read (which logs spurious tracebacks).
            for writer in list(self._writers):
                writer.close()
            if self._connection_tasks:
                await asyncio.wait(set(self._connection_tasks), timeout=5)
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
            # Only now tear the worker pool down: no handler can submit work.
            # close() waits for in-flight searches (e.g. a background warm),
            # whose results land in the in-memory cache after the save above —
            # cache.close() persists a final full snapshot (and stops the
            # write-behind flusher) so shutdown loses nothing.
            self.classifier.close()
            self.cache.close()
            self.tracer.close()

    async def _handle_tcp_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.append(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)

        async def send(frame: Dict[str, Any]) -> None:
            writer.write(encode_frame(frame).encode("utf-8"))
            await writer.drain()

        try:
            await self._serve_connection(reader.readline, send)
        except (ConnectionError, ValueError):
            # Client vanished, or sent a line over MAX_LINE_BYTES —
            # StreamReader.readline surfaces the overrun as ValueError.
            pass
        finally:
            self._writers.remove(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class ThreadedService:
    """A live TCP :class:`ClassificationService` on a background thread.

    Intended for embedding in tests, benchmarks, and notebooks::

        with ThreadedService(cache=ClassificationCache(path=...)) as address:
            client = ServiceClient.connect_tcp(*address)

    The context manager starts the event loop thread, yields the bound
    ``(host, port)`` address, and shuts the service down on exit.
    """

    def __init__(
        self,
        cache: Optional[ClassificationCache] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.service = ClassificationService(
            cache=cache, backend=backend, workers=workers
        )
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        """Start serving; block until the socket is bound; return the address."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()

            def on_ready(address: Tuple[str, int]) -> None:
                self.address = address
                self._ready.set()

            await self.service.serve_tcp(self._host, self._port, on_ready)

        try:
            asyncio.run(main())
        finally:
            self._ready.set()  # unblock start() even if binding failed

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown and join the event loop thread."""
        if self._thread is None:
            return
        if self._loop is not None and not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def _best_effort_id(line: str) -> Any:
    """Extract the request id from a malformed request line, if any."""
    try:
        frame = decode_frame(line)
    except ProtocolError:
        return None
    request_id = frame.get("id")
    return request_id if isinstance(request_id, (str, int)) else None
