"""Per-layer spans recorded from outside the program, and what they add up to.

:func:`install` wraps the public entry points of each layer of the request
path — session, parser, canonical forms, cache, serialization, cache
backends, scheduler, kernel, and the service's protocol codec — so that every
call records a span: name, start, end, parent and request.  Spans stay in
memory as a flat ``array('q')`` and are written out once, when the process
ends (:meth:`Tracer.dump`).  The program itself is not changed and reads no
setting from the benchmark.

Parents follow the calling thread; where a request hops threads the wrappers
hand its context across explicitly:

* on the service's event-loop thread, ``decode_request`` opens a
  ``service.request`` root for the current asyncio task and the terminal
  ``encode_frame`` closes it (decode→reply);
* a problem decoded on the loop thread is handed to the executor thread
  that submits it, and a submission to the thread that waits on its result;
* a search inherits the request that submitted its canonical key, and the
  pool thread keeps that request until its next task, so the scheduler's
  completion callback (which stores the result) stays attributed.

All clocks are ``time.monotonic_ns`` (``CLOCK_MONOTONIC``), which every
process on the host shares, so client and server spans share one time axis:
each ``service.request`` root is parented to the client's ``service.call``
span that contains it and carries the same wire id.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import threading
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from itertools import count
from time import monotonic_ns
from typing import Any, Dict, Iterator, List, Optional, Tuple

# Span name -> layer.  The order fixes the integer codes in the span records.
SPANS = {
    "api.classify": "api",
    "service.call": "service",
    "service.request": "service",
    "parser.parse": "parser",
    "canonical.form": "canonical",
    "cache.lookup": "cache",
    "cache.store": "cache",
    "serialization.decode": "serialization",
    "serialization.encode": "serialization",
    "serialization.relabel": "serialization",
    "backends.flush": "backends",
    "scheduler.submit": "scheduler",
    "scheduler.execute": "scheduler",
    "kernel.search": "kernel",
}
NAMES = list(SPANS)
CODE = {name: code for code, name in enumerate(NAMES)}
LAYERS = list(dict.fromkeys(SPANS.values()))
FIELDS = 8  # sid, code, start, end, parent, root, value, tag
JOB_SCHEDULED = 2
JOB_KINDS = {"hit": 0, "shared": 1, "scheduled": JOB_SCHEDULED}
SERVER_OFFSET = 1 << 40  # keeps server span ids apart from client ones


class _Open:
    """A span not yet closed.  ``root`` is the id of its request's root span;
    ``value`` holds a per-span figure (hit flag, rows flushed, job kind, frames
    sent) and ``tag`` the wire request id of service spans."""

    __slots__ = ("sid", "code", "start", "parent", "root", "value", "tag")


class Tracer:
    """Records spans for one process; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.records = array("q")
        self.queue_waits = array("q")  # (search start, queue wait) pairs, in ns
        self._ids = count(1)
        self._local = threading.local()
        self._adopted: Dict[int, Tuple[Any, _Open]] = {}
        self.task_roots: Dict[Any, _Open] = {}
        self.loop_threads: set = set()
        self.key_roots: Dict[str, Tuple[Optional[_Open], int]] = {}

    # -- context ---------------------------------------------------------
    def stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def task_root(self) -> Optional[_Open]:
        if threading.get_ident() not in self.loop_threads:
            return None
        try:
            task = asyncio.current_task()
        except RuntimeError:
            return None
        return self.task_roots.get(task)

    def linger(self, context: Optional[_Open]) -> None:
        """Parent this thread's context-free spans to ``context`` from now on."""
        self._local.linger = context

    def current(self) -> Optional[_Open]:
        stack = self.stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "linger", None) or self.task_root()

    def open(self, code: int, parent: Optional[_Open]) -> _Open:
        span = _Open()
        span.sid = next(self._ids)
        span.code = code
        span.parent = parent.sid if parent is not None else 0
        span.root = parent.root if parent is not None else span.sid
        span.value = span.tag = 0
        span.start = monotonic_ns()
        return span

    def close(self, span: _Open) -> None:
        end = monotonic_ns()
        self.records.extend(
            (span.sid, span.code, span.start, end, span.parent, span.root, span.value, span.tag)
        )

    @contextmanager
    def span(self, name: str) -> Iterator[_Open]:
        """Time the block as a child of this thread's current context."""
        stack = self.stack()
        opened = self.open(CODE[name], self.current())
        stack.append(opened)
        try:
            yield opened
        finally:
            stack.pop()
            self.close(opened)

    @contextmanager
    def adopt(self, context: Optional[_Open]) -> Iterator[None]:
        """Run the block inside ``context`` when this thread has none."""
        stack = self.stack()
        pushed = context is not None and not stack
        if pushed:
            stack.append(context)
        try:
            yield
        finally:
            if pushed:
                stack.pop()

    def hand_off(self, obj: Any, context: Optional[_Open]) -> None:
        if context is not None:
            self._adopted[id(obj)] = (obj, context)

    def take(self, obj: Any) -> Optional[_Open]:
        entry = self._adopted.pop(id(obj), None)
        return entry[1] if entry is not None else None

    def root_of(self, context: Optional[_Open]) -> Optional[_Open]:
        """The request root of ``context`` as a parent handle."""
        if context is None:
            return None
        if context.root == context.sid:
            return context
        root = _Open()
        root.sid = root.root = context.root
        return root

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            header = json.dumps({"names": NAMES, "spans": len(self.records) // FIELDS})
            handle.write(header.encode("utf-8") + b"\n")
            self.records.tofile(handle)
            self.queue_waits.tofile(handle)


def load(path: str) -> Tuple[array, array]:
    """Read a :meth:`Tracer.dump` file back: ``(records, queue_waits)``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        if header["names"] != NAMES:
            raise ValueError(f"{path}: span names differ from this benchmark's")
        records = array("q")
        records.fromfile(handle, header["spans"] * FIELDS)
        waits = array("q", handle.read())
    return records, waits


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module's binding of ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _timed(tracer: Tracer, name: str, fn: Any, value: Any = None) -> Any:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if value is not None:
                span.value = value(result)
            return result

    return wrapper


def _traced_iter(tracer: Tracer, span: _Open, iterator: Iterator[Any]) -> Iterator[Any]:
    """Yield from ``iterator`` with ``span`` current while it works; close at the end."""
    stack = tracer.stack()
    try:
        while True:
            stack.append(span)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                stack.pop()
            yield item
    finally:
        tracer.close(span)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points in this process with spans."""
    from repro.api import session as api_session
    from repro.core import classifier, parser
    from repro.engine import backends as cache_backends
    from repro.engine import batch, cache, canonical, serialization
    from repro.service import client as service_client
    from repro.service import protocol, server  # noqa: F401 - binds protocol names
    from repro.workers import backends as worker_backends
    from repro.workers import scheduler

    for module, name, span_name in (
        (parser, "parse_problem", "parser.parse"),
        (canonical, "canonical_form", "canonical.form"),
        (serialization, "problem_from_dict", "serialization.decode"),
        (serialization, "result_from_dict", "serialization.decode"),
        (serialization, "problem_to_dict", "serialization.encode"),
        (serialization, "result_to_dict", "serialization.encode"),
        (serialization, "relabel_result", "serialization.relabel"),
        (classifier, "classify_with_certificates", "kernel.search"),
    ):
        original = getattr(module, name)
        wrapped = _timed(tracer, span_name, original)
        if name == "problem_from_dict":
            wrapped = _handing_off(tracer, wrapped)
        _rebind(original, wrapped)

    def method(cls: Any, name: str, build: Any) -> None:
        setattr(cls, name, build(getattr(cls, name)))

    # api: one span per classify call, or per batch until its last item.
    session_cls = api_session.ClassificationSession
    method(session_cls, "classify", lambda fn: _timed(tracer, "api.classify", fn))

    def classify_many(fn: Any) -> Any:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
            span = tracer.open(CODE["api.classify"], tracer.current())
            with tracer.adopt(span):
                iterator = fn(self, *args, **kwargs)
            return _traced_iter(tracer, span, iterator)

        return wrapper

    method(session_cls, "classify_many", classify_many)

    # cache: lookups record whether they hit.
    cache_cls = cache.ClassificationCache
    method(
        cache_cls,
        "lookup",
        lambda fn: _timed(tracer, "cache.lookup", fn, lambda hit: int(hit is not None)),
    )
    method(cache_cls, "store", lambda fn: _timed(tracer, "cache.store", fn))
    for backend_cls in cache_backends.CacheBackend.__subclasses__():
        if "flush" in vars(backend_cls):
            method(
                backend_cls,
                "flush",
                lambda fn: _timed(tracer, "backends.flush", fn, lambda rows: rows),
            )

    # engine.batch: carry the request across the executor hops.
    def submit_item(fn: Any) -> Any:
        def wrapper(self: Any, problem: Any, *args: Any, **kwargs: Any) -> Any:
            context = tracer.take(problem)
            with tracer.adopt(context):
                pending = fn(self, problem, *args, **kwargs)
                tracer.hand_off(pending, tracer.root_of(tracer.current()))
            return pending

        return wrapper

    def pending_result(fn: Any) -> Any:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.adopt(tracer.take(self)):
                return fn(self, *args, **kwargs)

        return wrapper

    method(batch.BatchClassifier, "submit_item", submit_item)
    method(batch.PendingClassification, "result", pending_result)

    # scheduler: submissions record their job kind; searches their queue wait.
    def submit(fn: Any) -> Any:
        def wrapper(self: Any, form: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("scheduler.submit") as span:
                key = form.key
                registered = key not in tracer.key_roots
                if registered:
                    tracer.key_roots[key] = (tracer.root_of(span), span.start)
                try:
                    job = fn(self, form, *args, **kwargs)
                    span.value = JOB_KINDS.get(job.kind, -1)
                finally:
                    if registered and span.value != JOB_SCHEDULED:
                        tracer.key_roots.pop(key, None)
                return job

        return wrapper

    def submit_task(fn: Any) -> Any:
        def wrapper(self: Any, task_fn: Any, task: Any, *args: Any, **kwargs: Any) -> Any:
            root, submitted = tracer.key_roots.pop(task[0], (None, 0))
            inline = self.synchronous

            def run(task: Any) -> Any:
                if not inline:
                    # A pool thread: the search and the completion callbacks
                    # that follow it belong to the submitting request.
                    tracer.linger(root)
                with tracer.span("scheduler.execute") as span:
                    if submitted:
                        tracer.queue_waits.extend((span.start, span.start - submitted))
                    return task_fn(task)

            return fn(self, run, task, *args, **kwargs)

        return wrapper

    method(scheduler.ClassificationScheduler, "submit", submit)
    for backend_cls in (worker_backends.InlineBackend, worker_backends.ThreadBackend):
        method(backend_cls, "submit_task", submit_task)

    # service, client side: one span per request round trip.
    client_cls = service_client.ServiceClient

    def request(fn: Any) -> Any:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer.span("service.call") as span:
                wire_id = kwargs.get("request_id")
                span.tag = wire_id if isinstance(wire_id, int) else -1
                return fn(self, *args, **kwargs)

        return wrapper

    def stream(fn: Any) -> Any:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
            span = tracer.open(CODE["service.call"], tracer.current())
            span.tag = -1
            return _traced_iter(tracer, span, fn(self, *args, **kwargs))

        return wrapper

    method(client_cls, "request", request)
    method(client_cls, "stream", stream)

    # service, server side: decode opens the request, the terminal frame ends it.
    decode_request, encode_frame = protocol.decode_request, protocol.encode_frame

    def traced_decode(line: str) -> Any:
        try:
            task = asyncio.current_task()
        except RuntimeError:
            task = None
        if task is None:
            return decode_request(line)
        tracer.loop_threads.add(threading.get_ident())
        root = tracer.open(CODE["service.request"], None)
        tracer.task_roots[task] = root
        request = decode_request(line)
        root.tag = request.id if isinstance(request.id, int) else -1
        return request

    def traced_encode(frame: Any) -> str:
        text = encode_frame(frame)
        if threading.get_ident() in tracer.loop_threads:
            task = asyncio.current_task()
            root = tracer.task_roots.get(task)
            if root is not None:
                root.value += 1  # frames sent for this request
                if protocol.is_terminal_frame(frame):
                    del tracer.task_roots[task]
                    tracer.close(root)
        return text

    _rebind(decode_request, traced_decode)
    _rebind(encode_frame, traced_encode)


def _handing_off(tracer: Tracer, wrapped: Any) -> Any:
    """Hand problems decoded on the event loop to the thread that submits them."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        problem = wrapped(*args, **kwargs)
        root = tracer.task_root() if not tracer.stack() else None
        tracer.hand_off(problem, root)
        return problem

    return wrapper


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _rows(records: array, offset: int = 0) -> List[List[int]]:
    rows = []
    for base in range(0, len(records), FIELDS):
        sid, code, start, end, parent, root, value, tag = records[base : base + FIELDS]
        if offset:
            sid += offset
            root += offset
            parent = parent + offset if parent else 0
        rows.append([sid, code, start, end, parent, root, value, tag])
    return rows


def _link(client: List[List[int]], server: List[List[int]]) -> None:
    """Parent each server request root to the client call that contains it.

    A call's wire id must match the root's when the client knew it.  Calls
    are searched backwards from the last one started before the root; a
    handful covers every connection's call in flight.
    """
    calls = sorted(
        (row for row in client if row[1] == CODE["service.call"]), key=lambda row: row[2]
    )
    starts = [row[2] for row in calls]
    for row in server:
        if row[1] != CODE["service.request"]:
            continue
        index = bisect_right(starts, row[2]) - 1
        for candidate in calls[max(0, index - 7) : index + 1][::-1]:
            if candidate[3] >= row[3] and candidate[7] in (-1, row[7]):
                row[4] = candidate[0]
                break


def _union(intervals: List[Tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def p99(values: List[float]) -> float:
    """Nearest-rank 99th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


def layer_metrics(
    client: array,
    server: Optional[Tuple[array, array]],
    client_waits: array,
    window: Tuple[int, int],
) -> Dict[str, float]:
    """Per-layer metrics of the spans that started inside ``window`` (ns)."""
    rows = _rows(client)
    waits = list(client_waits)
    if server is not None:
        server_rows = _rows(server[0], SERVER_OFFSET)
        _link(rows, server_rows)
        rows += server_rows
        waits += list(server[1])
    t0, t1 = window
    rows = [row for row in rows if t0 <= row[2] <= t1]

    children: Dict[int, List[Tuple[int, int]]] = {}
    for row in rows:
        if row[4]:
            children.setdefault(row[4], []).append((row[2], row[3]))
    by_name: Dict[str, List[List[int]]] = {name: [] for name in NAMES}
    self_ns = {layer: 0 for layer in LAYERS}
    for row in rows:
        start, end = row[2], row[3]
        name = NAMES[row[1]]
        by_name[name].append(row)
        inner = [
            (max(start, a), min(end, b)) for a, b in children.get(row[0], ()) if b > start and a < end
        ]
        self_ns[SPANS[name]] += end - start - _union(inner)

    def durations(name: str, scale: float) -> List[float]:
        return [(row[3] - row[2]) / scale for row in by_name[name]]

    us, ms = 1e3, 1e6
    # Self shares are of the request wall time the client saw.
    wall = sum(row[3] - row[2] for row in by_name["api.classify"])
    server_roots = by_name["service.request"]
    calls = {row[0]: row for row in by_name["service.call"]}
    wire = [
        ((calls[root[4]][3] - calls[root[4]][2]) - (root[3] - root[2])) / ms
        for root in server_roots
        if root[4] in calls
    ]
    lookups = by_name["cache.lookup"]
    flushes = by_name["backends.flush"]
    submits = by_name["scheduler.submit"]
    searches = sum(1 for row in submits if row[6] == JOB_SCHEDULED)
    queue = [waits[i + 1] / ms for i in range(0, len(waits), 2) if t0 <= waits[i] <= t1]
    metrics = {
        "service.request_ms": _mean(durations("service.request", ms)),
        "service.wire_ms": _mean(wire),
        "service.frames": float(sum(row[6] for row in server_roots)),
        "api.classify_ms": _mean(durations("api.classify", ms)),
        "parser.calls": float(len(by_name["parser.parse"])),
        "parser.parse_us": _mean(durations("parser.parse", us)),
        "canonical.calls": float(len(by_name["canonical.form"])),
        "canonical.form_us": _mean(durations("canonical.form", us)),
        "canonical.form_ms_max": max(durations("canonical.form", ms), default=0.0),
        "cache.lookups": float(len(lookups)),
        "cache.hit_ratio": _mean([row[6] for row in lookups]),
        "cache.lookup_us": _mean(durations("cache.lookup", us)),
        "cache.store_us": _mean(durations("cache.store", us)),
        "serialization.relabel_us": _mean(durations("serialization.relabel", us)),
        "serialization.decode_us": _mean(durations("serialization.decode", us)),
        "serialization.encode_us": _mean(durations("serialization.encode", us)),
        "backends.flushes": float(len(flushes)),
        "backends.rows_per_flush": _mean([row[6] for row in flushes]),
        "backends.flush_ms": _mean(durations("backends.flush", ms)),
        "scheduler.submits": float(len(submits)),
        "scheduler.searches": float(searches),
        "scheduler.dedup_ratio": 1 - searches / len(submits) if submits else 0.0,
        "scheduler.queue_wait_ms": _mean(queue),
        "kernel.searches": float(len(by_name["kernel.search"])),
        "kernel.search_ms": _mean(durations("kernel.search", ms)),
        "kernel.search_ms_p99": p99(durations("kernel.search", ms)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_ns[layer] / wall if wall else 0.0
    return metrics
