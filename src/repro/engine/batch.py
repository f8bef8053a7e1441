"""Batch classification: dedupe by canonical form, classify once, translate back.

:class:`BatchClassifier` is the amortizing front-end to the (exponential-time)
certificate searches of :mod:`repro.core.classifier`.  Given a stream of
problems it

1. computes every problem's canonical form (:mod:`repro.engine.canonical`),
2. submits it to a :class:`~repro.workers.scheduler.ClassificationScheduler`,
   which answers a cached key at once, joins a search already running for
   the key (single flight), or else executes the full decision procedure on
   a pluggable worker backend (``inline``, ``threads``, or ``processes`` —
   see :mod:`repro.workers`) — so each renaming orbit is searched once,
3. lets the scheduler store each fresh result in the cache *in canonical
   labels*, and
4. answers every submitted problem by translating the cached canonical result
   back through that problem's own label bijection.

Because results are stored in canonical labels and translated per caller, a
cache hit on the *same* problem reproduces the fresh classification exactly;
a hit on a merely *isomorphic* problem yields an equally valid result whose
certificate label sets are the bijective image of the representative's.

The classifier is safe to call from many threads at once (the service does):
statistics are mutex-guarded, the cache locks internally, and the scheduler
guarantees one search per canonical key however many callers race on it.
:meth:`submit_item` exposes the asynchronous edge — submit now, collect the
:class:`BatchItem` when its future resolves — and :meth:`fan_out` is the one
batch path built on it: every batch, census and service request streams its
items, in submission order, through a :class:`BatchFanOut`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from ..core.cancellation import SearchInterrupted
from ..core.complexity import ClassificationResult
from ..core.problem import LCLProblem
from ..workers.backends import WorkerBackend, create_backend
from ..workers.scheduler import (
    DEFAULT_PRIORITY,
    JOB_SCHEDULED,
    ClassificationJob,
    ClassificationScheduler,
)
from .cache import CacheStats, ClassificationCache
from .canonical import CanonicalForm, canonical_form
from .serialization import relabel_result, result_from_dict

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_CANCELLED = "cancelled"


@dataclass(frozen=True)
class BatchItem:
    """Classification of one submitted problem inside a batch.

    ``outcome`` is ``"ok"`` for a completed classification; a submission
    whose deadline expired or that was cancelled yields ``"timeout"`` or
    ``"cancelled"`` with ``result=None`` — the search was interrupted, so
    there is no (and never will be a cached) answer for it.
    """

    problem: LCLProblem
    canonical_key: str
    result: Optional[ClassificationResult]
    from_cache: bool
    elapsed_seconds: float = 0.0
    outcome: str = OUTCOME_OK

    @property
    def ok(self) -> bool:
        """Whether the classification completed (``result`` is present)."""
        return self.outcome == OUTCOME_OK


@dataclass
class BatchStats:
    """Work accounting of a :class:`BatchClassifier`.

    ``full_searches`` counts actual runs of the complete decision procedure;
    the gap between it and ``submitted`` is the work amortized away by
    canonical deduplication, caching, and single-flight sharing.
    """

    submitted: int = 0
    full_searches: int = 0

    @property
    def amortized(self) -> int:
        """Problems answered without running the decision procedure."""
        return self.submitted - self.full_searches

    @property
    def speedup(self) -> float:
        """Ratio of submitted problems to full searches (1.0 when no sharing)."""
        if not self.full_searches:
            return float(self.submitted) if self.submitted else 1.0
        return self.submitted / self.full_searches

    def as_dict(self) -> Dict[str, Any]:
        """The statistics as a JSON-friendly dictionary."""
        return {
            "submitted": self.submitted,
            "full_searches": self.full_searches,
            "amortized": self.amortized,
            "speedup": self.speedup,
        }


def _interrupted_item(problem: LCLProblem, key: str, outcome: str) -> BatchItem:
    """The answerless item of a submission that timed out or was cancelled."""
    return BatchItem(
        problem=problem,
        canonical_key=key,
        result=None,
        from_cache=False,
        outcome=outcome,
    )


def _item_from_payload(
    form: CanonicalForm, payload: Mapping[str, Any], from_cache: bool
) -> BatchItem:
    """Translate a canonical-label payload into the submitter's alphabet."""
    canonical_result = result_from_dict(payload)
    return BatchItem(
        problem=form.problem,
        canonical_key=form.key,
        result=relabel_result(canonical_result, form.inverse),
        from_cache=from_cache,
        elapsed_seconds=0.0 if from_cache else payload.get("elapsed_seconds", 0.0),
    )


@dataclass(frozen=True)
class PendingClassification:
    """A submitted problem whose search may still be running.

    Returned by :meth:`BatchClassifier.submit_item`; :meth:`result` blocks
    until the underlying scheduler job resolves and translates the canonical
    payload back through this problem's bijection.  A deadline expiry or
    cancellation does **not** raise: it yields a :class:`BatchItem` whose
    ``outcome`` is ``"timeout"``/``"cancelled"`` and whose ``result`` is
    ``None``, so batch consumers can stream partial failures item by item.
    Genuine search errors still propagate as exceptions.
    """

    form: CanonicalForm
    job: ClassificationJob

    @property
    def done(self) -> bool:
        return self.job.done

    @property
    def from_cache(self) -> bool:
        """Whether this submission was answered without starting a search."""
        return self.job.kind != JOB_SCHEDULED

    def cancel(self) -> bool:
        """Detach this submission from its search (see ``ClassificationJob``)."""
        return self.job.cancel()

    def result(self, timeout: Optional[float] = None) -> BatchItem:
        """Block until classified; raise what the search raised on failure."""
        try:
            payload = self.job.result(timeout=timeout)
        except SearchInterrupted as interrupted:
            return _interrupted_item(
                self.form.problem, self.form.key, interrupted.outcome
            )
        return _item_from_payload(self.form, payload, from_cache=self.from_cache)


class BatchClassifier:
    """Canonical-form-deduplicating, caching classifier front-end.

    .. deprecated:: 1.2
        Constructing a ``BatchClassifier`` directly is the *legacy* front
        door.  New code should open a :class:`repro.api.ClassificationSession`
        (``repro.api.connect("local://threads?workers=8")``), which absorbs
        the ``cache``/``backend``/``workers`` kwargs into one endpoint and
        returns the uniform :class:`~repro.api.Outcome` type.  This class
        remains supported as the session's local execution engine.

    Parameters
    ----------
    cache:
        The :class:`ClassificationCache` to consult and fill.  A fresh
        in-memory cache is created when omitted.
    processes:
        Legacy spelling kept for compatibility: ``processes=N`` with ``N > 1``
        is shorthand for ``backend="processes", workers=N``.
    backend:
        Name of the worker backend executing uncached searches — ``"inline"``
        (default: synchronous, zero overhead), ``"threads"``, or
        ``"processes"`` — or an already-built
        :class:`~repro.workers.backends.WorkerBackend` instance.
    workers:
        Pool size for ``threads``/``processes`` backends (default: CPU count).
    scheduler:
        An existing :class:`ClassificationScheduler` to share (its cache wins
        over the ``cache`` argument).  Lets several classifiers — or a service
        — pool their single-flight tables and worker processes.
    """

    def __init__(
        self,
        cache: Optional[ClassificationCache] = None,
        processes: Optional[int] = None,
        backend: Optional[Any] = None,
        workers: Optional[int] = None,
        scheduler: Optional[ClassificationScheduler] = None,
    ) -> None:
        # close() only tears down resources this classifier created: an
        # injected scheduler — or an injected backend instance — is shared
        # property, and whoever built it decides when to close it.
        self._owns_scheduler = scheduler is None
        self._owns_backend = scheduler is None and not isinstance(
            backend, WorkerBackend
        )
        if scheduler is not None:
            self.scheduler = scheduler
            self.cache = scheduler.cache
        else:
            if backend is None and processes is not None and processes > 1:
                backend, workers = "processes", workers or processes
            if isinstance(backend, WorkerBackend):
                backend_obj = backend
            else:
                backend_obj = create_backend(backend, workers)
            self.cache = cache if cache is not None else ClassificationCache()
            self.scheduler = ClassificationScheduler(
                cache=self.cache, backend=backend_obj
            )
        self.processes = processes
        self.stats = BatchStats()
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Single-problem interface
    # ------------------------------------------------------------------
    def classify(self, problem: LCLProblem) -> ClassificationResult:
        """Classify one problem through the cache (decision only)."""
        item = self.classify_item(problem)
        assert item.result is not None  # no deadline was given
        return item.result

    def classify_item(
        self,
        problem: LCLProblem,
        priority: str = DEFAULT_PRIORITY,
        deadline: Optional[float] = None,
        trace: Optional[Any] = None,
    ) -> BatchItem:
        """Classify one problem through the cache, with provenance."""
        return self.submit_item(
            problem, priority=priority, deadline=deadline, trace=trace
        ).result()

    def submit_item(
        self,
        problem: LCLProblem,
        priority: str = DEFAULT_PRIORITY,
        deadline: Optional[float] = None,
        trace: Optional[Any] = None,
    ) -> PendingClassification:
        """Submit one problem for classification without waiting.

        The search (if one is needed) starts on the worker backend as soon
        as the scheduler admits it (ordered by ``priority``); concurrent
        submissions of the same renaming orbit share it.  ``deadline`` bounds
        this submission's total wait in seconds — on expiry the resulting
        :class:`BatchItem` reports ``outcome="timeout"``.  ``trace`` (a
        :class:`~repro.obs.trace.RequestTrace`, or the common ``None``)
        receives the scheduler's span events for this submission.  Call
        :meth:`PendingClassification.result` to collect the translated item.
        """
        form = canonical_form(problem)
        job = self.scheduler.submit(
            form, priority=priority, deadline=deadline, trace=trace
        )
        with self._stats_lock:
            self.stats.submitted += 1
            if job.kind == JOB_SCHEDULED:
                self.stats.full_searches += 1
        return PendingClassification(form=form, job=job)

    # ------------------------------------------------------------------
    # Batch interface
    # ------------------------------------------------------------------
    def fan_out(
        self,
        problems: Iterable[LCLProblem],
        priority: str = DEFAULT_PRIORITY,
        deadline: Optional[float] = None,
        traces: Optional[Sequence[Any]] = None,
    ) -> "BatchFanOut":
        """Classify a stream of problems; iterate the items in submission order.

        On a pooled backend every problem is submitted before this returns,
        so uncached searches overlap while the caller collects; a
        synchronous backend submits each problem only when its item is
        requested, so items stream between searches.  Duplicates of one
        renaming orbit share a search (single flight) or hit the cache.
        ``deadline`` bounds each submission: a blown one yields an
        ``outcome="timeout"`` item while the rest completes normally.
        ``traces`` gives one trace (or ``None``) per problem.
        """
        return BatchFanOut(self, problems, priority, deadline, traces).start()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        """The underlying cache's hit/miss statistics."""
        return self.cache.stats

    def stats_report(self) -> Dict[str, Any]:
        """Combined batch + cache + worker statistics (JSON-friendly)."""
        return {
            "batch": self.stats.as_dict(),
            "cache": self.cache.stats.as_dict(),
            "workers": self.scheduler.stats_payload(),
        }

    def close(self) -> None:
        """Shut the worker backend down.

        Only closes a backend this classifier created itself (from a backend
        *name* or the ``processes`` shorthand); an injected scheduler or
        backend instance stays alive for its other users — whoever built it
        decides when to close it.
        """
        if self._owns_scheduler and self._owns_backend:
            self.scheduler.close()

    def __enter__(self) -> "BatchClassifier":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class BatchFanOut(Iterator[BatchItem]):
    """The items of one batch, in submission order, with :meth:`cancel`.

    Built by :meth:`BatchClassifier.fan_out`.  Iterate from one thread at a
    time; :meth:`cancel` may be called from any thread at any moment —
    before :meth:`start`, while it submits, or between items.  Whatever it
    races, every item ends ``ok``, ``timeout`` or ``cancelled``: submitted
    items are detached from their searches, the rest are never submitted.
    """

    def __init__(
        self,
        classifier: BatchClassifier,
        problems: Iterable[LCLProblem],
        priority: str = DEFAULT_PRIORITY,
        deadline: Optional[float] = None,
        traces: Optional[Sequence[Any]] = None,
    ) -> None:
        self._classifier = classifier
        self._problems = list(problems)
        self._traces = list(traces) if traces is not None else [None] * len(self)
        self._priority = priority
        self._deadline = deadline
        # One entry per submitted prefix item; None marks one skipped after
        # a cancel.  Only the iterating thread appends; the lock orders each
        # append against cancel()'s snapshot.
        self._pendings: List[Optional[PendingClassification]] = []
        self._lock = threading.Lock()
        self._cancelled = False
        self._next = 0

    def __len__(self) -> int:
        return len(self._problems)

    def start(self) -> "BatchFanOut":
        """Submit every item now, unless the backend is synchronous.

        A synchronous backend runs the search inside ``submit_item``, so an
        up-front fan-out would hold every item until the whole batch ran;
        there each item is submitted by :meth:`__next__` instead.
        """
        if not self._classifier.scheduler.backend.synchronous:
            while len(self._pendings) < len(self):
                self._submit()
        return self

    def _submit(self) -> None:
        """Submit the next item, or record it as skipped once cancelled."""
        index = len(self._pendings)
        with self._lock:
            if self._cancelled:
                self._pendings.append(None)
                return
        pending = self._classifier.submit_item(
            self._problems[index],
            priority=self._priority,
            deadline=self._deadline,
            trace=self._traces[index],
        )
        with self._lock:
            self._pendings.append(pending)
            cancelled = self._cancelled
        if cancelled:  # the cancel's snapshot missed this submission
            pending.cancel()

    def cancel(self) -> int:
        """Detach submitted items and skip the rest; return how many detached."""
        with self._lock:
            self._cancelled = True
            pendings = [pending for pending in self._pendings if pending is not None]
        return sum(1 for pending in pendings if pending.cancel())

    def __next__(self) -> BatchItem:
        index = self._next
        if index == len(self):
            raise StopIteration
        if index == len(self._pendings):
            self._submit()
        self._next += 1
        pending = self._pendings[index]
        if pending is None:
            problem = self._problems[index]
            return _interrupted_item(
                problem, canonical_form(problem).key, OUTCOME_CANCELLED
            )
        return pending.result()

