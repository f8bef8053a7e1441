"""Tests for the engine's one batch fan-out (``BatchClassifier.fan_out``).

Every item of a fan-out ends ``ok``, ``timeout`` or ``cancelled``, in
submission order, whatever a concurrent ``cancel()`` races: before the first
item, after it, or while a submission is under way.  Pooled backends submit
everything up front; the synchronous ``inline`` backend submits each item
only when it is requested, so a cancel there skips searches outright.
"""

import random
import sys
import threading
import time

import pytest

from repro.core import checkpoint
from repro.engine import BatchClassifier, ClassificationCache
from repro.engine.batch import BatchFanOut
from repro.problems.pools import distinct_forms
from repro.workers import BACKEND_NAMES, ClassificationScheduler, create_backend
from repro.workers.scheduler import execute_search

PROBLEMS = [form.problem for form in distinct_forms(4, labels=2, density=0.5)]


def _slow_search(task):
    """The real search after ~0.5 s of checkpointed sleep (picklable)."""
    for _ in range(50):
        checkpoint()
        time.sleep(0.01)
    return execute_search(task)


@pytest.fixture(params=BACKEND_NAMES)
def classifier(request):
    backend = create_backend(request.param, workers=2)
    backend.probe()
    scheduler = ClassificationScheduler(backend=backend, task=_slow_search)
    yield BatchClassifier(scheduler=scheduler)
    scheduler.close()


def _settled(classifier, items):
    """Assert the fan-out contract; return the outcomes in order."""
    assert [item.problem for item in items] == PROBLEMS
    outcomes = [item.outcome for item in items]
    assert set(outcomes) <= {"ok", "cancelled"}
    for item in items:
        assert (item.result is not None) == item.ok
    scheduler = classifier.scheduler
    assert scheduler.wait_idle(timeout=30)
    assert scheduler.slots_in_use == 0
    assert scheduler.in_flight == 0
    return outcomes


def _inline(classifier):
    return classifier.scheduler.backend.synchronous


class TestFanOutCancel:
    def test_cancel_before_the_first_item(self, classifier):
        fan = classifier.fan_out(PROBLEMS)
        fan.cancel()
        outcomes = _settled(classifier, list(fan))
        # Pooled searches take ~0.5 s, so every one is still running.
        assert outcomes == ["cancelled"] * len(PROBLEMS)
        if _inline(classifier):
            assert classifier.scheduler.stats.flights == 0

    def test_cancel_after_the_first_item(self, classifier):
        fan = classifier.fan_out(PROBLEMS)
        first = next(fan)
        assert first.ok
        if _inline(classifier):
            assert classifier.scheduler.stats.flights == 1
        fan.cancel()
        outcomes = _settled(classifier, [first, *fan])
        if _inline(classifier):
            # Cancelled items never started a search.
            assert outcomes == ["ok"] + ["cancelled"] * (len(PROBLEMS) - 1)
            assert classifier.scheduler.stats.flights == 1

    def test_cancel_while_submission_is_running(self, classifier):
        fan = BatchFanOut(classifier, PROBLEMS)
        submit_item = classifier.submit_item
        calls = []

        def submit_then_cancel(problem, **kwargs):
            pending = submit_item(problem, **kwargs)
            calls.append(problem)
            if len(calls) == 2:
                fan.cancel()  # lands before the fan-out records this pending
            return pending

        classifier.submit_item = submit_then_cancel
        items = list(fan.start())
        outcomes = _settled(classifier, items)
        assert calls == PROBLEMS[:2]  # nothing is submitted after the cancel
        assert classifier.scheduler.stats.flights == 2
        if _inline(classifier):
            assert outcomes == ["ok", "ok", "cancelled", "cancelled"]
        else:
            assert outcomes == ["cancelled"] * len(PROBLEMS)

    def test_uncancelled_fan_out_classifies_every_item(self, classifier):
        outcomes = _settled(classifier, list(classifier.fan_out(PROBLEMS)))
        assert outcomes == ["ok"] * len(PROBLEMS)
        assert classifier.stats.submitted == len(PROBLEMS)
        assert classifier.stats.full_searches == len(PROBLEMS)


def test_inline_submits_each_item_when_it_is_requested():
    with BatchClassifier(backend="inline") as classifier:
        fan = classifier.fan_out(PROBLEMS)
        assert classifier.scheduler.stats.flights == 0
        next(fan)
        assert classifier.scheduler.stats.flights == 1
        assert len(list(fan)) == len(PROBLEMS) - 1
        assert classifier.scheduler.stats.flights == len(PROBLEMS)


def test_within_batch_duplicates_share_one_search():
    with BatchClassifier(backend="threads", workers=2) as classifier:
        items = list(classifier.fan_out([PROBLEMS[0]] * 3))
        shared = classifier.cache_stats.hits + classifier.scheduler.stats.deduped
    assert [item.from_cache for item in items] == [False, True, True]
    assert classifier.stats.full_searches == 1
    assert shared == 2


def _endless_search(task):
    """A search that only ends when cancelled (checkpointed, ~60 s cap)."""
    for _ in range(6000):
        checkpoint()
        time.sleep(0.01)
    return execute_search(task)


def test_racing_cancels_never_lose_a_submission():
    """Cancel from a second thread at random points of submission: since no
    search can finish on its own, an item that missed the cancel would
    block its collection — every item must come back cancelled, quickly."""
    rng = random.Random(13)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with create_backend("threads", workers=4) as backend:
            for _ in range(25):
                scheduler = ClassificationScheduler(
                    cache=ClassificationCache(), backend=backend, task=_endless_search
                )
                fan = BatchFanOut(BatchClassifier(scheduler=scheduler), PROBLEMS * 2)
                delay = rng.random() * 0.002
                canceller = threading.Thread(
                    target=lambda: (time.sleep(delay), fan.cancel())
                )
                start = time.monotonic()
                canceller.start()
                items = list(fan.start())
                canceller.join(timeout=10)
                assert not canceller.is_alive()
                assert [item.outcome for item in items] == ["cancelled"] * len(items)
                assert time.monotonic() - start < 10
                assert scheduler.wait_idle(timeout=10)
                assert scheduler.slots_in_use == 0
                assert scheduler.in_flight == 0
    finally:
        sys.setswitchinterval(interval)
