"""Protocol-v3 conformance tests: wire-level transcripts for priorities,
deadlines, ``cancel``, timeout item frames, and v2 backward compatibility."""

import time

import pytest

from repro.core import classify
from repro.engine import problem_to_dict
from repro.problems import hard_problem
from repro.problems.pools import distinct_forms
from repro.problems.random_problems import random_problem
from repro.service import ServiceClient, ServiceError, ThreadedService
from repro.service.protocol import OPERATIONS, PROTOCOL_VERSION

SOLVABLE_SPECS = ["1 : 1 1", "1 : 2 2\n2 : 1 1", "1 : 1 2"]
"""Problems that always reach the first search checkpoint (solvable)."""


def _wire_frames(client, op, params):
    """Send one request and return its complete frame transcript."""
    request_id = client._send_request(op, params)
    return request_id, list(client.frames(request_id))


# ----------------------------------------------------------------------
# Hello / feature advertisement
# ----------------------------------------------------------------------
class TestHello:
    def test_hello_announces_v3_and_cancel(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                hello = client.server_info
        assert hello["protocol"] == PROTOCOL_VERSION == 3
        assert hello["ops"] == list(OPERATIONS)
        assert "cancel" in hello["ops"]


# ----------------------------------------------------------------------
# Deadlines on the wire
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_classify_deadline_yields_timeout_result_frame(self):
        """A blown per-key deadline answers with outcome=timeout quickly."""
        problem = problem_to_dict(hard_problem(12))  # minutes uninterrupted
        with ThreadedService(backend="threads", workers=2) as address:
            with ServiceClient.connect_tcp(*address) as client:
                start = time.monotonic()
                payload = client.classify(problem, deadline_ms=250)
                elapsed = time.monotonic() - start
                stats = client.stats()
        assert payload["outcome"] == "timeout"
        assert payload["complexity"] is None
        assert payload["result"] is None
        assert elapsed < 8.0  # the minutes-long search was truly interrupted
        assert stats["workers"]["timeouts"] >= 1
        # The interrupted search never poisoned the shared cache.
        assert stats["cache"]["entries"] == 0

    def test_batch_deadline_streams_timeout_item_frames(self):
        """An already-expired budget times out every solvable item, on the
        wire as item frames with outcome=timeout and complexity=null."""
        with ThreadedService(backend="threads", workers=2) as address:
            with ServiceClient.connect_tcp(*address) as client:
                _id, frames = _wire_frames(
                    client,
                    "classify_batch",
                    {"problems": SOLVABLE_SPECS, "deadline_ms": 0.001},
                )
        kinds = [frame["type"] for frame in frames]
        assert kinds == ["item"] * len(SOLVABLE_SPECS) + ["done"]
        for frame in frames[:-1]:
            assert frame["data"]["outcome"] == "timeout"
            assert frame["data"]["complexity"] is None
        summary = frames[-1]["data"]
        assert summary["timeouts"] == len(SOLVABLE_SPECS)
        assert summary["cache_hits"] == 0 and summary["cache_misses"] == 0
        assert summary["hit_rate"] == 0.0  # nothing completed
        # One denominator: hits + misses + interrupted == count.
        assert (
            summary["cache_hits"]
            + summary["cache_misses"]
            + summary["timeouts"]
            + summary["cancelled"]
        ) == summary["count"]

    def test_census_with_deadline_tallies_timeouts(self):
        with ThreadedService(backend="threads", workers=2) as address:
            with ServiceClient.connect_tcp(*address) as client:
                summary = client.census(labels=2, count=12, seed=5, deadline_ms=0.001)
        counts = summary["counts"]
        assert sum(counts.values()) == 12
        # An already-expired budget times out deterministically, before any
        # search starts.
        assert counts.get("timeout", 0) == summary["timeouts"] > 0
        non_timeout = sum(
            count for value, count in counts.items() if value != "timeout"
        )
        assert summary["timeouts"] + non_timeout == 12

    def test_bad_deadline_and_priority_are_rejected(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                for params in (
                    {"problem": "1 : 1 1", "deadline_ms": -5},
                    {"problem": "1 : 1 1", "deadline_ms": "soon"},
                    {"problem": "1 : 1 1", "deadline_ms": True},
                    {"problem": "1 : 1 1", "priority": "urgent"},
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        client.request("classify", params)
                    assert excinfo.value.code == "bad-request"
                # The connection survives and still serves.
                assert client.classify("1 : 1 1")["complexity"] == "O(1)"

    def test_priorities_are_accepted_on_every_scheduling_op(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                assert client.classify("1 : 1 1", priority="interactive")["outcome"] == "ok"
                summary = client.classify_batch(
                    ["1 : 1 1"], priority="batch", deadline_ms=60000
                )
                assert summary["timeouts"] == 0
                census = client.census(labels=2, count=5, priority="warm")
                assert sum(census["counts"].values()) == 5
                warm = client.warm(
                    census={"labels": 2, "count": 5}, wait=True, priority="warm"
                )
                assert warm["waited"] is True


# ----------------------------------------------------------------------
# Cancellation on the wire
# ----------------------------------------------------------------------
def _cancel_until_found(address, request_id, timeout=10.0):
    """Retry ``cancel`` from a second connection until the id is in flight."""
    deadline = time.monotonic() + timeout
    with ServiceClient.connect_tcp(*address) as canceller:
        while time.monotonic() < deadline:
            payload = canceller.cancel(request_id)
            if payload["found"]:
                return payload
            time.sleep(0.02)
    raise AssertionError(f"request {request_id} never became cancellable")


class TestCancel:
    def test_cancel_unknown_request_is_not_found(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                payload = client.cancel("no-such-request")
        assert payload == {
            "request_id": "no-such-request",
            "found": False,
            "cancelled": 0,
        }

    def test_cancel_requires_a_request_id(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.request("cancel", {})
                assert excinfo.value.code == "bad-request"

    def test_cancel_interrupts_an_in_flight_classify(self):
        """Transcript: classify of a minutes-long search, cancelled from connection B;
        connection A receives a result frame with outcome=cancelled."""
        spec = problem_to_dict(hard_problem(12))
        with ThreadedService(backend="threads", workers=2) as address:
            with ServiceClient.connect_tcp(*address) as client:
                start = time.monotonic()
                request_id = client._send_request("classify", {"problem": spec})
                cancel_payload = _cancel_until_found(address, request_id)
                frames = list(client.frames(request_id))
                elapsed = time.monotonic() - start
        # `cancelled` counts submissions detached at response time; a cancel
        # racing the fan-out may report 0 yet still take effect below.
        assert cancel_payload["cancelled"] >= 0
        assert [frame["type"] for frame in frames] == ["result"]
        assert frames[0]["data"]["outcome"] == "cancelled"
        assert frames[0]["data"]["complexity"] is None
        assert elapsed < 8.0

    def test_cancel_spares_completed_items_of_a_batch(self):
        """Cancelling a batch kills only the still-running searches: items
        already classified stream as ok, the hard one as cancelled."""
        easy = "1 : 2 2\n2 : 1 1"
        hard = problem_to_dict(hard_problem(12))
        with ThreadedService(backend="threads", workers=2) as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id = client._send_request(
                    "classify_batch", {"problems": [easy, hard]}
                )
                _cancel_until_found(address, request_id)
                frames = list(client.frames(request_id))
        kinds = [frame["type"] for frame in frames]
        assert kinds == ["item", "item", "done"]
        outcomes = [frame["data"]["outcome"] for frame in frames[:-1]]
        # The hard key is always cancelled; the easy one races the cancel
        # and may land on either side — both are conforming transcripts.
        assert outcomes[1] == "cancelled"
        assert outcomes[0] in ("ok", "cancelled")
        summary = frames[-1]["data"]
        assert summary["cancelled"] == outcomes.count("cancelled")

    def test_cancel_of_an_inline_batch_skips_the_unstarted_items(self):
        """On the synchronous inline backend a batch submits item by item:
        a cancel after the first item frame lets the running search finish
        and streams every later item as cancelled, with a consistent summary."""
        specs = [
            problem_to_dict(form.problem)
            for form in distinct_forms(3, labels=2, density=0.5)
        ]
        slow = problem_to_dict(hard_problem(9))  # about a second inline
        problems = [specs[0], slow, specs[1], specs[2]]
        with ThreadedService(backend="inline") as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id = client._send_request(
                    "classify_batch", {"problems": problems}
                )
                frames = client.frames(request_id)
                first = next(frames)
                _cancel_until_found(address, request_id)
                frames = [first, *frames]
                stats = client.stats()
        kinds = [frame["type"] for frame in frames]
        assert kinds == ["item"] * len(problems) + ["done"]
        assert [frame["seq"] for frame in frames[:-1]] == list(range(len(problems)))
        outcomes = [frame["data"]["outcome"] for frame in frames[:-1]]
        assert outcomes[0] == "ok"
        # The running search cannot be interrupted inline; the rest never start.
        assert outcomes[1] in ("ok", "cancelled")
        assert outcomes[2:] == ["cancelled", "cancelled"]
        summary = frames[-1]["data"]
        assert summary["count"] == len(problems)
        assert summary["cancelled"] == outcomes.count("cancelled")
        assert summary["timeouts"] == 0
        assert summary["cache_hits"] + summary["cache_misses"] == outcomes.count("ok")
        assert stats["workers"]["flights"] == outcomes.count("ok")

    def test_workers_stats_report_cancellations(self):
        spec = problem_to_dict(hard_problem(12))
        with ThreadedService(backend="threads", workers=2) as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id = client._send_request("classify", {"problem": spec})
                _cancel_until_found(address, request_id)
                list(client.frames(request_id))
                stats = client.stats()
        workers = stats["workers"]
        assert workers["cancelled"] >= 1
        assert workers["slots_in_use"] == 0 or workers["in_flight"] >= 0
        assert workers["priorities"] == ["interactive", "batch", "warm"]


# ----------------------------------------------------------------------
# v2 backward compatibility
# ----------------------------------------------------------------------
class TestV2Compatibility:
    """Requests without the v3 fields behave exactly as protocol 2 (PR 3)."""

    V2_ITEM_KEYS = {
        "name",
        "complexity",
        "details",
        "from_cache",
        "canonical_key",
        "result",
        "elapsed_ms",
    }

    def test_plain_batch_transcript_shape_is_unchanged(self):
        problems = [random_problem(2, density=0.5, seed=seed) for seed in range(6)]
        specs = [problem_to_dict(problem) for problem in problems]
        with ThreadedService(backend="threads", workers=2) as address:
            with ServiceClient.connect_tcp(*address) as client:
                request_id, frames = _wire_frames(
                    client, "classify_batch", {"problems": specs}
                )
        kinds = [frame["type"] for frame in frames]
        assert kinds == ["item"] * 6 + ["done"]
        assert [frame["seq"] for frame in frames[:-1]] == list(range(6))
        for frame in frames[:-1]:
            data = frame["data"]
            # Every v2 field is present with its v2 meaning; the additions
            # are purely additive (outcome is always "ok" here).
            assert self.V2_ITEM_KEYS <= set(data)
            assert data["outcome"] == "ok"
            assert frame["id"] == request_id
        assert [frame["data"]["complexity"] for frame in frames[:-1]] == [
            classify(problem).complexity.value for problem in problems
        ]
        summary = frames[-1]["data"]
        for key in ("count", "cache_hits", "cache_misses", "hit_rate", "stats"):
            assert key in summary
        assert summary["timeouts"] == 0 and summary["cancelled"] == 0

    def test_plain_classify_and_census_complete_without_deadlines(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                payload = client.classify("1 : 2 2\n2 : 1 1")
                census = client.census(labels=2, count=10, seed=7)
        assert payload["complexity"] == "n^Theta(1)"
        assert payload["outcome"] == "ok"
        assert sum(census["counts"].values()) == 10
        assert "timeout" not in census["counts"]

    def test_warm_without_v3_fields_matches_pr3_summary(self):
        with ThreadedService() as address:
            with ServiceClient.connect_tcp(*address) as client:
                warm = client.warm(census={"labels": 2, "count": 8}, wait=True)
        assert warm["waited"] is True
        assert warm["scheduled"] == warm["unique_keys"] > 0
        assert warm["failed"] == 0
        assert warm["interrupted"] == 0
