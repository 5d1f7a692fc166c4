"""Unit tests for request coalescing across a server's runners.

A :class:`~repro.serve.jobs.RunnerPool` gives all its runners one
single-flight :class:`~repro.runner.sweep.RunMemo`; these tests drive
that memo directly, as the runners do.  End-to-end coalescing through
``run_outcomes`` is covered in ``tests/runner/test_sweep.py`` and
``tests/serve/test_jobs.py``.
"""

import threading

import pytest

from repro.runner import RunConfig, SweepRunner
from repro.runner.faults import RunFailure
from repro.serve.jobs import RunnerPool

SCALE = 0.25


@pytest.fixture
def pool():
    pool = RunnerPool(size=2, workers=1)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def result():
    with SweepRunner(workers=1) as runner:
        return runner.run_one(RunConfig("SP", "BASE", scale=SCALE))


def failure(key):
    return RunFailure(
        key=key, benchmark="SP", scheme="BASE", config={},
        kind="exception", error="injected", wall_seconds=0.0,
    )


def test_first_caller_leads_later_callers_follow(pool):
    assert all(runner._memory is pool.memo for runner in pool._runners)
    memo = pool.memo
    assert memo.join("k1") is None  # the first caller leads
    running = memo.join("k1")
    assert running is not None and not running.done.is_set()
    assert memo.join("k1") is running  # every follower gets one marker
    assert memo.in_flight() == 1
    memo.publish("k1", failure("k1"))


def test_finish_publishes_to_followers_and_retires_the_key(pool, result):
    memo = pool.memo
    assert memo.join("k1") is None
    follower = memo.join("k1")
    outcome = failure("k1")
    memo.publish("k1", outcome)
    assert follower.done.wait(timeout=1)
    assert follower.outcome is outcome
    # A failure leaves the memo, so the next arrival leads again.
    assert memo.in_flight() == 0
    assert memo.finished() == 0
    assert memo.join("k1") is None
    fresh = memo.join("k1")
    assert fresh is not follower
    memo.publish("k1", result)
    assert fresh.outcome is result
    # A result stays, so later arrivals reuse it.
    assert memo.in_flight() == 0
    assert memo.join("k1") is result


def test_follower_blocks_until_leader_publishes(pool, result):
    memo = pool.memo
    assert memo.join("k1") is None
    follower = memo.join("k1")
    seen = []

    def wait():
        assert follower.done.wait(timeout=5)
        seen.append(follower.outcome)

    thread = threading.Thread(target=wait)
    thread.start()
    assert not seen  # still parked on the event
    memo.publish("k1", result)
    thread.join(timeout=5)
    assert seen == [result]


def test_distinct_keys_do_not_coalesce(pool):
    memo = pool.memo
    assert memo.join("a") is None
    assert memo.join("b") is None
    assert memo.in_flight() == 2
    memo.publish("a", failure("a"))
    memo.publish("b", failure("b"))
    assert memo.in_flight() == 0
