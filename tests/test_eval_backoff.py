"""Backoff policy unit tests — fake clocks and sleepers, no real waits."""

import pytest

from repro.eval.backoff import Backoff, BackoffPolicy
from repro.eval.parallel import execute_cells


class TestBackoffPolicy:
    def test_exponential_schedule(self):
        policy = BackoffPolicy(base=0.5, factor=2.0, ceiling=30.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0
        assert policy.delay(4) == 4.0

    def test_ceiling_is_hard_bound(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, ceiling=8.0)
        assert policy.delay(10) == 8.0
        assert policy.delay(100) == 8.0

    def test_attempt_below_one_raises(self):
        policy = BackoffPolicy()
        with pytest.raises(ValueError):
            policy.delay(0)

    @pytest.mark.parametrize("kwargs", [
        {"base": -1.0}, {"factor": 0.5}, {"ceiling": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_zero_base_disables_backoff(self):
        policy = BackoffPolicy(base=0.0)
        assert [policy.delay(n) for n in range(1, 6)] == [0.0] * 5


class TestBackoffWalker:
    def test_sleeps_follow_schedule_with_fake_sleeper(self):
        slept = []
        policy = BackoffPolicy(base=0.5, factor=2.0, ceiling=30.0)
        pacer = Backoff(policy, sleep=slept.append)
        for _ in range(3):
            pacer.sleep()
        assert slept == [0.5, 1.0, 2.0]
        assert pacer.slept == pytest.approx(3.5)
        assert pacer.attempt == 3

    def test_sleep_returns_the_delay(self):
        pacer = Backoff(BackoffPolicy(base=0.25), sleep=lambda _: None)
        assert pacer.sleep() == 0.25


class _BoomCell:
    """Minimal always-failing duck-typed cell (picklable)."""

    cacheable = True
    label = "fake:boom"

    def key(self):
        return "key-boom"

    def execute(self):
        raise ValueError("boom")


class TestExecutorIntegration:
    """The executor accepts a BackoffPolicy and never really sleeps in
    tests thanks to sub-millisecond bases."""

    def test_execute_cells_accepts_policy_serial(self):
        policy = BackoffPolicy(base=0.001, ceiling=0.002)
        results, report = execute_cells([_BoomCell()], jobs=1, retries=2,
                                        backoff=policy)
        assert results == {}
        [failure] = report.failures.values()
        assert failure.attempts == 3

    def test_execute_cells_accepts_float_backoff_still(self):
        results, report = execute_cells([_BoomCell()], jobs=1, retries=1,
                                        backoff=0.001)
        assert results == {}
        [failure] = report.failures.values()
        assert failure.attempts == 2
