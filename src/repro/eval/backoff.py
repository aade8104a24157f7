"""Deterministic exponential backoff for the executor's retry rounds.

The schedule is a pure function of a frozen :class:`BackoffPolicy` and a
1-based attempt number, so retry timing is reproducible across runs,
processes and hosts.  Tests exercise schedules with a fake sleeper;
nothing in this module sleeps unless the caller's injected sleeper does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class BackoffPolicy:
    """An exponential backoff schedule: ``base * factor**(attempt-1)``.

    Attributes:
        base: delay before the first retry, in seconds (0 disables
            backoff entirely — every delay is 0.0).
        factor: multiplier applied per additional attempt.
        ceiling: upper bound on any single delay.
    """

    base: float = 0.25
    factor: float = 2.0
    ceiling: float = 30.0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("backoff base must be >= 0")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.ceiling < 0:
            raise ValueError("backoff ceiling must be >= 0")

    def delay(self, attempt: int) -> float:
        """Delay in seconds before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if self.base <= 0:
            return 0.0
        return min(self.base * self.factor ** (attempt - 1), self.ceiling)


class Backoff:
    """Stateful schedule walker with an injectable sleeper.

    Each :meth:`sleep` call advances to the next attempt and sleeps for
    that attempt's delay via the injected callable — ``time.sleep`` by
    default, a fake clock in tests.
    """

    def __init__(
        self,
        policy: BackoffPolicy,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy
        self.attempt = 0
        self.slept = 0.0
        self._sleep = sleep

    def sleep(self) -> float:
        """Sleep for the next attempt's delay; returns the delay used."""
        self.attempt += 1
        delay = self.policy.delay(self.attempt)
        if delay > 0:
            self._sleep(delay)
        self.slept += delay
        return delay


__all__ = ["Backoff", "BackoffPolicy"]
