"""Per-site indirect-branch target fan-out analysis.

The paper motivates its mechanisms with the observation that most indirect
branch *sites* are monomorphic or nearly so (a BTB/IBTC entry captures
them), while a few megamorphic sites (interpreter dispatch, shared
returns) dominate dynamic dispatches.  This module measures that
distribution for any workload: for every guest IB site, the set of
distinct dynamic targets and the dispatch count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import INDIRECT_CLASSES, InstrClass
from repro.machine.interpreter import Interpreter
from repro.workloads import Workload, get_workload


@dataclass(slots=True)
class SiteProfile:
    """Dynamic behaviour of one indirect-branch site."""

    pc: int
    kind: str
    targets: set[int] = field(default_factory=set)
    dispatches: int = 0

    @property
    def fanout(self) -> int:
        return len(self.targets)


@dataclass(slots=True)
class FanoutProfile:
    """Whole-program IB site statistics."""

    sites: dict[int, SiteProfile]

    @property
    def total_dispatches(self) -> int:
        return sum(site.dispatches for site in self.sites.values())

    def sites_with_fanout(self, low: int, high: int | None = None) -> int:
        """Number of sites whose fan-out lies in [low, high]."""
        return sum(
            1
            for site in self.sites.values()
            if site.fanout >= low and (high is None or site.fanout <= high)
        )

    def dispatch_share(self, low: int, high: int | None = None) -> float:
        """Share of dynamic dispatches from sites with fan-out in range."""
        total = self.total_dispatches
        if total == 0:
            return 0.0
        covered = sum(
            site.dispatches
            for site in self.sites.values()
            if site.fanout >= low and (high is None or site.fanout <= high)
        )
        return covered / total

    @property
    def max_fanout(self) -> int:
        return max(
            (site.fanout for site in self.sites.values()), default=0
        )

    @property
    def weighted_mean_fanout(self) -> float:
        """Mean fan-out weighted by dispatch count."""
        total = self.total_dispatches
        if total == 0:
            return 0.0
        return sum(
            site.fanout * site.dispatches for site in self.sites.values()
        ) / total


class FanoutObserver:
    """Interpreter observer recording every IB site's dynamic targets.

    It charges no cycles (``model`` is ``None``).  The block engines call
    :meth:`exit` once per block, at its terminator, so profiling runs at
    block speed.
    """

    model = None

    def __init__(self) -> None:
        self.sites: dict[int, SiteProfile] = {}

    def exit(self, pc: int, iclass: InstrClass, next_pc: int) -> None:
        if iclass not in INDIRECT_CLASSES:
            return
        site = self.sites.get(pc)
        if site is None:
            site = SiteProfile(pc=pc, kind=iclass.value)
            self.sites[pc] = site
        site.targets.add(next_pc)
        site.dispatches += 1


def collect_fanout(
    workload: Workload | str,
    scale: str = "small",
    fuel: int = 30_000_000,
) -> FanoutProfile:
    """Run a workload natively and profile every IB site's targets."""
    if isinstance(workload, str):
        workload = get_workload(workload, scale)
    observer = FanoutObserver()
    Interpreter(workload.compile(), observer=observer).run(fuel)
    return FanoutProfile(sites=observer.sites)
