"""IB-state coherence checking.

The paper's mechanisms all cache fragment pointers (IBTC entries, sieve
stubs, return-cache slots, link stubs, fast-return pad bindings) that a
whole-cache flush invalidates.  A single missed invalidation silently
corrupts every overhead number, so this module provides the watchdog: a
walk over *every* place a fragment pointer can hide, verifying that none
of them retains a stale (invalidated or unregistered) fragment, and that
every threaded-engine superblock plan still describes the fragment it is
attached to.

:class:`InvariantChecker` is the fragment cache's last holder, so it
runs the walk after every flush and every selective invalidation, once
every other holder has processed it, and accumulates a report;
:mod:`repro.eval.differential` reads its counts into every observation
of a faulted run.  :func:`collect_violations` can also be called
directly at any point, with or without fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sdt.cache import FragmentHolder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sdt.vm import SDTVM


@dataclass(frozen=True)
class CoherenceViolation:
    """One stale-pointer or incoherent-plan finding."""

    site: str    #: where the pointer lives ("ibtc", "links", "plan", ...)
    kind: str    #: "stale-fragment", "unregistered-fragment", "bad-plan"
    detail: str  #: human-readable description

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.site}] {self.kind}: {self.detail}"


class CoherenceError(AssertionError):
    """Raised by :func:`assert_coherent` when violations are present."""

    def __init__(self, violations: list[CoherenceViolation]):
        self.violations = violations
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(
            f"{len(violations)} IB-state coherence violation(s):\n{lines}"
        )


def _check_refs(site: str, refs, live_ids, violations) -> None:
    for ref in refs:
        if ref is None:
            continue
        if not ref.valid:
            violations.append(CoherenceViolation(
                site=site,
                kind="stale-fragment",
                detail=f"holds invalidated fragment {ref!r}",
            ))
        elif id(ref) not in live_ids:
            violations.append(CoherenceViolation(
                site=site,
                kind="unregistered-fragment",
                detail=f"holds live-looking fragment {ref!r} "
                f"that the cache does not know about",
            ))


def collect_violations(
    vm: "SDTVM", include_plans: bool = True
) -> list[CoherenceViolation]:
    """Walk every fragment-pointer store in ``vm`` and report stale state.

    Checked stores: the ``live_fragment_refs()`` of every fragment holder
    (:attr:`repro.sdt.cache.FragmentCache.holders`), reported under the
    holder's ``name``; every live fragment's link stubs; and every live
    fragment's attached superblock plan.

    ``include_plans=False`` skips the plan-coherence leg: the walk after
    a selective invalidation runs *between* flushes, where a
    fault-injected plan perturbation may legitimately sit un-executed
    (plan incoherence has its own detection + demotion path at execution
    time; it is not a stale-pointer bug).
    """
    violations: list[CoherenceViolation] = []
    live = vm.cache.fragments()
    live_ids = {id(fragment) for fragment in live}
    for holder in vm.cache.holders:
        _check_refs(holder.name, holder.live_fragment_refs(), live_ids,
                    violations)

    for fragment in live:
        for key, linked in fragment.links.items():
            if not linked.valid:
                violations.append(CoherenceViolation(
                    site="links",
                    kind="stale-fragment",
                    detail=f"{fragment!r} link {key!r} -> invalidated "
                    f"{linked!r}",
                ))
        plan = fragment.plan
        if (
            include_plans
            and plan is not None
            and hasattr(plan, "coherent_with")
            and not plan.coherent_with(fragment.guest_pc, fragment.instrs)
        ):
            violations.append(CoherenceViolation(
                site="plan",
                kind="bad-plan",
                detail=f"{fragment!r} carries a plan that does not "
                f"describe it (entry={plan.entry_pc:#x}, n={plan.n})",
            ))
    return violations


def assert_coherent(vm: "SDTVM") -> None:
    """Raise :class:`CoherenceError` if ``vm`` holds any stale IB state."""
    violations = collect_violations(vm)
    if violations:
        raise CoherenceError(violations)


class InvariantChecker(FragmentHolder):
    """Coherence watchdog bound to one VM, held last by its cache.

    It walks the VM after every flush and every selective invalidation,
    once every other holder has processed the event.  Findings
    accumulate in :attr:`violations` and are mirrored into
    ``stats.faults`` under ``invariant.violations`` so they travel with
    measurement results.
    """

    name = "invariant-checker"

    def __init__(self, vm: "SDTVM"):
        self.vm = vm
        self.flushes_checked = 0
        self.invalidations_checked = 0
        self.violations: list[CoherenceViolation] = []
        vm.cache.hold(self)

    def on_flush(self) -> None:
        self.flushes_checked += 1
        self._record("flushes_checked", collect_violations(self.vm))

    def scrub_invalid(self, dead) -> None:
        """Walk after a selective invalidation.  Plans are excluded:
        between flushes an injected plan perturbation may sit
        un-executed, and plan incoherence is caught (and demoted) at
        execution time."""
        self.invalidations_checked += 1
        self._record("invalidations_checked",
                     collect_violations(self.vm, include_plans=False))

    def _record(self, walk: str, found: list[CoherenceViolation]) -> None:
        stats = self.vm.stats
        stats.faults[f"invariant.{walk}"] += 1
        if found:
            self.violations.extend(found)
            stats.faults["invariant.violations"] += len(found)

    def report(self) -> dict:
        """JSON-ready summary of the walks and their findings."""
        return {
            "flushes_checked": self.flushes_checked,
            "invalidations_checked": self.invalidations_checked,
            "violations": [
                {"site": v.site, "kind": v.kind, "detail": v.detail}
                for v in self.violations
            ],
        }
