"""IB-state coherence checking.

The paper's mechanisms all cache fragment pointers (IBTC entries, sieve
stubs, return-cache slots, link stubs, fast-return pad bindings) that a
whole-cache flush invalidates.  A single missed invalidation silently
corrupts every overhead number, so this module provides the watchdog: a
walk over *every* place a fragment pointer can hide, verifying that none
of them retains a stale (invalidated or unregistered) fragment, and that
every threaded-engine superblock plan still describes the fragment it is
attached to.

:class:`InvariantChecker` runs the walk after every flush (it registers
its hook *after* the mechanisms', so it sees their post-invalidation
state) and accumulates a report; :mod:`repro.eval.differential` reads
its counts into every observation of a faulted run.
:func:`collect_violations` can also be called directly at any point, with
or without fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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

    Checked stores: the generic IB mechanism and the return mechanism
    (via their ``live_fragment_refs()``), the static-targets runtime's
    devirtualized edges (when bound), the tier-2 region engine's member
    fragments (when bound), every live fragment's link stubs, and every
    live fragment's attached superblock plan.

    ``include_plans=False`` skips the plan-coherence leg: the coherence
    manager's post-invalidation walk runs *between* flushes, where a
    fault-injected plan perturbation may legitimately sit un-executed
    (plan incoherence has its own detection + demotion path at execution
    time; it is not a stale-pointer bug).
    """
    violations: list[CoherenceViolation] = []
    live = vm.cache.fragments()
    live_ids = {id(fragment) for fragment in live}

    _check_refs(
        vm.generic_ib.name, vm.generic_ib.live_fragment_refs(),
        live_ids, violations,
    )
    _check_refs(
        vm.return_mech.name, vm.return_mech.live_fragment_refs(),
        live_ids, violations,
    )
    static_rt = getattr(vm, "static_rt", None)
    if static_rt is not None:
        _check_refs(
            "static-devirt", static_rt.live_fragment_refs(),
            live_ids, violations,
        )
    tier2 = getattr(vm, "_tier2", None)
    if tier2 is not None:
        _check_refs(
            "tier2-region", tier2.live_fragment_refs(),
            live_ids, violations,
        )

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


class InvariantChecker:
    """Post-flush coherence watchdog bound to one VM.

    Install with :meth:`install` *after* the IB mechanisms have bound
    (flush hooks run in registration order, and the checker must observe
    the tables after they processed the flush).  Findings accumulate in
    :attr:`violations` and are mirrored into ``stats.faults`` under
    ``invariant.violations`` so they travel with measurement results.
    """

    def __init__(self, vm: "SDTVM"):
        self.vm = vm
        self.flushes_checked = 0
        self.invalidations_checked = 0
        self.violations: list[CoherenceViolation] = []

    def install(self) -> None:
        self.vm.cache.on_flush(self._on_flush)

    def _on_flush(self) -> None:
        self.flushes_checked += 1
        found = collect_violations(self.vm)
        stats = self.vm.stats
        stats.faults["invariant.flushes_checked"] += 1
        if found:
            self.violations.extend(found)
            stats.faults["invariant.violations"] += len(found)

    def on_invalidate(self) -> None:
        """Coherence site: walk after each selective invalidation.

        The coherence manager calls this once it has finished scrubbing
        the mechanisms/static runtime, so any surviving stale pointer is
        a real missed scrub.  Plans are excluded — between flushes an
        injected plan perturbation may sit un-executed, and plan
        incoherence is caught (and demoted) at execution time.
        """
        self.invalidations_checked += 1
        found = collect_violations(self.vm, include_plans=False)
        stats = self.vm.stats
        stats.faults["invariant.invalidations_checked"] += 1
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
