"""Static-vs-dynamic indirect-branch fan-out cross-validation.

Runs a workload under the reference interpreter with the E11 fan-out
observer, then joins every *dynamic* IB site against the *static*
classification from :mod:`repro.analysis`.  For each site the static
fan-out bound must be a sound upper bound:

- the dynamic fan-out count must not exceed the static bound, and
- when the static target set was recovered exactly, every dynamic target
  must be a member of it.

A violation means either the analyzer's recovery is wrong or the VM
executed control flow the image cannot express — so this is a correctness
oracle for both.  The report also quantifies *over*-approximation (bound
slack), which is the price of soundness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.analysis.classify import StaticAnalysis, analyze_program
from repro.analysis.targets import (
    TargetSetReport,
    VERDICT_UNKNOWN,
    build_report,
)
from repro.eval.fanout import FanoutProfile, collect_fanout
from repro.workloads import Workload, get_workload, workload_names


@dataclass(frozen=True, slots=True)
class SiteValidation:
    """Join of one IB site's static bound and dynamic behaviour."""

    pc: int
    kind: str                 # "ijump" | "icall" | "ret"
    role: str                 # static classification
    bounded: bool             # non-trivial static bound
    static_bound: int
    dynamic_fanout: int
    dispatches: int
    missing_targets: tuple[int, ...]   # dynamic targets outside the static set
    #: target-set verdict from repro.analysis.targets
    verdict: str = VERDICT_UNKNOWN
    verdict_bound: int = 0
    #: dynamic targets outside the *verdict's* set (must be empty unless
    #: the verdict is unknown — the tentpole soundness gate)
    verdict_missing: tuple[int, ...] = ()

    @property
    def sound(self) -> bool:
        return (
            self.dynamic_fanout <= self.static_bound
            and not self.missing_targets
            and not self.verdict_missing
        )

    @property
    def slack(self) -> int:
        """Over-approximation: bound minus observed fan-out."""
        return self.static_bound - self.dynamic_fanout

    @property
    def verdict_slack(self) -> int:
        """Over-approximation of the verdict set (precision measure)."""
        if self.verdict == VERDICT_UNKNOWN:
            return self.slack
        return self.verdict_bound - self.dynamic_fanout


@dataclass(slots=True)
class CrossValidation:
    """Whole-workload cross-validation result."""

    workload: str
    scale: str
    sites: list[SiteValidation]
    #: static sites the run never exercised (not a soundness issue)
    unexercised: int
    #: dynamic site pcs with no static site at all (always a bug)
    unknown_dynamic: tuple[int, ...]

    @property
    def all_sound(self) -> bool:
        return not self.unknown_dynamic and all(site.sound for site in self.sites)

    @property
    def violations(self) -> list[SiteValidation]:
        return [site for site in self.sites if not site.sound]

    @property
    def predicted_dispatch_share(self) -> float:
        """Dispatch-weighted fraction of dynamic IB resolutions the
        target-set analysis predicted (verdict not unknown and no
        escaping targets) — the static-vs-dynamic precision metric."""
        total = sum(site.dispatches for site in self.sites)
        if not total:
            return 0.0
        predicted = sum(
            site.dispatches
            for site in self.sites
            if site.verdict != VERDICT_UNKNOWN and not site.verdict_missing
        )
        return predicted / total

    def to_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "all_sound": self.all_sound,
            "sites": len(self.sites),
            "predicted_dispatch_share": round(
                self.predicted_dispatch_share, 6
            ),
            "unexercised_static_sites": self.unexercised,
            "unknown_dynamic_sites": list(self.unknown_dynamic),
            "violations": [
                {
                    "pc": site.pc,
                    "kind": site.kind,
                    "role": site.role,
                    "static_bound": site.static_bound,
                    "dynamic_fanout": site.dynamic_fanout,
                    "missing_targets": list(site.missing_targets),
                    "verdict": site.verdict,
                    "verdict_missing": list(site.verdict_missing),
                }
                for site in self.violations
            ],
            "per_site": [
                {
                    "pc": site.pc,
                    "kind": site.kind,
                    "role": site.role,
                    "bounded": site.bounded,
                    "static_bound": site.static_bound,
                    "dynamic_fanout": site.dynamic_fanout,
                    "dispatches": site.dispatches,
                    "slack": site.slack,
                    "sound": site.sound,
                    "verdict": site.verdict,
                    "verdict_bound": site.verdict_bound,
                    "verdict_slack": site.verdict_slack,
                }
                for site in self.sites
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format(self, limit: int = 10) -> str:
        verdict = "SOUND" if self.all_sound else "UNSOUND"
        lines = [
            f"{self.workload} [{self.scale}]: {len(self.sites)} exercised "
            f"IB sites, {self.unexercised} unexercised — {verdict} "
            f"(predicted {self.predicted_dispatch_share:.1%} of dispatches)",
        ]
        if self.unknown_dynamic:
            lines.append(
                "  dynamic sites missing from static analysis: "
                + ", ".join(f"{pc:#x}" for pc in self.unknown_dynamic)
            )
        for site in self.violations:
            lines.append(
                f"  VIOLATION {site.role} @ {site.pc:#010x}: "
                f"bound={site.static_bound} < fanout={site.dynamic_fanout} "
                f"or targets escape"
            )
        shown = sorted(self.sites, key=lambda s: -s.dispatches)[:limit]
        for site in shown:
            tag = "" if site.bounded else " (trivial bound)"
            lines.append(
                f"  {site.role:13s} @ {site.pc:#010x}: "
                f"fanout {site.dynamic_fanout}/{site.static_bound} "
                f"(slack {site.slack}), {site.dispatches} dispatches, "
                f"verdict {site.verdict}({site.verdict_bound}){tag}"
            )
        if len(self.sites) > limit:
            lines.append(f"  ... {len(self.sites) - limit} more site(s)")
        return "\n".join(lines)


def join_static_dynamic(
    analysis: StaticAnalysis,
    profile: FanoutProfile,
    workload: str = "?",
    scale: str = "?",
    report: TargetSetReport | None = None,
) -> CrossValidation:
    """Join a static analysis against a dynamic fan-out profile.

    When a :class:`TargetSetReport` is given, every site's verdict set is
    additionally checked against the observed targets (``verdict_missing``
    must stay empty — the tentpole soundness gate).
    """
    sites: list[SiteValidation] = []
    unknown: list[int] = []
    for pc, dyn in sorted(profile.sites.items()):
        static = analysis.sites.get(pc)
        if static is None:
            unknown.append(pc)
            continue
        missing: tuple[int, ...] = ()
        if static.bounded:
            missing = tuple(sorted(dyn.targets - set(static.targets)))
        verdict = VERDICT_UNKNOWN
        verdict_bound = 0
        verdict_missing: tuple[int, ...] = ()
        if report is not None:
            v = report.verdicts.get(pc)
            if v is not None:
                verdict = v.verdict
                verdict_bound = len(v.targets)
                if v.verdict != VERDICT_UNKNOWN:
                    verdict_missing = tuple(
                        sorted(dyn.targets - set(v.targets))
                    )
        sites.append(
            SiteValidation(
                pc=pc,
                kind=dyn.kind,
                role=static.role,
                bounded=static.bounded,
                static_bound=static.bound,
                dynamic_fanout=dyn.fanout,
                dispatches=dyn.dispatches,
                missing_targets=missing,
                verdict=verdict,
                verdict_bound=verdict_bound,
                verdict_missing=verdict_missing,
            )
        )
    unexercised = len(analysis.sites) - len(sites)
    return CrossValidation(
        workload=workload,
        scale=scale,
        sites=sites,
        unexercised=unexercised,
        unknown_dynamic=tuple(unknown),
    )


def cross_validate(
    workload: Workload | str,
    scale: str = "small",
    fuel: int = 30_000_000,
) -> CrossValidation:
    """Run one workload and cross-validate static bounds against it."""
    if isinstance(workload, str):
        workload = get_workload(workload, scale)
    program = workload.compile()
    analysis = analyze_program(program)
    report = build_report(program, analysis=analysis)
    profile = collect_fanout(workload, scale=scale, fuel=fuel)
    return join_static_dynamic(
        analysis, profile, workload=workload.name, scale=scale,
        report=report,
    )


def cross_validate_suite(
    scale: str = "small", fuel: int = 30_000_000
) -> list[CrossValidation]:
    """Cross-validate every registered workload."""
    return [
        cross_validate(name, scale=scale, fuel=fuel)
        for name in workload_names()
    ]
