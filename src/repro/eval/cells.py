"""Experiment cells: the schedulable, persistable unit of evaluation work.

A :class:`Cell` names one simulation the experiment grid needs — a
verified SDT measurement, a native-baseline run, or a fan-out profile —
together with everything that determines its result (workload source,
scale, fuel, full config/profile field set, and a code-version salt).
Cells are plain picklable values, so the executor in
:mod:`repro.eval.parallel` can ship them to worker processes, and their
:meth:`Cell.fingerprint` is a *complete* content address, so
:mod:`repro.eval.diskcache` can persist results across processes and
invocations without ever serving a stale or aliased entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from functools import cached_property

import repro
from repro.eval.fanout import FanoutProfile, SiteProfile, collect_fanout
from repro.eval.runner import (
    DEFAULT_FUEL,
    Measurement,
    NativeBaseline,
    measure,
    run_native,
)
from repro.host.profile import ArchProfile
from repro.sdt.config import SDTConfig
from repro.workloads import Workload, get_workload

#: Cache-invalidation salt: folded into every fingerprint so results
#: simulated by an older code version are recomputed, never trusted.
CODE_SALT = f"repro/{repro.__version__}"

#: Result type of each cell kind (documentation aid; see decode_result).
CELL_KINDS = ("measure", "native", "fanout")


@dataclass(frozen=True)
class Cell:
    """One (workload, scale, profile/config, fuel) grid cell.

    ``workload`` is either a registered workload name (resolved at the
    given scale) or an inline :class:`Workload` object (the E12
    microbenchmarks).  Exactly one of ``config`` (measure cells) and
    ``profile`` (native cells) is set; fan-out cells carry neither.
    """

    kind: str
    workload: Workload | str
    scale: str
    fuel: int = DEFAULT_FUEL
    config: SDTConfig | None = None
    profile: ArchProfile | None = None

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown cell kind {self.kind!r}; expected one of {CELL_KINDS}"
            )
        if self.kind == "measure" and self.config is None:
            raise ValueError("measure cells need a config")
        if self.kind == "native" and self.profile is None:
            raise ValueError("native cells need a profile")

    def resolve(self) -> Workload:
        if isinstance(self.workload, Workload):
            return self.workload
        return get_workload(self.workload, self.scale)

    @property
    def workload_name(self) -> str:
        if isinstance(self.workload, Workload):
            return self.workload.name
        return self.workload

    @property
    def label(self) -> str:
        """Human-readable identity for progress output."""
        base = f"{self.workload_name}[{self.scale}]"
        if self.kind == "measure":
            assert self.config is not None
            return f"{base} {self.config.label} @{self.config.profile.name}"
        if self.kind == "native":
            assert self.profile is not None
            return f"{base} native @{self.profile.name}"
        return f"{base} fanout"

    def fingerprint(self) -> tuple:
        """Complete content address of this cell's result.

        Covers the workload *source* (not just its name), the full
        config/profile field sets (the fault plan included), scale, fuel,
        and :data:`CODE_SALT`.  Equal fingerprints imply byte-identical
        results.  Computed once per cell: the fields are frozen.
        """
        return self._address[0]

    def key(self) -> str:
        """Hex digest of :meth:`fingerprint` — dict and file-name safe."""
        return self._address[1]

    @cached_property
    def _address(self) -> tuple[tuple, str]:
        workload = self.resolve()
        source_digest = hashlib.sha256(
            workload.source.encode("utf-8")
        ).hexdigest()
        parts: list[tuple[str, object]] = [
            ("salt", CODE_SALT),
            ("kind", self.kind),
            ("workload", workload.name),
            ("scale", self.scale),
            ("source", source_digest),
            ("fuel", self.fuel),
        ]
        if self.config is not None:
            parts.append(("config", self.config.fingerprint()))
        if self.profile is not None:
            parts.append(("profile", self.profile.fingerprint()))
        fingerprint = tuple(parts)
        digest = hashlib.sha256(repr(fingerprint).encode("utf-8"))
        return fingerprint, digest.hexdigest()

    def execute(self) -> Measurement | NativeBaseline | FanoutProfile:
        """Run this cell (in the current process, via the memoised runner)."""
        if self.kind == "measure":
            assert self.config is not None
            return measure(
                self.resolve(), self.config, scale=self.scale, fuel=self.fuel
            )
        if self.kind == "native":
            assert self.profile is not None
            return run_native(
                self.resolve(), self.profile, scale=self.scale, fuel=self.fuel
            )
        return collect_fanout(self.resolve(), scale=self.scale, fuel=self.fuel)


def measure_cell(
    workload: Workload | str,
    scale: str,
    config: SDTConfig,
    fuel: int = DEFAULT_FUEL,
) -> Cell:
    return Cell(kind="measure", workload=workload, scale=scale, fuel=fuel,
                config=config)


def native_cell(
    workload: Workload | str,
    scale: str,
    profile: ArchProfile,
    fuel: int = DEFAULT_FUEL,
) -> Cell:
    return Cell(kind="native", workload=workload, scale=scale, fuel=fuel,
                profile=profile)


def fanout_cell(
    workload: Workload | str, scale: str, fuel: int = DEFAULT_FUEL
) -> Cell:
    return Cell(kind="fanout", workload=workload, scale=scale, fuel=fuel)


# -- result (de)serialisation for the disk cache ------------------------------


def encode_result(
    result: Measurement | NativeBaseline | FanoutProfile,
) -> dict:
    """JSON-serialisable payload for a cell result (tagged by type)."""
    if isinstance(result, Measurement):
        return {"type": "measurement", "data": asdict(result)}
    if isinstance(result, NativeBaseline):
        return {"type": "native", "data": asdict(result)}
    if isinstance(result, FanoutProfile):
        sites = [
            {
                "pc": site.pc,
                "kind": site.kind,
                "targets": sorted(site.targets),
                "dispatches": site.dispatches,
            }
            for site in sorted(result.sites.values(), key=lambda s: s.pc)
        ]
        return {"type": "fanout", "data": {"sites": sites}}
    raise TypeError(f"cannot encode cell result of type {type(result)!r}")


def decode_result(
    payload: dict,
) -> Measurement | NativeBaseline | FanoutProfile:
    """Inverse of :func:`encode_result`; raises on malformed payloads."""
    kind = payload["type"]
    data = payload["data"]
    if kind == "measurement":
        return Measurement(**data)
    if kind == "native":
        return NativeBaseline(**data)
    if kind == "fanout":
        return FanoutProfile(
            sites={
                site["pc"]: SiteProfile(
                    pc=site["pc"],
                    kind=site["kind"],
                    targets=set(site["targets"]),
                    dispatches=site["dispatches"],
                )
                for site in data["sites"]
            }
        )
    raise ValueError(f"unknown cell result type {kind!r}")
