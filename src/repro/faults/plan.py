"""Deterministic fault plans.

A :class:`FaultPlan` declares *what* to break and *how often*: per-site
event rates plus the seed that makes every injected fault sequence
reproducible.  :mod:`repro.faults.inject` turns a plan into deterministic
per-site event streams; the SDT consults those streams at fixed points
(fragment-cache reservation, IB-table probes, translation), so a given
``(plan, workload, config)`` triple always injects byte-identical fault
sequences — across processes, across runs, and across execution engines.

Plans ride on :class:`repro.sdt.config.SDTConfig` as the ``faults`` field.
Like ``engine``, the field is *fingerprint-exempt*: faults may never change
architectural results (only cycle counts), so a plan must not split the
config-level cache keys.  The evaluation layer separately refuses to serve
fault-free cached measurements to faulted cells — see
:meth:`repro.eval.cells.Cell.cacheable`.

The ``REPRO_FAULTS`` environment variable supplies the default plan (the
``differential`` CI job sets it for the whole test suite):

- ``off`` / ``none`` / ``0`` / empty — no injection (``None``),
- a profile name — ``light``, ``chaos`` or ``storm``,
- ``<profile>:<seed>`` — profile with an explicit seed,
- ``k=v,k=v,...`` — explicit field list (``seed=7,flush_storm=0.5``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

#: Environment variable holding the default fault plan spec.
ENV_VAR = "REPRO_FAULTS"

#: The injectable fault sites (rate fields of :class:`FaultPlan`).
RATE_FIELDS = (
    "flush_storm",      # forced whole-cache flush per reservation
    "table_drop",       # drop the probed IBTC/sieve entry
    "table_corrupt",    # replace it with a stale (invalid) fragment ref
    "translate_fail",   # abort a translation mid-fragment
    "plan_perturb",     # corrupt a threaded-engine superblock plan
)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded per-site fault rates.  All rates are probabilities in [0, 1].

    Attributes:
        seed: base seed for every per-site event stream.
        flush_storm: chance per :meth:`FragmentCache.reserve` call of
            forcing a whole-cache flush regardless of occupancy.
        table_drop: chance per IBTC/sieve dispatch of dropping the probed
            table entry (simulates lost fills).
        table_corrupt: chance per IBTC/sieve dispatch of replacing the
            probed entry with a stale, invalidated fragment reference
            (simulates a missed flush invalidation).
        translate_fail: chance per translation of aborting mid-fragment
            after the decode work has been charged.
        plan_perturb: chance per translation of corrupting the attached
            superblock plan's metadata (threaded engine only; detected by
            the coherence check and demoted to the oracle engine).
    """

    seed: int = 1234
    flush_storm: float = 0.0
    table_drop: float = 0.0
    table_corrupt: float = 0.0
    translate_fail: float = 0.0
    plan_perturb: float = 0.0

    def __post_init__(self) -> None:
        for name in RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.table_drop + self.table_corrupt > 1.0:
            raise ValueError(
                "table_drop + table_corrupt must not exceed 1.0 "
                "(they share one event draw per dispatch)"
            )

    @property
    def active(self) -> bool:
        """True when at least one fault site can fire."""
        return any(getattr(self, name) > 0.0 for name in RATE_FIELDS)

    def fingerprint(self) -> tuple:
        """Canonical hashable identity covering every declared field.

        Used by :meth:`repro.eval.cells.Cell.fingerprint` so faulted
        cells never alias fault-free ones in a batch (SDTConfig's own
        fingerprint deliberately excludes the plan).
        """
        return tuple(
            (spec.name, getattr(self, spec.name)) for spec in fields(self)
        )

    def describe(self) -> str:
        """Canonical spec string (parses back to an equal plan)."""
        for name, rates in PROFILES.items():
            if replace(self, seed=DEFAULT_SEED) == FaultPlan(**rates):
                return f"{name}:{self.seed}"
        parts = [f"seed={self.seed}"]
        parts += [
            f"{name}={getattr(self, name):g}"
            for name in RATE_FIELDS
            if getattr(self, name) > 0.0
        ]
        return ",".join(parts)


DEFAULT_SEED = 1234

#: Named fault profiles.  ``light`` barely perturbs a run, ``chaos`` is the
#: CI stress level (every site fires regularly but runs stay fast), and
#: ``storm`` is flush-heavy pressure for targeted cache-coherence tests.
PROFILES: dict[str, dict[str, float]] = {
    "light": dict(
        flush_storm=0.01, table_drop=0.02, table_corrupt=0.01,
        translate_fail=0.005, plan_perturb=0.002,
    ),
    "chaos": dict(
        flush_storm=0.04, table_drop=0.08, table_corrupt=0.04,
        translate_fail=0.02, plan_perturb=0.01,
    ),
    "storm": dict(
        flush_storm=0.25, table_drop=0.15, table_corrupt=0.10,
        translate_fail=0.05, plan_perturb=0.02,
    ),
}

_OFF = ("", "off", "none", "0")


def parse_fault_plan(spec: str | FaultPlan | None) -> FaultPlan | None:
    """Parse a ``REPRO_FAULTS``-style spec into a plan (or ``None``).

    Accepts an existing plan (pass-through), ``None``/off-words, a profile
    name with optional ``:seed``, or a comma-separated ``k=v`` list.
    """
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    text = spec.strip().lower()
    if text in _OFF:
        return None

    head, _, seed_text = text.partition(":")
    if head in PROFILES:
        seed = DEFAULT_SEED
        if seed_text:
            try:
                seed = int(seed_text)
            except ValueError:
                raise ValueError(
                    f"bad fault-plan seed {seed_text!r} in {spec!r}"
                ) from None
        return FaultPlan(seed=seed, **PROFILES[head])

    values: dict[str, object] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in ("seed",) + RATE_FIELDS:
            raise ValueError(
                f"bad fault-plan spec {spec!r}: expected a profile name "
                f"({', '.join(PROFILES)}), 'off', or k=v pairs over "
                f"seed/{'/'.join(RATE_FIELDS)}"
            )
        try:
            values[key] = int(value) if key == "seed" else float(value)
        except ValueError:
            raise ValueError(
                f"bad value {value!r} for {key!r} in fault plan {spec!r}"
            ) from None
    plan = FaultPlan(**values)
    return plan if plan.active else None


def default_fault_plan() -> FaultPlan | None:
    """Plan selected by ``REPRO_FAULTS`` (default: no injection)."""
    return parse_fault_plan(os.environ.get(ENV_VAR))
