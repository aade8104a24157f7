"""Indirect-branch handling mechanisms.

Each mechanism maps a dynamic guest target address to the fragment-cache
address of the translated target, charging its dispatch-code cost and the
host-level branch behaviour it induces:

- :class:`repro.sdt.ib.reentry.TranslatorReentry` — the unoptimised
  baseline: full context switch into the translator for every IB.
- :class:`repro.sdt.ib.ibtc.IBTC` — inlined probe of a direct-mapped
  software translation cache (shared or per-site).
- :class:`repro.sdt.ib.sieve.Sieve` — dispatch into hash buckets of
  compare-and-branch stubs.
- :mod:`repro.sdt.ib.returns` — return-specific schemes: fast returns,
  shadow return stack, return cache (without one, returns dispatch
  through the generic mechanism).
"""

from repro.sdt.ib.base import IBMechanism, Mechanism, ReturnMechanism
from repro.sdt.ib.factory import build_mechanisms
from repro.sdt.ib.ibtc import IBTC
from repro.sdt.ib.predict import InlinePrediction
from repro.sdt.ib.reentry import TranslatorReentry
from repro.sdt.ib.returns import FastReturns, ReturnCache, ShadowReturnStack
from repro.sdt.ib.sieve import Sieve

__all__ = [
    "FastReturns",
    "IBMechanism",
    "InlinePrediction",
    "IBTC",
    "Mechanism",
    "ReturnCache",
    "ReturnMechanism",
    "ShadowReturnStack",
    "Sieve",
    "TranslatorReentry",
    "build_mechanisms",
]
