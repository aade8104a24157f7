"""Builds mechanism objects from an :class:`repro.sdt.config.SDTConfig`."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sdt.ib.base import IBMechanism, ReturnMechanism
from repro.sdt.ib.ibtc import IBTC
from repro.sdt.ib.predict import InlinePrediction
from repro.sdt.ib.reentry import TranslatorReentry
from repro.sdt.ib.returns import FastReturns, ReturnCache, ShadowReturnStack
from repro.sdt.ib.sieve import Sieve

if TYPE_CHECKING:  # pragma: no cover
    from repro.sdt.config import SDTConfig


def build_generic(config: "SDTConfig") -> IBMechanism:
    """Instantiate the generic (jr/jalr) mechanism."""
    if config.ib == "reentry":
        return TranslatorReentry()
    if config.ib == "ibtc":
        return IBTC(
            entries=config.ibtc_entries,
            shared=config.ibtc_shared,
            inline=config.ibtc_inline,
            hash_kind=config.ibtc_hash,
        )
    if config.ib == "sieve":
        return Sieve(buckets=config.sieve_buckets, policy=config.sieve_policy)
    raise ValueError(f"unknown ib mechanism {config.ib!r}")


def build_mechanisms(
    config: "SDTConfig",
) -> tuple[IBMechanism, ReturnMechanism | None]:
    """Instantiate (generic mechanism, return mechanism) for a config.

    Under ``returns="same"`` there is no return mechanism: returns
    dispatch through the generic one.  Every other scheme uses the
    generic mechanism as its fallback path, as in Strata (a shadow-stack
    mismatch, for instance, drops into the IBTC).
    """
    generic = build_generic(config)
    if config.inline_predict:
        generic = InlinePrediction(generic)
    returns: ReturnMechanism | None
    if config.returns == "same":
        returns = None
    elif config.returns == "fast":
        returns = FastReturns(fallback=generic)
    elif config.returns == "shadow":
        returns = ShadowReturnStack(
            fallback=generic, depth=config.shadow_depth
        )
    elif config.returns == "retcache":
        returns = ReturnCache(entries=config.retcache_entries)
    else:
        raise ValueError(f"unknown return scheme {config.returns!r}")
    return generic, returns
