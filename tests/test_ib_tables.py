"""Occupied-slot IB tables: flush, scrub, slot conflicts and keys.

The IBTC (shared and per-site), the return cache and the sieve store
only occupied entries, each a bare fragment whose ``guest_pc`` is the
tag a probe compares, so a flush or a selective-invalidation scrub
costs what a table holds, not its capacity.  These tests pin the
behaviour that must not change with the storage: a flush leaves no
entry, a selective invalidation scrubs exactly the invalid fragments
(fault-injected tombstones included) and keeps every valid one, in
order, two targets hashing to one IBTC or return-cache slot still evict
each other, and after faulted runs every fragment sits where its own
guest address puts it.
"""

from __future__ import annotations

import pytest

from repro.faults.inject import tombstone
from repro.host.profile import SIMPLE
from repro.sdt.config import SDTConfig
from repro.sdt.ib.base import Mechanism
from repro.sdt.ib.ibtc import IBTC, ibtc_index
from repro.sdt.ib.predict import InlinePrediction
from repro.sdt.ib.returns import FastReturns, ReturnCache
from repro.sdt.ib.sieve import Sieve
from repro.sdt.vm import SDTVM
from repro.workloads import get_workload

#: exact table contents and hit/miss counts are clean-spec behaviour
pytestmark = pytest.mark.usefixtures("no_faults")

#: synthetic guest address of the indirect branch the tests dispatch from
_SITE = 0x4000

TABLES = {
    "ibtc-shared": dict(ib="ibtc"),
    "ibtc-persite": dict(ib="ibtc", ibtc_shared=False),
    "retcache": dict(ib="reentry", returns="retcache"),
    "sieve": dict(ib="sieve"),
}


def _vm(**config):
    """A VM that ran gzip_like to completion, its tables filled."""
    vm = SDTVM(get_workload("gzip_like", "tiny").compile(),
               config=SDTConfig(profile=SIMPLE, **config))
    assert vm.run().exit_code == 0
    return vm


def _mechanism(vm):
    if isinstance(vm.return_mech, ReturnCache):
        return vm.return_mech
    return vm.generic_ib


def _entries(mech) -> list:
    """Every stored fragment, in table order."""
    if isinstance(mech, Sieve):
        return [frag for chain in mech._chains.values() for frag in chain]
    return [frag for table in mech.tables() for frag in table.values()]


def _storage(mech) -> dict:
    """The mechanism's top-level container of occupied entries."""
    if isinstance(mech, IBTC):
        if mech._shared_table is not None:
            return mech._shared_table
        return mech._site_tables
    if isinstance(mech, ReturnCache):
        return mech._table
    return mech._chains


def _plant_tombstone(mech) -> None:
    """Replace the first stored fragment with a stale copy of itself, as
    a fault-injected corruption would."""
    if isinstance(mech, Sieve):
        chain = next(chain for chain in mech._chains.values() if chain)
        chain[0] = tombstone(chain[0])
    else:
        table = next(table for table in mech.tables() if table)
        index, frag = next(iter(table.items()))
        table[index] = tombstone(frag)


def _dispatch(vm, mech, target: int):
    site = vm.cache.fragments()[0]
    if isinstance(mech, ReturnCache):
        return mech.dispatch_ret(site, _SITE, target)
    return mech.dispatch(site, _SITE, target)


def _counts(vm, mech) -> tuple[int, int]:
    stats = vm.stats.mechanism
    return stats[f"{mech.name}.hit"], stats[f"{mech.name}.miss"]


@pytest.mark.parametrize("kind", TABLES)
def test_flush_leaves_no_entry(kind):
    vm = _vm(**TABLES[kind])
    mech = _mechanism(vm)
    assert _entries(mech), "the run should have filled the table"
    vm.cache.flush()
    assert _entries(mech) == []
    assert not _storage(mech)
    assert mech.live_fragment_refs() == []


@pytest.mark.parametrize("kind", TABLES)
def test_scrub_removes_exactly_the_invalid_entries(kind):
    vm = _vm(**TABLES[kind])
    mech = _mechanism(vm)
    _plant_tombstone(mech)
    before = _entries(mech)
    valid = [frag for frag in before if frag.valid]
    assert len(valid) >= 2, "need a fragment to kill and one to keep"
    victim = valid[0]
    expected = [frag for frag in valid if frag is not victim]
    assert expected and len(expected) < len(before) - 1

    # the cache has every holder scrub as part of the invalidation
    assert vm.cache.invalidate([victim]) == 1

    after = _entries(mech)
    assert [frag.guest_pc for frag in after] == \
        [frag.guest_pc for frag in expected]
    assert all(a is e for a, e in zip(after, expected))
    assert all(frag.valid for frag in mech.live_fragment_refs())


@pytest.mark.parametrize(
    "kind, config",
    [
        ("ibtc-shared", dict(ib="ibtc", ibtc_entries=1)),
        ("ibtc-persite", dict(ib="ibtc", ibtc_shared=False,
                              ibtc_entries=1)),
        ("retcache", dict(ib="reentry", returns="retcache",
                          retcache_entries=1)),
    ],
)
def test_one_slot_targets_evict_each_other(kind, config):
    vm = _vm(**config)
    mech = _mechanism(vm)
    first, second = (frag.guest_pc for frag in vm.cache.fragments()[:2])
    _dispatch(vm, mech, first)
    hits, misses = _counts(vm, mech)
    assert _dispatch(vm, mech, first).guest_pc == first
    assert _counts(vm, mech) == (hits + 1, misses)
    assert _dispatch(vm, mech, second).guest_pc == second
    assert _dispatch(vm, mech, first).guest_pc == first
    # each of the last two evicted the other target from the one slot
    assert _counts(vm, mech) == (hits + 1, misses + 2)
    table = (mech._site_tables[_SITE] if kind == "ibtc-persite"
             else _storage(mech))
    (entry,) = table.values()
    assert entry.guest_pc == first


def test_sieve_bucket_keeps_both_targets():
    """The sieve chains colliding targets instead of evicting them."""
    vm = _vm(ib="sieve", sieve_buckets=1)
    mech = _mechanism(vm)
    first, second = (frag.guest_pc for frag in vm.cache.fragments()[:2])
    for target in (first, second):
        _dispatch(vm, mech, target)
    hits, misses = _counts(vm, mech)
    for target in (first, second):
        assert _dispatch(vm, mech, target).guest_pc == target
    assert _counts(vm, mech) == (hits + 2, misses)
    assert list(mech._chains) == [0]


#: the tables above plus the fast-return pads, under the chaos plan
#: (dropped and corrupted entries) and a flush storm at 1 KiB
FAULTED = {
    f"{kind}-{plan.split(':')[0]}": dict(config, faults=plan, **extra)
    for kind, config in {**TABLES, "fast": dict(returns="fast")}.items()
    for plan, extra in (("chaos:1234", {}),
                        ("storm:1234", dict(fragment_cache_bytes=1024)))
}


@pytest.mark.parametrize("kind", FAULTED)
def test_fragments_sit_where_their_guest_pc_puts_them(kind):
    """A table's key is derived from its fragment's own ``guest_pc``:
    an IBTC entry and a return-cache slot at the index that address
    hashes to, a sieve stub in that bucket, a fast-return binding at the
    pad of that guest address."""
    vm = _vm(**FAULTED[kind])
    mech = vm.return_mech if vm.return_mech is not None else vm.generic_ib
    if isinstance(mech, IBTC):
        placed = [(index, ibtc_index(frag.guest_pc, mech._mask,
                                     mech.hash_kind))
                  for table in mech.tables() for index, frag in table.items()]
    elif isinstance(mech, Sieve):
        placed = [(index, ibtc_index(frag.guest_pc, mech._mask))
                  for index, chain in mech._chains.items() for frag in chain]
    elif isinstance(mech, ReturnCache):
        placed = [(index, (frag.guest_pc >> 2) & mech._mask)
                  for index, frag in mech._table.items()]
    else:
        assert isinstance(mech, FastReturns)
        placed = [(mech._guest_for_pad[pad], frag.guest_pc)
                  for pad, frag in mech._pad_fragment.items()]
    assert placed, "the run should have left entries"
    assert all(key == expected for key, expected in placed)


@pytest.mark.parametrize(
    "cls", (IBTC, ReturnCache, FastReturns, InlinePrediction),
    ids=lambda cls: cls.__name__)
def test_table_holders_keep_the_shared_hooks(cls):
    """A mechanism whose state is key -> fragment tables declares them
    (``tables``) and keeps ``Mechanism``'s scrub and walk; only the IBTC
    flushes more, dropping its per-site tables."""
    assert cls.tables is not Mechanism.tables
    assert cls.scrub_invalid is Mechanism.scrub_invalid
    assert cls.live_fragment_refs is Mechanism.live_fragment_refs
    assert (cls.on_flush is Mechanism.on_flush) == (cls is not IBTC)
