"""Occupied-slot IB tables: flush, scrub and slot conflicts.

The IBTC (shared and per-site), the return cache and the sieve store
only occupied entries, so a flush or a selective-invalidation scrub
costs what a table holds, not its capacity.  These tests pin the
behaviour that must not change with the storage: a flush leaves no
entry, a selective invalidation scrubs exactly the entries naming
invalid fragments (fault-injected tombstones included) and keeps every
valid one with its tag, in order, and two targets hashing to one IBTC
or return-cache slot still evict each other.
"""

from __future__ import annotations

import pytest

from repro.faults.inject import tombstone
from repro.host.profile import SIMPLE
from repro.sdt.config import SDTConfig
from repro.sdt.ib.ibtc import IBTC
from repro.sdt.ib.returns import ReturnCache
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
    """Every stored entry as ``(tag, fragment)``; the return cache is
    untagged, so its fragment's own guest PC stands in for the tag."""
    if isinstance(mech, IBTC):
        return [entry for table in mech._tables() for entry in table.values()]
    if isinstance(mech, ReturnCache):
        return [(frag.guest_pc, frag) for frag in mech._table.values()]
    return [entry for chain in mech._chains.values() for entry in chain]


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
    if isinstance(mech, IBTC):
        table = next(table for table in mech._tables() if table)
        index, (tag, frag) = next(iter(table.items()))
        table[index] = (tag, tombstone(frag))
    elif isinstance(mech, ReturnCache):
        index, frag = next(iter(mech._table.items()))
        mech._table[index] = tombstone(frag)
    else:
        chain = next(chain for chain in mech._chains.values() if chain)
        target, frag = chain[0]
        chain[0] = (target, tombstone(frag))


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
    valid = [(tag, frag) for tag, frag in before if frag.valid]
    assert len(valid) >= 2, "need a fragment to kill and one to keep"
    victim = valid[0][1]
    expected = [(tag, frag) for tag, frag in valid if frag is not victim]
    assert expected and len(expected) < len(before) - 1

    # the cache has every holder scrub as part of the invalidation
    assert vm.cache.invalidate([victim]) == 1

    after = _entries(mech)
    assert [tag for tag, _ in after] == [tag for tag, _ in expected]
    assert all(a is e for (_, a), (_, e) in zip(after, expected))
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
    assert (entry[1] if isinstance(mech, IBTC) else entry).guest_pc == first


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
