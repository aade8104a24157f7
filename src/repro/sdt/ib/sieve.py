"""The sieve dispatch mechanism.

The translated indirect branch hashes its dynamic target and jumps into a
*bucket* of code stubs.  Each stub compares the target against one known
application address; on a match it branches directly to the corresponding
fragment (a conditional direct branch the bimodal predictor handles well),
otherwise it falls through to the next stub.  Running off the end of the
chain re-enters the translator, which links a new stub into the bucket.

Host-level cost structure (the paper's reason the sieve can win on
machines with expensive indirect-branch mispredictions):

- one computed jump into the bucket (BTB-predicted, keyed by the IB site),
- ``k`` compare-and-branch stages to reach the matching stub,
- a *direct* branch to the fragment — no BTB involvement at all.

The stub-insertion policy is configurable: ``prepend`` puts the newest
target first (MRU-ish, Strata's choice); ``append`` preserves insertion
order.  E-series ablations sweep both.
"""

from __future__ import annotations

from collections import defaultdict

from repro.host.costs import Category
from repro.sdt.fragment import Fragment
from repro.sdt.ib.base import IBMechanism
from repro.sdt.ib.ibtc import ibtc_index

#: Synthetic host address of the sieve's bucket array (predictor keying).
SIEVE_BASE = 0xFD00_0000
_BUCKET_STRIDE = 256  # synthetic bytes per bucket (stub chain region)
_STUB_STRIDE = 16     # synthetic bytes per stub

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_SIEVE = Category.SIEVE


class Sieve(IBMechanism):
    """Hash-bucketed compare-and-branch dispatch."""

    def __init__(self, buckets: int = 512, policy: str = "prepend"):
        super().__init__()
        if buckets <= 0 or buckets & (buckets - 1):
            raise ValueError("buckets must be a positive power of two")
        if policy not in ("prepend", "append"):
            raise ValueError(f"unknown insertion policy {policy!r}")
        self.buckets = buckets
        self.policy = policy
        self.name = f"sieve-{buckets}"
        self._mask = buckets - 1
        #: ``bucket index -> stub chain`` of fragments, each stub
        #: comparing against its fragment's ``guest_pc``; a bucket gets
        #: its list when first probed, and a flush drops them all, so
        #: flushes and scrubs walk only the buckets in use
        self._chains: defaultdict[int, list[Fragment]] = defaultdict(list)
        #: dynamic stage executions, for mean-chain-length reporting
        self.stage_executions = 0

    def dispatch(
        self, fragment: Fragment, ib_pc: int, guest_target: int
    ) -> Fragment:
        assert self.vm is not None
        vm = self.vm
        profile = vm.model.profile
        index = ibtc_index(guest_target, self._mask)
        bucket_addr = SIEVE_BASE + index * _BUCKET_STRIDE

        # computed jump into the bucket
        vm.model.charge(_SIEVE, profile.sieve_dispatch)
        vm.model.indirect_jump(
            fragment.exit_site, bucket_addr, category=_SIEVE
        )

        # walk the stub chain
        chain = self._chains[index]
        injector = getattr(vm, "fault_injector", None)
        if injector is not None and chain:
            event = injector.table_event("sieve")
            if event == "drop":
                del chain[0]
            elif event == "corrupt":
                from repro.faults.inject import tombstone

                chain[0] = tombstone(chain[0])
        trace = vm.trace
        for position, target_fragment in enumerate(chain):
            vm.model.charge(_SIEVE, profile.sieve_stage)
            self.stage_executions += 1
            stub_addr = bucket_addr + position * _STUB_STRIDE
            matched = target_fragment.guest_pc == guest_target
            vm.model.cond_branch(stub_addr, matched, category=_SIEVE)
            if matched:
                if target_fragment.valid:
                    self._hit()
                    if trace is not None:
                        trace.emit("sieve.walk", site=ib_pc,
                                   target=guest_target, depth=position + 1,
                                   hit=True)
                    return target_fragment
                # stale stub (missed invalidation / injected corruption):
                # unlink it and fall back to the translator, which links
                # a fresh stub below
                del chain[position]
                break

        # chain exhausted: translator builds a new stub
        self._miss()
        if trace is not None:
            trace.emit("sieve.walk", site=ib_pc, target=guest_target,
                       depth=len(chain), hit=False)
        target_fragment = vm.reenter_translator(guest_target)
        # re-fetch: the reentry may have flushed (and so dropped) the chain
        chain = self._chains[index]
        if self.policy == "prepend":
            chain.insert(0, target_fragment)
        else:
            chain.append(target_fragment)
        if trace is not None:
            trace.emit("sieve.insert", bucket=index, target=guest_target,
                       depth=len(chain))
        return target_fragment

    def preseed(
        self, ib_pc: int, guest_target: int, fragment: Fragment
    ) -> bool:
        """Link a stub for the target at translation time.

        The stub enters its bucket under the configured insertion policy,
        exactly as a dispatch-miss stub would, so preseeded and
        dynamically linked chains are structurally identical.
        """
        chain = self._chains[ibtc_index(guest_target, self._mask)]
        if any(stub.guest_pc == guest_target for stub in chain):
            return False
        if self.policy == "prepend":
            chain.insert(0, fragment)
        else:
            chain.append(fragment)
        return True

    def on_flush(self) -> None:
        self._chains.clear()

    def scrub_invalid(self, dead) -> None:
        # in-place: dispatch holds direct references to chain lists
        for chain in self._chains.values():
            if any(not frag.valid for frag in chain):
                chain[:] = [frag for frag in chain if frag.valid]

    def live_fragment_refs(self):
        return [frag for chain in self._chains.values() for frag in chain]

    @property
    def mean_chain_length(self) -> float:
        """Mean occupied-chain length (sieve pressure diagnostic)."""
        lengths = [len(chain) for chain in self._chains.values() if chain]
        return sum(lengths) / len(lengths) if lengths else 0.0
