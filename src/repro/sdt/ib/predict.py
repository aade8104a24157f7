"""Inline target prediction: a one-entry inline cache in front of any
generic mechanism.

The translated IB site first compares the dynamic target against the
*last-seen* target (an immediate patched into the fragment).  On a match
control transfers with a well-predicted conditional direct branch — no
table probe, no host indirect jump at all.  On a mismatch the site falls
through to the wrapped mechanism (IBTC, sieve, or translator re-entry)
and the inline prediction is re-patched.

This is the "inlined single-target guard" of the Strata/DynamoRIO
lineage: unbeatable on monomorphic sites (E11 shows most sites are),
pure overhead on sites that alternate targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.host.costs import Category
from repro.sdt.fragment import Fragment
from repro.sdt.ib.base import IBMechanism

# enum members bound once: reading one off its class goes through
# ``EnumType.__getattr__`` (docs/performance.md, "Host hot path")
_IBTC = Category.IBTC


@dataclass(slots=True)
class _Prediction:
    target: int
    fragment: Fragment


class InlinePrediction(IBMechanism):
    """Per-site last-target inline cache wrapping a generic mechanism."""

    def __init__(self, inner: IBMechanism):
        super().__init__()
        self.inner = inner
        self.name = f"predict+{inner.name}"
        self._predictions: dict[int, _Prediction] = {}

    def bind(self, vm) -> None:
        # the inner mechanism is a fragment holder of its own, held
        # right after this wrapper
        super().bind(vm)
        self.inner.bind(vm)

    def dispatch(
        self, fragment: Fragment, ib_pc: int, guest_target: int
    ) -> Fragment:
        assert self.vm is not None
        vm = self.vm
        profile = vm.model.profile
        # the inlined compare-immediate + branch
        vm.model.charge(_IBTC, 2)
        prediction = self._predictions.get(ib_pc)
        hit = (
            prediction is not None
            and prediction.target == guest_target
            and prediction.fragment.valid
        )
        vm.model.cond_branch(fragment.exit_site, hit, category=_IBTC)
        trace = vm.trace
        if hit:
            self._hit()
            if trace is not None:
                trace.emit("predict.hit", site=ib_pc, target=guest_target)
            return prediction.fragment

        self._miss()
        if trace is not None:
            trace.emit("predict.miss", site=ib_pc, target=guest_target)
        target_fragment = self.inner.dispatch(fragment, ib_pc, guest_target)
        # re-patching translated code costs a (small) fragment write
        vm.model.charge(_IBTC, profile.fast_return_fixup)
        self._predictions[ib_pc] = _Prediction(
            target=guest_target, fragment=target_fragment
        )
        return target_fragment

    def preseed(
        self, ib_pc: int, guest_target: int, fragment: Fragment
    ) -> bool:
        # the one-entry inline guard is left to dynamic warm-up (its
        # payoff is last-target locality, which statics cannot know);
        # hints warm the wrapped mechanism instead
        return self.inner.preseed(ib_pc, guest_target, fragment)

    def on_flush(self) -> None:
        self._predictions.clear()

    def scrub_invalid(self, dead) -> None:
        stale = [
            pc for pc, p in self._predictions.items()
            if not p.fragment.valid
        ]
        for pc in stale:
            del self._predictions[pc]

    def live_fragment_refs(self):
        return [p.fragment for p in self._predictions.values()]
