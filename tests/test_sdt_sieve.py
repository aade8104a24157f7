"""Sieve mechanism: chain growth, policies, cost structure."""

import pytest

from conftest import run_minic_sdt
from repro.host.costs import Category
from repro.host.profile import SIMPLE
from repro.sdt.config import SDTConfig
from repro.sdt.fragment import ExitKind, Fragment
from repro.sdt.ib.sieve import Sieve

from test_sdt_ibtc import dispatch_source

#: exact chain-growth dynamics are clean-spec behaviour
pytestmark = pytest.mark.usefixtures("no_faults")


def stub(guest_pc: int) -> Fragment:
    """A stub's fragment: the stub compares against its ``guest_pc``."""
    return Fragment(guest_pc=guest_pc, fc_addr=0, instrs=[],
                    exit_kind=ExitKind.JUMP)


def run_sieve(source: str, buckets: int = 64, policy: str = "prepend"):
    config = SDTConfig(profile=SIMPLE, ib="sieve", sieve_buckets=buckets,
                       sieve_policy=policy)
    return run_minic_sdt(source, config)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            Sieve(buckets=0)
        with pytest.raises(ValueError):
            Sieve(buckets=48)
        with pytest.raises(ValueError):
            Sieve(policy="random")


class TestDynamics:
    def test_first_dispatch_misses_then_hits(self):
        result = run_sieve(dispatch_source(1, iterations=100))
        stats = result.stats
        name = "sieve-64"
        assert stats.mechanism[f"{name}.miss"] <= 4
        assert stats.mechanism[f"{name}.hit"] > 150

    def test_chain_walk_cost_grows_with_collisions(self):
        """With 1 bucket every target chains in one list: stage executions
        far exceed dispatches; with many buckets they spread out."""
        source = dispatch_source(8, iterations=240)
        one_bucket = run_sieve(source, buckets=1)
        many_buckets = run_sieve(source, buckets=256)
        assert one_bucket.cycles[Category.SIEVE.value] > \
            many_buckets.cycles[Category.SIEVE.value]
        assert one_bucket.output == many_buckets.output

    def test_miss_inserts_stub(self):
        result = run_sieve(dispatch_source(4, iterations=100))
        name = "sieve-64"
        # every chain-exhaustion miss re-enters the translator
        assert result.stats.translator_reentries >= \
            result.stats.mechanism[f"{name}.miss"]

    @pytest.mark.parametrize("policy", ["prepend", "append"])
    def test_policies_both_correct(self, policy):
        from conftest import run_minic

        source = dispatch_source(6, iterations=120)
        result = run_sieve(source, buckets=4, policy=policy)
        assert result.output == run_minic(source).output

    def test_prepend_mru_beats_append_for_skewed_targets(self):
        """A skewed target distribution favours MRU-prepended stubs."""
        source = """
        int hot(int x) { return x + 1; }
        int cold0(int x) { return x; }
        int cold1(int x) { return x; }
        int cold2(int x) { return x; }
        int cold3(int x) { return x; }
        int tab[] = { &cold0, &cold1, &cold2, &cold3, &hot };
        int main() {
            int total = 0;
            int i;
            /* touch the cold targets first so they head the chain under
               append; then hammer the hot one */
            for (i = 0; i < 4; i++) { int f = tab[i]; total += f(i); }
            for (i = 0; i < 300; i++) { int f = tab[4]; total += f(i); }
            print_int(total);
            return 0;
        }
        """
        # single bucket forces all targets into one chain
        prepend = run_sieve(source, buckets=1, policy="prepend")
        append = run_sieve(source, buckets=1, policy="append")
        assert prepend.cycles[Category.SIEVE.value] < \
            append.cycles[Category.SIEVE.value]
        assert prepend.output == append.output


class TestFlush:
    def test_flush_clears_chains(self):
        sieve = Sieve(buckets=4)
        sieve._chains[0].append(stub(0x1000))
        sieve.on_flush()
        assert all(not chain for chain in sieve._chains.values())

    def test_mean_chain_length(self):
        sieve = Sieve(buckets=4)
        assert sieve.mean_chain_length == 0.0
        sieve._chains[0].extend([stub(4), stub(8)])
        sieve._chains[1].append(stub(12))
        assert sieve.mean_chain_length == 1.5
