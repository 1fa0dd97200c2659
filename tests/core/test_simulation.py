"""Lemma-5 fidelity tests: the two-party simulation vs ground truth.

These are the most important tests in the repository.  For arbitrary
oracle protocols, instances, mappings and seeds, they assert that every
node Alice (Bob) simulates while it is non-spoiled behaves *identically*
to the same node in the reference execution — actions, payloads and
final state — even though Alice never sees y (and Bob never sees x).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cc.disjointness import DisjointnessInstance, random_instance
from repro.core.simulation import (
    PartySimulator,
    TwoPartyReduction,
    run_reference_execution,
)
from repro.errors import ConfigurationError
from repro.protocols.cflood import CFloodKnownDNode
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.sim.actions import Receive, Send
from repro.sim.coins import CoinSource

from ..conftest import disjointness_instances


def gossip_factory(uid):
    return GossipMaxNode(uid)


def assert_fidelity(inst, mapping, factory, seed, state_probe=None):
    """Drive reduction + reference round by round; compare non-spoiled nodes."""
    T = (inst.q - 1) // 2
    ref = run_reference_execution(inst, mapping, factory, seed, rounds=T)
    red = TwoPartyReduction(inst, mapping, factory, seed)
    for r in range(1, T + 1):
        fa = red.alice.step_actions(r)
        fb = red.bob.step_actions(r)
        for party in (red.alice, red.bob):
            for uid in party.nodes:
                if party.spoil[uid] >= r:
                    act = party.actions_of(uid)
                    kind, payload = ref.spies[uid].history[r]
                    if isinstance(act, Send):
                        assert kind == "send" and payload == act.payload, (
                            party.party, uid, r,
                        )
                    else:
                        assert isinstance(act, Receive) and kind == "recv"
        red.alice.step_delivery(r, fb)
        red.bob.step_delivery(r, fa)
    if state_probe is not None:
        for party in (red.alice, red.bob):
            for uid, node in party.nodes.items():
                if party.spoil[uid] > T:
                    assert state_probe(node) == state_probe(ref.spies[uid].inner), (
                        party.party, uid,
                    )
    return red, ref


class TestLemma5Fidelity:
    @pytest.mark.parametrize("mapping", ["T6", "T7"])
    @pytest.mark.parametrize("value", [0, 1])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_gossip_oracle(self, mapping, value, seed):
        inst = random_instance(3, 9, seed=seed + 10 * value, value=value)
        assert_fidelity(inst, mapping, gossip_factory, seed, state_probe=lambda n: n.best)

    @pytest.mark.parametrize("mapping", ["T6", "T7"])
    def test_cflood_oracle(self, mapping):
        inst = random_instance(3, 9, seed=5, value=0)
        factory = lambda uid: CFloodKnownDNode(uid, source=1, d_param=10)
        assert_fidelity(inst, mapping, factory, 3, state_probe=lambda n: n.informed)

    @pytest.mark.parametrize("mapping", ["T6", "T7"])
    def test_token_flood_oracle(self, mapping):
        inst = random_instance(2, 9, seed=6, value=1)
        factory = lambda uid: TokenFloodNode(uid, source=1)
        assert_fidelity(
            inst, mapping, factory, 4, state_probe=lambda n: (n.informed, n.informed_round)
        )

    @given(inst=disjointness_instances(min_n=1, max_n=3, min_q=5, max_q=9))
    @settings(max_examples=12)
    def test_random_instances_gossip(self, inst):
        assert_fidelity(inst, "T6", gossip_factory, 7, state_probe=lambda n: n.best)

    def test_figure1_instance(self, fig1_instance):
        assert_fidelity(
            fig1_instance, "T6", gossip_factory, 9, state_probe=lambda n: n.best
        )


class TestInformationSeparation:
    def test_alice_objects_hold_no_y(self, fig1_instance):
        coin = CoinSource(1)
        alice = PartySimulator(
            "alice", "T6", fig1_instance.n, fig1_instance.q,
            fig1_instance.x, gossip_factory, coin,
        )
        for subnet in alice.subnets:
            assert subnet.y is None
            with pytest.raises(ConfigurationError):
                subnet.bob_edges(1)

    def test_bob_objects_hold_no_x(self, fig1_instance):
        coin = CoinSource(1)
        bob = PartySimulator(
            "bob", "T6", fig1_instance.n, fig1_instance.q,
            fig1_instance.y, gossip_factory, coin,
        )
        for subnet in bob.subnets:
            assert subnet.x is None

    def test_t7_party_never_instantiates_upsilon(self, fig1_instance):
        coin = CoinSource(1)
        alice = PartySimulator(
            "alice", "T7", fig1_instance.n, fig1_instance.q,
            fig1_instance.x, gossip_factory, coin,
        )
        # Alice's node universe is exactly the Λ block, although the
        # answer is 0 and the reference network carries a Υ clone too
        n1 = alice.subnets[0].num_nodes
        assert set(alice.nodes) <= set(range(1, n1 + 1))

    def test_invalid_party_or_mapping(self, fig1_instance):
        coin = CoinSource(1)
        with pytest.raises(ConfigurationError):
            PartySimulator("carol", "T6", 4, 5, fig1_instance.x, gossip_factory, coin)
        with pytest.raises(ConfigurationError):
            PartySimulator("alice", "T9", 4, 5, fig1_instance.x, gossip_factory, coin)


class TestFrameAccounting:
    def test_frames_are_logarithmic(self, fig1_instance):
        red = TwoPartyReduction(fig1_instance, "T6", gossip_factory, seed=2)
        out = red.run()
        # 2 specials/frame, each payload O(log N): a loose linear cap
        per_round = out.total_bits / max(1, out.rounds_simulated)
        assert per_round <= 64 * 8  # generous O(log N) envelope

    def test_bits_symmetric_roles(self, fig1_instance):
        red = TwoPartyReduction(fig1_instance, "T6", gossip_factory, seed=2)
        out = red.run()
        assert out.bits_alice_to_bob > 0
        assert out.bits_bob_to_alice > 0

    def test_deterministic_in_seed(self, fig1_instance):
        a = TwoPartyReduction(fig1_instance, "T6", gossip_factory, seed=5).run()
        b = TwoPartyReduction(fig1_instance, "T6", gossip_factory, seed=5).run()
        assert (a.total_bits, a.decision) == (b.total_bits, b.decision)


class TestReductionDecisions:
    @pytest.mark.parametrize("value", [0, 1])
    def test_fast_oracle_decides_one(self, value):
        # horizon 12 > d_param 10: the fast oracle always terminates,
        # hence decision 1 — correct iff truth is 1
        inst = random_instance(3, 25, seed=1 + value, value=value)
        from repro.core.composition import theorem6_network
        net = theorem6_network(inst)
        src = net.special_nodes()["A_gamma"]
        factory = lambda uid: CFloodKnownDNode(uid, source=src, d_param=10)
        out = TwoPartyReduction(inst, "T6", factory, seed=1).run()
        assert out.decision == 1
        assert out.correct == (value == 1)
        assert out.watched_terminated_round == 10

    @pytest.mark.parametrize("value", [0, 1])
    def test_conservative_oracle_decides_zero(self, value):
        inst = random_instance(3, 25, seed=3 + value, value=value)
        from repro.core.composition import theorem6_network
        net = theorem6_network(inst)
        src = net.special_nodes()["A_gamma"]
        factory = lambda uid: CFloodKnownDNode(uid, source=src, d_param=net.num_nodes - 1)
        out = TwoPartyReduction(inst, "T6", factory, seed=1).run()
        assert out.decision == 0
        assert out.watched_terminated_round is None

    def test_reduction_never_diverges(self):
        # SimulationDiverged would indicate a Lemma-3/4 violation
        for seed in range(4):
            inst = random_instance(2, 11, seed=seed)
            TwoPartyReduction(inst, "T6", gossip_factory, seed=seed).run()
            TwoPartyReduction(inst, "T7", gossip_factory, seed=seed).run()
