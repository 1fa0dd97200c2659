"""Tests for the wrapper injectors and fault-event observability."""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    BandwidthExceeded,
    DisconnectedTopology,
    InvalidAction,
    ModelViolation,
)
from repro.faults import FaultPlan, FaultRecorder, FaultSpec, wire_engine_faults
from repro.faults.injectors import CORRUPT_PAYLOAD, FaultyCoinSource, FaultyNode
from repro.network.adversaries import RandomConnectedAdversary
from repro.obs.runtime import observe
from repro.obs.stream import read_events_jsonl
from repro.protocols.flooding import GossipMaxNode
from repro.sim.coins import CoinSource
from repro.sim.engine import SynchronousEngine

N = 6
SEED = 404


def _engine(plan, recorder):
    nodes = {u: GossipMaxNode(u) for u in range(N)}
    adversary = RandomConnectedAdversary(range(N), seed=3)
    coins = CoinSource(SEED)
    nodes, adversary, coins = wire_engine_faults(nodes, adversary, coins, plan, recorder)
    return SynchronousEngine(nodes, adversary, coins)


class TestWiring:
    def test_none_plan_returns_original_objects(self):
        nodes = {u: GossipMaxNode(u) for u in range(N)}
        adversary = RandomConnectedAdversary(range(N), seed=3)
        coins = CoinSource(SEED)
        w_nodes, w_adv, w_coins = wire_engine_faults(
            nodes, adversary, coins, None, FaultRecorder()
        )
        assert w_nodes is nodes and w_adv is adversary and w_coins is coins

    def test_empty_plan_returns_original_objects(self):
        nodes = {u: GossipMaxNode(u) for u in range(N)}
        adversary = RandomConnectedAdversary(range(N), seed=3)
        coins = CoinSource(SEED)
        w_nodes, w_adv, w_coins = wire_engine_faults(
            nodes, adversary, coins, FaultPlan(seed=SEED), FaultRecorder()
        )
        assert w_nodes is nodes and w_adv is adversary and w_coins is coins

    def test_only_targeted_nodes_are_wrapped(self):
        recorder = FaultRecorder()
        plan = FaultPlan.single(
            SEED, FaultSpec("message-drop", "engine", round=2, target=1)
        )
        nodes = {u: GossipMaxNode(u) for u in range(N)}
        adversary = RandomConnectedAdversary(range(N), seed=3)
        coins = CoinSource(SEED)
        w_nodes, w_adv, w_coins = wire_engine_faults(nodes, adversary, coins, plan, recorder)
        assert isinstance(w_nodes[1], FaultyNode) and w_nodes[1].inner is nodes[1]
        assert all(w_nodes[u] is nodes[u] for u in range(N) if u != 1)
        assert w_adv is adversary and w_coins is coins

    def test_faulty_coin_source_reports_honest_seed(self):
        recorder = FaultRecorder()
        spec = FaultSpec("coin-tamper", "engine", round=1, target=0)
        wrapped = FaultyCoinSource(CoinSource(SEED), [spec], recorder)
        assert wrapped.seed == SEED  # RunManifest.from_engine reads this
        # the untargeted stream is untouched
        assert wrapped.coins(1, 1).bit(0.5) == CoinSource(SEED).coins(1, 1).bit(0.5)


class TestEngineInjections:
    def test_over_budget_raises_bandwidth_exceeded(self):
        recorder = FaultRecorder()
        plan = FaultPlan.single(
            SEED, FaultSpec("over-budget", "engine", round=2, target=1, params={"bits": 2048})
        )
        with pytest.raises(BandwidthExceeded) as err:
            _engine(plan, recorder).run(10)
        assert err.value.sender == 1 and err.value.round == 2
        assert len(recorder.events) == 1

    def test_invalid_action_raises(self):
        recorder = FaultRecorder()
        plan = FaultPlan.single(SEED, FaultSpec("invalid-action", "engine", round=2, target=1))
        with pytest.raises(InvalidAction):
            _engine(plan, recorder).run(10)
        assert len(recorder.events) == 1

    def test_disconnect_raises(self):
        recorder = FaultRecorder()
        plan = FaultPlan.single(SEED, FaultSpec("disconnect", "adversary", round=3, target=2))
        with pytest.raises(DisconnectedTopology):
            _engine(plan, recorder).run(10)
        assert len(recorder.events) == 1

    def test_foreign_edge_raises_model_violation(self):
        recorder = FaultRecorder()
        plan = FaultPlan.single(SEED, FaultSpec("foreign-edge", "adversary", round=3, target=2))
        with pytest.raises(ModelViolation, match="leaves the node set"):
            _engine(plan, recorder).run(10)
        assert len(recorder.events) == 1

    def test_corrupt_payload_is_recognizable(self):
        # the sentinel must dominate honest gossip values so corruption
        # visibly changes downstream state
        assert CORRUPT_PAYLOAD[1] > 10**5


def _fault_events(trace_dir):
    return [
        e["fault"] for e in read_events_jsonl(trace_dir / "events.jsonl")
        if e["type"] == "fault"
    ]


class TestFaultObservability:
    def test_injections_persist_as_faults_jsonl(self, tmp_path):
        """Each injection is a ``fault`` event on disk before close."""
        recorder = FaultRecorder()
        plan = FaultPlan.single(
            SEED, FaultSpec("over-budget", "engine", round=2, target=1, params={"bits": 2048})
        )
        trace_dir = tmp_path / "session"
        with observe(trace_dir=trace_dir) as session:
            with pytest.raises(BandwidthExceeded):
                _engine(plan, recorder).run(10)
            lines = _fault_events(trace_dir)
        assert session.faults == recorder.events == lines
        assert len(lines) == 1
        assert lines[0]["fault"] == "over-budget"
        assert lines[0]["expect"] == "BandwidthExceeded"
        assert lines[0]["round"] == 2 and lines[0]["target"] == 1

    def test_no_faults_means_no_faults_jsonl(self, tmp_path):
        trace_dir = tmp_path / "clean"
        with observe(trace_dir=trace_dir):
            _engine(None, FaultRecorder()).run(5)
        assert _fault_events(trace_dir) == []
        assert sorted(p.name for p in trace_dir.iterdir()) == [
            "events.jsonl", "run-0001.jsonl",
        ]

    def test_recorder_events_for(self):
        recorder = FaultRecorder()
        spec = FaultSpec("disconnect", "adversary", round=3, target=2)
        recorder.record(spec, "adversary", "isolated node 2")
        assert recorder.events_for("disconnect") == recorder.events
        assert recorder.events_for("coin-tamper") == []
