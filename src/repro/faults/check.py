"""The mutation-style detection matrix behind ``repro faultcheck``.

For every (fault class, layer) cell of :data:`~repro.faults.plan
.APPLICABILITY`, this module injects the fault into a small scenario and
checks that the *expected detector* fires:

* exception detectors (``BandwidthExceeded``, ``InvalidAction``,
  ``DisconnectedTopology``, ``ModelViolation``, ``SimulationDiverged``)
  must raise with exactly that type;
* ``trace-divergence`` cells re-run the identical seeded scenario
  without the plan and require the two
  :class:`~repro.sim.trace.ExecutionTrace` fingerprints to differ —
  public-coin determinism makes the clean trace a ground truth;
* ``reference-divergence`` cells run the Lemma-5 comparator (the
  reduction in lockstep with the reference execution) and require a
  mismatch on a non-spoiled node;
* ``degraded-retry`` cells crash/hang a pool worker and require the
  :class:`~repro.sim.parallel.ParallelExecutor` to deliver correct
  results anyway while logging a degradation — never a bare pool error.

A cell passes only on a **one-to-one** match: exactly the planned
injections were applied (the :class:`~repro.faults.injectors
.FaultRecorder` events) and the named detector observed them.  The
matrix runs in CI (``tests/faults/test_detection_matrix.py``) with 100%
detection required, and is persisted as ``benchmarks/out/EXP-FI.json``.

Cells whose fault must *change behaviour* to be observable (dropping a
payload nobody was relying on is a no-op) search deterministically over
candidate injection points — (node, round) pairs taken from the clean
run — and use the first one whose injection actually lands; the search
is part of the scenario, not of the checker, and the chosen spec is
reported in the cell's detail.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..analysis.experiments.base import ExperimentResult
from ..cc.disjointness import random_instance
from ..core.simulation import TwoPartyReduction, run_reference_execution
from ..errors import (
    BandwidthExceeded,
    DisconnectedTopology,
    InvalidAction,
    ModelViolation,
    ReproError,
    SimulationDiverged,
)
from ..network.adversaries import Adversary, RandomConnectedAdversary
from ..network.generators import line_edges
from ..protocols.flooding import GossipMaxNode, TokenFloodNode
from ..sim.actions import Receive, Send
from ..sim.coins import CoinSource
from ..sim.engine import SynchronousEngine
from ..sim.parallel import ParallelExecutor
from ..sim.trace import ExecutionTrace
from .injectors import (
    COIN_TAMPER_MASK,
    FaultRecorder,
    crashy_task,
    hangy_task,
    inject_reduction_faults,
    wire_engine_faults,
)
from .plan import APPLICABILITY, FaultPlan, FaultSpec

__all__ = [
    "DetectionRecord",
    "trace_fingerprint",
    "first_trace_divergence",
    "compare_with_reference",
    "run_detection_matrix",
    "matrix_result",
    "render_matrix",
]

#: Scenario shape for the engine/adversary cells: a max-gossip workload
#: (randomized send/receive, never terminates on its own) over a random
#: connected dynamic topology.
_ENGINE_N = 8
_ENGINE_ROUNDS = 40
_ENGINE_SEED = 1009
_ADVERSARY_SEED = 11

#: Scenario for the reduction cells: Lemma-5 machinery on a small
#: DISJOINTNESSCP instance with the gossip oracle.
_REDUCTION_SEED = 7


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------

def trace_fingerprint(trace: ExecutionTrace) -> str:
    """A canonical digest of everything an execution trace recorded.

    Two runs with equal fingerprints produced byte-identical round
    records and outputs; the digest hashes the same canonical JSON lines
    the JSONL exporter writes (:func:`~repro.obs.export.encode_round_line`),
    so its cost grows with the rounds and the *distinct* edge sets, not
    with rounds × edges.
    """
    from ..obs.export import encode_payload, encode_round_line

    h = hashlib.sha256()
    edge_memo: dict = {}
    for record in trace:
        h.update(encode_round_line(record, edge_memo).encode())
    tail = {
        "termination_round": trace.termination_round,
        "outputs": {str(u): encode_payload(o) for u, o in sorted(trace.outputs.items())},
    }
    h.update(json.dumps(tail, sort_keys=True).encode())
    return h.hexdigest()


def first_trace_divergence(a: ExecutionTrace, b: ExecutionTrace) -> Optional[int]:
    """First 1-based round whose records differ, or None if identical."""
    from ..obs.export import _round_line

    for ra, rb in zip(a, b):
        if _round_line(ra) != _round_line(rb):
            return ra.round
    if a.rounds != b.rounds:
        return min(a.rounds, b.rounds) + 1
    if a.outputs != b.outputs or a.termination_round != b.termination_round:
        return a.rounds + 1
    return None


def compare_with_reference(
    inst: Any,
    mapping: str,
    factory: Callable[[int], Any],
    seed: int,
    plan: Optional[FaultPlan] = None,
    recorder: Optional[FaultRecorder] = None,
    state_probe: Optional[Callable[[Any], Any]] = None,
) -> List[str]:
    """The Lemma-5 comparator as a checker: mismatches, not assertions.

    Drives a (possibly fault-injected) :class:`TwoPartyReduction` in
    lockstep with the clean reference execution and collects every
    disagreement on a non-spoiled node — action kind, sent payload, or
    (via ``state_probe``) final state.  An empty list means the
    simulation is faithful; a correct construction with no plan returns
    an empty list (that is Lemma 5).
    """
    recorder = recorder if recorder is not None else FaultRecorder()
    T = (inst.q - 1) // 2
    ref = run_reference_execution(inst, mapping, factory, seed, rounds=T)
    red = TwoPartyReduction(inst, mapping, factory, seed)
    inject_reduction_faults(red, plan, recorder)
    mismatches: List[str] = []
    for r in range(1, T + 1):
        fa = red.alice.step_actions(r)
        fb = red.bob.step_actions(r)
        for party in (red.alice, red.bob):
            for uid in party.nodes:
                if party.spoil[uid] < r:
                    continue
                act = party.actions_of(uid)
                kind, payload = ref.spies[uid].history[r]
                if isinstance(act, Send):
                    if kind != "send" or payload != act.payload:
                        mismatches.append(
                            f"round {r}: {party.party}'s node {uid} sent "
                            f"{act.payload!r}, reference {kind} {payload!r}"
                        )
                elif isinstance(act, Receive):
                    if kind != "recv":
                        mismatches.append(
                            f"round {r}: {party.party}'s node {uid} received, "
                            f"reference sent {payload!r}"
                        )
        red.alice.step_delivery(r, fb)
        red.bob.step_delivery(r, fa)
    if state_probe is not None:
        for party in (red.alice, red.bob):
            for uid, node in party.nodes.items():
                if party.spoil[uid] > T:
                    mine = state_probe(node)
                    theirs = state_probe(ref.spies[uid].inner)
                    if mine != theirs:
                        mismatches.append(
                            f"final state of {party.party}'s node {uid}: "
                            f"{mine!r} != reference {theirs!r}"
                        )
    return mismatches


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def _gossip_factory(uid: int) -> GossipMaxNode:
    return GossipMaxNode(uid)


def _run_engine(
    plan: Optional[FaultPlan],
    recorder: FaultRecorder,
    rounds: int = _ENGINE_ROUNDS,
) -> ExecutionTrace:
    """One seeded gossip run, optionally fault-wired; returns its trace."""
    nodes = {u: GossipMaxNode(u) for u in range(_ENGINE_N)}
    adversary = RandomConnectedAdversary(range(_ENGINE_N), seed=_ADVERSARY_SEED)
    coins = CoinSource(_ENGINE_SEED)
    nodes, adversary, coins = wire_engine_faults(nodes, adversary, coins, plan, recorder)
    engine = SynchronousEngine(nodes, adversary, coins)
    return engine.run(rounds)


@dataclass
class DetectionRecord:
    """One cell of the fault × checker matrix."""

    fault: str
    layer: str
    expect: str
    injected: int
    detected: bool
    detail: str

    @property
    def one_to_one(self) -> bool:
        """Exactly one planned injection landed and was detected."""
        return self.injected == 1 and self.detected

    def as_dict(self) -> dict:
        return {
            "fault": self.fault,
            "layer": self.layer,
            "expect": self.expect,
            "injected": self.injected,
            "detected": self.detected,
            "detail": self.detail,
        }


def _expect_exception(spec: FaultSpec, run: Callable[[], Any]) -> Tuple[bool, str]:
    """Run a scenario that must raise exactly ``spec.expect``."""
    try:
        run()
    except ReproError as exc:
        name = type(exc).__name__
        if name == spec.expect:
            return True, f"{name}: {exc}"
        return False, f"raised {name} instead of {spec.expect}: {exc}"
    return False, f"no exception raised; expected {spec.expect}"


def _cell_engine_exception(fault: str, spec: FaultSpec) -> DetectionRecord:
    recorder = FaultRecorder()
    plan = FaultPlan.single(_ENGINE_SEED, spec)
    detected, detail = _expect_exception(spec, lambda: _run_engine(plan, recorder))
    return DetectionRecord(
        fault, spec.layer, spec.expect, len(recorder.events), detected, detail
    )


def _cell_trace_divergence(fault: str, make_spec: Callable[[int, int], FaultSpec]) -> DetectionRecord:
    """Search clean-run injection points until the trace visibly diverges."""
    clean = _run_engine(None, FaultRecorder())
    expect = APPLICABILITY[fault]["engine"]
    candidates: List[Tuple[int, int]] = []
    if fault == "coin-tamper":
        # (uid, round) pairs where tampering provably flips the node's
        # send/receive coin, so the round's own record must change.
        honest, tampered = CoinSource(_ENGINE_SEED), CoinSource(_ENGINE_SEED ^ COIN_TAMPER_MASK)
        for r in range(1, _ENGINE_ROUNDS - 5):
            for uid in range(_ENGINE_N):
                if honest.coins(uid, r).bit(0.5) != tampered.coins(uid, r).bit(0.5):
                    candidates.append((uid, r))
    else:
        # (uid, round) pairs where the clean run actually delivered
        # payloads to uid — dropping/corrupting nothing detects nothing.
        for record in clean:
            if record.round > _ENGINE_ROUNDS - 5:
                break
            for uid, count in sorted(record.delivered.items()):
                if count > 0:
                    candidates.append((uid, record.round))
    last_detail = "no viable injection point in the clean run"
    for uid, r in candidates:
        spec = make_spec(uid, r)
        recorder = FaultRecorder()
        faulted = _run_engine(FaultPlan.single(_ENGINE_SEED, spec), recorder)
        if not recorder.events:
            continue
        div = first_trace_divergence(clean, faulted)
        if div is not None:
            return DetectionRecord(
                fault, "engine", expect, len(recorder.events), True,
                f"injected at node {uid} round {r}; traces diverge at round {div} "
                f"({trace_fingerprint(clean)[:12]} vs {trace_fingerprint(faulted)[:12]})",
            )
        last_detail = f"injected at node {uid} round {r} but traces stayed identical"
    return DetectionRecord(fault, "engine", expect, 0, False, last_detail)


def _cell_adversary_perturb(work_dir: pathlib.Path) -> DetectionRecord:
    """The Sections 4–5 schedule perturbation: Lemma 3/4 must object.

    Runs under an observation session so the ledgered violation also
    persists; the cell requires *both* detectors — the
    ``SimulationDiverged`` raise and the ``repro audit`` finding.
    """
    from ..obs.audit import audit_path
    from ..obs.runtime import observe

    inst = random_instance(3, 9, seed=1)
    expect = APPLICABILITY["adversary-perturb"]["reduction"]
    horizon = (inst.q - 1) // 2
    last_detail = "schedule shift never produced a spoil violation"
    for start in range(2, horizon + 1):
        spec = FaultSpec(
            "adversary-perturb", "reduction", round=start, params={"party": "alice"}
        )
        recorder = FaultRecorder()
        trace_dir = work_dir / f"perturb-start-{start}"
        diverged: Optional[SimulationDiverged] = None
        with observe(trace_dir=trace_dir):
            red = TwoPartyReduction(inst, "T6", _gossip_factory, _REDUCTION_SEED)
            inject_reduction_faults(red, FaultPlan.single(_REDUCTION_SEED, spec), recorder)
            try:
                red.run()
            except SimulationDiverged as exc:
                diverged = exc
        if diverged is None:
            if recorder.events:
                last_detail = f"shift from round {start} applied but not detected"
            continue
        reports, _skipped, code = audit_path(trace_dir)
        audit_hit = code == 1 and any(
            "violation recorded by the simulator" in f
            for rep in reports
            for f in rep.failures
        )
        if audit_hit:
            return DetectionRecord(
                "adversary-perturb", "reduction", expect, len(recorder.events), True,
                f"shift from round {start}: SimulationDiverged "
                f"(Lemma 3/4 spoil budget) + repro audit violation finding",
            )
        last_detail = "SimulationDiverged raised but repro audit saw no violation"
    return DetectionRecord("adversary-perturb", "reduction", expect, 0, False, last_detail)


class _AdaptiveRotatingAdversary(Adversary):
    """Adaptive *and* round-dependent, so a schedule shift is visible.

    Each round is a line over a rotation of the node ids; the rotation
    offset mixes the round number with the current informed count (read
    from the view, hence adaptive — the batch engine must take the
    incremental-tape path).  Because the offset depends on the round, a
    one-round schedule shift changes the edge set immediately.
    """

    def edges(self, round_: int, view: Any) -> List[Tuple[int, int]]:
        ids = self.node_ids
        n = len(ids)
        informed = sum(1 for u in ids if view.nodes[u].output() is not None)
        shift = (round_ + informed) % n
        return line_edges([ids[(i + shift) % n] for i in range(n)])


def _run_adaptive_batch(
    plan: Optional[FaultPlan],
    recorder: FaultRecorder,
    rounds: int = _ENGINE_ROUNDS,
) -> Tuple[ExecutionTrace, str]:
    """One seeded adaptive flood run on the batch backend; (trace, backend)."""
    from ..sim.batch import build_engine

    nodes: dict = {u: TokenFloodNode(u, source=0) for u in range(_ENGINE_N)}
    adversary: Any = _AdaptiveRotatingAdversary(range(_ENGINE_N))
    coins = CoinSource(_ENGINE_SEED)
    nodes, adversary, coins = wire_engine_faults(nodes, adversary, coins, plan, recorder)
    engine = build_engine(nodes, adversary, coins, backend="batch")
    return engine.run(rounds), engine.backend


def _cell_adversary_perturb_batch() -> DetectionRecord:
    """Schedule perturbation on the adaptive *batch* path.

    The same trace-fingerprint comparator that guards the reference
    engine must also catch a shifted adaptive schedule when the run
    executes on the batch backend's incremental tape.
    """
    expect = APPLICABILITY["adversary-perturb"]["adversary"]
    clean, clean_backend = _run_adaptive_batch(None, FaultRecorder())
    if clean_backend != "batch":
        return DetectionRecord(
            "adversary-perturb", "adversary", expect, 0, False,
            f"adaptive cell did not dispatch to the batch backend "
            f"(got {clean_backend!r})",
        )
    last_detail = "schedule shift never diverged the batch trace"
    for start in range(2, _ENGINE_ROUNDS - 5):
        spec = FaultSpec("adversary-perturb", "adversary", round=start)
        recorder = FaultRecorder()
        faulted, faulted_backend = _run_adaptive_batch(
            FaultPlan.single(_ENGINE_SEED, spec), recorder
        )
        if not recorder.events:
            continue
        div = first_trace_divergence(clean, faulted)
        if div is not None:
            return DetectionRecord(
                "adversary-perturb", "adversary", expect, len(recorder.events), True,
                f"shift from round {start} on backend={faulted_backend}; "
                f"traces diverge at round {div} "
                f"({trace_fingerprint(clean)[:12]} vs {trace_fingerprint(faulted)[:12]})",
            )
        last_detail = f"shift from round {start} applied but traces stayed identical"
    return DetectionRecord("adversary-perturb", "adversary", expect, 0, False, last_detail)


def _cell_reference_divergence(fault: str) -> DetectionRecord:
    """Frame/coin faults on one party vs the Lemma-5 comparator."""
    inst = random_instance(3, 9, seed=2)
    expect = APPLICABILITY[fault]["reduction"]
    horizon = (inst.q - 1) // 2
    specs: List[FaultSpec] = []
    if fault == "coin-tamper":
        # A party node whose send/receive coin provably flips under
        # tampering while it is still simulated (non-spoiled).
        red = TwoPartyReduction(inst, "T6", _gossip_factory, _REDUCTION_SEED)
        honest = CoinSource(_REDUCTION_SEED)
        tampered = CoinSource(_REDUCTION_SEED ^ COIN_TAMPER_MASK)
        for r in range(1, horizon + 1):
            for uid in sorted(red.alice.nodes):
                if red.alice.spoil[uid] >= r and (
                    honest.coins(uid, r).bit(0.5) != tampered.coins(uid, r).bit(0.5)
                ):
                    specs.append(
                        FaultSpec("coin-tamper", "reduction", round=r, target=uid,
                                  params={"party": "alice"})
                    )
    else:
        for party in ("alice", "bob"):
            for r in range(1, horizon + 1):
                specs.append(
                    FaultSpec(fault, "reduction", round=r, params={"party": party})
                )
    last_detail = "no candidate injection produced an applied fault"
    for spec in specs:
        recorder = FaultRecorder()
        try:
            mismatches = compare_with_reference(
                inst, "T6", _gossip_factory, _REDUCTION_SEED,
                plan=FaultPlan.single(_REDUCTION_SEED, spec),
                recorder=recorder,
                state_probe=lambda node: node.best,
            )
        except SimulationDiverged as exc:
            # Spoil bookkeeping can catch the corruption even earlier.
            mismatches = [f"SimulationDiverged: {exc}"]
        if not recorder.events:
            continue
        if mismatches:
            return DetectionRecord(
                fault, "reduction", expect, len(recorder.events), True,
                f"{recorder.events[0]['detail']}; first mismatch: {mismatches[0][:140]}",
            )
        last_detail = f"{recorder.events[0]['detail']} but simulation matched reference"
    return DetectionRecord(fault, "reduction", expect, 0, False, last_detail)


def _cell_worker(fault: str, work_dir: pathlib.Path) -> DetectionRecord:
    """Crash/hang one pool worker; the executor must degrade gracefully."""
    expect = APPLICABILITY[fault]["worker"]
    marker = work_dir / f"{fault}.marker"
    marker.write_text("armed\n")
    recorder = FaultRecorder()
    spec = FaultSpec(fault, "worker", round=0, target=0)
    recorder.record(spec, "worker pool", f"armed one-shot {fault} marker {marker.name}")
    if fault == "worker-crash":
        executor = ParallelExecutor(workers=2, retries=1)
        task = crashy_task
        tasks = [(str(marker), i) for i in range(4)]
    else:
        executor = ParallelExecutor(workers=2, retries=1, task_timeout=5.0)
        task = hangy_task
        tasks = [(str(marker), i, 600.0) for i in range(4)]
    labels = [f"seed={i}" for i in range(4)]
    try:
        results = executor.map(task, tasks, labels=labels)
    except Exception as exc:  # a surfaced failure must carry the label
        named = any(label in str(exc) for label in labels)
        return DetectionRecord(
            fault, "worker", expect, len(recorder.events), named,
            f"re-raised {type(exc).__name__} "
            + ("with task label: " if named else "WITHOUT task label: ")
            + str(exc)[:140],
        )
    ok = results == [i * i for i in range(4)]
    degraded = [d for d in executor.degradations]
    detected = ok and len(degraded) >= 1
    if detected:
        d = degraded[0]
        # Which task hits the one-shot marker is a pool scheduling race,
        # so the matrix row (diffed by bench-diff) omits the label.
        detail = (
            f"results correct after retry; degradation: {d['kind']} "
            f"attempt {d['attempt']}, pool rebuilt"
        )
    elif not ok:
        detail = f"wrong results after degradation: {results!r}"
    else:
        detail = "results correct but no degradation was logged"
    return DetectionRecord(fault, "worker", expect, len(recorder.events), detected, detail)


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------

def run_detection_matrix(work_dir: Optional[pathlib.Path] = None) -> List[DetectionRecord]:
    """Inject every applicable (fault, layer) cell and check detection."""
    if work_dir is None:
        work_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-faultcheck-"))
    work_dir = pathlib.Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)

    records: List[DetectionRecord] = []
    # engine: exception detectors
    records.append(_cell_engine_exception(
        "over-budget",
        FaultSpec("over-budget", "engine", round=3, target=2, params={"bits": 4096}),
    ))
    records.append(_cell_engine_exception(
        "invalid-action", FaultSpec("invalid-action", "engine", round=3, target=2)
    ))
    # adversary: exception detectors
    records.append(_cell_engine_exception(
        "disconnect", FaultSpec("disconnect", "adversary", round=4, target=3)
    ))
    records.append(_cell_engine_exception(
        "foreign-edge", FaultSpec("foreign-edge", "adversary", round=4, target=3)
    ))
    # engine: trace-divergence detectors
    records.append(_cell_trace_divergence(
        "message-drop",
        lambda uid, r: FaultSpec("message-drop", "engine", round=r, target=uid),
    ))
    records.append(_cell_trace_divergence(
        "bit-corrupt",
        lambda uid, r: FaultSpec("bit-corrupt", "engine", round=r, target=uid),
    ))
    records.append(_cell_trace_divergence(
        "coin-tamper",
        lambda uid, r: FaultSpec("coin-tamper", "engine", round=r, target=uid),
    ))
    # adversary: trace divergence on the adaptive batch path
    records.append(_cell_adversary_perturb_batch())
    # reduction
    records.append(_cell_adversary_perturb(work_dir))
    records.append(_cell_reference_divergence("message-drop"))
    records.append(_cell_reference_divergence("bit-corrupt"))
    records.append(_cell_reference_divergence("coin-tamper"))
    # worker
    records.append(_cell_worker("worker-crash", work_dir))
    records.append(_cell_worker("worker-hang", work_dir))
    return records


def matrix_result(records: List[DetectionRecord]) -> ExperimentResult:
    """Package the matrix as the EXP-FI experiment result."""
    detected = sum(1 for r in records if r.detected)
    covered = {(r.fault, r.layer) for r in records}
    expected = {(f, layer) for f, layers in APPLICABILITY.items() for layer in layers}
    return ExperimentResult(
        exp_id="EXP-FI",
        title="fault-injection detection matrix (fault class × checker)",
        headers=["fault", "layer", "checker", "injected", "detected", "detail"],
        rows=[
            [r.fault, r.layer, r.expect, r.injected,
             "yes" if r.detected else "NO",
             r.detail if len(r.detail) <= 120 else r.detail[:119] + "…"]
            for r in records
        ],
        summary={
            "cells": len(records),
            "detected": detected,
            "detection_rate": detected / len(records) if records else 0.0,
            "one_to_one": all(r.one_to_one for r in records),
            "applicability_covered": covered >= expected,
        },
        notes=[
            "every (fault, layer) cell of the taxonomy is injected at least once; "
            "CI requires detection_rate == 1.0 and one_to_one == True",
        ],
    )


def render_matrix(records: List[DetectionRecord]) -> str:
    """The ``repro faultcheck`` report."""
    return matrix_result(records).render()
