"""Fault injectors: wrappers that apply a :class:`FaultPlan` to a run.

Everything here is a *wrapper* — the engine, adversaries, party
simulators and coin sources are never modified.  The ``wire_*`` helpers
return the **original objects unchanged** when no spec of the plan
applies to them, which is what makes the layer provably zero-cost when
injection is off: with an empty plan the wrapped and unwrapped paths are
the same objects.

Every applied injection is recorded through a :class:`FaultRecorder`,
which also forwards the event to the ambient
:class:`~repro.obs.runtime.ObservationSession` (when one is active) so
``repro faultcheck`` and the detection matrix can assert a one-to-one
match between injected and detected faults.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim.actions import Action, Send
from ..sim.coins import Coins, CoinSource
from ..sim.node import ProtocolNode
from .plan import FaultPlan, FaultSpec

__all__ = [
    "FaultRecorder",
    "FaultyNode",
    "FaultyAdversary",
    "FaultyCoinSource",
    "wire_engine_faults",
    "inject_reduction_faults",
    "crashy_task",
    "hangy_task",
]

#: XOR mask applied to a coin-source seed by coin-tamper faults; any
#: nonzero constant yields an independent splitmix64 stream.
COIN_TAMPER_MASK = 0xFA017FA017FA017F

#: Sentinel payload a bit-corrupt fault substitutes for the real one —
#: a large prime so it is recognizable in traces and (for max-gossip
#: workloads) guaranteed to dominate every honest value.
CORRUPT_PAYLOAD = ("max", 999983)


class FaultRecorder:
    """Collects one event per *applied* injection.

    The matrix checker owns one recorder per cell; ``events`` is the
    "injected" side of the injected-vs-detected ledger.  Events are also
    forwarded to the ambient observation session (if any), which
    streams each as a ``fault`` event into its ``events.jsonl``.
    """

    def __init__(self):
        self.events: List[dict] = []

    def record(self, spec: FaultSpec, site: str, detail: str) -> dict:
        event = {
            "fault": spec.fault,
            "layer": spec.layer,
            "round": spec.round,
            "target": spec.target,
            "expect": spec.expect,
            "site": site,
            "detail": detail,
        }
        self.events.append(event)
        from ..obs.runtime import current_session

        session = current_session()
        if session is not None:
            session.record_fault(event)
        return event

    def events_for(self, fault: str) -> List[dict]:
        return [e for e in self.events if e["fault"] == fault]


# ----------------------------------------------------------------------
# engine layer: node wrapper
# ----------------------------------------------------------------------

#: Engine-layer faults that are applied through the node wrapper.
_NODE_FAULTS = frozenset({"message-drop", "bit-corrupt", "over-budget", "invalid-action"})


class FaultyNode(ProtocolNode):
    """Wraps one node, applying node-level faults at their planned round.

    * ``over-budget`` — in :meth:`action`, replace the node's action with
      a ``Send`` of an oversized payload (``params["bits"]`` bits,
      default 4096), tripping the engine's CONGEST check.
    * ``invalid-action`` — in :meth:`action`, return a junk object that
      is neither Send nor Receive.
    * ``message-drop`` — in :meth:`on_messages`, silently drop every
      payload delivered this round (in-flight loss on the receive side;
      the round's own trace record is untouched, so detection must come
      from downstream trace divergence).
    * ``bit-corrupt`` — in :meth:`on_messages`, replace each delivered
      payload with :data:`CORRUPT_PAYLOAD` (in-flight corruption).
    """

    def __init__(self, inner: ProtocolNode, specs: Iterable[FaultSpec], recorder: FaultRecorder):
        super().__init__(inner.uid)
        self.inner = inner
        self.specs = [s for s in specs if s.fault in _NODE_FAULTS]
        self.recorder = recorder

    def _spec(self, fault: str, round_: int) -> Optional[FaultSpec]:
        for s in self.specs:
            if s.fault == fault and s.round == round_:
                return s
        return None

    def action(self, round_: int, coins: Coins) -> Action:
        act = self.inner.action(round_, coins)
        spec = self._spec("over-budget", round_)
        if spec is not None:
            nbits = int(spec.param("bits", 4096))
            payload = bytes((nbits + 7) // 8)
            self.recorder.record(
                spec, f"node {self.uid}",
                f"replaced action with a {nbits}-bit Send in round {round_}",
            )
            return Send(payload)
        spec = self._spec("invalid-action", round_)
        if spec is not None:
            self.recorder.record(
                spec, f"node {self.uid}",
                f"returned a non-action object from action() in round {round_}",
            )
            return "NOT-AN-ACTION"  # type: ignore[return-value]
        return act

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        spec = self._spec("message-drop", round_)
        if spec is not None and payloads:
            self.recorder.record(
                spec, f"node {self.uid}",
                f"dropped {len(payloads)} delivered payload(s) in round {round_}",
            )
            payloads = ()
        spec = self._spec("bit-corrupt", round_)
        if spec is not None and payloads:
            self.recorder.record(
                spec, f"node {self.uid}",
                f"corrupted {len(payloads)} delivered payload(s) in round {round_}",
            )
            payloads = tuple(CORRUPT_PAYLOAD for _ in payloads)
        self.inner.on_messages(round_, payloads)

    def on_sent(self, round_: int) -> None:
        self.inner.on_sent(round_)

    def output(self) -> Optional[Any]:
        return self.inner.output()


# ----------------------------------------------------------------------
# adversary layer
# ----------------------------------------------------------------------

class FaultyAdversary:
    """Wraps a topology chooser, perturbing its edge set at planned rounds.

    * ``disconnect`` — remove every edge incident to the target node,
      isolating it (the engine's connectivity validation must fire).
    * ``foreign-edge`` — add an edge to a ghost node outside the node
      set (the engine's edge-membership validation must fire).
    * ``adversary-perturb`` — from the planned round on, play the
      *previous* round's schedule (the chooser's decisions lag one round
      behind); the trace-fingerprint comparison against the clean run
      must detect the divergence.
    """

    def __init__(self, inner: Any, specs: Iterable[FaultSpec], recorder: FaultRecorder):
        self.inner = inner
        self.specs = list(specs)
        self.recorder = recorder
        self._perturb_recorded: set = set()

    def __getattr__(self, name: str) -> Any:
        # Delegate node_ids / num_nodes / schedule etc. to the real one.
        return getattr(self.inner, name)

    def schedule_key(self, round_: int) -> Any:
        # A shifted schedule breaks the inner family's "equal keys imply
        # equal topologies" promise, so never advertise keys when an
        # adversary-perturb spec is planned (content interning on the
        # batch tape stays correct either way).
        if any(spec.fault == "adversary-perturb" for spec in self.specs):
            return None
        return self.inner.schedule_key(round_)

    def edges(self, round_: int, view: Any) -> List[Tuple[int, int]]:
        for spec in self.specs:
            if spec.fault == "adversary-perturb" and round_ >= spec.round:
                # Held-back schedule: replay the previous round's
                # decision (round 1 perturbs to itself — perturbation
                # plans start at round >= 2 to guarantee divergence).
                edges = list(self.inner.edges(max(1, round_ - 1), view))
                if id(spec) not in self._perturb_recorded:
                    self._perturb_recorded.add(id(spec))
                    self.recorder.record(
                        spec, "adversary",
                        f"shifted the schedule one round back from round "
                        f"{spec.round} on (round {round_} plays round "
                        f"{max(1, round_ - 1)}'s topology)",
                    )
                return edges
        edges = list(self.inner.edges(round_, view))
        for spec in self.specs:
            if spec.round != round_:
                continue
            if spec.fault == "disconnect":
                target = spec.target if spec.target is not None else min(
                    u for e in edges for u in e
                )
                before = len(edges)
                edges = [(u, v) for u, v in edges if target not in (u, v)]
                self.recorder.record(
                    spec, "adversary",
                    f"isolated node {target} in round {round_} "
                    f"(removed {before - len(edges)} incident edge(s))",
                )
            elif spec.fault == "foreign-edge":
                anchor = spec.target if spec.target is not None else min(
                    u for e in edges for u in e
                )
                ghost = int(spec.param("ghost", 10**6))
                edges.append((anchor, ghost))
                self.recorder.record(
                    spec, "adversary",
                    f"added edge ({anchor}, {ghost}) to a node outside the "
                    f"node set in round {round_}",
                )
        return edges


# ----------------------------------------------------------------------
# coin layer
# ----------------------------------------------------------------------

class FaultyCoinSource:
    """Wraps a :class:`~repro.sim.coins.CoinSource`, tampering one stream.

    For the targeted (node, round) the returned :class:`Coins` is drawn
    from an independent seed (``seed ^ COIN_TAMPER_MASK``), breaking the
    public-coin agreement that trace reproducibility and the Lemma-5
    simulation both rest on.
    """

    def __init__(self, inner: CoinSource, specs: Iterable[FaultSpec], recorder: FaultRecorder):
        self.inner = inner
        self.specs = [s for s in specs if s.fault == "coin-tamper"]
        self.recorder = recorder
        self._tampered = CoinSource(inner.seed ^ COIN_TAMPER_MASK)

    @property
    def seed(self) -> int:
        # Manifests record engine.coin_source.seed; report the honest one.
        return self.inner.seed

    def coins(self, node_id: int, round_: int) -> Coins:
        for spec in self.specs:
            if spec.round == round_ and (spec.target is None or spec.target == node_id):
                self.recorder.record(
                    spec, f"coins({node_id}, {round_})",
                    f"substituted an independent coin stream for node "
                    f"{node_id} in round {round_}",
                )
                return self._tampered.coins(node_id, round_)
        return self.inner.coins(node_id, round_)

    def fork(self, label: int) -> CoinSource:
        return self.inner.fork(label)


# ----------------------------------------------------------------------
# wiring helpers
# ----------------------------------------------------------------------

def wire_engine_faults(
    nodes: Dict[int, ProtocolNode],
    adversary: Any,
    coin_source: CoinSource,
    plan: Optional[FaultPlan],
    recorder: FaultRecorder,
) -> Tuple[Dict[int, ProtocolNode], Any, CoinSource]:
    """Wrap (nodes, adversary, coin_source) per the plan's engine and
    adversary specs.

    Anything the plan does not touch is returned **unchanged** — an
    empty plan (or ``None``) yields the exact input objects, so the
    no-faults path is structurally identical to never importing this
    module.
    """
    if plan is None or not plan.active:
        return nodes, adversary, coin_source
    engine_specs = plan.specs_for("engine")
    node_specs = [s for s in engine_specs if s.fault in _NODE_FAULTS]
    if node_specs:
        wrapped = dict(nodes)
        for uid in {s.target for s in node_specs if s.target is not None}:
            wrapped[uid] = FaultyNode(
                nodes[uid], [s for s in node_specs if s.target == uid], recorder
            )
        nodes = wrapped
    coin_specs = [s for s in engine_specs if s.fault == "coin-tamper"]
    if coin_specs:
        coin_source = FaultyCoinSource(coin_source, coin_specs, recorder)
    adversary_specs = plan.specs_for("adversary")
    if adversary_specs:
        adversary = FaultyAdversary(adversary, adversary_specs, recorder)
    return nodes, adversary, coin_source


class _ShiftedEdgeSet:
    """``party.edge_set`` held one round behind from ``start`` onward.

    This is the adversary-rule perturbation of the Sections 4–5
    schedules: from ``start`` on, the party's adversary plays round
    ``r - 1``'s topology in round ``r``, so edges scheduled for removal
    are kept one round too long.  The Lemma 3/4 spoiled-node bookkeeping
    then sees a non-spoiled node adjacent to an already-spoiled
    neighbour and :class:`~repro.errors.SimulationDiverged` must fire.
    """

    def __init__(self, orig, start: int, spec: FaultSpec, recorder: FaultRecorder, party: str):
        self.orig = orig
        self.start = start
        self.spec = spec
        self.recorder = recorder
        self.party = party
        self._recorded = False

    def __call__(self, round_: int):
        if round_ >= self.start:
            if not self._recorded:
                self._recorded = True
                self.recorder.record(
                    self.spec, f"party {self.party}",
                    f"shifted the adversary schedule by one round from "
                    f"round {self.start} on (edges kept one round too long)",
                )
            return self.orig(max(1, round_ - 1))
        return self.orig(round_)


class _TamperedFrameActions:
    """``party.step_actions`` with the emitted frame tampered in transit.

    The party's internal bookkeeping (``frames_sent``, ``bits_sent``,
    ledger hooks) sees the honest frame; only what crosses to the peer
    is altered — exactly an in-flight fault on the two-party channel.

    * ``message-drop`` — the targeted special node's payload becomes
      ``None`` (a silent round).
    * ``bit-corrupt`` — the payload becomes :data:`CORRUPT_PAYLOAD`.
    """

    def __init__(self, orig, specs: List[FaultSpec], recorder: FaultRecorder, party: str):
        self.orig = orig
        self.specs = specs
        self.recorder = recorder
        self.party = party

    def __call__(self, round_: int):
        frame = self.orig(round_)
        for spec in self.specs:
            if spec.round != round_:
                continue
            name = spec.param("special")
            items = []
            hit = False
            for key, payload in frame:
                if (name is None or key == name) and payload is not None and not hit:
                    hit = True
                    if spec.fault == "message-drop":
                        items.append((key, None))
                        what = f"dropped {key}'s frame payload"
                    else:
                        items.append((key, CORRUPT_PAYLOAD))
                        what = f"corrupted {key}'s frame payload"
                else:
                    items.append((key, payload))
            if hit:
                frame = tuple(items)
                self.recorder.record(
                    spec, f"party {self.party}", f"{what} in round {round_}"
                )
        return frame


def inject_reduction_faults(
    reduction: Any, plan: Optional[FaultPlan], recorder: FaultRecorder
) -> Any:
    """Apply the plan's reduction-layer specs to a TwoPartyReduction.

    Perturbations are instance-attribute patches on the chosen party
    (``params["party"]``, default ``"alice"``); with no reduction specs
    the reduction is returned untouched.
    """
    if plan is None or not plan.active:
        return reduction
    for spec in plan.specs_for("reduction"):
        party_name = spec.param("party", "alice")
        party = reduction.alice if party_name == "alice" else reduction.bob
        if spec.fault == "adversary-perturb":
            party.edge_set = _ShiftedEdgeSet(
                party.edge_set, max(1, spec.round), spec, recorder, party_name
            )
        elif spec.fault == "coin-tamper":
            party.coin_source = FaultyCoinSource(party.coin_source, [spec], recorder)
        elif spec.fault in ("message-drop", "bit-corrupt"):
            if not isinstance(party.step_actions, _TamperedFrameActions):
                party.step_actions = _TamperedFrameActions(
                    party.step_actions, [], recorder, party_name
                )
            party.step_actions.specs.append(spec)
    return reduction


# ----------------------------------------------------------------------
# worker layer: module-level fault tasks (importable from pool workers)
# ----------------------------------------------------------------------

def _consume_marker(marker_path: str) -> bool:
    """Atomically claim a one-shot fault marker file.

    The marker arms exactly one injection: the first task attempt that
    claims it faults, the retry finds it gone and succeeds.  ``unlink``
    is atomic on POSIX, so concurrent workers race safely.
    """
    try:
        os.unlink(marker_path)
        return True
    except FileNotFoundError:
        return False


def crashy_task(marker_path: str, value: int) -> int:
    """Worker-crash fault: SIGKILL this worker process once, then behave.

    SIGKILL (not an exception) models a genuine worker death — the pool
    breaks, and the executor's degradation path must retry on a fresh
    pool instead of surfacing ``BrokenProcessPool``.
    """
    if _consume_marker(marker_path):
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def hangy_task(marker_path: str, value: int, hang_seconds: float = 3600.0) -> int:
    """Worker-hang fault: block far past any sane task timeout, once."""
    if _consume_marker(marker_path):
        time.sleep(hang_seconds)
    return value * value
