"""Fault taxonomy and seeded, serializable fault plans.

The repo has three layers of correctness machinery — the engine's model
validation (CONGEST budget, connectivity, edge membership), the Lemma
3/4 proof ledgers inside :class:`~repro.core.simulation.PartySimulator`,
and ``repro audit`` — and this module is how we *prove* they detect what
they claim to.  A :class:`FaultPlan` names a set of :class:`FaultSpec`
injections drawn from a fixed taxonomy; the wrappers in
:mod:`repro.faults.injectors` apply them, and every applied injection is
recorded (via :class:`~repro.faults.injectors.FaultRecorder` and the
ambient observation session) so ``repro faultcheck`` can assert a
one-to-one match between injected and detected faults.

Taxonomy (``FAULT_CLASSES``) × layer (``LAYERS``) applicability is the
``APPLICABILITY`` table; each applicable (fault, layer) cell names the
*expected detector* — the specific exception class, audit finding, or
degradation mechanism that must fire when the fault is injected there:

================  ==========  ===================================
fault             layer       expected detector
================  ==========  ===================================
message-drop      engine      trace-divergence
message-drop      reduction   reference-divergence
bit-corrupt       engine      trace-divergence
bit-corrupt       reduction   reference-divergence
over-budget       engine      BandwidthExceeded
invalid-action    engine      InvalidAction
disconnect        adversary   DisconnectedTopology
foreign-edge      adversary   ModelViolation
adversary-perturb adversary   trace-divergence
adversary-perturb reduction   SimulationDiverged (+ audit finding)
coin-tamper       engine      trace-divergence
coin-tamper       reduction   reference-divergence
worker-crash      worker      degraded-retry
worker-hang       worker      degraded-retry
================  ==========  ===================================

``trace-divergence`` means: the faulted run's :class:`~repro.sim.trace
.ExecutionTrace` must differ from the clean run's (same seed, no plan) —
the public-coin determinism of the simulator is itself the checker.
``reference-divergence`` is the Lemma-5 comparator: a party's simulated
non-spoiled nodes must disagree with the reference execution.
``degraded-retry`` means the :class:`~repro.sim.parallel.ParallelExecutor`
must absorb the fault (retry on a rebuilt pool) or re-raise with the
task's label, never a bare pool error.

Plans serialize to JSONL (:meth:`FaultPlan.to_jsonl`) so the exact
injection schedule can sit alongside a session's ``events.jsonl``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "FAULT_CLASSES",
    "LAYERS",
    "APPLICABILITY",
    "FaultSpec",
    "FaultPlan",
]

#: Every fault class the injection layer knows how to produce.
FAULT_CLASSES: Tuple[str, ...] = (
    "message-drop",
    "bit-corrupt",
    "over-budget",
    "invalid-action",
    "disconnect",
    "foreign-edge",
    "adversary-perturb",
    "coin-tamper",
    "worker-crash",
    "worker-hang",
)

#: Injection sites.  "engine" faults wrap nodes/coins of a
#: :class:`~repro.sim.engine.SynchronousEngine`; "adversary" faults wrap
#: the topology chooser; "reduction" faults perturb a
#: :class:`~repro.core.simulation.PartySimulator`; "worker" faults hit
#: :class:`~repro.sim.parallel.ParallelExecutor` pool processes.
LAYERS: Tuple[str, ...] = ("engine", "adversary", "reduction", "worker")

#: fault class -> {layer: expected detector}.  The detector string is
#: either an exception class name from :mod:`repro.errors`, or one of the
#: structural checkers "trace-divergence" / "reference-divergence" /
#: "degraded-retry" (see the module docstring).
APPLICABILITY: Dict[str, Dict[str, str]] = {
    "message-drop": {"engine": "trace-divergence", "reduction": "reference-divergence"},
    "bit-corrupt": {"engine": "trace-divergence", "reduction": "reference-divergence"},
    "over-budget": {"engine": "BandwidthExceeded"},
    "invalid-action": {"engine": "InvalidAction"},
    "disconnect": {"adversary": "DisconnectedTopology"},
    "foreign-edge": {"adversary": "ModelViolation"},
    "adversary-perturb": {
        "adversary": "trace-divergence",
        "reduction": "SimulationDiverged",
    },
    "coin-tamper": {"engine": "trace-divergence", "reduction": "reference-divergence"},
    "worker-crash": {"worker": "degraded-retry"},
    "worker-hang": {"worker": "degraded-retry"},
}

#: Plan files carry a version so readers can reject future formats
#: legibly instead of mis-parsing them.
PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FaultSpec:
    """One planned injection: *what* goes wrong, *where*, and *when*.

    Parameters
    ----------
    fault:
        One of :data:`FAULT_CLASSES`.
    layer:
        One of :data:`LAYERS`; the (fault, layer) pair must appear in
        :data:`APPLICABILITY`.
    round:
        1-based round at which the fault fires (0 for round-independent
        faults like worker crashes).
    target:
        Node id (engine/adversary layers), party name via ``params``
        (reduction layer), or task index (worker layer).  ``None`` when
        the fault is untargeted.
    params:
        Fault-specific knobs — e.g. ``{"bits": 4096}`` for over-budget,
        ``{"party": "alice"}`` for reduction faults.
    """

    fault: str
    layer: str
    round: int = 0
    target: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.fault not in FAULT_CLASSES:
            raise ConfigurationError(
                f"unknown fault class {self.fault!r}; known: {', '.join(FAULT_CLASSES)}"
            )
        if self.layer not in LAYERS:
            raise ConfigurationError(
                f"unknown layer {self.layer!r}; known: {', '.join(LAYERS)}"
            )
        if self.layer not in APPLICABILITY[self.fault]:
            applicable = ", ".join(sorted(APPLICABILITY[self.fault]))
            raise ConfigurationError(
                f"fault {self.fault!r} does not apply to layer {self.layer!r} "
                f"(applicable: {applicable})"
            )

    @property
    def expect(self) -> str:
        """The detector that must fire for this injection."""
        return APPLICABILITY[self.fault][self.layer]

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def as_dict(self) -> dict:
        return {
            "fault": self.fault,
            "layer": self.layer,
            "round": self.round,
            "target": self.target,
            "params": dict(self.params),
            "expect": self.expect,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            fault=data["fault"],
            layer=data["layer"],
            round=data.get("round", 0),
            target=data.get("target"),
            params=dict(data.get("params") or {}),
        )


class FaultPlan:
    """A seeded set of planned injections, serializable to JSONL.

    The seed does not drive randomness inside the injectors (they are
    deterministic in their spec) — it names the *run* the plan belongs
    to, so a persisted plan plus the run seed reproduces the faulted
    execution exactly.

    An empty plan is the structural zero-cost switch: the ``wire_*``
    helpers in :mod:`repro.faults.injectors` return the original,
    unwrapped objects when no spec applies, so with injection disabled
    the engine runs the identical code path (asserted bit-for-bit by the
    Hypothesis property in ``tests/faults/test_zero_cost.py``).
    """

    def __init__(self, seed: int = 0, specs: Iterable[FaultSpec] = ()):
        self.seed = int(seed)
        self.specs: List[FaultSpec] = list(specs)

    # -- construction ---------------------------------------------------
    @classmethod
    def single(cls, seed: int, spec: FaultSpec) -> "FaultPlan":
        return cls(seed, [spec])

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    # -- queries --------------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self.specs)

    def specs_for(self, layer: str) -> List[FaultSpec]:
        """The plan's specs targeting one injection layer."""
        if layer not in LAYERS:
            raise ConfigurationError(f"unknown layer {layer!r}")
        return [s for s in self.specs if s.layer == layer]

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.seed == other.seed and self.specs == other.specs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, specs={len(self.specs)})"

    # -- serialization --------------------------------------------------
    def to_jsonl(self, path: pathlib.Path) -> pathlib.Path:
        """Persist as JSONL: one header line, one line per spec."""
        path = pathlib.Path(path)
        head = {
            "type": "fault-plan",
            "format_version": PLAN_FORMAT_VERSION,
            "seed": self.seed,
            "num_specs": len(self.specs),
        }
        with path.open("w") as fh:
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for spec in self.specs:
                line = {"type": "fault", **spec.as_dict()}
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: pathlib.Path) -> "FaultPlan":
        """Inverse of :meth:`to_jsonl`; raises on malformed files."""
        path = pathlib.Path(path)
        head: Optional[dict] = None
        specs: List[FaultSpec] = []
        with path.open() as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                line = json.loads(raw)
                kind = line.get("type")
                if kind == "fault-plan":
                    head = line
                elif kind == "fault":
                    specs.append(FaultSpec.from_dict(line))
                else:
                    raise ConfigurationError(
                        f"{path}: unknown line type {kind!r} in fault plan"
                    )
        if head is None:
            raise ConfigurationError(f"{path}: no fault-plan header line")
        version = head.get("format_version", 0)
        if version > PLAN_FORMAT_VERSION:
            raise ConfigurationError(
                f"{path}: fault-plan format_version {version} is newer than "
                f"supported version {PLAN_FORMAT_VERSION}"
            )
        plan = cls(seed=head.get("seed", 0), specs=specs)
        declared = head.get("num_specs")
        if declared is not None and declared != len(specs):
            raise ConfigurationError(
                f"{path}: header declares {declared} spec(s) but file "
                f"contains {len(specs)} — truncated plan?"
            )
        return plan
