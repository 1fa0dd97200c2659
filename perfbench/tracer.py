"""Benchmark-side tracing: spans kept in memory, layer self time, patches.

The traced run times each layer from the outside, by swapping a timing
wrapper in for the layer's public entry points (module functions, class
methods) for the duration of one traced pass and restoring the originals
afterwards.  Nothing under ``src/`` knows it is being traced, and the
untraced runs that produce the end-to-end metrics install no wrapper.

A *span* is ``(name, start, end, parent, thread)``; its self time is its
duration minus the part covered by its child spans.  Protocol callbacks
run millions of times per pass, so they are *leaves*: their durations
are summed per name and subtracted from the enclosing span, instead of
being stored one by one.  That keeps the in-memory trace at stage
granularity (a few thousand spans per pass) while still attributing
every callback microsecond.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROUND_STAGES = ("actions", "adversary", "validation", "delivery", "termination")
CALLBACKS = ("action", "on_messages", "on_sent", "output")


class Tracer:
    """In-memory spans with self-time accounting; thread-aware."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: closed spans: [name, start, end, parent index or None, thread, self]
        self.spans: List[list] = []
        self.leaf_totals: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.phase: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # reserved: parents precede children
        frame = [name, self.clock(), 0.0, index]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = self.clock()
        stack = self._stack()
        top = stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child, index = frame
        duration = now - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[index] = [
            name, start, now, parent[3] if parent is not None else None,
            threading.current_thread().name, duration - child, self.phase,
        ]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def leaf(self, name: str, duration: float) -> None:
        """Attribute a call too frequent to store as its own span."""
        with self._lock:
            self.leaf_totals[name] += duration
        stack = self._stack()
        if stack:
            stack[-1][2] += duration

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- results -----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer name: spans plus leaf totals."""
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            if record is not None:
                totals[record[0]] += record[5]
        for name, value in self.leaf_totals.items():
            totals[name] += value
        return dict(totals)

    def write(self, path: Any) -> None:
        """Write every span (and the leaf totals) as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, record in enumerate(self.spans):
                if record is None:
                    continue
                name, start, end, parent, thread, self_s, phase = record
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "self_s": self_s,
                    "phase": phase,
                }) + "\n")
            for name, total in sorted(self.leaf_totals.items()):
                fh.write(json.dumps({"leaf": name, "total_s": total}) + "\n")


class Patches:
    """Install attribute replacements; restore them all on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def _spanned(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def _traced_step(tracer: Tracer) -> Callable[[Any], Any]:
    """An engine ``step`` that drives ``step_stages()`` and times each
    stage between the generator's yields (same stages, same order)."""
    names = tuple(f"sim.{stage}" for stage in ROUND_STAGES)

    def step(self: Any) -> Any:
        stages = self.step_stages()
        event = None
        for name in names:
            frame = tracer.begin(name)
            try:
                event = next(stages)
            finally:
                tracer.end(frame)
        for _ in stages:  # run the generator's post-round bookkeeping
            pass
        return event.record

    return step


def _callback_leaf(tracer: Tracer, name: str, fn: Callable[..., Any],
                   local: threading.local) -> Callable[..., Any]:
    """Time a protocol callback as a leaf.  Nested callbacks (a subclass
    calling ``super()``, a wrapper node calling its inner node) are timed
    once, by the outermost call."""
    clock = tracer.clock

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if getattr(local, "busy", False):
            return fn(*args, **kwargs)
        local.busy = True
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, clock() - t0)
            local.busy = False

    wrapper.__wrapped__ = fn
    return wrapper


def _protocol_classes() -> List[type]:
    import importlib
    import pkgutil

    import repro.protocols
    from repro.sim.node import ProtocolNode

    for info in pkgutil.iter_modules(repro.protocols.__path__):
        importlib.import_module(f"repro.protocols.{info.name}")
    found, todo = [ProtocolNode], [ProtocolNode]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [c for c in found
            if c is ProtocolNode or c.__module__.startswith("repro.protocols.")]


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced layer's public entry points.

    Functions are replaced on the module that callers look them up on at
    call time (``replicate`` and the reduction helpers are called through
    their module by the workloads; ``repro.cache.runcache`` and
    ``repro.faults.check`` are resolved at call time by the library).
    """
    from repro.cache import runcache
    from repro.cache.store import ResultCache
    from repro.core import composition, simulation
    from repro.faults import check
    from repro.sim import runner
    from repro.sim.batch import BatchEngine
    from repro.sim.engine import SynchronousEngine

    step = _traced_step(tracer)
    patches.set(BatchEngine, "step", step)
    patches.set(SynchronousEngine, "step", step)
    patches.set(runner, "replicate", _spanned(tracer, "sim.replicate", runner.replicate))
    patches.set(check, "trace_fingerprint",
                _spanned(tracer, "faults.fingerprint", check.trace_fingerprint))
    for attr in ("cache_key", "replicate_key"):
        patches.set(runcache, attr, _spanned(tracer, "cache.key", getattr(runcache, attr)))
    for attr in ("lookup_replicate", "lookup_run"):
        patches.set(runcache, attr, _spanned(tracer, "cache.lookup", getattr(runcache, attr)))
    for attr in ("store_replicate", "store_run"):
        patches.set(runcache, attr, _spanned(tracer, "cache.store", getattr(runcache, attr)))
    patches.set(ResultCache, "get", _spanned(tracer, "cache.lookup", ResultCache.get))
    patches.set(ResultCache, "put", _spanned(tracer, "cache.store", ResultCache.put))

    Party = simulation.PartySimulator
    Reduction = simulation.TwoPartyReduction
    patches.set(Party, "step_actions",
                _spanned(tracer, "core.party_actions", Party.step_actions))
    patches.set(Party, "step_delivery",
                _spanned(tracer, "core.party_delivery", Party.step_delivery))
    patches.set(Reduction, "__init__", _spanned(tracer, "core.build", Reduction.__init__))
    for attr in ("theorem6_network", "theorem7_network"):
        patches.set(composition, attr,
                    _spanned(tracer, "core.build", getattr(composition, attr)))
    patches.set(simulation, "run_reference_execution",
                _spanned(tracer, "core.reference", simulation.run_reference_execution))

    run = Reduction.run

    def counted_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        outcome = run(self, *args, **kwargs)
        tracer.count("cc.cut_bits", outcome.total_bits)
        return outcome

    patches.set(Reduction, "run", counted_run)

    local = threading.local()
    for cls in _protocol_classes():
        for callback in CALLBACKS:
            fn = cls.__dict__.get(callback)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                patches.set(cls, callback, _callback_leaf(
                    tracer, f"protocols.{callback}", fn, local))
