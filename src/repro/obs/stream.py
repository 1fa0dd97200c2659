"""The session record: ``events.jsonl``, and the one loader that reads it.

Every persisting :class:`~repro.obs.runtime.ObservationSession` writes
exactly one telemetry file beside its ``run-NNNN.jsonl`` files: an
append-only ``events.jsonl`` holding one JSON line per occurrence,
written and flushed as it happens.  The file is a valid record of the
completed prefix at every instant, so a killed session still loads and
another process can follow a live one (``repro tail``).  A *durable*
session (``--stream``, ``REPRO_STREAM=1``, every ``repro serve`` job)
also ``fsync``\\ s each line and adds ``heartbeat`` and ``checkpoint``
events.

Event types:

* ``stream-start`` — the header: ``format_version`` (the session
  format, :data:`~repro.obs.manifest.SESSION_FORMAT_VERSION`), label,
  pid, ``package_version``, provenance;
* ``run-complete`` — one engine/reduction run persisted: its
  :class:`~repro.obs.manifest.RunManifest` dict (``run``) and its
  ``run`` span with the ``phase`` children (``spans``);
* ``span-close`` / ``cell-complete`` / ``degraded-retry`` — one finished
  span, with the recorder's ``span_id``/``parent_id``;
* ``fault`` — a fault injection, the moment it is recorded (a crash
  *caused* by an injected fault is itself observable post-mortem);
* ``progress`` — begin/advance/finish from the execution layer
  (:func:`repro.obs.progress.report_begin` and friends);
* ``heartbeat`` (durable only) — one resource sample (RSS, CPU percent,
  GC collections) from :mod:`repro.obs.resource`;
* ``checkpoint`` (durable only) — the aggregates so far (metrics,
  workers, run count, open spans), rate-limited, so a crashed session's
  metrics are recoverable to the last checkpoint instead of to zero;
* ``session-close`` — the last line of a clean close: run count and the
  final ``wall_seconds``, ``workers`` and ``metrics``.

**Loading.**  :func:`load_session` is the one reader behind ``repro
inspect``/``audit``/``profile``/``report``/``tail``.  A session is
partial exactly when its stream has no ``session-close`` line; the
reader tolerates a torn final line (a kill mid-``write``).  Directories
written by format-4-or-older sessions (a ``manifest.json``, perhaps a
``spans.jsonl``) load through :meth:`SessionManifest.load
<repro.obs.manifest.SessionManifest.load>` and
:func:`~repro.obs.spans.read_spans_jsonl` — unless a format-5 stream
sits beside them, written by a newer session into the same directory;
that stream is the record.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .manifest import (
    MANIFEST_FILENAME,
    SESSION_FORMAT_VERSION,
    RunManifest,
    SessionManifest,
)
from .spans import SPANS_FILENAME, Span, SpanRecorder, read_spans_jsonl

__all__ = [
    "EVENTS_FILENAME",
    "STREAM_ENV",
    "SESSION_FILES",
    "EventStream",
    "SessionRecord",
    "resolve_stream",
    "read_events_jsonl",
    "load_session",
    "stream_progress_totals",
]

EVENTS_FILENAME = "events.jsonl"

#: File names that stand for their session directory wherever a session
#: path is accepted (the format-4 ``manifest.json`` included).
SESSION_FILES = (EVENTS_FILENAME, MANIFEST_FILENAME)

#: Environment variable making every persisting session durable (the
#: CLI ``--stream``/``--no-stream`` flags win over it either way).
STREAM_ENV = "REPRO_STREAM"

#: Event types whose payload is one finished span.
_SPAN_EVENTS = ("span-close", "cell-complete", "degraded-retry")

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def resolve_stream(stream: Optional[bool] = None) -> bool:
    """Effective durability choice: explicit argument, else ``REPRO_STREAM``."""
    if stream is not None:
        return bool(stream)
    return os.environ.get(STREAM_ENV, "").strip().lower() in _TRUTHY


class EventStream:
    """Append-only event log for one session directory.

    Thread-safe: the resource sampler thread heartbeats into the same
    stream the main thread records runs into.  Every ``emit`` is one
    ``write`` + ``flush`` (+ ``os.fsync`` when ``durable``) — after a
    ``kill -9`` the file holds every event emitted before the kill, plus
    at most one torn final line (which :func:`read_events_jsonl` skips).
    Opening truncates: a reused directory starts a fresh stream.
    """

    def __init__(self, path: pathlib.Path, durable: bool = False, **header: Any):
        self.path = pathlib.Path(path)
        self.durable = durable
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = time.perf_counter()
        self._fh = self.path.open("w", encoding="utf-8")
        self._closed = False
        self.emit(
            "stream-start",
            format_version=SESSION_FORMAT_VERSION,
            pid=os.getpid(),
            unix_time=time.time(),
            **header,
        )

    def emit(self, type_: str, **payload: Any) -> None:
        """Append one event line; on disk (durable: synced) on return."""
        with self._lock:
            if self._closed:  # pragma: no cover - defensive late emits
                return
            self._seq += 1
            record = {"type": type_, "seq": self._seq,
                      "elapsed": time.perf_counter() - self._t0}
            record.update(payload)
            # default=str: free-form span tags may carry non-JSON values;
            # a readable stream beats a crashed sweep.
            self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            self._fh.flush()
            if self.durable:
                os.fsync(self._fh.fileno())

    def close(self, **summary: Any) -> None:
        """Emit the clean-shutdown marker and close the file."""
        self.emit("session-close", **summary)
        with self._lock:
            self._closed = True
            self._fh.close()


def read_events_jsonl(path: pathlib.Path) -> List[dict]:
    """Load an event stream, tolerating a torn final line.

    A ``kill -9`` can interrupt the final ``write`` mid-line; every
    *complete* line is valid JSON by construction, so undecodable or
    non-object lines are skipped rather than fatal — the stream of a
    crashed session must always load.
    """
    path = pathlib.Path(path)
    events: List[dict] = []
    with path.open(encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                continue  # torn tail of a killed writer
            if isinstance(line, dict):
                events.append(line)
    return events


@dataclass
class SessionRecord:
    """Everything :func:`load_session` reads back from a session directory."""

    directory: pathlib.Path
    manifest: SessionManifest
    #: finished spans, sorted by id (parents still open at a kill are
    #: detached, making their children roots)
    spans: List[Span]
    #: the raw event stream ([] for sessions that wrote none)
    events: List[dict]
    #: the run files, in run order
    run_files: List[pathlib.Path]

    @property
    def partial(self) -> bool:
        return self.manifest.partial


def _last(events: List[dict], type_: str) -> Optional[dict]:
    return next((e for e in reversed(events) if e.get("type") == type_), None)


def _manifest_from_events(
    events: List[dict], start: dict, directory: pathlib.Path
) -> SessionManifest:
    close = _last(events, "session-close")
    # a crashed session's aggregates come from its last checkpoint
    final = close or _last(events, "checkpoint") or {}
    if close is not None:
        wall = close.get("wall_seconds")
    else:
        wall = events[-1].get("elapsed") if events else None
    runs = [
        RunManifest.from_dict(e["run"]) for e in events
        if e.get("type") == "run-complete" and isinstance(e.get("run"), dict)
    ]
    if close is None and not runs:
        # killed before its first run-complete: the run files on disk
        runs = _runs_from_files(directory)
    return SessionManifest(
        label=start.get("label"),
        package_version=start.get("package_version", "?"),
        wall_seconds=wall,
        runs=runs,
        metrics=dict(final.get("metrics") or {}),
        workers=int(final.get("workers") or 0),
        provenance=dict(start.get("provenance") or {}),
        # streams of format-4 sessions carried a stream format 1-2 here
        format_version=max(int(start.get("format_version", 4)), 4),
        partial=close is None,
    )


def _spans_from_events(events: List[dict]) -> List[Span]:
    spans: List[Span] = []
    legacy_runs: List[dict] = []
    for event in events:
        etype = event.get("type")
        if etype in _SPAN_EVENTS and isinstance(event.get("span"), dict):
            spans.append(Span.from_dict(event["span"]))
        elif etype == "run-complete" and "spans" in event:
            spans.extend(Span.from_dict(d) for d in event["spans"])
        elif etype == "run-complete" and isinstance(event.get("run"), dict):
            legacy_runs.append(event)
    if legacy_runs:
        # Format-4 streams never carried run/phase spans; rebuild them
        # from the per-phase seconds, numbered after the streamed ones.
        recorder = SpanRecorder()
        recorder._next_id = max((sp.span_id for sp in spans), default=0) + 1
        for event in legacy_runs:
            recorder.record_run(
                RunManifest.from_dict(event["run"]),
                event.get("phase_seconds"),
                protocol=event.get("protocol"),
            )
        spans.extend(recorder.spans)
    closed = {sp.span_id for sp in spans}
    for sp in spans:
        if sp.parent_id not in closed:
            sp.parent_id = None  # the parent was still open at the kill
    return sorted(spans, key=lambda sp: sp.span_id)


def _runs_from_files(directory: pathlib.Path) -> List[RunManifest]:
    """Run list of a session killed before its first ``run-complete``."""
    runs: List[RunManifest] = []
    for path in sorted(directory.glob("run-*.jsonl")):
        try:
            with path.open(encoding="utf-8") as fh:
                head = json.loads(fh.readline())
            if head.get("type") != "manifest":
                continue
            manifest = RunManifest.from_dict(head)
        except (OSError, ValueError, TypeError, AttributeError):
            continue  # torn first line: the run never completed
        manifest.trace_file = path.name
        runs.append(manifest)
    return runs


def load_session(path: pathlib.Path) -> SessionRecord:
    """Read a session back: manifest, spans, events and run files.

    ``path`` is a session directory, its ``events.jsonl``, or the
    ``manifest.json`` of a format-4-or-older session.  Raises
    :class:`FileNotFoundError` when nothing exists there and
    :class:`ValueError` for a directory holding no session output.
    """
    directory = pathlib.Path(path)
    if directory.name in SESSION_FILES and directory.is_file():
        directory = directory.parent
    if not directory.is_dir():
        raise FileNotFoundError(f"no session directory at {directory}")
    events_path = directory / EVENTS_FILENAME
    events = read_events_jsonl(events_path) if events_path.is_file() else []
    start = next((e for e in events if e.get("type") == "stream-start"), {})
    legacy = directory / MANIFEST_FILENAME
    # A format-5 stream is the whole record, even beside a manifest.json
    # an older session left in the same directory.
    if legacy.is_file() and start.get("format_version", 0) < SESSION_FORMAT_VERSION:
        manifest = SessionManifest.load(legacy)
        spans_path = directory / SPANS_FILENAME
        spans = read_spans_jsonl(spans_path) if spans_path.is_file() else []
        run_files = [directory / r.trace_file for r in manifest.runs if r.trace_file]
        run_files = run_files or sorted(directory.glob("run-*.jsonl"))
    elif events or any(directory.glob("run-*.jsonl")):
        manifest = _manifest_from_events(events, start, directory)
        spans = _spans_from_events(events)
        run_files = [directory / r.trace_file for r in manifest.runs if r.trace_file]
    else:
        raise ValueError(
            f"{directory}: no {EVENTS_FILENAME} or run files — not an "
            f"observation session directory"
        )
    return SessionRecord(
        directory=directory,
        manifest=manifest,
        spans=spans,
        events=events,
        run_files=run_files,
    )


# ----------------------------------------------------------------------
# event-stream helpers shared by tail and the tests
def stream_progress_totals(events: List[dict]) -> Dict[int, Tuple[int, int]]:
    """``{depth: (done, total)}`` from the progress events seen so far."""
    state: Dict[int, Tuple[int, int]] = {}
    for event in events:
        if event.get("type") != "progress":
            continue
        depth = int(event.get("depth", 1))
        phase = event.get("phase")
        if phase == "begin":
            state[depth] = (0, int(event.get("total", 0)))
        elif phase == "advance":
            done, total = state.get(depth, (0, 0))
            state[depth] = (done + 1, total)
        elif phase == "finish":
            state.pop(depth, None)
    return state
