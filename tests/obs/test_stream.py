"""The session record: events.jsonl (checkpoint and heartbeat events
included), ``load_session``, resource sampling, partial sessions, and
the benchmark history store.

The load-bearing properties:

* **one record** — a session directory holds ``events.jsonl`` and its
  run files only, and :func:`load_session` reads back exactly what the
  live session held: its manifest and its span tree, id for id;
* **durability is free of semantics** — a durable (``stream=True``)
  session produces bit-identical trace fingerprints and the same
  deterministic metric counters as a plain one (a Hypothesis property
  over seeds);
* **crash-safety** — the event stream is a valid completed prefix at
  every point: dropping ``session-close`` still loads under
  ``inspect``/``profile`` as a PARTIAL session whose spans keep their
  parents;
* **trend analysis** — ``bench-history`` flags the injected regression
  against a median-of-last-K window and nothing else.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.check import trace_fingerprint
from repro.network.adversaries import RandomConnectedAdversary
from repro.obs import observe
from repro.obs.export import read_trace_jsonl
from repro.obs.history import (
    DEFAULT_WINDOW,
    MIN_ENTRIES,
    analyze_history,
    append_history,
    read_history,
    record_from_result,
    render_history,
    sparkline,
)
from repro.obs.inspect import inspect_session
from repro.obs.manifest import SESSION_FORMAT_VERSION, collect_provenance
from repro.obs.profile import profile_session, render_profile
from repro.obs.resource import (
    ResourceSampler,
    sample_resources,
    summarize_resources,
)
from repro.obs.spans import span
from repro.obs.stream import (
    EVENTS_FILENAME,
    STREAM_ENV,
    EventStream,
    load_session,
    read_events_jsonl,
    resolve_stream,
    stream_progress_totals,
)
from repro.protocols.flooding import TokenFloodNode
from repro.sim.config import RunConfig
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.runner import replicate


def _token_replicate(seeds, workers=0):
    ids = tuple(range(6))
    return replicate(
        NodeSet(ids, BoundNode(TokenFloodNode, source=ids[0])),
        Constant(RandomConnectedAdversary(list(ids), seed=7)),
        seeds=seeds,
        config=RunConfig(max_rounds=24, workers=workers, backend="reference"),
    )


def _streamed_session(tmp_path, seeds=(1, 2, 3), workers=0, name="stream"):
    d = tmp_path / name
    with observe(trace_dir=d, stream=True, resource_interval=0, label=name) as s:
        _token_replicate(seeds, workers=workers)
    return d, s


def _fingerprints(directory):
    return [
        trace_fingerprint(read_trace_jsonl(p).trace)
        for p in sorted(directory.glob("run-*.jsonl"))
    ]


def _counters(session):
    return {
        k: m["value"]
        for k, m in session.manifest.metrics.items()
        if m.get("type") == "counter" and not k.startswith("process_")
    }


class TestResolveStream:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(STREAM_ENV, "1")
        assert resolve_stream(False) is False
        monkeypatch.delenv(STREAM_ENV)
        assert resolve_stream(True) is True

    @pytest.mark.parametrize("raw,expect", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("no", False),
    ])
    def test_env_truthiness(self, monkeypatch, raw, expect):
        monkeypatch.setenv(STREAM_ENV, raw)
        assert resolve_stream(None) is expect

    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(STREAM_ENV, raising=False)
        assert resolve_stream(None) is False


class TestEventStream:
    def test_emit_sequences_and_close(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        stream = EventStream(path, label="t")
        stream.emit("run-complete", run={"seed": 1})
        stream.emit("fault", fault={"kind": "x"})
        stream.close(runs=1)
        events = read_events_jsonl(path)
        assert [e["type"] for e in events] == [
            "stream-start", "run-complete", "fault", "session-close",
        ]
        assert [e["seq"] for e in events] == [1, 2, 3, 4]
        assert events[-1]["runs"] == 1

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        stream = EventStream(path)
        stream.emit("run-complete", run={"seed": 1})
        # simulate a kill mid-write: append half a JSON line
        with path.open("a") as fh:
            fh.write('{"type": "run-com')
        events = read_events_jsonl(path)
        assert [e["type"] for e in events] == ["stream-start", "run-complete"]

    def test_checkpoint_roundtrip_is_atomic(self, tmp_path):
        """A checkpoint is one event line: it lands whole, and a partial
        session's metrics come back from it."""
        d = tmp_path / "s"
        with observe(trace_dir=d, stream=True, resource_interval=0, label="s") as s:
            s.registry.counter("widgets").inc(3)
            s.checkpoint()
            checkpoints = [
                e for e in read_events_jsonl(d / EVENTS_FILENAME)
                if e["type"] == "checkpoint"
            ]
            assert len(checkpoints) == 1
            assert checkpoints[0]["metrics"]["widgets"]["value"] == 3
            assert load_session(d).manifest.metrics["widgets"]["value"] == 3
        # the stream records label, provenance and wall clock itself
        assert not {"label", "provenance", "wall_seconds", "events_seq"} & set(
            checkpoints[0]
        )
        assert [p.name for p in d.iterdir() if "checkpoint" in p.name] == []

    def test_concurrent_checkpoint_writers_leave_valid_json(self, tmp_path):
        """A session's sampler tick and its job thread checkpoint at the
        same time; the stream's lock keeps every line whole and ordered."""
        path = tmp_path / EVENTS_FILENAME
        stream = EventStream(path)
        payloads = [{"writer": w, "pad": "x" * 4096} for w in range(4)]

        def writer(payload):
            for _ in range(60):
                stream.emit("checkpoint", **payload)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        stream.close()
        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]  # every line parses
        assert len(events) == 2 + 4 * 60
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        assert Counter(e.get("writer") for e in events if e["type"] == "checkpoint") == {
            w: 60 for w in range(4)
        }

    def test_session_checkpoints_from_two_threads(self, tmp_path):
        d = tmp_path / "s"
        errors = []
        done = threading.Event()
        with observe(trace_dir=d, stream=True, resource_interval=0, label="s") as s:
            s.checkpoint_interval = 0.0

            def tick():
                try:
                    while not done.is_set():
                        s._maybe_checkpoint()
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(exc)

            threads = [threading.Thread(target=tick) for _ in range(2)]
            for t in threads:
                t.start()
            try:
                _token_replicate((1, 2, 3, 4, 5, 6))
            finally:
                done.set()
                for t in threads:
                    t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
        lines = (d / EVENTS_FILENAME).read_text().splitlines()
        events = [json.loads(line) for line in lines]  # every line parses
        seqs = [e["seq"] for e in events]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        checkpoints = [e for e in events if e["type"] == "checkpoint"]
        assert checkpoints and checkpoints[-1]["runs"] == 6
        assert events[-1]["type"] == "session-close"

    def test_idle_session_skips_checkpoints(self, tmp_path):
        d = tmp_path / "s"
        with observe(trace_dir=d, stream=True, resource_interval=0) as s:
            s.checkpoint_interval = 0.0
            _token_replicate((1,))
            for _ in range(5):
                s._maybe_checkpoint()  # no run completed since the last one
            _token_replicate((2,))
            s._maybe_checkpoint()
        events = read_events_jsonl(d / EVENTS_FILENAME)
        assert [e["runs"] for e in events if e["type"] == "checkpoint"] == [1, 2]

    def test_corrupt_checkpoint_loads_none(self, tmp_path):
        """A checkpoint torn by a kill is skipped: metrics fall back to
        the previous checkpoint, or to none."""
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        events = d / EVENTS_FILENAME
        with events.open("a") as fh:
            fh.write('{"type": "checkpoint", "metrics": {"torn"')
        manifest = load_session(d).manifest
        assert manifest.metrics and "torn" not in manifest.metrics
        lines = [
            line for line in events.read_text().splitlines()
            if '"type": "checkpoint"' not in line or "torn" in line
        ]
        events.write_text("\n".join(lines))
        assert load_session(d).manifest.metrics == {}


class TestStreamingSession:
    def test_event_stream_written_and_manifest_links_it(self, tmp_path):
        d, session = _streamed_session(tmp_path)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        types = Counter(e["type"] for e in events)
        assert types["stream-start"] == 1
        assert types["run-complete"] == 3
        assert types["session-close"] == 1
        manifest = load_session(d).manifest
        assert not manifest.partial
        assert manifest.format_version == SESSION_FORMAT_VERSION == 5
        assert manifest.provenance.get("hostname")
        assert manifest.provenance.get("python_version")
        assert events[0]["format_version"] == 5
        assert events[0]["package_version"] == session.manifest.package_version
        assert sorted(p.name for p in d.iterdir() if not p.name.startswith("run-")) == [
            EVENTS_FILENAME,
        ]

    def test_progress_events_streamed(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        progress = [e for e in events if e["type"] == "progress"]
        assert {e["phase"] for e in progress} >= {"begin", "advance", "finish"}
        # live state: mid-flight the outermost scope shows done/total,
        # and the finish event pops it (a closed session tails to {})
        mid_flight = [e for e in events if not (
            e["type"] == "progress" and e["phase"] == "finish"
        )]
        totals = stream_progress_totals(mid_flight)
        assert totals[min(totals)] == (3, 3)
        assert stream_progress_totals(events) == {}

    def test_spans_from_events_match_recorder(self, tmp_path):
        d, session = _streamed_session(tmp_path)
        assert load_session(d).spans == session.spans.spans

    def test_fault_events_stream_immediately(self, tmp_path):
        d = tmp_path / "faulty"
        with observe(trace_dir=d, stream=True, resource_interval=0) as session:
            session.record_fault({"fault": "worker-crash", "layer": "executor"})
            # before close: the event stream already has it
            streamed = read_events_jsonl(d / EVENTS_FILENAME)
            (fault,) = [e["fault"] for e in streamed if e["type"] == "fault"]
            assert fault["fault"] == "worker-crash"

    def test_plain_session_is_not_durable(self, tmp_path):
        plain = tmp_path / "plain"
        with observe(trace_dir=plain, stream=False) as session:
            _token_replicate((1,))
        assert session.stream is not None and not session.stream.durable
        events = read_events_jsonl(plain / EVENTS_FILENAME)
        durable_types = {"heartbeat", "checkpoint"}
        assert not durable_types & {e["type"] for e in events}
        # the same session, durable: the same events plus the durable ones
        durable, _ = _streamed_session(tmp_path, seeds=(1,))
        assert [e["type"] for e in events] == [
            e["type"] for e in read_events_jsonl(durable / EVENTS_FILENAME)
            if e["type"] not in durable_types
        ]

    def test_collect_sessions_never_stream(self, tmp_path, monkeypatch):
        from repro.obs.runtime import ObservationSession

        monkeypatch.setenv(STREAM_ENV, "1")
        session = ObservationSession(collect=True)
        assert session.stream is None and not session.durable
        session.close()


class TestSessionRecord:
    """``load_session`` returns what the live session held."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_loaded_record_equals_live_session(self, tmp_path, workers):
        d = tmp_path / "s"
        with observe(trace_dir=d, label="rec") as session:
            _token_replicate((1, 2, 3), workers=workers)
        record = load_session(d)
        assert sorted(p.name for p in d.iterdir()) == [
            EVENTS_FILENAME, "run-0001.jsonl", "run-0002.jsonl", "run-0003.jsonl",
        ]
        assert record.spans == sorted(session.spans.spans, key=lambda sp: sp.span_id)
        runs = [sp for sp in record.spans if sp.kind == "run"]
        assert [sp.tags["protocol"] for sp in runs] == ["TokenFloodNode"] * 3
        loaded, live = record.manifest, session.manifest
        assert not loaded.partial
        assert loaded.label == live.label == "rec"
        assert loaded.package_version == live.package_version
        assert loaded.wall_seconds == live.wall_seconds
        assert loaded.workers == live.workers
        assert loaded.provenance == live.provenance
        assert loaded.metrics == live.metrics
        assert loaded.runs == live.runs
        assert record.run_files == [d / r.trace_file for r in live.runs]

    def test_run_spans_ride_on_their_run_complete_line(self, tmp_path):
        d, _ = _streamed_session(tmp_path, seeds=tuple(range(20)))
        events = read_events_jsonl(d / EVENTS_FILENAME)
        types = Counter(e["type"] for e in events)
        # start + 20 runs + 22 progress + 1 replicate span + close
        assert len(events) - types["checkpoint"] == 45
        runs = [e for e in events if e["type"] == "run-complete"]
        assert all([sp["kind"] for sp in e["spans"]] == ["run"] + ["phase"] * 5
                   for e in runs)

    def test_failed_persist_does_not_shift_later_run_spans(self, tmp_path, monkeypatch):
        """A run whose trace file could not be written streams no
        ``run-complete`` line, and every later line still carries its
        own run's spans."""
        import repro.obs.runtime as runtime

        write = runtime.write_trace_jsonl
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("disk full")
            return write(*args, **kwargs)

        monkeypatch.setattr(runtime, "write_trace_jsonl", fail_first)
        d = tmp_path / "s"
        with observe(trace_dir=d, resource_interval=0):
            with pytest.raises(OSError):
                _token_replicate((1,))
            _token_replicate((2, 3))
        runs = [e for e in read_events_jsonl(d / EVENTS_FILENAME)
                if e["type"] == "run-complete"]
        assert [e["run"]["seed"] for e in runs] == [2, 3]
        assert [e["spans"][0]["tags"]["seed"] for e in runs] == [2, 3]

    def test_report_titles_an_unlabelled_session_by_its_directory(self, tmp_path):
        from repro.obs.report import render_report

        d = tmp_path / "myrun"
        with observe(trace_dir=d):
            _token_replicate((1,))
        html = render_report(d / EVENTS_FILENAME, baseline=d / EVENTS_FILENAME)
        assert "<h1>Session report: myrun</h1>" in html
        assert f"Deltas vs baseline: {d}</h2>" in html

    def test_partial_session_keeps_closed_parents(self, tmp_path):
        """Spans whose parent closed keep it; children of a span still
        open at the kill become roots, so coverage never passes 100%."""
        d = tmp_path / "s"
        with observe(trace_dir=d, stream=True, resource_interval=0) as session:
            with span("sweep", "still-open") as outer:
                from repro.analysis.experiments.protocols import (
                    exp_known_d_upper_bounds,
                )

                exp_known_d_upper_bounds(sizes=(8,), seeds=(21,), workers=0)
                record = load_session(d)
                profile = profile_session(d)
            live = {sp.span_id: sp for sp in session.spans.spans}
        assert record.partial and profile.partial
        assert len(record.spans) == len(live) - 1  # all but the open sweep
        for sp in record.spans:
            parent = live[sp.span_id].parent_id
            assert sp.parent_id == (None if parent == outer.span_id else parent)
        assert any(sp.parent_id is not None for sp in record.spans)
        assert 0.0 < profile.coverage <= 1.0

    def test_dropped_close_line_profiles_within_full_coverage(self, tmp_path):
        d = tmp_path / "s"
        with observe(trace_dir=d, stream=True, resource_interval=0) as session:
            from repro.analysis.experiments.protocols import exp_known_d_upper_bounds

            exp_known_d_upper_bounds(sizes=(8, 16), seeds=(21,), workers=0)
        _make_partial(d)
        record = load_session(d)
        assert record.partial
        assert [(sp.span_id, sp.parent_id) for sp in record.spans] == [
            (sp.span_id, sp.parent_id) for sp in session.spans.spans
        ]
        profile = profile_session(d)
        assert profile.partial and profile.coverage <= 1.0


class TestStreamingEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    def test_streaming_changes_nothing(self, tmp_path_factory, seeds):
        tmp = tmp_path_factory.mktemp("equiv")
        plain = tmp / "plain"
        with observe(trace_dir=plain, stream=False) as base:
            _token_replicate(tuple(seeds))
        streamed = tmp / "streamed"
        with observe(trace_dir=streamed, stream=True, resource_interval=0) as s:
            _token_replicate(tuple(seeds))
        assert _fingerprints(plain) == _fingerprints(streamed)
        assert _counters(base) == _counters(s)

    def test_workers_streaming_equivalence(self, tmp_path):
        plain = tmp_path / "plain"
        with observe(trace_dir=plain, stream=False) as base:
            _token_replicate((1, 2, 3), workers=0)
        streamed = tmp_path / "streamed"
        with observe(trace_dir=streamed, stream=True, resource_interval=0) as s:
            _token_replicate((1, 2, 3), workers=2)
        assert _fingerprints(plain) == _fingerprints(streamed)
        assert _counters(base) == _counters(s)

    def test_sampling_gauges_are_the_only_metric_delta(self, tmp_path):
        d = tmp_path / "sampled"
        with observe(trace_dir=d, stream=True, resource_interval=0.01) as s:
            _token_replicate((1,))
        extra = {
            k for k in s.manifest.metrics if k.startswith("process_")
        }
        assert extra <= {
            "process_rss_bytes", "process_cpu_percent", "process_gc_collections",
        }


def _make_partial(directory):
    """Turn a cleanly closed session into a killed-looking one."""
    events = directory / EVENTS_FILENAME
    lines = events.read_text().splitlines()
    assert json.loads(lines[-1])["type"] == "session-close"
    events.write_text("\n".join(lines[:-1]) + "\n")


class TestPartialSession:
    def test_detection_and_synthesis(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        assert not load_session(d).partial
        _make_partial(d)
        manifest = load_session(d).manifest
        assert manifest.partial
        assert len(manifest.runs) == 3
        # loading never writes into the session directory
        assert len(list(d.iterdir())) == 4

    def test_inspect_marks_partial(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        report = inspect_session(d)
        assert report.partial
        text = report.render()
        assert "PARTIAL" in text
        assert "run-0001" in text

    def test_profile_reconstructs_spans(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        profile = profile_session(d)
        assert profile.partial
        assert profile.by_kind["run"].count == 3
        assert "PARTIAL" in render_profile(profile)

    def test_stale_checkpoint_never_shadows_fresher_events(self, tmp_path):
        d, session = _streamed_session(tmp_path)
        _make_partial(d)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        checkpoints = [e for e in events if e["type"] == "checkpoint"]
        # rate limiting means the last checkpoint may lag the stream...
        assert checkpoints
        assert checkpoints[-1]["runs"] <= session.num_runs
        # ...but runs are synthesized from run-complete events, the wall
        # clock from the last event, and the aggregates from the last
        # checkpoint (recoverable, not zeroed)
        manifest = load_session(d).manifest
        assert len(manifest.runs) == session.num_runs == 3
        assert manifest.metrics == checkpoints[-1]["metrics"]
        assert manifest.metrics["runs_total"]["value"] >= 1
        assert manifest.wall_seconds == events[-1]["elapsed"]
        assert manifest.label == "stream"
        assert manifest.provenance.get("hostname")

    def test_manifest_path_loads_like_its_directory(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        assert load_session(d / EVENTS_FILENAME).manifest.label == "stream"
        legacy = pathlib.Path(__file__).resolve().parents[1] / "data" / "v4_session"
        record = load_session(legacy / "clean" / "manifest.json")
        assert record.directory == legacy / "clean"
        assert record.manifest.label == "v4-fixture"

    def test_torn_run_file_skipped_with_note(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        torn = sorted(d.glob("run-*.jsonl"))[-1]
        torn.write_text(torn.read_text()[: 40])
        report = inspect_session(d)
        assert len(report.runs) == 2
        assert any(torn.name in note for note in report.skipped)

    def test_empty_dir_still_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_session(tmp_path / "nothing-here")
        with pytest.raises(ValueError, match="not an observation session"):
            load_session(tmp_path)


class TestResourceSampler:
    def test_sample_resources_shape(self):
        sample = sample_resources()
        assert sample["cpu_seconds"] >= 0
        assert "gc_collections" in sample

    def test_sampler_writes_lines_and_gauges(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        heartbeats = []
        ticks = []
        sampler = ResourceSampler(
            registry=registry, interval=10,
            emit=lambda **p: heartbeats.append(p), on_tick=lambda: ticks.append(1),
        )
        sampler.sample_once()
        sampler.sample_once()
        sampler.stop()
        assert len(heartbeats) == 2 and len(ticks) == 2
        assert set(heartbeats[0]) == {"rss_bytes", "cpu_percent", "gc_collections"}
        assert registry.gauge("process_gc_collections").value == (
            heartbeats[-1]["gc_collections"]
        )
        summary = summarize_resources(heartbeats)
        assert summary["samples"] == 2
        assert list(tmp_path.iterdir()) == []  # the sampler writes no file

    def test_on_tick_exceptions_swallowed(self, tmp_path):
        def boom():
            raise RuntimeError("never takes the sweep down")

        heartbeats = []
        sampler = ResourceSampler(
            interval=10, emit=lambda **p: heartbeats.append(p), on_tick=boom
        )
        sampler.sample_once()  # must not raise
        sampler.stop()
        # the heartbeat itself still landed before the tick blew up
        assert len(heartbeats) == 1

    def test_timeline_summarized_from_heartbeats(self, tmp_path):
        d = tmp_path / "sampled"
        with observe(trace_dir=d, stream=True, resource_interval=0.01):
            _token_replicate((1, 2))
            time.sleep(0.1)  # let the sampler tick a few times
        heartbeats = [
            e for e in read_events_jsonl(d / EVENTS_FILENAME)
            if e["type"] == "heartbeat"
        ]
        assert heartbeats
        res = profile_session(d).resources
        assert res["samples"] == len(heartbeats)
        assert res["rss_peak_bytes"] == max(h["rss_bytes"] for h in heartbeats)
        assert res["gc_collections"] == (
            heartbeats[-1]["gc_collections"] - heartbeats[0]["gc_collections"]
        )
        assert "resources:" in render_profile(profile_session(d))

    def test_summarize_empty(self):
        assert summarize_resources([]) is None


def _history_record(exp="EXP-X", wall=1.0, t=0, **summary):
    return {
        "exp_id": exp,
        "unix_time": t,
        "provenance": collect_provenance(),
        "backend": "reference",
        "timings": {"wall_seconds": wall},
        "summary": summary or {"n": 4},
    }


class TestHistory:
    def test_record_from_result_fields(self):
        record = record_from_result({
            "exp_id": "EXP-T6",
            "timings": {"wall_seconds": 0.5, "phase_seconds": {"delivery": 0.1}},
            "summary": {"runs": 4, "title": "not-a-number", "ok": True},
        }, timestamp=123.0)
        assert record["exp_id"] == "EXP-T6"
        assert record["unix_time"] == 123.0
        assert record["summary"] == {"runs": 4}  # strings and bools dropped
        assert record["provenance"]["hostname"]

    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "deep" / "history.jsonl"
        append_history(path, _history_record(t=1))
        append_history(path, _history_record(t=2))
        with path.open("a") as fh:
            fh.write('{"torn')  # killed mid-append
        records = read_history(path)
        assert [r["unix_time"] for r in records] == [1, 2]

    def test_insufficient_entries_pass(self):
        records = [_history_record(t=i) for i in range(MIN_ENTRIES - 1)]
        trends, code = analyze_history(records)
        assert code == 0
        assert all(t.status == "insufficient" for t in trends)

    def test_steady_history_is_ok(self):
        records = [_history_record(wall=1.0, t=i) for i in range(6)]
        trends, code = analyze_history(records)
        assert code == 0
        wall = next(t for t in trends if t.metric == "wall")
        assert wall.status == "ok" and wall.window_median == 1.0

    def test_regression_flags_exit_1(self):
        records = [_history_record(wall=1.0, t=i) for i in range(5)]
        records.append(_history_record(wall=2.0, t=5))
        trends, code = analyze_history(records)
        assert code == 1
        assert next(t for t in trends if t.metric == "wall").status == "regression"

    def test_window_limits_comparison(self):
        # old slowness outside the window must not mask a regression
        records = [_history_record(wall=5.0, t=0)]
        records += [_history_record(wall=1.0, t=i) for i in range(1, 7)]
        records.append(_history_record(wall=2.0, t=7))
        trends, code = analyze_history(records, window=3)
        assert code == 1

    def test_improvement_is_not_a_regression(self):
        records = [_history_record(wall=2.0, t=i) for i in range(5)]
        records.append(_history_record(wall=1.0, t=5))
        trends, code = analyze_history(records)
        assert code == 0
        assert next(t for t in trends if t.metric == "wall").status == "improved"

    def test_summary_drift_flags(self):
        records = [_history_record(t=i, rows=7) for i in range(4)]
        records.append(_history_record(t=4, rows=8))
        trends, code = analyze_history(records)
        assert code == 1
        drifted = next(t for t in trends if t.metric == "summary[rows]")
        assert drifted.status == "drift"

    def test_experiments_trend_independently(self):
        records = [_history_record(exp="EXP-A", wall=1.0, t=i) for i in range(4)]
        records += [_history_record(exp="EXP-B", wall=3.0, t=i) for i in range(4)]
        trends, code = analyze_history(records)
        assert code == 0
        assert {t.exp_id for t in trends} == {"EXP-A", "EXP-B"}

    def test_empty_history_exit_2(self):
        trends, code = analyze_history([])
        assert trends == [] and code == 2

    def test_sparkline(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_render_names_the_window(self):
        records = [_history_record(wall=1.0, t=i) for i in range(6)]
        trends, _ = analyze_history(records, window=DEFAULT_WINDOW)
        text = render_history(trends, window=DEFAULT_WINDOW, threshold=0.25)
        assert "EXP-X" in text and "wall" in text
