"""Format-v4 sessions written before stream format 2 still load.

``tests/data/v4_session`` holds two small sessions written by the
stream-format-1 code: ``clean`` (closed normally) and ``partial`` (no
``manifest.json`` or ``spans.jsonl``, no ``session-close`` marker, a
torn final line).  Both carry the two sidecars that format wrote beside
``events.jsonl`` — ``checkpoint.json`` and ``resource.jsonl``.  Readers
ignore the sidecars: the heartbeat events hold the same resource
samples, and a partial session's metrics are whatever ``checkpoint``
events the stream holds (none, in format 1).
"""

from __future__ import annotations

import io
import json
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.obs.inspect import inspect_session
from repro.obs.profile import profile_session, render_profile
from repro.obs.resource import summarize_resources
from repro.obs.stream import EVENTS_FILENAME, load_session_manifest, read_events_jsonl
from repro.obs.tail import tail_session

FIXTURE = pathlib.Path(__file__).resolve().parents[1] / "data" / "v4_session"


@pytest.fixture(params=["clean", "partial"])
def session(request, tmp_path):
    d = tmp_path / request.param
    shutil.copytree(FIXTURE / request.param, d)
    assert (d / "checkpoint.json").is_file() and (d / "resource.jsonl").is_file()
    return d


def test_manifest_loads(session):
    manifest = load_session_manifest(session)
    assert manifest.partial is (session.name == "partial")
    assert manifest.label == "v4-fixture"
    assert manifest.format_version == 4
    assert len(manifest.runs) == 2
    assert manifest.provenance["hostname"] == "fixture-host"
    if not manifest.partial:
        assert manifest.metrics["runs_total"]["value"] == 2


def test_inspect(session, capsys):
    report = inspect_session(session)
    assert len(report.runs) == 2
    assert ("PARTIAL" in report.render()) is (session.name == "partial")
    assert main(["inspect", str(session)]) == 0
    assert "run-0002.jsonl" in capsys.readouterr().out


def test_profile_timeline_matches_the_old_sidecar(session, capsys):
    profile = profile_session(session)
    assert profile.by_kind["run"].count == 2
    sidecar = [
        json.loads(line)
        for line in (session / "resource.jsonl").read_text().splitlines()
    ]
    old = summarize_resources(sidecar)
    assert profile.resources["samples"] == old["samples"] == 3
    assert profile.resources["rss_peak_bytes"] == old["rss_peak_bytes"]
    assert profile.resources["gc_collections"] == old["gc_collections"]
    assert main(["profile", str(session)]) == 0
    assert "resources: 3 samples" in capsys.readouterr().out
    assert "resources:" in render_profile(profile)


def test_report(session, tmp_path, capsys):
    out = tmp_path / "report.html"
    assert main(["report", str(session), "--out", str(out),
                 "--baseline", str(FIXTURE / "clean" / "manifest.json")]) == 0
    capsys.readouterr()
    html = out.read_text()
    assert "Resources" in html and "Deltas vs baseline" in html


def test_tail(session):
    out = io.StringIO()
    code = tail_session(session, out, follow=False)
    assert code == (0 if session.name == "clean" else 1)
    assert "2 runs" in out.getvalue()
    events = read_events_jsonl(session / EVENTS_FILENAME)
    assert events[0]["format_version"] == 1
