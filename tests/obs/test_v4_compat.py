"""Format-v4 sessions still load, and print what they printed before.

``tests/data/v4_session`` holds three small sessions written by the
format-4 code:

* ``clean`` and ``partial`` — streamed sessions from stream format 1.
  ``clean`` closed normally; ``partial`` has no ``manifest.json`` or
  ``spans.jsonl``, no ``session-close`` marker, and a torn final line.
  Both carry the two sidecars that format wrote beside ``events.jsonl``
  — ``checkpoint.json`` and ``resource.jsonl`` — which readers ignore:
  the heartbeat events hold the same resource samples, and a partial
  session's metrics are whatever ``checkpoint`` events the stream holds
  (none, in format 1).
* ``unstreamed`` — a session written without ``--stream``:
  ``manifest.json``, ``spans.jsonl``, ``faults.jsonl`` (one coin-tamper
  injection) and three engine runs, no ``events.jsonl``.  It was made
  by the format-4 code running, under ``observe(trace_dir,
  stream=False, label="v4-unstreamed")``, a ``cell`` span around a
  2-seed ``TokenFloodNode`` replicate (5 nodes, ``max_rounds=16``)
  and a ``cell`` span around one 4-node ``GossipMaxNode`` run with a
  ``coin-tamper`` fault; the hostname was then scrubbed.

``expected/`` holds what ``repro inspect`` and ``repro profile``
printed for each fixture at format 4 (the session path replaced by
``<session>``); the readers must keep printing exactly that.
"""

from __future__ import annotations

import io
import json
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.network.adversaries import RandomConnectedAdversary
from repro.obs import observe
from repro.obs.audit import audit_path
from repro.obs.inspect import inspect_session
from repro.obs.profile import profile_session, render_profile
from repro.obs.resource import summarize_resources
from repro.obs.stream import EVENTS_FILENAME, load_session, read_events_jsonl
from repro.obs.tail import tail_session
from repro.protocols.flooding import TokenFloodNode
from repro.sim.config import RunConfig
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.runner import replicate

FIXTURE = pathlib.Path(__file__).resolve().parents[1] / "data" / "v4_session"


@pytest.fixture(params=["clean", "partial"])
def session(request, tmp_path):
    d = tmp_path / request.param
    shutil.copytree(FIXTURE / request.param, d)
    assert (d / "checkpoint.json").is_file() and (d / "resource.jsonl").is_file()
    return d


@pytest.fixture
def unstreamed(tmp_path):
    d = tmp_path / "unstreamed"
    shutil.copytree(FIXTURE / "unstreamed", d)
    return d


def test_manifest_loads(session):
    manifest = load_session(session).manifest
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


@pytest.mark.parametrize("name", ["clean", "partial", "unstreamed"])
@pytest.mark.parametrize("command", ["inspect", "profile"])
def test_prints_what_format_4_printed(name, command, capsys):
    assert main([command, str(FIXTURE / name)]) == 0
    out = capsys.readouterr().out.replace(str(FIXTURE / name), "<session>")
    assert out == (FIXTURE / "expected" / f"{name}.{command}.txt").read_text()


def test_unstreamed_loads_everywhere(unstreamed, tmp_path, capsys):
    record = load_session(unstreamed)
    assert not record.partial and record.events == []
    assert record.manifest.label == "v4-unstreamed"
    assert [f.name for f in record.run_files] == [
        "run-0001.jsonl", "run-0002.jsonl", "run-0003.jsonl",
    ]
    assert {sp.kind for sp in record.spans} >= {"cell", "replicate", "run", "phase"}
    # no reduction runs: "nothing to audit", every engine run noted
    _reports, skipped, code = audit_path(unstreamed)
    assert code == 2 and len(skipped) == 3
    out = tmp_path / "report.html"
    assert main(["report", str(unstreamed), "--out", str(out)]) == 0
    capsys.readouterr()
    assert "tokenflood-n5" in out.read_text()
    tail = io.StringIO()
    assert tail_session(unstreamed, tail, follow=False) == 0
    assert tail.getvalue() == "tail: 3 runs — closed cleanly\n"


def test_new_session_into_a_format_4_directory_shows_the_new_session(
    unstreamed, capsys
):
    """A format-5 session leaves the old ``manifest.json``,
    ``spans.jsonl`` and run files in place; its ``events.jsonl`` is
    still the whole record."""
    ids = tuple(range(4))
    with observe(trace_dir=unstreamed, label="reused") as session:
        replicate(
            NodeSet(ids, BoundNode(TokenFloodNode, source=0)),
            Constant(RandomConnectedAdversary(list(ids), seed=3)),
            seeds=(5,),
            config=RunConfig(max_rounds=12, backend="reference"),
        )
    record = load_session(unstreamed)
    assert not record.partial
    assert record.manifest.label == "reused"
    assert record.manifest.runs == session.manifest.runs
    assert [f.name for f in record.run_files] == ["run-0001.jsonl"]
    assert record.spans == sorted(session.spans.spans, key=lambda sp: sp.span_id)
    assert main(["inspect", str(unstreamed)]) == 0
    out = capsys.readouterr().out
    assert "reused" in out and "v4-unstreamed" not in out
    tail = io.StringIO()
    assert tail_session(unstreamed, tail, follow=False) == 0
    assert tail.getvalue().endswith("tail: 1 runs — closed cleanly\n")
