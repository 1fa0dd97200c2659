"""The sweep daemon round-trip: submit → stream → result → cached resubmit.

Runs a real :class:`~repro.serve.daemon.SweepService` behind a real
``ThreadingHTTPServer`` on an ephemeral port and drives it with the
real :mod:`repro.serve.client` — the same code path ``repro serve`` /
``repro submit`` use, minus the argv parsing.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.stream import load_session
from repro.serve.client import (
    ServeError,
    job_status,
    request_json,
    submit_job,
    wait_for_job,
)
from repro.serve.daemon import SweepService, make_server


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on an ephemeral port; yields (base_url, service)."""
    service = SweepService(
        tmp_path / "serve", workers=0, cache="rw", cache_dir=str(tmp_path / "cache")
    )
    server = make_server("127.0.0.1", 0, service, quiet=True)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}", service
    finally:
        service.stop()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.join(timeout=5)


class TestRoundTrip:
    def test_healthz(self, daemon):
        base_url, _service = daemon
        health = request_json(base_url, "/healthz")
        assert health["ok"] is True
        assert health["jobs"] == 0
        assert "cache_counters" in health

    def test_submit_wait_result_then_cached_resubmit(self, daemon, tmp_path):
        base_url, _service = daemon

        view = submit_job(base_url, "thm6", quick=True, workers=0)
        assert view["job_id"] == "job-0001"
        assert view["status"] in ("queued", "running")
        assert "result" not in view  # the view never carries the body

        cold = wait_for_job(base_url, view["job_id"], timeout=120.0)
        assert cold["status"] == "done"
        result = cold["result"]
        assert result["exp_id"] == "EXP-T6"
        assert result["rows"]
        assert cold["cache_events"]["store"] > 0
        assert cold["cache_events"].get("hit", 0) == 0

        # every job runs under a durable observation session
        session_dir = tmp_path / "serve" / "sessions" / "job-0001"
        assert {p.name for p in session_dir.iterdir()
                if not p.name.startswith("run-")} == {"events.jsonl"}
        assert not load_session(session_dir).partial

        # the identical resubmission is answered from cache, bit-identically
        second = submit_job(base_url, "thm6", quick=True, workers=0)
        warm = wait_for_job(base_url, second["job_id"], timeout=120.0)
        assert warm["cache_events"]["hit"] > 0
        assert warm["cache_events"].get("store", 0) == 0
        assert warm["result"]["rows"] == result["rows"]
        assert warm["result"]["headers"] == result["headers"]
        assert warm["result"]["summary"] == result["summary"]

    def test_jobs_listing(self, daemon):
        base_url, _service = daemon
        submit_job(base_url, "fig1")
        wait_for_job(base_url, "job-0001", timeout=60.0)
        listing = request_json(base_url, "/jobs")
        assert [j["job_id"] for j in listing["jobs"]] == ["job-0001"]
        assert job_status(base_url, "job-0001")["experiment"] == "fig1"


class TestErrorPaths:
    def test_unknown_experiment_is_400(self, daemon):
        base_url, _service = daemon
        with pytest.raises(ServeError) as exc:
            submit_job(base_url, "nonsense")
        assert exc.value.status == 400
        assert "unknown experiment" in str(exc.value)

    def test_bad_cache_mode_is_400(self, daemon):
        base_url, _service = daemon
        with pytest.raises(ServeError) as exc:
            submit_job(base_url, "fig1", cache="write-back")
        assert exc.value.status == 400

    def test_bad_backend_is_400(self, daemon):
        base_url, _service = daemon
        with pytest.raises(ServeError) as exc:
            submit_job(base_url, "fig1", backend="gpu")
        assert exc.value.status == 400

    def test_unknown_job_is_404(self, daemon):
        base_url, _service = daemon
        with pytest.raises(ServeError) as exc:
            request_json(base_url, "/jobs/job-9999/result")
        assert exc.value.status == 404

    def test_pending_result_is_409(self, daemon):
        base_url, service = daemon
        # enqueue directly without waking the scheduler thread's next poll
        view = service.submit({"experiment": "fig1"})
        try:
            payload = request_json(base_url, f"/jobs/{view['job_id']}/result")
        except ServeError as exc:
            assert exc.status == 409
        else:  # the scheduler may have already finished it — also fine
            assert payload["status"] == "done"

    def test_unknown_endpoint_is_404(self, daemon):
        base_url, _service = daemon
        with pytest.raises(ServeError) as exc:
            request_json(base_url, "/nope")
        assert exc.value.status == 404

    def test_malformed_body_is_400(self, daemon):
        base_url, _service = daemon
        import urllib.request

        req = urllib.request.Request(
            base_url + "/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(Exception) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert getattr(exc.value, "code", None) == 400
