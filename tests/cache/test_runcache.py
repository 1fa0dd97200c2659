"""Cached-vs-fresh bit-identity and the sweep hit-rate acceptance bar.

PR 10's core guarantee: a cache hit is indistinguishable from the run
it replaced — same outputs, same round count, same bit totals, same
trace fingerprint — and a repeated identical ``cartesian_sweep`` is
served (almost) entirely from cache.  Because the key holds only the
semantic fields, reference- and batch-backend runs share entries; the
backends were proven bit-identical by the golden corpus and the
differential fuzzer, so serving one the other's entry is sound.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import repro
from repro.analysis.sweep import cartesian_sweep
from repro.cache import key as key_module
from repro.cache.runcache import run_fingerprint, verify_entry
from repro.cache.store import ResultCache, cache_counters
from repro.network.adversaries import StaticAdversary
from repro.network.generators import line_edges
from repro.protocols.flooding import TokenFloodNode
from repro.sim import RunConfig, replicate, run_protocol

IDS = tuple(range(6))


def _make_nodes():
    return {i: TokenFloodNode(i, source=0) for i in IDS}


def _make_adv():
    return StaticAdversary(IDS, line_edges(list(IDS)))


def _sweep_cell(a, b):
    """Module-level sweep cell (tokenizable): mixed int/float/str row."""
    return {"total": a * 10 + b, "ratio": a / (b + 1), "tag": f"{a}-{b}"}


def _delta(before, after):
    return {k: after[k] - before[k] for k in after}


def _cfg(tmp_path, **kw):
    kw.setdefault("cache", "rw")
    return RunConfig(
        seed=3, max_rounds=30, cache_dir=str(tmp_path / "cache"), **kw
    )


class TestRunProtocolCaching:
    def test_second_run_is_served_bit_identically(self, tmp_path):
        cold = run_protocol(_make_nodes, _make_adv, _cfg(tmp_path))
        warm = run_protocol(_make_nodes, _make_adv, _cfg(tmp_path))
        assert not cold.cached
        assert warm.cached
        assert warm.outputs == cold.outputs
        assert warm.rounds == cold.rounds
        assert warm.total_bits == cold.total_bits
        assert warm.terminated == cold.terminated
        assert run_fingerprint(warm) == run_fingerprint(cold)

    def test_cache_is_shared_across_backends(self, tmp_path):
        ref = run_protocol(
            _make_nodes, _make_adv, _cfg(tmp_path, backend="reference")
        )
        bat = run_protocol(_make_nodes, _make_adv, _cfg(tmp_path, backend="batch"))
        assert not ref.cached
        assert bat.cached  # the batch run hit the reference-stored entry
        assert run_fingerprint(bat) == run_fingerprint(ref)
        fresh_bat = run_protocol(
            _make_nodes, _make_adv,
            RunConfig(seed=3, max_rounds=30, backend="batch", cache="off"),
        )
        assert run_fingerprint(bat) == run_fingerprint(fresh_bat)

    def test_ro_mode_never_stores(self, tmp_path):
        before = cache_counters()
        run = run_protocol(_make_nodes, _make_adv, _cfg(tmp_path, cache="ro"))
        delta = _delta(before, cache_counters())
        assert not run.cached
        assert delta["store"] == 0
        assert delta["miss"] == 1

    def test_instrumented_runs_bypass_the_cache(self, tmp_path):
        run_protocol(_make_nodes, _make_adv, _cfg(tmp_path))  # warm the entry
        before = cache_counters()
        run = run_protocol(_make_nodes, _make_adv, _cfg(tmp_path, instrument=True))
        delta = _delta(before, cache_counters())
        assert not run.cached
        assert delta["hit"] == 0  # instrumented runs want the real trace
        assert run.trace.records  # and got one

    def test_different_seed_misses(self, tmp_path):
        run_protocol(_make_nodes, _make_adv, _cfg(tmp_path))
        other = run_protocol(
            _make_nodes, _make_adv,
            RunConfig(seed=4, max_rounds=30, cache="rw",
                      cache_dir=str(tmp_path / "cache")),
        )
        assert not other.cached


class TestCodeIdentity:
    """A result computed by other code is never served."""

    def test_changed_code_digest_misses_where_it_used_to_hit(self, tmp_path, monkeypatch):
        cold = run_protocol(_make_nodes, _make_adv, _cfg(tmp_path))
        assert run_protocol(_make_nodes, _make_adv, _cfg(tmp_path)).cached
        monkeypatch.setattr(key_module, "code_digest", lambda: "0" * 64)
        after = run_protocol(_make_nodes, _make_adv, _cfg(tmp_path, cache="ro"))
        assert not after.cached
        assert run_fingerprint(after) == run_fingerprint(cold)

    def test_editing_a_protocol_misses_instead_of_serving_stale_bits(self, tmp_path):
        tree = tmp_path / "src"
        shutil.copytree(
            pathlib.Path(repro.__file__).parent,
            tree / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        script = (
            "import json, sys\n"
            "from repro.network.adversaries import StaticAdversary\n"
            "from repro.network.generators import line_edges\n"
            "from repro.protocols.flooding import GossipMaxNode\n"
            "from repro.sim import RunConfig, run_protocol\n"
            "from repro.sim.factories import BoundNode, Constant, NodeSet\n"
            "ids = list(range(6))\n"
            "run = run_protocol(NodeSet(ids, BoundNode(GossipMaxNode)),\n"
            "    Constant(StaticAdversary(ids, line_edges(ids))),\n"
            "    RunConfig(seed=3, max_rounds=12, cache=sys.argv[1], cache_dir=sys.argv[2]))\n"
            "print(json.dumps({'cached': run.cached, 'bits': run.total_bits}))\n"
        )

        def run(mode):
            out = subprocess.run(
                [sys.executable, "-c", script, mode, str(tmp_path / "cache")],
                capture_output=True, text=True, timeout=120, check=True,
                env={**os.environ, "PYTHONPATH": str(tree)},
            )
            return json.loads(out.stdout)

        stored = run("rw")
        assert run("ro") == {"cached": True, "bits": stored["bits"]}
        flooding = tree / "repro" / "protocols" / "flooding.py"
        source = flooding.read_text()
        assert 'Send(("max", self.best))' in source
        flooding.write_text(source.replace('Send(("max", self.best))', 'Send(("max", self.best, 0))'))
        edited = run("ro")
        assert not edited["cached"]
        assert edited["bits"] != stored["bits"]


class TestReplicateCaching:
    def test_replicate_entry_is_all_or_nothing(self, tmp_path):
        cfg = RunConfig(max_rounds=30, cache="rw", cache_dir=str(tmp_path / "c"))
        cold = replicate(_make_nodes, _make_adv, [1, 2, 3], cfg)
        before = cache_counters()
        warm = replicate(_make_nodes, _make_adv, [1, 2, 3], cfg)
        delta = _delta(before, cache_counters())
        assert delta["hit"] == 1  # one replicate entry, not three run entries
        assert all(r.cached for r in warm.runs)
        assert [r.outputs for r in warm.runs] == [r.outputs for r in cold.runs]
        assert [r.rounds for r in warm.runs] == [r.rounds for r in cold.runs]
        assert [run_fingerprint(r) for r in warm.runs] == [
            run_fingerprint(r) for r in cold.runs
        ]

    def test_different_seed_list_misses(self, tmp_path):
        cfg = RunConfig(max_rounds=30, cache="rw", cache_dir=str(tmp_path / "c"))
        replicate(_make_nodes, _make_adv, [1, 2, 3], cfg)
        summary = replicate(_make_nodes, _make_adv, [1, 2], cfg)
        assert not any(r.cached for r in summary.runs)


class TestSweepCaching:
    GRID = {"a": list(range(6)), "b": list(range(4))}  # 24 cells

    def test_repeated_sweep_served_at_least_95_percent_from_cache(self, tmp_path):
        cfg = RunConfig(cache="rw", cache_dir=str(tmp_path / "c"))
        cold = cartesian_sweep(self.GRID, _sweep_cell, config=cfg)
        before = cache_counters()
        warm = cartesian_sweep(self.GRID, _sweep_cell, config=cfg)
        delta = _delta(before, cache_counters())
        n_cells = len(cold)
        assert n_cells == 24
        # the acceptance bar: >= 95% of cells served from cache,
        # bit-identically (here: all of them)
        assert delta["hit"] >= 0.95 * n_cells
        assert delta["store"] == 0
        assert warm == cold

    def test_uncacheable_cell_fn_still_sweeps(self, tmp_path):
        cfg = RunConfig(cache="rw", cache_dir=str(tmp_path / "c"))
        before = cache_counters()
        rows = cartesian_sweep({"a": [1, 2]}, lambda a: {"b": a + 1}, config=cfg)
        delta = _delta(before, cache_counters())
        assert rows == [{"a": 1, "b": 2}, {"a": 2, "b": 3}]
        assert delta["uncacheable"] >= 1
        assert delta["store"] == 0


class TestVerify:
    def test_stored_entries_verify_bit_identically(self, tmp_path):
        run_protocol(_make_nodes, _make_adv, _cfg(tmp_path))
        cartesian_sweep(
            {"a": [1, 2], "b": [0]}, _sweep_cell,
            config=RunConfig(cache="rw", cache_dir=str(tmp_path / "cache")),
        )
        cache = ResultCache(tmp_path / "cache")
        entries = [entry for _path, entry in cache.iter_entries()]
        assert len(entries) == 3
        for entry in entries:
            status, detail = verify_entry(entry)
            assert status == "ok", detail

    def test_tampered_payload_is_a_mismatch(self, tmp_path):
        cfg = RunConfig(cache="rw", cache_dir=str(tmp_path / "cache"))
        cartesian_sweep({"a": [1, 2], "b": [0]}, _sweep_cell, config=cfg)
        cache = ResultCache(tmp_path / "cache")
        (_p1, first), (_p2, second) = sorted(
            cache.iter_entries(), key=lambda pe: pe[1]["key"]
        )
        first["payload"] = second["payload"]  # right recipe, wrong result
        status, _detail = verify_entry(first)
        assert status == "mismatch"

    def test_recipe_free_entry_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" + "0" * 62, {"row": {}}, "cell", recipe=None)
        ((_path, entry),) = list(cache.iter_entries())
        status, _detail = verify_entry(entry)
        assert status == "skip"
