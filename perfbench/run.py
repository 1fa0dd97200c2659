"""The repository benchmark: one command, four workloads, two metric levels.

``BENCHMARK.json`` gates three of the workloads; serve-suite runs by
name only (WORKLOADS.md says why).

Run from the repository root::

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 28 --trace 0

prints every end-to-end metric with its unit and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
pass's time is the sum over its operations of each operation's median
over the run's samples, every sample rescaled to the speed of a quiet
reference host by host-speed readings (a fixed reference loop) taken
right before and after it; the unscaled figure is printed beside each.  ``--trace 1`` runs
one untraced and one traced repeat instead and reports the per-layer
metrics (self time, share of the traced repeat, counts); the spans are
written to ``.perfbench/traces/``.

Other modes::

    python3 perfbench/run.py --regen-expected [--workload NAME]
        recompute perfbench/expected.json on the reference engine
    python3 perfbench/run.py --workload NAME --steadiness 10 [--seed 1]
        run NAME under seeds seed..seed+9 and print median/quartiles/spread

Each workload runs in a fresh child process whose environment has every
``REPRO_*`` variable cleared (``REPRO_BENCH_HISTORY`` set empty) and
whose temp and cache directories are new directories under
``.perfbench/`` in the checkout; nothing is read from or written to
``~/.cache/repro``, ``benchmarks/out`` or ``benchmarks/history.jsonl``.
``setup_s`` is measured from outside: process start to the child's
"ready" line, over several fresh processes, each bracketed by readings
in the parent.  See WORKLOADS.md for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ("dense-sweep", "sparse-cache", "reduction", "serve-suite")
READY = "perfbench-ready"

SETUP_PROBES = 6  # fresh processes timed to set-up
#: the reference loop's time per REFERENCE_ITERATIONS on a quiet 2-vCPU
#: Xeon (the host the bounds were set on); every timing is rescaled to a
#: host of that speed
HOST_REFERENCE_S = 0.023
REFERENCE_ITERATIONS, REFERENCE_CHUNK = 80_000, 10_000
#: a reading after an operation lasts at least this share of it
READING_SHARE = 0.1
MIN_REPEATS, MAX_REPEATS = 2, 50
RUN_DEADLINE_S = 170.0  # children are killed past this, so a run ends within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "fresh_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "node_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer self-time metric -> traced layer (span or leaf) name
LAYER_TIMES = {
    "protocols.action_s": "protocols.action",
    "protocols.on_messages_s": "protocols.on_messages",
    "protocols.on_sent_s": "protocols.on_sent",
    "protocols.output_s": "protocols.output",
    "sim.actions_self_s": "sim.actions",
    "sim.adversary_s": "sim.adversary",
    "sim.validation_s": "sim.validation",
    "sim.delivery_self_s": "sim.delivery",
    "sim.termination_self_s": "sim.termination",
    "sim.unattributed_s": "sim.replicate",
    "faults.fingerprint_s": "faults.fingerprint",
    "cache.key_s": "cache.key",
    "cache.lookup_s": "cache.lookup",
    "cache.store_s": "cache.store",
    "core.build_s": "core.build",
    "core.party_actions_s": "core.party_actions",
    "core.party_delivery_s": "core.party_delivery",
    "core.reference_s": "core.reference",
}
CACHE_EVENTS = ("hit", "miss", "store", "corrupt", "uncacheable")


def share_name(time_metric: str) -> str:
    return time_metric[: -len("_s")] + "_share"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit (the --trace 1 output set)."""
    units: Dict[str, str] = {}
    for name in list(LAYER_TIMES) + ["trace.unattributed_s"]:
        units[name] = "s"
        units[share_name(name)] = "fraction"
    for event in CACHE_EVENTS:
        units[f"cache.{event}"] = "count"
    units.update({
        "cache.hit_rate": "fraction",
        "cache.bytes_stored": "bytes",
        "cc.cut_bits": "bits",
        "serve.queue_wait_ms": "ms",
        "serve.run_ms": "ms",
        "serve.http_ms": "ms",
        "serve.job_p50_ms": "ms",
        "serve.job_p90_ms": "ms",
        "obs.session_bytes": "bytes",
        "obs.session_files": "count",
        "pass.fresh_s": "s",
        "pass.fresh_replicate_s": "s",
        "pass.cold_s": "s",
        "pass.warm_s": "s",
        "trace.overhead": "ratio",
        "host.calibration_ms": "ms",
    })
    return units


# ======================================================================
# child side: runs inside the scrubbed environment, imports the program
#: what each chunk of the reference loop JSON-encodes and hashes
_REFERENCE_ROWS = [[[i, (i * 7) % 577] for i in range(j, j + 100)] for j in range(40)]


def calibrate(min_seconds: float = 0.0) -> float:
    """A reading of host speed, which on a shared machine swings by tens
    of percent within a second: seconds per REFERENCE_ITERATIONS of the
    reference loop, run for at least REFERENCE_ITERATIONS and at least
    ``min_seconds``.  Each chunk of the loop does pure-Python dict and
    integer work and then JSON-encodes and hashes a fixed table, the two
    kinds of work the workloads do (interpreter-bound and C-level,
    memory-bound), which a slow host slows by different amounts."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    digest = hashlib.sha256()
    total = done = 0
    while True:
        for i in range(done, done + REFERENCE_CHUNK):
            key = i % 977
            table[key] = table.get(key, 0) + i
            total += i * i
        digest.update(json.dumps({"rows": _REFERENCE_ROWS, "chunk": done},
                                 sort_keys=True).encode())
        done += REFERENCE_CHUNK
        elapsed = time.perf_counter() - t0
        if done >= REFERENCE_ITERATIONS and elapsed >= min_seconds:
            return elapsed * REFERENCE_ITERATIONS / done


def host_scale(before: float, after: float) -> float:
    """Factor that rescales a timing bracketed by two reference-loop
    readings to a host on which the loop takes HOST_REFERENCE_S."""
    return 2 * HOST_REFERENCE_S / (before + after)


def _percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class _Phase:
    """Times one pass; in a traced repeat also opens the pass's root span."""

    def __init__(self, tracer: Any, name: str):
        self.tracer = tracer
        self.name = name
        self.seconds = 0.0

    def __enter__(self) -> "_Phase":
        if self.tracer is not None:
            self.tracer.phase = self.name
            self._frame = self.tracer.begin(f"pass.{self.name}")
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.end(self._frame)


class HostReadings:
    """Reference-loop readings chained through a repeat.  Each reading
    closes the interval since the one before; what was timed in that
    interval is rescaled by the two readings around it."""

    def __init__(self) -> None:
        self.readings = [calibrate()]

    def scale_since_last(self, seconds: float) -> float:
        """Factor for ``seconds`` of work timed since the last reading."""
        reading = calibrate(READING_SHARE * seconds)
        scale = host_scale(self.readings[-1], reading)
        self.readings.append(reading)
        return scale


def _repeat(wl: Any, work_dir: pathlib.Path, index: int, checker: Any,
            tracer: Any = None, rescale: bool = False) -> Dict[str, Any]:
    """fresh pass, cold pass into a new cache dir, warm passes from it.

    With ``rescale`` a host-speed reading follows every fresh and cold
    operation and the last warm pass, and ``*_scaled`` hold the
    operations' times rescaled to the reference host (HOST_REFERENCE_S)."""
    from repro.cache.store import cache_counters
    from workloads import OpTimes, tree_size

    gc.collect()
    host = HostReadings() if rescale else None
    bracket = host.scale_since_last if host else None
    rec: Dict[str, Any] = {"warm_ops": [], "warm_scaled": []}
    fresh = OpTimes(bracket)
    with _Phase(tracer, "fresh") as phase:
        rec["node_rounds"] = wl.fresh(checker, fresh)
    rec["fresh"] = phase.seconds
    rec["fresh_replicate"] = getattr(wl, "replicate_seconds", 0.0)
    cache_dir = wl.new_cache(work_dir / f"cache-{index}")
    before = cache_counters()
    cold = OpTimes(bracket)
    with _Phase(tracer, "cold") as phase:
        wl.cold(checker, cold, cache_dir)
    rec["cold"] = phase.seconds
    after_cold = cache_counters()
    rec["bytes_stored"] = tree_size(pathlib.Path(cache_dir))[0]
    rec["warm"] = []
    for _ in range(wl.warm_passes):
        warm = OpTimes()
        with _Phase(tracer, "warm") as phase:
            wl.warm(checker, warm, cache_dir)
        rec["warm"].append(phase.seconds)
        rec["warm_ops"].append(warm.times)
    if host:  # one reading after the warm passes, which run back to back
        scale = host.scale_since_last(sum(rec["warm"]))
        rec["warm_scaled"] = [{name: t * scale for name, t in ops.items()}
                              for ops in rec["warm_ops"]]
    after_warm = cache_counters()
    rec["fresh_ops"], rec["cold_ops"] = fresh.times, cold.times
    if host:
        rec["fresh_scaled"], rec["cold_scaled"] = fresh.scaled(), cold.scaled()
    rec["reference"] = host.readings if host else [calibrate()]
    rec["calibration"] = statistics.median(rec["reference"])
    rec["cache_cold"] = {k: after_cold[k] - before[k] for k in CACHE_EVENTS}
    rec["cache_warm"] = {k: after_warm[k] - after_cold[k] for k in CACHE_EVENTS}
    rec["wall"] = rec["fresh"] + rec["cold"] + sum(rec["warm"])
    shutil.rmtree(cache_dir, ignore_errors=True)
    return rec


def _serve_layers(wl: Any) -> Dict[str, float]:
    jobs = getattr(wl, "warm_jobs", [])
    if not jobs:
        return {}
    latency = [j["latency"] for j in jobs]
    stats = getattr(wl, "session_stats", [])
    return {
        "serve.queue_wait_ms": 1000 * statistics.median(j["queue_wait"] for j in jobs),
        "serve.run_ms": 1000 * statistics.median(j["run"] for j in jobs),
        "serve.http_ms": 1000 * statistics.median(j["latency"] - j["daemon"] for j in jobs),
        "serve.job_p50_ms": 1000 * statistics.median(latency),
        "serve.job_p90_ms": 1000 * _percentile(latency, 90),
        "obs.session_bytes": statistics.mean(s[0] for s in stats),
        "obs.session_files": statistics.mean(s[1] for s in stats),
    }


def _traced_metrics(wl: Any, work_dir: pathlib.Path, checker: Any,
                    trace_path: pathlib.Path) -> Dict[str, float]:
    import tracer as tracing

    plain = _repeat(wl, work_dir, 0, checker)
    metrics = {name: 0.0 for name in per_layer_units()}
    metrics.update(_serve_layers(wl))
    metrics["pass.fresh_s"] = plain["fresh"]
    metrics["pass.fresh_replicate_s"] = plain["fresh_replicate"]
    metrics["pass.cold_s"] = plain["cold"]
    metrics["pass.warm_s"] = statistics.median(plain["warm"])

    tracer = tracing.Tracer()
    with tracing.Patches() as patches:
        tracing.install(tracer, patches)
        traced = _repeat(wl, work_dir, 1, checker, tracer)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)

    wall = traced["wall"]
    self_times = tracer.self_times()
    attributed = 0.0
    for metric, layer in LAYER_TIMES.items():
        metrics[metric] = self_times.get(layer, 0.0)
        attributed += metrics[metric]
    metrics["trace.unattributed_s"] = wall - attributed
    for metric in list(LAYER_TIMES) + ["trace.unattributed_s"]:
        metrics[share_name(metric)] = metrics[metric] / wall
    for event in CACHE_EVENTS:
        metrics[f"cache.{event}"] = traced["cache_cold"][event] + traced["cache_warm"][event]
    served = traced["cache_warm"]["hit"] + traced["cache_warm"]["miss"]
    metrics["cache.hit_rate"] = traced["cache_warm"]["hit"] / served if served else 0.0
    metrics["cache.bytes_stored"] = traced["bytes_stored"]
    metrics["cc.cut_bits"] = tracer.counts.get("cc.cut_bits", 0)
    metrics["trace.overhead"] = wall / plain["wall"]
    metrics["host.calibration_ms"] = 1000 * statistics.median(
        [plain["calibration"], traced["calibration"]])
    return metrics


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    work_dir = pathlib.Path(args.work_dir)
    if args.child == "regen":
        table = workloads.regenerate(args.workload, work_dir)
        print(json.dumps(table, sort_keys=True))
        return 0
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    wl = workloads.build(args.workload, args.seed, expected, work_dir)
    try:
        print(READY, flush=True)
        if args.child == "setup":
            return 0
        checker = workloads.Checker()
        result: Dict[str, Any] = {}
        if args.trace:
            trace_path = OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            result["per_layer"] = _traced_metrics(wl, work_dir, checker, trace_path)
        else:
            reps: List[Dict[str, Any]] = []
            t0 = time.perf_counter()
            while len(reps) < MAX_REPEATS:
                reps.append(_repeat(wl, work_dir, len(reps), checker, rescale=True))
                elapsed = time.perf_counter() - t0
                if len(reps) >= MIN_REPEATS and elapsed * (1 + 1 / len(reps)) > args.seconds:
                    break
            result["repeats"] = reps
            result["serve"] = _serve_layers(wl)
        result.update(
            attempted=checker.attempted,
            failed=checker.failed,
            failures=checker.messages,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        print(json.dumps(result), flush=True)
    finally:
        wl.close()
    return 0


# ======================================================================
# parent side: no program imports; spawns, times and aggregates children
class Child:
    """One child process; ``ready_s`` is process start -> READY line."""

    def __init__(self, mode: str, args: argparse.Namespace, work_dir: pathlib.Path,
                 deadline: float):
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--child", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work_dir),
        ]
        work_dir.mkdir(parents=True, exist_ok=True)
        (work_dir / "tmp").mkdir(exist_ok=True)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=child_env(work_dir / "tmp"),
            stdout=subprocess.PIPE, text=True,
        )
        self._timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self._timer.start()
        self.ready_s: Optional[float] = None
        self.returncode: Optional[int] = None
        self.lines: List[str] = []
        for line in self.proc.stdout:
            if line.strip() == READY:
                self.ready_s = time.perf_counter() - t0
                break
            self.lines.append(line)

    def finish(self) -> Optional[Dict[str, Any]]:
        """Wait for exit; the child's last stdout line, parsed, or None."""
        self.lines.extend(self.proc.stdout)
        self.returncode = self.proc.wait()
        self._timer.cancel()
        if self.returncode != 0 or not self.lines:
            return None
        try:
            return json.loads(self.lines[-1])
        except ValueError:
            return None

    def kill(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def child_env(tmp_dir: pathlib.Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_BENCH_HISTORY"] = ""
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp_dir)
    return env


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def pass_time(op_times: List[Dict[str, float]]) -> float:
    """A pass's time: the sum over its operations of each operation's
    median over the run's samples (robust to bursts of host noise that
    hit single operations)."""
    names = sorted({name for ops in op_times for name in ops})
    return sum(statistics.median(ops[name] for ops in op_times if name in ops)
               for name in names)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def measure(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    children: List[Child] = []
    try:
        setup, setup_raw = [], []
        for i in range(SETUP_PROBES):
            before = calibrate(READING_SHARE * statistics.median(setup_raw or [0.0]))
            probe = Child("setup", args, run_dir / f"probe-{i}", deadline)
            children.append(probe)
            probe.finish()
            after = calibrate(READING_SHARE * (probe.ready_s or 0.0))
            if probe.returncode != 0 or probe.ready_s is None:
                sys.stderr.write("perfbench: set-up probe failed\n")
                return 1
            setup_raw.append(probe.ready_s)
            setup.append(probe.ready_s * host_scale(before, after))
        main = Child("run", args, run_dir / "run", deadline)
        children.append(main)
        result = main.finish()
        if result is None or main.ready_s is None:
            sys.stderr.write("perfbench: workload process failed\n" + "".join(main.lines[-20:]))
            return 1
    finally:
        for child in children:
            child.kill()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    for message in result["failures"]:
        print(f"FAILED: {message}")
    print(f"{args.workload} seed={args.seed}: error_rate = "
          f"{failed / max(1, attempted):.6g} fraction ({failed}/{attempted} operations)")
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
        for name in sorted(units):
            print(f"  {name} = {_fmt(metrics[name]['value'])} {units[name]}")
    else:
        reps = result["repeats"]
        adjusted = {kind: [r[f"{kind}_scaled"] for r in reps] for kind in ("fresh", "cold")}
        adjusted["warm"] = [ops for r in reps for ops in r["warm_scaled"]]
        raw = {kind: [r[f"{kind}_ops"] for r in reps] for kind in ("fresh", "cold")}
        raw["warm"] = [ops for r in reps for ops in r["warm_ops"]]
        fresh = pass_time(adjusted["fresh"])
        values = {
            "setup_s": statistics.median(setup),
            "fresh_s": fresh,
            "cold_s": pass_time(adjusted["cold"]),
            "warm_s": pass_time(adjusted["warm"]),
            "node_rounds_per_s": statistics.median(r["node_rounds"] for r in reps) / fresh,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        # the same figures from unscaled timings, printed for comparison
        unscaled = {
            "setup_s": statistics.median(setup_raw),
            "fresh_s": pass_time(raw["fresh"]),
            "cold_s": pass_time(raw["cold"]),
            "warm_s": pass_time(raw["warm"]),
        }
        unscaled["node_rounds_per_s"] = (statistics.median(r["node_rounds"] for r in reps)
                                         / unscaled["fresh_s"])
        metrics = {}
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
            note = (f"  (unscaled {_fmt(unscaled[name])})" if name in unscaled else "")
            print(f"  {name} = {_fmt(value)} {E2E_UNITS[name]}{note}")
        print(f"  samples per operation: fresh {len(reps)}, cold {len(reps)}, "
              f"warm {len(raw['warm'])}; setup probes {len(setup)}")
        for name, value in sorted(result["serve"].items()):
            print(f"  {name} = {_fmt(value)}")
        reference = [1000 * t for r in reps for t in r["reference"]]
        q1, q2, q3 = _quartiles(reference)
        print(f"  host.calibration_ms = {_fmt(q2)} ms, quartiles {_fmt(q1)}..{_fmt(q3)} "
              f"(reference loop; {1000 * HOST_REFERENCE_S:g} ms on the reference host)")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def regen(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    run_dir = OUT_DIR / f"regen-{os.getpid()}"
    try:
        for name in names:
            args.workload = name
            child = Child("regen", args, run_dir / name, time.monotonic() + 3600)
            produced = child.finish()
            child.kill()
            if produced is None:
                sys.stderr.write(f"perfbench: regenerating {name} failed\n")
                return 1
            table[name] = produced
            print(f"{name}: {len(produced)} expected entries")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    table["about"] = (
        "Expected outputs per pool input; regenerate with "
        "`python3 perfbench/run.py --regen-expected` (reference engine)."
    )
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


UNSCALED_LINE = re.compile(r"^  (\S+) = \S+ \S+  \(unscaled (\S+)\)$")


def steadiness(args: argparse.Namespace) -> int:
    """Repeat the workload over consecutive seeds; print each end-to-end
    metric's median, quartiles and spread (IQR / median), and the same
    for the unscaled figures."""
    values: Dict[str, List[float]] = {}
    for seed in range(args.seed, args.seed + args.steadiness):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        if out.returncode != 0 or not out.stdout.strip():
            print(f"seed {seed}: exit {out.returncode}, no result", flush=True)
            continue
        last = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode}, {wall:.1f} s wall, correct={last['correct']}, "
              + ", ".join(f"{k}={_fmt(v['value'])}" for k, v in last["metrics"].items()),
              flush=True)
        for name, metric in last["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in out.stdout.splitlines():
            match = UNSCALED_LINE.match(line)
            if match:
                values.setdefault(f"{match[1]} (unscaled)", []).append(float(match[2]))
    for name, vals in values.items():
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{args.workload} {name}: median {_fmt(med)} quartiles {_fmt(q1)}..{_fmt(q3)} "
              f"spread {(q3 - q1) / med:.4f}")
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS")
    parser.add_argument("--child", choices=("setup", "run", "regen"), help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.regen_expected and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}; "
                         f"run from a checkout of the repository\n")
        return 2
    if args.regen_expected:
        return regen(args)
    if not EXPECTED.is_file():
        sys.stderr.write("perfbench: expected.json missing; run --regen-expected\n")
        return 2
    if args.steadiness:
        return steadiness(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
