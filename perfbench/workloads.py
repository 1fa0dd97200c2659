"""The four benchmark workloads: inputs from a seed, passes, verification.

Every workload is a list of *operations* (a ``replicate`` call, a
reduction cell, a daemon job) executed three ways:

* **fresh** — result cache off; every output is checked against the
  committed expected table (``expected.json``);
* **cold** — the same operations with ``cache="rw"`` into an empty,
  private cache directory, checked the same way;
* **warm** — the same operations again, served from that directory;
  served results must carry the expected (stored) fingerprint/result.

A mismatch or an exception is one failed operation; it is counted,
never raised, so ``error_rate = failed / attempted`` stays honest.

Inputs come from ``--seed`` by drawing from fixed pools (coin seeds,
adversary seeds, lollipop labelings, disjointness-instance seeds, job
order), so every input the benchmark can produce has an expected value
in the committed table, computed by :func:`regenerate` on the reference
engine.

Library entry points are called through their modules
(``runner.replicate``, ``check.trace_fingerprint``, ...) so that the
traced run's wrappers (see ``tracer.py``) see the same calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
import shutil
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import runcache
from repro.cc.disjointness import random_instance
from repro.core import composition, simulation
from repro.faults import check
from repro.network.adaptive import AdaptiveBlockingAdversary
from repro.network.adversaries import (
    RotatingStarAdversary,
    ShiftingLineAdversary,
    StaticAdversary,
    TIntervalAdversary,
)
from repro.network.generators import line_edges, lollipop_edges
from repro.protocols.cflood import cflood_factory
from repro.protocols.consensus import ConsensusFromLeaderNode
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.sim import runner
from repro.sim.config import RunConfig
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.parallel import ParallelExecutor

clock = time.perf_counter


class Checker:
    """Counts operations attempted and failed; keeps the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)

    def crashed(self, what: str, exc: BaseException, ops: int = 1) -> None:
        for _ in range(ops):
            self.op(False, f"{what}: {type(exc).__name__}: {exc}")


class OpTimes:
    """One pass's operation times (seconds, by operation name).

    ``bracket``, when given, is called with each operation's time right
    after it is timed, outside that time, and returns the factor that
    rescales it to the reference host's speed (the benchmark takes a
    host-speed reading there)."""

    def __init__(self, bracket: Optional[Callable[[float], float]] = None):
        self.times: Dict[str, float] = {}
        self.scales: Dict[str, float] = {}
        self._bracket = bracket

    def record(self, name: str, seconds: float) -> None:
        self.times[name] = seconds
        if self._bracket is not None:
            self.scales[name] = self._bracket(seconds)

    def scaled(self) -> Dict[str, float]:
        return {name: t * self.scales[name] for name, t in self.times.items()}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ----------------------------------------------------------------------
# replicate workloads: dense-sweep and sparse-cache
def informed_probe(node: Any) -> bool:
    return bool(getattr(node, "informed", False))


def best_is_255(node: Any) -> bool:
    return getattr(node, "best", None) == 255


class FreshBlocking:
    """A fresh adaptive blocking adversary per replica (they are stateful)."""

    def __init__(self, ids: Sequence[int], probe: Any):
        self.ids = list(ids)
        self.probe = probe

    def __call__(self) -> AdaptiveBlockingAdversary:
        return AdaptiveBlockingAdversary(self.ids, probe=self.probe)


class ReplicateCell:
    """One ``replicate`` call: factories, seed set and round budget."""

    def __init__(self, label: str, variant: Any, num_nodes: int,
                 make_nodes: Any, make_adversary: Any, max_rounds: int,
                 seeds: Sequence[int]):
        self.label = label
        self.variant = variant
        self.num_nodes = num_nodes
        self.make_nodes = make_nodes
        self.make_adversary = make_adversary
        self.max_rounds = max_rounds
        self.seeds = tuple(seeds)

    def run_key(self, seed: int) -> str:
        return f"{self.label}|{self.variant}|seed={seed}"

    def config(self, **kwargs: Any) -> RunConfig:
        return RunConfig(max_rounds=self.max_rounds, workers=0, **kwargs)


#: EXP-SUB's seven classic cells: (label, protocol, N, adversary, rounds)
DENSE_SPECS = (
    ("gossip/rotating-star N=64 R=400", "gossip", 64, "rotating-star", 400),
    ("flood/static-line N=128", "flood", 128, "static-line", 200),
    ("flood/shifting-line N=256 e=16 R=300", "flood", 256, "shifting-line", 300),
    ("flood/t-interval N=256 T=32 R=200", "flood", 256, "t-interval-32", 200),
    ("gossip/t-interval N=128 T=16 R=150", "gossip", 128, "t-interval-16", 150),
    ("gossip/adaptive-blocking N=256 R=150", "gossip", 256, "blocking", 150),
    ("flood/adaptive-blocking N=128 R=200", "flood", 128, "blocking", 200),
)
#: the cells dense-sweep's cold and warm passes run (the cache is not
#: what dense-sweep is for; these two have seed-independent run sizes)
DENSE_CACHE_LABELS = ("flood/static-line N=128", "flood/adaptive-blocking N=128 R=200")
DENSE_COIN_POOL = tuple(range(1, 9))
DENSE_ADV_POOL = (7, 9, 11)
DENSE_SEEDS_PER_CELL = 2
SEEDED_ADVERSARIES = ("shifting-line", "t-interval-32", "t-interval-16")


def dense_cell(spec: tuple, adv_seed: Optional[int], seeds: Sequence[int]) -> ReplicateCell:
    label, protocol, n, adversary, rounds = spec
    ids = tuple(range(n))
    if protocol == "flood":
        make_nodes = NodeSet(ids, BoundNode(TokenFloodNode, source=ids[0]))
    else:
        make_nodes = NodeSet(ids, BoundNode(GossipMaxNode))
    if adversary == "rotating-star":
        make_adv: Any = Constant(RotatingStarAdversary(ids))
    elif adversary == "static-line":
        make_adv = Constant(StaticAdversary(ids, line_edges(list(ids))))
    elif adversary == "shifting-line":
        make_adv = Constant(ShiftingLineAdversary(ids, seed=adv_seed, reshuffle_every=16))
    elif adversary.startswith("t-interval-"):
        interval = int(adversary.rsplit("-", 1)[1])
        make_adv = Constant(TIntervalAdversary(ids, seed=adv_seed, interval=interval))
    else:
        probe = informed_probe if protocol == "flood" else best_is_255
        make_adv = FreshBlocking(ids, probe)
    return ReplicateCell(label, f"adv={adv_seed}", n, make_nodes, make_adv, rounds, seeds)


def dense_cells(seed: int) -> List[ReplicateCell]:
    rng = _rng("dense-sweep", seed)
    cells = []
    for spec in DENSE_SPECS:
        adv_seed = rng.choice(DENSE_ADV_POOL) if spec[3] in SEEDED_ADVERSARIES else None
        seeds = sorted(rng.sample(DENSE_COIN_POOL, DENSE_SEEDS_PER_CELL))
        cells.append(dense_cell(spec, adv_seed, seeds))
    return cells


#: lollipops above DENSE_NODE_LIMIT=512 (bitset delivery): (N, clique, rounds)
SPARSE_SPECS = ((576, 160, 10), (704, 192, 10))
SPARSE_LABELING_POOL = (0, 1, 2)
SPARSE_COIN_POOL = (1, 2, 3, 4)
SPARSE_SEEDS_PER_CELL = 1


def sparse_cell(spec: tuple, labeling: int, seeds: Sequence[int]) -> ReplicateCell:
    """A lollipop flood; ``labeling`` > 0 shuffles which ids form the
    clique and the tail (same shape, different edge sets)."""
    n, k, rounds = spec
    ids = list(range(n))
    order = list(ids)
    if labeling:
        random.Random(f"lollipop/{n}/{k}/{labeling}").shuffle(order)
    edges = lollipop_edges(order[:k], order[k:])
    make_nodes = NodeSet(tuple(ids), BoundNode(TokenFloodNode, source=order[-1]))
    make_adv = Constant(StaticAdversary(tuple(ids), edges))
    label = f"flood/lollipop N={n} k={k} R={rounds}"
    return ReplicateCell(label, f"labeling={labeling}", n, make_nodes, make_adv,
                         rounds, seeds)


def sparse_cells(seed: int) -> List[ReplicateCell]:
    rng = _rng("sparse-cache", seed)
    return [
        sparse_cell(spec, rng.choice(SPARSE_LABELING_POOL),
                    sorted(rng.sample(SPARSE_COIN_POOL, SPARSE_SEEDS_PER_CELL)))
        for spec in SPARSE_SPECS
    ]


class ReplicateWorkload:
    """Operations are ``replicate`` calls on the batch backend; the cold
    and warm passes run the cells named in ``cache_labels`` (all if None)."""

    def __init__(self, cells: List[ReplicateCell], expected: Dict[str, Any],
                 warm_passes: int, cache_labels: Optional[Sequence[str]] = None):
        self.cells = cells
        self.cache_cells = [cell for cell in cells
                            if cache_labels is None or cell.label in cache_labels]
        self.expected = expected
        self.warm_passes = warm_passes
        self.replicate_seconds = 0.0  # time inside replicate, last pass

    def _cell(self, checker: Checker, cell: ReplicateCell, cache: str,
              cache_dir: Optional[str], served: bool) -> int:
        """One replicate call and the check of each of its runs."""
        cfg = cell.config(backend="batch", cache=cache, cache_dir=cache_dir)
        try:
            t0 = clock()
            summary = runner.replicate(cell.make_nodes, cell.make_adversary,
                                       cell.seeds, cfg)
            self.replicate_seconds += clock() - t0
        except Exception as exc:
            checker.crashed(cell.label, exc, ops=len(cell.seeds))
            return 0
        node_rounds = 0
        for seed, run in zip(cell.seeds, summary.runs):
            what = f"{cell.run_key(seed)} ({cache})"
            try:
                fingerprint = (run.fingerprint if served
                               else check.trace_fingerprint(run.trace))
            except Exception as exc:
                checker.crashed(what, exc)
                continue
            want = self.expected.get(cell.run_key(seed))
            ok = (
                want is not None
                and run.cached == served
                and fingerprint == want["fingerprint"]
                and run.total_bits == want["bits"]
                and run.trace.rounds == want["rounds"]
            )
            checker.op(ok, f"{what}: output differs from expected table")
            node_rounds += cell.num_nodes * run.trace.rounds
        return node_rounds

    def _pass(self, checker: Checker, ops: OpTimes, cells: List[ReplicateCell],
              cache: str, cache_dir: Optional[str], served: bool) -> int:
        node_rounds = 0
        self.replicate_seconds = 0.0
        for cell in cells:
            t0 = clock()
            node_rounds += self._cell(checker, cell, cache, cache_dir, served)
            ops.record(cell.label, clock() - t0)
        return node_rounds

    def new_cache(self, path: pathlib.Path) -> str:
        path.mkdir(parents=True)
        return str(path)

    def fresh(self, checker: Checker, ops: OpTimes) -> int:
        return self._pass(checker, ops, self.cells, "off", None, served=False)

    def cold(self, checker: Checker, ops: OpTimes, cache_dir: str) -> None:
        self._pass(checker, ops, self.cache_cells, "rw", cache_dir, served=False)

    def warm(self, checker: Checker, ops: OpTimes, cache_dir: str) -> None:
        self._pass(checker, ops, self.cache_cells, "rw", cache_dir, served=True)

    def close(self) -> None:
        pass


def regenerate_replicate(cells: List[ReplicateCell]) -> Dict[str, Any]:
    """Expected values on the reference engine (SynchronousEngine)."""
    table: Dict[str, Any] = {}
    for cell in cells:
        cfg = cell.config(backend="reference", cache="off")
        summary = runner.replicate(cell.make_nodes, cell.make_adversary, cell.seeds, cfg)
        for seed, run in zip(cell.seeds, summary.runs):
            if run.backend != "reference":
                raise RuntimeError(f"{cell.label}: ran on {run.backend}, not reference")
            table[cell.run_key(seed)] = {
                "fingerprint": check.trace_fingerprint(run.trace),
                "bits": run.total_bits,
                "rounds": run.trace.rounds,
            }
    return table


def all_dense_cells() -> List[ReplicateCell]:
    cells = []
    for spec in DENSE_SPECS:
        variants = DENSE_ADV_POOL if spec[3] in SEEDED_ADVERSARIES else (None,)
        cells.extend(dense_cell(spec, v, DENSE_COIN_POOL) for v in variants)
    return cells


def all_sparse_cells() -> List[ReplicateCell]:
    return [sparse_cell(spec, labeling, SPARSE_COIN_POOL)
            for spec in SPARSE_SPECS for labeling in SPARSE_LABELING_POOL]


# ----------------------------------------------------------------------
# reduction: the Lemma-5 two-party simulations of Theorems 6 and 7
T6_Q = (41, 61, 81)
T7_Q = (25, 41)
REDUCTION_INSTANCE_POOL = (1, 2, 3, 4)
T6_N, T7_N = 2, 2
#: the (mapping, q) cells reduction's cold and warm passes run
REDUCTION_CACHE_CELLS = (("T6", 61),)
_ANSWER1_D = 10  # diameter of every answer-1 Theorem-6 network


class ConsensusSplit:
    """Λ nodes (ids <= |Λ|) hold 0, Υ nodes hold 1, estimate N' = 4|Λ|/3."""

    def __init__(self, n1: int, n_prime: float):
        self.n1 = n1
        self.n_prime = n_prime

    def __call__(self, uid: int) -> ConsensusFromLeaderNode:
        return ConsensusFromLeaderNode(
            uid, n_estimate=self.n_prime, value=0 if uid <= self.n1 else 1
        )


def _reduce(inst: Any, mapping: str, factory: Any, seed: int) -> Tuple[list, Any, int]:
    red = simulation.TwoPartyReduction(inst, mapping, factory, seed=seed)
    out = red.run()
    return ([out.decision, out.bits_alice_to_bob, out.bits_bob_to_alice], red,
            red.num_nodes * out.rounds_simulated)


def _reference_decision(inst: Any, mapping: str, factory: Any, seed: int,
                        net: Any, watch: int) -> Tuple[int, int]:
    """Did the watched node terminate within the horizon on the real
    composed network?  ``(decision, node_rounds)``."""
    horizon = (inst.q - 1) // 2
    ref = simulation.run_reference_execution(
        inst, mapping, factory, seed=seed, rounds=horizon, network=net
    )
    decided = int(ref.spies[watch].output() is not None)
    return decided, net.num_nodes * ref.trace.rounds


def _t6_factories(net: Any) -> Tuple[Any, Any]:
    source = net.special_nodes()["A_gamma"]
    return (cflood_factory(source, d_param=_ANSWER1_D),
            cflood_factory(source, num_nodes=net.num_nodes))


def _t7_factory(q: int) -> ConsensusSplit:
    n1, _n0 = composition.theorem7_sizes(T7_N, q)
    return ConsensusSplit(n1, 4 * n1 / 3)


def reduction_cell(mapping: str, q: int, truth: int, inst_seed: int) -> List[int]:
    """One instance: the reduction(s), then the reference execution of
    the decisive oracle on the real network as the Lemma-5 cross-check.

    T6: ``[dec, bitsAB, bitsBA]`` for the fast (D=10) and conservative
    (D=N-1) oracles, the fast oracle's reference decision, node-rounds.
    T7: ``[dec, bitsAB, bitsBA, reference decision, node-rounds]``.
    """
    if mapping == "T6":
        inst = random_instance(T6_N, q, seed=inst_seed, value=truth)
        net = composition.theorem6_network(inst)
        fast, conservative = _t6_factories(net)
        row_fast, red, nr_fast = _reduce(inst, "T6", fast, inst_seed)
        row_cons, _red, nr_cons = _reduce(inst, "T6", conservative, inst_seed)
        ref, nr_ref = _reference_decision(inst, "T6", fast, inst_seed, net, red.alice.watch)
        return row_fast + row_cons + [ref, nr_fast + nr_cons + nr_ref]
    inst = random_instance(T7_N, q, seed=inst_seed, value=truth)
    net = composition.theorem7_network(inst)
    factory = _t7_factory(q)
    row, red, nr = _reduce(inst, "T7", factory, inst_seed)
    ref, nr_ref = _reference_decision(inst, "T7", factory, inst_seed, net, red.alice.watch)
    return row + [ref, nr + nr_ref]


def reduction_key(task: tuple) -> str:
    mapping, q, truth, inst_seed = task
    return f"{mapping}|q={q}|truth={truth}|instance={inst_seed}"


def reduction_tasks(seed: int) -> List[tuple]:
    rng = _rng("reduction", seed)
    tasks = [("T6", q, truth, rng.choice(REDUCTION_INSTANCE_POOL))
             for q in T6_Q for truth in (0, 1)]
    tasks += [("T7", q, truth, rng.choice(REDUCTION_INSTANCE_POOL))
              for q in T7_Q for truth in (0, 1)]
    return tasks


class ReductionWorkload:
    """Operations are reduction cells; fresh calls every cell directly,
    cold/warm pass the REDUCTION_CACHE_CELLS cells each through a
    ``cached_map`` call of its own (the cache path EXP-T6/EXP-T7 use)."""

    def __init__(self, tasks: List[tuple], expected: Dict[str, Any], warm_passes: int):
        self.tasks = tasks
        self.cache_tasks = [task for task in tasks if task[:2] in REDUCTION_CACHE_CELLS]
        self.expected = expected
        self.warm_passes = warm_passes
        self.executor = ParallelExecutor(0)

    def _check(self, checker: Checker, task: tuple, result: Any, tag: str) -> int:
        want = self.expected.get(reduction_key(task))
        checker.op(result == want, f"{reduction_key(task)} ({tag}): got {result}")
        return result[-1]

    def new_cache(self, path: pathlib.Path) -> str:
        path.mkdir(parents=True)
        return str(path)

    def fresh(self, checker: Checker, ops: OpTimes) -> int:
        node_rounds = 0
        for task in self.tasks:
            t0 = clock()
            try:
                result = reduction_cell(*task)
            except Exception as exc:
                checker.crashed(reduction_key(task), exc)
            else:
                node_rounds += self._check(checker, task, result, "fresh")
            ops.record(reduction_key(task), clock() - t0)
        return node_rounds

    def _cached(self, checker: Checker, ops: OpTimes, cache_dir: str,
                tag: str) -> None:
        """Each cell through a ``cached_map`` call of its own."""
        cfg = RunConfig(cache="rw", cache_dir=cache_dir, workers=0)
        for task in self.cache_tasks:
            t0 = clock()
            try:
                [result] = runcache.cached_map(self.executor, reduction_cell, [task],
                                               config=cfg)
            except Exception as exc:
                checker.crashed(f"{reduction_key(task)} cached_map ({tag})", exc)
            else:
                self._check(checker, task, result, tag)
            ops.record(reduction_key(task), clock() - t0)

    def cold(self, checker: Checker, ops: OpTimes, cache_dir: str) -> None:
        self._cached(checker, ops, cache_dir, "cold")

    def warm(self, checker: Checker, ops: OpTimes, cache_dir: str) -> None:
        self._cached(checker, ops, cache_dir, "warm")

    def close(self) -> None:
        pass


def regenerate_reduction() -> Dict[str, Any]:
    """Decisions from reference executions (SynchronousEngine) of each
    oracle on the real composed network; cut bits from the reduction,
    the only implementation of the two-party simulation."""
    table: Dict[str, Any] = {}
    for mapping, qs in (("T6", T6_Q), ("T7", T7_Q)):
        for q in qs:
            for truth in (0, 1):
                for inst_seed in REDUCTION_INSTANCE_POOL:
                    task = (mapping, q, truth, inst_seed)
                    table[reduction_key(task)] = _regenerate_cell(*task)
    return table


def _regenerate_cell(mapping: str, q: int, truth: int, inst_seed: int) -> List[int]:
    if mapping == "T6":
        inst = random_instance(T6_N, q, seed=inst_seed, value=truth)
        net = composition.theorem6_network(inst)
        oracles = _t6_factories(net)
    else:
        inst = random_instance(T7_N, q, seed=inst_seed, value=truth)
        net = composition.theorem7_network(inst)
        oracles = (_t7_factory(q),)
    row: List[int] = []
    node_rounds = 0
    ref_first = None
    for factory in oracles:
        (_decision, bits_ab, bits_ba), red, nr = _reduce(inst, mapping, factory, inst_seed)
        ref, nr_ref = _reference_decision(inst, mapping, factory, inst_seed, net,
                                          red.alice.watch)
        row += [ref, bits_ab, bits_ba]
        node_rounds += nr
        if ref_first is None:
            ref_first = (ref, nr_ref)
    return row + [ref_first[0], node_rounds + ref_first[1]]


# ----------------------------------------------------------------------
# serve-suite: closed-loop client against an in-process SweepService
SERVE_JOBS = ("thm6", "thm7", "thm8", "ub", "cc")
#: completion is watched through the daemon's in-process job view (no
#: HTTP polls); the watch interval is 5% of the time waited so far, so it
#: quantizes latency by at most ~5% and long jobs are not interrupted by
#: a GIL hand-off every switch interval
WATCH_MIN, WATCH_MAX = 0.0005, 0.02  # s


def rows_digest(rows: Any) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def session_node_rounds(session_dir: pathlib.Path) -> int:
    """Σ num_nodes × rounds over the engine runs a job session recorded."""
    total = 0
    for path in sorted(session_dir.glob("run-*.jsonl")):
        with open(path, "rb") as fh:
            head = json.loads(fh.readline())
            if head.get("kind") != "engine":
                continue
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - 65536))
            tail = json.loads(fh.read().splitlines()[-1])
        total += head["num_nodes"] * tail["rounds"]
    return total


def tree_size(path: pathlib.Path) -> Tuple[int, int]:
    """(bytes, files) under ``path``."""
    size = files = 0
    for dirpath, _dirs, names in os.walk(path):
        for name in names:
            size += os.path.getsize(os.path.join(dirpath, name))
            files += 1
    return size, files


class ServeWorkload:
    """Operations are daemon jobs, submitted one at a time (closed loop,
    one client, one connection at a time) to a ``SweepService`` bound to
    an ephemeral localhost port."""

    def __init__(self, seed: int, expected: Dict[str, Any], work_dir: pathlib.Path,
                 warm_passes: int):
        from repro.serve.daemon import SweepService, make_server

        self.rng = _rng("serve-suite", seed)
        self.expected = expected
        self.warm_passes = warm_passes
        self.cache_dir = work_dir / "serve-cache"
        self.service = SweepService(work_dir / "serve", workers=0, cache="rw",
                                    cache_dir=str(self.cache_dir))
        self.server = make_server("127.0.0.1", 0, self.service)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05},
                                       name="perfbench-http")
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        #: per warm job: client latency and the daemon's own timestamps
        self.warm_jobs: List[Dict[str, float]] = []
        self.session_stats: List[Tuple[int, int]] = []

    def _job(self, checker: Checker, experiment: str, cache: str,
             tag: str) -> Optional[Dict[str, Any]]:
        """Submit over HTTP, wait for the job to leave the queue, fetch
        its result over HTTP; the latency spans submit to result."""
        from repro.serve import client

        what = f"{experiment} ({tag})"
        try:
            t0 = clock()
            view = client.submit_job(self.url, experiment, quick=True, workers=0,
                                     cache=cache)
            while self.service.job_view(view["job_id"])["status"] in ("queued", "running"):
                time.sleep(min(WATCH_MAX, max(WATCH_MIN, (clock() - t0) / 20)))
            job = client.job_result(self.url, view["job_id"])
            latency = clock() - t0
        except Exception as exc:
            checker.crashed(what, exc)
            return None
        want = self.expected.get(experiment, {})
        ok = (job.get("status") == "done"
              and rows_digest(job["result"]["rows"]) == want.get("rows_sha256"))
        if tag == "warm":
            events = job.get("cache_events") or {}
            ok = ok and events.get("miss", 1) == 0 and events.get("hit", 0) > 0
        elif tag == "fresh":
            counted = session_node_rounds(pathlib.Path(job["session_dir"]))
            ok = ok and counted == want.get("node_rounds")
            job["node_rounds"] = counted
        checker.op(ok, f"{what}: status {job.get('status')}, error {job.get('error')}, "
                       f"cache events {job.get('cache_events')}, node-rounds "
                       f"{job.get('node_rounds')}; differs from expected table")
        job["latency"] = latency
        return job

    def _pass(self, checker: Checker, ops: OpTimes, cache: str,
              tag: str) -> List[Dict[str, Any]]:
        """Every job once, in a seed-shuffled order; a job's operation
        time is its client latency, submit -> result."""
        order = list(SERVE_JOBS)
        self.rng.shuffle(order)
        jobs = []
        for experiment in order:
            job = self._job(checker, experiment, cache, tag)
            if job is not None:
                ops.record(experiment, job["latency"])
                jobs.append(job)
        return jobs

    def _drop_sessions(self, jobs: List[Dict[str, Any]]) -> None:
        for job in jobs:
            shutil.rmtree(job["session_dir"], ignore_errors=True)

    def fresh(self, checker: Checker, ops: OpTimes) -> int:
        jobs = self._pass(checker, ops, "off", "fresh")
        self._drop_sessions(jobs)
        return sum(job["node_rounds"] for job in jobs)

    def new_cache(self, path: pathlib.Path) -> str:
        """The service's cache dir, emptied (its path is fixed at bind)."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        return str(self.cache_dir)

    def cold(self, checker: Checker, ops: OpTimes, cache_dir: str) -> None:
        self._drop_sessions(self._pass(checker, ops, "rw", "cold"))

    def warm(self, checker: Checker, ops: OpTimes, cache_dir: str) -> None:
        jobs = self._pass(checker, ops, "rw", "warm")
        for job in jobs:
            self.warm_jobs.append({
                "latency": job["latency"],
                "queue_wait": job["started_unix"] - job["submitted_unix"],
                "run": job["finished_unix"] - job["started_unix"],
                "daemon": job["finished_unix"] - job["submitted_unix"],
            })
            self.session_stats.append(tree_size(pathlib.Path(job["session_dir"])))
        self._drop_sessions(jobs)

    def close(self) -> None:
        self.service.stop()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.service.join(timeout=10)


def regenerate_serve(work_dir: pathlib.Path) -> Dict[str, Any]:
    """Each job's experiment run directly (no daemon, no cache) on the
    reference backend under an observation session like the daemon's."""
    from repro.cli import EXPERIMENTS
    from repro.obs.runtime import observe

    table: Dict[str, Any] = {}
    for experiment in SERVE_JOBS:
        session_dir = work_dir / f"regen-{experiment}"
        with observe(trace_dir=session_dir, label=experiment, stream=True):
            result = EXPERIMENTS[experiment][1](
                True, config=RunConfig(workers=0, cache="off", backend="reference")
            )
        rows = json.loads(json.dumps(result.to_dict()["rows"]))
        table[experiment] = {
            "rows_sha256": rows_digest(rows),
            "node_rounds": session_node_rounds(session_dir),
        }
        shutil.rmtree(session_dir, ignore_errors=True)
    return table


# ----------------------------------------------------------------------
WORKLOADS = ("dense-sweep", "sparse-cache", "reduction", "serve-suite")


def build(name: str, seed: int, expected: Dict[str, Any], work_dir: pathlib.Path) -> Any:
    """Construct a workload's inputs (the set-up that ``setup_s`` times)."""
    table = expected.get(name, {})
    if name == "dense-sweep":
        return ReplicateWorkload(dense_cells(seed), table, warm_passes=32,
                                 cache_labels=DENSE_CACHE_LABELS)
    if name == "sparse-cache":
        return ReplicateWorkload(sparse_cells(seed), table, warm_passes=2)
    if name == "reduction":
        return ReductionWorkload(reduction_tasks(seed), table, warm_passes=32)
    if name == "serve-suite":
        return ServeWorkload(seed, table, work_dir, warm_passes=6)
    raise ValueError(f"unknown workload {name!r}")


def regenerate(name: str, work_dir: pathlib.Path) -> Dict[str, Any]:
    if name == "dense-sweep":
        return regenerate_replicate(all_dense_cells())
    if name == "sparse-cache":
        return regenerate_replicate(all_sparse_cells())
    if name == "reduction":
        return regenerate_reduction()
    if name == "serve-suite":
        return regenerate_serve(work_dir)
    raise ValueError(f"unknown workload {name!r}")
