"""Seeded workloads, their set-up and the untraced measurement loops.

Every workload is a spec dict plus generated inputs, both drawn from the
benchmark seed with the benchmark's own generator; the program only ever
sees the generated inputs.  The fleet definitions are frozen copies of
``benchmarks/configs/cluster_continuous.json`` and
``cluster_faults.json`` so that editing those configs cannot silently
change the benchmark.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from speed import Reference, factor

from repro.core import IncrementalInference, NetworkPlan
from repro.serving import ClusterSpec, FaultSpec, Request, ServingCluster, ServingSpec

DTYPE = np.float32
#: Spec-to-ready repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Reference pulses around each set-up and each serve.  The anytime loop
#: runs a group of pulses before each chunk of walks; chunks are long, so
#: the cache and allocator disturbance of a pulse touches few samples.
SETUP_PULSES = 5
SERVE_PULSES = 20
CHUNK_PULSES = 3
CHUNK_SECONDS = 0.25
#: Serves per run at least.
MIN_SERVES = 2

ANYTIME_MODEL = {"name": "lenet-3c1l", "num_subnets": 4, "expansion_ratio": 1.5}
#: Distinct inputs the anytime caller cycles through: enough that the p99
#: over inputs keeps ten inputs beyond it.
ANYTIME_POOL = 1024

# Frozen copy of benchmarks/configs/cluster_continuous.json (streams dropped:
# the benchmark generates the requests itself).
STEADY_FLEET = {
    "name": "continuous-fleet",
    "router": "least-loaded-occupancy",
    "nodes": [
        {"name": "soc-continuous", "platform": "mobile-soc", "backend": "batched",
         "scheduler": "batch-aware", "scheduler_params": {"min_slack": 0.002},
         "trace": "steady-high", "policy": "full-quality", "batch_policy": "continuous",
         "max_batch_size": 16},
        {"name": "ecu-least-recompute", "platform": "vehicle-ecu", "backend": "batched",
         "scheduler": "least-recompute", "trace": "steady-high", "policy": "full-quality",
         "batch_policy": "continuous", "max_batch_size": 8,
         "memory_budget_bytes": 120000, "eviction_policy": "lru"},
        {"name": "mcu-utility", "platform": "embedded-mcu", "backend": "batched-recompute",
         "scheduler": "utility-per-mac", "trace": "steady-high", "policy": "full-quality",
         "batch_policy": "continuous", "max_batch_size": 4, "num_subnets": 2},
    ],
    "model": {"name": "tiny-cnn", "num_subnets": 4},
}

# Frozen copy of benchmarks/configs/cluster_faults.json (streams and the
# hand-written fault events dropped: both are generated per seed).
CHAOS_FLEET = {
    "name": "chaos-fleet",
    "router": "least-loaded",
    "admission": "degrade",
    "nodes": [
        {"name": "soc-a", "platform": "mobile-soc", "backend": "batched", "scheduler": "edf",
         "trace": "steady-high", "policy": "full-quality", "batch_policy": "same-level",
         "max_batch_size": 8},
        {"name": "soc-b", "platform": "mobile-soc", "backend": "batched", "scheduler": "edf",
         "trace": "steady-high", "policy": "full-quality", "batch_policy": "same-level",
         "max_batch_size": 8},
        {"name": "ecu-c", "platform": "vehicle-ecu", "backend": "stepping", "scheduler": "edf",
         "trace": "steady-high", "policy": "full-quality",
         "memory_budget_bytes": 150000, "eviction_policy": "lru"},
    ],
    "model": {"name": "tiny-cnn", "num_subnets": 4},
    "rebalance": {"enabled": True, "interval": 5e-4, "steal_in_flight": True},
    "observe": {"enabled": True, "sink": "memory"},
}
CHAOS_RETRY = {"kind": "exponential", "base_delay": 0.001, "multiplier": 2.0,
               "max_delay": 0.01, "max_retries": 4}
#: Fault intensities (events per simulated second per node) and the window
#: each FaultSpec.random draw covers; short windows keep fault durations
#: short against the horizon, so one long outage cannot decide a seed.
CHAOS_RATES = {"crash_rate": 6.0, "transient_rate": 12.0, "slowdown_rate": 4.0,
               "partition_rate": 6.0}
CHAOS_WINDOW = 0.1

#: Stream shapes: Poisson arrivals plus simultaneous bursts of 8, as in the
#: checked-in configs, extended to ``poisson`` requests.
STREAMS = {
    "fleet-steady": {"rate": 900.0, "poisson": 700, "burst_size": 8, "burst_gap": 0.01,
                     "deadline": 0.02},
    "fleet-chaos": {"rate": 700.0, "poisson": 1800, "burst_size": 8, "burst_gap": 0.03,
                    "deadline": 0.05},
}


def digest(payload: Any) -> str:
    """Short sha256 of a JSON-able payload (canonical key order)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """A generated workload: spec dict, inputs and their identity."""

    name: str
    seed: int
    config: Dict[str, Any]
    inputs: List[np.ndarray]
    requests: List[Request] = field(default_factory=list)

    def config_hash(self) -> str:
        schedule = [
            (r.request_id, r.arrival_time, r.deadline) for r in self.requests
        ]
        inputs = hashlib.sha256(b"".join(x.tobytes() for x in self.inputs)).hexdigest()
        return digest({"config": self.config, "schedule": schedule, "inputs": inputs})


def _arrivals(rng: np.random.Generator, shape: Dict[str, float]) -> np.ndarray:
    poisson = np.cumsum(rng.exponential(1.0 / shape["rate"], size=int(shape["poisson"])))
    horizon = float(poisson[-1])
    bursts: List[float] = []
    when = float(rng.exponential(shape["burst_gap"]))
    while when < horizon:
        bursts.extend([when] * int(shape["burst_size"]))
        when += float(rng.exponential(shape["burst_gap"]))
    return np.sort(np.concatenate([poisson, np.asarray(bursts)]), kind="stable")


def _chaos_faults(seed: int, names: List[str], horizon: float) -> Dict[str, Any]:
    """FaultSpec.random schedules, one per window, laid end to end."""
    events: List[Dict[str, Any]] = []
    for window in range(int(math.ceil(horizon / CHAOS_WINDOW))):
        offset = window * CHAOS_WINDOW
        drawn = FaultSpec.random(
            names, horizon=CHAOS_WINDOW, seed=seed * 10_000 + window,
            recover_fraction=1.0, spare_first=True, **CHAOS_RATES,
        )
        for event in drawn.to_dict()["events"]:
            event = dict(event)
            event["time"] += offset
            if event.get("recover_time") is not None:
                event["recover_time"] += offset
            events.append(event)
    return {"events": events, "retry": dict(CHAOS_RETRY)}


def generate(name: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    if name == "anytime-solo":
        config = {
            "name": "anytime-solo",
            "nodes": [{"name": "solo", "dtype": "float32"}],
            "model": dict(ANYTIME_MODEL, seed=seed),
        }
        images = rng.standard_normal((ANYTIME_POOL, 3, 32, 32)).astype(DTYPE)
        return Workload(name, seed, config, [images[i : i + 1] for i in range(ANYTIME_POOL)])
    shape = STREAMS[name]
    config = copy.deepcopy(STEADY_FLEET if name == "fleet-steady" else CHAOS_FLEET)
    config["model"]["seed"] = seed
    arrivals = _arrivals(rng, shape)
    images = rng.standard_normal((len(arrivals), 3, 16, 16)).astype(DTYPE)
    inputs = [images[i : i + 1] for i in range(len(arrivals))]
    requests = [
        Request(index, float(at), inputs[index], deadline=float(at) + shape["deadline"])
        for index, at in enumerate(arrivals)
    ]
    if name == "fleet-chaos":
        names = [node["name"] for node in config["nodes"]]
        config["faults"] = _chaos_faults(seed, names, float(arrivals[-1]))
    return Workload(name, seed, config, inputs, requests)


# ----------------------------------------------------------------------
# Set-up: spec dict -> ready to serve
# ----------------------------------------------------------------------
def build(workload: Workload):
    """Network build, plan packing and engines, from the spec dict."""
    spec = ClusterSpec.from_dict(workload.config)
    if workload.name == "anytime-solo":
        network = spec.build_network()
        plan = NetworkPlan.for_network(network, dtype=DTYPE)
        return IncrementalInference(network, dtype=DTYPE, plan=plan)
    return ServingCluster.from_spec(spec)


def timed_setups(workload: Workload, reference: Reference, repeats: int = SETUP_REPEATS):
    """Build ``repeats`` times; returns (raw seconds, scaled seconds, last build)."""
    raw, scaled, built = [], [], None
    for _ in range(repeats):
        built = None
        gc.collect()
        before = reference.probe(SETUP_PULSES)
        start = time.perf_counter()
        built = build(workload)
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        scaled.append(elapsed * factor(before + reference.probe(SETUP_PULSES)))
    return raw, scaled, built


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """What one measurement phase observed.

    Timings are kept raw and scaled to nominal machine speed (see
    :mod:`speed`); ``walls[i]`` covered ``units[i]`` requests (a serve) or
    one input walk, and ``factors[i]`` is its speed scale.
    """

    walls: List[float] = field(default_factory=list)
    units: List[int] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)
    first: List[float] = field(default_factory=list)  # scaled first-result seconds
    gaps: List[float] = field(default_factory=list)  # scaled step-up seconds
    first_raw: List[float] = field(default_factory=list)
    gaps_raw: List[float] = field(default_factory=list)
    first_keys: List[Any] = field(default_factory=list)  # input or request per sample
    gaps_keys: List[Any] = field(default_factory=list)  # (input or request, step)
    attempted: int = 0
    failed_ids: set = field(default_factory=set)
    errors: List[str] = field(default_factory=list)
    report: Any = None
    levels: List[int] = field(default_factory=list)  # anytime: levels per walk

    def add_calls(self, scale: float, first: List[float], gaps: List[float],
                  first_keys: List[Any], gaps_keys: List[Any]) -> None:
        self.first_raw.extend(first)
        self.gaps_raw.extend(gaps)
        self.first_keys.extend(first_keys)
        self.gaps_keys.extend(gaps_keys)
        self.first.extend(t * scale for t in first)
        self.gaps.extend(t * scale for t in gaps)


def anytime_loop(engine: IncrementalInference, workload: Workload, seconds: float,
                 sample: Sample, reference: Optional[Reference] = None
                 ) -> List[Tuple[int, np.ndarray]]:
    """Closed loop, one caller: run(x, 0) then step_up() to the top, per input.

    With a ``reference``, pulses run between chunks of ``CHUNK_SECONDS``
    of walks, and each chunk is scaled by the pulses within two chunks of it.
    """
    levels = engine.network.num_subnets
    finals: List[Tuple[int, np.ndarray]] = []
    pool = workload.inputs
    groups: List[List[float]] = []
    chunks: List[Tuple[List[float], List[float], List[float], List[Any], List[Any]]] = []
    clock = time.perf_counter
    stop = clock() + seconds
    index = 0
    while index < len(pool) or clock() < stop:
        if reference is not None:
            groups.append(reference.probe(CHUNK_PULSES))
        walls, first, gaps, first_keys, gaps_keys = [], [], [], [], []
        chunk_end = clock() + CHUNK_SECONDS
        while clock() < chunk_end and (index < len(pool) or clock() < stop):
            slot = index % len(pool)
            sample.attempted += 1
            begin = clock()
            try:
                result = engine.run(pool[slot], 0)
                first.append(clock() - begin)
                first_keys.append(slot)
                for level in range(1, levels):
                    start = clock()
                    result = engine.step_up()
                    gaps.append(clock() - start)
                    gaps_keys.append((slot, level))
            except Exception as exc:  # a failed input is counted, the run goes on
                sample.failed_ids.add(index)
                sample.errors.append(f"input {index}: {exc!r}")
            else:
                walls.append(clock() - begin)
                sample.levels.append(len(engine.steps))
                finals.append((index, result.logits))
            index += 1
        chunks.append((walls, first, gaps, first_keys, gaps_keys))
    if reference is not None:
        groups.append(reference.probe(CHUNK_PULSES))
    for number, (walls, first, gaps, first_keys, gaps_keys) in enumerate(chunks):
        near = [t for group in groups[max(0, number - 1): number + 3] for t in group]
        scale = factor(near) if near else 1.0
        sample.walls.extend(walls)
        sample.units.extend([1] * len(walls))
        sample.factors.extend([scale] * len(walls))
        sample.add_calls(scale, first, gaps, first_keys, gaps_keys)
    return finals


def anytime_check(network, workload: Workload, finals, sample: Sample) -> None:
    """Bit-equality of every walk against a fresh solo engine with its own plan."""
    oracle = IncrementalInference(network, dtype=DTYPE)
    levels = network.num_subnets
    expected = {}
    for slot, x in enumerate(workload.inputs):
        oracle.run(x, 0)
        for _ in range(levels - 1):
            result = oracle.step_up()
        expected[slot] = result.logits
    for index, logits in finals:
        if not np.array_equal(logits, expected[index % len(workload.inputs)]):
            sample.failed_ids.add(index)


def sim_walk_seconds(engine: IncrementalInference) -> float:
    """Simulated seconds of one full walk on the mobile-soc steady-high node."""
    node = ServingSpec(platform="mobile-soc", trace="steady-high")
    rate = node.build_trace().throughput_at(0.0)
    overhead = node.build_platform().invocation_overhead
    return sum(step.macs_executed / rate + overhead for step in engine.steps)


def fleet_jobs(report) -> List[Any]:
    """Every terminal record of a serve: per-node jobs plus coordinator-finalised ones."""
    return [job for node in report.node_reports for job in node.jobs] + list(report.extra_jobs)


def fingerprint(report) -> Dict[int, Any]:
    """Request id -> its simulated outcomes, for repeat-to-repeat comparison."""
    outcome: Dict[int, Any] = {}
    for job in fleet_jobs(report):
        logits = job.final_logits
        outcome.setdefault(job.request.request_id, []).append((
            job.status, job.stop_reason,
            tuple((s.subnet, s.start_time, s.finish_time) for s in job.steps),
            None if logits is None else hashlib.sha256(np.ascontiguousarray(logits)).hexdigest(),
        ))
    return outcome


def fleet_check(cluster: ServingCluster, workload: Workload, sample: Sample) -> None:
    """One terminal record per request, final logits bit-equal to solo inference.

    The oracle replays each request's executed level sequence on a fresh
    solo engine with its own plan, outside any timed region.
    """
    outcome = fingerprint(sample.report)
    for request in workload.requests:
        if len(outcome.get(request.request_id, [])) != 1:
            sample.failed_ids.add(request.request_id)
    oracle = IncrementalInference(cluster.engines[0].backend.network, dtype=DTYPE)
    for job in fleet_jobs(sample.report):
        if not job.steps or job.final_logits is None:
            continue
        result = oracle.run(job.request.inputs, subnet=job.steps[0].subnet)
        for step in job.steps[1:]:
            result = oracle.step_to(step.subnet)
        if not np.array_equal(result.logits, job.final_logits):
            sample.failed_ids.add(job.request.request_id)


def _replay(oracle: IncrementalInference, jobs) -> Tuple[List, List, List, List]:
    """Time the solo replay of ``jobs``: the fleet's first-result and step-up samples.

    Returns (first times, step times, their request ids, their (id, step) keys).
    """
    clock = time.perf_counter
    first, gaps, first_keys, gaps_keys = [], [], [], []
    for job in jobs:
        rid = job.request.request_id
        start = clock()
        oracle.run(job.request.inputs, subnet=job.steps[0].subnet)
        first.append(clock() - start)
        first_keys.append(rid)
        for number, step in enumerate(job.steps[1:], 1):
            start = clock()
            oracle.step_to(step.subnet)
            gaps.append(clock() - start)
            gaps_keys.append((rid, number))
    return first, gaps, first_keys, gaps_keys


def fleet_serves(cluster: ServingCluster, workload: Workload, seconds: float,
                 sample: Sample, reference: Optional[Reference] = None,
                 replay: bool = True) -> None:
    """Serve the whole schedule in one serve() call, repeatedly, for ``seconds``.

    Every serve's simulated outcome must equal the first one's.  After each
    serve (with ``replay``) the served requests are replayed solo and
    timed; pulses before the serve and after the replay measure the
    machine speed that scales both.
    """
    requests = workload.requests
    reference_outcome = None
    oracle = IncrementalInference(cluster.engines[0].backend.network, dtype=DTYPE)
    replayable: List[Any] = []
    stop = time.perf_counter() + seconds
    while len(sample.walls) < MIN_SERVES or time.perf_counter() < stop:
        gc.collect()
        before = reference.probe(SERVE_PULSES) if reference is not None else []
        start = time.perf_counter()
        try:
            report = cluster.serve(requests)
        except Exception as exc:
            sample.errors.append(f"serve: {exc!r}")
            sample.failed_ids.update(r.request_id for r in requests)
            return
        wall = time.perf_counter() - start
        outcome = fingerprint(report)
        if reference_outcome is None:
            reference_outcome, sample.report = outcome, report
            replayable = [job for job in fleet_jobs(report) if job.steps]
        else:
            sample.failed_ids.update(
                rid for rid in reference_outcome if outcome.get(rid) != reference_outcome[rid]
            )
        timed = _replay(oracle, replayable) if replay else ([], [], [], [])
        after = reference.probe(SERVE_PULSES) if reference is not None else []
        scale = factor(before + after) if reference is not None else 1.0
        sample.walls.append(wall)
        sample.units.append(len(requests))
        sample.factors.append(scale)
        sample.add_calls(scale, *timed)
    sample.attempted = len(requests)
