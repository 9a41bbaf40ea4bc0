"""Phases of one benchmark run: set-up, untraced and traced measurement, checks.

``run_workload`` prints a line per metric (value, unit, sample count),
one manifest line, and as the last line the result object a caller
reads.  It writes the same result with its manifest, the span file of a
traced run and the program's serving log under the output directory.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import tracer as tracing
import workloads as wl
from speed import Reference

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "first_result_p50_ms": "ms",
    "first_result_p99_ms": "ms",
    "step_gap_p50_ms": "ms",
    "step_gap_p99_ms": "ms",
    "requests_per_s": "req/s",
    "sim_p95_latency_ms": "sim_ms",
    "sim_deadline_hit_rate": "fraction",
    "sim_mean_subnet": "levels",
}
PLAN_STEPS = ("new-0", "0-1", "1-2", "2-3")
PER_LAYER = {
    "cluster.self_us_per_req": "us",
    "cluster.route_us": "us",
    "cluster.route_calls": "1/req",
    "cluster.steals": "count",
    "cluster.failovers": "count",
    "cluster.degraded": "count",
    "cluster.replay_macs_ratio": "ratio",
    "cluster.log_lines": "count",
    "engine.self_us_per_dispatch": "us",
    "engine.dispatches": "count",
    "engine.run_until_calls": "1/req",
    "policy.decide_calls": "1/req",
    "policy.decide_us": "us",
    "scheduler.pick_us": "us",
    "scheduler.add_us": "us",
    "batching.form_us": "us",
    "batching.mean_occupancy": "members",
    "batching.slot_fill": "ratio",
    "batching.batched_steps": "count",
    "batching.solo_steps": "count",
    "memory.enforce_us": "us",
    "memory.aux_evictions": "count",
    "memory.cache_evictions": "count",
    "memory.recompute_macs_ratio": "ratio",
    "memory.peak_resident_bytes": "bytes",
    "backend.advance_us": "us",
    "backend.advance_group_us": "us",
    **{f"plan.execute_us.{step}": "us" for step in PLAN_STEPS},
    "plan.execute_batch_us_per_member": "us",
    "plan.execute_calls": "1/req",
    "plan.execute_batch_calls": "1/req",
    "plan.self_share": "ratio",
    "incremental.run_us": "us",
    "incremental.step_up_us": "us",
    "observe.emit_calls": "count",
    "observe.emit_us": "us",
    "observe.events_per_req": "1/req",
    "setup.build_network_ms": "ms",
    "setup.plan_compile_ms": "ms",
    "setup.from_spec_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio",
}
#: Per-call metric -> the span whose call count is its sample count.
SPAN_OF = {
    "cluster.route_us": "cluster.route",
    "policy.decide_us": "policy.decide",
    "scheduler.pick_us": "scheduler.pick",
    "scheduler.add_us": "scheduler.add",
    "batching.form_us": "batching.form",
    "memory.enforce_us": "memory.enforce",
    "backend.advance_us": "backend.advance",
    "backend.advance_group_us": "backend.advance_group",
    "plan.execute_batch_us_per_member": "plan.execute_batch",
    "incremental.run_us": "incremental.run",
    "incremental.step_up_us": "incremental.step_up",
    "observe.emit_us": "observe.emit",
    "setup.build_network_ms": "setup.build_network",
    "setup.plan_compile_ms": "setup.plan_compile",
    "setup.from_spec_ms": "setup.from_spec",
}
#: Share of a fleet run's budget spent serving; the rest times the oracle.
SERVE_SHARE = 0.8


# ----------------------------------------------------------------------
# Run context: the program's log goes to a file, lines are counted.
# ----------------------------------------------------------------------
class _CountingFileHandler(logging.FileHandler):
    def __init__(self, path: str) -> None:
        super().__init__(path, mode="w", encoding="utf-8")
        self.lines = 0

    def emit(self, record) -> None:
        self.lines += 1
        super().emit(record)


def _route_log(path: str) -> _CountingFileHandler:
    from repro.utils.logging import get_logger

    logger = get_logger("repro.serving")  # configure first, then take over
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = _CountingFileHandler(path)
    handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s"))
    logger.addHandler(handler)
    return handler


def _blas_threads() -> Optional[int]:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _source_digest(root: str) -> str:
    sha = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "repro", "**", "*.py"), recursive=True)):
        sha.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()[:16]


def _git_revision(root: str) -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def manifest(workload: wl.Workload, trace: bool) -> Dict[str, Any]:
    root = os.getcwd()
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "config_hash": workload.config_hash(),
        "git_revision": _git_revision(root),
        "source_digest": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _p99(values: List[float], keys: List[Any]) -> float:
    """p99 over inputs (or requests) of each one's median time in the run.

    Every input is timed many times per run; taking its median first keeps
    a passing hiccup of the shared machine out of the tail.
    """
    by_key: Dict[Any, List[float]] = defaultdict(list)
    for key, value in zip(keys, values):
        by_key[key].append(value)
    return _pct([statistics.median(times) for times in by_key.values()], 99)


def end_to_end(workload: wl.Workload, built, setups: List[float], sample: wl.Sample
               ) -> Tuple[Dict, Dict]:
    """Metric values (timings scaled to nominal machine speed) and sample counts."""
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "first_result_p50_ms": _pct(sample.first, 50) * 1e3,
        "first_result_p99_ms": _p99(sample.first, sample.first_keys) * 1e3,
        "step_gap_p50_ms": _pct(sample.gaps, 50) * 1e3,
        "step_gap_p99_ms": _p99(sample.gaps, sample.gaps_keys) * 1e3,
        "requests_per_s": statistics.median(
            u / (w * f) for u, w, f in zip(sample.units, sample.walls, sample.factors)),
    }
    counts = {"setup_s": len(setups), "peak_rss_mb": 1, "requests_per_s": len(sample.walls)}
    counts.update({
        "first_result_p50_ms": len(sample.first),
        "first_result_p99_ms": len(set(sample.first_keys)),
        "step_gap_p50_ms": len(sample.gaps),
        "step_gap_p99_ms": len(set(sample.gaps_keys)),
    })
    if workload.name == "anytime-solo":
        # Every walk runs the same levels, so each has the same simulated time.
        values["sim_p95_latency_ms"] = wl.sim_walk_seconds(built) * 1e3
        values["sim_deadline_hit_rate"] = sum(1 for n in sample.levels if n > 0) / sample.attempted
        values["sim_mean_subnet"] = float(np.mean(sample.levels))
        sims = len(sample.levels)
    else:
        report = sample.report
        jobs = {job.request.request_id: job for job in wl.fleet_jobs(report)}
        attempted = [jobs.get(r.request_id) for r in workload.requests]
        values["sim_p95_latency_ms"] = report.p95_latency * 1e3
        values["sim_deadline_hit_rate"] = (
            sum(1 for j in attempted if j is not None and j.deadline_met) / len(attempted))
        values["sim_mean_subnet"] = float(np.mean(
            [0 if j is None else j.subnet_at_deadline + 1 for j in attempted]))
        sims = len(attempted)
    counts.update({k: sims for k in ("sim_p95_latency_ms", "sim_deadline_hit_rate", "sim_mean_subnet")})
    return values, counts


def raw_timings(setups_raw: List[float], sample: wl.Sample) -> Dict[str, float]:
    """The same timings unscaled, as the wall clock read them."""
    return {
        "setup_s": statistics.median(setups_raw),
        "first_result_p50_ms": _pct(sample.first_raw, 50) * 1e3,
        "first_result_p99_ms": _p99(sample.first_raw, sample.first_keys) * 1e3,
        "step_gap_p50_ms": _pct(sample.gaps_raw, 50) * 1e3,
        "step_gap_p99_ms": _p99(sample.gaps_raw, sample.gaps_keys) * 1e3,
        "requests_per_s": statistics.median(u / w for u, w in zip(sample.units, sample.walls)),
        "speed_factor_median": statistics.median(sample.factors),
    }


class _Spans:
    """Per-name aggregates of one traced phase."""

    def __init__(self, tracer: tracing.Tracer) -> None:
        self.tracer = tracer
        selfs = tracer.self_times()
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.plan_steps: Dict[Tuple[int, int], List[int]] = defaultdict(lambda: [0, 0, 0])
        self.plan_batches: Dict[Tuple[int, int, int], List[int]] = defaultdict(lambda: [0, 0, 0])
        for span in tracer.spans:
            span_id, name, _, _, _, _, info = span
            self.self_ns[name] += selfs[span_id]
            self.calls[name] += 1
            if name == "plan.execute":
                entry = self.plan_steps[info[0], info[1]]
                entry[0] += 1
                entry[1] += selfs[span_id]
                entry[2] += info[2]
            elif name == "plan.execute_batch":
                entry = self.plan_batches[info[0], info[1], info[2]]
                entry[0] += 1
                entry[1] += selfs[span_id]
                entry[2] += info[3]
        self._selfs = selfs

    def per_call_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns[name] / calls / 1e3 if calls else 0.0

    def root_check(self, root_names: Tuple[str, ...]) -> Tuple[float, float]:
        """(root wall ns, self time of every span under those roots ns)."""
        roots = self.tracer.roots()
        by_id = {span[0]: span for span in self.tracer.spans}
        wall = sum(s[3] - s[2] for s in self.tracer.spans if s[4] < 0 and s[1] in root_names)
        covered = sum(self._selfs[sid] for sid, root in roots.items()
                      if by_id[root][1] in root_names)
        return wall, covered

    def plan_table(self, macs: Tuple[int, ...]) -> Dict[str, Any]:
        """Raw per-(from, to) and per-batch-width plan timings, with MACs."""
        def delta(frm: int, to: int) -> int:
            return macs[to] - (macs[frm] if frm >= 0 else 0)

        return {
            "execute": [
                {"from": frm, "to": to, "calls": c, "self_us": ns / 1e3,
                 "macs": samples * delta(frm, to)}
                for (frm, to), (c, ns, samples) in sorted(self.plan_steps.items())
            ],
            "execute_batch": [
                {"from": frm, "to": to, "width": width, "calls": c, "self_us": ns / 1e3,
                 "macs": samples * delta(frm, to)}
                for (frm, to, width), (c, ns, samples) in sorted(self.plan_batches.items())
            ],
        }


def per_layer(workload: wl.Workload, spans: _Spans, sample: wl.Sample,
              untraced: wl.Sample, log_lines_per_serve: float) -> Dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    fleet = workload.name != "anytime-solo"
    units = sum(sample.units)  # requests served (fleets) or inputs walked
    roots = ("cluster.serve",) if fleet else ("incremental.run", "incremental.step_up")
    wall_ns, covered_ns = spans.root_check(roots)
    values["trace.self_sum_ratio"] = covered_ns / wall_ns if wall_ns else 0.0
    traced_unit = sum(w * f for w, f in zip(sample.walls, sample.factors)) / units
    untraced_unit = (sum(w * f for w, f in zip(untraced.walls, untraced.factors))
                     / sum(untraced.units))
    values["trace.overhead_ratio"] = traced_unit / untraced_unit
    us = spans.per_call_us
    for step in PLAN_STEPS:
        frm, to = step.split("-")
        frm = -1 if frm == "new" else int(frm)
        count, ns, _ = spans.plan_steps.get((frm, int(to)), (0, 0, 0))
        values[f"plan.execute_us.{step}"] = ns / count / 1e3 if count else 0.0
    members = sum(entry[0] * key[2] for key, entry in spans.plan_batches.items())
    values["plan.execute_batch_us_per_member"] = (
        spans.self_ns["plan.execute_batch"] / members / 1e3 if members else 0.0)
    values["plan.execute_calls"] = spans.calls["plan.execute"] / units
    values["plan.execute_batch_calls"] = spans.calls["plan.execute_batch"] / units
    plan_ns = spans.self_ns["plan.execute"] + spans.self_ns["plan.execute_batch"]
    values["plan.self_share"] = plan_ns / wall_ns if wall_ns else 0.0
    values["incremental.run_us"] = us("incremental.run")
    values["incremental.step_up_us"] = us("incremental.step_up")
    values["setup.build_network_ms"] = spans.self_ns["setup.build_network"] / 1e6
    values["setup.plan_compile_ms"] = spans.self_ns["setup.plan_compile"] / 1e6
    values["setup.from_spec_ms"] = spans.self_ns["setup.from_spec"] / 1e6
    if not fleet:
        return values
    serves = len(sample.walls)
    report = untraced.report
    coordinator = spans.self_ns["cluster.serve"] + spans.self_ns["cluster.route"]
    values["cluster.self_us_per_req"] = coordinator / units / 1e3
    values["cluster.route_us"] = us("cluster.route")
    values["cluster.route_calls"] = spans.calls["cluster.route"] / units
    values["cluster.steals"] = report.steals
    values["cluster.failovers"] = report.failovers
    values["cluster.degraded"] = report.degraded_admissions
    values["cluster.replay_macs_ratio"] = (
        report.total_macs_recomputed / report.total_macs if report.total_macs else 0.0)
    values["cluster.log_lines"] = log_lines_per_serve
    sizes = [size for node in report.node_reports for size in node.batch_sizes]
    engine_ns = sum(spans.self_ns[n] for n in ("engine.push", "engine.run_until", "engine.finish"))
    values["engine.dispatches"] = len(sizes)
    values["engine.self_us_per_dispatch"] = engine_ns / (len(sizes) * serves) / 1e3 if sizes else 0.0
    values["engine.run_until_calls"] = spans.calls["engine.run_until"] / units
    values["policy.decide_calls"] = spans.calls["policy.decide"] / units
    values["policy.decide_us"] = us("policy.decide")
    values["scheduler.pick_us"] = us("scheduler.pick")
    values["scheduler.add_us"] = us("scheduler.add")
    values["batching.form_us"] = us("batching.form")
    values["batching.mean_occupancy"] = report.mean_batch_occupancy
    caps = {node["name"]: node.get("max_batch_size", 8) for node in workload.config["nodes"]}
    fill = [size / caps[name] for name, node in zip(report.node_names, report.node_reports)
            for size in node.batch_sizes]
    values["batching.slot_fill"] = float(np.mean(fill)) if fill else 0.0
    values["batching.batched_steps"] = report.batched_steps
    values["batching.solo_steps"] = report.solo_steps
    values["memory.enforce_us"] = us("memory.enforce")
    values["memory.aux_evictions"] = report.aux_evictions
    values["memory.cache_evictions"] = report.cache_evictions
    budgeted = {node["name"] for node in workload.config["nodes"] if node.get("memory_budget_bytes")}
    node_macs = [(node.total_macs_recomputed, node.total_macs)
                 for name, node in zip(report.node_names, report.node_reports) if name in budgeted]
    total = sum(m for _, m in node_macs)
    values["memory.recompute_macs_ratio"] = sum(r for r, _ in node_macs) / total if total else 0.0
    values["memory.peak_resident_bytes"] = report.peak_resident_bytes
    values["backend.advance_us"] = us("backend.advance")
    values["backend.advance_group_us"] = us("backend.advance_group")
    values["observe.emit_calls"] = spans.calls["observe.emit"] / serves
    values["observe.emit_us"] = us("observe.emit")
    values["observe.events_per_req"] = spans.calls["observe.emit"] / units
    return values


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def measure(workload: wl.Workload, built, seconds: float, sample: wl.Sample,
            reference: Reference, check: bool, tamper: bool = False) -> None:
    """One measurement phase over an already built workload.

    The untraced phase (``check``) first warms up untimed and ends with
    the output check; the traced phase runs in the already warm process.
    ``tamper`` corrupts one result before the output check (self-test only).
    """
    if workload.name == "anytime-solo":
        engine = built
        if check:
            wl.anytime_loop(engine, workload, 0.0, wl.Sample())  # warm the pool once
        finals = wl.anytime_loop(engine, workload, seconds, sample, reference)
        if tamper:
            finals[0] = (finals[0][0], finals[0][1] + 1.0)
        if check:
            wl.anytime_check(engine.network, workload, finals, sample)
        return
    if check:
        built.serve(workload.requests)  # warm-up serve, untimed
    wl.fleet_serves(built, workload, seconds, sample, reference, replay=check)
    if tamper:
        job = next(job for job in wl.fleet_jobs(sample.report) if job.final_logits is not None)
        job.final_logits = job.final_logits + 1.0
    if check and sample.report is not None:
        wl.fleet_check(built, workload, sample)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
                 tamper: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
    log = _route_log(stem + ".log")
    workload = wl.generate(name, seed)
    reference = Reference()
    setups_raw, setups, built = wl.timed_setups(workload, reference)
    untraced = wl.Sample()
    measure(workload, built, seconds / 2 if trace else seconds, untraced, reference,
            check=True, tamper=tamper)
    serves = max(len(untraced.walls), 1)
    log_lines = log.lines / (serves + 1)  # + the warm-up serve
    raw = raw_timings(setups_raw, untraced)
    if not trace:
        values, counts = end_to_end(workload, built, setups, untraced)
        units = END_TO_END
    else:
        tracer = tracing.install(tracing.Tracer())
        try:
            built = wl.build(workload)
            traced = wl.Sample()
            measure(workload, built, seconds / 2, traced, reference, check=False)
        finally:
            tracer.uninstall()
        spans = _Spans(tracer)
        values = per_layer(workload, spans, traced, untraced, log_lines)
        counts = {metric: spans.calls.get(span, 0) for metric, span in SPAN_OF.items()}
        units = PER_LAYER
        network = built.network if name == "anytime-solo" else built.engines[0].backend.network
        plan = wl.NetworkPlan.for_network(network, dtype=wl.DTYPE)
        tracer.write(stem + ".spans.json.gz")
        with open(stem + ".plan.json", "w") as handle:
            json.dump(spans.plan_table(plan.subnet_macs), handle, indent=1)
    failed = len(untraced.failed_ids)
    attempted = max(untraced.attempted, 1)
    correct = failed == 0 and not untraced.errors
    if trace:
        correct = correct and abs(values["trace.self_sum_ratio"] - 1.0) < 1e-9
    stamp = manifest(workload, trace)
    for metric, unit in units.items():
        samples = counts.get(metric)
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"{metric:36s} {values[metric]:>14.6g} {unit}{suffix}")
    for error in untraced.errors[:5]:
        print(f"error: {error}")
    print(json.dumps({"manifest": stamp, "samples": counts, "raw": raw}, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m: {"value": float(values[m]), "unit": u} for m, u in units.items()},
    }
    with open(stem + ".json", "w") as handle:
        json.dump(dict(result, manifest=stamp, samples=counts, raw=raw, errors=untraced.errors,
                       walls=untraced.walls, units=untraced.units, factors=untraced.factors),
                  handle, sort_keys=True)
    log.close()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
