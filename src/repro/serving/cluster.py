"""Fleet-level serving: request routers and the :class:`ServingCluster` facade.

One :class:`~repro.serving.engine.ServingEngine` models one accelerator.
A :class:`ServingCluster` owns several of them — one per node
:class:`~repro.serving.spec.ServingSpec`, typically over heterogeneous
platforms (``mobile-soc``, ``vehicle-ecu``, ``embedded-mcu``) — and places
every arriving request on a node through a pluggable :class:`Router`
(:data:`ROUTERS`: round-robin, join-shortest-queue, MAC/latency-aware
least-loaded).

Simulation model
----------------
One causal event loop serves the fleet.  Every node runs a resumable
:class:`~repro.serving.engine.ServingRun` on the shared simulated clock,
and one event heap holds the arrivals plus whatever crash/recover
transitions, failover retries, reroutes and rebalance ticks the cluster
is configured with.  At each event time ``t`` the coordinator advances
every node through the events that start *strictly before* ``t``, then
handles every event stamped ``t`` — placing each arrival through the
router and pushing it into the chosen node's run.  A node's dispatches
at ``t`` therefore run on the next advance, after the whole burst of
simultaneous arrivals has landed: no node decides on anything it could
not know at that instant, and none decides before it could know it.

Work enters and leaves a node through one record,
:class:`~repro.serving.engine.Handoff`: the request plus its
executed-level history, served steps, best-so-far logits and retries.
An arrival is a hand-off with an empty history; a crash or a steal
hands live work back as a list of them; every placement event carries
one, and :meth:`~repro.serving.engine.ServingRun.push` takes it.  The
coordinator branches on ``handoff.started`` only where the semantics
differ: admission control applies to unstarted work; failover backoff,
the subnet-coverage filter and best-effort finalisation apply to
started work, which replays its history on the destination
bit-for-bit.

A router reads two kinds of load signal (:class:`NodeState`): live ones
measured on the node's run as of its last step boundary — scheduler
depth, resident context bytes, entry-edge depth, stale by at most the
one step in flight, like the published stats a real load balancer acts
on — and a deterministic fluid model that charges each placed request
its largest-subnet service demand against the node's trace (exact for
run-to-completion FIFO service; an admission-time estimate otherwise).
Nodes interact only through placement, so for queue-blind routers and
step-up policies each node's report equals a closed-loop ``serve()``
over the requests placed on it.  Windowed batching never holds inside a
fleet: its coalescing wait reads the node's next *pushed* arrival, and
the coordinator pushes nothing ahead of its instant.

Each node's result is a :class:`~repro.serving.engine.ServingReport`.
The fleet's :class:`ClusterReport` is the same report type over one
job table — the node tables in node order, then the records the
coordinator finalised itself — so every fleet metric has the single
definition the engine report gives it.  The fleet report adds only the
per-node reports, the coordinator counters, per-node placement and
utilisation, and load imbalance.  A single-node cluster reproduces the
single-engine path bit-for-bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..utils.errors import ConfigError, check_number
from ..utils.logging import get_logger
from ..utils.metrics import MetricsRegistry
from .engine import (
    _ENGINE_FIELDS,
    Handoff,
    JobRecord,
    ServingEngine,
    ServingReport,
    ServingRun,
)
from .faults import FaultSpec, RetryPolicy
from .observe import ObservabilitySpec, TraceRecorder, _coerce_observe
from .request import Request
from .spec import ClusterSpec

_LOG = get_logger("repro.serving")

#: Scalar coordinator counters every :class:`ClusterReport` consumes
#: from the cluster metrics registry.
_COORDINATOR_COUNTERS = (
    "migrations",
    "failovers",
    "degraded_admissions",
    "rejected",
    "lost",
    "steals",
    "inflight_steals",
    "shards",
)


class NodeState:
    """Router-visible view of one fleet node.

    Holds the node's engine and its live
    :class:`~repro.serving.engine.ServingRun`, and exposes the load
    signals a placement policy may inspect.  Live signals are measured
    on the run as of its last step boundary: :meth:`published_depth`,
    :meth:`resident_bytes` and :meth:`batch_potential`.  The fluid model
    charges every placed request its largest-subnet service demand:
    :meth:`queue_length` (predicted jobs in system) and
    :meth:`predicted_finish` (the MAC/latency-aware completion estimate
    for further work).
    """

    def __init__(
        self,
        index: int,
        name: str,
        engine: ServingEngine,
        run: ServingRun,
        publish_interval: float = 0.0,
    ) -> None:
        self.index = index
        self.name = name
        self.engine = engine
        #: The node's live event loop; a recovered node gets a new one.
        self.run = run
        #: Publish granularity: how often (simulated seconds) the node
        #: refreshes the queue-depth snapshot it advertises to the
        #: router.  ``0`` publishes at every consult (the freshest
        #: signal the event loop can give); larger intervals let the
        #: advertised depth go stale between epochs — the knob the
        #: staleness-vs-placement-quality sweep turns.
        self.publish_interval = float(publish_interval)
        self._published_epoch = -1
        self._published_snapshot = 0
        num_subnets = engine.backend.num_subnets
        #: Advertised service demand per request: the full largest-subnet
        #: cost — what a run-to-completion job costs on this backend.
        self.expected_macs = float(engine.backend.subnet_macs(num_subnets - 1))
        self.assigned: List[Request] = []
        self._completions: List[float] = []  # predicted, non-decreasing
        self._busy_until = 0.0

    # ------------------------------------------------------------------
    # Load signals (what a router may inspect)
    # ------------------------------------------------------------------
    def queue_length(self, now: float) -> int:
        """Predicted number of assigned requests still in the system."""
        return len(self._completions) - bisect_right(self._completions, now)

    def predicted_finish(self, macs: float, now: float) -> float:
        """Completion estimate for ``macs`` of new work placed now.

        Charges the work against the node's trace *after* its current
        predicted backlog — heterogeneous throughput and queue state both
        count, which is what makes least-loaded placement latency-aware.
        """
        start = max(now, self._busy_until)
        return self.engine.trace.time_to_execute(macs, start)

    def published_depth(self, now: float) -> int:
        """The node's published ready-queue length.

        The run's scheduler depth as of its last step boundary — stale by
        at most the one step in flight, like a real load balancer's
        published queue length.  A positive :attr:`publish_interval`
        coarsens the signal: the depth is snapshotted once per interval
        epoch and the router reads the last snapshot between epochs,
        exactly like a load balancer polling node stats on a timer.
        """
        if self.publish_interval <= 0.0:
            return self.run.queue_depth
        epoch = math.floor(now / self.publish_interval)
        if epoch > self._published_epoch:
            self._published_epoch = epoch
            self._published_snapshot = self.run.queue_depth
        return self._published_snapshot

    def peek_published_depth(self, now: float) -> int:
        """What :meth:`published_depth` would answer, without refreshing.

        Trace instrumentation (``publish`` events) records the signal a
        router *would* consult; reading through this peek keeps the
        snapshot epoch state byte-identical between traced and untraced
        runs even for routers that never consult the depth at all.
        """
        if self.publish_interval <= 0.0:
            return self.run.queue_depth
        epoch = math.floor(now / self.publish_interval)
        if epoch > self._published_epoch:
            return self.run.queue_depth
        return self._published_snapshot

    def resident_bytes(self, now: float) -> int:
        """Bytes of inference contexts resident on this node.

        Measured on the run's in-flight contexts as of its last step
        boundary (the same staleness as :meth:`published_depth`).  The
        signal a memory-aware router places on: heterogeneous nodes
        differ in both speed *and* memory headroom, and a node serving
        under a tight
        :attr:`~repro.serving.spec.ServingSpec.memory_budget_bytes` pays
        recompute MACs for every context beyond its budget.
        """
        return self.run.resident_bytes

    def batch_potential(self, now: float) -> int:
        """Ready jobs a newly placed request could share its first pass with.

        The number of queued jobs still at the entry subnet edge (the
        scheduler's per-edge index, same staleness as
        :meth:`published_depth`) — the occupancy signal: routing a
        request to the node where the most first steps wait lets
        coalescing policies fill their shared passes instead of
        fragmenting waves across the fleet.
        """
        return self.run.entry_edge_depth

    # ------------------------------------------------------------------
    def assign(self, request: Request) -> None:
        """Record a placement and roll the fluid load model forward.

        The coordinator pushes the work into the live run itself, as
        one :class:`~repro.serving.engine.Handoff` whether it is a fresh
        arrival, a migration, a steal or a failover.
        """
        finish = self.predicted_finish(self.expected_macs, request.arrival_time)
        self.assigned.append(request)
        self._completions.append(finish)
        self._busy_until = finish

    def retract(self, request_id: int) -> bool:
        """Forget a placement: the request left this node before finishing.

        Invoked by the coordinator whenever work departs a node early —
        crash-driven migration, checkpointed failover, or a load-
        triggered steal — so the fluid model stops charging the old node
        for jobs it no longer holds (without this, analytic routers keep
        avoiding a node that is actually idle).  Removes the *last*
        matching placement (a request re-placed after failover may have
        visited the same node twice).  Placements before it are
        unaffected, so the ledgers are cut at its position and only the
        later placements are charged again — identical to a fresh model
        that never saw the departed request.  Returns whether a
        placement was found.
        """
        for position in range(len(self.assigned) - 1, -1, -1):
            if self.assigned[position].request_id == request_id:
                break
        else:
            return False
        later = self.assigned[position + 1 :]
        del self.assigned[position:]
        del self._completions[position:]
        self._busy_until = self._completions[-1] if self._completions else 0.0
        for request in later:
            self.assign(request)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeState({self.name!r}, assigned={len(self.assigned)})"


class Router:
    """Base class for request-placement policies.

    A router sees each request at its arrival time together with every
    node's advertised load (:class:`NodeState`) and returns the index of
    the node that takes it.  Tie-breaking must be deterministic (node
    index) so fleet simulations are exactly reproducible.
    """

    name = "router"

    def reset(self, nodes: Sequence[NodeState]) -> None:
        """Forget all routing state (start of a ``serve()`` run)."""

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> int:
        """Index of the node that takes ``request``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RoundRobinRouter(Router):
    """Cycle through the nodes regardless of load — the placement baseline."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self, nodes: Sequence[NodeState]) -> None:
        self._next = 0

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> int:
        index = self._next % len(nodes)
        self._next += 1
        return index


class JoinShortestQueueRouter(Router):
    """Place on the node advertising the fewest requests in system.

    The classic supermarket policy: counts jobs, not work, so it is
    throughput-blind — on heterogeneous fleets a slow node with a short
    queue still attracts traffic (exactly the failure mode
    :class:`LeastLoadedRouter` fixes).
    """

    name = "join-shortest-queue"

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> int:
        return min(nodes, key=lambda node: (node.queue_length(now), node.index)).index


class LeastLoadedRouter(Router):
    """Place where the request is predicted to *finish* first.

    MAC- and latency-aware: the estimate charges the request's full
    service demand against each node's trace behind its current backlog,
    so both a node's speed and its queue count — an 8 GMAC/s vehicle ECU
    with two queued jobs can still beat an idle 50 MMAC/s MCU.

    ``signal`` selects the load signal: ``"predicted-finish"`` (default)
    keys on the analytic fluid-model completion estimate;
    ``"queue-depth"`` keys on the node's *published* scheduler depth
    (real queue state at step boundaries, stale by one in-flight event)
    with the analytic estimate demoted to a tie-break — the registered
    ``"least-loaded-depth"`` router is exactly this configuration;
    ``"memory"`` keys on :meth:`NodeState.resident_bytes` — the node
    whose inference contexts pin the fewest bytes takes the request,
    which is what keeps memory-budgeted nodes
    (:attr:`~repro.serving.spec.ServingSpec.memory_budget_bytes`) out of
    eviction/recompute thrash; the registered ``"least-loaded-memory"``
    router is this configuration.
    """

    name = "least-loaded"
    SIGNALS = ("predicted-finish", "queue-depth", "memory", "occupancy")

    def __init__(self, signal: str = "predicted-finish") -> None:
        if signal not in self.SIGNALS:
            raise ValueError(
                f"unknown load signal '{signal}'; available: {list(self.SIGNALS)}"
            )
        self.signal = signal

    def route(self, request: Request, nodes: Sequence[NodeState], now: float) -> int:
        if self.signal == "queue-depth":
            return min(
                nodes,
                key=lambda node: (
                    node.published_depth(now),
                    node.predicted_finish(node.expected_macs, now),
                    node.index,
                ),
            ).index
        if self.signal == "memory":
            return min(
                nodes,
                key=lambda node: (
                    node.resident_bytes(now),
                    node.predicted_finish(node.expected_macs, now),
                    node.index,
                ),
            ).index
        if self.signal == "occupancy":
            # Maximise batch potential: join the node where the most
            # first steps wait (fullest shared pass), finish-time and
            # node index breaking ties.
            return min(
                nodes,
                key=lambda node: (
                    -node.batch_potential(now),
                    node.predicted_finish(node.expected_macs, now),
                    node.index,
                ),
            ).index
        return min(
            nodes,
            key=lambda node: (node.predicted_finish(node.expected_macs, now), node.index),
        ).index


class QueueDepthLeastLoadedRouter(LeastLoadedRouter):
    """Least-loaded placement from published scheduler depths."""

    name = "least-loaded-depth"

    def __init__(self) -> None:
        super().__init__(signal="queue-depth")


class MemoryAwareLeastLoadedRouter(LeastLoadedRouter):
    """Least-loaded placement from measured resident-context bytes."""

    name = "least-loaded-memory"

    def __init__(self) -> None:
        super().__init__(signal="memory")


class OccupancyAwareLeastLoadedRouter(LeastLoadedRouter):
    """Placement that maximises batch occupancy: join the fullest wave.

    Routes each request to the node with the most queued first steps
    (:meth:`NodeState.batch_potential`), so coalescing batch policies —
    ``"continuous"`` in particular — form full shared passes instead of
    fragmenting a wave across half-idle nodes.
    """

    name = "least-loaded-occupancy"

    def __init__(self) -> None:
        super().__init__(signal="occupancy")


#: Name-based registry of router policies, mirroring ``SCHEDULERS``.
ROUTERS: Dict[str, Type[Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    "jsq": JoinShortestQueueRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    QueueDepthLeastLoadedRouter.name: QueueDepthLeastLoadedRouter,
    MemoryAwareLeastLoadedRouter.name: MemoryAwareLeastLoadedRouter,
    OccupancyAwareLeastLoadedRouter.name: OccupancyAwareLeastLoadedRouter,
}


def get_router(name: str) -> Router:
    """Instantiate a router by registry name."""
    try:
        return ROUTERS[name.lower()]()
    except KeyError as exc:
        raise ConfigError(
            f"unknown router '{name}'; available: {sorted(ROUTERS)}"
        ) from exc


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
#: Fleet admission policies: admit everything, or degrade-before-reject.
ADMISSION_POLICIES: Tuple[str, ...] = ("none", "degrade")


class AdmissionController:
    """Degrade-before-reject admission on the routed node's signals.

    The anytime property gives admission control a middle ground real
    servers lack: instead of the binary admit/reject, an arrival whose
    full-quality service is predicted to miss its deadline is *capped*
    to the largest subnet level whose :meth:`NodeState.predicted_finish`
    still lands in time (``Request.max_subnet``), and an arrival whose
    context would blow a bounded node's memory budget — forcing
    eviction/recompute thrash for everyone resident — is capped to the
    mandatory minimum level.  The memory check counts the contexts the
    node already holds plus those of requests pushed to it but not yet
    admitted (the rest of a simultaneous burst).  Only when even the
    minimum subnet cannot meet the deadline on any reachable node is the
    request rejected.
    """

    def decide(
        self, request: Request, node: NodeState, now: float
    ) -> Tuple[str, Optional[Request]]:
        """``("accept", request)``, ``("degrade", capped)`` or ``("reject", None)``."""
        backend = node.engine.backend
        top = backend.num_subnets - 1
        limit = top if request.max_subnet is None else min(top, request.max_subnet)
        cap = limit
        deadline = request.deadline
        if deadline is not None:
            feasible = None
            for level in range(cap, -1, -1):
                finish = node.predicted_finish(float(backend.subnet_macs(level)), now)
                if finish <= deadline:
                    feasible = level
                    break
            if feasible is None:
                return "reject", None
            cap = feasible
        budget = node.engine.memory_budget.budget_bytes
        context = backend.context_nbytes(request.batch_size)
        if budget is not None and context is not None:
            demand = node.resident_bytes(now) + node.run.pending_context_bytes
            if demand + context > budget:
                # Predicted recompute thrash: take the mandatory level
                # and leave — degrading beats evicting everyone else.
                cap = 0
        if cap >= limit:
            return "accept", request
        return "degrade", replace(request, max_subnet=cap)


# ----------------------------------------------------------------------
# Fleet report
# ----------------------------------------------------------------------
@dataclass
class ClusterReport(ServingReport):
    """The fleet's serving report: one :class:`ServingReport` over the
    fleet's job table, plus what only a fleet has.

    ``jobs`` is the node tables in node order, then ``extra_jobs`` (see
    :meth:`ServingReport.merge`), so every metric — latency percentiles,
    miss rate, MACs, batching and eviction counters, ``retries`` — has
    one definition shared with a single engine's report.  Node reports
    stay accessible verbatim (``node_reports``): a single-node cluster's
    node report is bit-identical to what the bare engine would have
    produced.
    """

    node_reports: List[ServingReport] = field(default_factory=list)
    node_names: List[str] = field(default_factory=list)
    router_name: str = ""
    cluster_name: str = "cluster"
    #: Records the fault-tolerant coordinator finalised itself: rejected
    #: arrivals, requests lost because no node was ever reachable, and
    #: best-effort anytime completions delivered when a retry budget or
    #: deadline ran out mid-failover.  Empty outside fault-tolerant runs.
    extra_jobs: List[JobRecord] = field(default_factory=list)
    #: Queued-but-unstarted requests moved off a crashed node.
    migrations: int = 0
    #: Started jobs resumed on a surviving node from their subnet-level
    #: checkpoint (bit-exact replay; recompute MACs charged honestly).
    failovers: int = 0
    #: Arrivals admitted with a capped target subnet instead of rejected.
    degraded_admissions: int = 0
    #: Arrivals refused because even the minimum subnet was predicted to
    #: miss the deadline on every reachable node.
    rejected: int = 0
    #: Requests that never reached any node and never will.
    lost: int = 0
    #: Jobs moved between *healthy* nodes by the load trigger (includes
    #: the in-flight steals below).
    steals: int = 0
    #: Started jobs stolen as subnet-level checkpoints and resumed on
    #: the destination through the bit-exact replay path.
    inflight_steals: int = 0
    #: Shard requests created by batch sharding (``0`` when no arriving
    #: batch exceeded ``rebalance.shard_max_batch``).
    shards: int = 0
    #: Batch sharding's parent map: original request id -> the shard ids
    #: that replaced it, in slice order.  Empty without sharding.
    shard_groups: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    # ``metrics`` is the coordinator's registry snapshot: the scalar
    # counters above are *consumed* from it, never recomputed.  Always
    # populated by ``serve()`` regardless of observability, so enabling
    # tracing cannot change the report.

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_reports)

    @cached_property
    def _node_jobs(self) -> List[int]:
        return [report.num_jobs for report in self.node_reports]

    @property
    def node_jobs(self) -> List[int]:
        """Requests placed per node (the routing decision, directly)."""
        # A fresh list per access, so callers cannot corrupt the memo.
        return list(self._node_jobs)

    @cached_property
    def _node_utilisation(self) -> List[float]:
        span = self.makespan
        if span <= 0:
            return [0.0] * self.num_nodes
        busy = [
            sum(
                step.duration
                for job in report.jobs
                for step in job.steps
                if math.isfinite(step.duration)
            )
            for report in self.node_reports
        ]
        return [min(b / span, 1.0) for b in busy]

    @property
    def node_utilisation(self) -> List[float]:
        """Fraction of the fleet horizon each node spent executing steps."""
        return list(self._node_utilisation)

    @property
    def load_imbalance(self) -> float:
        """Peak-to-mean ratio of per-node placements (1.0 = perfectly even)."""
        counts = self._node_jobs
        mean = float(np.mean(counts)) if counts else 0.0
        return float(max(counts) / mean) if mean > 0 else float("nan")

    def gathered_logits(self) -> Dict[int, Optional[np.ndarray]]:
        """Per-parent stacked logits for every sharded request.

        Concatenates each parent's shard logits in slice order (row ``i``
        answers sample ``i`` of the original batch); a parent whose
        shards did not all complete gathers to ``None``.  Empty without
        batch sharding.
        """
        if not self.shard_groups:
            return {}
        from .rebalance import gather_shard_logits

        jobs_by_id = {job.request.request_id: job for job in self.jobs}
        return gather_shard_logits(jobs_by_id, self.shard_groups)

    def as_dict(self) -> Dict[str, Any]:
        """The shared metric block plus the fleet keys; engine identity
        (backend, scheduler, ...) stays on each entry of ``nodes``."""
        fleet = {
            "cluster": self.cluster_name,
            "router": self.router_name,
            "num_nodes": self.num_nodes,
        }
        fleet.update(self._metric_dict())
        fleet.update({name: getattr(self, name) for name in _COORDINATOR_COUNTERS})
        fleet.update(
            {
                "shard_groups": {
                    str(parent): list(shards)
                    for parent, shards in sorted(self.shard_groups.items())
                },
                "load_imbalance": self.load_imbalance,
                "node_jobs": self.node_jobs,
                "node_utilisation": self.node_utilisation,
                "nodes": [
                    dict(report.as_dict(), node=name, utilisation=utilisation, assigned=jobs)
                    for name, report, utilisation, jobs in zip(
                        self.node_names,
                        self.node_reports,
                        self._node_utilisation,
                        self._node_jobs,
                    )
                ],
            }
        )
        return fleet


def _publish_signals(
    recorder: TraceRecorder,
    nodes: Sequence[NodeState],
    request: Request,
    now: float,
) -> None:
    """Record every candidate node's advertised load at one routing decision.

    One ``publish`` event per candidate node, carrying the fluid-model
    jobs-in-system estimate (``fluid_depth``), the node's actual live
    scheduler depth (``live_depth``) and the snapshot the router would
    consult under the node's publish granularity (``published_depth`` —
    equal to ``live_depth`` when :attr:`NodeState.publish_interval` is
    zero).  The per-sample gaps are the routing signal's staleness;
    :func:`~repro.serving.observe.staleness_curve` aggregates them.
    The published value is read through a mutation-free peek so tracing
    cannot perturb the snapshot epochs a depth router will refresh.

    Each event is stamped at the node's visible clock: a node cannot
    observe a routing consult before its own time, which keeps per-node
    timestamps monotone even when a consult lands mid-step.
    """
    for node in nodes:
        recorder.emit(
            "publish",
            max(now, node.run.now),
            node=node.name,
            request_id=request.request_id,
            fluid_depth=int(node.queue_length(now)),
            live_depth=int(node.run.queue_depth),
            published_depth=int(node.peek_published_depth(now)),
        )


class _Coordinator:
    """The fleet's one causal event loop, for one ``serve()`` call.

    One event heap drives arrivals, injected crash/recover transitions,
    the retry/reroute events failover generates and the rebalance tick;
    each event kind has one ``_on_<kind>`` handler.  Ties break on push
    order, and injected transitions are pushed first — so at an instant
    where a node both recovers and receives work, the recovery lands
    first.  Before the events stamped ``t`` are handled, every live node
    is advanced through the events that start strictly before ``t``, so
    placements read the node state of that instant and dispatches at
    ``t`` see every request placed at ``t``.

    Work moves as one record, :class:`~repro.serving.engine.Handoff`:
    every placement event carries one, an arrival is a hand-off with an
    empty history, and a crash or steal returns a list of them.  The
    record carries the retries already consumed, so the per-request
    retry budget survives any number of moves.  Crash semantics: the
    dying run's unstarted hand-offs migrate immediately (charged
    nothing), before its started ones.  A started hand-off is a
    subnet-level checkpoint; it re-enters a surviving node through
    :meth:`ServingRun.push` after its capped exponential backoff, and
    the node replays its history the way an evicted context resumes —
    restoring the activation state bit-for-bit and charging the
    recompute MACs honestly.  When the retry budget or the deadline
    runs out, the checkpoint is finalised with its best-so-far anytime
    prediction instead of being lost: partial answers are the whole
    point of stepping inference.
    """

    def __init__(
        self,
        cluster: "ServingCluster",
        registry: MetricsRegistry,
        recorder: Optional[TraceRecorder],
    ) -> None:
        faults = cluster.faults
        self.router = cluster.router
        self.recorder = recorder
        self.injector = (
            faults.injector(cluster.node_names) if faults is not None else None
        )
        self.retry = faults.retry if faults is not None else RetryPolicy()
        self.enforce = all(engine.enforce_deadline for engine in cluster.engines)
        self.admission = (
            AdmissionController() if cluster.admission == "degrade" else None
        )
        # Coordinator counters live in the cluster metrics registry; the
        # ClusterReport consumes their final values.
        self.counters = {name: registry.counter(name) for name in _COORDINATOR_COUNTERS}
        #: Records finalised here, not by a node: rejections, losses and
        #: best-effort checkpoint completions.
        self.extra: List[JobRecord] = []
        self.nodes = [
            NodeState(index, name, engine, self._open_run(engine, name),
                      publish_interval=cluster.publish_interval)
            for index, (name, engine) in enumerate(zip(cluster.node_names, cluster.engines))
        ]
        self.alive = [True] * len(self.nodes)
        #: Each node's crashed run incarnations, in crash order.
        self.crashed: List[List[ServingRun]] = [[] for _ in self.nodes]
        rebalance = cluster.rebalance
        self.rebalance = rebalance if rebalance is not None and rebalance.enabled else None
        self.tick = 0.0
        if self.rebalance is not None:
            self.tick = self.rebalance.interval or cluster.publish_interval
        self.events: List[Tuple[float, int, str, Any]] = []
        self._sequence = itertools.count()
        self.router.reset(self.nodes)

    def _open_run(self, engine: ServingEngine, name: str) -> ServingRun:
        return engine.open_run(fault_injector=self.injector, node=name, recorder=self.recorder)

    def _push_event(self, time: float, kind: str, payload: Any) -> None:
        heapq.heappush(self.events, (time, next(self._sequence), kind, payload))

    def _emit(self, kind: str, now: float, node: Optional[NodeState] = None, **fields) -> None:
        """Trace one coordinator event (node events at the node's clock)."""
        if self.recorder is None:
            return
        if node is not None:
            # The node learns of a decision no earlier than its own clock.
            self.recorder.emit(kind, max(now, node.run.now), node=node.name, **fields)
        else:
            self.recorder.emit(kind, now, **fields)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request]) -> Tuple[List[ServingReport], List[JobRecord]]:
        """Serve ``requests``; returns per-node reports and the extra records."""
        if self.injector is not None:
            for node in self.nodes:
                for time, kind in self.injector.transitions(node.name):
                    self._push_event(time, kind, node.index)
        for request in sorted(requests, key=lambda r: (r.arrival_time, r.request_id)):
            self._push_event(request.arrival_time, "place", Handoff(request))
        if self.rebalance is not None and requests:
            first_arrival = min(request.arrival_time for request in requests)
            self._push_event(first_arrival + self.tick, "rebalance", None)
        advanced = -math.inf
        while self.events:
            time, _, kind, payload = heapq.heappop(self.events)
            if time > advanced:
                # Handling events never makes earlier work runnable, so
                # one advance per distinct instant suffices.
                before = math.nextafter(time, -math.inf)
                for node, alive in zip(self.nodes, self.alive):
                    if alive:
                        node.run.run_until(before)
                advanced = time
            getattr(self, "_on_" + kind)(payload, time)
        reports = []
        for node, crashed in zip(self.nodes, self.crashed):
            incarnations = list(crashed)
            if not incarnations or incarnations[-1] is not node.run:
                incarnations.append(node.run)
            parts = [run.finish() for run in incarnations]
            if len(parts) == 1:
                reports.append(parts[0])
                continue
            # A node that crashed and recovered served through several
            # runs of one engine; present them as one node, by request id.
            merged = ServingReport.merge(
                parts, **{name: getattr(parts[0], name) for name in _ENGINE_FIELDS.values()}
            )
            merged.jobs.sort(key=lambda job: job.request.request_id)
            reports.append(merged)
        return reports, self.extra

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_place(self, handoff: Handoff, now: float) -> None:
        """An arrival, a reroute or a failover retry: place the work."""
        self._place(handoff, now)

    def _on_rebalance(self, _payload: Any, now: float) -> None:
        """Evaluate the steal trigger on published depths; move work."""
        from .rebalance import steal_plan

        ready = self._reachable(now)
        plan = None
        if len(ready) >= 2:
            plan = steal_plan([node.published_depth(now) for node in ready], self.rebalance)
        if plan is not None:
            victim = ready[plan[0]]
            for handoff in victim.run.steal(
                plan[1], now, include_started=self.rebalance.steal_in_flight
            ):
                self._steal(victim, handoff, now)
                self._place(handoff, now, exclude=victim.index)
        # Re-arm while any work remains anywhere; the last tick dies with
        # the fleet drained, ending the event loop.
        if self.events or any(
            alive and node.run.next_event_time() is not None
            for node, alive in zip(self.nodes, self.alive)
        ):
            self._push_event(now + self.tick, "rebalance", None)

    def _on_crash(self, index: int, now: float) -> None:
        if not self.alive[index]:
            return
        node = self.nodes[index]
        # Unstarted work migrates before started work fails over; each
        # keeps the order the run handed it back in (a stable sort).
        handoffs = sorted(node.run.crash(now), key=lambda handoff: handoff.started)
        self.crashed[index].append(node.run)
        self.alive[index] = False
        # The fluid model forgets the departed work immediately: analytic
        # routing signals must not keep charging a dead node for jobs the
        # survivors are about to take.
        for handoff in handoffs:
            node.retract(handoff.request.request_id)
        for handoff in handoffs:
            if not handoff.started:
                self.counters["migrations"].add()
                self._emit("migrate", now, node, request_id=handoff.request.request_id)
                self._place(handoff, now)
                continue
            if handoff.retries >= self.retry.budget:
                self._best_effort(handoff, "retry budget exhausted at node failure", now)
                continue
            delay = self.retry.backoff(handoff.retries)
            handoff.retries += 1
            retry_at = now + delay
            if self._past_deadline(handoff, retry_at):
                self._best_effort(handoff, "deadline reached during failover backoff", now)
                continue
            self.counters["failovers"].add()
            self._push_event(retry_at, "place", handoff)

    def _on_recover(self, index: int, now: float) -> None:
        if self.alive[index]:
            return
        node = self.nodes[index]
        node.run = self._open_run(node.engine, node.name)
        self.alive[index] = True
        _LOG.info("node '%s' recovered at t=%.6f", node.name, now)
        self._emit("recover", now, node)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _reachable(self, now: float) -> List[NodeState]:
        return [
            node
            for node, alive in zip(self.nodes, self.alive)
            if alive and (self.injector is None or self.injector.reachable(node.name, now))
        ]

    def _past_deadline(self, handoff: Handoff, when: float) -> bool:
        """Whether a retry at ``when`` could only be discovered dead."""
        deadline = handoff.request.deadline
        return self.enforce and deadline is not None and when >= deadline

    def _steal(self, victim: NodeState, handoff: Handoff, now: float) -> None:
        request_id = handoff.request.request_id
        victim.retract(request_id)
        self.counters["steals"].add()
        if handoff.started:
            self.counters["inflight_steals"].add()
        self._emit("steal", now, victim, request_id=request_id, inflight=handoff.started)

    def _place(self, handoff: Handoff, now: float, exclude: Optional[int] = None) -> None:
        """Route one hand-off and push it into the chosen node's run."""
        request = handoff.request
        reachable = self._reachable(now)
        candidates = reachable
        if handoff.started:
            # The replay must land on a node whose backend serves every
            # level the checkpoint already executed.
            top = handoff.history[-1]
            candidates = [node for node in reachable if node.engine.backend.num_subnets > top]
        if exclude is not None:
            # Keep stolen work off its victim — unless the victim is the
            # only node that can serve it (then a bounced steal beats
            # losing the checkpoint).
            others = [node for node in candidates if node.index != exclude]
            if others:
                candidates = others
        if not candidates:
            self._unplaceable(handoff, now, bool(reachable))
            return
        node = self._choose(request, candidates, now)
        if handoff.started:
            self._emit(
                "failover",
                now,
                node,
                request_id=request.request_id,
                resume_levels=len(handoff.history),
                attempt=handoff.retries,
            )
        elif self.admission is not None:
            admitted = self._admit(handoff, node, candidates, now)
            if admitted is None:
                return
            node, handoff = admitted
        node.assign(handoff.request)
        node.run.push(handoff.request, not_before=now, handoff=handoff)

    def _choose(
        self, request: Request, candidates: List[NodeState], now: float
    ) -> NodeState:
        """Trace the candidates' advertised load and ask the router for one."""
        if self.recorder is not None:
            _publish_signals(self.recorder, candidates, request, now)
        # Routers answer with NodeState.index; renumber the candidate list
        # positionally for the call (order-preserving, so index
        # tie-breaks are unchanged) and restore afterwards.
        original = [node.index for node in candidates]
        for position, node in enumerate(candidates):
            node.index = position
        try:
            choice = self.router.route(request, candidates, now)
        finally:
            for node, index in zip(candidates, original):
                node.index = index
        if not 0 <= choice < len(candidates):
            raise IndexError(
                f"router '{self.router.name}' returned node index {choice} "
                f"for {len(candidates)} reachable nodes"
            )
        return candidates[choice]

    def _admit(
        self, handoff: Handoff, node: NodeState, candidates: List[NodeState], now: float
    ) -> Optional[Tuple[NodeState, Handoff]]:
        """Degrade-before-reject admission; ``None`` when rejected."""
        request = handoff.request
        verdict, admitted = self.admission.decide(request, node, now)
        if verdict == "reject":
            # The routed node cannot land even the minimum subnet; scan
            # the rest before giving up.
            for other in candidates:
                if other is node:
                    continue
                verdict, admitted = self.admission.decide(request, other, now)
                if verdict != "reject":
                    node = other
                    break
        if verdict == "reject":
            self.counters["rejected"].add()
            _LOG.warning(
                "admission: rejected request %s at t=%.6f — minimum subnet "
                "predicted to miss the deadline on every reachable node",
                request.request_id,
                now,
            )
            self.extra.append(
                JobRecord(
                    request=request,
                    status="rejected",
                    stop_reason=(
                        "admission control: minimum subnet predicted to "
                        "miss the deadline on every reachable node"
                    ),
                    retries=handoff.retries,
                )
            )
            self._emit(
                "reject",
                now,
                request_id=request.request_id,
                reason="minimum subnet misses deadline everywhere",
            )
            return None
        if verdict == "degrade":
            self.counters["degraded_admissions"].add()
            _LOG.warning(
                "admission: degraded request %s to max_subnet=%s on node '%s' at t=%.6f",
                request.request_id,
                admitted.max_subnet,
                node.name,
                now,
            )
            self._emit(
                "degrade",
                now,
                node,
                request_id=request.request_id,
                max_subnet=admitted.max_subnet,
            )
        else:
            self._emit("admit", now, node, request_id=request.request_id)
        return node, replace(handoff, request=admitted)

    def _unplaceable(self, handoff: Handoff, now: float, any_reachable: bool) -> None:
        """No candidate node now: wait for one to become reachable, or finalise."""
        if handoff.started and any_reachable:
            self._best_effort(
                handoff, "no surviving node serves the checkpoint's subnet levels", now
            )
            return
        horizon = self.injector.next_reachable(now) if self.injector is not None else math.inf
        if math.isfinite(horizon):
            if handoff.started and self._past_deadline(handoff, horizon):
                # A retry scheduled past the hard deadline could only be
                # discovered dead at dispatch: finalise the best-so-far
                # anytime answer immediately.
                self._best_effort(
                    handoff, "deadline reached before any node is reachable", now
                )
            else:
                self._push_event(horizon, "place", handoff)
            return
        if handoff.started:
            self._best_effort(handoff, "fleet never reachable again", now)
            return
        request = handoff.request
        self.counters["lost"].add()
        self.extra.append(
            JobRecord(
                request=request,
                status="lost",
                stop_reason="no serving node ever reachable",
                retries=handoff.retries,
            )
        )
        self._emit(
            "finalize",
            now,
            request_id=request.request_id,
            status="lost",
            reason="no serving node ever reachable",
            arrival=float(request.arrival_time),
        )

    def _best_effort(self, handoff: Handoff, reason: str, now: float) -> None:
        """Finalise a checkpoint with its best-so-far anytime result."""
        status = "completed" if handoff.steps else "dropped"
        self.extra.append(
            JobRecord(
                request=handoff.request,
                steps=list(handoff.steps),
                status=status,
                stop_reason=reason,
                final_logits=handoff.logits,
                retries=handoff.retries,
            )
        )
        self._emit(
            "finalize",
            now,
            request_id=handoff.request.request_id,
            status=status,
            reason=reason,
            best_effort=True,
            arrival=float(handoff.request.arrival_time),
        )


# ----------------------------------------------------------------------
# The cluster facade
# ----------------------------------------------------------------------
def _resolve_network(network_or_result):
    """Accept a SteppingNetwork or anything exposing ``servable()``."""
    servable = getattr(network_or_result, "servable", None)
    return servable() if callable(servable) else network_or_result


class ServingCluster:
    """A fleet of serving engines behind one request router.

    Build it from engines directly, or declaratively through
    :meth:`from_spec` — one engine per node
    :class:`~repro.serving.spec.ServingSpec` over heterogeneous
    platforms.  :meth:`serve` places the merged request stream and runs
    every node's event loop, returning a :class:`ClusterReport`.
    """


    def __init__(
        self,
        engines: Sequence[ServingEngine],
        router: Union[Router, str] = "round-robin",
        names: Optional[Sequence[str]] = None,
        name: str = "cluster",
        spec: Optional[ClusterSpec] = None,
        faults: Optional[Union[FaultSpec, Mapping[str, Any]]] = None,
        admission: str = "none",
        observe: Optional[Union[ObservabilitySpec, Mapping[str, Any]]] = None,
        publish_interval: float = 0.0,
        rebalance: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if not engines:
            raise ValueError("a ServingCluster needs at least one engine")
        self.publish_interval = check_number("publish_interval", publish_interval)
        from .rebalance import _coerce_rebalance

        self.rebalance = _coerce_rebalance(rebalance)
        if (
            self.rebalance is not None
            and self.rebalance.enabled
            and self.rebalance.interval <= 0.0
            and self.publish_interval <= 0.0
        ):
            raise ConfigError(
                "rebalance.enabled needs a positive rebalance.interval or a "
                "positive cluster publish_interval to evaluate its trigger at"
            )
        self.engines = list(engines)
        #: Fleet-wide observability: one shared recorder per ``serve()``
        #: call (single global event sequence across every node).
        self.observe = _coerce_observe(observe)
        self.router = get_router(router) if isinstance(router, str) else router
        if names is None:
            names = [f"node{index}" for index in range(len(self.engines))]
        if len(names) != len(self.engines):
            raise ValueError("names must match the number of engines")
        self.node_names = list(names)
        self.name = name
        self.spec = spec
        if isinstance(faults, Mapping):
            faults = FaultSpec.from_dict(faults)
        self.faults = faults
        if admission not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy '{admission}'; "
                f"available: {sorted(ADMISSION_POLICIES)}"
            )
        self.admission = admission
        if self.faults is not None:
            # Fail fast on fault events naming nodes this fleet lacks.
            self.faults.injector(self.node_names)
            for node_name, engine in zip(self.node_names, self.engines):
                # Slowdown windows derate the node's trace statically, so
                # the run's execution times and the fluid routing signals
                # read the same derated rates.
                engine.trace = self.faults.derate(engine.trace, node_name)
                # Transient step failures on every node back off under
                # the chaos schedule's retry policy.
                engine.retry_policy = self.faults.retry

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: Union[ClusterSpec, Mapping[str, Any]],
        network_or_result=None,
    ) -> "ServingCluster":
        """Build the fleet a :class:`~repro.serving.spec.ClusterSpec` declares.

        Without an explicit network, the spec's declarative ``model`` is
        instantiated — so a complete fleet simulation can be launched
        from one JSON file.  All node backends share one compiled plan
        per ``(dtype, prune)`` via the plan cache; each node gets its own
        engine, trace and scheduler.
        """
        if not isinstance(spec, ClusterSpec):
            spec = ClusterSpec.from_dict(spec)
        network = _resolve_network(network_or_result)
        if network is None:
            network = spec.build_network()
        engines = [node.build_engine(network) for node in spec.nodes]
        return cls(
            engines,
            router=spec.router,
            names=[node.node_name for node in spec.nodes],
            name=spec.name,
            spec=spec,
            faults=spec.faults,
            admission=spec.admission,
            observe=spec.observe,
            publish_interval=spec.publish_interval,
            rebalance=spec.rebalance,
        )

    @property
    def num_nodes(self) -> int:
        return len(self.engines)


    def serve(
        self,
        requests: Optional[Sequence[Request]] = None,
        *,
        recorder: Optional[TraceRecorder] = None,
    ) -> ClusterReport:
        """Place the workload through the router and serve it on every node.

        With no explicit ``requests`` the spec's declared streams are
        built and merged (requires :meth:`from_spec` construction).
        Request ids must be unique across the whole fleet workload
        (:func:`~repro.serving.request.merge_streams` guarantees this for
        merged streams).  Every configuration — any router, with or
        without faults, admission control or rebalancing — is served by
        the one causal event loop the module docstring describes.

        ``recorder`` attaches a caller-owned observability trace (the
        caller closes it and keeps the events); without one, an enabled
        ``observe`` spec builds a recorder owned — and closed — by this
        call.
        """
        if requests is None:
            if self.spec is None:
                raise ValueError("no requests given and no ClusterSpec to build them from")
            input_shape = self.engines[0].backend.network.spec.input_shape
            requests = self.spec.build_requests(input_shape=input_shape)
        ids = [request.request_id for request in requests]
        if len(set(ids)) != len(ids):
            raise ValueError(
                "request_id values must be unique across the cluster workload; "
                "merge streams with repro.serving.merge_streams"
            )
        # One shared recorder per serve call: every node emits into the
        # same globally sequenced stream (per-node ServingSpec.observe is
        # superseded by the fleet-wide spec during cluster serving).
        owned = None
        if recorder is None and self.observe is not None and self.observe.enabled:
            owned = recorder = self.observe.build()
        # The coordinator registry is always on — the report's scalar
        # counters are consumed from it, so enabling tracing cannot
        # change a report.
        registry = MetricsRegistry()
        counters = {name: registry.counter(name) for name in _COORDINATOR_COUNTERS}
        # Batch sharding splits oversized input batches into slice-view
        # shard requests before any placement; the report keeps the
        # parent map so per-shard logits gather back into one answer.
        shard_groups: Dict[int, Tuple[int, ...]] = {}
        if (
            self.rebalance is not None
            and self.rebalance.shard_max_batch is not None
        ):
            from .rebalance import shard_requests

            by_id = {request.request_id: request for request in requests}
            requests, shard_groups = shard_requests(
                requests, self.rebalance.shard_max_batch
            )
            for parent_id, shard_ids in sorted(
                shard_groups.items(),
                key=lambda item: (by_id[item[0]].arrival_time, item[0]),
            ):
                counters["shards"].add(len(shard_ids))
                if recorder is not None:
                    recorder.emit(
                        "shard",
                        float(by_id[parent_id].arrival_time),
                        request_id=parent_id,
                        shards=list(shard_ids),
                        batch_size=by_id[parent_id].batch_size,
                    )
        try:
            coordinator = _Coordinator(self, registry, recorder)
            node_reports, extra_jobs = coordinator.run(requests)
        finally:
            if owned is not None:
                owned.close()
        return ClusterReport.merge(
            node_reports,
            extra_jobs,
            node_reports=node_reports,
            node_names=list(self.node_names),
            router_name=self.router.name,
            cluster_name=self.name,
            extra_jobs=extra_jobs,
            shard_groups=shard_groups,
            metrics=registry.snapshot(),
            **{name: counter.value for name, counter in counters.items()},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingCluster({self.name!r}, nodes={self.node_names}, "
            f"router={self.router.name!r})"
        )



def serve(
    network_or_result,
    cluster_spec: Union[ClusterSpec, Mapping[str, Any]],
    requests: Optional[Sequence[Request]] = None,
) -> ClusterReport:
    """Serve a workload on a declaratively specified fleet — the front door.

    ``network_or_result`` is a trained
    :class:`~repro.core.network.SteppingNetwork` or the
    :class:`~repro.core.api.SteppingNetResult` of the design flow (or
    ``None`` to instantiate the spec's declarative model);
    ``cluster_spec`` a :class:`~repro.serving.spec.ClusterSpec` or its
    dict form.  When ``requests`` is omitted the spec's streams are
    built and merged.

    >>> report = serve(result, ClusterSpec.from_json("fleet.json"))
    >>> report.throughput, report.p95_latency
    """
    cluster = ServingCluster.from_spec(cluster_spec, network_or_result)
    return cluster.serve(requests)
