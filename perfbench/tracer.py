"""Span tracer that wraps the program's public entry points at run time.

The benchmark measures layers from the outside: :func:`install` replaces
each listed public method with a wrapper that records one span per call
(name, start, end, parent span, request id or call details) and restores
the originals on :meth:`Tracer.uninstall`.  Spans stay in memory as
tuples and are written out once, when the run ends.

A layer's self time is its span time minus the time its direct child
spans cover, so the self times of every span under one root add up to the
root's duration exactly.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

# (span id, name, start ns, end ns, parent span id or -1, request id, info)
Span = Tuple[int, str, int, int, int, Optional[int], Any]


def _request_arg(args, kwargs) -> Optional[int]:
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "request_id", None)


def _job_arg(args, kwargs) -> Optional[int]:
    job = args[1] if len(args) > 1 else kwargs.get("job")
    return getattr(getattr(job, "request", None), "request_id", None)


def _emit_request(args, kwargs) -> Optional[int]:
    return kwargs.get("request_id")


def _execute_info(args, kwargs):
    # NetworkPlan.execute(self, inputs, cache, aux, logits, from_subnet, to_subnet)
    names = ("inputs", "cache", "aux", "logits", "from_subnet", "to_subnet")
    bound = dict(zip(names, args[1:]), **kwargs)
    return (int(bound["from_subnet"]), int(bound["to_subnet"]), int(bound["inputs"].shape[0]))


def _execute_batch_info(args, kwargs):
    # NetworkPlan.execute_batch(self, members, from_subnet, to_subnet)
    names = ("members", "from_subnet", "to_subnet")
    bound = dict(zip(names, args[1:]), **kwargs)
    members = bound["members"]
    samples = sum(int(member.inputs.shape[0]) for member in members)
    return (int(bound["from_subnet"]), int(bound["to_subnet"]), len(members), samples)


class Tracer:
    """Collects spans from wrapped methods; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0
        self._patched: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrapper(self, original, name, request_id=None, info=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                # A subclass delegating to ``super()``: one logical call.
                return original(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            rid = request_id(args, kwargs) if request_id is not None else None
            extra = info(args, kwargs) if info is not None else None
            stack.append((span_id, name))
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, rid, extra))

        return wrapper

    def wrap(
        self,
        cls: type,
        attr: str,
        name: str,
        request_id: Optional[Callable] = None,
        info: Optional[Callable] = None,
    ) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(original.__func__, name, request_id, info))
        else:
            replacement = self._wrapper(original, name, request_id, info)
        setattr(cls, attr, replacement)
        self._patched.append((cls, attr, original))

    def wrap_all(self, base: type, attr: str, name: str, **hooks) -> None:
        """Wrap ``attr`` wherever ``base`` or a subclass resolves it (mixins too)."""
        classes, pending = set(), [base]
        while pending:
            cls = pending.pop()
            if cls not in classes:
                classes.add(cls)
                pending.extend(cls.__subclasses__())
        owners = {klass for cls in classes for klass in cls.__mro__ if attr in klass.__dict__}
        for owner in sorted(owners, key=lambda klass: klass.__qualname__):
            self.wrap(owner, attr, name, **hooks)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, int]:
        """Span id -> self time in ns (duration minus direct children)."""
        covered: Dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return {
            span_id: (end - start) - covered[span_id]
            for span_id, _, start, end, _, _, _ in self.spans
        }

    def roots(self) -> Dict[int, int]:
        """Span id -> id of its outermost ancestor."""
        parent_of = {span[0]: span[4] for span in self.spans}
        root_of: Dict[int, int] = {}
        for span_id in parent_of:
            chain = []
            node = span_id
            while node not in root_of and parent_of.get(node, -1) >= 0:
                chain.append(node)
                node = parent_of[node]
            root = root_of.get(node, node)
            root_of[node] = root
            for member in chain:
                root_of[member] = root
        return root_of

    def write(self, path) -> None:
        """Write every span as gzipped JSON (columns, names interned)."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "columns": ["id", "name", "start_ns", "end_ns", "parent", "request_id", "info"],
            "spans": [
                [sid, index[name], start, end, parent, rid, extra]
                for sid, name, start, end, parent, rid, extra in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every measured module."""
    from repro.core.incremental import IncrementalInference
    from repro.core.plan import NetworkPlan
    from repro.runtime.policies import SteppingPolicy
    from repro.serving.backend import ExecutionBackend, ExecutionSession
    from repro.serving.batching import BatchPolicy
    from repro.serving.cluster import Router, ServingCluster
    from repro.serving.engine import ServingRun
    from repro.serving.memory import MemoryBudget
    from repro.serving.observe import TraceRecorder
    from repro.serving.scheduler import Scheduler
    from repro.serving.spec import ClusterSpec

    # Importing rebalance registers its router subclass before wrap_all walks.
    import repro.serving.rebalance  # noqa: F401

    tracer.wrap(ServingCluster, "serve", "cluster.serve")
    tracer.wrap_all(Router, "route", "cluster.route", request_id=_request_arg)
    tracer.wrap(ServingRun, "push", "engine.push", request_id=_request_arg)
    tracer.wrap(ServingRun, "run_until", "engine.run_until")
    tracer.wrap(ServingRun, "finish", "engine.finish")
    tracer.wrap_all(SteppingPolicy, "decide", "policy.decide")
    tracer.wrap_all(Scheduler, "pick", "scheduler.pick")
    tracer.wrap_all(Scheduler, "add", "scheduler.add", request_id=_job_arg)
    tracer.wrap_all(BatchPolicy, "form", "batching.form")
    tracer.wrap(MemoryBudget, "enforce", "memory.enforce")
    tracer.wrap_all(ExecutionSession, "advance", "backend.advance")
    tracer.wrap_all(ExecutionBackend, "advance_group", "backend.advance_group")
    tracer.wrap(NetworkPlan, "execute", "plan.execute", info=_execute_info)
    tracer.wrap(NetworkPlan, "execute_batch", "plan.execute_batch", info=_execute_batch_info)
    tracer.wrap(NetworkPlan, "__init__", "setup.plan_compile")
    tracer.wrap(IncrementalInference, "run", "incremental.run")
    tracer.wrap(IncrementalInference, "step_up", "incremental.step_up")
    tracer.wrap(TraceRecorder, "emit", "observe.emit", request_id=_emit_request)
    tracer.wrap(ClusterSpec, "build_network", "setup.build_network")
    tracer.wrap(ServingCluster, "from_spec", "setup.from_spec")
    return tracer
