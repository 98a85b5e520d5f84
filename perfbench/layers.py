"""Per-layer host accounting for the traced benchmark run.

The traced run wraps the public entry points of each ``repro`` module
(see :data:`LAYERS`) and folds the nested calls into **self time**: a
call's duration minus the durations of the wrapped calls made inside
it.  The benchmark's own pass is the root frame, so its self time is
what no wrapped layer covered (``unattributed_self_s``), and the self
times of all frames sum to the traced measured phase exactly.

Wrappers are installed at every name a caller looks up — each module
global that is bound to the wrapped function, and the class attribute
for methods (on every subclass that defines its own) — and restored
afterwards, so untraced runs execute the program untouched.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

#: Name of the root frame: the benchmark's own self time.
ROOT = "unattributed"


class LayerClock:
    """Fold nested ``enter``/``exit`` pairs into per-layer self time.

    ``calls`` counts entries into a layer from outside it (a layer that
    calls itself, directly or through another wrapped method of the
    same layer, counts once).  ``durations`` keeps the inclusive
    per-call seconds of the layers named in ``record``.
    """

    def __init__(self, clock=time.perf_counter, record: tuple = ()):
        self._clock = clock
        self._stack: list[list] = []
        self._record = frozenset(record)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: layer -> {id(receiver): receiver} for layers tracking receivers.
        self.receivers: dict[str, dict] = defaultdict(dict)

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, name: str) -> None:
        stack = self._stack
        if not stack or stack[-1][0] != name:
            self.calls[name] += 1
        stack.append([name, self._clock(), 0.0])

    def exit(self) -> float:
        end = self._clock()
        name, start, children = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if name in self._record:
            self.durations[name].append(duration)
        return duration

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` as the root frame; return (result, seconds)."""
        if self._stack:
            raise RuntimeError("the root frame must be the outermost call")
        self.enter(ROOT)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = self.exit()
        return result, seconds

    def wrap(self, name: str, fn, track_receiver: bool = False):
        enter, exit_ = self.enter, self.exit
        if track_receiver:
            seen = self.receivers[name]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                seen[id(args[0])] = args[0]
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()

        return wrapper


@dataclass(frozen=True)
class Layer:
    """One row of the layer table: wrapped entry points and metric names.

    ``targets`` are ``"module:function"`` or ``"module:Class.method"``;
    a method target also covers each subclass's own override.
    """

    name: str
    time_metric: str
    calls_metric: str | None
    targets: tuple[str, ...]
    track_receiver: bool = False


def _methods(module: str, cls: str, *names: str) -> tuple[str, ...]:
    return tuple(f"{module}:{cls}.{name}" for name in names)


LAYERS: tuple[Layer, ...] = (
    Layer("traces.generate", "traces.generate_s", None,
          ("repro.traces.generators:generate_trace",)),
    Layer("loadgen.generate", "loadgen.generate_s", None,
          ("repro.loadgen.generator:generate_requests",)),
    Layer("loadgen.engine", "loadgen.engine_self_s", "loadgen.engine_calls",
          _methods("repro.loadgen.engine", "ForegroundEngine", "drive_to",
                   "run_until_repair_event", "pump", "absorb", "drain")),
    Layer("loadgen.governor", "loadgen.governor_s", "loadgen.governor_calls",
          _methods("repro.loadgen.governor", "RepairQoSGovernor",
                   "repair_rate_cap")),
    Layer("core.plan", "core.plan_self_s", "core.plan_calls",
          _methods("repro.core.plan", "RepairPlanner", "plan")),
    Layer("core.rank", "core.rank_s", "core.rank_calls",
          ("repro.core.scheduler:recommendation_value",)),
    Layer("network.loop", "network.loop_self_s", "network.loop_calls",
          _methods("repro.network.simulator", "FluidSimulator", "run",
                   "advance_to", "run_until_completion"),
          track_receiver=True),
    Layer("network.alloc", "network.alloc_self_s", "network.alloc_calls",
          _methods("repro.network.engine", "IncrementalEngine", "ensure")),
    Layer("network.alloc_small", "network.alloc_small_s",
          "network.alloc_small_calls",
          ("repro.network.fairness:max_min_allocate",)),
    Layer("network.alloc_vec", "network.alloc_vec_s", "network.alloc_vec_calls",
          ("repro.network.engine:waterfill",)),
    Layer("network.capacity", "network.capacity_s", "network.capacity_calls",
          _methods("repro.network.topology", "StarNetwork", "capacities_at",
                   "next_change_after")
          + _methods("repro.network.hierarchical", "RackNetwork",
                     "capacities_at", "next_change_after")
          + _methods("repro.faults.network", "FaultyNetwork",
                     "capacities_at", "next_change_after")),
    Layer("network.submit", "network.submit_s", "network.submit_calls",
          _methods("repro.network.simulator", "FluidSimulator",
                   "submit_pipelined", "submit_bulk"),
          track_receiver=True),
    Layer("repair.single", "repair.single_self_s", "repair.single_calls",
          ("repro.repair.executor:repair_single_chunk",)),
    Layer("repair.telemetry", "repair.telemetry_s", None,
          ("repro.repair.telemetry:registry_from_run",)),
    Layer("repair.fullnode", "repair.fullnode_self_s", None,
          ("repro.repair.fullnode:repair_full_node_adaptive",)),
    Layer("repair.master", "repair.master_self_s", "repair.master_calls",
          _methods("repro.repair.jobmaster", "StripeRepairMaster", "tick",
                   "candidate", "submit", "collect", "pause")),
    Layer("controlplane.run", "controlplane.run_self_s", None,
          _methods("repro.controlplane.plane", "ControlPlane", "run")),
    Layer("controlplane.admission", "controlplane.admission_s",
          "controlplane.admission_calls",
          _methods("repro.controlplane.admission", "AdmissionController",
                   "effective_priority", "record", "pick_admit", "pick_shed",
                   "pick_resume", "stream_tokens_free", "bytes_token_free",
                   "may_admit_job", "may_start_stream")),
    Layer("controlplane.backpressure", "controlplane.backpressure_s",
          "controlplane.backpressure_calls",
          _methods("repro.controlplane.backpressure", "BackpressureMonitor",
                   "saturation_breadth", "slo_firing", "overloaded",
                   "relieved")),
    Layer("resilience.journal_append", "resilience.journal_append_s",
          "resilience.journal_appends",
          _methods("repro.resilience.journal", "RepairJournal", "append")),
    Layer("resilience.journal_load", "resilience.journal_load_s", None,
          _methods("repro.resilience.journal", "RepairJournal", "load",
                   "watermark", "done_stripes")),
    Layer("obs.sampler", "obs.sampler_s", "obs.sampler_windows",
          _methods("repro.obs.sampler", "FlightRecorder", "on_window")),
    Layer("obs.tsdb", "obs.tsdb_s", None,
          _methods("repro.obs.timeseries", "TimeSeriesDB", "record", "inc")),
    Layer("obs.slo", "obs.slo_s", None,
          _methods("repro.obs.slo", "SLOMonitor", "on_tick", "evaluate")),
    Layer("obs.metrics", "obs.metrics_s", "obs.metrics_calls",
          _methods("repro.obs.metrics", "MetricsRegistry", "counter",
                   "histogram", "gauge")),
    Layer("lifetime.simulate", "lifetime.simulate_self_s",
          "lifetime.simulate_calls",
          ("repro.lifetime.simulate:simulate_lifetime",)),
    Layer("lifetime.sample", "lifetime.sample_s", "lifetime.sample_calls",
          _methods("repro.lifetime.durations", "DurationModel", "sample")),
    Layer("lifetime.schedule", "lifetime.schedule_s", None,
          _methods("repro.lifetime.failure", "FailureProcess", "schedule")),
)


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class Patches:
    """Swap attributes in place and put every original back on restore."""

    def __init__(self, root: Path):
        self._root = os.path.join(str(root), "")
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _local_modules(self) -> list:
        modules = []
        for module in list(sys.modules.values()):
            path = getattr(module, "__file__", None) or ""
            if path.startswith(self._root):
                modules.append(module)
        return modules

    def function(self, module_name: str, name: str, make) -> None:
        """Rebind ``module.name`` wherever a loaded local module holds it."""
        original = getattr(sys.modules[module_name], name)
        wrapper = make(original)
        for module in self._local_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def method(self, module_name: str, qualname: str, make) -> None:
        """Wrap ``Class.method`` and every subclass's own override."""
        class_name, name = qualname.split(".")
        base = getattr(sys.modules[module_name], class_name)
        for cls in _subclasses(base):
            raw = cls.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._set(cls, name, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(clock: LayerClock, root: Path, layers=LAYERS) -> Patches:
    """Wrap every layer's targets with ``clock``; returns the undo log."""
    patches = Patches(root)
    try:
        for layer in layers:
            for target in layer.targets:
                module_name, qualname = target.split(":")
                __import__(module_name)

                def make(fn, layer=layer):
                    return clock.wrap(layer.name, fn, layer.track_receiver)

                if "." in qualname:
                    patches.method(module_name, qualname, make)
                else:
                    patches.function(module_name, qualname, make)
    except BaseException:
        patches.restore()
        raise
    return patches
