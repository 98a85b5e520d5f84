"""Execute single-chunk repairs on the fluid network simulator.

One attempt loop (:func:`repair_single_chunk`) runs every single-chunk
repair.  Each attempt plans over the helpers' current bandwidth, submits
the plan's flows, and drives the simulator until the attempt completes
or fails.  A failed attempt re-plans over the survivors for the slices
not yet delivered.  ``faults`` selects one of two contracts:

* ``faults=None`` — the fault-free contract: exactly one attempt, no
  stall timeout and never a :class:`~repro.repair.metrics.RepairFailed`;
  planner and simulator exceptions propagate to the caller.  Staged
  plans (PPR, conventional) run only here.
* a :class:`~repro.faults.plan.FaultPlan` — the fault-aware contract:
  helpers can crash, stall or lose their chunk mid-transfer.  The loop
  detects the failure (after the policy's timeout), cancels the flow,
  re-plans over the survivors and retries with backoff until the repair
  completes or cleanly aborts with a ``RepairFailed`` result.  Pipelined
  plans only; on an empty plan every fault check is a no-op.

:func:`execute_plan` runs one attempt of a precomputed plan through the
same loop, and :func:`repair_single_chunk_faulted` is a compatibility
name for ``repair_single_chunk(..., faults=...)``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import RepairPlan, RepairPlanner
from repro.exceptions import PlanningError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.network.simulator import FluidSimulator, TaskHandle
from repro.network.topology import StarNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.repair.metrics import RepairFailed, RepairResult
from repro.repair.pipeline import (
    ExecutionConfig,
    pipeline_overhead_seconds,
    remaining_bytes_per_edge,
    verified_watermark,
)
from repro.repair.telemetry import registry_from_run
from repro.resilience.health import HealthMonitor, HealthPolicy

logger = logging.getLogger(__name__)

#: The fault-free contract's plan and policy: every fault check on the
#: empty plan is a no-op, and the policy is never consulted.
_NO_FAULTS = FaultPlan.none()
_DEFAULT_POLICY = RetryPolicy()


def repair_single_chunk(
    planner: RepairPlanner,
    network,
    requestor: int,
    candidates: Sequence[int],
    k: int,
    start_time: float = 0.0,
    config: ExecutionConfig | None = None,
    tracer=NULL_TRACER,
    foreground=None,
    governor=None,
    sampler=None,
    faults: FaultPlan | None = None,
    policy: RetryPolicy | None = None,
    journal=None,
    health: HealthPolicy | None = None,
) -> RepairResult | RepairFailed:
    """Plan and execute one single-chunk repair, starting at ``start_time``.

    Each attempt plans from a bandwidth snapshot taken at its start.
    Pipelined plans become one coupled task (every tree edge at a common
    rate); staged plans run their rounds back-to-back, each round a set
    of independent whole-chunk flows.  With a live ``tracer`` the
    simulator emits flow events under one ``repair.task`` span; the
    result always carries a ``telemetry`` snapshot.

    ``foreground`` (a :class:`~repro.loadgen.ForegroundEngine`) runs
    client flows on the same simulator and ``governor`` (a
    :class:`~repro.loadgen.RepairQoSGovernor`) throttles the repair at
    its decision interval; both need pipelined plans.  ``sampler`` (a
    :class:`~repro.obs.FlightRecorder`) records aligned utilization
    time series.

    ``faults`` and ``policy`` select the fault-aware contract (see the
    module docstring): ``attempts`` > 1 after re-plans, and
    ``bytes_transferred`` counts the bytes of cancelled attempts exactly
    once.  Resilience, both default off:

    * ``journal`` — a :class:`~repro.resilience.RepairJournal`.  Slice
      progress is checkpointed per attempt and a re-plan resumes from
      the last verified slice; ``result.segments`` records which plan
      carried which slice range, for
      :meth:`~repro.cluster.Cluster.rebuild_slice_range`.  ``health``
      alone also enables resume, without durability.
    * ``health`` — a :class:`~repro.resilience.HealthPolicy`.  Enables
      the gray-failure detector and hedged re-planning (see
      :meth:`_SingleChunkRepair.drive`); ``result.hedges`` counts the
      hedges launched.
    """
    return _SingleChunkRepair(
        planner, network, requestor, candidates, k, start_time,
        config or ExecutionConfig(), tracer, foreground, governor, sampler,
        faults, policy or _DEFAULT_POLICY, journal, health,
    ).run()


def execute_plan(
    plan: RepairPlan,
    network: StarNetwork,
    start_time: float = 0.0,
    config: ExecutionConfig | None = None,
    tracer=NULL_TRACER,
    foreground=None,
    governor=None,
    sampler=None,
) -> RepairResult:
    """Run a precomputed plan as one fault-free attempt and time it."""
    return repair_single_chunk(
        _GivenPlan(plan), network, plan.requestor, plan.helpers,
        len(plan.helpers), start_time=start_time, config=config,
        tracer=tracer, foreground=foreground, governor=governor,
        sampler=sampler,
    )


def repair_single_chunk_faulted(
    planner, network, requestor, candidates, k, faults, policy=None,
    **options,
) -> RepairResult | RepairFailed:
    """Compatibility name for ``repair_single_chunk(..., faults=...)``."""
    return repair_single_chunk(
        planner, network, requestor, candidates, k, faults=faults,
        policy=policy, **options,
    )


class _GivenPlan:
    """Planner stand-in that hands every attempt one precomputed plan."""

    def __init__(self, plan: RepairPlan):
        self.name = plan.scheme
        self._plan = plan

    def plan(self, snapshot, requestor, candidates, k) -> RepairPlan:
        return self._plan

    def traced(self, tracer):
        return nullcontext(self)


def _apply_governor(
    governor, foreground, sim: FluidSimulator, handles, registry, tracer
) -> float | None:
    """Consult the governor; retune every in-flight repair pipeline.

    The one governor step of every repair loop — single chunk, full
    node and the control plane.  Returns the per-flow cap so newly
    submitted repairs start throttled too.  The ``repair_rate_cap``
    gauge and the traced ``governor.decision`` report -1 for "uncapped"
    (inf is not JSON-serialisable).
    """
    if governor is None:
        return None
    cap = governor.repair_rate_cap(sim.now, foreground)
    if sim.sampler is not None:
        sim.sampler.note_governor_cap(cap)
    handles = list(handles)
    for handle in handles:
        sim.set_task_max_rate(handle, cap)
    registry.gauge("repair_rate_cap").set(-1.0 if cap is None else cap)
    if tracer.enabled:
        tracer.instant(
            "governor.decision", t=sim.now, track="governor",
            policy=governor.name, cap=-1.0 if cap is None else cap,
            in_flight=len(handles),
        )
    return cap


def _run_staged(
    plan: RepairPlan,
    sim: FluidSimulator,
    config: ExecutionConfig,
    task_span: int | None = None,
) -> None:
    """Run a staged plan's rounds back-to-back to completion."""
    assert plan.stages is not None
    previous: tuple[int, ...] = ()
    for stage in plan.stages:
        handle = sim.submit_bulk(
            [(src, dst, float(config.chunk_size)) for src, dst in stage],
            label=plan.scheme,
            parent_id=task_span,
            links=previous,
        )
        span = sim.task_span(handle)
        previous = (span,) if span is not None else ()
        sim.run()
        if not handle.done:
            raise PlanningError(f"stage of {plan.scheme} never completed")


@dataclass
class _Failure:
    """Why a running attempt stopped making progress."""

    kind: str  # "crash" | "readerr" | "stall" | "stuck"
    nodes: list[int]
    time: float


@dataclass
class _Hedge:
    """A speculative alternate flow racing a straggling primary."""

    handle: TaskHandle
    plan: RepairPlan
    #: First slice the hedge fetches (the primary's verified watermark at
    #: launch time); the primary covers slices below it.
    start_slice: int
    tree_nodes: frozenset[int]
    #: Trace span of the hedge flow (None when untraced).
    span: int | None = None


class _SingleChunkRepair:
    """The attempt loop of one single-chunk repair and the state it shares.

    Owns the simulator, the ``repair.task`` span, the metrics registry
    and the journal stream; :meth:`run` plans, submits and drives
    attempts until one completes (or, under a fault plan, the repair
    cleanly fails).
    """

    def __init__(
        self, planner, network, requestor, candidates, k, start_time,
        config, tracer, foreground, governor, sampler, faults, policy,
        journal, health,
    ):
        self.planner = planner
        self.requestor = requestor
        self.candidates = list(candidates)
        self.k = k
        self.start_time = start_time
        self.config = config
        self.tracer = tracer
        self.foreground = foreground
        self.governor = governor
        #: Fault-aware contract (retries, stall timeout, RepairFailed).
        self.faulted = faults is not None
        self.faults = faults if faults is not None else _NO_FAULTS
        self.policy = policy
        self.journal = journal
        self.health = health
        self.net = FaultyNetwork.wrap(network, self.faults)
        self.sim = FluidSimulator(
            self.net, start_time=start_time, tracer=tracer,
            sampler=sampler, engine=config.engine,
        )
        if foreground is not None:
            foreground.bind(self.sim, self.net)
        self.registry = MetricsRegistry()
        self.track = f"repair:{requestor}"
        #: The repair's root causal span: every flow, fill and planning
        #: event of this repair hangs off it, and its duration is the
        #: makespan repro.obs.critpath reconstructs exactly.
        self.span: int | None = None
        self.attempts = 0
        self.hedges = 0

    # ------------------------------------------------------------------
    # The attempt loop
    # ------------------------------------------------------------------
    def run(self) -> RepairResult | RepairFailed:
        tracer, sim, faults = self.tracer, self.sim, self.faults
        requestor, k, config = self.requestor, self.k, self.config
        if tracer.enabled:
            self.span = tracer.begin(
                "repair.task", t=self.start_time, track=self.track,
                scheme=self.planner.name, requestor=requestor,
            )
        injector = (
            FaultInjector(faults, tracer=tracer, registry=self.registry)
            if faults else None
        )
        planning_total = 0.0
        resilient = self.journal is not None or self.health is not None
        watermark = 0
        last_flow_span: int | None = None
        segments: list[tuple[RepairPlan, int]] = []
        if self.journal is not None:
            self.journal.append(
                "task_start", t=self.start_time, requestor=requestor,
                candidates=sorted(self.candidates), k=k,
                scheme=self.planner.name,
            )
        with self.planner.traced(tracer):
            while True:
                now = sim.now
                usable = self.candidates
                if faults:
                    injector.announce_until(now)
                    usable, reason = self._usable_helpers(now)
                    if reason:
                        return self._failed(reason)
                snapshot = BandwidthSnapshot.from_network(self.net, now)
                try:
                    # Scoped so the planner.plan instant inherits the
                    # repair span as its causal parent.
                    with tracer.scope(self.span):
                        plan = self.planner.plan(
                            snapshot, requestor, usable, k
                        )
                except PlanningError as error:
                    if not self.faulted:
                        raise
                    return self._failed(f"planning failed: {error}")
                planning_total += plan.effective_planning_seconds
                if self.attempts > 0:
                    self.registry.counter("replans").inc()
                    if tracer.enabled:
                        tracer.instant(
                            "repair.replan", t=now, track="executor",
                            parent_id=self.span,
                            attempt=self.attempts + 1, scheme=plan.scheme,
                            helpers=sorted(plan.helpers), bmin=plan.bmin,
                        )
                self.attempts += 1
                if not plan.is_pipelined:
                    if (self.faulted or self.foreground is not None
                            or self.governor is not None):
                        raise PlanningError(
                            f"staged {plan.scheme} plans run only without "
                            "faults, foreground load or a governor"
                        )
                    _run_staged(plan, sim, config, task_span=self.span)
                    return self._succeeded(
                        plan, planning_total, sim.now - self.start_time,
                        segments, flow_span=None,
                    )
                tree = plan.tree
                handle = sim.submit_pipelined(
                    tree.edges(),
                    remaining_bytes_per_edge(config, tree.depth(), watermark),
                    label=f"{plan.scheme}-a{self.attempts}",
                    parent_id=self.span,
                    # A retried / journal-resumed attempt follows from the
                    # flow it replaces.
                    links=(last_flow_span,) if last_flow_span is not None
                    else (),
                    meta={
                        "bmin": plan.bmin, "attempt": self.attempts,
                        "start_slice": watermark,
                    } if self.span is not None else None,
                )
                last_flow_span = sim.task_span(handle)
                tree_nodes = {tree.root, *tree.helpers}
                if self.journal is not None:
                    self.journal.append(
                        "attempt", t=now, attempt=self.attempts,
                        scheme=plan.scheme, helpers=sorted(plan.helpers),
                        watermark=watermark, bmin=plan.bmin,
                    )
                monitor = (
                    HealthMonitor(
                        self.health, sim, handle, plan, snapshot, tree_nodes
                    )
                    if self.health is not None
                    and self.hedges < self.health.max_hedges
                    else None
                )
                failure, adopted, launched = self.drive(
                    handle, plan, tree_nodes, monitor, usable, watermark
                )
                self.hedges += launched
                if faults:
                    injector.announce_until(sim.now)
                if failure is None:
                    flow_span = last_flow_span
                    if adopted is not None:
                        if adopted.start_slice > watermark:
                            segments.append((plan, watermark))
                        segments.append((adopted.plan, adopted.start_slice))
                        planning_total += (
                            adopted.plan.effective_planning_seconds
                        )
                        plan = adopted.plan
                        flow_span = adopted.span
                    elif resilient:
                        segments.append((plan, watermark))
                    return self._succeeded(
                        plan, planning_total,
                        sim.now - self.start_time
                        + pipeline_overhead_seconds(config),
                        segments, flow_span=flow_span,
                    )
                # Detection latency: the failure is noticed one timeout
                # after it happened (or immediately for a stall, whose
                # detection already waited the timeout inside the drive
                # loop).
                if failure.kind in ("crash", "readerr"):
                    detected = failure.time + self.policy.detection_timeout
                    sim.advance_to(max(sim.now, detected))
                self.registry.counter("fault_detections").inc()
                if tracer.enabled:
                    tracer.instant(
                        "repair.detect", t=sim.now, track="executor",
                        parent_id=self.span,
                        kind=failure.kind, nodes=failure.nodes,
                        attempt=self.attempts,
                    )
                if resilient:
                    # Advance the slice watermark past what this attempt
                    # verifiably delivered; the next attempt resumes
                    # there.  A read error yields garbage bytes for the
                    # attempt's whole range, so it contributes nothing
                    # (earlier attempts' verified segments stay good).
                    if failure.kind != "readerr" and not handle.done:
                        verified = verified_watermark(
                            config, tree.depth(), watermark,
                            sim.task_progress(handle),
                        )
                        if verified > watermark:
                            segments.append((plan, watermark))
                            watermark = verified
                    if self.journal is not None:
                        self.journal.append(
                            "attempt_failed", t=sim.now,
                            attempt=self.attempts, failure=failure.kind,
                            watermark=watermark,
                            bytes_transferred=sim.total_bytes_transferred,
                        )
                # A read error leaves link capacity intact, so the doomed
                # flow may have "completed" (delivering garbage) inside
                # the detection window — there is nothing left to cancel
                # then, but the attempt still failed and must be
                # re-planned.
                if not handle.done:
                    sim.cancel_task(handle)
                    self.registry.counter("flows_cancelled").inc()
                if self.attempts > self.policy.max_retries:
                    return self._failed(
                        f"retry budget exhausted after {self.attempts} "
                        f"attempts (last failure: {failure.kind})"
                    )
                self._back_off()

    def _usable_helpers(self, now: float) -> tuple[list[int], str]:
        """Helpers to plan over now, or why the repair cannot continue."""
        faults = self.faults
        if faults.is_dead(self.requestor, now):
            return [], f"requestor {self.requestor} crashed"
        alive = [
            node for node in self.candidates
            if not faults.is_dead(node, now)
            and not faults.chunk_unreadable(node, now)
        ]
        if len(alive) < self.k:
            return [], (
                f"only {len(alive)} of {len(self.candidates)} helpers "
                f"survive, need k={self.k}"
            )
        # Prefer helpers that are not frozen right now, when enough
        # healthy ones remain — a plan through a stalled node would only
        # stall again.
        stalled = faults.stalled_nodes(now)
        usable = [node for node in alive if node not in stalled]
        return (usable if len(usable) >= self.k else alive), ""

    def _back_off(self) -> None:
        """Wait out the policy's backoff before the next attempt."""
        sim, tracer = self.sim, self.tracer
        backoff = self.policy.backoff(self.attempts - 1)
        self.registry.counter("retries").inc()
        if tracer.enabled:
            tracer.instant(
                "repair.retry", t=sim.now, track="executor",
                parent_id=self.span, attempt=self.attempts, backoff=backoff,
            )
            if backoff > 0:
                # Explicit backoff span so the wait shows up as stall
                # time on the repair's critical path.
                backoff_span = tracer.begin(
                    "repair.backoff", t=sim.now, track=self.track,
                    parent_id=self.span, attempt=self.attempts,
                    seconds=backoff,
                )
                tracer.end(
                    "repair.backoff", t=sim.now + backoff,
                    span_id=backoff_span, track=self.track,
                )
        if backoff > 0:
            sim.advance_to(sim.now + backoff)

    def _succeeded(
        self,
        plan: RepairPlan,
        planning_seconds: float,
        transfer: float,
        segments: list,
        flow_span: int | None,
    ) -> RepairResult:
        sim, tracer, registry = self.sim, self.tracer, self.registry
        if tracer.enabled:
            overhead = pipeline_overhead_seconds(self.config)
            if plan.is_pipelined and overhead > 0:
                # The fluid flow models the steady stream; the first-slice
                # fill and per-slice handling are charged after it.  An
                # explicit span following from the flow lets the critical
                # path attribute that tail as pipeline dependency time
                # rather than an anonymous gap.
                fill = tracer.begin(
                    "repair.fill", t=sim.now, track=self.track,
                    parent_id=self.span, overhead=overhead,
                    links=(flow_span,) if flow_span is not None else (),
                )
                tracer.end(
                    "repair.fill", t=sim.now + overhead, span_id=fill,
                    track=self.track,
                )
            # Only simulated-time-derived fields here: wall-clock planning
            # seconds would break byte-determinism of the default stream.
            tracer.end(
                "repair.task", t=self.start_time + transfer,
                span_id=self.span, track=self.track,
                transfer_seconds=transfer,
                attempts=self.attempts, hedges=self.hedges,
            )
        if (
            plan.is_pipelined and self.attempts == 1 and self.hedges == 0
            and plan.bmin > 0 and transfer > 0
        ):
            # Achieved pipeline rate over the planner's promised
            # bottleneck: ~1.0 when the plan held, < 1 when congestion
            # moved against it.  Only one uninterrupted pipeline has a
            # single promise to measure against.
            bytes_per_edge = sim.total_bytes_transferred / max(
                len(plan.tree.edges()), 1
            )
            registry.gauge("bottleneck_utilization").set(
                bytes_per_edge / transfer / plan.bmin
            )
        registry.gauge("planner_seconds").set(planning_seconds)
        registry.histogram("task_seconds").observe(transfer)
        if self.journal is not None:
            self.journal.append(
                "task_done", t=sim.now, scheme=plan.scheme,
                attempts=self.attempts, hedges=self.hedges,
            )
        logger.info(
            "%s repair: transfer %.3fs, %.0f bytes over %d links, "
            "%d attempt(s)",
            plan.scheme, transfer, sim.total_bytes_transferred,
            len(sim.bytes_up), self.attempts,
        )
        return RepairResult(
            scheme=plan.scheme,
            planning_seconds=planning_seconds,
            transfer_seconds=transfer,
            bmin=plan.bmin,
            plan=plan,
            bytes_transferred=sim.total_bytes_transferred,
            telemetry=registry_from_run(sim, tracer, registry).snapshot(),
            attempts=self.attempts,
            segments=segments,
            hedges=self.hedges,
        )

    def _failed(self, reason: str) -> RepairFailed:
        sim, tracer = self.sim, self.tracer
        self.registry.counter("repairs_failed").inc()
        if tracer.enabled:
            tracer.instant(
                "repair.failed", t=sim.now, track="executor",
                parent_id=self.span, scheme=self.planner.name,
                reason=reason, attempts=self.attempts,
            )
            tracer.end(
                "repair.task", t=sim.now, span_id=self.span,
                track=self.track, failed=True, attempts=self.attempts,
            )
        logger.warning(
            "repair failed after %d attempts: %s", self.attempts, reason
        )
        return RepairFailed(
            scheme=self.planner.name,
            reason=reason,
            elapsed_seconds=sim.now - self.start_time,
            attempts=self.attempts,
            bytes_transferred=sim.total_bytes_transferred,
            telemetry=registry_from_run(
                sim, tracer, self.registry
            ).snapshot(),
        )

    # ------------------------------------------------------------------
    # Driving one attempt
    # ------------------------------------------------------------------
    def drive(
        self,
        handle: TaskHandle,
        plan: RepairPlan,
        tree_nodes: set[int],
        monitor: HealthMonitor | None,
        usable: Sequence[int],
        watermark: int,
    ) -> tuple[_Failure | None, _Hedge | None, int]:
        """Advance the simulation until ``handle`` finishes or fails.

        Every clock movement goes through the foreground engine when one
        is attached, and the governor retunes the attempt's flows at its
        decision interval.  Under a fault plan, failure means: a tree
        node died or lost its chunk, or the task's rate sat at zero for
        ``detection_timeout`` (stalled helper, collapsed link).  The loop
        bounds every advance by the next fault event so a crash can never
        strand the fluid model in a zero-rate stuck state.

        With a ``monitor`` the attempt also hedges gray failures: while
        the primary flow runs, ``monitor`` checks its relative progress
        on the simulated-time grid.  On a straggler verdict a *hedge* —
        an alternate tree over the non-culprit survivors, fetching only
        the remaining slice range — is submitted under the ``hedge``
        traffic class and raced against the primary; whichever finishes
        first wins, the loser is cancelled (its bytes stay accounted in
        the ``hedge`` bucket).  With ``monitor=None`` no hedge ever
        launches.  Returns ``(failure, adopted_hedge, hedges_launched)``;
        ``failure`` is ``None`` on completion.
        """
        sim, faults, tracer = self.sim, self.faults, self.tracer
        registry, journal, task_span = self.registry, self.journal, self.span
        foreground, governor = self.foreground, self.governor
        config, requestor, k = self.config, self.requestor, self.k
        stalled_since: float | None = None
        hedge: _Hedge | None = None
        launched = 0

        def drop_hedge(reason: str) -> None:
            nonlocal hedge
            if hedge is None or hedge.handle.done:
                hedge = None
                return
            remaining = sim.cancel_task(hedge.handle)
            registry.counter("hedges_cancelled").inc()
            registry.counter("hedge_events", kind="cancel").inc()
            if tracer.enabled:
                tracer.instant(
                    "hedge.cancel", t=sim.now, track="executor",
                    parent_id=task_span,
                    task=handle.task_id, hedge_task=hedge.handle.task_id,
                    reason=reason, bytes_remaining=remaining,
                )
            if journal is not None:
                journal.append(
                    "hedge_cancel", t=sim.now, task=handle.task_id,
                    hedge_task=hedge.handle.task_id, reason=reason,
                )
            hedge = None

        def launch_hedge(verdict) -> _Hedge | None:
            culprits = set(verdict.nodes)
            alternates = [n for n in usable if n not in culprits]
            if requestor in culprits or len(alternates) < k:
                return None
            snapshot = BandwidthSnapshot.from_network(self.net, sim.now)
            try:
                hedge_plan = self.planner.plan(
                    snapshot, requestor, alternates, k
                )
            except PlanningError:
                return None
            start_slice = verified_watermark(
                config, plan.tree.depth(), watermark,
                sim.task_progress(handle),
            )
            hedge_tree = hedge_plan.tree
            primary_span = sim.task_span(handle)
            hedge_handle = sim.submit_pipelined(
                hedge_tree.edges(),
                remaining_bytes_per_edge(
                    config, hedge_tree.depth(), start_slice
                ),
                label=f"{hedge_plan.scheme}-h{self.attempts}",
                kind="hedge",
                parent_id=task_span,
                # The hedge races the primary it follows from.
                links=(primary_span,) if primary_span is not None else (),
                meta={
                    "bmin": hedge_plan.bmin, "start_slice": start_slice,
                    "hedge_of": handle.task_id,
                } if task_span is not None else None,
            )
            registry.counter("hedges_launched").inc()
            registry.counter("hedge_events", kind="launch").inc()
            if tracer.enabled:
                tracer.instant(
                    "hedge.launch", t=sim.now, track="executor",
                    parent_id=task_span,
                    task=handle.task_id, hedge_task=hedge_handle.task_id,
                    start_slice=start_slice,
                    helpers=sorted(hedge_plan.helpers),
                    excluded=sorted(culprits),
                )
            if journal is not None:
                journal.append(
                    "hedge_launch", t=sim.now, task=handle.task_id,
                    hedge_task=hedge_handle.task_id, start_slice=start_slice,
                )
            return _Hedge(
                handle=hedge_handle,
                plan=hedge_plan,
                start_slice=start_slice,
                tree_nodes=frozenset({hedge_tree.root, *hedge_tree.helpers}),
                span=sim.task_span(hedge_handle),
            )

        while True:
            if handle.done:
                drop_hedge("primary_won")
                return None, None, launched
            if hedge is not None and hedge.handle.done:
                adopted = hedge
                sim.cancel_task(handle)
                registry.counter("flows_cancelled").inc()
                registry.counter("hedges_adopted").inc()
                registry.counter("hedge_events", kind="adopt").inc()
                if tracer.enabled:
                    tracer.instant(
                        "hedge.adopt", t=sim.now, track="executor",
                        parent_id=task_span,
                        task=handle.task_id,
                        hedge_task=adopted.handle.task_id,
                        start_slice=adopted.start_slice,
                    )
                    if adopted.span is not None and task_span is not None:
                        # Late causal edge: the repair's completion now
                        # follows from the adopted hedge, not the primary.
                        tracer.link(
                            adopted.span, task_span, t=sim.now,
                            track="executor", reason="hedge_adopt",
                        )
                if journal is not None:
                    journal.append(
                        "hedge_adopt", t=sim.now, task=handle.task_id,
                        hedge_task=adopted.handle.task_id,
                        start_slice=adopted.start_slice,
                    )
                return None, adopted, launched
            now = sim.now
            bound = math.inf
            if faults:
                dead = sorted(n for n in tree_nodes if faults.is_dead(n, now))
                bad = sorted(
                    n for n in tree_nodes
                    if faults.chunk_unreadable(n, now) and n not in dead
                )
                if hedge is not None and not (dead or bad):
                    # A fault touching only the hedge tree drops the
                    # hedge and lets the primary keep racing alone.
                    hedge_hit = any(
                        faults.is_dead(n, now)
                        or faults.chunk_unreadable(n, now)
                        for n in hedge.tree_nodes
                    )
                    if hedge_hit:
                        drop_hedge("fault")
                if dead or bad:
                    drop_hedge("primary_fault")
                    kind = "crash" if dead else "readerr"
                    return _Failure(kind=kind, nodes=dead + bad, time=now), \
                        None, launched
                watched = (
                    tree_nodes | hedge.tree_nodes if hedge is not None
                    else tree_nodes
                )
                bound = min(
                    faults.next_failure_affecting(watched, now),
                    faults.next_change_after(now),
                )
            if self.faulted:
                rate = sim.current_rate(handle)
                if hedge is not None:
                    rate += sim.current_rate(hedge.handle)
                if rate <= 1e-12:
                    if stalled_since is None:
                        stalled_since = now
                    deadline = stalled_since + self.policy.detection_timeout
                    if now >= deadline:
                        culprits = sorted(
                            n for n in tree_nodes
                            if faults.capacity_factor(n, "up", now) == 0.0
                            or faults.capacity_factor(n, "down", now) == 0.0
                        )
                        drop_hedge("stall")
                        return _Failure(
                            kind="stall", nodes=culprits, time=now
                        ), None, launched
                    bound = min(bound, deadline)
                else:
                    stalled_since = None
            if monitor is not None and hedge is None:
                bound = min(bound, monitor.next_check)
            if governor is not None:
                handles = [handle] if hedge is None else [handle, hedge.handle]
                _apply_governor(
                    governor, foreground, sim, handles, registry, tracer
                )
                bound = min(bound, sim.now + governor.decision_interval)
            try:
                if foreground is None:
                    sim.run_until_completion(max_time=bound)
                else:
                    foreground.run_until_repair_event(max_time=bound)
            except SimulationError:
                if not self.faulted:
                    raise
                drop_hedge("stuck")
                return _Failure(kind="stuck", nodes=[], time=sim.now), None, \
                    launched
            if monitor is not None and hedge is None:
                verdict = monitor.observe(self.net)
                if verdict is not None:
                    registry.counter("stragglers").inc()
                    if tracer.enabled:
                        tracer.instant(
                            "health.straggler", t=sim.now, track="health",
                            parent_id=task_span,
                            task=handle.task_id, nodes=sorted(verdict.nodes),
                            since=verdict.since, observed=verdict.observed,
                            promised=verdict.promised,
                        )
                    if journal is not None:
                        journal.append(
                            "straggler", t=sim.now, task=handle.task_id,
                            nodes=sorted(verdict.nodes), since=verdict.since,
                        )
                    hedge = launch_hedge(verdict)
                    if hedge is not None:
                        launched += 1
