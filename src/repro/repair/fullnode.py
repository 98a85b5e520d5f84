"""Full-node repair orchestration (Section IV-E, Experiment 6).

Repairs every lost chunk of a failed node.  Both public drivers run one
loop over a :class:`~repro.repair.jobmaster.StripeRepairMaster` — tick
faults, consult the governor, start stripes, run until a repair event,
collect, note progress — and differ only in their start rule:

* :func:`repair_full_node` — fixed-concurrency window: stripes are repaired
  in order, keeping ``concurrency`` single-chunk repairs in flight.  Used
  for RP, PPT, and PivotRepair without the adaptive strategy.
* :func:`repair_full_node_adaptive` — PivotRepair's adaptive scheduling:
  at every decision point the pending stripes are (re)planned under current
  bandwidths, ranked by recommendation value (Eq. 3), and started while the
  best value clears the threshold.

Each task's requestor is the node with the most available downlink among
nodes not holding a chunk of the stripe ("PivotRepair always selects the
node that has the most downlink bandwidth as the requestor"), so requestors
spread across the cluster.  Planning happens serially at the Master and its
wall-clock cost advances the simulated clock — this is what sinks PPT at
large k in Figure 7.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence

from repro.core.plan import RepairPlanner
from repro.core.scheduler import SchedulerConfig, recommendation_value
from repro.ec.stripe import Stripe
from repro.exceptions import ClusterError, PlanningError
from repro.faults.network import FaultyNetwork
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.obs.tracer import NULL_TRACER
from repro.repair.executor import _apply_governor
from repro.repair.jobmaster import StripeRepairMaster

# Re-exported: the requestor helpers stay importable from this module,
# and the fault driver stays patchable through it.
from repro.repair.jobmaster import (  # noqa: F401
    _FaultDriver,
    choose_requestor,
    residual_snapshot,
)
from repro.repair.metrics import FullNodeResult
from repro.repair.pipeline import ExecutionConfig
from repro.repair.telemetry import registry_from_run

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Foreground traffic and repair QoS (repro.loadgen)
# ----------------------------------------------------------------------
# The drivers accept an optional ForegroundEngine and RepairQoSGovernor.
# Every clock movement goes through the engine when one is attached, so
# client arrivals are injected at their due times and foreground
# completions never reach the repair collection path; with
# ``foreground=None`` and ``governor=None`` each hook collapses to the
# exact pre-loadgen call, keeping the repair-only path byte-identical
# (guarded by tests/loadgen/test_equivalence.py).

def _run_until_event(sim: FluidSimulator, foreground, max_time: float):
    """Run until a repair task completes (or ``max_time``)."""
    if foreground is None:
        return sim.run_until_completion(max_time=max_time)
    return foreground.run_until_repair_event(max_time=max_time)


def _note_progress(sim: FluidSimulator, completed: int, total: int) -> None:
    """Feed the repair-progress series of an attached telemetry TSDB.

    The ``repair_progress`` gauge (0..1) is what the repair-deadline SLO
    burns against and what ``repro top`` renders; it only exists when the
    run carries a flight recorder with a TSDB attached, so the plain
    paths pay one attribute check.
    """
    sampler = sim.sampler
    if sampler is None or getattr(sampler, "tsdb", None) is None:
        return
    fraction = completed / total if total else 1.0
    sampler.tsdb.record("repair_progress", sim.now, fraction)
    sampler.tsdb.record("repairs_completed", sim.now, completed)


def _event_bound(master: StripeRepairMaster, governor) -> float:
    """How far the simulator may free-run before the next decision point."""
    bound = master.driver.run_bound(master.in_flight)
    if governor is not None and math.isfinite(governor.decision_interval):
        bound = min(bound, master.sim.now + governor.decision_interval)
    return bound


def _master(
    planner: RepairPlanner,
    network: StarNetwork,
    stripes: Sequence[Stripe],
    failed_node: int,
    scheme: str,
    config: ExecutionConfig | None,
    start_time: float,
    tracer,
    faults: FaultPlan | None,
    retry_policy: RetryPolicy | None,
    foreground,
    sampler,
    journal,
) -> StripeRepairMaster:
    """A single-node master on its own simulator, foreground wired in."""
    config = config or ExecutionConfig()
    network = FaultyNetwork.wrap(network, faults)
    sim = FluidSimulator(
        network, start_time=start_time, tracer=tracer, sampler=sampler,
        engine=config.engine,
    )
    master = StripeRepairMaster(
        None, planner, network, stripes, failed_node, sim=sim,
        scheme=scheme, config=config, tracer=tracer, faults=faults,
        retry_policy=retry_policy, journal=journal,
    )
    if foreground is not None:
        foreground.bind(sim, network)
        master.driver.advance = foreground.drive_to
        master.on_chunk_repaired = foreground.note_repaired
    return master


def _drive(
    master: StripeRepairMaster,
    start: Callable[[StripeRepairMaster, float | None], None],
    foreground,
    governor,
) -> FullNodeResult:
    """Run ``master`` to completion; ``start`` is the stripe start rule."""
    sim, tracer = master.sim, master.tracer
    total_stripes = len(master.pending)
    _note_progress(sim, 0, total_stripes)
    with master.planner.traced(tracer):
        while not master.done:
            master.tick()
            cap = _apply_governor(
                governor, foreground, sim,
                (flight.handle for flight in master.in_flight.values()),
                master.registry, tracer,
            )
            start(master, cap)
            if not master.in_flight:
                continue
            finished = _run_until_event(
                sim, foreground, _event_bound(master, governor)
            )
            master.collect(finished)
            _note_progress(sim, len(master.results), total_stripes)
    result = master.build_result()
    result.telemetry = registry_from_run(
        sim, tracer, registry=master.registry
    ).snapshot()
    return result


def repair_full_node(
    planner: RepairPlanner,
    network: StarNetwork,
    stripes: Sequence[Stripe],
    failed_node: int,
    concurrency: int = 4,
    config: ExecutionConfig | None = None,
    start_time: float = 0.0,
    tracer=NULL_TRACER,
    faults: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    foreground=None,
    governor=None,
    sampler=None,
    journal=None,
) -> FullNodeResult:
    """Fixed-concurrency full-node repair (the non-adaptive orchestrator).

    ``foreground`` (a :class:`~repro.loadgen.ForegroundEngine`) injects
    client traffic as competing flows on the same simulator; ``governor``
    (a :class:`~repro.loadgen.RepairQoSGovernor`) is consulted at every
    decision point to throttle repair for foreground QoS.  Both default
    to None, which leaves the repair-only path unchanged.  ``sampler``
    (a :class:`~repro.obs.FlightRecorder`) records aligned utilization
    time series for post-run diagnosis (:mod:`repro.obs.analysis`).

    ``journal`` (a :class:`~repro.resilience.RepairJournal`) makes the run
    resumable: per-stripe start/progress/done records are appended as the
    run advances, and a re-planned stripe whose requestor survives resumes
    from its last verified slice instead of restarting the transfer.
    """
    if concurrency < 1:
        raise ClusterError("concurrency must be >= 1")
    master = _master(
        planner, network, stripes, failed_node, planner.name, config,
        start_time, tracer, faults, retry_policy, foreground, sampler,
        journal,
    )
    logger.info(
        "full-node repair (%s): node %d, %d stripes, concurrency %d",
        planner.name, failed_node, len(master.pending), concurrency,
    )

    def start_window(master: StripeRepairMaster, cap: float | None) -> None:
        while master.pending and len(master.in_flight) < concurrency:
            planned = master.candidate()
            if planned is None:
                return
            stripe, plan = planned
            planning_span = master.charge_planning(stripe, plan)
            master.submit(
                stripe, plan, max_rate=cap, planning_span=planning_span,
            )

    return _drive(master, start_window, foreground, governor)


def repair_full_node_adaptive(
    planner: RepairPlanner,
    network: StarNetwork,
    stripes: Sequence[Stripe],
    failed_node: int,
    scheduler: SchedulerConfig | None = None,
    config: ExecutionConfig | None = None,
    start_time: float = 0.0,
    tracer=NULL_TRACER,
    faults: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    foreground=None,
    governor=None,
    sampler=None,
    journal=None,
) -> FullNodeResult:
    """PivotRepair's adaptive full-node repair (recommendation values).

    ``foreground`` / ``governor`` / ``sampler`` / ``journal`` behave as
    in :func:`repair_full_node`.
    """
    scheduler = scheduler or SchedulerConfig()
    master = _master(
        planner, network, stripes, failed_node, f"{planner.name}+strategy",
        config, start_time, tracer, faults, retry_policy, foreground,
        sampler, journal,
    )
    logger.info(
        "adaptive full-node repair (%s): node %d, %d stripes",
        planner.name, failed_node, len(master.pending),
    )

    def start_recommended(
        master: StripeRepairMaster, cap: float | None
    ) -> None:
        """Start the best stripe while its recommendation clears the bar."""
        sim = master.sim
        pending = master.pending
        idle_since: float | None = None
        while pending:
            if (
                scheduler.max_concurrency is not None
                and len(master.in_flight) >= scheduler.max_concurrency
            ):
                return
            running = master.running_tasks()
            best_value = float("-inf")
            best_plan = None
            best_stripe = None
            unrepairable: list[tuple[int, Stripe, str]] = []
            for index, stripe in enumerate(pending):
                try:
                    plan = master._plan(stripe)
                except (ClusterError, PlanningError) as exc:
                    if not master.driver.active:
                        raise
                    unrepairable.append((index, stripe, str(exc)))
                    continue
                value = recommendation_value(
                    plan.tree, plan.bmin, running, sim.now, scheduler,
                    tracer=tracer,
                )
                if value > best_value:
                    best_value, best_plan, best_stripe = value, plan, stripe
            for index, stripe, reason in reversed(unrepairable):
                pending.pop(index)
                master.driver.abort_stripe(stripe, reason)
            if best_plan is None:
                return
            master.registry.counter("scheduler_rounds").inc()
            master.registry.histogram("recommendation_value").observe(
                best_value
            )
            if tracer.enabled:
                tracer.instant(
                    "scheduler.round", t=sim.now, track="scheduler",
                    parent_id=master.book.parent(best_stripe.stripe_id),
                    candidates=len(pending), running=len(master.in_flight),
                    best_value=best_value,
                    best_stripe=best_stripe.stripe_id,
                    started=best_value >= scheduler.threshold,
                )
            if best_value < scheduler.threshold:
                # Below the threshold we wait for a completion; when
                # nothing is running we check periodically until
                # bandwidths turn sufficient, bounded so a permanently
                # congested network still makes progress.
                if master.in_flight:
                    return
                if idle_since is None:
                    idle_since = sim.now
                if sim.now - idle_since < scheduler.max_idle_wait:
                    master.driver.advance(sim.now + scheduler.check_interval)
                    continue
            idle_since = None
            planning_span = master.charge_planning(best_stripe, best_plan)
            if tracer.enabled:
                tracer.instant(
                    "scheduler.start", t=sim.now, track="scheduler",
                    parent_id=master.book.parent(best_stripe.stripe_id),
                    stripe=best_stripe.stripe_id,
                    requestor=best_plan.requestor, value=best_value,
                )
            master.submit(
                best_stripe, best_plan, max_rate=cap,
                planning_span=planning_span,
            )

    return _drive(master, start_recommended, foreground, governor)
