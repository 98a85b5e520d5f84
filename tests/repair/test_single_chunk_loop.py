"""The single-chunk attempt loop under its two contracts.

``repair_single_chunk`` runs fault-free (``faults=None``) and faulted
repairs through one loop.  A fault plan that never fires must therefore
report exactly what the fault-free run reports: the same transfer, the
same planning cost, the same telemetry gauges.
"""

import numpy as np
import pytest

from repro.baselines import PPRPlanner, PPTPlanner
from repro.core import PivotRepairPlanner
from repro.core.plan import pin_planning
from repro.exceptions import PlanningError
from repro.faults import FaultPlan
from repro.network.topology import StarNetwork
from repro.obs import Tracer
from repro.repair import (
    RepairFailed,
    repair_single_chunk,
    repair_single_chunk_faulted,
)
from repro.repair.pipeline import ExecutionConfig
from repro.units import mbps, mib

CONFIG = ExecutionConfig(chunk_size=mib(16), slice_size=mib(1))
CANDIDATES = [1, 2, 3, 4, 5]
K = 4
#: Lands long after any repair here has finished.
NEVER = "crash:0@100000"


def network() -> StarNetwork:
    rng = np.random.default_rng(11)
    ups, downs = (
        [float(rng.uniform(mbps(300), mbps(1000))) for _ in range(8)]
        for _ in range(2)
    )
    return StarNetwork.constant(ups, downs)


def repair(planner, faults=None, **kwargs):
    if faults is None:
        return repair_single_chunk(
            planner, network(), 0, CANDIDATES, K, config=CONFIG, **kwargs
        )
    return repair_single_chunk_faulted(
        planner, network(), 0, CANDIDATES, K, faults, config=CONFIG,
        **kwargs,
    )


def test_faulted_run_charges_extrapolated_planning_time():
    result = repair(PPTPlanner(tree_budget=50), FaultPlan.from_spec(NEVER))
    assert result.plan.extrapolated_seconds is not None
    assert result.planning_seconds == result.plan.effective_planning_seconds
    gauge = result.telemetry["gauges"]["planner_seconds"]
    assert gauge == result.plan.effective_planning_seconds


@pytest.mark.parametrize("spec", [None, "", NEVER])
def test_never_firing_plan_matches_fault_free_run(spec):
    clean = repair(pin_planning(PivotRepairPlanner(), 0.0))
    faults = None if spec is None else FaultPlan.from_spec(spec)
    run = repair(pin_planning(PivotRepairPlanner(), 0.0), faults)
    assert run.attempts == 1 and run.hedges == 0
    assert run.transfer_seconds == clean.transfer_seconds
    assert run.bmin == clean.bmin
    assert run.bytes_transferred == clean.bytes_transferred
    gauges = run.telemetry["gauges"]
    assert gauges["bottleneck_utilization"] == (
        clean.telemetry["gauges"]["bottleneck_utilization"]
    )


def test_fault_free_contract_propagates_planning_errors():
    # The requestor is listed as a helper: the planner rejects the input.
    with pytest.raises(PlanningError):
        repair_single_chunk(
            PivotRepairPlanner(), network(), 0, [0, *CANDIDATES], K,
            config=CONFIG,
        )
    failed = repair_single_chunk_faulted(
        PivotRepairPlanner(), network(), 0, [0, *CANDIDATES], K,
        FaultPlan.from_spec(NEVER), config=CONFIG,
    )
    assert isinstance(failed, RepairFailed)
    assert failed.reason.startswith("planning failed")


def test_staged_plans_run_fault_free_only():
    assert repair(PPRPlanner()).ok
    with pytest.raises(PlanningError):
        repair(PPRPlanner(), FaultPlan.from_spec(NEVER))


def test_fault_free_trace_takes_the_attempt_shape():
    tracer = Tracer()
    repair(PivotRepairPlanner(), tracer=tracer)
    begin, end = [e for e in tracer.events if e.name == "repair.task"]
    (plan,) = [e for e in tracer.events if e.name == "planner.plan"]
    assert plan.parent_id == begin.span_id
    (flow,) = [
        e for e in tracer.events if e.name == "flow" and e.kind == "begin"
    ]
    assert flow.parent_id == begin.span_id
    assert flow.fields["label"] == "PivotRepair-a1"
    assert flow.fields["attempt"] == 1 and flow.fields["start_slice"] == 0
    assert end.fields["attempts"] == 1 and end.fields["hedges"] == 0
