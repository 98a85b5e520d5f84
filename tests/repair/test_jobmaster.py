"""Unit tests of the full-node repair state machine's fault accounting."""

from repro.core import PivotRepairPlanner
from repro.ec import RSCode, Stripe
from repro.faults import FaultPlan, FaultyNetwork, RetryPolicy
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.repair import ExecutionConfig, StripeRepairMaster
from repro.units import mib


def test_requeue_counted_when_doomed_in_consecutive_ticks():
    # Holders 1-5 of a stripe lost on node 0; on a uniform star the
    # requestor is the lowest-id outsider, so node 6 first and, once it
    # crashes, node 7.  Killing each in turn dooms the same stripe in
    # two consecutive ticks; both requeues feed the degradation signal.
    faults = FaultPlan.from_spec("crash:6@0.1;crash:7@0.2")
    network = FaultyNetwork.wrap(StarNetwork.uniform(12, 1e8), faults)
    sim = FluidSimulator(network)
    master = StripeRepairMaster(
        "job", PivotRepairPlanner(), network,
        [Stripe(0, RSCode(6, 4), [0, 1, 2, 3, 4, 5])], 0, sim=sim,
        config=ExecutionConfig(chunk_size=mib(64), slice_size=mib(1)),
        faults=faults, retry_policy=RetryPolicy(detection_timeout=0.01),
    )

    def start() -> int:
        stripe, plan = master.candidate()
        master.submit(stripe, plan)
        return plan.requestor

    assert start() == 6
    sim.advance_to(0.1)
    master.tick()
    assert master.requeue_events == 1
    assert start() == 7
    sim.advance_to(0.2)
    master.tick()
    assert master.requeue_events == 2
    assert len(master.pending) == 1 and not master.in_flight
