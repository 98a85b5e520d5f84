"""Golden digests of the two attribution views.

Each case builds a trace, runs :func:`diagnose`, :func:`critical_paths`
and :func:`crosscheck` over it, and hashes the three outputs (the two
reports' deterministic JSON and the cross-check issue list).  The
recorded digests pin both views bit for bit, so a refactor of the trace
digestion or of the rate-interval classification that moves any float,
reorders any repair or drops any anomaly fails here.

The corpus, planning pinned to zero everywhere:

* ``window`` — fixed-window full-node repair; diagnose with the oracle
  ``network`` and the run's ``telemetry``;
* ``eq3_load`` — Eq. 3 full-node repair beside foreground reads and
  writes, throttled by :class:`AdaptiveSLOGovernor`, with a
  :class:`FlightRecorder` passed to diagnose as ``sampler=``;
* ``crash`` — single-chunk crash, detection, backoff and retry;
* ``hedge`` — single-chunk gray failure raced by a hedge
  (:class:`HealthPolicy`);
* ``multichunk`` — download, decode, upload chain;
* ``storm`` — a small control-plane repair storm;
* ``legacy:*`` — hand-built span-less streams (flows closed by
  ``flow.finish`` / ``flow.cancel`` instants, rates keyed by ``task``);
* ``jsonl`` — the ``eq3_load`` trace and samples re-read from JSONL.

Every case also asserts that its path really ran, so a scenario change
cannot leave a digest guarding nothing.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import pin_planning
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, place_stripes
from repro.faults import FaultPlan, RetryPolicy
from repro.loadgen import (
    AdaptiveSLOGovernor,
    ForegroundEngine,
    LoadProfile,
    generate_requests,
)
from repro.network.topology import StarNetwork
from repro.obs import (
    FlightRecorder,
    Sample,
    Tracer,
    critical_paths,
    crosscheck,
    diagnose,
    events_from_jsonl,
    samples_from_jsonl,
    to_jsonl,
)
from repro.repair import (
    repair_full_node,
    repair_full_node_adaptive,
    repair_single_chunk_faulted,
)
from repro.repair.multichunk import execute_multi_chunk, plan_multi_chunk
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import HealthPolicy
from repro.units import mbps, mib

MiB = 1024 * 1024
NODE_COUNT = 12
CODE = RSCode(6, 4)
CONFIG = ExecutionConfig(chunk_size=mib(16), slice_size=mib(1))
BMIN = 100.0


def planner():
    return pin_planning(PivotRepairPlanner(), 0.0)


def network() -> StarNetwork:
    rng = np.random.default_rng(11)
    ups, downs = (
        [float(rng.uniform(mbps(300), mbps(1000))) for _ in range(NODE_COUNT)]
        for _ in range(2)
    )
    return StarNetwork.constant(ups, downs)


def stripes_and_failed():
    stripes = place_stripes(8, CODE, NODE_COUNT, np.random.default_rng(5))
    return stripes, stripes[0].placement[0]


# ----------------------------------------------------------------------
# Scenarios: each returns (events, diagnose kwargs)
# ----------------------------------------------------------------------
def window_case():
    stripes, failed = stripes_and_failed()
    net = network()
    tracer = Tracer()
    result = repair_full_node(
        planner(), net, stripes, failed, concurrency=2, config=CONFIG,
        tracer=tracer,
    )
    assert result.chunks_repaired == len(result.task_results) > 0
    return tracer.events, {"network": net, "telemetry": result.telemetry}


def eq3_load_case():
    stripes, failed = stripes_and_failed()
    net = network()
    requests = generate_requests(
        LoadProfile(arrival_rate=80.0, duration=4.0, request_size=mib(4)),
        stripes, NODE_COUNT, seed=3,
    )
    foreground = ForegroundEngine(
        stripes, requests, PivotRepairPlanner(), failed_nodes={failed}
    )
    sampler = FlightRecorder(interval=0.05)
    tracer = Tracer()
    result = repair_full_node_adaptive(
        planner(), net, stripes, failed,
        scheduler=SchedulerConfig(threshold=400.0, check_interval=0.05,
                                  max_idle_wait=0.2),
        config=CONFIG, tracer=tracer, foreground=foreground,
        governor=AdaptiveSLOGovernor(
            slo_p99=0.05, reference_rate=mbps(1000), floor_rate=mbps(50),
            decision_interval=0.1,
        ),
        sampler=sampler,
    )
    assert result.chunks_repaired == len(result.task_results) > 0
    assert foreground.registry.counter("fg_requests").value > 0
    assert any(e.name == "governor.decision" for e in tracer.events)
    assert sampler.samples
    return tracer.events, {
        "network": net, "telemetry": result.telemetry, "sampler": sampler,
    }


def crash_case():
    net = StarNetwork.constant([10 * MiB] * 8, [10 * MiB] * 8)
    tracer = Tracer()
    result = repair_single_chunk_faulted(
        planner(), net, 0, [1, 2, 3, 4, 5], CODE.k,
        FaultPlan.from_spec("crash:3@0.2"),
        policy=RetryPolicy(detection_timeout=0.05, backoff_base=0.1),
        config=ExecutionConfig(chunk_size=8 * MiB, slice_size=32768),
        tracer=tracer,
    )
    assert result.ok and result.replans >= 1
    assert any(e.name == "repair.backoff" for e in tracer.events)
    return tracer.events, {"network": net}


def hedge_case():
    victim = 3
    net = StarNetwork.constant(
        [12 * MiB if i == victim else 10 * MiB for i in range(8)],
        [12 * MiB if i == victim else 10 * MiB for i in range(8)],
    )
    tracer = Tracer()
    result = repair_single_chunk_faulted(
        planner(), net, 0, [1, 2, 3, 4, 5], CODE.k,
        FaultPlan.from_spec("degrade:3@0.1-1000x0.05"),
        policy=RetryPolicy(detection_timeout=0.05),
        config=ExecutionConfig(chunk_size=8 * MiB, slice_size=32768),
        tracer=tracer, health=HealthPolicy(),
    )
    assert result.ok and result.hedges == 1
    return tracer.events, {"network": net}


def multichunk_case():
    net = StarNetwork.uniform(8, 100 * MiB)
    snap = BandwidthSnapshot.from_network(net, 0.0)
    plan = plan_multi_chunk(snap, 0, [2, 3, 4, 5, 6, 7], CODE.k,
                            {1: 1, 2: 0})
    tracer = Tracer()
    execute_multi_chunk(
        plan, net, config=ExecutionConfig(chunk_size=4 * MiB),
        decode_rate=200 * MiB, tracer=tracer,
    )
    assert any(e.name == "repair.decode" for e in tracer.events)
    return tracer.events, {}


def storm_case():
    from repro.controlplane import StormConfig, run_storm

    tracer = Tracer()
    report = run_storm(
        StormConfig(
            seed=7, stripes=6, chunk_mib=4.0, foreground_rate=30.0,
            foreground_duration=12.0, max_time=120.0,
            admission_control=False, planning_seconds=0.0,
        ),
        tracer=tracer,
    )
    assert len(report.fleet.jobs) > 1
    return tracer.events, {}


def jsonl_case():
    events, kwargs = eq3_load_case()
    sampler = kwargs.pop("sampler")
    kwargs["samples"] = samples_from_jsonl(sampler.to_jsonl())
    return events_from_jsonl(to_jsonl(events)), kwargs


# ----------------------------------------------------------------------
# Legacy streams: span-less flows closed by instants, rates by task
# ----------------------------------------------------------------------
def legacy_flow(tracer, *, task, rates, finish, label="pivot-r0",
                kind="repair", close="flow.finish", edges=((2, 1), (1, 0)),
                bytes_per_edge=None):
    edges = [list(edge) for edge in edges]
    if bytes_per_edge is None:
        points = list(rates) + [(finish, 0.0)]
        bytes_per_edge = sum(
            rate * (t1 - t0)
            for (t0, rate), (t1, _) in zip(points, points[1:])
        )
    tracer.begin(
        "flow", t=rates[0][0], track="node:0", label=label, task=task,
        shape="pipelined", kind=kind, edges=edges,
        bytes_total=bytes_per_edge * len(edges),
    )
    for t, rate in rates:
        tracer.instant(
            "flow.rate_change", t=t, track="node:0", task=task, rate=rate
        )
    if close:
        tracer.instant(close, t=finish, track="node:0", task=task)


def plan_event(tracer, *, t=0.0, requestor=0, bmin=BMIN, scheme="pivot"):
    tracer.instant(
        "planner.plan", t=t, track="planner", requestor=requestor,
        bmin=bmin, scheme=scheme,
    )


def legacy_mixed():
    """Governor caps, stalls, credit, churn, a foreground flow."""
    tracer = Tracer()
    plan_event(tracer, bmin=50.0, scheme="rp")
    plan_event(tracer)
    tracer.instant("governor.decision", t=0.0, track="governor",
                   cap=BMIN / 2)
    legacy_flow(tracer, task=1, finish=10.0,
                rates=((0.0, BMIN / 2), (3.0, 0.0), (4.0, 2 * BMIN)))
    tracer.instant("governor.decision", t=5.0, track="governor", cap=-1.0)
    legacy_flow(tracer, task=2, label="rp-r0", finish=12.0,
                rates=((2.0, 30.0), (2.0, 20.0), (8.0, 50.0)))
    legacy_flow(tracer, task=3, label="client", kind="foreground",
                finish=6.0, rates=((1.0, 40.0),))
    legacy_flow(tracer, task=4, finish=9.0, close=None,
                rates=((0.0, BMIN),))
    tracer.instant("fault.crash", t=3.0, track="faults", node=2)
    return tracer.events, {}


def legacy_straggler():
    """A straggler-cancelled primary raced by a hedge flow."""
    tracer = Tracer()
    plan_event(tracer)
    plan_event(tracer, t=4.0)
    legacy_flow(tracer, task=1, finish=8.0, close="flow.cancel",
                rates=((0.0, BMIN), (2.0, BMIN / 4), (6.0, BMIN / 8)))
    tracer.instant("health.straggler", t=4.0, track="health", task=1,
                   since=3.0)
    tracer.instant("hedge.launch", t=5.0, track="health", task=1)
    legacy_flow(tracer, task=2, kind="hedge", label="pivot-h0",
                finish=9.0, rates=((5.0, BMIN),))
    return tracer.events, {}


def legacy_samples():
    """Flight-recorder samples: sampled bottleneck and cap fallback."""
    tracer = Tracer()
    plan_event(tracer)
    legacy_flow(tracer, task=1, finish=10.0,
                rates=((0.0, BMIN / 2), (5.0, BMIN / 4)))
    samples = [
        Sample(
            t=float(t), up_util={1: 0.99, 2: 0.30}, down_util={0: 0.50},
            repair_cap=BMIN / 4 if t >= 5 else None,
        )
        for t in range(11)
    ]
    return tracer.events, {"samples": samples}


def legacy_oracle():
    tracer = Tracer()
    legacy_flow(tracer, task=1, finish=10.0, rates=((0.0, 80.0),))
    network = StarNetwork.constant([500.0, 80.0, 300.0],
                                   [200.0, 400.0, 999.0])
    return tracer.events, {"network": network}


CASES = {
    "window": window_case,
    "eq3_load": eq3_load_case,
    "crash": crash_case,
    "hedge": hedge_case,
    "multichunk": multichunk_case,
    "storm": storm_case,
    "legacy:mixed": legacy_mixed,
    "legacy:straggler": legacy_straggler,
    "legacy:samples": legacy_samples,
    "legacy:oracle": legacy_oracle,
    "jsonl": jsonl_case,
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(events, kwargs) -> dict[str, str]:
    diagnosis = diagnose(events, **kwargs)
    report = critical_paths(events)
    return {
        "diagnose": digest(diagnosis.to_json()),
        "critpath": digest(report.to_json()),
        "crosscheck": digest(json.dumps(crosscheck(report, diagnosis))),
    }


#: Recorded before diagnose and critical_paths shared one trace digest.
GOLDEN = {
    'crash': {
        'diagnose': 'c4c38eb46576a4c4',
        'critpath': '014af873342a66b5',
        'crosscheck': '4f53cda18c2baa0c',
    },
    'eq3_load': {
        'diagnose': '027f81504c509fd0',
        'critpath': '47c375151f82ef51',
        'crosscheck': '4f53cda18c2baa0c',
    },
    'hedge': {
        'diagnose': 'd94d0d3d7df403f2',
        'critpath': 'f2ac7fa3add32d19',
        'crosscheck': '4f53cda18c2baa0c',
    },
    'jsonl': {
        'diagnose': '027f81504c509fd0',
        'critpath': '47c375151f82ef51',
        'crosscheck': '4f53cda18c2baa0c',
    },
    'legacy:mixed': {
        'diagnose': '542a53fe258772fc',
        'critpath': '7ab5d0a7f19b54de',
        'crosscheck': '49fbc05ded367fd8',
    },
    'legacy:oracle': {
        'diagnose': '169a845a4ca03d28',
        'critpath': '285c6bea0af54c12',
        'crosscheck': 'beb3b87913c62dd5',
    },
    'legacy:samples': {
        'diagnose': 'ba99d7571475a307',
        'critpath': '285c6bea0af54c12',
        'crosscheck': 'beb3b87913c62dd5',
    },
    'legacy:straggler': {
        'diagnose': 'e5f29338b879a379',
        'critpath': 'd9ea67c610d264f6',
        'crosscheck': '49fbc05ded367fd8',
    },
    'multichunk': {
        'diagnose': '1c17c06caa03d459',
        'critpath': '376348c85dcc1054',
        'crosscheck': '4f53cda18c2baa0c',
    },
    'storm': {
        'diagnose': '598b9f9dd0ece099',
        'critpath': '1f3afe84812f6ea1',
        'crosscheck': 'e31dd0e90ec7ed36',
    },
    'window': {
        'diagnose': '4b4772bfa9e464e3',
        'critpath': 'ce317b822d205b44',
        'crosscheck': '4f53cda18c2baa0c',
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_digests_match_golden(case):
    events, kwargs = CASES[case]()
    assert events
    assert digests(events, kwargs) == GOLDEN[case]
