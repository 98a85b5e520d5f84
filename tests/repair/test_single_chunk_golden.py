"""Golden digests of the single-chunk repair entry points.

Each case runs :func:`repair_single_chunk`, :func:`execute_plan` or
:func:`repair_single_chunk_faulted` on a fixed scenario with planning
cost pinned to zero and hashes what the run observably produced.  The
recorded digests pin the single-chunk executor bit for bit, so a
refactor of the attempt loop that moves any simulated time, byte count,
counter, journal record or (for faulted runs) trace event fails here.

Fault-free cases (``clean:*``) hash the results, the telemetry snapshot,
and the two attribution views of the trace: the :func:`critical_paths`
makespans and categories and the :func:`diagnose` totals.  Their raw
trace is deliberately not hashed, so the event shape may change as long
as the attribution of the run does not:

* ``pivot``, ``rp``, ``ppt`` — pipelined schemes on a heterogeneous star;
* ``ppr``, ``conventional`` — staged schemes;
* ``load`` — PivotRepair beside foreground reads and writes, throttled
  by :class:`StaticCapGovernor`, with a :class:`FlightRecorder`;
* ``plan:pipelined``, ``plan:staged`` — :func:`execute_plan` on a
  precomputed plan.

Faulted cases (``faulted:*``) hash the results, the telemetry snapshot,
the journal records and the JSONL trace: crash with detection, backoff
and retry; read error; stall; journal resume with segments; an adopted
hedge; an exhausted retry budget; a requestor crash.

Every case also asserts that its path really ran, so a scenario change
cannot leave a digest guarding nothing.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import (
    ConventionalPlanner,
    PPRPlanner,
    PPTPlanner,
    RPPlanner,
)
from repro.core import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.plan import pin_planning
from repro.ec import RSCode, place_stripes
from repro.faults import FaultPlan, RetryPolicy
from repro.loadgen import (
    ForegroundEngine,
    LoadProfile,
    StaticCapGovernor,
    generate_requests,
)
from repro.network.topology import StarNetwork
from repro.obs import (
    FlightRecorder,
    Tracer,
    critical_paths,
    diagnose,
    to_jsonl,
)
from repro.repair import (
    RepairFailed,
    execute_plan,
    repair_single_chunk,
    repair_single_chunk_faulted,
)
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import HealthPolicy, RepairJournal
from repro.units import mbps, mib

MiB = 1024 * 1024
NODE_COUNT = 12
CODE = RSCode(6, 4)
CONFIG = ExecutionConfig(chunk_size=mib(16), slice_size=mib(1))
#: Faulted scenarios: ~8 MiB at ~10 MiB/s, so faults land mid-transfer.
FAULT_CONFIG = ExecutionConfig(chunk_size=8 * MiB, slice_size=32 * 1024)
CANDIDATES = [1, 2, 3, 4, 5]
VICTIM = 3

PLANNERS = {
    "pivot": PivotRepairPlanner,
    "rp": RPPlanner,
    "ppt": PPTPlanner,
    "ppr": PPRPlanner,
    "conventional": ConventionalPlanner,
}


def pinned(scheme: str = "pivot"):
    return pin_planning(PLANNERS[scheme](), 0.0)


def network() -> StarNetwork:
    rng = np.random.default_rng(11)
    ups, downs = (
        [float(rng.uniform(mbps(300), mbps(1000))) for _ in range(NODE_COUNT)]
        for _ in range(2)
    )
    return StarNetwork.constant(ups, downs)


def victim_network() -> StarNetwork:
    """Uniform star whose victim is fastest, so every plan routes via it."""
    caps = [12 * MiB if i == VICTIM else 10 * MiB for i in range(8)]
    return StarNetwork.constant(caps, list(caps))


# ----------------------------------------------------------------------
# Fault-free cases: each returns (result, tracer, diagnose kwargs)
# ----------------------------------------------------------------------
def clean_case(scheme: str):
    tracer = Tracer()
    result = repair_single_chunk(
        pinned(scheme), network(), 0, CANDIDATES, CODE.k, config=CONFIG,
        tracer=tracer,
    )
    assert result.plan.is_pipelined == (scheme in ("pivot", "rp", "ppt"))
    return result, tracer, {}


def load_case():
    stripes = place_stripes(8, CODE, NODE_COUNT, np.random.default_rng(5))
    stripe = stripes[0]
    failed = stripe.placement[0]
    survivors = stripe.surviving_nodes(failed)
    requestor = next(
        n for n in range(NODE_COUNT) if n != failed and n not in survivors
    )
    requests = generate_requests(
        LoadProfile(arrival_rate=80.0, duration=4.0, request_size=mib(4)),
        stripes, NODE_COUNT, seed=3,
    )
    foreground = ForegroundEngine(
        stripes, requests, PivotRepairPlanner(), failed_nodes={failed}
    )
    sampler = FlightRecorder(interval=0.05)
    tracer = Tracer()
    net = network()
    result = repair_single_chunk(
        pinned(), net, requestor, survivors, CODE.k, config=CONFIG,
        tracer=tracer, foreground=foreground,
        governor=StaticCapGovernor(cap=mbps(150)), sampler=sampler,
    )
    assert foreground.registry.counter("fg_requests").value > 0
    assert any(e.name == "governor.decision" for e in tracer.events)
    assert sampler.samples
    return result, tracer, {"network": net, "sampler": sampler}


def plan_case(scheme: str):
    net = network()
    plan = pinned(scheme).plan(
        BandwidthSnapshot.from_network(net, 0.0), 0, CANDIDATES, CODE.k
    )
    tracer = Tracer()
    result = execute_plan(plan, net, config=CONFIG, tracer=tracer)
    assert result.plan is plan
    return result, tracer, {"network": net}


CLEAN = {
    **{
        f"clean:{scheme}": (lambda s=scheme: clean_case(s))
        for scheme in PLANNERS
    },
    "clean:load": load_case,
    "plan:pipelined": lambda: plan_case("pivot"),
    "plan:staged": lambda: plan_case("ppr"),
}


# ----------------------------------------------------------------------
# Faulted cases: each returns (result, tracer, journal)
# ----------------------------------------------------------------------
def faulted(spec, policy=None, journal=None, health=None):
    tracer = Tracer()
    result = repair_single_chunk_faulted(
        pinned(), victim_network(), 0, CANDIDATES, CODE.k,
        FaultPlan.from_spec(spec),
        policy=policy or RetryPolicy(detection_timeout=0.05),
        config=FAULT_CONFIG, tracer=tracer, journal=journal, health=health,
    )
    return result, tracer, journal


def names(tracer) -> list[str]:
    return [event.name for event in tracer.events]


def crash_case():
    result, tracer, journal = faulted(
        f"crash:{VICTIM}@0.2",
        policy=RetryPolicy(detection_timeout=0.05, backoff_base=0.1),
    )
    assert result.ok and result.replans >= 1
    assert "repair.backoff" in names(tracer)
    return result, tracer, journal


def readerr_case():
    result, tracer, journal = faulted(f"readerr:{VICTIM}@0.2")
    assert result.ok and result.attempts == 2
    assert any(
        e.name == "repair.detect" and e.fields["kind"] == "readerr"
        for e in tracer.events
    )
    return result, tracer, journal


def stall_case():
    result, tracer, journal = faulted(
        f"stall:{VICTIM}@0.2+30", policy=RetryPolicy(detection_timeout=0.3)
    )
    assert result.ok and result.attempts == 2
    assert any(
        e.name == "repair.detect" and e.fields["kind"] == "stall"
        for e in tracer.events
    )
    return result, tracer, journal


def resume_case():
    result, tracer, journal = faulted(
        f"crash:{VICTIM}@0.45", journal=RepairJournal()
    )
    assert result.ok and len(result.segments) == 2
    assert result.segments[1][1] > 0
    return result, tracer, journal


def hedge_case():
    result, tracer, journal = faulted(
        f"degrade:{VICTIM}@0.1-1000x0.05", journal=RepairJournal(),
        health=HealthPolicy(),
    )
    assert result.ok and result.hedges == 1
    assert result.telemetry["counters"]["hedges_adopted"] == 1
    return result, tracer, journal


def exhausted_case():
    spec = ";".join(f"stall:{n}@0+1000" for n in CANDIDATES)
    result, tracer, journal = faulted(
        spec, policy=RetryPolicy(detection_timeout=0.2, max_retries=2),
        journal=RepairJournal(),
    )
    assert isinstance(result, RepairFailed)
    assert "retry budget" in result.reason and result.attempts == 3
    return result, tracer, journal


def requestor_case():
    result, tracer, journal = faulted("crash:0@0.2")
    assert isinstance(result, RepairFailed)
    assert "requestor" in result.reason
    return result, tracer, journal


FAULTED = {
    "faulted:crash": crash_case,
    "faulted:readerr": readerr_case,
    "faulted:stall": stall_case,
    "faulted:resume": resume_case,
    "faulted:hedge": hedge_case,
    "faulted:exhausted": exhausted_case,
    "faulted:requestor": requestor_case,
}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_fields(result) -> list:
    if isinstance(result, RepairFailed):
        return [
            "failed", result.scheme, result.reason,
            repr(result.elapsed_seconds), result.attempts,
            repr(result.bytes_transferred),
        ]
    return [
        result.scheme, repr(result.planning_seconds),
        repr(result.transfer_seconds), repr(result.bmin),
        repr(result.bytes_transferred), result.attempts, result.hedges,
        [
            (plan.scheme, sorted(plan.helpers), start)
            for plan, start in result.segments
        ],
    ]


def clean_digests(result, tracer, kwargs) -> dict[str, str]:
    report = critical_paths(tracer.events)
    paths = [
        (repr(path.makespan), sorted(
            (key, repr(value)) for key, value in path.categories.items()
        ))
        for path in report.repairs
    ]
    totals = diagnose(tracer.events, **kwargs).totals
    return {
        "result": digest(json.dumps(result_fields(result))),
        "telemetry": digest(json.dumps(result.telemetry, sort_keys=True)),
        "critpath": digest(json.dumps(paths)),
        "diagnose": digest(json.dumps(
            {key: repr(value) for key, value in totals.items()},
            sort_keys=True,
        )),
    }


def faulted_digests(result, tracer, journal) -> dict[str, str]:
    records = journal.records if journal is not None else []
    return {
        "result": digest(json.dumps(result_fields(result))),
        "telemetry": digest(json.dumps(result.telemetry, sort_keys=True)),
        "journal": digest("\n".join(r.to_json() for r in records)),
        "trace": digest(to_jsonl(tracer.events)),
    }


#: Recorded before the single-chunk executors were folded onto one
#: attempt loop.
GOLDEN: dict[str, dict[str, str]] = {
    "clean:conventional": {
        "critpath": "28737c0395d1367f",
        "diagnose": "2ad458af7df9a66a",
        "result": "420bfce13355f8cc",
        "telemetry": "fb76d386d9aeee43",
    },
    "clean:load": {
        "critpath": "e80dc6dd384bb3b3",
        "diagnose": "d991401fccca1e8d",
        "result": "7e8261020e6c47d0",
        "telemetry": "3bb57fb06728fc38",
    },
    "clean:pivot": {
        "critpath": "b5da6dfb3aa38de1",
        "diagnose": "a598790e535cc905",
        "result": "10b61dbec28962e6",
        "telemetry": "91c3b26ab58c54e1",
    },
    "clean:ppr": {
        "critpath": "24daaacde56a2ab9",
        "diagnose": "dbc1e5c9fb45bcfa",
        "result": "5685d88f7f63ac0f",
        "telemetry": "9294d0471b474aaf",
    },
    "clean:ppt": {
        "critpath": "b5da6dfb3aa38de1",
        "diagnose": "a598790e535cc905",
        "result": "9b07ecd07fe0fc9c",
        "telemetry": "237a05f677e9a570",
    },
    "clean:rp": {
        "critpath": "5b3fc09350e283ff",
        "diagnose": "15b61271bed328c8",
        "result": "7a53229efefc414a",
        "telemetry": "8cee518dddcce5e5",
    },
    "faulted:crash": {
        "journal": "e3b0c44298fc1c14",
        "result": "c98631936713abc6",
        "telemetry": "911ff0b9452166e8",
        "trace": "9115c81804617e06",
    },
    "faulted:exhausted": {
        "journal": "980459ba46c10f51",
        "result": "6e29bfe6a80aa629",
        "telemetry": "5785a0ab719dd616",
        "trace": "35013851d11897df",
    },
    "faulted:hedge": {
        "journal": "6f2219b1900c0ce8",
        "result": "31aa90504b9dbd9d",
        "telemetry": "54c28ba6adbed214",
        "trace": "c6427601f0f8cc82",
    },
    "faulted:readerr": {
        "journal": "e3b0c44298fc1c14",
        "result": "1694211ad46b7b28",
        "telemetry": "24de061a7d38a33e",
        "trace": "c06b86aa6ee2df25",
    },
    "faulted:requestor": {
        "journal": "e3b0c44298fc1c14",
        "result": "d62a2b225f7f14d1",
        "telemetry": "a00d29791c7ea153",
        "trace": "7200b398cbb45528",
    },
    "faulted:resume": {
        "journal": "6591e350c596689c",
        "result": "7b087ceb4d33c38c",
        "telemetry": "73a32543c4152186",
        "trace": "c0622c953025917c",
    },
    "faulted:stall": {
        "journal": "e3b0c44298fc1c14",
        "result": "c5072c0b81190f66",
        "telemetry": "6e8a93768496f760",
        "trace": "0fef82e375147a8e",
    },
    "plan:pipelined": {
        "critpath": "b5da6dfb3aa38de1",
        "diagnose": "a598790e535cc905",
        "result": "10b61dbec28962e6",
        "telemetry": "94db8fadaab4ad8e",
    },
    "plan:staged": {
        "critpath": "24daaacde56a2ab9",
        "diagnose": "44136fa355b3678a",
        "result": "5685d88f7f63ac0f",
        "telemetry": "3d0e9b0a5abf66a2",
    },
}


@pytest.mark.parametrize("case", sorted(CLEAN))
def test_clean_digests_match_golden(case):
    result, tracer, kwargs = CLEAN[case]()
    assert result.ok and result.transfer_seconds > 0
    assert critical_paths(tracer.events).repairs
    assert clean_digests(result, tracer, kwargs) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(FAULTED))
def test_faulted_digests_match_golden(case):
    result, tracer, journal = FAULTED[case]()
    assert tracer.events
    assert faulted_digests(result, tracer, journal) == GOLDEN[case]
