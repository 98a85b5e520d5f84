"""Golden digests of the two full-node orchestrators.

Each case runs :func:`repair_full_node` or :func:`repair_full_node_adaptive`
on a fixed scenario with planning cost pinned to zero, then hashes five
artefacts of the run: the per-task results, the clean failures, the
telemetry counters, the journal records and the JSONL trace.  The
recorded digests pin the orchestrators' observable behaviour bit for
bit, so a refactor of the repair state machine that changes any event
time, ordering, span id or journal record fails here.

Three setups per orchestrator:

* ``plain`` — a heterogeneous star, no faults, no load;
* ``crash`` — two helpers crash mid-transfer with a journal attached:
  detection, watermark checkpoints, re-plans, resumes from the slice
  watermark, and three stripes left with fewer than ``k`` survivors
  aborted as clean failures;
* ``load`` — trace-free Poisson/Zipf foreground reads and writes beside
  the repair, throttled by :class:`AdaptiveSLOGovernor`.

Every setup also asserts that its path really ran, so a scenario change
cannot leave a digest guarding nothing.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.controlplane.storm import pin_planning
from repro.core import PivotRepairPlanner
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
from repro.obs import Tracer, to_jsonl
from repro.repair import repair_full_node, repair_full_node_adaptive
from repro.repair.pipeline import ExecutionConfig
from repro.resilience import RepairJournal
from repro.units import mbps, mib

NODE_COUNT = 12
CODE = RSCode(6, 4)
CONFIG = ExecutionConfig(chunk_size=mib(16), slice_size=mib(1))
SCHEDULER = SchedulerConfig(threshold=400.0, check_interval=0.05,
                            max_idle_wait=0.2)
#: Both crashes land on in-flight trees under either orchestrator; the
#: second leaves stripes 2, 7 and 8 with three survivors for k = 4.
CRASHES = "crash:1@0.2;crash:11@0.3"


def network() -> StarNetwork:
    rng = np.random.default_rng(11)
    ups, downs = (
        [float(rng.uniform(mbps(300), mbps(1000))) for _ in range(NODE_COUNT)]
        for _ in range(2)
    )
    return StarNetwork.constant(ups, downs)


def stripes_and_failed():
    stripes = place_stripes(10, CODE, NODE_COUNT, np.random.default_rng(5))
    return stripes, stripes[0].placement[0]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(orchestrator: str, setup: str):
    stripes, failed = stripes_and_failed()
    planner = pin_planning(PivotRepairPlanner(), 0.0)
    tracer = Tracer()
    kwargs = dict(config=CONFIG, tracer=tracer)
    journal = None
    if setup == "crash":
        journal = RepairJournal()
        kwargs.update(
            faults=FaultPlan.from_spec(CRASHES),
            retry_policy=RetryPolicy(detection_timeout=0.05,
                                     backoff_base=0.1),
            journal=journal,
        )
    elif setup == "load":
        requests = generate_requests(
            LoadProfile(arrival_rate=80.0, duration=4.0,
                        request_size=mib(4)),
            stripes, NODE_COUNT, seed=3,
        )
        kwargs.update(
            foreground=ForegroundEngine(
                stripes, requests, PivotRepairPlanner(),
                failed_nodes={failed},
            ),
            governor=AdaptiveSLOGovernor(
                slo_p99=0.05, reference_rate=mbps(1000),
                floor_rate=mbps(50), decision_interval=0.1,
            ),
        )
    if orchestrator == "window":
        result = repair_full_node(
            planner, network(), stripes, failed, concurrency=2, **kwargs
        )
    else:
        result = repair_full_node_adaptive(
            planner, network(), stripes, failed, scheduler=SCHEDULER,
            **kwargs
        )
    return result, tracer, journal, kwargs.get("foreground")


def digests(result, tracer, journal) -> dict[str, str]:
    tasks = [
        (
            task.plan.notes["stripe_id"], task.plan.requestor,
            repr(task.transfer_seconds), repr(task.bmin),
            repr(task.bytes_transferred),
        )
        for task in result.task_results
    ]
    tasks.append(("total", repr(result.total_seconds)))
    failures = [
        (f.stripe_id, f.reason, repr(f.elapsed_seconds))
        for f in result.failures
    ]
    records = journal.records if journal is not None else []
    return {
        "tasks": digest(json.dumps(tasks)),
        "failures": digest(json.dumps(failures)),
        "counters": digest(
            json.dumps(result.telemetry["counters"], sort_keys=True)
        ),
        "journal": digest("\n".join(r.to_json() for r in records)),
        "trace": digest(to_jsonl(tracer.events)),
    }


#: Recorded before the orchestrators were folded onto one master loop.
GOLDEN = {
    ("window", "plain"): {
        "tasks": "7396b75abdcd9b34",
        "failures": "4f53cda18c2baa0c",
        "counters": "146331d93f2c3ef9",
        "journal": "e3b0c44298fc1c14",
        "trace": "f092d0522c65c263",
    },
    ("window", "crash"): {
        "tasks": "bbc7b044d3a0b85c",
        "failures": "126bf627068fdea1",
        "counters": "47df05af002983c4",
        "journal": "f6e020d836d1c3ee",
        "trace": "695fc56819a8021a",
    },
    ("window", "load"): {
        "tasks": "9cb8dbacfa409d8a",
        "failures": "4f53cda18c2baa0c",
        "counters": "fbfc17fe577e6040",
        "journal": "e3b0c44298fc1c14",
        "trace": "3c8568cebab160aa",
    },
    ("eq3", "plain"): {
        "tasks": "fddf0ecf3750bca6",
        "failures": "4f53cda18c2baa0c",
        "counters": "ac406c133dabdc8d",
        "journal": "e3b0c44298fc1c14",
        "trace": "376aa6dd7cdd2b7a",
    },
    ("eq3", "crash"): {
        "tasks": "9bc876da05356382",
        "failures": "0ee1818e67e82df3",
        "counters": "4a059129ac27ffe7",
        "journal": "68a2f2b4daccac61",
        "trace": "b3e3cdb735e18b0f",
    },
    ("eq3", "load"): {
        "tasks": "8c789e33545b0e57",
        "failures": "4f53cda18c2baa0c",
        "counters": "1809106f078a1005",
        "journal": "e3b0c44298fc1c14",
        "trace": "e66dfadbafc64053",
    },
}


@pytest.mark.parametrize("orchestrator", ["window", "eq3"])
@pytest.mark.parametrize("setup", ["plain", "crash", "load"])
def test_digests_match_golden(orchestrator, setup):
    result, tracer, journal, foreground = run(orchestrator, setup)
    counters = result.telemetry["counters"]
    assert result.chunks_repaired == len(result.task_results) > 0
    if setup == "crash":
        assert counters.get("replans", 0) > 0, counters
        assert journal.all("progress"), "no watermark was checkpointed"
        assert len(result.failures) == 3, result.failures
    if setup == "load":
        assert foreground.registry.counter("fg_requests").value > 0
        assert any(e.name == "governor.decision" for e in tracer.events)
    assert digests(result, tracer, journal) == GOLDEN[(orchestrator, setup)]
