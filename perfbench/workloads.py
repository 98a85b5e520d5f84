"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (:meth:`build`)
as a list of independent *units* (one repair scenario, storm or study
each) and runs one unit at a time (:meth:`run_unit`).  :meth:`check`
and :meth:`summary` read the units' results merged into one
:class:`Result` (a *cycle*: every unit once).  Units are deterministic: every simulated number they
return repeats exactly for a seed, so the measured loop can repeat them
and the engine differential and traced run can compare their results
with the measured ones.  Planning charges are pinned with
:func:`repro.controlplane.storm.pin_planning`, so host planning time
never leaks into simulated time.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.baselines import RPPlanner
from repro.cluster import Cluster
from repro.controlplane import StormConfig, run_storm
from repro.controlplane.storm import pin_planning
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.ec import RSCode, Stripe, place_stripes
from repro.experiments.single_chunk import congested_instants, stripe_nodes_at
from repro.lifetime import FixedDurations, LifetimeConfig, run_lifetime
from repro.loadgen import (
    READ,
    ForegroundEngine,
    LoadProfile,
    generate_requests,
    make_governor,
    rate_profile_from_trace,
)
from repro.network import StarNetwork
from repro.obs import NULL_TRACER, Tracer
from repro.repair import (
    ExecutionConfig,
    repair_full_node_adaptive,
    repair_single_chunk,
)
from repro.resilience import RepairJournal
from repro.traces import PROFILES, generate_trace
from repro.units import mib

from stats import TooFewSamples, percentile

NODES = 16
CHUNK = int(mib(64))
#: Bandwidth every repair keeps (bytes/s), as the ``repro`` CLI reserves.
REPAIR_FLOOR = 1e6


def derive(seed: int, *labels) -> int:
    """A 32-bit sub-seed named by ``labels`` (stable across runs)."""
    text = "/".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def fingerprint(value) -> str:
    """Digest of a JSON-able simulated result (floats kept exactly)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Result:
    """What one unit, or a whole pass, produced.

    ``chunks`` counts chunks driven to a terminal state (repaired or a
    clean ``RepairFailed``; for ``lifetime``, simulated chunk repairs).
    ``requests`` counts foreground requests issued and
    ``request_failures`` those that failed or were aborted.  ``sim``
    holds the simulated results, identical for a seed.
    """

    chunks: int = 0
    chunk_failures: int = 0
    requests: int = 0
    request_failures: int = 0
    #: Simulated cluster-years covered (``lifetime`` only).
    years: float = 0.0
    sim: list = field(default_factory=list)
    #: Per-unit objects the checks and summaries read.
    detail: list = field(default_factory=list)
    #: Repo tracer events per simulation, for the critical-path fold.
    traces: list = field(default_factory=list)

    def add(self, other: Result) -> None:
        self.chunks += other.chunks
        self.chunk_failures += other.chunk_failures
        self.requests += other.requests
        self.request_failures += other.request_failures
        self.years += other.years
        self.sim += other.sim
        self.detail += other.detail
        self.traces += other.traces


def _foreground(foreground) -> dict:
    """Request accounting of a drained :class:`ForegroundEngine`.

    Requests from a client that was already dead are dropped, not
    issued.  Every other request either produced an outcome or failed
    (no reconstruction possible, or aborted by a crash); failed reads
    are the misses of the read-latency percentiles.
    """
    registry = foreground.registry
    issued = int(registry.counter("fg_requests").value)
    dropped = int(registry.counter("fg_client_dead").value)
    return {
        "requests": issued - dropped,
        "failures": issued - dropped - len(foreground.outcomes),
        "reads": [
            o.latency for o in foreground.outcomes if o.request.kind == READ
        ],
        "missed_reads": int(registry.counter("fg_read_failures").value),
    }


def _read_rows(details: list[dict]) -> list[tuple]:
    reads = [latency for d in details for latency in d["reads"]]
    missed = sum(d["missed_reads"] for d in details)
    return percentile_rows("fg_read", reads, missed, "sim_ms", scale=1e3)


def percentile_rows(name: str, values, misses: int, unit: str, scale=1.0):
    """p50 and p99 rows of a latency sample, or why one is refused."""
    rows = []
    for q in (50, 99):
        samples = f"n={len(values) + misses} misses={misses}"
        try:
            value = percentile(values, q, misses) * scale
        except TooFewSamples as refusal:
            rows.append((f"{name}_p{q}", None, unit, f"refused: {refusal}"))
        else:
            rows.append((f"{name}_p{q}", value, unit, samples))
    return rows


def _mean_row(name: str, values: list[float], what: str) -> tuple:
    return (name, sum(values) / len(values), "sim_s",
            f"mean of {len(values)} {what}")


# ----------------------------------------------------------------------
# single_chunk: the Figure 5 shape
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Instance:
    instant: float
    requestor: int
    survivors: tuple[int, ...]


@dataclass(frozen=True)
class Cell:
    """One (trace, code) cell of Figure 5: repairs at congested instants."""

    trace: str
    n: int
    k: int
    instances: tuple[Instance, ...]


class SingleChunk:
    """PivotRepair single-chunk repairs at congested trace instants."""

    name = "single_chunk"
    fluid = True
    codes = ((6, 4), (9, 6), (14, 10))
    trace_seconds = 1500
    instants_per_cell = 125
    payload_bytes = 64

    def build(self, seed: int, scratch: Path) -> dict:
        networks, units = {}, []
        for name, profile in sorted(PROFILES.items()):
            trace = generate_trace(
                profile, node_count=NODES, duration=self.trace_seconds,
                seed=derive(seed, "trace", name),
            )
            networks[name] = trace.to_network(floor=REPAIR_FLOOR)
            for n, k in self.codes:
                instants = congested_instants(
                    trace, self.instants_per_cell,
                    seed=derive(seed, "instants", name, n, k),
                )
                instances = []
                for index, instant in enumerate(instants):
                    requestor, survivors = stripe_nodes_at(
                        trace, instant, n,
                        seed=derive(seed, "stripe", name, n, k, index),
                    )
                    instances.append(
                        Instance(instant, requestor, tuple(survivors))
                    )
                units.append(Cell(name, n, k, tuple(instances)))
        return {"seed": seed, "networks": networks, "units": units}

    def run_unit(self, inputs, cell: Cell, engine=None, traced=False):
        planner = pin_planning(PivotRepairPlanner(), 0.0)
        config = ExecutionConfig(chunk_size=CHUNK, engine=engine)
        network = inputs["networks"][cell.trace]
        results, traces = [], []
        for inst in cell.instances:
            # One tracer per repair: each repair is its own simulation.
            tracer = Tracer() if traced else NULL_TRACER
            results.append(repair_single_chunk(
                planner, network, inst.requestor, list(inst.survivors),
                cell.k, start_time=inst.instant, config=config,
                tracer=tracer,
            ))
            if traced:
                traces.append(tracer.events)
        return Result(
            chunks=len(results),
            sim=[{
                "transfer_seconds": [r.transfer_seconds for r in results],
                "bmin": [r.bmin for r in results],
                "bytes": [r.bytes_transferred for r in results],
            }],
            detail=[{"cell": cell, "results": results}],
            traces=traces,
        )

    def check(self, inputs: dict, result: Result) -> list[str]:
        """Rebuild every executed plan's bytes; Theorem 1 against RP."""
        problems = []
        rng = np.random.default_rng(derive(inputs["seed"], "payload"))
        rp = RPPlanner()
        stripe_id = 0
        for detail in result.detail:
            cell = detail["cell"]
            code = RSCode(cell.n, cell.k)
            cluster = Cluster(NODES, code)
            network = inputs["networks"][cell.trace]
            for inst, repaired in zip(cell.instances, detail["results"]):
                where = f"{cell.trace} ({cell.n},{cell.k}) t={inst.instant:g}"
                stripe_id += 1
                if not self._rebuilds(cluster, code, stripe_id, inst,
                                      repaired.plan, rng):
                    problems.append(f"{where}: rebuilt bytes differ")
                snapshot = BandwidthSnapshot.from_network(
                    network, inst.instant
                )
                baseline = rp.plan(
                    snapshot, inst.requestor, list(inst.survivors), cell.k
                )
                if repaired.bmin < baseline.bmin:
                    problems.append(
                        f"{where}: PivotRepair bmin {repaired.bmin!r} below "
                        f"RP's {baseline.bmin!r} (Theorem 1)"
                    )
        return problems

    def _rebuilds(self, cluster, code, stripe_id, inst, plan, rng) -> bool:
        """Encode small random chunks and rebuild the lost one via ``plan``.

        The lost chunk's node takes no part in the rebuild; any node
        outside the stripe and the requestor stands in for it.
        """
        used = set(inst.survivors) | {inst.requestor}
        lost_node = min(set(range(NODES)) - used)
        lost_index = stripe_id % code.n
        placement = list(inst.survivors)
        placement.insert(lost_index, lost_node)
        stripe = Stripe(stripe_id, code, placement)
        coded = code.encode([
            rng.integers(0, 256, self.payload_bytes, dtype=np.uint8)
            for _ in range(code.k)
        ])
        for chunk_index, node in enumerate(placement):
            cluster.nodes[node].store(
                stripe.chunk_id(chunk_index), coded[chunk_index]
            )
        rebuilt = cluster.rebuild_from_plan(stripe, lost_index, plan)
        return bool(np.array_equal(rebuilt, coded[lost_index]))

    def summary(self, result: Result) -> list[tuple]:
        transfer = [t for sim in result.sim for t in sim["transfer_seconds"]]
        return percentile_rows("chunk_repair_sim_s", transfer, 0, "sim_s")


# ----------------------------------------------------------------------
# fg_fullnode: the ``repro load`` shape
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    network: StarNetwork
    stripes: tuple
    failed: int
    requests: tuple


def _typical_node(stripes) -> int:
    """The node holding the mean number of chunks (lowest id on ties).

    Failing it keeps each scenario's repair the same size whatever the
    seed, so the seed varies where the chunks are, not how many.
    """
    held = [0] * NODES
    for stripe in stripes:
        for node in stripe.placement:
            held[node] += 1
    mean = sum(held) / NODES
    return min(range(NODES), key=lambda node: (abs(held[node] - mean), node))


class ForegroundFullNode:
    """Eq. 3 adaptive full-node repairs beside trace-modulated clients."""

    name = "fg_fullnode"
    fluid = True
    code = (9, 6)
    scenarios = 3
    stripes = 96
    arrival_rate = 120.0
    #: Foreground window (simulated s), sized to overlap the repair.
    window = 16.0

    def build(self, seed: int, scratch: Path) -> dict:
        units = []
        for index in range(self.scenarios):
            trace = generate_trace(
                PROFILES["TPC-DS"], node_count=NODES,
                duration=int(self.window) + 1,
                seed=derive(seed, "fg-trace", index),
            )
            stripes = place_stripes(
                self.stripes, RSCode(*self.code), NODES,
                np.random.default_rng(derive(seed, "placement", index)),
            )
            profile = LoadProfile(
                name="fg_fullnode", arrival_rate=self.arrival_rate,
                duration=self.window, read_fraction=0.9,
                request_size=int(mib(1)), zipf_s=0.9, modulation="trace",
            )
            requests = generate_requests(
                profile, stripes, NODES,
                seed=derive(seed, "requests", index),
                rate_profile=rate_profile_from_trace(trace),
            )
            units.append(Scenario(
                StarNetwork.uniform(NODES, trace.capacity), tuple(stripes),
                _typical_node(stripes), tuple(requests),
            ))
        return {"units": units}

    def run_unit(self, inputs, scenario: Scenario, engine=None, traced=False):
        tracer = Tracer() if traced else NULL_TRACER
        foreground = ForegroundEngine(
            scenario.stripes, scenario.requests,
            pin_planning(PivotRepairPlanner(), 0.0),
            failed_nodes={scenario.failed},
        )
        result = repair_full_node_adaptive(
            pin_planning(PivotRepairPlanner(), 0.0), scenario.network,
            scenario.stripes, scenario.failed,
            config=ExecutionConfig(chunk_size=CHUNK, engine=engine),
            foreground=foreground, governor=make_governor("adaptive"),
            tracer=tracer,
        )
        foreground.drain()
        counts = _foreground(foreground)
        return Result(
            chunks=result.chunks_repaired + result.chunks_failed,
            chunk_failures=result.chunks_failed,
            requests=counts["requests"],
            request_failures=counts["failures"],
            sim=[{
                "repair_seconds": result.total_seconds,
                "chunks_repaired": result.chunks_repaired,
                "end": foreground.sim.now,
                "latencies": [o.latency for o in foreground.outcomes],
            }],
            detail=[{"scenario": scenario, "result": result, **counts}],
            traces=[tracer.events] if traced else [],
        )

    def check(self, inputs: dict, result: Result) -> list[str]:
        """Every chunk of every failed node is repaired."""
        problems = []
        for index, detail in enumerate(result.detail):
            failed = detail["scenario"].failed
            lost = sum(
                1 for s in detail["scenario"].stripes
                if s.chunk_on_node(failed) is not None
            )
            outcome = detail["result"]
            if outcome.chunks_failed or outcome.chunks_repaired != lost:
                problems.append(
                    f"scenario {index}: {outcome.chunks_repaired} of {lost} "
                    f"chunks repaired, {outcome.chunks_failed} failed"
                )
        return problems

    def summary(self, result: Result) -> list[tuple]:
        makespans = [d["result"].total_seconds for d in result.detail]
        return [
            _mean_row("repair_sim_s", makespans, "full-node repairs"),
            *_read_rows(result.detail),
        ]


# ----------------------------------------------------------------------
# storm: the control plane after a rack outage
# ----------------------------------------------------------------------
@contextmanager
def _recording_foreground(sink: list):
    """Collect the foreground engines ``run_storm`` creates."""
    module = sys.modules["repro.controlplane.storm"]
    original = module.ForegroundEngine

    class Recording(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sink.append(self)

    module.ForegroundEngine = Recording
    try:
        yield
    finally:
        module.ForegroundEngine = original


class Storm:
    """``run_storm`` over seeds derived from the workload seed, journaled."""

    name = "storm"
    fluid = True
    storms = 4

    def build(self, seed: int, scratch: Path) -> dict:
        return {"units": [
            (StormConfig(seed=derive(seed, "storm", index)),
             scratch / f"storm-{index}.jsonl")
            for index in range(self.storms)
        ]}

    def run_unit(self, inputs, unit, engine=None, traced=False):
        config, path = unit
        tracer = Tracer() if traced else NULL_TRACER
        engines: list = []
        path.unlink(missing_ok=True)
        with _recording_foreground(engines), RepairJournal(path) as journal:
            report = run_storm(
                replace(config, engine=engine), tracer=tracer,
                journal=journal,
            )
        # Read the journal back as ``repro resume`` would.
        with RepairJournal.load(path) as loaded:
            done = loaded.done_stripes()
            marks = {stripe: loaded.watermark(stripe) for stripe in done}
            records = [
                (r.data.get("job"), r.data.get("stripe"))
                for r in loaded.all("task_done")
            ]
        [foreground] = engines
        counts = _foreground(foreground)
        fleet = report.fleet
        return Result(
            chunks=fleet.chunks_repaired + fleet.chunks_failed,
            chunk_failures=fleet.chunks_failed,
            requests=counts["requests"],
            request_failures=counts["failures"],
            sim=[{
                "total_seconds": report.total_seconds,
                "chunks_repaired": fleet.chunks_repaired,
                "chunks_failed": fleet.chunks_failed,
                "breach_seconds": report.breach_seconds,
                "decisions": fleet.decision_counts(),
                # Rate recomputations count the allocation engine's own
                # work, which differs between engines by design.
                "stats": {
                    key: value for key, value in report.sim_stats.items()
                    if key != "rate_recomputations"
                },
                "done": sorted(done),
                "marks": sorted(marks.items()),
                "latencies": [o.latency for o in foreground.outcomes],
            }],
            detail=[{
                "report": report, "done": done, "records": records,
                "journal_bytes": path.stat().st_size, **counts,
            }],
            traces=[tracer.events] if traced else [],
        )

    def check(self, inputs: dict, result: Result) -> list[str]:
        """Every job drains; the journal agrees with the fleet result."""
        problems = []
        for index, storm in enumerate(result.detail):
            fleet = storm["report"].fleet
            undrained = [j for j, ok in fleet.completed.items() if not ok]
            if undrained:
                problems.append(f"storm {index}: jobs {undrained} undrained")
            journaled: set = set()
            for job_id, outcome in fleet.jobs.items():
                done = {s for j, s in storm["records"] if j == job_id}
                failed = {f.stripe_id for f in outcome.failures}
                if len(done) != outcome.chunks_repaired or done & failed:
                    problems.append(
                        f"storm {index} {job_id}: journal done {sorted(done)}"
                        f" vs {outcome.chunks_repaired} repaired, failed "
                        f"{sorted(failed)}"
                    )
                journaled |= done
            if storm["done"] != journaled:
                problems.append(
                    f"storm {index}: done_stripes {sorted(storm['done'])} "
                    f"vs per-job {sorted(journaled)}"
                )
        return problems

    def summary(self, result: Result) -> list[tuple]:
        reports = [d["report"] for d in result.detail]
        return [
            _mean_row(
                "repair_sim_s", [r.total_seconds for r in reports], "storms"
            ),
            *_read_rows(result.detail),
            _mean_row(
                "slo_breach_s", [r.breach_seconds for r in reports], "storms"
            ),
        ]


# ----------------------------------------------------------------------
# lifetime: the Monte-Carlo durability study
# ----------------------------------------------------------------------
class Lifetime:
    """The pinned ``FixedDurations`` study: pivot vs conventional.

    The study's runs are split over several seeded ``run_lifetime``
    calls so that each unit is short enough to time repeatedly.
    """

    name = "lifetime"
    fluid = False
    studies = 4
    runs_per_study = 2

    def build(self, seed: int, scratch: Path) -> dict:
        durations = FixedDurations(
            {"pivot": 3600.0, "conventional": 4 * 3600.0}
        )
        return {"units": [
            (LifetimeConfig(
                years=4, runs=self.runs_per_study,
                seed=derive(seed, "lifetime", index),
                schemes=("pivot", "conventional"), stripes=64,
                disk_mttf_days=30.0, repair_streams=1,
            ), durations)
            for index in range(self.studies)
        ]}

    def run_unit(self, inputs, unit, engine=None, traced=False):
        config, durations = unit
        report = run_lifetime(
            config, durations=durations,
            tracer=Tracer() if traced else NULL_TRACER,
        )
        runs = [r for s in report.schemes.values() for r in s.runs]
        return Result(
            chunks=sum(
                r["repairs_completed"] + r["repairs_aborted"] for r in runs
            ),
            years=config.runs * config.years * len(config.schemes),
            sim=[{
                "digest": report.digest,
                "losses": {
                    name: s.total_losses for name, s in report.schemes.items()
                },
                "repairs": sum(r["repairs_completed"] for r in runs),
                "chunk_failures": sum(r["chunk_failures"] for r in runs),
            }],
            detail=[{"runs": config.runs}],
        )

    def check(self, inputs: dict, result: Result) -> list[str]:
        """PivotRepair's shorter repairs lose strictly fewer stripes."""
        pivot = sum(sim["losses"]["pivot"] for sim in result.sim)
        conventional = sum(sim["losses"]["conventional"] for sim in result.sim)
        if not pivot < conventional:
            return [
                f"pivot lost {pivot} stripes, conventional {conventional}: "
                "faster repair must lose fewer"
            ]
        return []

    def summary(self, result: Result) -> list[tuple]:
        runs = sum(d["runs"] for d in result.detail)
        return [(
            "data_loss_events",
            sum(sim["losses"]["pivot"] for sim in result.sim), "count",
            f"pivot, {runs} runs",
        )]


WORKLOADS = {
    w.name: w for w in (SingleChunk(), ForegroundFullNode(), Storm(), Lifetime())
}
