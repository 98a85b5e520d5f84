"""Benchmark entry point: one workload, one seed, one measured run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload single_chunk --seed 1 \\
        --seconds 10 --trace 0

The host load is one process and one thread (numpy thread pools pinned
to 1) driven as a closed loop over the workload's units: the next unit
run starts when the previous one returns.  Inputs come from ``--seed``
only.

``--trace 0`` measures the end-to-end metrics with the program
untouched, checks the outputs, and replays the first unit on the
reference allocation engine, which must reproduce every simulated
number.  Its JSON metrics are ``setup_s`` (median fresh import plus
median input build), ``ops_per_ref_s`` and ``peak_rss_mib``.
``chunks_per_s`` counts chunks driven to a terminal state per host
second, from each unit's median time; ``ops_per_s`` counts those chunks
plus the foreground requests issued, the work that dominates the host
time of ``fg_fullnode`` and ``storm``.  ``ops_per_ref_s`` divides each
unit run's time by the time of a fixed pure-Python reference loop
sampled around it, so that drift in a shared host's speed cancels.
The workload-specific simulated metrics (repair times, exact
foreground read percentiles, SLO breach, data loss) and ``failed_frac``
are printed above the JSON with their sample counts.
``--trace 1`` runs each unit untraced and traced in pairs: the traced
runs wrap each layer's public entry points (see ``layers.py``) and give
the per-layer host metrics, plus the tracing overhead as the median of
the paired deltas.  One further cycle with the repo's causal tracer
gives the simulated waits along each repair's critical path.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from stats import TooFewSamples, median_quartiles, percentile

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("single_chunk", "fg_fullnode", "storm", "lifetime")

#: Fresh-interpreter imports and input builds per run; ``setup_s`` is
#: the median import plus the median build.
SETUP_REPEATS = 3
#: Fewest measured cycles (one run of every unit) in an untraced run;
#: the traced run pairs every unit at least once.
MIN_CYCLES = 3
#: Seconds between reference-loop samples in the measured phase.
REFERENCE_EVERY = 0.5
#: Reference-loop seconds of the nominal host that ``ops_per_ref_s``
#: is scaled to (about what the loop takes on one 2.1 GHz x86-64 core).
REFERENCE_HOST_S = 0.080
#: Tolerance of the self-time tiling check, relative to the phase.
TILE_RTOL = 1e-6
#: Critical-path categories reported as simulated waits.
WAITS = ("transfer", "contention", "governor", "stall", "queue")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _pin_threads() -> None:
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[name] = "1"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _line(name: str, value, unit: str, note: str = "") -> None:
    shown = "-" if value is None else f"{value:.6g}"
    print(f"  {name:<34} {shown:>14} {unit:<9} {note}".rstrip())


def _median_seconds(fn):
    """Call ``fn`` SETUP_REPEATS times; (last result, median seconds)."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return result, statistics.median(times)


def _fresh_import() -> None:
    """Import the program in a fresh interpreter, as a run starts."""
    paths = (ROOT / "src", Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantise the measured time.
    subprocess.run(
        [sys.executable, "-c", "import workloads"], env=env, check=True
    )


class UnitLog:
    """Each unit's first result, and whether later runs repeated it."""

    def __init__(self, units: int, fingerprint):
        self._fingerprint = fingerprint
        self.first: list = [None] * units
        self._want: list = [None] * units
        self.problems: list[str] = []

    def note(self, index: int, result, what: str) -> None:
        digest = self._fingerprint(result.sim)
        if self.first[index] is None:
            self.first[index], self._want[index] = result, digest
        elif digest != self._want[index]:
            self.problems.append(
                f"unit {index}: {what} simulated results differ"
            )

    def merged(self, workloads):
        total = workloads.Result()
        for result in self.first:
            total.add(result)
        return total


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop (heap, dict, float work).

    It shares no code with the program, so its time moves only with the
    host's speed, which drifts on a shared machine.
    """
    rng = random.Random(7)
    heap, table, total = [], {}, 0.0
    started = time.perf_counter()
    for i in range(80_000):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        table[i & 1023] = table.get(i & 1023, 0.0) + x
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return time.perf_counter() - started


def measure(workload, inputs, seconds: float, log: UnitLog):
    """Closed-loop cycles over the units for at least ``seconds``.

    Returns, per unit, one ``(host seconds, reference seconds)`` pair per
    cycle, where the reference is the mean of the reference-loop samples
    just before and just after that unit ran.  Samples are taken
    between units, at most every REFERENCE_EVERY seconds, and once more
    at the end.  Only each unit's first result is kept, so memory does
    not grow with the run.
    """
    units = inputs["units"]
    runs: list[list] = [[] for _ in units]
    waiting: list[list] = []  # runs still missing their "after" sample
    before = reference_loop()
    began = time.perf_counter()
    next_reference = began + REFERENCE_EVERY
    while True:
        for index, unit in enumerate(units):
            if time.perf_counter() >= next_reference:
                before = reference_loop()
                for run in waiting:
                    run[1] = (run[1] + before) / 2
                waiting.clear()
                next_reference = time.perf_counter() + REFERENCE_EVERY
            started = time.perf_counter()
            result = workload.run_unit(inputs, unit)
            run = [time.perf_counter() - started, before]
            runs[index].append(run)
            waiting.append(run)
            log.note(index, result, "repeated")
            del result
        done = time.perf_counter() - began >= seconds
        if done and len(runs[0]) >= MIN_CYCLES:
            after = reference_loop()
            for run in waiting:
                run[1] = (run[1] + after) / 2
            return runs


def per_host_second(amounts: list[float], runs: list[list]) -> float:
    """Work per host second: each unit's work over its median time."""
    return sum(amounts) / sum(
        statistics.median(seconds for seconds, _ in unit) for unit in runs
    )


def per_reference_second(amounts: list[float], runs: list[list]) -> float:
    """Work per second of a host whose reference loop takes REFERENCE_HOST_S.

    Each run's time is divided by the reference time around it, so host
    drift at the time scale of a unit cancels; each unit contributes
    the median of its ratios.
    """
    return sum(amounts) / sum(
        statistics.median(seconds / reference for seconds, reference in unit)
        * REFERENCE_HOST_S
        for unit in runs
    )


def end_to_end(args, workloads, workload, inputs, setup_s: float):
    log = UnitLog(len(inputs["units"]), workloads.fingerprint)
    runs = measure(workload, inputs, args.seconds, log)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = log.merged(workloads)
    problems = log.problems + workload.check(inputs, first)
    differential = "n/a (no fluid simulation)"
    if workload.fluid:
        # The engine differential: replay the first unit on the
        # reference allocation engine; every simulated number must match.
        replay = workload.run_unit(inputs, inputs["units"][0], "reference")
        same = workloads.fingerprint(replay.sim) == workloads.fingerprint(
            log.first[0].sim
        )
        differential = "unit 0 on the reference engine: " + (
            "identical" if same else "DIFFERS"
        )
        if not same:
            problems.append("engine differential: simulated results differ")
    cycles = len(runs[0])
    chunks_per_s = per_host_second([r.chunks for r in log.first], runs)
    operations = [r.chunks + r.requests for r in log.first]
    ops_per_s = per_host_second(operations, runs)
    ops_per_ref_s = per_reference_second(operations, runs)

    print(f"workload {workload.name} seed {args.seed}: {cycles} cycles over "
          f"{len(runs)} units in "
          f"{sum(seconds for unit in runs for seconds, _ in unit):.3f} s")
    _line("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} fresh imports "
          f"+ median of {SETUP_REPEATS} input builds")
    note = f"median per unit over {cycles} cycles, {first.chunks} chunks"
    _line("chunks_per_s", chunks_per_s, "chunks/s", note)
    _line("ops_per_s", ops_per_s, "ops/s",
          f"{sum(operations)} chunks and foreground requests per cycle")
    _line("ops_per_ref_s", ops_per_ref_s, "ops/s",
          f"each run over the reference loop around it, x "
          f"{REFERENCE_HOST_S * 1e3:g} ms")
    reference_ms = statistics.median(r for unit in runs for _, r in unit)
    _line("reference_loop_ms", reference_ms * 1e3, "ms",
          "median over the runs")
    if first.years:
        years = per_host_second([r.years for r in log.first], runs)
        _line("sim_years_per_s", years, "years/s",
              f"{first.years:g} simulated years per cycle")
    _line("peak_rss_mib", rss_mib, "MiB", "ru_maxrss")
    noise = statistics.median(
        (q3 - q1) / q2 for q1, q2, q3 in (
            statistics.quantiles([seconds for seconds, _ in unit], n=4)
            for unit in runs
        )
    )
    _line("host_noise", noise, "ratio",
          "per-unit host time IQR / median, median over units")
    attempted = first.chunks + first.requests
    failures = first.chunk_failures + first.request_failures
    _line("failed_frac", failures / attempted, "ratio",
          f"{first.chunk_failures} chunks + {first.request_failures} "
          f"requests failed of {attempted} per cycle")
    for name, value, unit, note in workload.summary(first):
        _line(name, value, unit, note)
    print(f"  simulated fingerprint {workloads.fingerprint(first.sim)}; "
          f"{differential}")
    _report_problems(problems)
    return {
        "correct": not problems,
        "attempted": cycles * attempted,
        "failed": len(problems),
        "metrics": {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_ref_s": _metric(ops_per_ref_s, "ops/s"),
            "peak_rss_mib": _metric(rss_mib, "MiB"),
        },
    }


def _report_problems(problems: list[str]) -> None:
    if not problems:
        print("  checks: all passed")
        return
    print(f"  checks: {len(problems)} FAILED", file=sys.stderr)
    for problem in problems[:20]:
        print(f"    {problem}", file=sys.stderr)


def traced_run(args, workloads, workload, inputs):
    from repro.obs import critical_paths

    setup_clock = layers.LayerClock()
    patches = layers.install(setup_clock, ROOT)
    try:
        setup_clock.run(workload.build, args.seed, inputs["scratch"])
    finally:
        patches.restore()

    units = inputs["units"]
    log = UnitLog(len(units), workloads.fingerprint)
    clock = layers.LayerClock(record=("core.plan",))
    pairs: list[tuple[float, float]] = []
    stats_sum = {"steps": 0, "rate_recomputations": 0, "tasks_submitted": 0}
    cycles = 0
    began = time.perf_counter()
    while True:
        for index, unit in enumerate(units):
            times = {}
            for traced in (False, True) if len(pairs) % 2 else (True, False):
                if traced:
                    patches = layers.install(clock, ROOT)
                    try:
                        result, times[traced] = clock.run(
                            workload.run_unit, inputs, unit
                        )
                    finally:
                        patches.restore()
                    for name in ("network.loop", "network.submit"):
                        for sim in clock.receivers.pop(name, {}).values():
                            for key in stats_sum:
                                stats_sum[key] += getattr(sim.stats, key)
                else:
                    started = time.perf_counter()
                    result = workload.run_unit(inputs, unit)
                    times[traced] = time.perf_counter() - started
                log.note(index, result, "traced" if traced else "untraced")
                del result
            pairs.append((times[False], times[True]))
        cycles += 1
        if time.perf_counter() - began >= args.seconds:
            break

    problems = log.problems
    waits = dict.fromkeys(WAITS, 0.0)
    if workload.fluid:
        # Simulated waits: one more pass with the repo's causal tracer,
        # outside the timed phase (its numbers are exact for the seed).
        for index, unit in enumerate(units):
            result = workload.run_unit(inputs, unit, traced=True)
            log.note(index, result, "causally traced")
            for events in result.traces:
                report = critical_paths(events)
                for key in WAITS:
                    waits[key] += report.categories.get(key, 0.0)
            del result
    first = log.merged(workloads)
    problems += workload.check(inputs, first)
    traced_phase = sum(t for _, t in pairs)
    tiled = sum(clock.self_s.values())
    if abs(tiled - traced_phase) > TILE_RTOL * traced_phase:
        problems.append(
            f"self times sum to {tiled!r} s, traced phase is "
            f"{traced_phase!r} s"
        )
    metrics = _layer_metrics(
        clock, setup_clock, cycles, first, stats_sum, waits
    )
    notes = {}
    plan_us = [d * 1e6 for d in clock.durations.get("core.plan", [])]
    for q in (50, 99):
        name = f"core.plan_us_p{q}"
        try:
            metrics[name] = _metric(percentile(plan_us, q), "us")
            notes[name] = f"n={len(plan_us)}"
        except TooFewSamples as refusal:
            metrics[name] = _metric(0.0, "us")
            notes[name] = f"refused, reported as 0: {refusal}"
    overhead = [traced / plain - 1.0 for plain, traced in pairs]
    middle, low, high = median_quartiles(overhead)
    metrics["obs.trace_overhead_frac"] = _metric(middle, "ratio")
    metrics["obs.trace_overhead_frac_q1"] = _metric(low, "ratio")
    metrics["obs.trace_overhead_frac_q3"] = _metric(high, "ratio")
    notes["obs.trace_overhead_frac"] = f"median of {len(pairs)} pairs"

    print(f"workload {workload.name} seed {args.seed}: {cycles} cycles of "
          f"untraced/traced unit pairs; per-layer values are per traced "
          f"cycle")
    print(f"  self times tile the traced phase: {tiled:.6f} s of "
          f"{traced_phase:.6f} s")
    for name, metric in metrics.items():
        _line(name, metric["value"], metric["unit"], notes.get(name, ""))
    _report_problems(problems)
    return {
        "correct": not problems,
        "attempted": cycles * (first.chunks + first.requests),
        "failed": len(problems),
        "metrics": metrics,
    }


def _layer_metrics(clock, setup_clock, count, result, stats, waits):
    """Per-traced-cycle values of every layer metric (0 when idle).

    The set-up layers (trace and request generation) add the self time
    of one traced input build to their per-cycle time.
    """
    metrics = {}
    for layer in layers.LAYERS:
        seconds = clock.self_s.get(layer.name, 0.0) / count
        seconds += setup_clock.self_s.get(layer.name, 0.0)
        metrics[layer.time_metric] = _metric(seconds, "s")
        if layer.calls_metric:
            calls = clock.calls.get(layer.name, 0) / count
            metrics[layer.calls_metric] = _metric(calls, "count")
    for key, total in stats.items():
        metrics[f"network.{key}"] = _metric(total / count, "count")
    steps = stats["steps"] / count
    loop = metrics["network.loop_self_s"]["value"]
    metrics["network.loop_us_per_step"] = _metric(
        loop / steps * 1e6 if steps else 0.0, "us"
    )
    metrics["loadgen.requests"] = _metric(result.requests, "count")
    metrics["controlplane.decisions"] = _metric(
        sum(sum(s["decisions"].values()) for s in result.sim
            if "decisions" in s),
        "count",
    )
    metrics["resilience.journal_bytes"] = _metric(
        sum(d.get("journal_bytes", 0) for d in result.detail), "bytes"
    )
    repairs = sum(s.get("repairs", 0) for s in result.sim)
    metrics["lifetime.repairs"] = _metric(repairs, "count")
    metrics["lifetime.chunk_failures"] = _metric(
        sum(s.get("chunk_failures", 0) for s in result.sim), "count"
    )
    simulate = metrics["lifetime.simulate_self_s"]["value"]
    metrics["lifetime.us_per_repair"] = _metric(
        simulate / repairs * 1e6 if repairs else 0.0, "us"
    )
    for key in WAITS:
        metrics[f"critpath.{key}_sim_s"] = _metric(waits[key], "sim_s")
    metrics["unattributed_self_s"] = _metric(
        clock.self_s.get(layers.ROOT, 0.0) / count, "s"
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    _pin_threads()
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"error: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    try:
        import workloads
    except ImportError as error:
        print(f"error: cannot import the program: {error}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        scratch = Path(tmp)
        inputs, build_s = _median_seconds(
            lambda: workload.build(args.seed, scratch)
        )
        inputs["scratch"] = scratch
        if args.trace:
            result = traced_run(args, workloads, workload, inputs)
        else:
            result = end_to_end(
                args, workloads, workload, inputs,
                _median_seconds(_fresh_import)[1] + build_s,
            )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
