"""Exact critical-path attribution from the causal span DAG.

:mod:`repro.obs.analysis` answers *how fast did each flow run versus its
planned bottleneck*; this module answers the stricter scheduling
question: **which chain of intervals determined each repair's makespan,
and what category of work was each second of that chain?**

Every repair executor opens a ``repair.task`` span when the repair is
*handed to the orchestrator* (so scheduler queueing is inside the span)
and closes it when the rebuilt chunk lands.  Everything the repair does
— attempt flows, hedge flows, planning charges, retry backoffs, the
pipeline-fill tail, multi-chunk decode — is emitted as a child interval
(``parent_id`` pointing at the task span) with ``links`` recording what
each interval *followed from* (the previous attempt, the planning span,
the racing primary).  The critical path of a repair is then recovered by
a backward covering walk over its child intervals:

* starting from the task's end, repeatedly extend backwards through the
  child interval that was active at the cursor (preferring explicit
  dependency spans, then the flow that carried progress furthest);
* where no child interval covers the cursor, the hole is a **gap** —
  queue wait before the first attempt started, stall otherwise.

By construction the emitted segments partition ``[start, end]`` exactly,
so their durations sum to the measured makespan to float precision — an
invariant this module checks per repair (``residual``) and the CI smoke
job asserts at ``1e-9``.

Each segment's seconds are then attributed to categories.  Spans, rate
profiles and governor caps come from the trace digest shared with
:mod:`repro.obs.analysis`, and flow segments are subdivided by the same
interval classifier ``diagnose`` folds over a whole flow — here clipped
to the segment — against the *claimed* ``B_min`` stamped on the flow at
submit: time at the reference is ``transfer``, excess below it is
``contention`` (``governor`` when the rate sat at the QoS cap, ``hedge``
when another flow of the same repair was racing), near-zero rate is
``stall``.
Explicit spans map directly — ``repair.planning`` → ``planning``,
``repair.fill``/``repair.decode`` → ``pipeline``, ``repair.backoff`` →
``stall``.  Contention seconds are further charged to the *rivals*
whose flows shared a link with the repair at that instant: foreground
**tenants** (``tenant`` is stamped on foreground flows by the load
generator) and other concurrent **repairs** — labelled by owning
control-plane job (``repair:<job>``, from the ``job`` field the fleet
plane stamps on task spans) or, for single-job traces, by stripe track
(``repair:<stripe>``).

The decomposition is *exact by category too*: per repair,
``sum(categories.values()) == makespan`` within float tolerance.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.obs.analysis import Span, _classify, _digest, _resources

__all__ = [
    "Span",
    "PathSegment",
    "RepairPath",
    "CritPathReport",
    "critical_paths",
    "crosscheck",
]

#: Per-repair residual tolerance for the tiling invariant.
TILE_TOL = 1e-9

#: Categories in render order.
CATEGORIES = (
    "transfer", "contention", "governor", "stall", "queue",
    "planning", "pipeline", "hedge",
)

_GLYPHS = {
    "transfer": "#", "contention": "~", "governor": "g", "stall": ".",
    "queue": "q", "planning": "p", "pipeline": "=", "hedge": "h",
}

#: Child spans that are explicit dependency intervals (not flows); the
#: covering walk prefers them over flows when both cover an instant.
_EXPLICIT = {
    "repair.planning": "planning",
    "repair.fill": "pipeline",
    "repair.decode": "pipeline",
    "repair.backoff": "stall",
}


@dataclass(frozen=True)
class PathSegment:
    """One interval of a repair's critical path."""

    start: float
    end: float
    #: Dominant category ("gap" segments are queue/stall; flow segments
    #: report "transfer" here and split their seconds in ``categories``).
    category: str
    #: Span the segment came from; None for gaps.
    span_id: int | None = None
    name: str = ""
    #: Exact seconds-per-category decomposition of this segment
    #: (sums to ``duration``).
    categories: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "category": self.category,
            "span_id": self.span_id,
            "name": self.name,
            "categories": {
                key: self.categories[key] for key in sorted(self.categories)
            },
        }


@dataclass
class RepairPath:
    """The reconstructed critical path of one repair."""

    label: str
    track: str
    scheme: str
    start: float
    end: float
    failed: bool
    segments: list[PathSegment]
    #: Seconds per category, summed over segments; sums to ``makespan``.
    categories: dict[str, float]
    #: blame label -> contention seconds this repair lost to that
    #: contender — a foreground tenant or a concurrent ``repair:<id>``
    #: (a partition of ``categories["contention"]``).
    tenants: dict[str, float]
    #: ``makespan - sum(segment durations)`` — the tiling invariant.
    residual: float
    #: ``transfer_seconds`` stamped on the task span's end, if any.
    reported_transfer: float | None = None

    @property
    def makespan(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "track": self.track,
            "scheme": self.scheme,
            "start": self.start,
            "end": self.end,
            "makespan": self.makespan,
            "failed": self.failed,
            "residual": self.residual,
            "reported_transfer": self.reported_transfer,
            "categories": {
                key: self.categories[key] for key in sorted(self.categories)
            },
            "tenants": {
                key: self.tenants[key] for key in sorted(self.tenants)
            },
            "segments": [seg.to_dict() for seg in self.segments],
        }


@dataclass
class CritPathReport:
    """Critical paths of every repair in a trace, plus aggregates."""

    repairs: list[RepairPath]
    #: Seconds per category summed over repairs.
    categories: dict[str, float]
    #: tenant -> contention seconds charged across all repairs.
    tenants: dict[str, float]
    anomalies: list[str] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(
            (abs(path.residual) for path in self.repairs), default=0.0
        )

    def to_dict(self) -> dict:
        return {
            "repairs": [path.to_dict() for path in self.repairs],
            "categories": {
                key: self.categories[key] for key in sorted(self.categories)
            },
            "tenants": {
                key: self.tenants[key] for key in sorted(self.tenants)
            },
            "max_residual": self.max_residual,
            "anomalies": list(self.anomalies),
        }

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, compact separators)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    # ------------------------------------------------------------------
    # ASCII waterfall ("repro critpath")
    # ------------------------------------------------------------------
    def render(self, width: int = 48, limit: int = 20) -> str:
        from repro.reporting import format_seconds

        lines = []
        n = len(self.repairs)
        total = sum(path.makespan for path in self.repairs)
        lines.append(
            f"critical paths of {n} repair(s), "
            f"{format_seconds(total)} summed makespan, "
            f"max tiling residual {self.max_residual:.2e}s"
        )
        if self.categories:
            parts = "  ".join(
                f"{key} {format_seconds(self.categories[key])}"
                for key in CATEGORIES if self.categories.get(key, 0.0) > 0
            )
            lines.append(f"critical-path seconds: {parts}")
        if self.tenants:
            parts = "  ".join(
                f"{tenant} {format_seconds(seconds)}"
                for tenant, seconds in sorted(
                    self.tenants.items(), key=lambda kv: (-kv[1], kv[0])
                )
            )
            lines.append(f"contention by tenant: {parts}")
        if self.repairs:
            t0 = min(path.start for path in self.repairs)
            t1 = max(path.end for path in self.repairs)
            span = max(t1 - t0, 1e-12)
            lines.append(
                f"waterfall [{format_seconds(t0)} .. {format_seconds(t1)}] "
                + " ".join(
                    f"{glyph}={key}" for key, glyph in _GLYPHS.items()
                )
            )
            for path in self.repairs[:limit]:
                offset = round(width * (path.start - t0) / span)
                bar = _bar(path, max(round(width * path.makespan / span), 1))
                flag = " FAILED" if path.failed else ""
                lines.append(
                    f"  {path.label:<14} |{' ' * offset}{bar}| "
                    f"{format_seconds(path.makespan)}{flag}"
                )
            if n > limit:
                lines.append(f"  ... and {n - limit} more")
        if self.anomalies:
            lines.append("ANOMALIES:")
            lines.extend(f"  ! {issue}" for issue in self.anomalies)
        else:
            lines.append("anomalies: none")
        return "\n".join(lines)


def _bar(path: RepairPath, width: int) -> str:
    """Time-ordered glyph bar: each cell shows the critical-path
    segment's dominant category at that instant."""
    makespan = path.makespan
    if makespan <= 0 or width <= 0:
        return "#"
    cells = []
    for i in range(width):
        t = path.start + (i + 0.5) * makespan / width
        glyph = "#"
        for seg in path.segments:
            if seg.start <= t < seg.end or (
                seg is path.segments[-1] and t >= seg.end
            ):
                dominant = max(
                    seg.categories, key=lambda k: seg.categories[k],
                    default=seg.category,
                )
                glyph = _GLYPHS.get(dominant, "#")
                break
        cells.append(glyph)
    return "".join(cells)


# ----------------------------------------------------------------------
# The covering walk
# ----------------------------------------------------------------------
def _covering_walk(
    task: Span, children: list[Span], first_flow_start: float | None
) -> list[tuple[float, float, Span | None, str]]:
    """Partition ``[task.start, task.end]`` into (start, end, span, gapkind).

    Walks backward from ``task.end``.  At each cursor, among child
    intervals covering it, explicit dependency spans win over flows and
    longer coverage wins among equals; holes become gaps, classified as
    ``queue`` before the repair's first flow ever started and ``stall``
    after.  The emitted triples abut exactly, so the partition is a
    tiling by construction.
    """
    eps = 1e-15
    segments: list[tuple[float, float, Span | None, str]] = []
    cursor = task.end
    guard = 4 * len(children) + 16
    while cursor > task.start + eps and guard > 0:
        guard -= 1
        covering = [
            child for child in children
            if child.start < cursor - eps and child.end >= cursor - 1e-12
        ]
        if covering:
            best = min(
                covering,
                key=lambda child: (
                    0 if child.name in _EXPLICIT else 1,
                    child.start,
                    child.span_id,
                ),
            )
            start = max(best.start, task.start)
            segments.append((start, cursor, best, ""))
            cursor = start
            continue
        # A hole: back up to the latest child edge before the cursor.
        prev = max(
            [task.start]
            + [
                child.end for child in children
                if task.start <= child.end < cursor - eps
            ]
            + [
                child.start for child in children
                if task.start <= child.start < cursor - eps
            ],
        )
        gapkind = (
            "queue"
            if first_flow_start is None or cursor <= first_flow_start + 1e-12
            else "stall"
        )
        segments.append((prev, cursor, None, gapkind))
        cursor = prev
    segments.reverse()
    return segments


# ----------------------------------------------------------------------
# Category + tenant attribution
# ----------------------------------------------------------------------
def _flow_categories(
    flow: Span,
    record,
    start: float,
    end: float,
    cap_timeline,
    sibling_flows: list[Span],
    contenders: list[tuple[str, Span]],
    tenants_out: dict[str, float],
) -> dict[str, float]:
    """Split a flow segment's seconds into categories, exactly.

    Every dt of the segment lands in exactly one bucket's tally (the
    sub-reference excess is split fractionally between ``transfer`` and
    the loss bucket), so the values sum to ``end - start``.
    ``record`` is the flow's digest entry (its rate profile).
    ``contenders`` are (blame label, flow) pairs — foreground tenants
    and other repairs' flows — charged for contention seconds when they
    shared a link with this flow at that instant.
    """
    if not record.rates:
        # No rate profile recorded (e.g. a trimmed trace): the whole
        # segment is transfer time — never misread silence as a stall.
        return {"transfer": end - start}
    out: dict[str, float] = {}
    ref = flow.fields.get("bmin")
    ref = float(ref) if ref else None
    resources = _resources(flow.fields.get("edges", []))
    for s, e, rate, verdict in _classify(record, ref, cap_timeline,
                                         start, end):
        dt = e - s
        if verdict == "stall":
            out["stall"] = out.get("stall", 0.0) + dt
            continue
        if verdict == "above":
            out["transfer"] = out.get("transfer", 0.0) + dt
            continue
        carried = dt * rate / ref
        excess = dt - carried
        out["transfer"] = out.get("transfer", 0.0) + carried
        racing = any(
            other.start < e and other.end > s for other in sibling_flows
        )
        bucket = "hedge" if racing else verdict
        out[bucket] = out.get(bucket, 0.0) + excess
        if bucket == "contention" and excess > 0:
            blamed = sorted(
                {
                    name
                    for name, other in contenders
                    if other.start < e and other.end > s
                    and resources & _resources(
                        other.fields.get("edges", [])
                    )
                }
            )
            for tenant in blamed or ["(unattributed)"]:
                tenants_out[tenant] = (
                    tenants_out.get(tenant, 0.0) + excess / max(
                        len(blamed), 1
                    )
                )
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def critical_paths(events: Sequence) -> CritPathReport:
    """Reconstruct the exact critical path of every repair in a trace."""
    digest = _digest(events)
    spans = digest.spans
    children_of: dict[int, list[Span]] = {}
    for span in spans.values():
        if span.parent_id is not None:
            children_of.setdefault(span.parent_id, []).append(span)
    fg_contenders = [
        (str(span.fields["tenant"]), span)
        for span in spans.values()
        if span.name == "flow" and span.fields.get("kind") == "foreground"
        and span.fields.get("tenant") is not None
    ]
    tasks = sorted(
        (s for s in spans.values() if s.name == "repair.task"),
        key=lambda s: (s.start, s.span_id),
    )
    task_label = {
        # Control-plane traces stamp the owning job on every repair
        # task; blame then names the rival *repair* ("repair:node3")
        # rather than only its per-stripe track, so fleet contention
        # aggregates per job.
        task.span_id: (
            f"repair:{task.fields['job']}"
            if task.fields.get("job") is not None
            else f"repair:{task.track.split(':', 1)[-1]}"
        )
        for task in tasks
    }
    task_flows = {
        task.span_id: [
            child for child in children_of.get(task.span_id, [])
            if child.name == "flow"
        ]
        for task in tasks
    }
    anomalies = [
        f"unclosed span {event.name!r} on {event.track!r} at t={event.t:.6g}"
        for event in digest.unclosed
    ]
    paths: list[RepairPath] = []
    totals: dict[str, float] = {}
    tenant_totals: dict[str, float] = {}
    for task in tasks:
        children = sorted(
            children_of.get(task.span_id, []),
            key=lambda s: (s.start, s.span_id),
        )
        flows = [child for child in children if child.name == "flow"]
        first_flow = min((f.start for f in flows), default=None)
        contenders = fg_contenders + [
            (task_label[other_id], flow)
            for other_id, other_flows in task_flows.items()
            if other_id != task.span_id
            for flow in other_flows
        ]
        walk = _covering_walk(task, children, first_flow)
        segments: list[PathSegment] = []
        categories: dict[str, float] = {}
        tenants: dict[str, float] = {}
        for start, end, child, gapkind in walk:
            if child is None:
                seg_cats = {gapkind: end - start}
                segments.append(
                    PathSegment(
                        start=start, end=end, category=gapkind,
                        categories=seg_cats,
                    )
                )
            elif child.name == "flow":
                siblings = [
                    other for other in flows
                    if other.span_id != child.span_id
                ]
                seg_cats = _flow_categories(
                    child, digest.flow_of_span[child.span_id],
                    start, end, digest.caps, siblings, contenders, tenants,
                )
                if not seg_cats:
                    seg_cats = {"transfer": end - start}
                segments.append(
                    PathSegment(
                        start=start, end=end, category="transfer",
                        span_id=child.span_id,
                        name=str(child.fields.get("label", child.name)),
                        categories=seg_cats,
                    )
                )
            else:
                category = _EXPLICIT.get(child.name, "stall")
                seg_cats = {category: end - start}
                segments.append(
                    PathSegment(
                        start=start, end=end, category=category,
                        span_id=child.span_id, name=child.name,
                        categories=seg_cats,
                    )
                )
            for key, value in seg_cats.items():
                categories[key] = categories.get(key, 0.0) + value
        covered = sum(seg.duration for seg in segments)
        residual = task.duration - covered
        label = task.track.split(":", 1)[-1]
        label = f"repair:{label}"
        reported = task.fields.get("transfer_seconds")
        path = RepairPath(
            label=label,
            track=task.track,
            scheme=str(task.fields.get("scheme", "")),
            start=task.start,
            end=task.end,
            failed=bool(task.fields.get("failed", False)),
            segments=segments,
            categories=categories,
            tenants=tenants,
            residual=residual,
            reported_transfer=(
                float(reported) if reported is not None else None
            ),
        )
        if abs(residual) > max(TILE_TOL, 1e-12 * abs(task.duration)):
            anomalies.append(
                f"{label}: critical path covers {covered:.9g}s of "
                f"{task.duration:.9g}s makespan "
                f"(residual {residual:.3g}s)"
            )
        cat_residual = task.duration - sum(categories.values())
        if abs(cat_residual) > max(TILE_TOL, 1e-12 * abs(task.duration)):
            anomalies.append(
                f"{label}: category seconds miss makespan by "
                f"{cat_residual:.3g}s"
            )
        if (
            path.reported_transfer is not None
            and path.reported_transfer > task.duration + 1e-9
        ):
            anomalies.append(
                f"{label}: reported transfer_seconds "
                f"{path.reported_transfer:.6g} exceeds span makespan "
                f"{task.duration:.6g}"
            )
        for key, value in categories.items():
            totals[key] = totals.get(key, 0.0) + value
        for tenant, value in tenants.items():
            tenant_totals[tenant] = tenant_totals.get(tenant, 0.0) + value
        paths.append(path)
    return CritPathReport(
        repairs=paths,
        categories=totals,
        tenants=tenant_totals,
        anomalies=anomalies,
    )


def crosscheck(report: CritPathReport, diagnosis) -> list[str]:
    """Consistency checks against :func:`repro.obs.analysis.diagnose`.

    The two views measure different cuts of the same trace — ``diagnose``
    decomposes *every repair flow's* duration, the critical path covers
    only the chain that bound each makespan — so the checks are
    directional: critical-path loss categories cannot exceed what the
    flow decomposition saw across all flows, and both must agree on
    whether repairs happened at all.
    """
    issues: list[str] = []
    if bool(report.repairs) != bool(diagnosis.repairs):
        issues.append(
            f"critpath saw {len(report.repairs)} repair task(s) but "
            f"diagnose saw {len(diagnosis.repairs)} repair flow(s)"
        )
        return issues
    tol = 1e-6 + 1e-3 * sum(d.duration for d in diagnosis.repairs)
    for key in ("contention", "governor"):
        mine = report.categories.get(key, 0.0)
        theirs = diagnosis.totals.get(key, 0.0)
        if mine > theirs + tol:
            issues.append(
                f"critical-path {key} {mine:.6g}s exceeds diagnose total "
                f"{theirs:.6g}s (critpath covers a subset of flow time)"
            )
    flow_time = sum(
        seg.duration
        for path in report.repairs
        for seg in path.segments
        if seg.span_id is not None and seg.category == "transfer"
    )
    diag_time = sum(d.duration for d in diagnosis.repairs)
    if flow_time > diag_time * (1 + 1e-6) + 1e-6:
        issues.append(
            f"critical-path flow time {flow_time:.6g}s exceeds total "
            f"diagnosed flow time {diag_time:.6g}s"
        )
    if not math.isfinite(report.max_residual):
        issues.append("non-finite tiling residual")
    return issues
