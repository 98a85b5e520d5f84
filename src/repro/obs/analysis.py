"""Bottleneck attribution: decompose where a repair's wall time went.

The paper's central claim is about *where time goes*: the pivot tree
maximises the bottleneck bandwidth ``B_min``, and the scheduler keeps
full-node repair off congested links.  This module answers the question a
reader asks of any run — *which link bottlenecked this repair, and how
far from the oracle-optimal* ``B_min`` *did we land?* — mechanically,
from the artefacts a run already produces:

* the tracer's event stream (flow spans with edges and byte counts,
  ``flow.rate_change`` rate profiles, ``governor.decision`` caps, fault
  and retry instants);
* optionally the flight recorder's samples
  (:mod:`repro.obs.sampler`) for per-link utilization;
* optionally the network itself, to recompute an **oracle** ``B_min``:
  the executed tree's bottleneck bandwidth under the recorded bandwidth
  functions at submit time, with no competing traffic — the best the
  pipeline could have done on that tree.

Each repair flow's duration ``D`` with per-edge bytes ``B`` decomposes
exactly (``D = ideal + contention + governor + stall + credit``) by
integrating the piecewise-constant rate profile ``r(t)`` against the
reference rate ``ref`` (oracle ``B_min`` when available, else the
planner's claimed value)::

    ideal      = B / ref                 (time at the reference rate)
    stall      = sum of dt where r ~ 0   (faults, retries, collapsed links)
    governor   = sum of (ref - r) dt / ref  where r sits at the QoS cap
    contention = sum of (ref - r) dt / ref  for the other r < ref time
    credit     = sum of (ref - r) dt / ref  where r > ref (negative:
                 capacities rose after planning)

The identity holds because ``integral of r dt = B``.  Hedged repairs
(:mod:`repro.resilience`) add a ``hedge`` component: a hedge flow's whole
duration is hedge time, and a straggler-cancelled primary charges its
post-verdict deficit to ``stall`` (detector window) and ``hedge`` (racing
window) instead of ``contention``, with ``ideal`` measured against the
bytes it actually carried so the identity survives cancellation.

Both attribution views rest on one core defined here and shared with
:mod:`repro.obs.critpath`: ``_digest`` reads the event stream once
(closed spans and unclosed begins, each flow's rate profile, the
governor cap timeline, ``planner.plan`` claims, straggler and hedge
windows, fault counts), and ``_classify`` walks a flow's rate profile
inside a window and labels every interval stall, above reference, at
governor cap, or contention.  The two views differ only in the window
they fold over — here the whole flow, there one covering-walk segment —
and in the arithmetic they accumulate.

Invariant checks
flag anomalies instead of silently mis-attributing: an achieved rate
above the claimed ``B_min`` (a pipelined tree cannot beat its planned
bottleneck unless capacities moved), byte-conservation violations in the
telemetry, and sampler ring overflow.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

# NOTE: repro.core imports repro.obs.tracer at module load; the oracle
# helpers import the tree machinery lazily to keep repro.obs importable
# on its own (no package-level cycle).

__all__ = [
    "BottleneckLink",
    "RepairDiagnosis",
    "RunDiagnosis",
    "diagnose",
]

#: Rates below this fraction of the reference count as a stall.
_STALL_EPS = 1e-9

#: A rate within this relative tolerance of the active cap is "at cap".
_CAP_TOL = 0.02

#: Achieved/claimed ratios above this are flagged as anomalous.
_EXCEED_TOL = 1.01

#: A sampled link above this utilization counts as saturated.
SATURATION = 0.95


@dataclass(frozen=True)
class BottleneckLink:
    """The link a repair spent the most constrained time on."""

    node: int
    direction: str  # "up" | "down"
    #: Mean utilization of the link while it was the binding constraint
    #: (None when no samples covered the flow).
    utilization: float | None
    #: Fraction of the repair's duration this link was the tightest.
    share: float

    def describe(self) -> str:
        name = "uplink" if self.direction == "up" else "downlink"
        util = (
            "" if self.utilization is None
            else f", util {self.utilization:.2f}"
        )
        return f"node {self.node} {name} ({self.share:.0%} of time{util})"

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "direction": self.direction,
            "utilization": self.utilization,
            "share": self.share,
        }


@dataclass
class RepairDiagnosis:
    """Attribution of one repair flow's wall time."""

    label: str
    track: str
    submit: float
    finish: float
    shape: str
    cancelled: bool
    edges: list[tuple[int, int]]
    bytes_per_edge: float
    achieved_rate: float
    claimed_bmin: float | None = None
    oracle_bmin: float | None = None
    #: Which B_min the decomposition is measured against.
    reference: str = "none"  # "oracle" | "claimed" | "none"
    #: Seconds per cause; keys ideal/contention/governor/stall/credit.
    components: dict[str, float] = field(default_factory=dict)
    bottleneck: BottleneckLink | None = None
    anomalies: list[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.finish - self.submit

    @property
    def achieved_over_oracle(self) -> float | None:
        if self.oracle_bmin and self.oracle_bmin > 0:
            return self.achieved_rate / self.oracle_bmin
        return None

    @property
    def achieved_over_claimed(self) -> float | None:
        if self.claimed_bmin and self.claimed_bmin > 0:
            return self.achieved_rate / self.claimed_bmin
        return None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "track": self.track,
            "submit": self.submit,
            "finish": self.finish,
            "duration": self.duration,
            "shape": self.shape,
            "cancelled": self.cancelled,
            "edges": [list(edge) for edge in self.edges],
            "bytes_per_edge": self.bytes_per_edge,
            "achieved_rate": self.achieved_rate,
            "claimed_bmin": self.claimed_bmin,
            "oracle_bmin": self.oracle_bmin,
            "achieved_over_oracle": self.achieved_over_oracle,
            "achieved_over_claimed": self.achieved_over_claimed,
            "reference": self.reference,
            "components": {
                key: self.components[key] for key in sorted(self.components)
            },
            "bottleneck": (
                None if self.bottleneck is None else self.bottleneck.to_dict()
            ),
            "anomalies": list(self.anomalies),
        }


@dataclass
class RunDiagnosis:
    """Whole-run attribution: per-repair diagnoses plus aggregates."""

    repairs: list[RepairDiagnosis]
    #: Total attributed seconds per cause, summed over repairs.
    totals: dict[str, float]
    #: (direction, node) -> seconds it was some repair's bottleneck.
    bottleneck_seconds: dict[tuple[str, int], float]
    #: Duration-weighted mean achieved/oracle ratio (None without oracle).
    achieved_over_oracle: float | None
    achieved_over_claimed: float | None
    #: Run-level invariant violations.
    anomalies: list[str] = field(default_factory=list)
    #: Governor activity: decisions seen and capped repair-time fraction.
    governor: dict = field(default_factory=dict)
    #: Fault instants observed in the trace, by event name.
    faults: dict[str, int] = field(default_factory=dict)

    @property
    def top_bottleneck(self) -> BottleneckLink | None:
        """The link that bottlenecked the most repair time, run-wide."""
        if not self.bottleneck_seconds:
            return None
        (direction, node), seconds = max(
            self.bottleneck_seconds.items(),
            key=lambda kv: (kv[1], -kv[0][1]),
        )
        total = sum(d.duration for d in self.repairs) or 1.0
        utils = [
            d.bottleneck.utilization
            for d in self.repairs
            if d.bottleneck is not None
            and (d.bottleneck.direction, d.bottleneck.node)
            == (direction, node)
            and d.bottleneck.utilization is not None
        ]
        return BottleneckLink(
            node=node,
            direction=direction,
            utilization=sum(utils) / len(utils) if utils else None,
            share=seconds / total,
        )

    def to_dict(self) -> dict:
        top = self.top_bottleneck
        return {
            "repairs": [d.to_dict() for d in self.repairs],
            "totals": {k: self.totals[k] for k in sorted(self.totals)},
            "bottleneck_ranking": [
                {"node": node, "direction": direction, "seconds": seconds}
                for (direction, node), seconds in sorted(
                    self.bottleneck_seconds.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ],
            "top_bottleneck": None if top is None else top.to_dict(),
            "achieved_over_oracle": self.achieved_over_oracle,
            "achieved_over_claimed": self.achieved_over_claimed,
            "governor": dict(self.governor),
            "faults": {k: self.faults[k] for k in sorted(self.faults)},
            "anomalies": list(self.anomalies),
        }

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, compact separators)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    # ------------------------------------------------------------------
    # Human-readable rendering ("repro explain")
    # ------------------------------------------------------------------
    def render(self, limit: int = 12) -> str:
        from repro.reporting import format_seconds, format_table
        from repro.units import to_mbps

        lines = []
        n = len(self.repairs)
        total = sum(d.duration for d in self.repairs)
        lines.append(
            f"diagnosed {n} repair flow(s), "
            f"{format_seconds(total)} total transfer time"
        )
        top = self.top_bottleneck
        if top is not None:
            lines.append(f"bottleneck: {top.describe()}")
        if self.achieved_over_oracle is not None:
            lines.append(
                f"achieved/oracle B_min: {self.achieved_over_oracle:.2f}"
            )
        if self.achieved_over_claimed is not None:
            lines.append(
                f"achieved/claimed B_min: {self.achieved_over_claimed:.2f}"
            )
        if self.totals:
            parts = "  ".join(
                f"{key} {format_seconds(self.totals[key])}"
                for key in ("ideal", "contention", "governor", "stall",
                            "hedge")
                if key in self.totals
            )
            credit = self.totals.get("credit", 0.0)
            if credit < -1e-9:
                parts += f"  credit {format_seconds(-credit)}"
            lines.append(f"time attribution: {parts}")
        if self.governor:
            lines.append(
                "governor: "
                f"{self.governor.get('decisions', 0)} decisions, "
                f"capped {self.governor.get('capped_fraction', 0.0):.0%} "
                "of repair time"
            )
        if self.faults:
            fired = ", ".join(
                f"{name} x{count}" for name, count in sorted(
                    self.faults.items()
                )
            )
            lines.append(f"faults observed: {fired}")
        rows = []
        for diag in self.repairs[:limit]:
            ratio = diag.achieved_over_oracle
            if ratio is None:
                ratio = diag.achieved_over_claimed
            neck = (
                "-" if diag.bottleneck is None
                else f"N{diag.bottleneck.node}:{diag.bottleneck.direction}"
            )
            rows.append(
                (
                    diag.label,
                    format_seconds(diag.duration),
                    f"{to_mbps(diag.achieved_rate):.0f} Mb/s",
                    "-" if ratio is None else f"{ratio:.2f}",
                    neck,
                    _waterfall(diag),
                )
            )
        if rows:
            lines.append(
                format_table(
                    ["repair", "duration", "rate", "vs B_min", "neck",
                     "waterfall ideal/contention/governor/stall/hedge"],
                    rows,
                )
            )
        if len(self.repairs) > limit:
            lines.append(f"... and {len(self.repairs) - limit} more")
        if self.anomalies:
            lines.append("ANOMALIES:")
            lines.extend(f"  ! {issue}" for issue in self.anomalies)
        else:
            lines.append("anomalies: none")
        return "\n".join(lines)


def _waterfall(diag: RepairDiagnosis, width: int = 20) -> str:
    """Tiny inline stacked bar of a diagnosis' time components."""
    glyphs = (("ideal", "#"), ("contention", "~"), ("governor", "g"),
              ("stall", "."), ("hedge", "h"))
    duration = diag.duration
    if duration <= 0:
        return ""
    out = []
    for key, glyph in glyphs:
        seconds = max(diag.components.get(key, 0.0), 0.0)
        out.append(glyph * round(width * seconds / duration))
    return "".join(out)[:width] or "#"


# ----------------------------------------------------------------------
# The attribution core, shared with repro.obs.critpath: one pass over the
# event stream (_digest) and one rate-interval classifier (_classify)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """A begin/end pair reconstructed from the event stream."""

    span_id: int
    name: str
    track: str
    start: float
    end: float
    parent_id: int | None
    links: tuple[int, ...]
    fields: dict
    cancelled: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Flow:
    """One flow's submit payload, close and rate profile."""

    key: object  # task id, or (track, label) for legacy traces
    span_id: int | None
    label: str
    track: str
    submit: float
    kind: str
    shape: str
    edges: list[tuple[int, int]]
    bytes_total: float
    finish: float | None = None
    cancelled: bool = False
    #: (t, aggregate rate) change points.
    rates: list[tuple[float, float]] = field(default_factory=list)


#: Instants counted as fault activity, besides every ``fault.*`` event.
_FAULT_EVENTS = frozenset({
    "repair.detect", "repair.retry", "repair.replan", "repair.failed",
    "health.straggler", "hedge.launch", "hedge.adopt", "hedge.cancel",
})


@dataclass
class _Digest:
    """Everything the two attribution views read off a trace."""

    #: Closed spans by id, in end order; ``end`` fields merged over
    #: ``begin`` fields (the end carries the outcome).
    spans: dict[int, Span] = field(default_factory=dict)
    #: Begin events whose span never ended (crash / truncated trace).
    unclosed: list = field(default_factory=list)
    #: Every flow with its rate profile, in submit order.
    flows: list[_Flow] = field(default_factory=list)
    #: The same flows by span id, for flows traced as spans.
    flow_of_span: dict[int, _Flow] = field(default_factory=dict)
    #: Governor cap step function: (t, cap or None for uncapped).
    caps: list[tuple[float, float | None]] = field(default_factory=list)
    #: (t, requestor, bmin, scheme) of every ``planner.plan`` event.
    plans: list[tuple[float, int, float, str]] = field(default_factory=list)
    #: task id -> straggler verdict (``since``) and hedge ``launch`` times.
    stragglers: dict[object, dict] = field(default_factory=dict)
    #: Fault instants by event name.
    faults: dict[str, int] = field(default_factory=dict)


def _digest(events, samples=()) -> _Digest:
    """Digest a trace in one pass; see :class:`_Digest`.

    Flows are keyed by task id (legacy traces: by track and label) and
    close on their span end or on the legacy ``flow.finish`` /
    ``flow.cancel`` instants.  The cancel instant precedes its span end,
    so the later end finds nothing open and cannot clobber the cancelled
    flag.  Without ``governor.decision`` events the cap timeline falls
    back to the flight recorder's ``samples``.
    """
    out = _Digest()
    opened: dict[int, object] = {}
    open_flows: dict[object, _Flow] = {}
    for event in events:
        name, fields = event.name, event.fields
        if event.span_id is not None:
            if event.kind == "begin":
                opened[event.span_id] = event
            elif event.kind == "end":
                begin = opened.pop(event.span_id, None)
                if begin is not None:
                    out.spans[event.span_id] = Span(
                        span_id=event.span_id,
                        name=begin.name,
                        track=begin.track,
                        start=begin.t,
                        end=event.t,
                        parent_id=begin.parent_id,
                        links=tuple(begin.links),
                        fields={**begin.fields, **fields},
                        cancelled=bool(fields.get("cancelled", False)),
                    )
        if name == "flow" or name.startswith("flow."):
            task = fields.get("task")
            key = task if task is not None else (
                event.track, fields.get("label", "")
            )
            if name == "flow" and event.kind == "begin":
                flow = _Flow(
                    key=key,
                    span_id=event.span_id,
                    label=fields.get("label", ""),
                    track=event.track,
                    submit=event.t,
                    kind=fields.get("kind", "repair"),
                    shape=fields.get("shape", "pipelined"),
                    edges=[
                        (int(src), int(dst))
                        for src, dst in fields.get("edges", [])
                    ],
                    bytes_total=float(fields.get("bytes_total", 0.0)),
                )
                open_flows[key] = flow
                out.flows.append(flow)
                if event.span_id is not None:
                    out.flow_of_span[event.span_id] = flow
            elif name == "flow.rate_change":
                flow = open_flows.get(key)
                if flow is not None:
                    flow.rates.append((event.t, float(fields["rate"])))
            elif name in ("flow.finish", "flow.cancel") or (
                name == "flow" and event.kind == "end"
            ):
                flow = open_flows.pop(key, None)
                if flow is not None:
                    flow.finish = event.t
                    flow.cancelled = name == "flow.cancel" or bool(
                        fields.get("cancelled", False)
                    )
        elif name == "governor.decision":
            cap = fields.get("cap", -1.0)
            out.caps.append((event.t, None if cap is None or cap < 0 else cap))
        elif name == "planner.plan":
            out.plans.append(
                (
                    event.t,
                    int(fields.get("requestor", -1)),
                    float(fields.get("bmin", 0.0)),
                    str(fields.get("scheme", "")),
                )
            )
        if name.split(".", 1)[0] == "fault" or name in _FAULT_EVENTS:
            out.faults[name] = out.faults.get(name, 0) + 1
            task = fields.get("task")
            if task is not None and name == "health.straggler":
                out.stragglers.setdefault(task, {})["since"] = float(
                    fields.get("since", event.t)
                )
            elif task is not None and name == "hedge.launch":
                out.stragglers.setdefault(task, {})["launch"] = event.t
    out.unclosed = list(opened.values())
    # A window opens at the straggler verdict; a hedge launch alone
    # (no verdict in the trace) is not one.
    out.stragglers = {
        task: info for task, info in out.stragglers.items() if "since" in info
    }
    if not out.caps and samples:
        previous: float | None = None
        for sample in samples:
            if sample.repair_cap != previous:
                out.caps.append((sample.t, sample.repair_cap))
                previous = sample.repair_cap
    return out


def _cap_at(timeline, t: float) -> float | None:
    cap = None
    for at, value in timeline:
        if at > t + 1e-12:
            break
        cap = value
    return cap


def _resources(edges) -> set[tuple[str, int]]:
    """Links a flow's edges consume: each source's uplink and each
    sink's downlink."""
    out: set[tuple[str, int]] = set()
    for src, dst in edges:
        out.add(("up", int(src)))
        out.add(("down", int(dst)))
    return out


def _sink_of(flow: _Flow) -> int | None:
    sources = {src for src, _ in flow.edges}
    sinks = {dst for _, dst in flow.edges if dst not in sources}
    return min(sinks) if sinks else None


def _rate_profile(
    start: float, end: float, rates
) -> list[tuple[float, float, float]]:
    """Piecewise-constant (start, end, rate) intervals covering a flow.

    ``rates`` are the flow's ``(t, rate)`` changes.
    """
    if end <= start:
        return []
    # Stable, time-only sort: several changes can land at the same
    # instant (resubmission churn) and the last one is the rate that
    # actually held.
    changes = sorted(rates, key=lambda change: change[0])
    intervals = []
    cursor = start
    current = 0.0
    if changes and changes[0][0] <= start + 1e-12:
        current = changes[0][1]
        changes = changes[1:]
    for t, rate in changes:
        t = min(max(t, start), end)
        if t > cursor:
            intervals.append((cursor, t, current))
            cursor = t
        current = rate
    if end > cursor:
        intervals.append((cursor, end, current))
    return intervals


def _split_at(start: float, end: float, cuts) -> list[tuple[float, float]]:
    """Split [start, end) at every cut point falling strictly inside."""
    points = [start]
    for cut in sorted(cuts):
        if start < cut < end:
            points.append(cut)
    points.append(end)
    return list(zip(points, points[1:]))


def _classify(flow: _Flow, ref: float | None, caps, lo: float, hi: float,
              cuts=()):
    """Yield ``(start, end, rate, verdict)`` per rate interval of ``flow``
    inside the window ``[lo, hi]``, split at every instant in ``cuts``.

    The verdict is ``"stall"`` (rate ~ 0), ``"above"`` (at or above the
    reference ``ref``, or no reference), ``"governor"`` (below it, at the
    QoS cap in force) or ``"contention"`` (any other shortfall).  Both
    views fold this one walk: ``diagnose`` over the whole flow,
    :mod:`repro.obs.critpath` over one covering-walk segment.
    """
    finish = flow.finish if flow.finish is not None else flow.submit
    for s0, e0, rate in _rate_profile(flow.submit, finish, flow.rates):
        for start, end in _split_at(max(s0, lo), min(e0, hi), cuts):
            if end - start <= 0:
                continue
            if rate <= _STALL_EPS:
                verdict = "stall"
            elif ref is None or rate >= ref:
                verdict = "above"
            else:
                cap = _cap_at(caps, start)
                verdict = (
                    "governor"
                    if cap is not None and rate >= cap * (1 - _CAP_TOL)
                    else "contention"
                )
            yield start, end, rate, verdict


def _oracle_bmin(flow: _Flow, network) -> float | None:
    """Executed tree's B_min under the recorded bandwidths at submit.

    The oracle is contention-free: what the pipelined tree could carry if
    repair were alone on the network the instant it started.  ``None``
    for non-tree shapes or when the edges do not form a tree.
    """
    if network is None or flow.shape != "pipelined" or not flow.edges:
        return None
    from repro.core.bandwidth_view import BandwidthSnapshot
    from repro.core.tree import RepairTree
    from repro.exceptions import PlanningError

    root = _sink_of(flow)
    if root is None:
        return None
    try:
        tree = RepairTree(root, dict(flow.edges))
        snapshot = BandwidthSnapshot.from_network(network, flow.submit)
        return tree.bmin(snapshot)
    except PlanningError:
        return None


def _static_bottleneck(flow: _Flow, network) -> BottleneckLink | None:
    """Fallback bottleneck naming from the tree shape at submit time."""
    if network is None or flow.shape != "pipelined" or not flow.edges:
        return None
    from repro.core.bandwidth_view import BandwidthSnapshot
    from repro.core.tree import RepairTree
    from repro.exceptions import PlanningError

    root = _sink_of(flow)
    if root is None:
        return None
    try:
        tree = RepairTree(root, dict(flow.edges))
        snapshot = BandwidthSnapshot.from_network(network, flow.submit)
    except PlanningError:
        return None
    worst_node = min(
        tree.helpers + [root],
        key=lambda node: (tree.node_bottleneck(snapshot, node), node),
    )
    kids = tree.child_count(worst_node)
    if worst_node == root:
        direction = "down"
    elif kids == 0:
        direction = "up"
    else:
        down_share = snapshot.down_of(worst_node) / kids
        direction = (
            "up" if snapshot.up_of(worst_node) <= down_share else "down"
        )
    return BottleneckLink(
        node=worst_node, direction=direction, utilization=None, share=1.0
    )


def _sampled_bottleneck(
    flow: _Flow, samples, interval_hint: float
) -> BottleneckLink | None:
    """Name the flow's tightest link from flight-recorder samples.

    For every sample inside the flow's lifetime, the most-utilized
    resource among the flow's own edges (each edge consumes its source's
    uplink and its sink's downlink) wins that tick; the link winning the
    most time is the bottleneck.
    """
    if not samples or flow.finish is None or not flow.edges:
        return None
    resources = _resources(flow.edges)
    won_time: dict[tuple[str, int], float] = {}
    util_sum: dict[tuple[str, int], float] = {}
    covered = 0
    for sample in samples:
        if not flow.submit <= sample.t <= flow.finish:
            continue
        covered += 1
        best_key = None
        best_util = 0.0
        for direction, node in resources:
            series = sample.up_util if direction == "up" else sample.down_util
            util = series.get(node, 0.0)
            if math.isinf(util):
                util = 1.0
            if util > best_util or (
                util == best_util and best_key is not None
                and (direction, node) < best_key
            ):
                best_key, best_util = (direction, node), util
        if best_key is None or best_util <= 0:
            continue
        won_time[best_key] = won_time.get(best_key, 0.0) + interval_hint
        util_sum[best_key] = util_sum.get(best_key, 0.0) + best_util
    if not won_time:
        return None
    winner = max(won_time, key=lambda key: (won_time[key], key[1] * -1))
    ticks = won_time[winner] / interval_hint
    duration = flow.finish - flow.submit or 1.0
    return BottleneckLink(
        node=winner[1],
        direction=winner[0],
        utilization=util_sum[winner] / ticks,
        share=min(won_time[winner] / duration, 1.0),
    )


# ----------------------------------------------------------------------
# Diagnosis
# ----------------------------------------------------------------------
def _diagnose_flow(
    flow: _Flow,
    claimed: float | None,
    oracle: float | None,
    cap_timeline,
    samples,
    sample_interval: float,
    network,
    straggler: dict | None = None,
) -> RepairDiagnosis:
    edges = flow.edges
    bytes_per_edge = flow.bytes_total / max(len(edges), 1)
    duration = (flow.finish or flow.submit) - flow.submit
    achieved = bytes_per_edge / duration if duration > 0 else 0.0
    reference, ref_rate = "none", None
    if oracle and oracle > 0:
        reference, ref_rate = "oracle", oracle
    elif claimed and claimed > 0:
        reference, ref_rate = "claimed", claimed
    components: dict[str, float] = {}
    if flow.kind == "hedge" and duration > 0:
        # A hedge flow exists only because a gray failure was suspected:
        # every second it ran (winner or cancelled loser) is spent on the
        # hedge, regardless of the rate it achieved.
        components = {"hedge": duration}
    elif ref_rate is not None and duration > 0 and (
        not flow.cancelled or straggler is not None
    ):
        # ``since``/``launch`` only exist for a straggler-cancelled
        # primary: its deficit after the detector flagged it is a stall,
        # and after the hedge launched it is hedge overlap, not ordinary
        # contention.  Ideal is what the flow *actually carried* over the
        # reference rate, so the identity D = sum(components) still holds
        # for a flow that never delivered its full byte count.
        since = float(straggler["since"]) if straggler else math.inf
        launch = (
            float(straggler.get("launch", math.inf))
            if straggler
            else math.inf
        )
        carried = 0.0
        contention = governor = stall = credit = hedge = 0.0
        finish = flow.finish if flow.finish is not None else flow.submit
        for s, e, rate, verdict in _classify(
            flow, ref_rate, cap_timeline, flow.submit, finish,
            cuts=(since, launch),
        ):
            dt = e - s
            if verdict == "stall":
                stall += dt
                continue
            carried += rate * dt
            excess = (ref_rate - rate) * dt / ref_rate
            if verdict == "above":
                credit += excess  # zero or negative
            elif s >= launch:
                hedge += excess
            elif s >= since:
                stall += excess
            elif verdict == "governor":
                governor += excess
            else:
                contention += excess
        ideal = (
            carried / ref_rate
            if straggler is not None
            else bytes_per_edge / ref_rate
        )
        components = {
            "ideal": ideal,
            "contention": contention,
            "governor": governor,
            "stall": stall,
            "credit": credit,
        }
        if straggler is not None:
            components["hedge"] = hedge
    bottleneck = _sampled_bottleneck(flow, samples, sample_interval)
    if bottleneck is None:
        bottleneck = _static_bottleneck(flow, network)
    anomalies = []
    # Beating the *claimed* B_min is legal when competitors finished
    # mid-flight (the claim is made against residual bandwidth at plan
    # time), so it is only anomalous when no oracle bound covers it.
    if (
        claimed and duration > 0 and achieved > claimed * _EXCEED_TOL
        and not (oracle and achieved <= oracle * _EXCEED_TOL)
    ):
        anomalies.append(
            f"achieved rate {achieved:.0f} exceeds claimed B_min "
            f"{claimed:.0f} ({achieved / claimed:.2f}x)"
        )
    if oracle and duration > 0 and achieved > oracle * _EXCEED_TOL:
        anomalies.append(
            f"achieved rate {achieved:.0f} exceeds oracle B_min "
            f"{oracle:.0f} ({achieved / oracle:.2f}x)"
        )
    if components:
        residual = duration - sum(components.values())
        if abs(residual) > max(1e-6 * duration, 1e-9):
            anomalies.append(
                f"attribution residual {residual:.3g}s of {duration:.3g}s "
                "(rate profile does not integrate to the byte count)"
            )
    return RepairDiagnosis(
        label=flow.label,
        track=flow.track,
        submit=flow.submit,
        finish=flow.finish if flow.finish is not None else flow.submit,
        shape=flow.shape,
        cancelled=flow.cancelled,
        edges=edges,
        bytes_per_edge=bytes_per_edge,
        achieved_rate=achieved,
        claimed_bmin=claimed,
        oracle_bmin=oracle,
        reference=reference,
        components=components,
        bottleneck=bottleneck,
        anomalies=anomalies,
    )


def _check_telemetry(telemetry: dict | None, anomalies: list[str]) -> None:
    """Byte-conservation invariants over a run's telemetry snapshot."""
    if not telemetry:
        return
    up = telemetry.get("per_bytes_up", {})
    down = telemetry.get("per_bytes_down", {})
    total_up = sum(up.values())
    total_down = sum(down.values())
    if total_up or total_down:
        scale = max(total_up, total_down)
        if abs(total_up - total_down) > 1e-6 * scale:
            anomalies.append(
                "bytes conservation violated: "
                f"sum(bytes_up)={total_up:.6g} != "
                f"sum(bytes_down)={total_down:.6g}"
            )
    counter = telemetry.get("counters", {}).get("bytes_transferred")
    if counter is not None and total_up and (
        abs(counter - total_up) > 1e-6 * max(counter, total_up)
    ):
        anomalies.append(
            f"bytes_transferred counter {counter:.6g} != "
            f"per-node uplink total {total_up:.6g}"
        )


def diagnose(
    events: Sequence,
    samples: Sequence | None = None,
    network=None,
    telemetry: dict | None = None,
    sampler=None,
) -> RunDiagnosis:
    """Attribute a finished run's repair time; see the module docstring.

    Args:
        events: the run's :class:`~repro.obs.TraceEvent` stream (live
            from a tracer or re-read via
            :func:`~repro.obs.events_from_jsonl`).
        samples: flight-recorder samples aligned with the events (a
            bound :class:`~repro.obs.FlightRecorder` may be passed as
            ``sampler`` instead).
        network: the simulated network; enables the oracle ``B_min``
            recomputation and static bottleneck naming.
        telemetry: a run's registry snapshot, for byte-conservation
            invariant checks.
    """
    sample_interval = 0.25
    if sampler is not None:
        samples = list(sampler.samples) if samples is None else samples
        sample_interval = sampler.interval
    samples = list(samples or [])
    if len(samples) >= 2:
        sample_interval = max(samples[1].t - samples[0].t, 1e-9)
    digest = _digest(events, samples)
    claimed_pool = digest.plans
    cap_timeline = digest.caps
    repairs: list[RepairDiagnosis] = []
    anomalies: list[str] = []
    consumed = [False] * len(claimed_pool)
    for flow in digest.flows:
        if flow.kind not in ("repair", "hedge"):
            continue
        if flow.finish is None:
            anomalies.append(
                f"flow {flow.label!r} never finished (unmatched span)"
            )
            continue
        straggler = (
            digest.stragglers.get(flow.key)
            if flow.kind == "repair" and flow.cancelled
            else None
        )
        sink = _sink_of(flow)
        claimed = None
        # Latest unconsumed plan for this sink wins; a scheme whose name
        # prefixes the flow label is preferred, so traces holding several
        # schemes' runs (each restarting the clock) don't cross-match.
        for require_scheme in (True, False):
            for index in range(len(claimed_pool) - 1, -1, -1):
                t, requestor, bmin, scheme = claimed_pool[index]
                if consumed[index] or t > flow.submit + 1e-9:
                    continue
                if sink is not None and requestor != sink:
                    continue
                if require_scheme and not (
                    scheme and flow.label.startswith(scheme)
                ):
                    continue
                consumed[index] = True
                claimed = bmin
                break
            if claimed is not None:
                break
        oracle = _oracle_bmin(flow, network)
        repairs.append(
            _diagnose_flow(
                flow, claimed, oracle, cap_timeline, samples,
                sample_interval, network, straggler=straggler,
            )
        )
    totals: dict[str, float] = {}
    neck_seconds: dict[tuple[str, int], float] = {}
    oracle_num = oracle_den = 0.0
    claimed_num = claimed_den = 0.0
    for diag in repairs:
        for key, value in diag.components.items():
            totals[key] = totals.get(key, 0.0) + value
        if diag.bottleneck is not None:
            key = (diag.bottleneck.direction, diag.bottleneck.node)
            neck_seconds[key] = neck_seconds.get(key, 0.0) + (
                diag.bottleneck.share * diag.duration
            )
        ratio = diag.achieved_over_oracle
        if ratio is not None:
            oracle_num += ratio * diag.duration
            oracle_den += diag.duration
        ratio = diag.achieved_over_claimed
        if ratio is not None:
            claimed_num += ratio * diag.duration
            claimed_den += diag.duration
        anomalies.extend(
            f"{diag.label}: {issue}" for issue in diag.anomalies
        )
    _check_telemetry(telemetry, anomalies)
    if sampler is not None and sampler.dropped:
        anomalies.append(
            f"flight recorder dropped {sampler.dropped} samples "
            "(ring buffer overflow; raise capacity or interval)"
        )
    repair_time = sum(d.duration for d in repairs)
    capped_time = 0.0
    for diag in repairs:
        for start, end in _segments_with_cap(diag, cap_timeline):
            capped_time += end - start
    governor_summary = {}
    if cap_timeline:
        governor_summary = {
            "decisions": len(cap_timeline),
            "capped_fraction": (
                capped_time / repair_time if repair_time > 0 else 0.0
            ),
        }
    return RunDiagnosis(
        repairs=repairs,
        totals=totals,
        bottleneck_seconds=neck_seconds,
        achieved_over_oracle=(
            oracle_num / oracle_den if oracle_den > 0 else None
        ),
        achieved_over_claimed=(
            claimed_num / claimed_den if claimed_den > 0 else None
        ),
        anomalies=anomalies,
        governor=governor_summary,
        faults=digest.faults,
    )


def _segments_with_cap(diag: RepairDiagnosis, cap_timeline):
    """Sub-intervals of a repair during which a finite cap was in force."""
    if not cap_timeline:
        return
    bounds = [diag.submit]
    bounds += [t for t, _ in cap_timeline if diag.submit < t < diag.finish]
    bounds.append(diag.finish)
    for start, end in zip(bounds, bounds[1:]):
        if end > start and _cap_at(cap_timeline, start) is not None:
            yield start, end
