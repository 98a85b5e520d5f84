"""Property: ``diagnose`` and ``critical_paths`` agree bucket by bucket.

On a repair with a single flow, the critical path's flow segment is the
whole flow, so the two views fold the same rate intervals through the
same classifier and may differ only in arithmetic: critical-path
``stall``, ``governor`` and ``contention`` equal diagnose's, and its
``transfer`` equals diagnose's ``ideal + credit`` (time at the reference
rate plus the negative credit for time above it).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, critical_paths, crosscheck, diagnose

BMIN = 100.0
EDGES = [[2, 1], [1, 0]]

rates = st.one_of(
    st.just(0.0),
    st.just(BMIN),
    st.floats(min_value=1.0, max_value=3 * BMIN),
)
caps = st.one_of(st.just(-1.0), st.floats(min_value=1.0, max_value=3 * BMIN))


@st.composite
def traces(draw):
    """A repair.task span holding one flow with a piecewise rate profile,
    plus governor decisions (some uncapped, some landing on a rate)."""
    start = draw(st.floats(min_value=0.0, max_value=2.0))
    pieces = draw(
        st.lists(
            st.tuples(st.floats(min_value=0.01, max_value=5.0), rates),
            min_size=1, max_size=6,
        )
    )
    decisions = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0),
                st.one_of(caps, st.sampled_from([r for _, r in pieces])),
            ),
            max_size=5,
        )
    )
    return start, pieces, sorted(decisions)


def emit(start, pieces, decisions) -> Tracer:
    tracer = Tracer()
    finish = start + sum(dt for dt, _ in pieces)
    carried = sum(dt * rate for dt, rate in pieces)
    task = tracer.begin("repair.task", t=0.0, track="repair:0",
                        scheme="pivot")
    tracer.instant("planner.plan", t=0.0, track="planner", requestor=0,
                   bmin=BMIN, scheme="pivot")
    events = [(t, "cap", cap) for t, cap in decisions]
    cursor = start
    for dt, rate in pieces:
        events.append((cursor, "rate", rate))
        cursor += dt
    flow = None
    for t, kind, value in sorted(events, key=lambda e: (e[0], e[1])):
        if flow is None and t >= start:
            flow = tracer.begin(
                "flow", t=start, track="node:0", parent_id=task,
                label="pivot", task=1, shape="pipelined", kind="repair",
                edges=EDGES, bytes_total=carried * len(EDGES), bmin=BMIN,
            )
        if kind == "cap":
            tracer.instant("governor.decision", t=t, track="governor",
                           cap=value)
        else:
            tracer.instant("flow.rate_change", t=t, track="node:0",
                           parent_id=flow, task=1, rate=value)
    tracer.end("flow", t=finish, span_id=flow, track="node:0", task=1,
               label="pivot")
    tracer.end("repair.task", t=finish, span_id=task, track="repair:0")
    return tracer


@settings(max_examples=300, deadline=None)
@given(traces())
def test_views_agree_bucket_by_bucket(trace):
    tracer = emit(*trace)
    diagnosis = diagnose(tracer.events)
    report = critical_paths(tracer.events)
    [diag] = diagnosis.repairs
    [path] = report.repairs
    mine, theirs = path.categories, diag.components
    for key in ("stall", "governor", "contention"):
        assert abs(mine.get(key, 0.0) - theirs[key]) <= 1e-9, key
    ideal_plus_credit = theirs["ideal"] + theirs["credit"]
    assert abs(mine.get("transfer", 0.0) - ideal_plus_credit) <= 1e-9
    assert crosscheck(report, diagnosis) == []
