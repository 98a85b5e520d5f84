"""Master crash recovery: journaled, idempotent full-node repair.

The byte-accurate full-node repair path (``cluster.master`` adopting one
rebuilt chunk after another) has a single point of failure: the master.
This module makes it crash-safe by checkpointing the scheduling state into
the repair journal before any chunk moves, and journaling every adoption:

* ``master_checkpoint`` — the Eq. 3-ranked stripe queue and per-stripe
  status, written once at the start of a run (a resumed run reuses the
  recorded queue rather than re-ranking, so the plan order survives the
  crash even if bandwidths changed);
* ``chunk_adopted`` — appended *after* the rebuilt chunk is stored and the
  stripe relocated, so replay never trusts an adoption that did not
  complete.

Replay (:func:`recover_full_node`) walks the checkpointed queue and skips
every stripe with a ``chunk_adopted`` record.  Replaying is idempotent:
running recovery twice adopts nothing the second time and leaves the
cluster byte-identical, because the journal — not cluster introspection —
decides what is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bandwidth_view import BandwidthSnapshot
from repro.core.scheduler import SchedulerConfig, recommendation_value
from repro.obs.tracer import NULL_TRACER
from repro.repair.jobmaster import choose_requestor
from repro.resilience.journal import JournalError, RepairJournal


@dataclass
class MasterRecoveryResult:
    """Outcome of one (possibly partial) journaled full-node run."""

    #: Stripe ids whose chunks this run rebuilt and adopted, in order.
    adopted: list[int] = field(default_factory=list)
    #: Stripe ids skipped because the journal already records adoption.
    skipped: list[int] = field(default_factory=list)
    #: The checkpointed Eq. 3 queue the run worked through.
    queue: list[int] = field(default_factory=list)
    #: True when the run stopped early (simulated master crash).
    crashed: bool = False

    @property
    def completed(self) -> bool:
        return not self.crashed and (
            len(self.adopted) + len(self.skipped) == len(self.queue)
        )


def run_full_node_journaled(
    cluster,
    planner,
    network,
    failed_node: int,
    journal: RepairJournal,
    scheduler: SchedulerConfig | None = None,
    at: float = 0.0,
    crash_after: int | None = None,
    tracer=NULL_TRACER,
) -> MasterRecoveryResult:
    """Repair every chunk lost on ``failed_node``, journaling each step.

    On first invocation the Eq. 3 queue is computed and checkpointed; a
    journal that already holds a ``master_checkpoint`` replays its queue
    instead (the recovery path — call :func:`recover_full_node` for
    clarity).  ``crash_after`` stops the run after that many adoptions,
    simulating the master dying mid-schedule.
    """
    scheduler = scheduler or SchedulerConfig()
    snapshot = BandwidthSnapshot.from_network(network, at)
    lost = cluster.lost_chunks(failed_node)
    by_id = {stripe.stripe_id: (stripe, index) for stripe, index in lost}

    checkpoint = journal.last("master_checkpoint")
    if checkpoint is None:
        queue = _ranked_queue(
            cluster, planner, snapshot, lost, failed_node, scheduler,
            at, tracer,
        )
        journal.append(
            "master_checkpoint", t=at, queue=queue,
            status={str(sid): "pending" for sid in queue},
            failed_node=failed_node,
        )
        if tracer.enabled:
            tracer.instant(
                "master.checkpoint", t=at, track="master",
                stripes=len(queue), failed_node=failed_node,
            )
    else:
        queue = [int(sid) for sid in checkpoint.data["queue"]]
        if int(checkpoint.data.get("failed_node", failed_node)) != failed_node:
            raise JournalError(
                "journal checkpoint is for a different failed node"
            )
        if tracer.enabled:
            tracer.instant(
                "master.recover", t=at, track="master",
                stripes=len(queue),
                already_adopted=len(journal.adopted_stripes()),
            )

    result = MasterRecoveryResult(queue=list(queue))
    adopted_before = journal.adopted_stripes()
    for stripe_id in queue:
        if stripe_id in adopted_before or stripe_id not in by_id:
            # Already adopted (journal says so, or the stripe has been
            # relocated off the failed node) — never re-repair.
            result.skipped.append(stripe_id)
            continue
        stripe, lost_index = by_id[stripe_id]
        requestor = choose_requestor(
            snapshot, stripe, failed_node, cluster.node_count
        )
        plan, _ = cluster.repair_chunk(
            planner, snapshot, stripe, lost_index, requestor
        )
        journal.append(
            "chunk_adopted", t=at, stripe=stripe_id,
            requestor=requestor, scheme=plan.scheme,
        )
        result.adopted.append(stripe_id)
        if crash_after is not None and len(result.adopted) >= crash_after:
            result.crashed = True
            break
    return result


def recover_full_node(
    cluster,
    planner,
    network,
    failed_node: int,
    journal: RepairJournal,
    scheduler: SchedulerConfig | None = None,
    at: float = 0.0,
    tracer=NULL_TRACER,
) -> MasterRecoveryResult:
    """Replay a journal after a master crash and finish the repair.

    Requires a ``master_checkpoint`` in the journal (the crashed run wrote
    it before adopting anything).  Idempotent: replaying a journal whose
    queue is fully adopted performs no work.
    """
    if journal.last("master_checkpoint") is None:
        raise JournalError(
            "cannot recover: journal holds no master checkpoint"
        )
    return run_full_node_journaled(
        cluster, planner, network, failed_node, journal,
        scheduler=scheduler, at=at, tracer=tracer,
    )


def _ranked_queue(
    cluster, planner, snapshot, lost, failed_node, scheduler, at, tracer
) -> list[int]:
    """Eq. 3 ranking of the lost stripes with an empty running set."""
    ranked: list[tuple[float, int]] = []
    for stripe, lost_index in lost:
        requestor = choose_requestor(
            snapshot, stripe, failed_node, cluster.node_count
        )
        candidates = [
            node
            for node in stripe.surviving_nodes(failed_node)
            if node != requestor
        ]
        plan = planner.plan(snapshot, requestor, candidates, cluster.code.k)
        value = recommendation_value(
            plan.tree, plan.bmin, [], at, scheduler, tracer=tracer
        )
        ranked.append((value, stripe.stripe_id))
    ranked.sort(key=lambda pair: (-pair[0], pair[1]))
    return [stripe_id for _, stripe_id in ranked]
