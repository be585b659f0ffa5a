"""The experiment index, machine-readable.

DESIGN.md's per-experiment table as package data: every experiment and
ablation, the paper claim it reproduces, the modules that implement the
pieces, and the bench that regenerates its table. Downstream users can
enumerate what this reproduction covers without parsing markdown; the
test suite checks the index stays consistent with the repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Experiment:
    """One reproduced claim."""

    id: str
    title: str
    claim: str              # section + paraphrase of the paper's claim
    modules: Tuple[str, ...]
    bench: str              # path under benchmarks/


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "E1", "Tandem DP1 vs DP2 checkpointing",
        "§3.2: log-combined checkpointing dramatically cuts WRITE latency and CPU",
        ("repro.tandem",), "benchmarks/bench_e01_tandem_checkpointing.py",
    ),
    Experiment(
        "E2", "Group commit: car vs bus",
        "§3.2: shared buffer writes reduce latency under load",
        ("repro.tandem.groupcommit", "repro.storage"),
        "benchmarks/bench_e02_group_commit.py",
    ),
    Experiment(
        "E3", "The acceptable erosion",
        "§3.3: DP2 aborts in-flight txns on takeover; committed work never lost",
        ("repro.tandem", "repro.cluster"), "benchmarks/bench_e03_erosion.py",
    ),
    Experiment(
        "E4", "Log shipping loss window",
        "§4: async shipping loses the unshipped tail; sync is safe but slow",
        ("repro.logship",), "benchmarks/bench_e04_log_shipping.py",
    ),
    Experiment(
        "E5", "Probabilistic business rules",
        "§5.2: distribution + asynchrony ⇒ probabilities of enforcement",
        ("repro.core.rules", "repro.core.antientropy"),
        "benchmarks/bench_e05_probabilistic_rules.py",
    ),
    Experiment(
        "E6", "Escrow vs exclusive locking",
        "§5.3: commutative ops interleave; READs stop the party",
        ("repro.core.escrow",), "benchmarks/bench_e06_escrow.py",
    ),
    Experiment(
        "E7", "The $10,000 check",
        "§5.5: per-operation risk trades latency for exposure",
        ("repro.core.risk", "repro.bank"),
        "benchmarks/bench_e07_risk_threshold.py",
    ),
    Experiment(
        "E8", "Shopping cart on Dynamo",
        "§6.1/§6.4: op-centric carts lose nothing; materialized resurrect deletes; LWW loses adds",
        ("repro.dynamo", "repro.cart"), "benchmarks/bench_e08_cart_dynamo.py",
    ),
    Experiment(
        "E9", "Replicated check clearing",
        "§6.2/§7.6: headroom governs overdrafts; check numbers make clearing idempotent; statements exactly-once",
        ("repro.bank",), "benchmarks/bench_e09_bank_clearing.py",
    ),
    Experiment(
        "E10", "Over-booking vs over-provisioning",
        "§7.1: never-apologize means declining business; the posture slides",
        ("repro.resources.inventory",), "benchmarks/bench_e10_overbooking.py",
    ),
    Experiment(
        "E11", "The seat-reservation pattern",
        "§7.3: the pending timeout bounds untrusted agents' holds",
        ("repro.resources.seats",), "benchmarks/bench_e11_seat_reservation.py",
    ),
    Experiment(
        "E12", "ACID 2.0 convergence",
        "§7.6/§8: same ops ⇒ same state, any order; convergence paces with gossip",
        ("repro.core",), "benchmarks/bench_e12_acid2_convergence.py",
    ),
    Experiment(
        "E13", "Retry storm vs backoff + breaker",
        "§2.1/§7: fixed-timer reissue under a slow server multiplies load and "
        "collapses goodput; backoff + jitter + deadlines + breaker + "
        "admission control degrade gracefully (guess now, apologize later)",
        ("repro.resilience", "repro.chaos.retrystorm"),
        "benchmarks/bench_e13_retry_storm.py",
    ),
    Experiment(
        "E14", "Fenced vs unfenced automatic takeover",
        "§2–3: a backup cannot distinguish a slow primary from a dead one; "
        "automatic takeover on a false conviction loses acked updates unless "
        "the new regime's epoch fences out the deposed primary's traffic",
        ("repro.failover", "repro.logship", "repro.chaos.splitbrain"),
        "benchmarks/bench_e14_split_brain.py",
    ),
    Experiment(
        "E15", "Snapshot + tail recovery",
        "§3/§5.8: asynchronous checkpoints over the WAL make rejoin cost "
        "track the tail since the last cut, not the total log — tighter "
        "cadence buys faster recovery and a smaller re-ship window",
        ("repro.storage.snapshot", "repro.logship", "repro.chaos.rejoin"),
        "benchmarks/bench_e15_snapshot_recovery.py",
    ),
    Experiment(
        "E16", "Elastic ring rebalance cost",
        "§6: consistent hashing confines a join/leave to the moved arcs — "
        "versions transferred track the moved-range share of the ring, not "
        "the keyspace size, so rebalance cost stays a stable fraction as "
        "the store grows",
        ("repro.dynamo.ring", "repro.dynamo.cluster", "repro.chaos.ring_rebalance"),
        "benchmarks/bench_e16_ring_rebalance.py",
    ),
    Experiment(
        "E17", "Geo-scale game day",
        "§2–3/§5.1 at WAN scale: three datacenters on a site-routed "
        "fabric under a compound WAN cut + retry storm + slow disk; "
        "fenced + phi-accrual takeover survives with zero invariant "
        "violations and zero lost acked writes, unfenced loses the "
        "post-takeover acks to the healed stale tail",
        ("repro.net.topology", "repro.chaos.game_day", "repro.failover"),
        "benchmarks/bench_e17_game_day.py",
    ),
    Experiment(
        "E18", "Mixed-consistency transactions",
        "§5.7/§7.4: weak ops answered immediately from speculative local "
        "order keep acking through a partition while strong ops stall for "
        "the fenced total order; the cost is the apology rate — every "
        "acked guess the post-heal order contradicts becomes a structured, "
        "compensated apology, and the rate climbs with the cut length",
        ("repro.txn", "repro.chaos.mixed_txn", "repro.resources"),
        "benchmarks/bench_e18_mixed_txn.py",
    ),
    Experiment(
        "E19", "Gossip membership dissemination",
        "§6/§7.6: liveness as rumor — a membership change reaches every "
        "local view in O(log n) gossip rounds (latency ∝ log(n)·period, "
        "shrinking with fanout), a flapping member is convicted dead "
        "only when its dips outlast the suspicion timeout, and no "
        "conviction survives the member's own incarnation-bumped "
        "refutation",
        ("repro.cluster.gossip_membership", "repro.chaos.membership_divergence"),
        "benchmarks/bench_e19_gossip_membership.py",
    ),
    Experiment(
        "A1", "Hinted handoff availability",
        "§6.1: sloppy quorum keeps PUTs available past strict-quorum failure",
        ("repro.dynamo",), "benchmarks/bench_a01_hinted_handoff.py",
    ),
    Experiment(
        "A2", "CAP stances",
        "§8: relaxing consistency to ACID 2.0 buys availability without loss",
        ("repro.cap",), "benchmarks/bench_a02_cap_stances.py",
    ),
    Experiment(
        "A3", "Workflow duplication",
        "§5.4: derived uniquifiers collapse over-enthusiastic replicas' work",
        ("repro.workflow",), "benchmarks/bench_a03_workflow_duplication.py",
    ),
    Experiment(
        "A4", "Gossip vs message loss",
        "§7.6: anti-entropy degrades gracefully, never fails, under loss",
        ("repro.gossip",), "benchmarks/bench_a04_gossip_loss.py",
    ),
    Experiment(
        "A5", "Managing the probabilities",
        "§5.5/§5.6: an adaptive threshold holds the apology-rate target",
        ("repro.core.risk",), "benchmarks/bench_a05_adaptive_risk.py",
    ),
    Experiment(
        "A6", "Checkpoint cadence",
        "§2/§5.8: cadence trades checkpoint cost against redone work",
        ("repro.cluster.process_pair",),
        "benchmarks/bench_a06_checkpoint_cadence.py",
    ),
    Experiment(
        "A7", "Snapshot-seeded Dynamo rejoin",
        "§6: a cold-crashed node seeding from its local snapshot moves "
        "almost nothing over the wire; without one, Merkle anti-entropy "
        "resyncs the whole keyspace",
        ("repro.dynamo", "repro.storage.snapshot"),
        "benchmarks/bench_a07_snapshot_recovery.py",
    ),
)

