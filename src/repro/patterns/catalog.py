"""The pattern catalog: every named trick in the paper, as data."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class Pattern:
    """One recurring loose-coupling pattern.

    ``requires`` / ``provides`` use a small shared vocabulary so the
    classifier can chain them: e.g. the uniquifier *provides*
    "idempotence", which operation-centric capture *requires*.
    """

    name: str
    paper_section: str
    problem: str
    mechanism: str
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()
    implemented_by: str = ""


CATALOG: Tuple[Pattern, ...] = (
    Pattern(
        name="uniquifier",
        paper_section="§2.1, §5.4, §7.5",
        problem="Retries and over-zealous replicas execute the same request twice.",
        mechanism=(
            "Assign an identifier functionally dependent on the request at "
            "ingress (check number, MD5 of the body); every replica collapses "
            "repeat executions by id."
        ),
        provides=("idempotence", "duplicate-detection", "partitioning-key"),
        implemented_by="repro.core.operation / repro.net.rpc (dedup)",
    ),
    Pattern(
        name="operation-centric-capture",
        paper_section="§6.5",
        problem=(
            "READ/WRITE state does not commute, so replicas that work "
            "independently cannot be merged."
        ),
        mechanism=(
            "Record the user's intention as a uniquified operation; replica "
            "state is the fold of the op set; merge is set union."
        ),
        requires=("idempotence",),
        provides=("commutativity", "associativity", "mergeable-state"),
        implemented_by="repro.core (OpSet, Replica); repro.cart.OpCartStrategy",
    ),
    Pattern(
        name="escrow-locking",
        paper_section="§5.3 sidebar",
        problem="A hot numeric value serializes all transactions that touch it.",
        mechanism=(
            "Log operations (not before/after images); admit concurrent "
            "increments/decrements while the worst case of pending work stays "
            "within declared bounds; abort by inverse operation."
        ),
        requires=("commutativity",),
        provides=("concurrency-on-hot-values", "bounded-enforcement"),
        implemented_by="repro.core.escrow.EscrowAccount",
    ),
    Pattern(
        name="seat-reservation",
        paper_section="§7.3",
        problem=(
            "Untrusted agents can hold unique resources in an uncommitted "
            "state for unbounded time at zero cost."
        ),
        mechanism=(
            "Three explicit states (available / pending+session / "
            "purchased+buyer); each transition a small transaction; a durable "
            "timeout queue reclaims abandoned pendings."
        ),
        provides=("bounded-holds", "unique-resource-safety"),
        implemented_by="repro.resources.seats.SeatMap",
    ),
    Pattern(
        name="overbooking-slider",
        paper_section="§7.1",
        problem=(
            "Disconnected replicas must allocate shared resources without "
            "knowing the truth."
        ),
        mechanism=(
            "Blend between private quotas (never apologize, decline more) and "
            "believed-global allocation (book more, sometimes apologize); "
            "slide dynamically while connected."
        ),
        requires=("duplicate-detection",),
        provides=("availability-during-disconnection",),
        implemented_by="repro.resources.inventory.InventorySystem",
    ),
    Pattern(
        name="sync-or-apologize",
        paper_section="§5.5, §5.8",
        problem="Some operations are too risky for a local guess.",
        mechanism=(
            "A per-operation risk policy: below the threshold act on local "
            "knowledge (guess, maybe apologize); at or above it pay the "
            "synchronous checkpoint and know."
        ),
        provides=("tunable-consistency",),
        implemented_by=(
            "repro.core.risk.ThresholdRiskPolicy; "
            "repro.bank.clearing.ReplicatedBank"
        ),
    ),
    Pattern(
        name="fungible-bucketing",
        paper_section="§7.4",
        problem="Unique resources force coordination (you cannot merge seat 12A).",
        mechanism=(
            "Recast resources into interchangeable categories (a king "
            "non-smoking room, a pork-belly); redundant grants are returned, "
            "not apologized for."
        ),
        provides=("cheap-reconciliation",),
        implemented_by="repro.resources.fungible.FungiblePool",
    ),
    Pattern(
        name="memories-guesses-apologies",
        paper_section="§5.7",
        problem=(
            "With asynchronous checkpointing nothing is guaranteed, but the "
            "business must still act."
        ),
        mechanism=(
            "Remember everything seen (memories); treat every action on local "
            "knowledge as a guess; detect wrong guesses at reconciliation and "
            "route them to apology code, escalating to humans past its design."
        ),
        requires=("mergeable-state",),
        provides=("bounded-human-cost",),
        implemented_by="repro.core.guesses (Ledger)",
    ),
)


def pattern_by_name(name: str) -> Pattern:
    for pattern in CATALOG:
        if pattern.name == name:
            return pattern
    raise SimulationError(f"unknown pattern {name!r}")
