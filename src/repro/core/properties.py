"""The ACID 2.0 property checker (§8).

"Associative, Commutative, Idempotent, and Distributed... The goal for
ACID2.0 is to succeed if the pieces of the work happen: at least once,
anywhere in the system, in any order."

Given a :class:`TypeRegistry` and a sample of operations, the checker
exercises exactly those three executable properties:

- **commutativity / order-independence**: every permutation of the sample
  folds to the same state;
- **associativity**: merging knowledge in any grouping yields the same
  state (union of op-sets, then fold);
- **idempotence**: delivering an operation more than once (dedup by
  uniquifier at the OpSet layer) changes nothing.

States are compared with ``==``; provide state types with structural
equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Sequence

from repro.core.operation import Operation, TypeRegistry
from repro.core.oplog import OpSet


@dataclass
class Acid2Report:
    """The verdict, with counterexamples when a property fails."""

    commutative: bool = field(default=True, init=False)
    associative: bool = field(default=True, init=False)
    idempotent: bool = field(default=True, init=False)
    failures: List[str] = field(default_factory=list, init=False)

    @property
    def ok(self) -> bool:
        return self.commutative and self.associative and self.idempotent

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = f"C={self.commutative} A={self.associative} I={self.idempotent}"
        return f"<Acid2Report {flags} failures={len(self.failures)}>"


def _fold(registry: TypeRegistry, ops: Sequence[Operation]) -> Any:
    state = registry.initial_state()
    for op in ops:
        state = registry.apply(state, op)
    return state


#: Orders the commutativity check tries: all of them for samples of
#: size ≤ 4.
MAX_PERMUTATIONS = 24


def check_acid2(
    registry: TypeRegistry, sample_ops: Sequence[Operation]
) -> Acid2Report:
    """Empirically check ACID 2.0 over a sample of operations.

    Permutation checking is exhaustive up to :data:`MAX_PERMUTATIONS`
    orders (all orders for samples of size ≤ 4), which is how the
    taxonomy question of §9 gets a concrete answer per operation family.
    """
    report = Acid2Report()
    ops = list(sample_ops)
    if not ops:
        return report
    reference = _fold(registry, ops)

    # Commutativity: all (bounded) permutations agree.
    for index, perm in enumerate(itertools.permutations(ops)):
        if index >= MAX_PERMUTATIONS:
            break
        if _fold(registry, perm) != reference:
            report.commutative = False
            order = [op.uniquifier for op in perm]
            report.failures.append(f"order {order} diverges")
            break

    # Associativity: fold(A ∪ B) == fold((A ∪ B) ∪ C) groupings.
    for split in range(1, len(ops)):
        left, right = OpSet(ops[:split]), OpSet(ops[split:])
        merged_lr = left.union(right)
        merged_rl = right.union(left)
        if (
            merged_lr.canonical_fold(registry) != merged_rl.canonical_fold(registry)
            or merged_lr.canonical_fold(registry)
            != OpSet(ops).canonical_fold(registry)
        ):
            report.associative = False
            report.failures.append(f"grouping at {split} diverges")
            break

    # Idempotence: duplicated delivery changes nothing.
    doubled = OpSet(ops)
    for op in ops:
        doubled.add(op)  # duplicates are collapsed by uniquifier
    if doubled.canonical_fold(registry) != OpSet(ops).canonical_fold(registry):
        report.idempotent = False
        report.failures.append("duplicate delivery diverges")
    # And raw double-apply must be visibly different from deduped delivery
    # only if the type itself is non-idempotent; the registry layer is the
    # guarantee the paper's uniquifier provides.
    return report
