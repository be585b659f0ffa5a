"""Classify an operation space and recommend patterns.

The §9 questions, answered per application: "What are the operations in
play? When are they commutative? What practices make the operations
idempotent?" — measured with :func:`repro.core.properties.check_acid2`
per operation type, then mapped to catalog recommendations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.operation import Operation, TypeRegistry
from repro.core.properties import check_acid2
from repro.patterns.catalog import Pattern, pattern_by_name

#: The two op classes of a mixed-consistency system (PAPERS.md's Creek):
#: weak ops execute immediately against tentative state and return a
#: guess; strong ops wait for the total order. ``repro.txn`` consumes
#: this classification to route each operation type.
OP_WEAK = "weak"
OP_STRONG = "strong"


@dataclass
class OperationProfile:
    """The measured ACID 2.0 profile of one application's op space."""

    per_type_commutative: Dict[str, bool]
    cross_type_commutative: bool
    idempotent_via_uniquifier: bool
    numeric_types: List[str]
    recommendations: List[Pattern] = field(default_factory=list, init=False)

    @property
    def fully_commutative(self) -> bool:
        return self.cross_type_commutative and all(
            self.per_type_commutative.values()
        )

    def op_class(self, op_type: str) -> str:
        """The consistency class the measured profile earns ``op_type``.

        A type that measured commutative on the sample rides the weak
        fast path: execute now, return a guess, stabilize later. A type
        that failed the permutation check — or one never measured — needs
        the total order (:data:`OP_STRONG`). Every type maps to exactly
        one class, and the answer depends only on the measured booleans,
        never on the insertion order of the profile's dictionaries.
        """
        if self.per_type_commutative.get(op_type, False):
            return OP_WEAK
        return OP_STRONG

    def op_classes(self) -> Dict[str, str]:
        """Class per measured type, sorted by type name for stability."""
        return {
            name: self.op_class(name)
            for name in sorted(self.per_type_commutative)
        }


def _is_numeric_delta(sample: Sequence[Operation]) -> bool:
    """Heuristic: an op family whose args carry a signed numeric 'amount'
    or 'quantity' is an escrow candidate."""
    for op in sample:
        for key in ("amount", "quantity", "delta"):
            if isinstance(op.args.get(key), (int, float)):
                return True
    return False


def classify_operation_space(
    registry: TypeRegistry, sample_ops: Sequence[Operation]
) -> OperationProfile:
    """Measure the properties of a sample workload and recommend patterns.

    Recommendations:

    - Always: ``uniquifier`` (idempotence is table stakes, §5.4).
    - Fully commutative space → ``operation-centric-capture`` fits as-is,
      plus ``memories-guesses-apologies`` for the enforcement gap.
    - Any non-commutative type → ``operation-centric-capture`` flagged as
      the *refactoring target* (recast WRITE-ish ops as intentions).
    - Numeric-delta types → ``escrow-locking``.
    """
    by_type: Dict[str, List[Operation]] = {}
    for op in sample_ops:
        by_type.setdefault(op.op_type, []).append(op)

    per_type = {}
    numeric_types = []
    for type_name, ops in by_type.items():
        report = check_acid2(registry, ops)
        per_type[type_name] = report.commutative
        if report.commutative and _is_numeric_delta(ops):
            numeric_types.append(type_name)

    cross_report = check_acid2(registry, list(sample_ops))
    idempotent = cross_report.idempotent

    profile = OperationProfile(
        per_type_commutative=per_type,
        cross_type_commutative=cross_report.commutative,
        idempotent_via_uniquifier=idempotent,
        numeric_types=sorted(numeric_types),
    )
    recommendations = [pattern_by_name("uniquifier")]
    recommendations.append(pattern_by_name("operation-centric-capture"))
    if profile.fully_commutative:
        recommendations.append(pattern_by_name("memories-guesses-apologies"))
    if profile.numeric_types:
        recommendations.append(pattern_by_name("escrow-locking"))
    profile.recommendations = recommendations
    return profile


def explain(profile: OperationProfile) -> str:
    """A short human-readable report of the classification."""
    lines = ["Operation-space profile:"]
    for type_name, commutative in sorted(profile.per_type_commutative.items()):
        verdict = "commutative" if commutative else "NOT commutative"
        lines.append(f"  - {type_name}: {verdict}")
    lines.append(
        f"  cross-type commutative: {profile.cross_type_commutative}; "
        f"idempotent via uniquifier: {profile.idempotent_via_uniquifier}"
    )
    if profile.numeric_types:
        lines.append(f"  escrow candidates: {', '.join(profile.numeric_types)}")
    lines.append("Recommended patterns:")
    for pattern in profile.recommendations:
        lines.append(f"  * {pattern.name} ({pattern.paper_section})")
    return "\n".join(lines)
