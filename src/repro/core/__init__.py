"""The paper's contribution: operation-centric eventual consistency.

§6.5: "the real action comes when examining application based operation
semantics." Instead of READ/WRITE against storage, applications record
uniquely-identified *operations*; replica state is the fold of the
operations seen so far; reconciliation is set union; and ACID 2.0
(Associative, Commutative, Idempotent, Distributed — §8) is the property
bundle that makes the fold order-independent.

Pieces:

- :class:`Operation`, :class:`OperationType`, :class:`TypeRegistry` —
  uniquified operations and their apply functions.
- :class:`OpSet`, :class:`Replica` — memories: the op-log state model,
  local submission (guesses) and remote integration.
- :mod:`repro.core.antientropy` — replica synchronization schedules.
- :mod:`repro.core.properties` — the ACID 2.0 property checker.
- :mod:`repro.core.guesses` — the memories/guesses/apologies ledger
  (§5.7): one apology per wrong guess, routed to automated handlers,
  else a human (§5.6).
- :mod:`repro.core.rules` — business rules with local (probabilistic) or
  coordinated (synchronous) enforcement (§5.2, §5.8).
- :mod:`repro.core.risk` — per-operation risk policies: the $10,000 check
  (§5.5).
- :mod:`repro.core.escrow` — escrow locking (§5.3 sidebar).
"""

from repro.core.operation import Operation, OperationType, TypeRegistry
from repro.core.oplog import OpSet
from repro.core.replica import Replica
from repro.core.antientropy import sync_replicas, gossip_every
from repro.core.properties import Acid2Report, check_acid2
from repro.core.guesses import Apology, Guess, Ledger
from repro.core.rules import BusinessRule, Enforcement, RuleEngine
from repro.core.risk import AdaptiveRiskPolicy, RiskPolicy, ThresholdRiskPolicy
from repro.core.escrow import EscrowAccount, ExclusiveAccount
from repro.core.offline import OfflineSession

__all__ = [
    "OfflineSession",
    "Operation",
    "OperationType",
    "TypeRegistry",
    "OpSet",
    "Replica",
    "sync_replicas",
    "gossip_every",
    "Acid2Report",
    "check_acid2",
    "Apology",
    "Guess",
    "Ledger",
    "BusinessRule",
    "Enforcement",
    "RuleEngine",
    "RiskPolicy",
    "ThresholdRiskPolicy",
    "AdaptiveRiskPolicy",
    "EscrowAccount",
    "ExclusiveAccount",
]
