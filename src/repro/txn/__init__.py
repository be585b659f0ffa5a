"""Mixed-consistency transactions: guesses, stabilization, apologies.

The ROADMAP's Creek-style layer over the fabric. Weak operations execute
immediately against speculative state and return a guess; strong
operations wait for the fenced leader's total order; a stabilization
pass rolls tentative suffixes back, re-executes in the agreed order, and
turns every changed already-acked result into an executable apology
(:mod:`repro.txn.apology`) — the paper's §5.7, as a programming model.
"""

from repro.txn.apology import ApologyBook, TxnApology
from repro.txn.machine import (
    ResourceMachine,
    TxnMachine,
    sample_resource_ops,
)
from repro.txn.system import LogEntry, MixedTxnSystem, TxnReplica, TxnTicket

__all__ = [
    "ApologyBook",
    "TxnApology",
    "TxnMachine",
    "ResourceMachine",
    "sample_resource_ops",
    "LogEntry",
    "MixedTxnSystem",
    "TxnReplica",
    "TxnTicket",
]
