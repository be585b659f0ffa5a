"""Replicated check clearing (§6.2): guesses, apologies, statements.

Run:  python examples/bank_clearing.py
"""

from repro.bank import (
    Check,
    CustomerStanding,
    DepositDesk,
    ReplicatedBank,
    StatementBook,
)


def main():
    bank = ReplicatedBank(
        initial_deposit=1000.0,
        coordination_threshold=10_000.0,  # the $10,000 rule (§5.5)
    )
    book = StatementBook(bank.replica("branch0"))

    print("== two branches clear checks while disconnected ==")
    print("  opening balance:", bank.balances())
    first = Check("fnb", "acct1", 101, "rent", 600.0)
    second = Check("fnb", "acct1", 102, "car", 600.0)
    print(f"  branch0 clears #101 ($600): {bank.clear_check('branch0', first).value}")
    print(f"  branch1 clears #102 ($600): {bank.clear_check('branch1', second).value}")
    print("  local balances before they talk:", bank.balances())

    print()
    print("== the branches reconcile ==")
    apologies = bank.reconcile()
    print(f"  apologies surfaced: {len(apologies)} "
          f"(overdrafts: {bank.overdraft_count()}, "
          f"handled automatically: {bank.apologies.counts()['automated']})")
    print("  converged balances:", bank.balances())
    assert bank.converged()

    print()
    print("== the same check presented twice is idempotent ==")
    outcome = bank.clear_check("branch1", first)
    print(f"  branch1 re-presents #101: {outcome.value}")
    print("  balances unchanged:", bank.balances())

    print()
    print("== the brother-in-law's check (hold policy) ==")
    desk = DepositDesk(bank, "branch0")
    bil = Check("otherbank", "bil", 9, "you", 100.0)
    deposit_id = desk.deposit_check(bil, CustomerStanding.GOOD)
    print(f"  deposited on GOOD standing; available now: "
          f"{bank.available('branch0'):.2f}")
    desk.resolve(deposit_id, bounced=True)
    print(f"  ...it bounced: balance {bank.balances()['branch0']:.2f} "
          f"(-$100 and -$30 fee)")

    print()
    print("== the monthly statement is immutable ==")
    march = book.close("march")
    print(f"  march: open {march.opening_balance:.2f} -> close "
          f"{march.closing_balance:.2f} ({len(march.entries)} entries)")
    bank.reconcile()
    april = book.close("april")
    print(f"  april: open {april.opening_balance:.2f} -> close "
          f"{april.closing_balance:.2f} ({len(april.entries)} entries)")
    book.check_exactly_once()
    assert book.chaining_consistent()
    print()
    print("ok: memories, guesses, and apologies — exactly how banks work")


if __name__ == "__main__":
    main()
