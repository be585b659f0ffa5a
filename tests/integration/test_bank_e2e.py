"""End-to-end bank scenario on the simulator clock: Poisson check
arrivals at two branches, gossip-scheduled reconciliation, statements,
deposits with holds — the full §6.2 machine in one run."""

from repro.bank import (
    Check,
    ClearOutcome,
    CustomerStanding,
    DepositDesk,
    ReplicatedBank,
    StatementBook,
)
from repro.core.antientropy import sync_replicas
from repro.sim import Simulator, Timeout
from repro.workload import CheckStream


def test_full_month_of_banking():
    sim = Simulator(seed=41)
    bank = ReplicatedBank(
        initial_deposit=5_000.0,
        coordination_threshold=2_000.0,
    )
    desk = DepositDesk(bank, "branch0")
    book = StatementBook(bank.replica("branch0"))
    stream = CheckStream(sim.rng.stream("checks"), low=10.0, high=300.0)
    outcomes = {outcome: 0 for outcome in ClearOutcome}

    def check_traffic(branch):
        rng = sim.rng.stream(f"arrivals-{branch}")
        while sim.now < 300.0:
            yield Timeout(rng.expovariate(1.0 / 20.0))
            outcome = bank.clear_check(branch, stream.next_check())
            outcomes[outcome] += 1

    def nightly_reconciliation():
        while sim.now < 400.0:
            yield Timeout(50.0)
            sync_replicas(bank.replica("branch0"), bank.replica("branch1"))

    def month_end():
        yield Timeout(150.0)
        book.close("first-half")
        yield Timeout(250.0)
        bank.reconcile()
        book.close("second-half")

    def deposits():
        yield Timeout(30.0)
        deposit_id = desk.deposit_check(
            Check("otherbank", "friend", 1, "us", 400.0), CustomerStanding.RISKY
        )
        yield Timeout(60.0)
        desk.resolve(deposit_id, bounced=False)

    sim.spawn(check_traffic("branch0"))
    sim.spawn(check_traffic("branch1"))
    sim.spawn(nightly_reconciliation())
    sim.spawn(month_end())
    sim.spawn(deposits())
    sim.run()

    # The system processed real traffic and settled consistently.
    assert outcomes[ClearOutcome.CLEARED] > 5
    bank.reconcile()
    assert bank.converged()
    balances = list(bank.balances().values())
    # Same entries accumulated in different arrival orders: equal up to
    # float rounding.
    assert abs(balances[0] - balances[1]) < 1e-6
    # Ledger discipline survived the whole month.
    book.close("final")
    book.check_exactly_once()
    assert book.chaining_consistent()
    # The risky deposit's hold was released on clearance.
    assert bank.available("branch0") == bank.balances()["branch0"]
    # Guesses were tracked for the deposit.
    guesses = bank.replica("branch0").guesses.counts()
    assert guesses["confirmed"] >= 1
