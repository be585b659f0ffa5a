"""The memories–guesses–apologies ledger: settlement and apology routing."""

from repro.bank import Check, ReplicatedBank
from repro.core import Ledger, Operation
from repro.resources import InventorySystem
from repro.txn import MixedTxnSystem, ResourceMachine
from repro.sim.scheduler import Simulator


def wrong_guess(ledger, rule="overdraft", uniquifier="u1"):
    ledger.guess(uniquifier, "cleared", "r1")
    return ledger.settle(uniquifier, "overdrawn", rule)


def test_guess_lifecycle():
    ledger = Ledger()
    ledger.guess("g1", "cleared", "r1")
    assert ledger.guesses["g1"].outcome == "open"
    assert ledger.settle("g1", "cleared", "overdraft") is None
    assert ledger.guesses["g1"].outcome == "confirmed"
    apology = wrong_guess(ledger, uniquifier="g2")
    assert ledger.guesses["g2"].outcome == "wrong"
    assert (apology.told, apology.actual, apology.origin) == ("cleared", "overdrawn", "r1")
    assert ledger.apologies == [apology]
    assert ledger.unpaired() == []


def test_confirm_unknown_guess_is_noop():
    ledger = Ledger()
    assert ledger.settle("ghost", "cleared", "overdraft") is None
    assert ledger.settle("ghost", "overdrawn", "overdraft") is None
    assert ledger.guesses == {}
    assert ledger.apologies == []


def test_apology_goes_to_human_without_handler():
    ledger = Ledger()
    apology = wrong_guess(ledger)
    assert apology.resolution == "human"
    assert ledger.human == [apology]


def test_handler_absorbs_apology():
    ledger = Ledger()
    handled = []
    ledger.register_handler("overdraft", lambda a: (handled.append(a), "fee")[1])
    apology = wrong_guess(ledger)
    assert ledger.human == []
    assert handled == [apology]
    assert apology.resolution == "fee"


def test_handler_can_escalate():
    """Apology code asks for human help for cases beyond its design (§5.7)."""
    ledger = Ledger()
    ledger.register_handler("overdraft", lambda a: None)
    assert wrong_guess(ledger).resolution == "human"
    assert len(ledger.human) == 1


def test_handler_scoped_by_rule():
    ledger = Ledger()
    ledger.register_handler("overdraft", lambda a: "fee")
    wrong_guess(ledger, rule="overbooked")
    assert len(ledger.human) == 1


def test_unpaired_flags_a_planted_double_emit_on_every_path():
    """Each system's ledger pairs its wrong guesses with one apology; a
    second apology for the same uniquifier, planted by hand, is flagged."""
    bank = ReplicatedBank(100.0)
    bank.clear_check("branch0", Check("fnb", "acct1", 1, "a", 80.0))
    bank.clear_check("branch1", Check("fnb", "acct1", 2, "b", 70.0))
    bank.reconcile()

    inventory = InventorySystem(2.0, ["east", "west"], theta=1.0)
    for index in range(2):
        inventory.request("east", f"e{index}")
        inventory.request("west", f"w{index}")
    inventory.sync_all()
    inventory.sync_all()  # settles nothing new

    sim = Simulator(seed=5)
    txn = MixedTxnSystem(sim, ResourceMachine({"seats": 2}))
    txn.start()
    sim.run(until=1.0)
    txn.network.partition([{"txn0", "txn1", "txn.monitor"}, {"txn2"}])
    for replica, uniquifier in (("txn0", "a"), ("txn0", "b"), ("txn2", "w")):
        txn.submit(replica, Operation("RESERVE", {"category": "seats"},
                                      uniquifier=uniquifier))
    sim.run(until=4.0)
    txn.network.heal()
    sim.run(until=8.0)
    txn.stop()

    for ledger in (bank.ledger, inventory.ledger, txn.ledger):
        assert ledger.apologies and ledger.unpaired() == []
        planted = ledger.apologies[0]
        ledger.apologies.append(planted)
        assert ledger.unpaired() == [planted.uniquifier]
