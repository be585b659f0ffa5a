"""Executable apologies: the txn system's ledger, its pool-wired handler,
and dedup."""

from repro.resources import FungiblePool
from repro.sim.scheduler import Simulator
from repro.txn import MixedTxnSystem, ResourceMachine
from repro.txn.system import REORDER


def _ledger(pool=None):
    system = MixedTxnSystem(
        Simulator(seed=1), ResourceMachine({"seats": 2}), apology_pool=pool
    )
    return system.ledger


def _reordered(ledger, uniq, told, actual):
    ledger.guess(uniq, told, "txn0")
    return ledger.settle(uniq, actual, REORDER)


def test_retracted_grant_releases_the_unit():
    pool = FungiblePool("seats", 2)
    pool.allocate("a")
    ledger = _ledger(pool)
    apology = _reordered(ledger, "a", told={"ok": True}, actual={"ok": False})
    assert apology.resolution == "release"
    assert pool.holder_of("a") is None
    assert ledger.human == []


def test_upgraded_decline_re_reserves():
    pool = FungiblePool("seats", 2)
    ledger = _ledger(pool)
    apology = _reordered(ledger, "a", told={"ok": False}, actual={"ok": True})
    assert apology.resolution == "re-reserve"
    assert pool.holder_of("a") is not None


def test_unhandled_apology_lands_on_the_human_ledger():
    ledger = _ledger(FungiblePool("seats", 2))
    apology = _reordered(ledger, "x", told=1, actual=2)
    assert apology.resolution == "human"
    assert [a.uniquifier for a in ledger.human] == ["x"]


def test_same_uniquifier_apologized_once():
    ledger = _ledger()
    assert _reordered(ledger, "x", told=1, actual=2) is not None
    assert ledger.settle("x", 2, REORDER) is None
    assert len(ledger.apologies) == 1
    assert ledger.unpaired() == []
