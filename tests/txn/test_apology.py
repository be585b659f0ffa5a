"""Executable apologies: compensation wiring and dedup."""

from repro.core.operation import Operation
from repro.resources import FungiblePool
from repro.sim.scheduler import Simulator
from repro.txn import ApologyBook


def _op(uniq, kind="RESERVE", **args):
    return Operation(kind, args, uniquifier=uniq, origin="txn0")


def test_retracted_grant_releases_the_unit():
    sim = Simulator(seed=1)
    pool = FungiblePool("seats", 2)
    pool.allocate("a")
    book = ApologyBook(sim, pool=pool)
    apology = book.emit(_op("a"), told={"ok": True}, actual={"ok": False})
    assert apology.action == "release"
    assert pool.holder_of("a") is None
    assert sim.metrics.counters()["txn.apologies"] == 1


def test_upgraded_decline_re_reserves():
    sim = Simulator(seed=1)
    pool = FungiblePool("seats", 2)
    book = ApologyBook(sim, pool=pool)
    apology = book.emit(_op("a"), told={"ok": False}, actual={"ok": True})
    assert apology.action == "re-reserve"
    assert pool.holder_of("a") is not None


def test_unhandled_apology_lands_on_the_human_ledger():
    sim = Simulator(seed=1)
    book = ApologyBook(sim)
    apology = book.emit(_op("x", kind="SHIP"), told=1, actual=2)
    assert apology.action == "human"
    assert [a.uniquifier for a in book.human] == ["x"]
    assert book.counts() == {"human": 1}


def test_same_uniquifier_apologized_once():
    sim = Simulator(seed=1)
    book = ApologyBook(sim)
    assert book.emit(_op("x"), told=1, actual=2) is not None
    assert book.emit(_op("x"), told=1, actual=2) is None
    assert book.total == 1
