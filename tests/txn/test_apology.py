"""Executable apologies: compensation wiring, dedup, and the reconcile
path over reported pool conflicts."""

from repro.core.operation import Operation
from repro.resources import FungiblePool
from repro.sim.scheduler import Simulator
from repro.txn import ApologyBook, reconcile_pools


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


def test_reconcile_pools_apologizes_per_conflict():
    """A partition-split pool pair settles through the apology path: the
    conflicted holder on our side is released and told so."""
    sim = Simulator(seed=1)
    east = FungiblePool("rooms", 2)
    west = FungiblePool("rooms", 2)
    east.allocate("alice")   # unit 0 east-side
    west.allocate("bob")     # unit 0 west-side: same room, two guests
    fulfillment = FungiblePool("rooms", 2)
    fulfillment.allocate("alice")
    book = ApologyBook(sim, pool=fulfillment)
    emitted = reconcile_pools(east, west, book, origin="east")
    assert emitted == 1
    assert east.holder_of("alice") is None          # replica grant undone
    assert fulfillment.holder_of("alice") is None   # real unit released
    assert book.entries[0].action == "release"
    assert book.uniquifiers() == {"alice"}
