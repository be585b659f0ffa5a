"""CAP stances: pick two — and ACID 2.0 making the price small."""

import pytest

from repro.cap import CapCell, Stance
from repro.errors import SimulationError


def test_connected_all_stances_equivalent():
    for stance in Stance:
        cell = CapCell(stance)
        assert cell.increment("east", 5.0, "u1", at=1.0)
        assert cell.increment("west", 3.0, "u2", at=2.0)
        assert cell.read("east") == cell.read("west") == 8.0
        assert cell.consistent()


def test_duplicate_uniquifier_collapses():
    cell = CapCell(Stance.AP_OPS)
    cell.increment("east", 5.0, "u1", at=1.0)
    cell.increment("west", 5.0, "u1", at=1.5)  # retry landed elsewhere
    assert cell.read("east") == 5.0
    assert cell.total_accepted_amount == 5.0


def test_cp_minority_refuses_during_partition():
    cell = CapCell(Stance.CP)
    cell.partition()
    assert cell.increment("east", 1.0, "u1", at=1.0)   # quorum side serves
    assert not cell.increment("west", 1.0, "u2", at=1.0)
    assert cell.read("west") is None
    assert cell.refused == 2
    cell.heal()
    assert cell.read("west") == 1.0  # consistent once reconnected
    assert cell.lost_updates == []


def test_ap_lww_available_but_loses_minority_updates():
    cell = CapCell(Stance.AP_LWW)
    cell.partition()
    assert cell.increment("east", 1.0, "e1", at=1.0)
    assert cell.increment("west", 10.0, "w1", at=2.0)  # later stamp: west wins
    cell.heal()
    assert cell.lost_updates == ["e1"]
    assert cell.read("east") == cell.read("west") == 10.0
    assert cell.refused == 0


def test_ap_ops_available_and_lossless():
    cell = CapCell(Stance.AP_OPS)
    cell.partition()
    for i in range(5):
        assert cell.increment("east", 1.0, f"e{i}", at=float(i))
        assert cell.increment("west", 1.0, f"w{i}", at=float(i) + 0.5)
    cell.heal()
    assert cell.read("east") == cell.read("west") == 10.0
    assert cell.lost_updates == []
    assert cell.refused == 0
    assert cell.read("east") == cell.total_accepted_amount


def test_heal_idempotent():
    cell = CapCell(Stance.AP_OPS)
    cell.heal()  # no partition: no-op
    cell.partition()
    cell.increment("east", 1.0, "u1", at=1.0)
    cell.heal()
    cell.heal()
    assert cell.read("west") == 1.0


def test_consistency_check_during_partition():
    cell = CapCell(Stance.AP_OPS)
    cell.partition()
    cell.increment("east", 1.0, "u1", at=1.0)
    assert not cell.consistent()  # east says 1, west says 0
    cell.heal()
    assert cell.consistent()


def test_bad_site_rejected():
    cell = CapCell(Stance.CP)
    with pytest.raises(SimulationError):
        cell.increment("north", 1.0, "u1")
