"""CAP cell: additional behaviours."""

from repro.cap import CapCell, Stance


def test_cp_quorum_side_reads_during_partition():
    cell = CapCell(Stance.CP)
    cell.increment("west", 5.0, "u1", at=1.0)
    cell.partition()
    assert cell.read("east") == 5.0
    assert cell.read("west") is None


def test_lww_snapshot_read_vs_ops_read():
    """Connected, the LWW snapshot equals the op-sum; the stances only
    diverge in how they merge after a partition."""
    lww = CapCell(Stance.AP_LWW)
    ops = CapCell(Stance.AP_OPS)
    for index in range(5):
        lww.increment("east", 2.0, f"u{index}", at=float(index))
        ops.increment("east", 2.0, f"u{index}", at=float(index))
    assert lww.read("west") == ops.read("west") == 10.0


def test_lww_tie_breaks_deterministically():
    cell = CapCell(Stance.AP_LWW)
    cell.partition()
    cell.increment("east", 1.0, "a", at=1.0)
    cell.increment("west", 2.0, "b", at=1.0)  # same stamp time, later uniq
    cell.heal()
    assert cell.consistent()
    # Exactly one side's update was kept; the other was recorded lost.
    assert len(cell.lost_updates) == 1


def test_refused_increment_not_in_accounting():
    cell = CapCell(Stance.CP)
    cell.partition()
    cell.increment("west", 99.0, "refused", at=1.0)
    cell.heal()
    assert cell.total_accepted_amount == 0.0
    assert cell.read("west") == 0.0


def test_second_partition_cycle():
    cell = CapCell(Stance.AP_OPS)
    cell.partition()
    cell.increment("east", 1.0, "first", at=1.0)
    cell.heal()
    cell.partition()
    cell.increment("west", 2.0, "second", at=2.0)
    cell.heal()
    assert cell.read("east") == cell.read("west") == 3.0
