"""§5.1: orphaned work locked in the failed primary, and what recovery
policies do with it."""

import pytest

from repro.errors import SimulationError
from repro.logship import LogShippingSystem
from repro.sim import Timeout


def run_orphan_scenario(policy, post_takeover_writes=None):
    """Commit t-orphan, fail over before it ships, optionally write at the
    new primary, then recover the old site under `policy`."""
    system = LogShippingSystem(ship_interval=100.0, seed=3)

    def job():
        yield from system.submit({"x": "old", "z": "orphan-only"})
        system.fail_over()
        for key, value in (post_takeover_writes or {}).items():
            yield from system.submit({key: value})
        result = system.recover_orphans(policy=policy)
        return result

    result = system.sim.run_process(job())
    return system, result


def test_discard_policy_counts_orphans():
    system, result = run_orphan_scenario("discard")
    assert result["orphans"] == ["txn-1"]
    assert system.sim.metrics.counter("logship.discarded_orphans").value == 1
    assert "z" not in system.primary.state


def test_reapply_policy_resurrects_work():
    system, result = run_orphan_scenario("reapply")
    assert result["orphans"] == ["txn-1"]
    assert system.primary.state["z"] == "orphan-only"
    assert result["clobbered_keys"] == []


def test_reapply_clobbers_newer_writes():
    """The reordering hazard: the orphan's old value lands on top of a
    value written after the takeover."""
    system, result = run_orphan_scenario("reapply", post_takeover_writes={"x": "new"})
    assert result["clobbered_keys"] == ["x"]
    assert system.primary.state["x"] == "old"  # the damage, visible
    assert system.sim.metrics.counter("logship.clobbered_keys").value == 1


def test_discard_never_clobbers():
    system, result = run_orphan_scenario("discard", post_takeover_writes={"x": "new"})
    assert result["clobbered_keys"] == []
    assert system.primary.state["x"] == "new"


def test_unknown_policy_rejected():
    system = LogShippingSystem(seed=1)

    def job():
        yield from system.submit({"x": 1})
        system.fail_over()
        system.recover_orphans(policy="wish-for-the-best")
        yield Timeout(0)

    with pytest.raises(SimulationError):
        system.sim.run_process(job())


def test_no_orphans_when_everything_shipped():
    system = LogShippingSystem(ship_interval=0.01, seed=1)

    def job():
        yield from system.submit({"x": 1})
        yield Timeout(1.0)
        system.fail_over()
        return system.recover_orphans(policy="discard")

    result = system.sim.run_process(job())
    assert result["orphans"] == []
