"""The monotonic epoch the controller grants: the token totally orders
regimes (the ``failover.leases_granted`` counter counts the grants)."""

from repro.failover import FailoverController, FixedTimeoutDetector
from repro.net import Network
from repro.sim import Simulator


def test_epoch_bumps_on_every_grant():
    sim = Simulator(seed=0)
    controller = FailoverController(
        Network(sim),
        FixedTimeoutDetector(sim, ["east"]),
        "monitor",
        primary_of=lambda: "east",
        successor_of=lambda node: "west",
        promote=lambda node, epoch: None,
    )
    grants = [controller.grant(holder) for holder in ("east", "west", "west")]
    assert grants == [1, 2, 3]               # a re-grant bumps it too
    assert controller.epoch == 3
    assert sim.metrics.counter("failover.leases_granted").value == 3
