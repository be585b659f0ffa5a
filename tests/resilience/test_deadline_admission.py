"""Deadline propagation helpers and server-side admission verdicts."""

import pytest

from repro.errors import SimulationError
from repro.net import Endpoint, FixedLatency, LinkConfig, Network
from repro.resilience import (
    DEADLINE_KEY,
    Admission,
    AdmissionConfig,
    AdmissionControl,
    deadline_of,
    expired,
    remaining,
    stamp,
)
from repro.sim import Simulator


class _Clock:
    def __init__(self, now=0.0):
        self.now = now
        self.counters = {}
        self.metrics = self

    def inc(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value


# ----------------------------------------------------------------------
# Deadline helpers


def test_stamp_and_read_back():
    payload = stamp({"item": 1}, 5.0)
    assert payload[DEADLINE_KEY] == 5.0
    assert deadline_of(payload) == 5.0
    assert deadline_of({}) is None


def test_stamp_keeps_the_tighter_deadline():
    payload = stamp({}, 5.0)
    stamp(payload, 9.0)             # looser: ignored
    assert deadline_of(payload) == 5.0
    stamp(payload, 2.0)             # tighter: wins
    assert deadline_of(payload) == 2.0


def test_expired_is_strictly_after_the_deadline():
    clock = _Clock(now=5.0)
    assert not expired(clock, stamp({}, 5.0))   # exactly on time still counts
    assert expired(clock, stamp({}, 4.9))
    assert not expired(clock, {})               # no deadline, never shed


def test_remaining_clamps_at_zero():
    clock = _Clock(now=3.0)
    assert remaining(clock, stamp({}, 5.0)) == 2.0
    assert remaining(clock, stamp({}, 1.0)) == 0.0
    assert remaining(clock, {}) is None


# ----------------------------------------------------------------------
# Admission control


def test_admission_config_validation():
    with pytest.raises(SimulationError):
        AdmissionConfig(max_inflight=0)


def test_admits_under_the_watermark_busy_at_it():
    clock = _Clock()
    control = AdmissionControl(clock, "server", AdmissionConfig(max_inflight=2))
    assert control.decide(0, {}) is Admission.ADMIT
    assert control.decide(1, {}) is Admission.ADMIT
    assert control.decide(2, {}) is Admission.BUSY
    assert clock.counters["resilience.admission.server.shed_busy"] == 1


def test_expired_is_shed_even_with_capacity():
    clock = _Clock(now=10.0)
    control = AdmissionControl(clock, "server", AdmissionConfig(max_inflight=8))
    assert control.decide(0, stamp({}, 9.0)) is Admission.EXPIRED
    assert clock.counters["resilience.admission.server.shed_expired"] == 1


def test_watermark_counts_plain_handlers_dispatched_but_not_yet_run():
    """Four requests delivered in one timestamp to ``max_inflight=2``: a
    plain handler occupies a slot from its dispatch to its own lane step,
    so the third and fourth are judged against two in flight and shed —
    and the slots are free again at the next timestamp."""
    sim = Simulator()
    net = Network(sim, default_link=LinkConfig(latency=FixedLatency(1.0)))
    server = Endpoint(net, "server")
    server.use_admission(AdmissionConfig(max_inflight=2))
    served = []
    server.register("do", lambda _ep, msg: served.append(msg.payload["n"]))
    server.start()
    client = Endpoint(net, "client")
    for n in range(4):
        client.cast("server", "do", {"n": n})
    sim.schedule(1.0, lambda: served.append(f"inflight={server.inflight_handlers}"))
    sim.schedule(2.0, client.cast, "server", "do", {"n": 4})
    sim.run()
    assert served == ["inflight=2", 0, 1, 4]
    assert server.inflight_handlers == 0
    assert sim.metrics.counters()["resilience.admission.server.shed_busy"] == 2
