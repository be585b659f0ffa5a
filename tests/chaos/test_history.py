"""The recorded client history and its two rules, on planted histories."""

from repro.chaos.history import (
    ADD, FAILED, OK, PUT, UNKNOWN, History, acked_is_durable,
    at_most_one_effect, lost_acks,
)
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator


def planted(*ops):
    """A history of ``(client, kind, key, value, outcome)`` ops, each
    invoked and completed a sim-second after the one before."""
    sim = Simulator(seed=0)
    history = History(sim)

    def play():
        for client, kind, key, value, outcome in ops:
            op = history.invoke(client, kind, key, value)
            yield Timeout(1.0)
            history.complete(op, outcome)

    sim.run_process(play())
    return history


def test_an_acked_add_missing_from_the_observation_is_lost():
    history = planted(
        ("phone", ADD, "cart", "book", OK),
        ("laptop", ADD, "cart", "pen", OK),
        ("phone", ADD, "cart", "lamp", UNKNOWN),  # never acked: may vanish
    )
    view = {"book": 1}
    lost = lost_acks(history, lambda _cart: view)
    assert [(op.client, op.value) for op, _shown in lost] == [("laptop", "pen")]
    assert acked_is_durable(lost) == "1 acked writes lost, first: cart lacks 'pen'"
    assert lost_acks(history, lambda _cart: {"book": 1, "pen": 1}) == []


def test_a_superseded_put_is_rightly_absent():
    history = planted(
        ("a", PUT, "k", "v1", OK),
        ("b", PUT, "k", "v2", OK),
        ("a", PUT, "k", "v3", FAILED),  # told no: not the value owed
    )
    assert lost_acks(history, lambda _key: ("v2",)) == []
    lost = lost_acks(history, lambda _key: ("v1",))
    assert [op.value for op, _shown in lost] == ["v2"]
    assert acked_is_durable(lost) == (
        "1 acked writes lost, first: k='v2', held: 'v1'"
    )
    assert acked_is_durable(lost_acks(history, lambda _key: ())) == (
        "1 acked writes lost, first: k='v2', held: nothing"
    )


def test_counted_leaves_out_acks_the_system_may_lose():
    history = planted(
        ("old-regime", PUT, "k", "v1", OK),
        ("old-regime", PUT, "j", "w1", OK),
        ("new-regime", PUT, "k", "v2", OK),
    )
    new_regime = lambda op: op.client == "new-regime"  # noqa: E731
    assert lost_acks(history, lambda _key: ("v2",), new_regime) == []
    lost = lost_acks(history, lambda key: (), new_regime)
    assert [op.key for op, _shown in lost] == ["k"]


def test_the_latest_put_is_the_latest_to_complete():
    sim = Simulator(seed=0)
    history = History(sim)
    slow = history.invoke("a", PUT, "k", "slow")
    fast = history.invoke("b", PUT, "k", "fast")
    history.complete(fast, OK)
    sim.run(until=1.0)
    history.complete(slow, OK)
    assert (slow.invoked, slow.completed) == (0.0, 1.0)
    assert lost_acks(history, lambda _key: ("slow",)) == []
    assert [op for op, _ in lost_acks(history, lambda _key: ("fast",))] == [slow]


def test_two_effects_of_one_uniquifier_in_one_scope_are_flagged():
    history = History(Simulator(seed=0))
    history.effect("req-1", 0)
    history.effect("req-2", 0)
    history.effect("req-1", 0)
    assert at_most_one_effect(history.effects) == (
        "uniquifier 'req-1' took effect twice in 0"
    )


def test_one_effect_in_each_of_two_scopes_is_allowed():
    history = History(Simulator(seed=0))
    history.effect("req-1", 0)
    history.effect("req-1", 1)  # a restart wiped the dedup cache
    assert at_most_one_effect(history.effects) is None
    assert at_most_one_effect([]) is None


def test_recording_schedules_nothing():
    sim = Simulator(seed=0)
    history = History(sim)
    history.complete(history.invoke("c", PUT, "k", 1), OK)
    history.effect("u", "s")
    sim.run()
    assert sim.steps == 0
