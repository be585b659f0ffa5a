"""ChaosPlan and ChaosSpec: validation, views, persistence, sampling."""

import pytest

from repro.chaos.plan import (
    ChaosPlan,
    ChaosSpec,
    CrashEpisode,
    DiskFaultEpisode,
    LinkFaultEpisode,
    PartitionEpisode,
    WanCutEpisode,
)
from repro.errors import SimulationError


def sample_plan():
    return ChaosPlan((
        CrashEpisode("n1", 2.0, 5.0),
        PartitionEpisode(3.0, 6.0, (("n1",), ("n2", "n3"))),
        LinkFaultEpisode(1.0, 4.0, loss=0.2),
        DiskFaultEpisode("d0", 2.5, 7.0, slow_factor=3.0),
    ))


# ----------------------------------------------------------------------
# Episode validation


def test_crash_restart_must_follow_crash():
    with pytest.raises(SimulationError):
        CrashEpisode("n1", 5.0, back_at=5.0)


def test_partition_window_must_be_nonempty():
    with pytest.raises(SimulationError):
        PartitionEpisode(4.0, 4.0, (("a",), ("b",)))


def test_partition_needs_groups():
    with pytest.raises(SimulationError):
        PartitionEpisode(1.0, 2.0, ())


def test_link_fault_must_do_something():
    with pytest.raises(SimulationError):
        LinkFaultEpisode(0.0, 1.0)


def test_link_fault_probability_bounds():
    with pytest.raises(SimulationError):
        LinkFaultEpisode(0.0, 1.0, loss=1.5)


def test_disk_slow_factor_below_one_rejected():
    with pytest.raises(SimulationError):
        DiskFaultEpisode("d0", 1.0, slow_factor=0.5)


# ----------------------------------------------------------------------
# Plan-level behaviour


def test_plan_rejects_overlapping_partitions():
    with pytest.raises(SimulationError):
        ChaosPlan((
            PartitionEpisode(1.0, 5.0, (("a",), ("b",))),
            PartitionEpisode(4.0, 8.0, (("a",), ("b",))),
        ))


def test_plan_allows_boundary_sharing_partitions():
    plan = ChaosPlan((
        PartitionEpisode(1.0, 5.0, (("a",), ("b",))),
        PartitionEpisode(5.0, 8.0, (("a", "b"), ("c",))),
    ))
    assert len(plan.of("partition")) == 2


def test_plan_views_split_by_kind():
    plan = sample_plan()
    assert len(plan.of("crash")) == 1
    assert len(plan.of("partition")) == 1
    assert len(plan.of("link_fault")) == 1
    assert len(plan.of("disk_fault")) == 1
    assert len(plan) == 4


def test_plan_horizon_is_latest_end():
    assert sample_plan().horizon == 7.0
    assert ChaosPlan().horizon == 0.0


def test_without_and_replace_episode():
    plan = sample_plan()
    smaller = plan.without(0)
    assert len(smaller) == 3 and not smaller.of("crash")
    narrowed = plan.replace_episode(1, PartitionEpisode(3.0, 4.0, (("n1",), ("n2",))))
    assert narrowed.of("partition")[0].end == 4.0
    # the original is untouched (plans are immutable values)
    assert plan.of("partition")[0].end == 6.0


def test_describe_mentions_every_episode():
    text = sample_plan().describe()
    assert "crash" in text and "partition" in text
    assert "link fault" in text and "disk" in text
    assert ChaosPlan().describe() == "(empty plan)"


def test_describe_is_one_line_per_episode_in_start_order():
    plan = ChaosPlan(sample_plan().episodes + (
        WanCutEpisode(0.5, 1.5, "dc-a", "dc-b"),
        DiskFaultEpisode("d1", 9.0),
    ))
    assert plan.describe().splitlines() == [
        "wan cut    [0.5, 1.5] dc-a<->dc-b loss=1",
        "link fault [1, 4] *->* loss=0.2 dup=0 delay+=0",
        "crash      n1 @ 2, back 5",
        "disk    slow x3 d0 @ 2.5, repair 7",
        "partition  [3, 6] {n1} | {n2,n3}",
        "disk       fail d1 @ 9, stays broken",
    ]


def test_narrowed_offers_each_kinds_smaller_variant():
    """What the shrinker tries on a surviving episode: a crash stops
    coming back; a window halves until it is two minimum windows wide."""
    assert CrashEpisode("n1", 2.0, 5.0).narrowed(0.5) == (CrashEpisode("n1", 2.0),)
    assert CrashEpisode("n1", 2.0).narrowed(0.5) == ()
    groups = (("n1",), ("n2",))
    assert PartitionEpisode(3.0, 6.0, groups).narrowed(0.5) == (
        PartitionEpisode(3.0, 4.5, groups),)
    assert PartitionEpisode(3.0, 4.0, groups).narrowed(0.5) == ()
    assert LinkFaultEpisode(1.0, 4.0, loss=0.2).narrowed(0.5) == (
        LinkFaultEpisode(1.0, 2.5, loss=0.2),)
    assert WanCutEpisode(2.0, 8.0, "a", "b").narrowed(0.5) == (
        WanCutEpisode(2.0, 5.0, "a", "b"),)
    assert DiskFaultEpisode("d0", 2.0, 7.0, slow_factor=3.0).narrowed(0.5) == (
        DiskFaultEpisode("d0", 2.0, 4.5, slow_factor=3.0),)
    assert DiskFaultEpisode("d0", 2.0).narrowed(0.5) == ()  # never repaired


def test_dict_roundtrip_preserves_plan():
    plan = sample_plan()
    assert ChaosPlan.from_dict(plan.to_dict()) == plan


def test_dict_roundtrip_empty_and_stays_down():
    plan = ChaosPlan((CrashEpisode("n1", 2.0),))
    data = plan.to_dict()
    assert "back_at" not in data["episodes"][0]
    assert ChaosPlan.from_dict(data) == plan


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(SimulationError):
        ChaosPlan.from_dict({"episodes": [{"kind": "meteor"}]})


def test_dict_form_is_what_the_plan_json_line_prints():
    """``kind`` first, None fields left out, groups as JSON arrays."""
    import json

    assert json.dumps(sample_plan().to_dict()) == (
        '{"episodes": ['
        '{"kind": "crash", "node": "n1", "at": 2.0, "back_at": 5.0}, '
        '{"kind": "partition", "start": 3.0, "end": 6.0, '
        '"groups": [["n1"], ["n2", "n3"]]}, '
        '{"kind": "link_fault", "start": 1.0, "end": 4.0, "loss": 0.2, '
        '"duplicate": 0.0, "extra_delay": 0.0}, '
        '{"kind": "disk_fault", "disk": "d0", "at": 2.5, "repair_at": 7.0, '
        '"slow_factor": 3.0}]}'
    )
    pasted = json.loads(json.dumps(sample_plan().to_dict()))
    assert ChaosPlan.from_dict(pasted) == sample_plan()


# A pinned plan is pasted back in by hand: whatever is wrong with it must
# come out as a SimulationError that says which entry, not a bare builtin.
GOOD = {"kind": "crash", "node": "n1", "at": 2.0}


@pytest.mark.parametrize("data,message", [
    ({}, "no 'episodes' list"),
    ({"episodes": None}, "no 'episodes' list"),
    ({"episodes": [GOOD, {"node": "n1", "at": 2.0}]}, "episode 1 has no 'kind'"),
    ({"episodes": [GOOD, {**GOOD, "when": 3.0}]},
     r"episode 1 \(crash\): .*unexpected keyword argument 'when'"),
    ({"episodes": [{"kind": "partition", "start": 1.0, "end": 2.0}]},
     r"episode 0 \(partition\): .*'groups'"),
    ({"episodes": [GOOD, {"kind": "meteor"}]}, "episode 1: unknown kind 'meteor'"),
    ({"episodes": [{"kind": ["crash"]}]}, "episode 0: unknown kind"),
    ({"episodes": [{**GOOD, "back_at": 1.0}]},
     r"episode 0 \(crash\): restart 1.0 not after crash 2.0"),
    ({"episodes": [{**GOOD, "at": "noon"}]}, r"episode 0 \(crash\): "),
], ids=["no-episodes", "episodes-not-a-list", "no-kind", "unknown-field",
        "missing-field", "unknown-kind", "unhashable-kind", "invalid-episode",
        "wrong-type"])
def test_from_dict_names_the_entry_that_is_malformed(data, message):
    with pytest.raises(SimulationError, match=message):
        ChaosPlan.from_dict(data)


# ----------------------------------------------------------------------
# Seeded sampling


def test_sample_is_pure_function_of_seed():
    spec = ChaosSpec(nodes=("a", "b", "c"), horizon=20.0)
    assert spec.sample(7) == spec.sample(7)
    assert any(spec.sample(i) != spec.sample(i + 100) for i in range(5))


def test_sample_respects_crash_bounds_and_horizon():
    spec = ChaosSpec(nodes=("a", "b", "c"), horizon=20.0,
                     min_crashes=1, max_crashes=2)
    for seed in range(20):
        plan = spec.sample(seed)
        assert 1 <= len(plan.of("crash")) <= 2
        assert plan.horizon <= 0.9 * spec.horizon + 1e-9
        for episode in plan.of("crash"):
            assert episode.node in spec.nodes


def test_spec_validates_bounds():
    with pytest.raises(SimulationError):
        ChaosSpec(nodes=())
    with pytest.raises(SimulationError):
        ChaosSpec(nodes=("a",), min_crashes=3, max_crashes=1)
    with pytest.raises(SimulationError):
        ChaosSpec(nodes=("a",), horizon=-1.0)
