"""The generic §2 abstraction: idempotent steps + checkpoint cadences."""

import pytest

from repro.cluster import CheckpointCadence, PairedAlgorithm
from repro.errors import SimulationError
from repro.net import Network
from repro.sim import Simulator


def counting_step(state, step_index):
    """Idempotent by construction: set-based accumulation."""
    return {"done": sorted(set(state["done"]) | {step_index})}


def make_pair(sim=None, cadence=CheckpointCadence.EVERY_STEP, **kwargs):
    sim = sim or Simulator(seed=1)
    network = Network(sim)
    pair = PairedAlgorithm(
        sim, network,
        step=counting_step,
        total_steps=kwargs.pop("total_steps", 10),
        initial_state={"done": []},
        cadence=cadence,
        **kwargs,
    )
    return sim, pair


def test_validation():
    sim = Simulator()
    network = Network(sim)
    with pytest.raises(SimulationError):
        PairedAlgorithm(sim, network, counting_step, 0, {})
    with pytest.raises(SimulationError):
        PairedAlgorithm(sim, network, counting_step, 5, {}, batch_size=0)


def test_clean_run_completes_all_steps():
    sim, pair = make_pair()
    result = sim.run_process(pair.run())
    assert result.final_state["done"] == list(range(10))
    assert result.steps_executed == 10
    assert result.steps_redone == 0
    assert result.takeovers == 0


def test_every_step_cadence_checkpoints_each_step():
    sim, pair = make_pair(cadence=CheckpointCadence.EVERY_STEP)
    result = sim.run_process(pair.run())
    # One per step plus the final commit checkpoint.
    assert result.checkpoints_sent == 11


def test_batched_cadence_sends_fewer_checkpoints():
    sim, pair = make_pair(cadence=CheckpointCadence.EVERY_N, batch_size=5)
    result = sim.run_process(pair.run())
    assert result.checkpoints_sent < 11
    assert result.final_state["done"] == list(range(10))


def test_crash_with_sync_checkpointing_redoes_nothing():
    """EVERY_STEP: the backup already has the state through the crashed
    step's predecessor... in fact through the step itself only if the
    checkpoint happened; the crash fires before it, so exactly that one
    step is redone."""
    sim, pair = make_pair(cadence=CheckpointCadence.EVERY_STEP)
    pair.crash_primary_at_step(5)
    result = sim.run_process(pair.run())
    assert result.takeovers == 1
    assert result.final_state["done"] == list(range(10))
    assert result.steps_redone == 1  # only step 5 (its checkpoint was lost)


def test_crash_with_batched_checkpointing_redoes_the_batch_tail():
    sim, pair = make_pair(cadence=CheckpointCadence.EVERY_N, batch_size=5,
                          total_steps=10)
    pair.crash_primary_at_step(8)  # last checkpoint covered steps 0..4
    result = sim.run_process(pair.run())
    assert result.takeovers == 1
    assert result.final_state["done"] == list(range(10))
    assert result.steps_redone == 4  # steps 5,6,7,8 redone


def test_crash_with_async_checkpointing_redoes_the_window():
    sim, pair = make_pair(cadence=CheckpointCadence.ASYNC, async_period=0.05,
                          total_steps=10)
    pair.crash_primary_at_step(9)
    result = sim.run_process(pair.run())
    assert result.takeovers == 1
    assert result.final_state["done"] == list(range(10))
    assert result.steps_redone >= 1  # the un-checkpointed tail


def test_idempotence_makes_redone_work_harmless():
    """The final state is identical with and without a crash — the §2.4
    point: exactly-once in effect, at-least-once in execution."""
    sim_clean, clean = make_pair(cadence=CheckpointCadence.EVERY_N, batch_size=3)
    clean_result = sim_clean.run_process(clean.run())
    sim_crash, crashed = make_pair(cadence=CheckpointCadence.EVERY_N, batch_size=3)
    crashed.crash_primary_at_step(7)
    crash_result = sim_crash.run_process(crashed.run())
    assert clean_result.final_state == crash_result.final_state
    assert crash_result.steps_executed > clean_result.steps_executed


def test_sync_cadence_slower_than_batched():
    sim_sync, sync_pair = make_pair(cadence=CheckpointCadence.EVERY_STEP,
                                    total_steps=20)
    sim_sync.run_process(sync_pair.run())
    sync_time = sim_sync.now
    sim_batch, batch_pair = make_pair(cadence=CheckpointCadence.EVERY_N,
                                      batch_size=10, total_steps=20)
    sim_batch.run_process(batch_pair.run())
    assert sim_batch.now < sync_time
