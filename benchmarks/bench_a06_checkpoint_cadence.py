"""Ablation A6 — the checkpoint cadence on the generic §2 abstraction.

One knob spans the whole paper: checkpoint every step (1984), every batch
(1986), or asynchronously (log shipping). Measure clean-run latency vs
steps redone on takeover for each cadence — the quantitative version of
"synchronous checkpoints OR apologies" where the apology is redone work.
"""

from repro.analysis import Table
from repro.cluster import CheckpointCadence, PairedAlgorithm
from repro.net import Network
from repro.sim import Simulator


def idempotent_step(state, step_index):
    return {"done": sorted(set(state["done"]) | {step_index})}


def run_case(cadence, crash_at, seed=3, total_steps=24, **kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim)
    pair = PairedAlgorithm(
        sim, network, step=idempotent_step, total_steps=total_steps,
        initial_state={"done": []}, cadence=cadence, **kwargs,
    )
    if crash_at is not None:
        pair.crash_primary_at_step(crash_at)
    result = sim.run_process(pair.run())
    complete = result.final_state["done"] == list(range(total_steps))
    return {
        "elapsed": sim.now,
        "redone": result.steps_redone,
        "checkpoints": result.checkpoints_sent,
        "complete": complete,
    }


def run_sweep():
    cases = (
        ("sync every step", CheckpointCadence.EVERY_STEP, {}),
        ("batched (N=4)", CheckpointCadence.EVERY_N, {"batch_size": 4}),
        ("batched (N=12)", CheckpointCadence.EVERY_N, {"batch_size": 12}),
        ("async (80ms)", CheckpointCadence.ASYNC, {"async_period": 0.08}),
    )
    rows = []
    for label, cadence, kwargs in cases:
        clean = run_case(cadence, crash_at=None, **kwargs)
        crashed = run_case(cadence, crash_at=17, **kwargs)
        rows.append(
            (label, clean["elapsed"] * 1e3, clean["checkpoints"],
             crashed["redone"], clean["complete"] and crashed["complete"])
        )
    return rows


def test_a06_checkpoint_cadence():
    rows = run_sweep()
    table = Table(
        "A6  Checkpoint cadence: clean-run cost vs work redone on takeover",
        ["cadence", "clean run ms", "checkpoints", "steps redone after crash",
         "always completes"],
    )
    for row in rows:
        table.add_row(*row)
    table.print()
    by_label = {row[0]: row for row in rows}
    # Shape: sync is slowest but redoes least; looser cadences are faster
    # and redo more. Everything completes regardless — idempotence.
    assert all(row[4] for row in rows)
    assert by_label["sync every step"][1] > by_label["batched (N=12)"][1]
    assert by_label["sync every step"][3] <= by_label["batched (N=4)"][3]
    assert by_label["batched (N=4)"][3] <= by_label["batched (N=12)"][3]
