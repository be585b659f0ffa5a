"""Keeping a finished chaos run's world for a test to inspect.

A scenario's world lives exactly as long as ``Scenario.run``: when the
run ends, nothing of the scenario's reaches its simulator any more. A
test that reads a finished run's trace or clock holds the simulator
itself, through a wrapper of the scenario's ``build``."""

from typing import Any, List


def keep_sims(scenario: Any) -> List[Any]:
    """The simulators of ``scenario``'s runs from now on, in run order.
    The wrapper is an instance attribute, so the scenario no longer
    pickles: keep it out of a fanned-out sweep."""
    sims: List[Any] = []
    build = scenario.build

    def keeping(sim: Any) -> Any:
        sims.append(sim)
        return build(sim)

    scenario.build = keeping
    return sims
