"""The scenario harness: what every chaos scenario shares, written once.

A scenario is the unit the :class:`~repro.chaos.runner.ChaosRunner`
sweeps: ``run(seed, plan)`` builds a fresh simulator, installs the plan
through the :class:`~repro.chaos.engine.ChaosEngine`, drives a seeded
workload, restores the world at the horizon (heal, repair, restart),
forces convergence, and reports every invariant violation. Everything is
a pure function of (seed, plan), so a failing report replays exactly.

The world a run builds is volatile, like a fail-fast process's memory:
it lives exactly as long as ``run()``. The report and a scenario's
published results are plain values; the simulator, nodes, logs and
trace are unreachable the moment ``run()`` returns, and already freed.

:class:`Scenario` owns that sequence; a concrete scenario fills in five
hooks (``build``, ``invariants``, ``drive``, ``quiesce``, ``finish``) and
its sampling bounds. Beside it: :class:`Crashable`, the idempotent
crash/restart adapter every chaos target goes through; :func:`pacing`,
the seeded think times of a workload loop; and :class:`AckedWrites`, the
"no acked write lost" oracle for a Dynamo ring.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import InvariantMonitor, Violation
from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.dynamo.cluster import DynamoCluster, QuorumUnavailable
from repro.errors import CrashedError, SimulationError, TimeoutError_
from repro.net.rpc import RpcError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class ChaosReport:
    """What one (seed, plan) run produced."""

    scenario: str
    seed: int
    plan: ChaosPlan
    violations: Tuple[Violation, ...]
    counters: Dict[str, float]
    end_time: float

    @property
    def failed(self) -> bool:
        return bool(self.violations)


class Crashable:
    """Idempotent crash/restart adapter — the one shape a chaos target
    has. A plan may crash a node that is already down, and
    ``engine.restore()`` restarts every target whether or not it fell;
    the adapter calls through once per real transition, handing ``crash``
    the cause and counting ``restarts``."""

    def __init__(
        self, crash: Callable[[str], Any], restart: Callable[[], Any]
    ) -> None:
        self._crash = crash
        self._restart = restart
        self.up = True
        self.restarts = 0

    def crash(self, cause: str) -> None:
        if not self.up:
            return
        self.up = False
        self._crash(cause)

    def restart(self) -> None:
        if self.up:
            return
        self.up = True
        self.restarts += 1
        self._restart()


class Scenario:
    """A workload + targets + invariants under one plan: subclasses set
    ``name`` and ``horizon``, list their ``policies``, give their sampling
    bounds, and fill in the hooks that :meth:`run` calls in a fixed
    order. Public attributes are the configuration plus the last run's
    published results, which are plain values; what a run builds lives
    in private ones, and :meth:`run` drops them all when it ends."""

    name: str
    horizon: float
    #: Every policy the scenario can run under; empty if it takes none.
    #: ``policy`` is the one in force: a class attribute where there is
    #: one to run under, chosen through :meth:`choose_policy` otherwise.
    policies: Tuple[str, ...] = ()
    #: Sim-seconds between continuous invariant checks. None: the
    #: scenario's invariants only mean something once the world has
    #: healed, so the monitor checks at quiesce alone.
    cadence: Optional[float] = None

    def choose_policy(self, policy: str) -> None:
        """Run under ``policy`` — the one place a policy name is checked,
        for a scenario's own constructor and for the CLI's ``--policy``."""
        if not self.policies:
            raise SimulationError(
                f"scenario {self.name!r} takes no policy (got {policy!r})"
            )
        if policy not in self.policies:
            raise SimulationError(
                f"unknown {self.name} policy {policy!r} "
                f"(have {', '.join(self.policies)})"
            )
        self.policy = policy

    def __getstate__(self) -> Dict[str, Any]:
        """A scenario crosses to a worker process as its configuration:
        the world of a run in progress here (``_sim``, the cluster, live
        generators) stays here. The copy is taken in one step because a
        pool's feeder thread may pickle while this process runs it."""
        return {
            key: value for key, value in self.__dict__.copy().items()
            if not key.startswith("_")
        }

    def spec_defaults(self) -> Dict[str, Any]:
        """Keyword arguments of this scenario's default :class:`ChaosSpec`
        (``horizon`` is supplied)."""
        raise NotImplementedError

    def spec(self, **overrides: Any) -> Any:
        """The default sampling bounds for this scenario's sweeps."""
        defaults = {"horizon": self.horizon, **self.spec_defaults()}
        return ChaosSpec(**{**defaults, **overrides})

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        """One run under ``plan``, and the exact lifetime of its world.

        The world is one large cyclic graph. Left to the collector, it
        would outlive a few young collections, be promoted, and wait for
        a full collection, which a whole smoke may never trigger. So
        automatic collection pauses for the run (every object the run
        allocates stays young), the private attributes the run built go
        when it returns or raises, and one young collection then frees
        the world at a cost proportional to it, not to the process heap.
        The caller's collector state is restored either way."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._play(seed, plan)
        finally:
            for key in [key for key in vars(self) if key.startswith("_")]:
                delattr(self, key)
            gc.collect(0)
            if collecting:
                gc.enable()

    def _play(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        """The run itself, in a frame of its own: once it returns, only
        the scenario's private attributes still reach the world."""
        sim = Simulator(seed=seed, trace_capacity=50000)
        self._sim = sim
        engine = ChaosEngine(self.build(sim))
        engine.install(plan)
        monitor = InvariantMonitor(sim)
        self.invariants(monitor)
        if self.cadence is not None:
            monitor.start(self.cadence, self.horizon)
        self.drive(sim)
        sim.run(until=self.horizon)

        # Quiesce: restore the world, force convergence, final check.
        engine.restore()
        self.quiesce(sim)
        monitor.check_now("quiesce")
        self.finish(sim)
        return ChaosReport(
            scenario=self.name, seed=seed, plan=plan,
            violations=tuple(monitor.violations),
            counters=sim.metrics.counters(), end_time=sim.now,
        )

    # -- hooks, in call order --------------------------------------------

    def build(self, sim: Simulator) -> ChaosTargets:
        """Construct the system under test on ``sim``; return what the
        plan may act on."""
        raise NotImplementedError

    def invariants(self, monitor: InvariantMonitor) -> None:
        """Register the scenario's invariants (registration order is
        check order)."""
        raise NotImplementedError

    def drive(self, sim: Simulator) -> None:
        """Spawn the workload processes that run until the horizon."""
        raise NotImplementedError

    def quiesce(self, sim: Simulator) -> None:
        """After ``engine.restore()``: drain, repair, and compute whatever
        the quiesce-only invariants read."""
        raise NotImplementedError

    def finish(self, sim: Simulator) -> None:
        """After the final check: stop perpetual processes and publish
        per-run results on the scenario as plain values, nothing that
        reaches the world (optional)."""


def pacing(
    sim: Simulator, rng: Any, interval: float, spread: float, until: float
) -> Generator[Timeout, None, None]:
    """Seeded think times for a workload loop — ``for pause in
    pacing(...): yield pause`` — each ``interval`` × (1 ± ``spread``),
    ending when the next pause would cross ``until``."""
    while True:
        delay = interval * rng.uniform(1 - spread, 1 + spread)
        if sim.now + delay > until:
            return
        yield Timeout(delay)


# ----------------------------------------------------------------------
# The acked-write oracle for a Dynamo ring

#: What a Dynamo client call raises when the write was *not* acknowledged.
PUT_ERRORS = (
    QuorumUnavailable, TimeoutError_, RpcError, CrashedError, SimulationError,
)


class AckedWrites:
    """Unique-key writers, repair-until-converged, and the
    ``no-acked-write-lost`` / ``ring-reconverges`` audit for one ring.

    ``metrics`` prefixes the counters and the ``time_to_converged``
    histogram (``chaos.rejoin`` → ``chaos.rejoin.acked_puts``). ``lost``
    words the violation detail, which is part of its ``signature``, so
    each scenario keeps its own. ``unconverged`` words the
    ``ring-reconverges`` detail; left None, the scenario makes no such
    claim: it is not registered and :meth:`repair` runs every round.
    """

    def __init__(
        self, cluster: DynamoCluster, metrics: str, lost: str,
        unconverged: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.metrics = metrics
        self.lost_detail = lost
        self.unconverged = unconverged
        self.acked: Dict[str, int] = {}
        self.lost: List[Tuple[str, int]] = []
        self.converged_at: Optional[float] = None

    def spawn_writer(
        self, client: Any, name: str, interval: float, horizon: float,
        key_prefix: str = "",
    ) -> None:
        """Start process ``name`` (also its rng stream): unique-key puts
        ``<key_prefix>w<n>`` until ``horizon``. Every acknowledged write
        is its own fact, so 'lost' has no merge ambiguity to hide behind."""
        sim = self.sim

        def puts() -> Generator[Any, Any, None]:
            rng = sim.rng.stream(name)
            seq = 0
            for pause in pacing(sim, rng, interval, 0.3, horizon):
                yield pause
                seq += 1
                key, value = f"{key_prefix}w{seq}", seq
                try:
                    yield from client.put(key, value)
                except PUT_ERRORS:
                    sim.metrics.inc(f"{self.metrics}.failed_puts")
                    continue
                self.acked[key] = value
                sim.metrics.inc(f"{self.metrics}.acked_puts")

        sim.spawn(puts(), name=name)

    def invariants(self, monitor: InvariantMonitor) -> None:
        monitor.register(
            "no-acked-write-lost",
            lambda: (
                f"{len(self.lost)} acked writes {self.lost_detail}, "
                f"first: {self.lost[:5]}"
                if self.lost else None
            ),
            when="quiesce",
        )
        if self.unconverged is not None:
            monitor.register(
                "ring-reconverges",
                lambda: (
                    None if self.converged_at is not None else self.unconverged
                ),
                when="quiesce",
            )

    def repair(
        self, rounds: int, repair_round: Callable[[], Generator],
        since: Optional[float] = None,
    ) -> None:
        """Quiesce-time repair, then the audit: up to ``rounds`` of hinted
        handoff + ``repair_round`` (the cluster's Merkle or full
        anti-entropy round) until every acked key's *current* owners
        agree, timing convergence from ``since`` (default: now). Leaves
        ``lost`` holding the acked writes whose value no live node has."""
        sim, cluster = self.sim, self.cluster
        since = sim.now if since is None else since
        for _ in range(rounds):
            sim.run_process(cluster.run_handoff_round())
            sim.run_process(repair_round())
            if self.unconverged is not None and all(
                cluster.converged_on(key) for key in self.acked
            ):
                self.converged_at = sim.now
                sim.metrics.observe(
                    f"{self.metrics}.time_to_converged", sim.now - since
                )
                break
        live = [n for n in cluster.nodes.values() if cluster.alive(n.name)]
        self.lost = [
            (key, value)
            for key, value in self.acked.items()
            if not any(
                v.value == value for node in live for v in node.versions_of(key)
            )
        ]
