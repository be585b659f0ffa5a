"""The retry-storm scenario: recovery machinery as the outage (E13).

A serialized server slows down for a window (a GC pause, a hot disk, a
bad deploy — the cause doesn't matter). What matters is what the
*clients* do about it:

- ``policy="naive"`` — the fixed-timer discipline everywhere circa the
  paper: a short timeout, a couple of wire retries, and then the
  application layer re-submits the same logical request **as new work**
  (fresh uniquifier). Every timed-out request becomes several queued
  requests; offered load rises exactly when capacity fell; the queue is
  full of work nobody is waiting for. Goodput collapses and stays
  collapsed after the fault clears (the metastable signature).
- ``policy="resilient"`` — the same workload through the
  :mod:`repro.resilience` stack: one call per logical request with
  exponential backoff + seeded jitter and an overall deadline (stable
  uniquifier, so wire retries are answered by the dedup cache, not
  re-executed); a per-destination circuit breaker; server-side
  admission control bounding the handler queue with a degraded-mode
  "stale guess" answer beyond the watermark; and in-handler deadline
  shedding so the server never burns its slow window on expired work.

Invariants hold in **both** modes — a retry storm is not an
application-correctness bug, it is a *goodput* catastrophe; the chaos
runner checks the former, experiment E13 measures the latter
(``chaos.retrystorm.ok_window`` inside the slow window).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional, Set, Tuple

from repro.chaos.engine import ChaosTargets
from repro.chaos.harness import Crashable, Scenario, pacing
from repro.chaos.invariants import InvariantMonitor
from repro.errors import BreakerOpenError, CrashedError, TimeoutError_
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.net.rpc import Endpoint, RpcClient, RpcError
from repro.resilience import (
    AdmissionConfig,
    BreakerConfig,
    RetryPolicy,
    expired,
)
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.sim.sync import Lock


class RetryStormScenario(Scenario):
    """Fixed-timer reissue vs the resilience stack, same slow server."""

    name = "retry-storm"
    policies = ("resilient", "naive")

    num_clients = 8
    slow_start = 8.0
    slow_end = 18.0
    naive_timeout = 0.2
    naive_retries = 2
    naive_reissues = 6
    watermark = 8
    horizon = 30.0
    slow_factor = 20.0
    service_time = 0.02
    think_time = 0.2
    deadline = 2.0
    cadence = 1.0

    def __init__(self, policy: str = "resilient") -> None:
        self.choose_policy(policy)

    def spec_defaults(self) -> Dict[str, Any]:
        """Sweep bounds: short server outages and mild link faults on
        top of the intrinsic slow window (no partitions — one server)."""
        return dict(
            nodes=("server",),
            max_crashes=1, max_partitions=0, max_link_faults=1,
            min_episode=1.0, max_episode=4.0, fault_loss=0.1,
        )

    # ------------------------------------------------------------------

    def build(self, sim: Simulator) -> ChaosTargets:
        network = Network(sim)
        network.default_link = LinkConfig(latency=FixedLatency(0.001))

        self._lock = Lock(sim, name="retrystorm.server")
        self._incarnation = 0
        self._executions: list = []            # (incarnation, uniquifier)
        self._executed_uniqs: Set[str] = set()
        self._acked_uniqs: Set[str] = set()    # real (non-degraded) acks
        self._last_value: Optional[int] = None
        self._peak_inflight = 0
        self._req_counter = itertools.count(1)

        server = Endpoint(network, "server", dedup=True)
        server.register("WORK", self._handle_work)
        if self.policy == "resilient":
            server.use_admission(AdmissionConfig(max_inflight=self.watermark))
            server.register_degraded("WORK", self._degraded_work)
        server.start()
        self._server = server

        self._naive_policy = RetryPolicy(
            max_attempts=self.naive_retries + 1, timeout=self.naive_timeout
        )
        self._resilient_policy = RetryPolicy(
            max_attempts=4, timeout=self.naive_timeout,
            backoff="exponential", base_delay=0.1,
            max_delay=1.0, jitter=0.3, deadline=self.deadline,
        )
        self._clients = []
        for index in range(self.num_clients):
            client = RpcClient(network, f"c{index}")
            if self.policy == "resilient":
                client.use_breaker(BreakerConfig(recovery_time=0.5, half_open_probes=2))
            self._clients.append(client)

        return ChaosTargets(
            sim, network=network,
            nodes={"server": Crashable(server.stop, self._restart_server)},
        )

    def _restart_server(self) -> None:
        """A crash kills the endpoint, which fail-fasts every in-flight
        handler: the lock holder releases on its way out and the queued
        ones are skipped. The restart gets a new incarnation number (the
        scenario's at-most-once claims are per-incarnation, exactly like
        the volatile dedup cache)."""
        self._incarnation += 1
        self._server.restart()

    def invariants(self, monitor: InvariantMonitor) -> None:
        monitor.register("acked-implies-executed", self._check_acked_executed)
        monitor.register("at-most-once-per-incarnation", self._check_at_most_once)
        if self.policy == "resilient":
            monitor.register("bounded-inflight", self._check_bounded_inflight)

    def drive(self, sim: Simulator) -> None:
        for index, client in enumerate(self._clients):
            sim.spawn(
                self._client_loop(sim, client, index),
                name=f"chaos.retrystorm.c{index}",
            )

    def quiesce(self, sim: Simulator) -> None:
        """Let the server drain whatever the storm left queued — the
        naive backlog is the metastability being measured, so give it
        bounded (not unbounded) drain time before the final check."""
        sim.run(until=self.horizon + 5.0)

    # ------------------------------------------------------------------
    # Server

    def _in_slow_window(self) -> bool:
        return self.slow_start <= self._sim.now < self.slow_end

    def _handle_work(self, endpoint: Endpoint, msg: Any) -> Generator:
        sim = self._sim
        self._peak_inflight = max(self._peak_inflight, endpoint.inflight_handlers)
        yield self._lock.acquire()
        try:
            if self.policy == "resilient" and expired(sim, msg.payload):
                # Late shed: admitted before its deadline, reached the
                # head of the line after. Don't burn the slow window on
                # an answer nobody is waiting for.
                sim.metrics.inc("chaos.retrystorm.shed_late")
                return {"shed": True}
            factor = self.slow_factor if self._in_slow_window() else 1.0
            yield Timeout(self.service_time * factor)
            value = msg.payload["item"] * 2
            uniquifier = msg.payload["uniquifier"]
            self._executions.append((self._incarnation, uniquifier))
            self._executed_uniqs.add(uniquifier)
            self._last_value = value
            sim.metrics.inc("chaos.retrystorm.executed")
            return {"value": value}
        finally:
            self._lock.release()

    def _degraded_work(self, _endpoint: Endpoint, _msg: Any) -> Optional[Dict[str, Any]]:
        """Creek-style degraded read: the last computed value as a stale
        guess, or None (fall back to BUSY) before anything has run."""
        if self._last_value is None:
            return None
        return {"value": self._last_value, "stale": True}

    # ------------------------------------------------------------------
    # Clients

    def _client_loop(self, sim: Simulator, client: RpcClient, index: int) -> Generator:
        rng = sim.rng.stream(f"chaos.retrystorm.client.{index}")
        for pause in pacing(sim, rng, self.think_time, 0.5, self.horizon):
            yield pause
            req_no = next(self._req_counter)
            if self.policy == "naive":
                yield from self._issue_naive(sim, client, req_no)
            else:
                yield from self._issue_resilient(sim, client, req_no)

    def _issue_naive(self, sim: Simulator, client: RpcClient, req_no: int) -> Generator:
        """The storm: each app-layer reissue forgets it already asked and
        mints a fresh uniquifier — timed-out work stays queued AND gets
        resubmitted, so offered load multiplies exactly under overload."""
        for reissue in range(self.naive_reissues):
            payload = {
                "item": req_no,
                "uniquifier": f"req-{req_no}-try{reissue}",
            }
            sim.metrics.inc("chaos.retrystorm.issued")
            if reissue:
                sim.metrics.inc("chaos.retrystorm.reissues")
            try:
                reply = yield from client.call(
                    "server", "WORK", payload, policy=self._naive_policy,
                )
            except (TimeoutError_, RpcError, CrashedError):
                continue
            self._record_success(sim, reply, payload["uniquifier"])
            return
        sim.metrics.inc("chaos.retrystorm.give_ups")

    def _issue_resilient(self, sim: Simulator, client: RpcClient, req_no: int) -> Generator:
        """One call per logical request: a stable uniquifier (wire
        retries are dedup territory), backoff + jitter, an overall
        deadline, and the breaker deciding whether to talk at all."""
        payload = {"item": req_no, "uniquifier": f"req-{req_no}"}
        sim.metrics.inc("chaos.retrystorm.issued")
        try:
            reply = yield from client.call(
                "server", "WORK", payload, policy=self._resilient_policy,
            )
        except BreakerOpenError:
            sim.metrics.inc("chaos.retrystorm.breaker_give_ups")
            return
        except (TimeoutError_, RpcError, CrashedError):
            sim.metrics.inc("chaos.retrystorm.give_ups")
            return
        if reply.get("shed"):
            sim.metrics.inc("chaos.retrystorm.give_ups")
            return
        self._record_success(sim, reply, payload["uniquifier"])

    def _record_success(self, sim: Simulator, reply: Dict[str, Any], uniquifier: str) -> None:
        sim.metrics.inc("chaos.retrystorm.ok")
        if reply.get("degraded"):
            sim.metrics.inc("chaos.retrystorm.ok_degraded")
        else:
            self._acked_uniqs.add(uniquifier)
        if self.slow_start <= sim.now <= self.slow_end:
            sim.metrics.inc("chaos.retrystorm.ok_window")

    # ------------------------------------------------------------------
    # Invariants

    def _check_acked_executed(self) -> Optional[str]:
        """Every non-degraded success the clients counted corresponds to
        work the server actually executed (no phantom acks)."""
        phantom = self._acked_uniqs - self._executed_uniqs
        if phantom:
            return f"{len(phantom)} acked but never executed (e.g. {sorted(phantom)[0]})"
        return None

    def _check_at_most_once(self) -> Optional[str]:
        """Within one server incarnation the §2.1 discipline (dedup cache
        + in-flight parking) executes each uniquifier at most once. A
        crash wipes the cache, so *across* incarnations duplicates are
        expected — that is the paper's point, not a bug."""
        seen: Set[Tuple[int, str]] = set()
        for entry in self._executions:
            if entry in seen:
                return f"uniquifier {entry[1]!r} executed twice in incarnation {entry[0]}"
            seen.add(entry)
        return None

    def _check_bounded_inflight(self) -> Optional[str]:
        """Admission control holds the watermark: the server never serves
        more than ``max_inflight`` handlers concurrently."""
        if self._peak_inflight > self.watermark:
            return f"peak inflight {self._peak_inflight} exceeds watermark {self.watermark}"
        return None
