"""Request/reply on the fabric, with retries and idempotence.

This is the paper's §2.1 in executable form:

- The client issues a request and **retries on timer expiry**. Retries keep
  the same *uniquifier* (the payload key ``"uniquifier"``), so the server
  can correlate them with the original request.
- A server endpoint with ``dedup=True`` remembers replies by uniquifier and
  answers a retry from the cache instead of redoing the work — "the fault
  tolerant server system had better make this work idempotent or the
  retries would occasionally result in duplicative work."

Handlers may be plain functions (no simulated time) or generators (they
can yield kernel effects, e.g. disk IO).

A message reaches its handler in two kernel steps and no queue. The
fabric hands it to :meth:`Endpoint._receive` in its delivery step: a reply
settles the waiting call attempt there and then; a request passes dedup
and admission and is put on the zero-delay lane. In that next step the
handler runs as a plain callback: a function's return value is the reply,
sent on the spot — no process, no event. Only a handler that returns a
generator gets a :class:`~repro.sim.process.Process`, started inside that
same step, so a slow handler does not block the endpoint and a crash can
interrupt it. Outstanding work lives in tables: call attempts by message
id, parked duplicates by uniquifier, generator handlers in dispatch order.

Each attempt arms a timer, and the reply that wins cancels it (the
caller holds the scheduler's handle in its own frame), so a plain call is
three kernel steps — request delivery, the handler's lane step, reply
delivery — and a won call leaves nothing parked for the timer's length.

*How* a caller retries, and what a server does when it cannot keep up,
is delegated to :mod:`repro.resilience`:

- ``call(..., policy=RetryPolicy(...))`` drives backoff, jitter, and the
  overall deadline (stamped into the payload for downstream shedding);
  a call without one gets ``RetryPolicy()`` — four attempts on a
  one-second timer, no pause, no RNG draws.
- :meth:`Endpoint.use_breaker` puts a per-destination circuit breaker in
  front of ``call``.
- :meth:`Endpoint.use_admission` bounds concurrently-served handlers:
  beyond the watermark, requests are rejected with a ``BUSY`` reply —
  or answered by a degraded-mode handler (:meth:`Endpoint.on_degraded`)
  with a stale "guess" — and requests whose carried deadline already
  passed are shed without reply (nobody is listening).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    BreakerOpenError,
    CrashedError,
    DeadlineExceeded,
    InterruptError,
    ServerBusyError,
    SimulationError,
    TimeoutError_,
)
from repro.net.message import Message
from repro.net.network import Network
from repro.resilience.admission import Admission, AdmissionConfig, AdmissionControl
from repro.resilience.breaker import BreakerBoard, BreakerConfig
from repro.resilience.deadline import stamp
from repro.resilience.retry import RetryPolicy
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.scheduler import register_fresh_run_hook

_uniq_counter = itertools.count(1)

#: A background loop: called for a fresh generator at every (re)spawn.
Loop = Callable[[], Generator[Any, Any, Any]]

#: How a call that names no policy retries.
_DEFAULT_POLICY = RetryPolicy()


def fresh_uniquifier(prefix: str = "req") -> str:
    """A request id unique within the current simulator run."""
    return f"{prefix}-{next(_uniq_counter)}"


def _reset_uniq_counter() -> None:
    global _uniq_counter
    _uniq_counter = itertools.count(1)


register_fresh_run_hook(_reset_uniq_counter)


def content_uniquifier(kind: str, payload: Dict[str, Any]) -> str:
    """The §2.1 trick: derive the identity from the request itself ("an
    MD5 hash of the entire incoming request"), so retries — even ones
    rebuilt from scratch by a client that forgot it already asked — map
    to the same work. Requires JSON-representable payloads; key order is
    canonicalized."""
    body = json.dumps({"kind": kind, "payload": payload}, sort_keys=True, default=str)
    return f"md5-{hashlib.md5(body.encode()).hexdigest()}"


class RpcError(Exception):
    """The remote handler raised; carries the remote error text."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class Endpoint:
    """A named network endpoint that can serve requests and place calls.

    It also owns its node's background loops, which live and die with it
    (§2.2's fail-fast): :meth:`spawn` runs at most one per name, and a
    loop that returns is forgotten; :meth:`stop` interrupts the running
    ones and :meth:`restart` spawns them again, so a loop that belongs to
    a regime (a leadership term, a serving role) checks on entry that its
    regime still holds; :meth:`end` interrupts one loop for good.
    """

    def __init__(self, network: Network, name: str, dedup: bool = False) -> None:
        self.network = network
        self.sim = network.sim
        self.name = name
        self.dedup = dedup
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self._degraded: Dict[str, Callable[..., Any]] = {}
        self._pending: Dict[int, Event] = {}
        self._replies_by_uniquifier: Dict[str, Message] = {}
        self._inflight: Dict[str, list] = {}  # uniquifier -> queued duplicate msgs
        #: Handlers dispatched whose lane step has not run yet.
        self._queued = 0
        #: Generator handlers in flight by their ``done`` event, in
        #: dispatch order (the order a crash interrupts them in).
        self._handler_procs: Dict[Event, Process] = {}
        #: True from start()/restart() until stop().
        self._serving = False
        #: Bumped by every stop(), whose cause it keeps: outdates a queued
        #: start step, and tells a handler dispatched before the crash
        #: that it outlived its endpoint.
        self._generation = 0
        self._stop_cause: Any = None
        #: Messages delivered before the start step has run, in arrival
        #: order; None once the endpoint is live.
        self._held: Optional[List[Message]] = []
        self._breakers: Optional[BreakerBoard] = None
        self._admission: Optional[AdmissionControl] = None
        #: Background loops by name, with their processes.
        self._loops: Dict[str, Tuple[Loop, Process]] = {}
        #: The loops stop() interrupted, for restart() to spawn again.
        self._stopped_loops: Dict[str, Loop] = {}
        network.attach(name, self._receive)

    # ------------------------------------------------------------------
    # Resilience configuration (all opt-in; nothing changes until set)

    def use_breaker(self, config: Optional[BreakerConfig] = None) -> None:
        """Put a per-destination circuit breaker in front of this
        endpoint's outgoing ``call`` traffic."""
        self._breakers = BreakerBoard(self.sim, self.name, config or BreakerConfig())

    def use_admission(self, config: Optional[AdmissionConfig] = None) -> None:
        """Bound this endpoint's concurrently-served handlers; excess
        requests get a ``BUSY`` reply (or a degraded answer), expired
        ones are shed."""
        self._admission = AdmissionControl(
            self.sim, self.name, config or AdmissionConfig()
        )

    def breaker_state(self, dst: str) -> Optional[str]:
        """The breaker state toward ``dst`` (None if no breaker is set)."""
        if self._breakers is None:
            return None
        return self._breakers.for_dst(dst).state.value

    @property
    def serving(self) -> bool:
        """Whether this endpoint serves and may place calls, from
        :meth:`start` or :meth:`restart` until :meth:`stop`: what a node
        knows of itself, not what the fabric knows of it."""
        return self._serving

    @property
    def inflight_handlers(self) -> int:
        """Requests dispatched to a handler that has not finished."""
        return self._queued + len(self._handler_procs)

    # ------------------------------------------------------------------
    # Server side

    def register(self, kind: str, handler: Callable[..., Any]) -> None:
        """Install ``handler(endpoint, msg) -> payload-dict`` for ``kind``.

        A generator handler may yield kernel effects; its return value is
        the reply payload. Raising inside a handler sends an ``ERROR``
        reply that surfaces as :class:`RpcError` at the caller.
        """
        self._handlers[kind] = handler

    def on(self, kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`register`."""

        def decorate(handler: Callable[..., Any]) -> Callable[..., Any]:
            self.register(kind, handler)
            return handler

        return decorate

    def register_degraded(self, kind: str, handler: Callable[..., Any]) -> None:
        """Install a degraded-mode answer for ``kind``: when admission
        control would reject the request as BUSY, ``handler(endpoint,
        msg)`` may return a cheap stale payload (a "guess" now, an
        apology later) served with ``degraded=True``; returning None
        falls back to the BUSY rejection. Must not yield — a degraded
        answer that queues for resources defeats its purpose."""
        self._degraded[kind] = handler

    def on_degraded(self, kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`register_degraded`."""

        def decorate(handler: Callable[..., Any]) -> Callable[..., Any]:
            self.register_degraded(kind, handler)
            return handler

        return decorate

    def start(self) -> None:
        """Begin serving, from the next kernel step on (what arrives
        before it is handed over there, in arrival order). Idempotent
        while running."""
        if not self._serving:
            self._serving = True
            self.sim.schedule(0.0, self._go_live, self._generation)

    def spawn(self, name: str, loop: Loop) -> None:
        """Run ``loop()`` now as background loop ``name``; a no-op while
        a loop of that name is running. On a stopped endpoint the loop
        waits for :meth:`restart`, like the loops :meth:`stop` ended."""
        if self._generation and not self._serving:
            self._stopped_loops[name] = loop
            return
        entry = self._loops.get(name)
        if entry is not None and entry[1].alive:
            return
        self._loops[name] = (
            loop, Process(self.sim, loop(), ("%s:%s", self.name, name))
        )

    def end(self, name: str, cause: Any) -> None:
        """Interrupt loop ``name`` and forget it: no restart brings it
        back."""
        self._stopped_loops.pop(name, None)
        entry = self._loops.pop(name, None)
        if entry is not None:
            entry[1].interrupt(cause)

    def stop(self, cause: Any = "stopped") -> None:
        """Crash/stop the endpoint: detach from the network, kill every
        background loop and in-flight generator handler (fail-fast — a
        dead node must not compute, finish work or send replies; a plain
        handler whose step is already queued still runs, the detached
        fabric drops its reply, and it records nothing in the dedup
        cache), fail outstanding client calls, and forget all volatile
        state including the dedup cache. Loops are interrupted first, in
        the order their names were first spawned, then handlers in
        dispatch order, so none of them sees its own calls fail."""
        self._serving = False
        self._generation += 1
        self._stop_cause = cause
        self._held = []
        self._queued = 0
        loops, self._loops = self._loops, {}
        for name, (loop, proc) in loops.items():
            if proc.alive:
                self._stopped_loops[name] = loop
                proc.interrupt(cause)
        handler_procs, self._handler_procs = self._handler_procs, {}
        for proc in handler_procs.values():
            proc.interrupt(cause)
        if self.network.is_attached(self.name):
            self.network.detach(self.name)
        self._replies_by_uniquifier.clear()
        self._inflight.clear()
        pending, self._pending = self._pending, {}
        for event in pending.values():
            if not event.triggered:
                event.fail(CrashedError(f"{self.name} stopped: {cause}"))

    def restart(self) -> None:
        """Rejoin the network and serve again, from the next kernel step
        on, and spawn again the loops :meth:`stop` interrupted, in their
        order. Idempotent while serving (mirrors :meth:`start`)."""
        if not self.network.is_attached(self.name):
            # Also reached still serving, after a network-side-only
            # detach: in-flight handlers carry on (the generation is
            # stop()'s alone), arrivals are held until a new start step.
            self._held = []
            self.network.attach(self.name, self._receive)
            self._serving = False
        self.start()
        stopped, self._stopped_loops = self._stopped_loops, {}
        for name, loop in stopped.items():
            self.spawn(name, loop)

    def _go_live(self, generation: int) -> None:
        """The start step: hand over what arrived before it."""
        held = self._held
        if generation != self._generation or held is None:
            return  # stopped before the step ran, or started twice
        self._held = None
        for msg in held:
            if generation != self._generation:
                break  # a settled reply's waiter stopped us mid-handover
            self._receive(msg)

    def _receive(self, msg: Message) -> None:
        """The fabric's sink for this name: runs in the delivery step."""
        held = self._held
        if held is not None:
            held.append(msg)
        elif msg.reply_to is None:
            self._dispatch(msg)
        else:
            # Unmatched replies (late duplicates after a retry won, or
            # after the attempt's timer expired) are dropped.
            event = self._pending.pop(msg.reply_to, None)
            if event is not None:
                event.trigger(msg)

    def _expire(self, msg_id: int) -> None:
        """An attempt's timer ran out: if its reply has not come, stop
        expecting one and wake the caller empty-handed."""
        event = self._pending.pop(msg_id, None)
        if event is not None:
            event.trigger(None)

    def _handler_finished(self, done: Event) -> None:
        self._handler_procs.pop(done, None)

    def _dispatch(self, msg: Message) -> None:
        uniquifier = msg.payload.get("uniquifier") if self.dedup else None
        if uniquifier is not None:
            cached = self._replies_by_uniquifier.get(uniquifier)
            if cached is not None:
                self.sim.metrics.inc(f"rpc.{self.name}.dedup_hits")
                self.network.send(self._copy_of(cached, msg))
                return
            if uniquifier in self._inflight:
                # A duplicate arrived while the original is still being
                # served: park it and answer it from the same execution.
                self._inflight[uniquifier].append(msg)
                self.sim.metrics.inc(f"rpc.{self.name}.dedup_hits")
                return
        if self._admission is not None:
            verdict = self._admission.decide(
                self._queued + len(self._handler_procs), msg.payload
            )
            if verdict is Admission.EXPIRED:
                # The carried deadline passed: the caller has provably
                # given up, so a reply would be wasted work too.
                self.sim.trace.emit(self.name, "rpc.shed", verb=msg.kind,
                                    src=msg.src, reason="expired")
                return
            if verdict is Admission.BUSY:
                degraded = self._degraded.get(msg.kind)
                if degraded is not None:
                    guess = degraded(self, msg)
                    if guess is not None:
                        payload = dict(guess)
                        payload["degraded"] = True
                        self.sim.metrics.inc(f"rpc.{self.name}.degraded_replies")
                        self.network.send(msg.reply("OK", **payload))
                        return
                self.sim.trace.emit(self.name, "rpc.busy", verb=msg.kind, src=msg.src)
                self.network.send(msg.reply("BUSY", reason="overloaded"))
                return
        if uniquifier is not None:
            self._inflight[uniquifier] = []
        handler = self._handlers.get(msg.kind)
        if handler is None:
            self.network.send(msg.reply("ERROR", error=f"no handler for {msg.kind}"))
            return
        self._queued += 1
        self.sim.schedule(0.0, self._run_handler, handler, msg, self._generation)

    def _run_handler(self, handler: Callable[..., Any], msg: Message, generation: int) -> None:
        """The lane step a dispatched request runs in. A plain function
        has answered by the time it returns; a generator is driven by a
        process whose first segment runs here too."""
        try:
            result = handler(self, msg)
            if hasattr(result, "send"):
                proc = Process(
                    self.sim, self._drive(result, msg),
                    ("rpc:%s:%s", self.name, msg.kind), _start_now=True,
                )
                if generation == self._generation:
                    self._queued -= 1
                    self._handler_procs[proc.done] = proc
                    proc.done.add_callback(self._handler_finished)
                else:
                    proc.interrupt(self._stop_cause)
                return
            payload = result if isinstance(result, dict) else {"result": result}
            reply = msg.reply("OK", **payload)
        except Exception as exc:  # noqa: BLE001 - becomes a remote error
            reply = msg.reply("ERROR", error=str(exc))
        if generation == self._generation:
            self._queued -= 1
            self._reply(msg, reply)
        else:
            # Dispatched before a stop(): the dedup state it would record
            # belongs to the incarnation that died.
            self.network.send(reply)

    def _drive(self, handling: Generator[Any, Any, Any], msg: Message) -> Generator[Any, Any, None]:
        try:
            result = yield from handling
            payload = result if isinstance(result, dict) else {"result": result}
            reply = msg.reply("OK", **payload)
        except InterruptError:
            # The endpoint crashed under us (fail-fast): die without
            # replying — a dead node must not speak.
            raise
        except Exception as exc:  # noqa: BLE001 - becomes a remote error
            reply = msg.reply("ERROR", error=str(exc))
        self._reply(msg, reply)

    def _reply(self, request: Message, reply: Message) -> None:
        uniquifier = request.payload.get("uniquifier") if self.dedup else None
        if uniquifier is not None:
            self._replies_by_uniquifier[uniquifier] = reply
        self.network.send(reply)
        if uniquifier is not None:
            # Answer any duplicates parked while we were executing.
            for duplicate in self._inflight.pop(uniquifier, ()):
                self.network.send(self._copy_of(reply, duplicate))

    def _copy_of(self, reply: Message, request: Message) -> Message:
        """``reply``, re-addressed as the answer to a duplicate ``request``."""
        return Message(
            self.name, request.src, reply.kind, dict(reply.payload), request.msg_id
        )

    # ------------------------------------------------------------------
    # Client side

    def call(
        self,
        dst: str,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> Generator[Any, Any, Dict[str, Any]]:
        """Place a call; use as ``result = yield from endpoint.call(...)``.

        Retries keep the same uniquifier. ``policy`` sets attempts, the
        per-attempt timer, backoff, jitter, and an overall deadline
        (stamped into the payload for downstream shedding); without one
        the call gets ``RetryPolicy()``. Raises :class:`TimeoutError_`
        after the final retry (:class:`DeadlineExceeded` when the budget
        ran out, :class:`ServerBusyError` when every attempt was shed),
        :class:`BreakerOpenError` when the destination's breaker is
        open, and :class:`RpcError` on a remote error reply.
        """
        if not self._serving:
            raise SimulationError(f"endpoint {self.name!r} is not serving; call start()")
        if policy is None:
            policy = _DEFAULT_POLICY
        request_payload = dict(payload or {})
        request_payload.setdefault("uniquifier", fresh_uniquifier(f"{self.name}:{kind}"))
        deadline: Optional[float] = None
        if policy.deadline is not None:
            deadline = self.sim.now + policy.deadline
            stamp(request_payload, deadline)
            deadline = request_payload["deadline"]  # honor a tighter inherited one
        breaker = self._breakers.for_dst(dst) if self._breakers is not None else None
        jitter_rng = (
            self.sim.rng.stream(f"{policy.rng_stream}.{self.name}")
            if policy.jitter else None
        )
        attempts = policy.max_attempts
        busy_rejections = 0
        for attempt in range(attempts):
            if attempt:
                delay = policy.backoff_delay(attempt, jitter_rng)
                if delay > 0.0:
                    if deadline is not None and self.sim.now + delay >= deadline:
                        raise DeadlineExceeded(
                            f"{self.name} -> {dst} {kind}: backoff outlives "
                            f"deadline after {attempt} attempts"
                        )
                    yield from self._sleep(delay)
            if breaker is not None and not breaker.allow():
                raise BreakerOpenError(dst, f"{kind} short-circuited")
            remaining_budget = policy.timeout
            if deadline is not None:
                remaining_budget = deadline - self.sim.now
                if remaining_budget <= 0.0:
                    raise DeadlineExceeded(
                        f"{self.name} -> {dst} {kind}: deadline exceeded "
                        f"after {attempt} attempts"
                    )
                remaining_budget = min(policy.timeout, remaining_budget)
            msg = Message(self.name, dst, kind, dict(request_payload))
            msg_id = msg.msg_id
            # One event per attempt: settled with the reply in its delivery
            # step, or with None by the attempt's timer, whichever is first.
            # A reply that wins cancels the timer, so it never runs.
            self._pending[msg_id] = outcome = Event(self.sim, ("reply:%d", msg_id))
            self.network.send(msg)
            timer = self.sim.schedule(remaining_budget, self._expire, msg_id)
            reply: Optional[Message] = yield outcome
            if reply is not None:
                self.sim.cancel(timer)
                if reply.kind == "BUSY":
                    # Server-side load shedding: the destination is alive
                    # but over its watermark. Retriable, and a failure in
                    # the breaker's eyes (capacity is what it guards).
                    busy_rejections += 1
                    if breaker is not None:
                        breaker.record_failure()
                    self.sim.metrics.inc(f"rpc.{self.name}.busy_rejections")
                    self.sim.trace.emit(self.name, "rpc.rejected", dst=dst,
                                        verb=kind, attempt=attempt + 1)
                    continue
                if breaker is not None:
                    # Any substantive reply proves the destination serves.
                    breaker.record_success()
                if reply.kind == "ERROR":
                    raise RpcError("ERROR", reply.payload.get("error", ""))
                return reply.payload
            if breaker is not None:
                breaker.record_failure()
            self.sim.metrics.inc(f"rpc.{self.name}.retries")
            self.sim.trace.emit(self.name, "rpc.retry", dst=dst, verb=kind, attempt=attempt + 1)
        if busy_rejections == attempts:
            raise ServerBusyError(
                f"{self.name} -> {dst} {kind}: shed by admission control "
                f"{attempts} times"
            )
        raise TimeoutError_(f"{self.name} -> {dst} {kind}: no reply after {attempts} attempts")

    def _sleep(self, delay: float) -> Generator[Any, Any, None]:
        """Backoff pause: a plain timer event with this call as the only
        waiter."""
        yield self.sim.timeout_event(delay, name=("backoff:%s", self.name))

    def cast(self, dst: str, kind: str, payload: Optional[Dict[str, Any]] = None) -> None:
        """Fire-and-forget send."""
        self.network.send(Message(self.name, dst, kind, dict(payload or {})))


class RpcClient(Endpoint):
    """A client-only endpoint: started at construction."""

    def __init__(self, network: Network, name: str) -> None:
        super().__init__(network, name)
        self.start()
