"""The two founding chaos scenarios (see :mod:`repro.chaos.harness` for
the ``run(seed, plan)`` template they fill in):

- :class:`BankClearingScenario` — §6.2 replicated check clearing over
  the gossip fabric. Its ``policy`` knob deliberately breaks the
  recovery or uniquifier discipline so the runner has real bugs to find:
  ``amnesiac-restart`` re-credits the opening deposit on every restart
  (non-idempotent recovery — it needs a crash to fire), and
  ``branch-uniquifier`` forgets that the check number *is* the identity,
  so dual-presented checks debit twice.
- :class:`CartDynamoScenario` — §6.1 shopping cart on the Dynamo model;
  ``policy="lww"`` swaps in the last-writer-wins cart that loses adds.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterator, List, Sequence, Tuple

from repro.bank.account import build_account_registry, overdraft_rule
from repro.cart.service import CartService
from repro.cart.strategies import LwwCartStrategy, OpCartStrategy
from repro.chaos.engine import ChaosTargets
from repro.chaos.harness import PUT_ERRORS, Crashable, Scenario
from repro.chaos.history import (
    ADD, OK, UNKNOWN, History, acked_is_durable, at_most_one_effect, lost_acks,
)
from repro.chaos.invariants import (
    InvariantMonitor,
    balance_matches_entries,
    no_money_created,
    replicas_converge,
)
from repro.core.antientropy import sync_all
from repro.core.operation import Operation
from repro.core.rules import RuleEngine
from repro.dynamo.cluster import DynamoCluster
from repro.errors import RuleViolation
from repro.gossip.cluster import GossipCluster
from repro.sim import Simulator, pacing


# ----------------------------------------------------------------------
# Bank clearing over the gossip fabric


def debits(replicas: Sequence[Any]) -> Iterator[Tuple[int, str]]:
    """Each replica's check debits as effects: the check number is the
    uniquifier, the replica its scope (§2.1, §6.2)."""
    for replica in replicas:
        for op in replica.ops:
            if op.op_type == "CLEAR_CHECK":
                yield op.args["check_no"], replica.name


class BankClearingScenario(Scenario):
    """Replicated check clearing under chaos, invariants watching."""

    name = "bank-clearing"
    policies = ("correct", "amnesiac-restart", "branch-uniquifier")
    horizon = 30.0
    cadence = 1.0
    num_replicas = 3
    opening = 1000.0
    gossip_period = 0.5
    check_interval = 1.0
    deposit_interval = 6.0
    dual_rate = 0.35  # share of checks presented at a second branch too

    def __init__(self, policy: str = "correct") -> None:
        self.choose_policy(policy)

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"g{i}" for i in range(self.num_replicas))

    def spec_defaults(self) -> Dict[str, Any]:
        return dict(
            nodes=self.node_names(),
            min_episode=1.0, max_episode=0.2 * self.horizon,
        )

    # ------------------------------------------------------------------

    def build(self, sim: Simulator) -> ChaosTargets:
        cluster = GossipCluster(
            build_account_registry(),
            num_replicas=self.num_replicas,
            period=self.gossip_period,
            sim=sim,
            rules_factory=lambda: RuleEngine([overdraft_rule()]),
        )
        self._cluster = cluster
        self._replicas = [cluster.replica(name) for name in cluster.nodes]
        opening = Operation(
            "DEPOSIT", {"amount": self.opening},
            uniquifier="opening", origin="bank", ingress_time=0.0,
        )
        for replica in self._replicas:
            replica.integrate([opening])
        self._deposits_total = self.opening
        return ChaosTargets(
            sim, network=cluster.network,
            nodes={name: self._branch(gnode) for name, gnode in cluster.nodes.items()},
        )

    def invariants(self, monitor: InvariantMonitor) -> None:
        replicas = self._replicas
        monitor.register("balance-matches-entries", balance_matches_entries(replicas))
        monitor.register(
            "conservation-of-money",
            no_money_created(replicas, lambda: self._deposits_total),
        )
        monitor.register(
            "at-most-one-effect", lambda: at_most_one_effect(debits(replicas))
        )
        monitor.register("convergence", replicas_converge(replicas), when="quiesce")

    def drive(self, sim: Simulator) -> None:
        sim.spawn(self._workload(sim, self._cluster), name="chaos.bank.workload")
        for gnode in self._cluster.nodes.values():
            gnode.run(self.horizon)

    def quiesce(self, sim: Simulator) -> None:
        sync_all(self._replicas, rounds=len(self._replicas) + 1)

    # ------------------------------------------------------------------

    def _branch(self, gnode: Any) -> Crashable:
        """One gossip branch as a chaos target: its restart resumes the
        gossip loop, then runs the recovery routine under test."""
        replica = gnode.replica

        def recover() -> None:
            gnode.restart()
            if self.policy != "amnesiac-restart":
                return
            # The bug: recovery "restores" the opening balance with a fresh
            # uniquifier instead of trusting the op log — money from nothing.
            recovery = Operation(
                "DEPOSIT", {"amount": self.opening},
                uniquifier=f"recovery:{replica.name}:{branch.restarts}",
                origin=replica.name, ingress_time=self._sim.now,
            )
            replica.integrate([recovery])

        branch = Crashable(gnode.crash, recover)
        return branch

    def _check_uniquifier(self, check_no: int, branch: str) -> str:
        if self.policy == "branch-uniquifier":
            # The bug: the identity wrongly includes where the check was
            # presented, so the same check is new work at each branch.
            return f"check:{check_no}@{branch}"
        return f"check:{check_no}"

    def _workload(self, sim: Simulator, cluster: GossipCluster) -> Generator:
        rng = sim.rng.stream("chaos.bank.workload")
        names = list(cluster.nodes)
        next_deposit = self.deposit_interval
        check_no = 0
        for pause in pacing(sim, rng, self.check_interval, 0.2, self.horizon):
            yield pause
            check_no += 1
            amount = round(rng.uniform(5.0, 60.0), 2)
            branch = names[rng.randrange(len(names))]
            dual = rng.random() < self.dual_rate
            other = names[rng.randrange(len(names))]
            self._present(sim, cluster, branch, check_no, amount)
            if dual and other != branch:
                self._present(sim, cluster, other, check_no, amount)
            if sim.now >= next_deposit:
                next_deposit += self.deposit_interval
                dep_no = int(next_deposit / self.deposit_interval)
                dep_amount = round(rng.uniform(40.0, 120.0), 2)
                dep_branch = names[rng.randrange(len(names))]
                self._deposit(sim, cluster, dep_branch, dep_no, dep_amount)

    def _present(
        self, sim: Simulator, cluster: GossipCluster,
        branch: str, check_no: int, amount: float,
    ) -> None:
        if not cluster.network.is_attached(branch):
            sim.metrics.inc("chaos.bank.branch_closed")
            return
        op = Operation(
            "CLEAR_CHECK", {"amount": amount, "check_no": check_no},
            uniquifier=self._check_uniquifier(check_no, branch),
            origin=branch, ingress_time=sim.now,
        )
        try:
            cluster.submit(branch, op)
            sim.metrics.inc("chaos.bank.presented")
        except RuleViolation:
            sim.metrics.inc("chaos.bank.bounced")

    def _deposit(
        self, sim: Simulator, cluster: GossipCluster,
        branch: str, dep_no: int, amount: float,
    ) -> None:
        if not cluster.network.is_attached(branch):
            sim.metrics.inc("chaos.bank.branch_closed")
            return
        op = Operation(
            "DEPOSIT", {"amount": amount},
            uniquifier=f"dep:{dep_no}", origin=branch, ingress_time=sim.now,
        )
        if cluster.submit(branch, op):
            self._deposits_total += amount
            sim.metrics.inc("chaos.bank.deposited")


# ----------------------------------------------------------------------
# Shopping cart on Dynamo


class CartDynamoScenario(Scenario):
    """One shopper against the Dynamo cart while the fabric misbehaves."""

    name = "cart-dynamo"
    policies = ("correct", "lww")
    horizon = 15.0
    num_nodes = 5
    add_interval = 0.4
    cart_key = "cart"

    def __init__(self, policy: str = "correct") -> None:
        self.choose_policy(policy)

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def client_names(self) -> Tuple[str, ...]:
        return ("phone", "laptop")

    def spec_defaults(self) -> Dict[str, Any]:
        # Clients are chaos targets too: partitions must name them or the
        # implicit remainder group would cut both shoppers off from every
        # storage node at once.
        return dict(
            nodes=self.node_names() + self.client_names(),
            max_crashes=1,  # N=3 replication survives one node at a time
            min_episode=0.5, max_episode=0.25 * self.horizon,
        )

    def build(self, sim: Simulator) -> ChaosTargets:
        cluster = DynamoCluster(num_nodes=self.num_nodes, sim=sim)
        self._cluster = cluster
        strategy = LwwCartStrategy() if self.policy == "lww" else OpCartStrategy()
        # Two devices sharing one cart (§6.1): when a partition makes
        # their writes diverge into siblings, the merge policy decides
        # whether an acknowledged add can vanish.
        self._shoppers = [
            CartService(cluster, strategy, client=cluster.client(device))
            for device in self.client_names()
        ]
        self._history = History(sim)
        self._final_view: Dict[str, int] = {}

        targets = {
            name: Crashable(lambda _cause, n=node: n.crash(), node.restart)
            for name, node in cluster.nodes.items()
        }
        for service in self._shoppers:
            endpoint = service.client.endpoint
            targets[service.client.name] = Crashable(
                lambda _cause, e=endpoint: e.stop("crash"), endpoint.restart
            )
        return ChaosTargets(sim, network=cluster.network, nodes=targets)

    def invariants(self, monitor: InvariantMonitor) -> None:
        monitor.register(
            "acked-is-durable",
            lambda: acked_is_durable(
                lost_acks(self._history, lambda _cart: self._final_view)
            ),
            when="quiesce",
        )

    def drive(self, sim: Simulator) -> None:
        sim.spawn(
            self._workload(sim, self._shoppers, self._history),
            name="chaos.cart.workload",
        )

    def quiesce(self, sim: Simulator) -> None:
        """Deliver hints, anti-entropy, then read the cart back."""
        sim.run_process(self._cluster.run_handoff_round())
        sim.run_process(self._cluster.run_anti_entropy_round())
        self._final_view = sim.run_process(self._shoppers[0].view(self.cart_key))

    def _workload(
        self, sim: Simulator, shoppers: List[CartService], history: History
    ) -> Generator:
        rng = sim.rng.stream("chaos.cart.workload")
        item_no = 0
        for pause in pacing(sim, rng, self.add_interval, 0.3, self.horizon):
            yield pause
            item_no += 1
            item = f"item{item_no}"
            cart = shoppers[item_no % len(shoppers)]
            op = history.invoke(cart.client.name, ADD, self.cart_key, item)
            try:
                yield from cart.add(self.cart_key, item)
            except PUT_ERRORS:
                # Not acknowledged: the shopper saw the failure, so losing
                # this add would be an acceptable apology.
                history.complete(op, UNKNOWN)
                sim.metrics.inc("chaos.cart.failed_adds")
                continue
            history.complete(op, OK)
            sim.metrics.inc("chaos.cart.acked_adds")
