"""The whole paper in one test: each era's system does its signature move
on the shared substrate, in order of publication-historical appearance."""

from repro.bank import Check, ClearOutcome, ReplicatedBank
from repro.cap import CapCell, Stance
from repro.cart import CartService, OpCartStrategy
from repro.core import Operation, Replica, TypeRegistry
from repro.core.antientropy import sync_replicas
from repro.dynamo import DynamoCluster
from repro.errors import TransactionAborted
from repro.logship import LogShippingSystem
from repro.sim import Timeout
from repro.tandem import DPMode, TandemConfig, TandemSystem


def test_section_3_tandem_history():
    """1984: transparent takeover. 1986: faster writes, erosion."""
    results = {}
    for mode in (DPMode.DP1, DPMode.DP2):
        system = TandemSystem(TandemConfig(mode=mode, num_dps=1), seed=2)
        client = system.client()

        def story():
            txn = client.begin()
            yield from client.write(txn, "dp0", "x", 1)
            system.crash_primary("dp0")
            try:
                yield from client.commit(txn)
                return "survived"
            except TransactionAborted:
                return "aborted"

        outcome = system.sim.run_process(story())
        latency = system.sim.metrics.histogram("tandem.write_latency").mean
        results[mode] = (outcome, latency)
    assert results[DPMode.DP1][0] == "survived"
    assert results[DPMode.DP2][0] == "aborted"
    assert results[DPMode.DP2][1] < results[DPMode.DP1][1]


def test_section_4_log_shipping_window():
    system = LogShippingSystem(ship_interval=100.0, seed=2)

    def story():
        txn = yield from system.submit({"k": 1})
        return system.fail_over()["lost_txns"] == [txn]

    assert system.sim.run_process(story())


def test_section_6_dynamo_cart_and_bank():
    # The cart reconciles siblings without losing adds.
    cluster = DynamoCluster(seed=2)
    cart = CartService(cluster, OpCartStrategy())

    def shop():
        yield from cart.add("c", "book")
        yield from cart.add("c", "pen")
        view = yield from cart.view("c")
        return view

    assert cluster.sim.run_process(shop()) == {"book": 1, "pen": 1}
    # The bank clears the same check twice, once.
    bank = ReplicatedBank(initial_deposit=500.0)
    check = Check("fnb", "a", 1, "p", 100.0)
    assert bank.clear_check("branch0", check) is ClearOutcome.CLEARED
    assert bank.clear_check("branch1", check) is ClearOutcome.CLEARED  # blind
    bank.reconcile()
    assert set(bank.balances().values()) == {400.0}


def test_section_8_acid2_beats_the_cap_squeeze():
    cell = CapCell(Stance.AP_OPS)
    cell.partition()
    cell.increment("east", 1.0, "e", at=1.0)
    cell.increment("west", 1.0, "w", at=1.0)
    cell.heal()
    assert cell.read("east") == cell.read("west") == 2.0
    assert cell.refused == 0 and cell.lost_updates == []


def test_the_closing_sentence():
    """"It is the reorderability of work and repeatability of work that is
    essential" — one op set, two arrival orders, same answer."""
    registry = TypeRegistry(initial_state=dict)
    registry.register(
        "OP", lambda s, op: {**s, "n": s.get("n", 0) + op.args["v"]}
    )
    forward = Replica("fwd", registry)
    backward = Replica("bwd", registry)
    ops = [Operation("OP", {"v": i}, uniquifier=f"u{i}", ingress_time=float(i))
           for i in range(6)]
    for op in ops:
        forward.integrate([op])
    for op in reversed(ops):
        backward.integrate([op])
    # Repeatability: duplicates change nothing.
    forward.integrate(ops)
    sync_replicas(forward, backward)
    assert forward.state == backward.state
    assert forward.state["n"] == sum(range(6))
