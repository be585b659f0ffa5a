"""E18 — Mixed-consistency transactions: guessing buys goodput, priced
in apologies.

The §5.7 bargain, measured. Three replicas take a mixed stream of weak
ops (answered immediately from speculative local order — a *guess*) and
strong ops (acked only at quorum commit in the total order). Mid-run a
partition isolates the leader. The sweep crosses the weak/strong mix
with the partition length and measures, inside the partition window:

- the fraction of weak submissions acked (always 1.0 — a guess never
  waits for the fabric);
- the fraction of strong submissions acked (collapses while the fabric
  is cut: the minority side cannot commit at all, the majority pays the
  takeover);
- and the price: the apology rate — the share of guesses that the agreed
  post-heal order contradicted, each one settled wrong in the system's
  :class:`~repro.core.guesses.Ledger` and answered by one structured
  :class:`~repro.core.guesses.Apology`.

Run with ``pytest benchmarks/bench_e18_mixed_txn.py -s`` to print the table.
"""

import itertools

from repro.analysis import Table
from repro.core.operation import Operation
from repro.sim import Simulator
from repro.sim.events import Timeout
from repro.txn import MixedTxnSystem, ResourceMachine

WEAK_FRACTIONS = (0.5, 0.8, 0.95)
PARTITION_LENGTHS = (0.0, 3.0, 8.0)

_SUBMIT_INTERVAL = 0.1
_PARTITION_START = 3.0
_CAPACITY = 30


def _client(sim, system, replica, weak_fraction, until, tickets):
    rng = sim.rng.stream(f"e18.client.{replica}")
    seq = itertools.count(1)
    open_reserves = []
    while True:
        think = _SUBMIT_INTERVAL * rng.uniform(0.5, 1.5)
        if sim.now + think > until:
            return
        yield Timeout(think)
        n = next(seq)
        if rng.uniform(0.0, 1.0) < weak_fraction:
            roll = rng.uniform(0.0, 1.0)
            if roll < 0.6 or not open_reserves:
                op = Operation("RESERVE", {"category": "seats"},
                               uniquifier=f"{replica}-r{n}")
            elif roll < 0.85:
                op = Operation(
                    "CANCEL",
                    {"category": "seats", "target": open_reserves.pop(0)},
                    uniquifier=f"{replica}-c{n}")
            else:
                op = Operation("RESTOCK", {"category": "seats", "quantity": 1},
                               uniquifier=f"{replica}-k{n}")
        else:
            op = Operation("SET_CAPACITY",
                           {"category": "annex", "value": _CAPACITY + n},
                           uniquifier=f"{replica}-s{n}")
        ticket = system.submit(replica, op)
        tickets.append(ticket)
        if op.op_type == "RESERVE" and ticket.guess == {"ok": True}:
            open_reserves.append(op.uniquifier)


def run_case(weak_fraction, partition_len, seed=17):
    """One cell of the sweep: a fixed mix under a fixed partition.

    The measurement window is the partition itself (or a same-width
    healthy window for the zero-length baseline): what fraction of each
    class's submissions got an answer while the fabric was cut, and how
    many of the guesses the post-heal order later contradicted.
    """
    sim = Simulator(seed=seed)
    system = MixedTxnSystem(sim, ResourceMachine(
        {"seats": _CAPACITY, "annex": _CAPACITY}))
    system.start()

    window = (_PARTITION_START, _PARTITION_START + (partition_len or 3.0))
    submit_until = window[1] + 2.0
    tickets = []
    snapshots = {}

    def _snap(label):
        snapshots[label] = {
            "strong_acks": sim.metrics.histogram("txn.strong_latency_s").count,
        }

    if partition_len > 0:
        sim.schedule_at(_PARTITION_START, lambda: system.network.partition(
            [{"txn0"}, {"txn1", "txn2", "txn.monitor"}]))
        sim.schedule_at(window[1], system.network.heal)
    sim.schedule_at(window[0], _snap, "open")
    sim.schedule_at(window[1], _snap, "close")

    for name in ("txn0", "txn1", "txn2"):
        sim.spawn(
            _client(sim, system, name, weak_fraction, submit_until, tickets),
            name=f"e18.client.{name}")
    sim.run(until=submit_until + 12.0)
    system.stop()

    in_window = [t for t in tickets if window[0] <= t.submitted_at < window[1]]
    weak_sub = [t for t in in_window if t.op_class == "weak"]
    strong_sub = [t for t in in_window if t.op_class == "strong"]
    weak_acked = sum(1 for t in weak_sub if t.guess is not None)
    strong_acked = (snapshots["close"]["strong_acks"]
                    - snapshots["open"]["strong_acks"])
    counters = sim.metrics.counters()
    guesses = counters.get("txn.guesses", 0)
    width = window[1] - window[0]
    stab = sim.metrics.histogram("txn.stabilize_latency_s")
    return {
        "weak_fraction": weak_fraction,
        "partition_len": partition_len,
        "weak_submitted": len(weak_sub),
        "strong_submitted": len(strong_sub),
        "weak_ack_frac": weak_acked / len(weak_sub) if weak_sub else 1.0,
        "strong_ack_frac": (min(1.0, strong_acked / len(strong_sub))
                            if strong_sub else 1.0),
        "acked_goodput_per_s": (weak_acked + strong_acked) / width,
        "apologies": counters.get("txn.apologies", 0.0),
        "apology_rate": counters.get("txn.apologies", 0.0) / guesses
        if guesses else 0.0,
        "stabilize_p95_s": stab.percentile(95) if stab.count else 0.0,
        "unstabilized": sum(1 for t in tickets if not t.stabilized),
    }


def run_sweep():
    return [
        run_case(weak_fraction, partition_len)
        for weak_fraction in WEAK_FRACTIONS
        for partition_len in PARTITION_LENGTHS
    ]


def _check_claims(rows):
    by_mix = {}
    for row in rows:
        by_mix.setdefault(row["weak_fraction"], []).append(row)
    for row in rows:
        # Everything settles once the fabric heals: no abandoned guesses.
        assert row["unstabilized"] == 0, row
        # A guess never waits: every weak submission inside the partition
        # was answered inside the partition.
        assert row["weak_ack_frac"] == 1.0, row
    for mix_rows in by_mix.values():
        mix_rows.sort(key=lambda r: r["partition_len"])
        baseline, partitioned = mix_rows[0], mix_rows[1:]
        for row in partitioned:
            # In-partition goodput: weak beats strong while the fabric
            # is cut — the §5.7 claim this experiment exists to measure.
            assert row["weak_ack_frac"] > row["strong_ack_frac"], row
            # A cut never *reduces* the apologies owed...
            assert row["apology_rate"] >= baseline["apology_rate"], (
                baseline, row)
        # ...and a long cut strictly raises them above the healthy
        # baseline: that rate is the price the guesses were bought at.
        assert partitioned[-1]["apology_rate"] > baseline["apology_rate"], (
            baseline, partitioned[-1])
        assert partitioned[-1]["apologies"] >= partitioned[0]["apologies"], (
            mix_rows)
        # A guess made inside the cut waits out the cut to stabilize: the
        # tail of the stabilize latency grows with the cut's length.
        p95s = [row["stabilize_p95_s"] for row in mix_rows]
        assert all(a < b for a, b in zip(p95s, p95s[1:])), mix_rows
    # Guessing buys throughput: at the longest cut, the guess-heavy mix
    # delivers more in-window answers per second than the strong-heavy one.
    longest = [r for r in rows if r["partition_len"] == max(PARTITION_LENGTHS)]
    longest.sort(key=lambda r: r["weak_fraction"])
    assert longest[-1]["acked_goodput_per_s"] > longest[0]["acked_goodput_per_s"], longest


def test_e18_mixed_txn():
    rows = run_sweep()
    table = Table(
        "E18  Mixed consistency: in-partition goodput vs apology rate",
        ["weak mix", "cut (s)", "weak ack", "strong ack", "acks/s",
         "apologies", "apology rate", "stabilize p95 (s)"],
    )
    for row in rows:
        table.add_row(
            f"{row['weak_fraction']:.2f}", row["partition_len"],
            f"{row['weak_ack_frac']:.2f}", f"{row['strong_ack_frac']:.2f}",
            round(row["acked_goodput_per_s"], 1), int(row["apologies"]),
            f"{row['apology_rate']:.3f}", round(row["stabilize_p95_s"], 2),
        )
    table.print()
    _check_claims(rows)
