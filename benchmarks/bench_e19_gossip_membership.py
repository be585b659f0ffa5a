"""E19 — Gossip membership: rumor latency and the cost of flapping.

Two measured claims about epidemically disseminated liveness:

1. **Dissemination latency ∝ log(n) · round-period.** A single rumor
   (a new member planted at one node) reaches every view in a number of
   gossip rounds that grows with ``log(n)`` and shrinks with fanout —
   push-pull infection roughly multiplies the informed set by
   ``1 + fanout`` per round, so the predicted latency is
   ``period · log2(n) / log2(1 + fanout)``. The sweep crosses cluster
   size with fanout and tables claim vs measured.

2. **False-dead rate vs flap period.** A member that flaps (down for
   ``off``, up for a beat, repeat) is suspected on every failed probe.
   When ``off`` is short against the suspicion timeout, the member is
   back — and refuting — before the timer expires, so suspicion rarely
   hardens into a death verdict; once ``off`` exceeds the timeout,
   every dip convicts, and every conviction is *false* in hindsight
   (the member always returns). Either way, no verdict sticks: the
   returning member's incarnation bump clears it everywhere.

Run with ``pytest benchmarks/bench_e19_gossip_membership.py -s`` to print
the tables.
"""

import math

from repro.analysis import Table
from repro.cluster.gossip_membership import (
    ALIVE,
    DEAD,
    SUSPECT,
    MembershipGossip,
    MembershipView,
)
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.sim import Simulator
from repro.sim.events import Timeout

CLUSTER_SIZES = (8, 16, 32)
FANOUTS = (1, 2, 4)
FLAP_OFFS = (0.3, 0.6, 1.5, 3.0)

_PERIOD = 0.25
_SUSPICION_TIMEOUT = 1.0
_SEEDS = (11, 12, 13)
_WARMUP = 3.0


def _build(sim, names, fanout, period=_PERIOD):
    net = Network(
        sim, default_link=LinkConfig(latency=FixedLatency(0.002))
    )
    views, gossips = {}, {}
    for name in names:
        view = MembershipView(
            name, sim, suspicion_timeout=_SUSPICION_TIMEOUT
        )
        view.seed(names)
        views[name] = view
        gossips[name] = MembershipGossip(
            view, network=net, period=period, fanout=fanout
        )
    return net, views, gossips


# ----------------------------------------------------------------------
# Claim 1: dissemination latency


def run_dissemination(n, fanout, seed, period=_PERIOD):
    """Plant one rumor at one node; time until every view holds it."""
    sim = Simulator(seed=seed)
    names = [f"m{i}" for i in range(n)]
    horizon = _WARMUP + 60.0 * period
    net, views, gossips = _build(sim, names, fanout, period)
    for gossip in gossips.values():
        gossip.run(horizon)

    latency = {}

    def _measure():
        # Warm up so the rumor lands mid-cadence, not at a synchronized
        # start, then watch for full coverage.
        yield Timeout(_WARMUP)
        views[names[0]].apply("newcomer", ALIVE, 0)
        planted = sim.now
        while not all(
            view.status_of("newcomer") == ALIVE for view in views.values()
        ):
            yield Timeout(period / 8.0)
        latency["value"] = sim.now - planted

    sim.spawn(_measure(), name="e19.measure")
    sim.run(until=horizon)
    return latency.get("value")


def dissemination_rows():
    rows = []
    for n in CLUSTER_SIZES:
        for fanout in FANOUTS:
            samples = [
                run_dissemination(n, fanout, seed) for seed in _SEEDS
            ]
            assert all(s is not None for s in samples), (
                f"rumor never covered n={n} fanout={fanout}"
            )
            measured = sum(samples) / len(samples)
            predicted = _PERIOD * math.log2(n) / math.log2(1 + fanout)
            rows.append({
                "n": n,
                "fanout": fanout,
                "measured_s": round(measured, 4),
                "predicted_s": round(predicted, 4),
                "ratio": round(measured / predicted, 3),
            })
    return rows


# ----------------------------------------------------------------------
# Claim 2: false-dead rate under flapping


def run_flap(off, seed, n=6, period=_PERIOD, cycles=6, up=1.0):
    """One member flaps (up ``up``s, down ``off``s, ``cycles`` times);
    count how often the others' views convict it dead — and verify no
    verdict survives its return."""
    sim = Simulator(seed=seed)
    names = [f"m{i}" for i in range(n)]
    horizon = _WARMUP + cycles * (up + off) + 12.0 * _SUSPICION_TIMEOUT
    net, views, gossips = _build(sim, names, fanout := 2, period)
    for gossip in gossips.values():
        gossip.run(horizon)

    flapper = names[-1]
    counts = {"dead": 0, "suspect": 0}
    for name, view in views.items():
        if name == flapper:
            continue

        def _watch(member, _old, new, _inc, _view=view):
            if member != flapper:
                return
            if new == DEAD:
                counts["dead"] += 1
            elif new == SUSPECT:
                counts["suspect"] += 1

        view.on_change(_watch)

    def _flap():
        yield Timeout(_WARMUP)
        for _ in range(cycles):
            yield Timeout(up)
            # Down: the endpoint dies and so does the gossip loop — a
            # crashed member spreads no rumors and suspects nobody.
            gossips[flapper].stop()
            yield Timeout(off)
            gossips[flapper].endpoint.restart()
            gossips[flapper].run(horizon)

    sim.spawn(_flap(), name="e19.flap")
    sim.run(until=horizon)

    stuck = [
        (name, view.status_of(flapper))
        for name, view in views.items()
        if name != flapper and view.status_of(flapper) != ALIVE
    ]
    return {
        "off_s": off,
        "cycles": cycles,
        "dead_verdicts": counts["dead"],
        "suspicions": counts["suspect"],
        "false_dead_per_cycle": round(counts["dead"] / cycles, 3),
        "refutations": int(
            sim.metrics.counters().get("membership.refutations", 0)
        ),
        "stuck_verdicts": len(stuck),
    }


def flap_rows():
    rows = []
    for off in FLAP_OFFS:
        per_seed = [run_flap(off, seed) for seed in _SEEDS]
        rows.append({
            "off_s": off,
            "cycles": per_seed[0]["cycles"],
            "dead_verdicts": sum(r["dead_verdicts"] for r in per_seed)
            / len(per_seed),
            "suspicions": sum(r["suspicions"] for r in per_seed)
            / len(per_seed),
            "false_dead_per_cycle": round(
                sum(r["false_dead_per_cycle"] for r in per_seed)
                / len(per_seed), 3,
            ),
            "refutations": sum(r["refutations"] for r in per_seed)
            / len(per_seed),
            "stuck_verdicts": sum(r["stuck_verdicts"] for r in per_seed),
        })
    return rows


# ----------------------------------------------------------------------
# Claims


def check_claims(dis_rows, flap):
    by_key = {(r["n"], r["fanout"]): r for r in dis_rows}
    for row in dis_rows:
        # Proportionality: measured stays within a small constant factor
        # of period·log2(n)/log2(1+fanout) across the whole sweep.
        assert 0.2 <= row["ratio"] <= 6.0, row
    for n in CLUSTER_SIZES:
        # More fanout, faster coverage (weak monotonicity; epidemics are
        # noisy at small n, so compare the extremes).
        assert (by_key[(n, max(FANOUTS))]["measured_s"]
                <= by_key[(n, min(FANOUTS))]["measured_s"] * 1.25), (
            [by_key[(n, f)] for f in FANOUTS]
        )
    for fanout in FANOUTS:
        # Sub-linear growth in n: quadrupling the cluster must not
        # quadruple the latency (log-growth would predict 5/3).
        small = by_key[(min(CLUSTER_SIZES), fanout)]["measured_s"]
        large = by_key[(max(CLUSTER_SIZES), fanout)]["measured_s"]
        assert large <= small * 4.0 * 0.9, (small, large, fanout)

    flap_by_off = {r["off_s"]: r for r in flap}
    fast, slow = flap_by_off[min(FLAP_OFFS)], flap_by_off[max(FLAP_OFFS)]
    # Fast flapping (off << suspicion timeout) rarely convicts: the
    # member is back before the timer expires.
    assert fast["false_dead_per_cycle"] < 0.5, fast
    # Slow flapping (off >> timeout) convicts nearly every cycle,
    # and each conviction is refuted on return.
    assert slow["false_dead_per_cycle"] > fast["false_dead_per_cycle"], (
        fast, slow)
    assert slow["dead_verdicts"] > 0, slow
    assert slow["refutations"] > 0, slow
    for row in flap:
        # The tentpole's invariant, measured here too: a refuted
        # suspicion never sticks — the flapper ends alive everywhere.
        assert row["stuck_verdicts"] == 0, row


def run_sweep():
    dis_rows = dissemination_rows()
    flap = flap_rows()
    return dis_rows, flap


# ----------------------------------------------------------------------
# Entrypoints


def test_e19_gossip_membership():
    dis_rows, flap = run_sweep()
    table = Table(
        "E19  Rumor dissemination: claim (period·log2(n)/log2(1+f)) vs measured",
        ["n", "fanout", "predicted (s)", "measured (s)", "ratio"],
    )
    for row in dis_rows:
        table.add_row(
            row["n"], row["fanout"], f"{row['predicted_s']:.3f}",
            f"{row['measured_s']:.3f}", f"{row['ratio']:.2f}",
        )
    table.print()
    flap_table = Table(
        "E19  Flapping member: false-dead verdicts vs flap off-time "
        f"(suspicion timeout {_SUSPICION_TIMEOUT}s)",
        ["off (s)", "suspicions", "dead verdicts", "false-dead/cycle",
         "refutations", "stuck at end"],
    )
    for row in flap:
        flap_table.add_row(
            row["off_s"], round(row["suspicions"], 1),
            round(row["dead_verdicts"], 1), row["false_dead_per_cycle"],
            round(row["refutations"], 1), row["stuck_verdicts"],
        )
    flap_table.print()
    check_claims(dis_rows, flap)
