"""Experiment E17 — the geo-scale game day (§2–3, §5.1 at WAN scale).

Everything the paper warns about, at once: three datacenters on a
site-routed fabric, a 96-node Dynamo ring striped across them, the
log-shipping pair split across two sites — and a compound fault window
landing a WAN cut, a fabric-wide retry storm, and a slow disk on the
deposed site simultaneously. The sweep is the failover design space:
failure detector (fixed timeout vs phi accrual) × fencing policy
(fenced vs unfenced), with the full invariant suite latched over every
cell (epoch monotonicity, no lost update, no acked write lost, ring
reconvergence, escrow conservation).

Claim reproduced: **fenced + phi-accrual survives the compound fault
with zero invariant violations and zero lost acked writes**; both
unfenced cells lose post-takeover acks to the healed stale tail; the
detector axis moves detection latency (phi convicts faster than the
fixed timeout), never correctness.
"""


from repro.analysis import Table
from repro.chaos.game_day import GameDayScenario

CELLS = [
    ("fenced", "phi"),
    ("fenced", "fixed"),
    ("unfenced", "phi"),
    ("unfenced", "fixed"),
]


def run_cell(policy, detector, seeds):
    points = []
    for seed in seeds:
        scenario = GameDayScenario(policy=policy, detector=detector)
        plan = scenario.spec().sample(seed)
        report = scenario.run(seed, plan)
        counters = report.counters
        points.append({
            "seed": seed,
            "violations": len(report.violations),
            "violated": sorted({v.invariant for v in report.violations}),
            "lost_updates": counters.get("chaos.gameday.lost_updates", 0.0),
            "lost_acked_writes": float(scenario.lost_acked_writes),
            "stale_acks": counters.get("chaos.gameday.stale_acks", 0.0),
            "stale_rejected": counters.get(
                "logship.stale_epoch_rejected", 0.0
            ),
            "acked_puts": counters.get("chaos.gameday.acked_puts", 0.0),
            "wan_msgs": counters.get("net.wan_msgs", 0.0),
            "detect_latency": scenario.detection_latency,
            "endpoints": scenario.endpoint_count,
            "converged": scenario.converged_at is not None,
        })
    n = len(points)
    detected = [p["detect_latency"] for p in points
                if p["detect_latency"] is not None]
    return {
        "policy": policy,
        "detector": detector,
        "seeds": list(seeds),
        "violations": sum(p["violations"] for p in points) / n,
        "violated": sorted({v for p in points for v in p["violated"]}),
        "lost_updates": sum(p["lost_updates"] for p in points) / n,
        "lost_acked_writes": sum(p["lost_acked_writes"] for p in points) / n,
        "stale_rejected": sum(p["stale_rejected"] for p in points) / n,
        "detect_latency": sum(detected) / len(detected) if detected else None,
        "endpoints": points[0]["endpoints"],
        "all_converged": all(p["converged"] for p in points),
        "points": points,
    }


def run_sweep(seeds=(0, 1, 2)):
    return [run_cell(policy, detector, seeds)
            for policy, detector in CELLS]


def _check_claims(rows):
    cells = {(r["policy"], r["detector"]): r for r in rows}
    for row in rows:
        # 100+ processes across the three sites in every cell.
        assert row["endpoints"] >= 100, row["endpoints"]
        assert row["all_converged"], (row["policy"], row["detector"])
        # The ring never loses an acked write: quorum paths survive the
        # cut by construction, regardless of the failover policy.
        assert row["lost_acked_writes"] == 0, row
    for detector in ("phi", "fixed"):
        fenced = cells[("fenced", detector)]
        unfenced = cells[("unfenced", detector)]
        # The headline: fenced survives the compound fault clean...
        assert fenced["violations"] == 0, fenced["violated"]
        assert fenced["lost_updates"] == 0
        assert fenced["stale_rejected"] > 0   # the fence actually fenced
        # ...and unfenced loses post-takeover acks on every seed.
        assert unfenced["lost_updates"] > 0
        assert unfenced["violated"] == ["acked-is-durable"]
    # The detector axis moves latency, not correctness.
    assert (cells[("fenced", "phi")]["detect_latency"]
            < cells[("fenced", "fixed")]["detect_latency"])


def test_e17_game_day():
    rows = run_sweep()
    table = Table(
        "E17  Geo game day: detector x fencing under WAN cut + retry "
        "storm + slow disk (3 DCs, 100+ procs)",
        ["policy", "detector", "violations", "lost updates",
         "lost acked puts", "stale rejected", "detect latency s",
         "endpoints"],
    )
    for row in rows:
        table.add_row(
            row["policy"], row["detector"], row["violations"],
            row["lost_updates"], row["lost_acked_writes"],
            row["stale_rejected"],
            None if row["detect_latency"] is None
            else round(row["detect_latency"], 3),
            row["endpoints"],
        )
    table.print()
    _check_claims(rows)
