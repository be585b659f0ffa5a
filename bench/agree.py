"""``python3 -m bench agree A.json B.json`` — do two result sets agree?

Each workload gets its own row. A bounded metric (``end_to_end`` in
``BENCHMARK.json``) *agrees* when the medians differ by no more than its
bound, and is *unresolved* — neither agreement nor disagreement — when
either side's own quartile spread is wider than the bound. Simulated
statistics, counts and ``sim_digest`` must match exactly: they cannot
move unless behaviour did. Exit status 1 on any disagreement.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from bench.runner import EXACT_FIELDS, load_spec


def _spread(metric: Dict[str, Any]) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    if metric.get("n", 1) < 2:
        return 0.0
    q1, _q2, q3 = metric["quartiles"]
    return (q3 - q1) / metric["value"]


def judge(a: Dict[str, Any], b: Dict[str, Any], bound: float) -> Tuple[str, str]:
    """(verdict, detail) for one bounded metric of one workload."""
    spread = max(_spread(a), _spread(b))
    change = (b["value"] - a["value"]) / a["value"]
    detail = (f"{a['value']:.6g} -> {b['value']:.6g} ({change:+.1%}, "
              f"spread {spread:.1%}, bound {bound:.0%})")
    if spread > bound:
        return "unresolved", detail
    return ("agree" if abs(change) <= bound else "DISAGREE"), detail


def agree(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        set_a = json.load(handle)
    with open(path_b) as handle:
        set_b = json.load(handle)
    spec = load_spec()
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    counts = {entry["name"] for entry in spec["per_layer"] if entry["unit"] == "count"}
    disagreements: List[str] = []
    names = [entry["name"] for entry in spec["workloads"]]
    for workload in names:
        a = set_a["results"].get(workload)
        b = set_b["results"].get(workload)
        if a is None or b is None:
            if a is not b:
                disagreements.append(f"{workload}: present in only one file")
            continue
        print(f"== {workload}")
        if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
            disagreements.append(f"{workload}: different seed or scale")
            print("  DISAGREE  seed/scale differ: nothing below is comparable")
        for name in a["metrics"]:
            if name not in b["metrics"]:
                disagreements.append(f"{workload}.{name}: missing from {path_b}")
            elif name in bounds:
                verdict, detail = judge(a["metrics"][name], b["metrics"][name], bounds[name])
                print(f"  {verdict:<10} {name:<24} {detail}")
                if verdict == "DISAGREE":
                    disagreements.append(f"{workload}.{name}: {detail}")
            elif name in counts:
                same = a["metrics"][name]["value"] == b["metrics"][name]["value"]
                if not same:
                    print(f"  DISAGREE   {name:<24} count "
                          f"{a['metrics'][name]['value']} != {b['metrics'][name]['value']}")
                    disagreements.append(f"{workload}.{name}: count differs")
        exact = [f for f in EXACT_FIELDS if f in a or f in b]
        moved = [f for f in exact if a.get(f) != b.get(f)]
        for field in moved:
            print(f"  DISAGREE   {field:<24} {a.get(field)} != {b.get(field)}")
            disagreements.append(f"{workload}.{field}: must match exactly")
        if exact and not moved:
            print(f"  exact      {', '.join(exact)}")
    if disagreements:
        print(f"{len(disagreements)} disagreement(s):")
        for line in disagreements:
            print(f"  {line}")
        return 1
    print("the two result sets agree")
    return 0
