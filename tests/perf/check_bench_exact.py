"""Compare a ``python3 -m bench run --out FILE`` result with the pinned
exact fields in ``bench_exact.json`` (counts and digests, no clocks).

    python tests/perf/check_bench_exact.py bench-run.json

Exits 1 and names every field that differs (a workload missing from the
run differs in all of its fields). A dotted field names a nested one:
``heap_lap.sim_digest`` is the digest of the quarter-scale memory lap,
so the pins hold at a second size.
"""

import json
import sys
from pathlib import Path

PINNED = Path(__file__).with_name("bench_exact.json")


def lookup(result, field):
    """``result[a][b]`` for the field ``a.b``; ``<missing>`` if absent."""
    for part in field.split("."):
        if not isinstance(result, dict) or part not in result:
            return "<missing>"
        result = result[part]
    return result


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    expected = json.loads(PINNED.read_text())
    with open(argv[1]) as handle:
        results = json.load(handle)["results"]
    checked = wrong = 0
    for workload, fields in expected.items():
        for field, want in fields.items():
            checked += 1
            got = lookup(results.get(workload, {}), field)
            if got != want:
                wrong += 1
                print(f"{workload}.{field}: expected {want!r}, got {got!r}")
    print(f"{checked} exact fields checked: {wrong} differ")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
