"""The tier-1 slice of the behaviour manifest (``manifest.py``).

A few seconds of it: the chaos CLI's ``--smoke`` stdout and report, every
smoke row at seed 0, the golden runs and the examples, each compared with
its pins in ``BEHAVIOUR.json``. The whole manifest (every seed, the three
extra configurations, every bench table and the bench laps) is
``python tests/golden/manifest.py``, which CI runs.
"""

import pytest

from tests.golden import manifest

QUICK = [
    entry for entry in manifest.entries()
    if entry == "smoke" or entry.startswith(("golden/", "example/"))
    or (entry.startswith("smoke/") and entry.endswith("/0"))
]


@pytest.fixture(scope="module")
def pins():
    return manifest.load()


@pytest.fixture(scope="module")
def results():
    return manifest.run(QUICK)


@pytest.mark.parametrize("entry", QUICK)
def test_entry_matches_its_pin(entry, results, pins):
    assert manifest.mismatches({entry: results[entry]}, *pins) == []


def test_every_root_has_an_entry_and_every_entry_a_root(pins):
    assert manifest.unbacked(*pins) == []


def test_each_trace_witness_is_its_pinned_trace(pins):
    pinned, _exact = pins
    assert manifest.stale_witnesses(pinned) == []


def test_diff_names_the_first_diverging_line(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"

    def put(root, relative, text):
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    latencies = [0.002] * 300
    for root, lost in ((a, "3.0"), (b, "4.0")):
        put(root, "smoke/bank_correct/0/counters.txt",
            f'{{\n "chaos.acked": 2.0,\n "chaos.lost": {lost},\n "chaos.runs": 5.0\n}}\n')
        put(root, "smoke/bank_correct/0/histograms.txt",
            "rpc.latency: " + " ".join(map(repr, latencies)) + "\n")
        put(root, "example/quickstart/stdout.txt", "hello\n")
        latencies[250] = 0.003
    put(b, "example/quickstart/stdout.txt", "hello\nextra\n")
    put(a, "table/E1/tables.txt", "\nE1\n\n")

    lines = manifest.diff(a, b)

    assert lines[:3] == ["example/quickstart stdout, line 2:", "  A: <end>", "  B: extra"]
    assert lines[3:6] == ["smoke/bank_correct/0 counters, line 3:",
                          '  A:  "chaos.lost": 3.0,', '  B:  "chaos.lost": 4.0,']
    # A histogram is one line: it is named, and the first differing value shown.
    assert lines[6] == "smoke/bank_correct/0 histograms, line 1:"
    assert lines[7].startswith("  A: rpc.latency: 0.002") and "0.002 0.002" in lines[7]
    assert lines[8].startswith("  B: rpc.latency: 0.002") and " 0.003 " in lines[8]
    assert lines[9:] == [f"table/E1 tables: only in {a}"]
    assert manifest.main(["--diff", str(a), str(a)]) == 0
    assert manifest.main(["--diff", str(a), str(b)]) == 1
