"""The smoke gate fanned out over a process pool ≡ the smoke gate run in
this process.

``smoke()`` submits every (row, seed) run to one pool up front, but
``bench`` times and counts it from outside by wrapping
``ChaosRunner.sweep`` and ``ChaosRunner.shrink_case`` on the class. So
besides the printed bytes, the report and the metrics, the order and the
process of those two calls are part of the contract.
"""

import contextlib
import io
import json
import os
import tracemalloc

import pytest

from repro.chaos import runner as chaos_runner
from repro.chaos.runner import SMOKE_ROWS, ChaosRunner


def _smoke(monkeypatch, tmp_path, measured):
    """One ``smoke([0, 1])``: its stdout, its report, and every sweep's
    and shrink's (pid, what) in call order."""
    sweeps, shrinks = [], []
    sweep, shrink_case = ChaosRunner.sweep, ChaosRunner.shrink_case

    def watched_sweep(self, *args, **kwargs):
        result = sweep(self, *args, **kwargs)
        sweeps.append((os.getpid(), result.scenario, self.metrics.counters()))
        return result

    def watched_shrink(self, *args, **kwargs):
        case = shrink_case(self, *args, **kwargs)
        shrinks.append((os.getpid(), case.seed, case.shrink_evals))
        return case

    monkeypatch.setattr(ChaosRunner, "sweep", watched_sweep)
    monkeypatch.setattr(ChaosRunner, "shrink_case", watched_shrink)
    report = tmp_path / f"report-{measured}.json"
    out = io.StringIO()
    tracing = tracemalloc.is_tracing()
    if measured and not tracing:
        tracemalloc.start()  # forces every run into this process
    try:
        with contextlib.redirect_stdout(out):
            exit_code = chaos_runner.smoke([0, 1], report_path=str(report))
    finally:
        if measured and not tracing:
            tracemalloc.stop()
    monkeypatch.undo()
    assert exit_code == 0
    text = out.getvalue().replace(str(report), "REPORT")
    return text, json.loads(report.read_text()), sweeps, shrinks


@pytest.fixture(scope="module")
def both(tmp_path_factory):
    monkeypatch = pytest.MonkeyPatch()
    tmp_path = tmp_path_factory.mktemp("smoke")
    try:
        return (_smoke(monkeypatch, tmp_path, measured=False),
                _smoke(monkeypatch, tmp_path, measured=True))
    finally:
        monkeypatch.undo()


def test_fanned_out_and_in_process_print_the_same_bytes(both):
    (fanned_text, fanned_report, _, _), (local_text, local_report, _, _) = both
    assert fanned_text == local_text
    assert fanned_report == local_report


def test_every_sweep_runs_in_this_process_in_row_order(both):
    for _text, _report, sweeps, _shrinks in both:
        assert [pid for pid, _s, _c in sweeps] == [os.getpid()] * len(SMOKE_ROWS)
        assert [scenario for _p, scenario, _c in sweeps] == [
            row.build().name for row in SMOKE_ROWS
        ]
    fanned, local = both[0][2], both[1][2]
    assert [counters for _p, _s, counters in fanned] == [
        counters for _p, _s, counters in local
    ]


def test_every_shrink_runs_in_this_process_with_the_same_evals(both):
    fanned, local = both[0][3], both[1][3]
    assert fanned, "the planted bugs were not shrunk"
    assert fanned == local
    assert {pid for pid, _seed, _evals in fanned} == {os.getpid()}
