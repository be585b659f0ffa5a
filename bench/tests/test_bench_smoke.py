"""Smoke test of the benchmark itself (``pytest bench/tests``; not part of
the tier-1 ``testpaths``): tiny-scale runs of all four workloads must
emit exactly what ``BENCHMARK.json`` declares, under legal names, with a
simulated outcome that repeats."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args: str, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "bench", *args, "--scale", "0.02",
         "--seconds", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=280,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_line(line: dict, declared: list) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    assert set(line["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = line["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))


def test_declared_names_are_legal_and_unique():
    names = WORKLOADS + [
        entry["name"] for kind in ("end_to_end", "per_layer") for entry in SPEC[kind]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in {entry["name"] for entry in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_declared_end_to_end_metrics(workload, tmp_path):
    out = tmp_path / "run.json"
    line = bench("run", "--workload", workload, out=out)
    check_line(line, SPEC["end_to_end"])
    for metric in line["metrics"].values():
        assert metric["value"] > 0
    result = json.loads(out.read_text())["results"][workload]
    assert result["digest_repeats"] and len(result["timed_s"]) >= 3
    assert re.fullmatch(r"[0-9a-f]{64}", result["sim_digest"])
    for metric in result["metrics"].values():
        assert metric["n"] == len(metric["samples"]) and len(metric["quartiles"]) == 3


def test_traced_run_emits_the_declared_per_layer_metrics(tmp_path):
    out = tmp_path / "trace.json"
    line = bench("trace", "--workload", "rpc_ladder", out=out)
    check_line(line, SPEC["per_layer"])
    shares = [value["value"] for name, value in line["metrics"].items()
              if name.startswith("layer.")]
    assert sum(shares) == pytest.approx(1.0)
    result = json.loads(out.read_text())["results"]["rpc_ladder"]
    assert result["digest_repeats"]  # traced and untraced laps agree
    assert (ROOT / result["trace_file"]).is_file()


def test_agree_accepts_a_file_against_itself(tmp_path):
    out = tmp_path / "run.json"
    bench("run", "--workload", "rpc_ladder", out=out)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "agree", str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout
    moved = json.loads(out.read_text())
    moved["results"]["rpc_ladder"]["sim_digest"] = "0" * 64
    other = tmp_path / "moved.json"
    other.write_text(json.dumps(moved))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "agree", str(out), str(other)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1 and "sim_digest" in done.stdout
