"""Tracing owned by the bench: spans from outside, self time by layer.

Two instruments, both installed at run time without editing ``src/``:

- **Spans** around the *synchronous* public entry points of each layer
  (name, start, end, parent). A span's self time is its duration minus
  what its child spans cover. Spans live in flat in-memory columns and
  are summarised when the lap ends.
- **cProfile self time folded by ``repro.<pkg>``** for everything that is
  a generator: a generator's wall interval interleaves other simulated
  processes, so only self time is an honest figure for it. Time inside C
  builtins (``heappush``, ``sha256``…) is charged to the layer of the
  Python function that called them.

Wrappers must be installed before the workload is built (handlers close
over module functions at construction); the recorder only records while
``enabled``, so set-up stays out of the trace.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import time
from array import array
from typing import Any, Dict, List, Tuple

#: ``layer.<pkg>.self_frac`` buckets. ``other`` holds the bench's own
#: load generator and the repro packages not listed; ``stdlib`` holds
#: pure-Python library code (builtins are charged to their caller).
LAYERS = (
    "sim", "net", "resilience", "workload", "dynamo", "cart", "cluster",
    "storage", "logship", "failover", "txn", "bank", "chaos", "stdlib",
    "other",
)

#: (module, class or None, attribute): every synchronous entry point a
#: span wraps. Module-level functions imported by name elsewhere are
#: listed once per importing module.
SPAN_POINTS: Tuple[Tuple[str, Any, str], ...] = (
    ("repro.sim.scheduler", "Simulator", "run"),
    ("repro.sim.trace", "TraceLog", "emit"),
    ("repro.net.network", "Network", "send"),
    ("repro.workload.zipf", "ZipfKeyGenerator", "key"),
    ("repro.dynamo.ring", "HashRing", "preference_list"),
    ("repro.dynamo.ring", None, "ring_hash"),
    ("repro.dynamo.merkle", None, "ring_hash"),
    ("repro.dynamo.merkle", None, "all_digests"),
    ("repro.dynamo.node", "DynamoNode", "store_version"),
    ("repro.cart.strategies", "OpCartStrategy", "apply"),
    ("repro.cart.strategies", "OpCartStrategy", "merge"),
    ("repro.cart.strategies", "OpCartStrategy", "view"),
    ("repro.chaos.runner", "ChaosRunner", "sweep"),
    ("repro.chaos.runner", "ChaosRunner", "shrink_case"),
)

SAMPLE_SPANS = 2000


class SpanRecorder:
    """Flat columns of (name, start, end, parent); -1 parent = root."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Simulator.steps executed inside recorded ``Simulator.run`` calls.
        self.sim_events = 0

    # ------------------------------------------------------------------

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        counts_events = name.endswith("Simulator.run")
        clock = time.perf_counter
        stack = self._stack
        starts, ends = self.start, self.end
        name_ids, parents = self.name_id, self.parent

        def span(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            steps_before = args[0].steps if counts_events else 0
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if counts_events:
                    self.sim_events += args[0].steps - steps_before

        setattr(owner, attr, span)

    def install(self) -> None:
        # Import everything first: a module imported after a function it
        # imports by name was wrapped would pick up the wrapper itself.
        modules = {name: importlib.import_module(name) for name, _c, _a in SPAN_POINTS}
        for module_name, class_name, attr in SPAN_POINTS:
            module = modules[module_name]
            if class_name:
                owner = getattr(module, class_name)
                label = f"{module_name}.{class_name}.{attr}"
            else:
                # One span name per function, however many modules
                # imported it by name.
                owner = module
                label = f"{getattr(module, attr).__module__}.{attr}"
            self._wrap(owner, attr, label)

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Per-name and per-layer calls, total and self seconds, plus the
        first ``SAMPLE_SPANS`` raw spans."""
        count = len(self.start)
        by_name: Dict[str, Dict[str, float]] = {}
        by_layer: Dict[str, Dict[str, float]] = {}
        starts, ends, parents = self.start, self.end, self.parent
        covered = [0.0] * count  # seconds of each span its children cover
        for index in range(count):
            if parents[index] >= 0:
                covered[parents[index]] += ends[index] - starts[index]
        for index in range(count):
            name = self.names[self.name_id[index]]
            duration = ends[index] - starts[index]
            entry = by_name.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - covered[index]
        for name, entry in by_name.items():
            layer = by_layer.setdefault(
                layer_of_name(name), {"calls": 0, "self_s": 0.0})
            layer["calls"] += entry["calls"]
            layer["self_s"] += entry["self_s"]
        sample = [
            [self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
            for i in range(min(count, SAMPLE_SPANS))
        ]
        return {
            "count": count,
            "by_name": by_name,
            "by_layer": by_layer,
            "sample_fields": ["name", "start_s", "end_s", "parent_index"],
            "sample": sample,
        }


def layer_of_name(dotted: str) -> str:
    """``repro.dynamo.ring.HashRing.preference_list`` → ``dynamo``."""
    parts = dotted.split(".")
    if len(parts) > 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def layer_of_file(filename: str) -> str:
    """Fold a profiled function's file into a layer bucket."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        package = path[at + len(marker):].split("/", 1)[0]
        return package if package in LAYERS else "other"
    if "/bench/" in path:
        return "other"
    return "stdlib"


def fold_profile(profiler: cProfile.Profile, top: int = 10) -> Dict[str, Any]:
    """Self seconds, call counts and the ``top`` functions per layer."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    layers: Dict[str, Dict[str, Any]] = {
        layer: {"self_s": 0.0, "calls": 0, "functions": {}} for layer in LAYERS
    }

    def charge(layer: str, label: str, seconds: float, calls: int) -> None:
        bucket = layers[layer]
        bucket["self_s"] += seconds
        bucket["calls"] += calls
        entry = bucket["functions"].setdefault(label, [0.0, 0])
        entry[0] += seconds
        entry[1] += calls

    for (filename, line, func), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if filename == "~" and callers:
            # A C builtin: its time belongs to whoever called it.
            for (caller_file, _l, _f), (c_calls, _cc2, c_tt, _ct2) in callers.items():
                charge(layer_of_file(caller_file) if caller_file != "~" else "stdlib",
                       func, c_tt, c_calls)
        elif filename == "~":
            charge("stdlib", func, tottime, ncalls)
        else:
            short = filename.replace("\\", "/").rsplit("/", 2)
            charge(layer_of_file(filename),
                   f"{'/'.join(short[-2:])}:{line}({func})", tottime, ncalls)
    total = sum(bucket["self_s"] for bucket in layers.values())
    out: Dict[str, Any] = {"total_s": total, "layers": {}}
    for layer, bucket in layers.items():
        ranked = sorted(bucket["functions"].items(), key=lambda kv: -kv[1][0])
        out["layers"][layer] = {
            "self_s": bucket["self_s"],
            "self_frac": bucket["self_s"] / total if total else 0.0,
            "calls": bucket["calls"],
            "top": [[label, seconds, calls]
                    for label, (seconds, calls) in ranked[:top]],
        }
    return out
