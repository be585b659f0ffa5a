"""The experiment index stays consistent with the repository."""

import ast
import importlib
import inspect
import pathlib

from repro.experiments import EXPERIMENTS
from tests.reach.roots import CLI, SRC, import_roots

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ids_unique_and_complete():
    ids = [e.id for e in EXPERIMENTS]
    assert len(ids) == len(set(ids))
    assert [e.id for e in EXPERIMENTS if e.id.startswith("E")] == [
        f"E{i}" for i in range(1, 20)
    ]
    assert len([e for e in EXPERIMENTS if e.id.startswith("A")]) >= 6


def test_every_bench_file_exists():
    for experiment in EXPERIMENTS:
        assert (REPO_ROOT / experiment.bench).exists(), experiment.bench


def test_every_module_imports():
    for experiment in EXPERIMENTS:
        for module in experiment.modules:
            importlib.import_module(module)


def test_every_claim_cites_a_section():
    for experiment in EXPERIMENTS:
        assert "§" in experiment.claim, experiment.id


def test_benches_on_disk_are_all_indexed():
    """No orphan bench: every benchmarks/bench_*.py appears in the index."""
    indexed = {e.bench for e in EXPERIMENTS}
    on_disk = {
        f"benchmarks/{p.name}"
        for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    }
    assert on_disk == indexed


def test_every_bench_test_takes_no_parameters():
    """The manifest's ``table/<id>`` entries call each bench's ``test_*``
    as it is, with no fixtures."""
    for experiment in EXPERIMENTS:
        module = importlib.import_module(
            experiment.bench.removesuffix(".py").replace("/", "."))
        tests = {name: test for name, test in vars(module).items()
                 if name.startswith("test_")}
        assert tests, experiment.bench
        for name, test in tests.items():
            assert not inspect.signature(test).parameters, (experiment.bench, name)


# ----------------------------------------------------------------------
# The import guard: nothing in src/ exists only for its own test. Its
# function-level twin is the call audit, which tests/golden/manifest.py
# runs over its entries for the roots (tests/reach/check_executed.py);
# both read their roots from tests/reach/roots.py.

# Modules no runnable root imports, each for a stated reason.
UNREACHED_ON_PURPOSE = {
    # Read by repro/__init__.py, which the walk resolves names through
    # but does not execute.
    "repro._version",
    # The index itself: this file's root set comes from it, and it is
    # the package-data form of DESIGN.md's per-experiment table.
    "repro.experiments",
}


def _module_file(module):
    base = SRC.joinpath(*module.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _imports_of(path):
    """Every ``(module, name)`` a file imports, function-local ones too;
    ``name`` is None for a plain ``import module``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import, teach the walk"
            for alias in node.names:
                assert alias.name != "*", f"{path}: star import, teach the walk"
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None


def _defining_modules(module, name):
    """The non-package modules ``from module import name`` lands in: a
    package's ``__init__`` is looked through to the file that defines
    ``name``, never counted as importing everything it re-exports."""
    path = _module_file(module) if module.split(".")[0] == "repro" else None
    if path is None:
        return
    if name is not None and _module_file(f"{module}.{name}") is not None:
        yield from _defining_modules(f"{module}.{name}", None)
    elif path.name != "__init__.py":
        yield module
    elif name is not None:
        for origin, imported in _imports_of(path):
            if imported == name:
                yield from _defining_modules(origin, name)


def _reached_from(roots):
    seen, todo = set(), list(roots)
    while todo:
        for module, name in _imports_of(todo.pop()):
            for target in _defining_modules(module, name):
                if target not in seen:
                    seen.add(target)
                    todo.append(_module_file(target))
    return seen


def _kept_spawn_handles(path):
    """Lines where ``path`` keeps a process handle: a ``.spawn(...)``
    result assigned to ``self.<attr>`` or ``self.<attr>[...]``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "spawn"
        ):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield node.lineno


def test_background_loops_are_owned_by_their_endpoint():
    """A node's loops live and die with its endpoint
    (``Endpoint.spawn``), so no other class keeps a process handle for
    one — a kept handle is a crash path that has to remember it."""
    kept = [
        f"{path.relative_to(SRC / 'repro')}:{line}"
        for path in sorted(SRC.glob("repro/**/*.py"))
        if path != SRC / "repro" / "net" / "rpc.py"
        for line in _kept_spawn_handles(path)
    ]
    assert not kept, f"process handles kept outside Endpoint: {kept}"


#: Packages that may ask the fabric whether a node is up: the fabric
#: itself and the chaos driver that breaks it. ``repro.dynamo`` still
#: peeks in a client's preference walk, hint delivery and the push round
#: (ROADMAP item 5); its allowance goes when that item lands.
MAY_READ_THE_FABRIC = ("net", "chaos", "dynamo")


def test_no_protocol_reads_the_fabrics_ground_truth():
    """§2: a node cannot tell a slow peer from a dead one, so no
    protocol calls ``is_attached(...)`` or ``.reachable(...)``: it learns
    of a peer from its own traffic."""
    peeks = [
        f"{path.relative_to(SRC / 'repro')}:{node.lineno}"
        for path in sorted(SRC.glob("repro/**/*.py"))
        if path.relative_to(SRC / "repro").parts[0] not in MAY_READ_THE_FABRIC
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("is_attached", "reachable")
    ]
    assert not peeks, f"fabric reads outside net/chaos/dynamo: {peeks}"


def test_every_module_is_reached_from_something_that_runs():
    """Walk imports from everything that *runs* the system — the indexed
    benches, ``bench/``, the examples and the chaos CLI. A module none
    of them reaches reproduces no claim; delete it, or give it a caller."""
    reached = _reached_from(import_roots()) | {CLI}
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in SRC.glob("repro/**/*.py")
        if path.name != "__init__.py"
    }
    assert reached <= modules, sorted(reached - modules)
    unreached = modules - reached
    orphans = sorted(unreached - UNREACHED_ON_PURPOSE)
    assert not orphans, f"no runnable root imports {orphans}"
    assert UNREACHED_ON_PURPOSE <= unreached, "stale allow-list entry"
