"""List every ``def`` in ``src/repro`` that no root calls, and hold the
list to ``unexecuted.txt``.

    python tests/reach/check_executed.py

Each root in ``roots.py`` runs in a subprocess of its own under a
``sys.setprofile`` hook that records the ``(co_filename,
co_firstlineno)`` of every ``src/repro`` function entered. A ``def`` no
root entered must be listed in ``unexecuted.txt``, one line each::

    src/repro/path.py:Qualname  category  reason

with ``category`` one of :data:`CATEGORIES`. Dunders, ``@property``
accessors and bodies that are only ``...``, ``pass`` or ``raise
NotImplementedError`` are exempt. Exits 1 naming every def that no root
calls and the list leaves out, every listed def that a root now calls or
that no longer exists, every entry with an unknown category or no
reason, and every root that fails. Needs the ``pytest`` (with
``pytest-benchmark``) the benches run under; nothing else outside the
standard library.
"""

import ast
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
LISTED = Path(__file__).with_name("unexecuted.txt")

#: Why a def no root calls may stay in ``src/``.
CATEGORIES = {
    # Error or fault handling, input validation, or a protocol-safety
    # rule the roots' faults do not happen to trigger.
    "safety",
    # A property or differential test compares production code against it.
    "reference",
    # Reads state, changes nothing, and a test or invariant reads through it.
    "observer",
    # Used in one of README's ```python blocks or named in
    # patterns/catalog.py's implemented_by.
    "taught",
    # ROADMAP names it and the item that will call it.
    "parked",
}


# ----------------------------------------------------------------------
# The defs under audit


def _is_stub(body):
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # the docstring
    if len(body) != 1:
        return not body
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _is_accessor(node):
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            return True
        if isinstance(decorator, ast.Attribute) and \
                decorator.attr in ("setter", "getter", "deleter"):
            return True
    return False


def _exempt(node):
    name = node.name
    return (name.startswith("__") and name.endswith("__")) or \
        _is_accessor(node) or _is_stub(node.body)


def audited_defs():
    """``{"src/repro/…py:Qualname": (absolute path, co_firstlineno)}`` for
    every def that is not exempt. ``co_firstlineno`` is the first
    decorator's line when there is one, as the interpreter counts it."""
    found = {}
    for path in sorted(SRC.glob("repro/**/*.py")):
        relative = path.relative_to(REPO).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    if not _exempt(child):
                        line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        found[f"{relative}:{qualname}"] = (str(path), line)
                    visit(child, f"{qualname}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def read_list(path=LISTED):
    """``[(line number, "path:Qualname", category, reason)]`` from the
    checked-in list; blank lines and ``#`` comments are skipped."""
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(None, 2)
        parts += [""] * (3 - len(parts))
        entries.append((number, *parts))
    return entries


# ----------------------------------------------------------------------
# One root, in a child process


def _run_traced(out, argv):
    """Run ``argv`` (``-m module …`` or ``script.py …``) as ``python``
    would, recording every ``src/repro`` code object entered, then write
    their ``filename:firstlineno`` to ``out``."""
    codes = {}

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    module = argv[1] if argv[0] == "-m" else None
    if module is not None:
        sys.argv = argv[1:]
        sys.path[0] = os.getcwd()
    else:
        sys.argv = list(argv)
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
    status = 0
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if module is not None:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = str(SRC / "repro") + os.sep
        with open(out, "w") as handle:
            for code in codes.values():
                if code.co_filename.startswith(prefix):
                    handle.write(f"{code.co_filename}:{code.co_firstlineno}\n")
    if status is None:  # sys.exit() with no argument
        return 0
    return status if isinstance(status, int) else 1


def _entered(commands):
    """Run every root; return the ``(filename, firstlineno)`` they entered
    and the labels of the roots that failed."""
    entered, failed = set(), []
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as tmp:
        for index, (label, argv) in enumerate(commands):
            out = os.path.join(tmp, f"{index}.calls")
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, __file__, "--traced", out, *argv],
                cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            print(f"  {label}: exit {done.returncode}, "
                  f"{time.perf_counter() - started:.1f} s", flush=True)
            if done.returncode != 0 or not os.path.exists(out):
                failed.append(label)
                sys.stderr.write(done.stderr[-2000:])
                continue
            with open(out) as handle:
                for line in handle:
                    filename, _, first = line.rstrip("\n").rpartition(":")
                    entered.add((filename, int(first)))
    return entered, failed


def audit(uncalled, defs, entries):
    """The complaints, one line each, comparing the defs no root called
    with the list; an empty list means the list is exact."""
    complaints = []
    listed = set()
    for number, key, category, reason in entries:
        where = f"unexecuted.txt:{number}: {key}"
        if key in listed:
            complaints.append(f"{where}: listed twice")
        listed.add(key)
        if category not in CATEGORIES:
            complaints.append(f"{where}: unknown category {category!r} "
                              f"(have {sorted(CATEGORIES)})")
        if not reason.strip():
            complaints.append(f"{where}: no reason")
        if key not in defs:
            complaints.append(f"{where}: no such def")
        elif key not in uncalled:
            complaints.append(f"{where}: a root calls it now; drop the entry")
    for key in sorted(uncalled - listed):
        complaints.append(f"{key}: no root calls it and unexecuted.txt does "
                          "not list it; delete it, or list it with a category")
    return complaints


def main(argv):
    if len(argv) > 2 and argv[1] == "--traced":
        return _run_traced(argv[2], argv[3:])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(REPO)]
    from tests.reach.roots import commands

    started = time.perf_counter()
    entered, failed = _entered(list(commands()))
    defs = audited_defs()
    uncalled = {key for key, where in defs.items() if where not in entered}
    complaints = [f"root failed: {label}" for label in failed]
    if not failed:
        complaints += audit(uncalled, defs, read_list())
    for line in complaints:
        print(line)
    print(f"{len(defs)} defs audited, {len(uncalled)} called by no root, "
          f"{len(complaints)} complaints ({time.perf_counter() - started:.0f} s)")
    return 1 if complaints else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
