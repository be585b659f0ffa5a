"""List every ``def`` in ``src/repro`` that no root calls, and every
defaulted parameter no root sets, and hold both lists to
``unexecuted.txt``.

    python tests/reach/check_executed.py

Each root in ``roots.py`` runs in a subprocess of its own under a
``sys.setprofile`` hook that records the ``(co_filename,
co_firstlineno)`` of every ``src/repro`` function entered and, for one
with defaulted parameters, which of them some call passed a value other
than the default: neither the default object nor an equal value of the
same type. A ``def`` no root entered, and a defaulted parameter of an
entered ``def`` that no root set, must be listed in ``unexecuted.txt``,
one line each::

    src/repro/path.py:Qualname  category  reason
    src/repro/path.py:Qualname(param)  category  reason

with ``category`` one of :data:`CATEGORIES` for a def and of
:data:`PARAM_CATEGORIES` for a parameter. Dunders, ``@property``
accessors and bodies that are only ``...``, ``pass`` or ``raise
NotImplementedError`` are exempt as defs; a dunder's parameters are
audited, a stub's are not, and neither is ``main(argv=None)``. The
parameters of a def no root enters are covered by the def's own entry.
Exits 1 naming every def or parameter the list leaves out, every listed
one a root now calls or sets or that no longer exists, every entry with
an unknown category or no reason, and every root that fails. Needs the
``pytest`` (with ``pytest-benchmark``) the benches run under; nothing
else outside the standard library.
"""

import ast
import dis
import gc
import inspect
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
import types
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

#: Why a defaulted parameter no root sets may stay a parameter rather
#: than become the constant it always is.
PARAM_CATEGORIES = {
    # One of README's ```python blocks passes a value other than the default.
    "taught",
    # Code that may not change (bench/, the frozen reference process)
    # passes it by keyword, or a behaviour-manifest entry outside the roots
    # sets it.
    "pinned",
    # A runaway guard, or set only by a def this list files under safety.
    "safety",
    # ROADMAP names the item that will set it.
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


def _defaulted(node):
    """The names of ``node``'s parameters that have a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    names = [arg.arg for arg in positional[len(positional) - len(args.defaults):]]
    names += [arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    if node.name == "main":
        names = [name for name in names if name != "argv"]
    return names


def _walk_defs():
    """``(relative path, absolute path, qualname, node, co_firstlineno)``
    for every def under ``src/repro``. ``co_firstlineno`` is the first
    decorator's line when there is one, as the interpreter counts it."""
    for path in sorted(SRC.glob("repro/**/*.py")):
        relative = path.relative_to(REPO).as_posix()
        stack = [(ast.parse(path.read_text()), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield relative, str(path), qualname, child, line
                    stack.append((child, f"{qualname}.<locals>."))
                else:
                    stack.append((child, prefix))


def audited_defs():
    """``{"src/repro/…py:Qualname": (absolute path, co_firstlineno)}`` for
    every def that is not exempt."""
    return {f"{relative}:{qualname}": (path, line)
            for relative, path, qualname, node, line in _walk_defs()
            if not _exempt(node)}


def audited_params():
    """``{"src/repro/…py:Qualname(param)": (absolute path, co_firstlineno,
    param)}`` for every defaulted parameter of a def that is not a stub."""
    return {f"{relative}:{qualname}({name})": (path, line, name)
            for relative, path, qualname, node, line in _walk_defs()
            if not _is_stub(node.body)
            for name in _defaulted(node)}


def read_list(path=LISTED):
    """``[(line number, "path:Qualname" or "path:Qualname(param)",
    category, reason)]`` from the checked-in list; blank lines and ``#``
    comments are skipped."""
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


_SUSPENDS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


def _function_of(frame):
    """The function object whose call ``frame`` is: found through the
    qualname from the module's globals, else among the code's referrers
    (a nested def, or an interpreter without ``co_qualname``)."""
    code = frame.f_code
    qualname = getattr(code, "co_qualname", "<locals>")
    if "<locals>" not in qualname:
        parts = qualname.split(".")
        found = frame.f_globals.get(parts[0])
        for part in parts[1:]:
            found = getattr(found, "__dict__", {}).get(part)
        found = getattr(found, "__func__", found)  # staticmethod, classmethod
        while found is not None and getattr(found, "__code__", None) is not code:
            found = getattr(found, "__wrapped__", None)
        if found is not None:
            return found
    for referrer in gc.get_referrers(code):
        if isinstance(referrer, types.FunctionType) and referrer.__code__ is code:
            return referrer
    return None


def _watch(frame):
    """``[last offset of the entry, {param: default}]`` for a ``src/repro``
    function with defaulted parameters, else ``None``. A generator's
    ``call`` event also fires on every resume, after its body may have
    rebound a parameter, so only the event at its first ``RESUME``
    (offset -1 before 3.11) reads the arguments."""
    function = _function_of(frame)
    if function is None:
        return None
    code = function.__code__
    positional = code.co_varnames[:code.co_argcount]
    defaults = function.__defaults__ or ()
    pending = dict(zip(positional[len(positional) - len(defaults):], defaults))
    pending.update(function.__kwdefaults__ or {})
    if not pending:
        return None
    entry = sys.maxsize
    if code.co_flags & _SUSPENDS:
        entry = next((op.offset for op in dis.get_instructions(code)
                      if op.opname == "RESUME"), -1)
    return [entry, pending]


def _is_default(value, default):
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:
        return False


def _run_traced(out, argv):
    """Run ``argv`` (``-m module …`` or ``script.py …``) as ``python``
    would, recording every ``src/repro`` code object entered and which of
    its defaulted parameters any call set, then write one line per code
    to ``out``: ``filename:firstlineno``, a tab, the set parameters."""
    prefix = str(SRC / "repro") + os.sep
    codes, watched, set_params = {}, {}, {}
    unseen = object()

    def hook(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        key = id(code)
        watch = watched.get(key, unseen)
        if watch is unseen:
            codes[key] = code
            watch = watched[key] = (
                _watch(frame) if code.co_filename.startswith(prefix) else None)
        if watch is None or frame.f_lasti > watch[0]:
            return
        pending = watch[1]
        values = frame.f_locals
        for name in [name for name, default in pending.items()
                     if not _is_default(values.get(name, default), default)]:
            del pending[name]
            set_params.setdefault(key, []).append(name)
        if not pending:
            watched[key] = None

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
        with open(out, "w") as handle:
            for key, code in codes.items():
                if code.co_filename.startswith(prefix):
                    handle.write(f"{code.co_filename}:{code.co_firstlineno}\t"
                                 f"{' '.join(sorted(set_params.get(key, ())))}\n")
    if status is None:  # sys.exit() with no argument
        return 0
    return status if isinstance(status, int) else 1


def _entered(commands):
    """Run every root; return ``{(filename, firstlineno): parameters set}``
    for every function they entered, and the labels of the roots that
    failed."""
    entered, failed = {}, []
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
                    where, _, names = line.rstrip("\n").partition("\t")
                    filename, _, first = where.rpartition(":")
                    entered.setdefault((filename, int(first)), set()).update(names.split())
    return entered, failed


def never_set(entered, params):
    """The audited parameters of entered defs that no root set."""
    return {key for key, (path, line, name) in params.items()
            if (path, line) in entered and name not in entered[(path, line)]}


def audit(uncalled, defs, unset, params, entries):
    """The complaints, one line each, comparing the defs no root called
    and the parameters no root set with the list; an empty list means the
    list is exact."""
    complaints = []
    listed = set()
    for number, key, category, reason in entries:
        where = f"unexecuted.txt:{number}: {key}"
        if key in listed:
            complaints.append(f"{where}: listed twice")
        listed.add(key)
        is_param = key.endswith(")")
        known = PARAM_CATEGORIES if is_param else CATEGORIES
        if category not in known:
            complaints.append(f"{where}: unknown category {category!r} "
                              f"(have {sorted(known)})")
        if not reason.strip():
            complaints.append(f"{where}: no reason")
        if is_param:
            if key not in params:
                complaints.append(f"{where}: no such parameter")
            elif key not in unset:
                complaints.append(f"{where}: a root sets it now, or enters its def "
                                  "no more; drop the entry")
        elif key not in defs:
            complaints.append(f"{where}: no such def")
        elif key not in uncalled:
            complaints.append(f"{where}: a root calls it now; drop the entry")
    for key in sorted(uncalled - listed):
        complaints.append(f"{key}: no root calls it and unexecuted.txt does "
                          "not list it; delete it, or list it with a category")
    for key in sorted(unset - listed):
        complaints.append(f"{key}: no root sets it and unexecuted.txt does not "
                          "list it; make it a constant, or list it with a category")
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
    defs, params = audited_defs(), audited_params()
    uncalled = {key for key, where in defs.items() if where not in entered}
    unset = never_set(entered, params)
    complaints = [f"root failed: {label}" for label in failed]
    if not failed:
        complaints += audit(uncalled, defs, unset, params, read_list())
    for line in complaints:
        print(line)
    print(f"{len(defs)} defs audited, {len(uncalled)} called by no root; "
          f"{len(params)} defaulted parameters, {len(unset)} never set; "
          f"{len(complaints)} complaints ({time.perf_counter() - started:.0f} s)")
    return 1 if complaints else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
