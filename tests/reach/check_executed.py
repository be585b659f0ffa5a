"""The call audit: every ``def`` in ``src/repro`` that no root calls, and
every defaulted parameter or dataclass field no root sets, is listed in
``unexecuted.txt``.

``python tests/golden/manifest.py`` is the run. On CPython 3.12 or later
it opens a :class:`CallRecorder` before it imports the roots' modules,
closes it once the roots have run, and holds what it saw to the list with
:func:`report`. A ``def`` no root entered, a defaulted parameter of an
entered ``def``, and a defaulted field of a constructed ``src/repro``
dataclass, that no root set (passed neither the default object nor an
equal value of the same type) are each listed, one line each::

    src/repro/path.py:Qualname  category  reason
    src/repro/path.py:Qualname(param)  category  reason
    src/repro/path.py:Class(field)  category  reason

with ``category`` one of :data:`CATEGORIES` for a def and of
:data:`PARAM_CATEGORIES` for a parameter or a field. Dunders,
``@property`` accessors and bodies that are only ``...``, ``pass`` or
``raise NotImplementedError`` are exempt as defs; a dunder's parameters
are audited, a stub's are not, and neither is ``main(argv=None)``. The
parameters of a def no root enters are covered by the def's own entry. A
field is keyed by the class that declares it, whichever generated
``__init__`` passed it. The static half here (the list, the defs, the
parameters and the fields) is stdlib only, and so is the recorder.
"""

import ast
import gc
import os
import sys
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

#: Why a defaulted parameter or field no root sets may stay one rather
#: than become the constant it always is.
PARAM_CATEGORIES = {
    # One of README's ```python blocks passes a value other than the default.
    "taught",
    # Code that may not change (bench/, the frozen reference process)
    # passes it by keyword, a behaviour-manifest entry outside the roots
    # sets it, or removing it would move a pinned byte.
    "pinned",
    # A runaway guard, or set only by a def this list files under safety.
    "safety",
    # ROADMAP names the item that will set it.
    "parked",
}


# ----------------------------------------------------------------------
# The defs, parameters and fields under audit


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


def _init_fields(node):
    """The defaulted ``__init__`` fields a dataclass ``node`` declares."""
    if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
        return []
    names = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and "ClassVar" not in ast.unparse(stmt.annotation):
            value = ast.unparse(stmt.value)
            if not value.startswith("field(") or (
                    "default" in value and "init=False" not in value):
                names.append(stmt.target.id)
    return names


def _walk():
    """``(relative path, absolute path, qualname, node, co_firstlineno)``
    for every def and class under ``src/repro``. ``co_firstlineno`` is the
    first decorator's line when there is one, as the interpreter counts it."""
    for path in sorted(SRC.glob("repro/**/*.py")):
        relative = path.relative_to(REPO).as_posix()
        stack = [(ast.parse(path.read_text()), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield relative, str(path), qualname, child, line
                    inner = "." if isinstance(child, ast.ClassDef) else ".<locals>."
                    stack.append((child, f"{qualname}{inner}"))
                else:
                    stack.append((child, prefix))


def audited_defs():
    """``{"src/repro/…py:Qualname": (absolute path, co_firstlineno)}`` for
    every def that is not exempt."""
    return {f"{relative}:{qualname}": (path, line)
            for relative, path, qualname, node, line in _walk()
            if not isinstance(node, ast.ClassDef) and not _exempt(node)}


def audited_params():
    """``{"src/repro/…py:Qualname(param)"}``: every defaulted parameter of
    a def that is not a stub."""
    return {f"{relative}:{qualname}({name})"
            for relative, _path, qualname, node, _line in _walk()
            if not isinstance(node, ast.ClassDef) and not _is_stub(node.body)
            for name in _defaulted(node)}


def audited_fields():
    """``{"src/repro/…py:Class(field)"}``: every defaulted ``__init__``
    field a ``src/repro`` dataclass declares."""
    return {f"{relative}:{qualname}({name})"
            for relative, _path, qualname, node, _line in _walk()
            if isinstance(node, ast.ClassDef)
            for name in _init_fields(node)}


def read_list(path=LISTED):
    """``[(line number, "path:Qualname", "path:Qualname(param)" or
    "path:Class(field)", category, reason)]`` from the checked-in list;
    blank lines and ``#`` comments are skipped."""
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(None, 2)
        parts += [""] * (3 - len(parts))
        entries.append((number, *parts))
    return entries


# ----------------------------------------------------------------------
# The recorder


def _function_of(frame):
    """The function object whose call ``frame`` is: found through the
    qualname from the module's globals, else among the code's referrers
    (a nested def)."""
    code = frame.f_code
    if "<locals>" not in code.co_qualname:
        parts = code.co_qualname.split(".")
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


def _defaults(function):
    """``{param: default}`` for ``function``'s defaulted parameters."""
    code = function.__code__
    positional = code.co_varnames[:code.co_argcount]
    defaults = function.__defaults__ or ()
    pending = dict(zip(positional[len(positional) - len(defaults):], defaults))
    pending.update(function.__kwdefaults__ or {})
    return pending


def _is_default(value, default):
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:
        return False


class CallRecorder:
    """While open, a ``sys.monitoring`` (CPython ≥ 3.12) ``PY_START`` tool
    under ``COVERAGE_ID`` records every function of ``package`` started,
    and every defaulted parameter of one, or defaulted field of one of the
    package's dataclasses (through a generated ``__init__``), that a call
    reached and that a call set, as ``path:Qualname(param)`` or
    ``path:Class(field)``. A code object with nothing left to strike is
    ``DISABLE``d, so it costs nothing more. ``PY_START`` fires once per
    call, not on a generator's resumes, so it reads arguments before the
    body can rebind them."""

    def __init__(self, package=SRC / "repro"):
        self.entered = set()     # (co_filename, co_firstlineno)
        self.seen = set()        # parameter and field keys
        self.set = set()
        self._watched = {}       # code -> {name: (default, key)}
        self._prefix = str(package) + os.sep
        self._root = package.parents[1]

    def open(self):
        monitoring = sys.monitoring
        tool = monitoring.COVERAGE_ID
        if monitoring.get_tool(tool) is not None:
            raise RuntimeError(f"sys.monitoring tool {tool} is taken by "
                               f"{monitoring.get_tool(tool)!r}; the call audit needs it")
        monitoring.use_tool_id(tool, "call audit")
        monitoring.restart_events()  # what an earlier tool DISABLEd
        monitoring.register_callback(tool, monitoring.events.PY_START, self._start)
        monitoring.set_events(tool, monitoring.events.PY_START)
        return self

    def close(self):
        monitoring = sys.monitoring
        monitoring.set_events(monitoring.COVERAGE_ID, 0)
        monitoring.register_callback(monitoring.COVERAGE_ID, monitoring.events.PY_START, None)
        monitoring.free_tool_id(monitoring.COVERAGE_ID)

    def _key(self, filename, qualname, name):
        return f"{Path(filename).relative_to(self._root).as_posix()}:{qualname}({name})"

    def _watch(self, code, frame):
        """``{name: (default, key)}`` to watch for ``code``."""
        watch = {}
        if code.co_filename.startswith(self._prefix):
            self.entered.add((code.co_filename, code.co_firstlineno))
            function = _function_of(frame)
            for name, default in (_defaults(function) if function else {}).items():
                watch[name] = (default, self._key(code.co_filename, code.co_qualname, name))
        elif code.co_filename == "<string>" and code.co_name == "__init__":
            # A dataclass's generated __init__: its class is the one in the
            # instance's MRO that owns it; a field is keyed by its declarer.
            mro = type(frame.f_locals[code.co_varnames[0]]).__mro__
            owner = next((cls for cls in mro if getattr(
                cls.__dict__.get("__init__"), "__code__", None) is code), None)
            for name, default in (_defaults(owner.__init__) if owner else {}).items():
                declarer = next(cls for cls in owner.__mro__
                                if name in cls.__dict__.get("__annotations__", {}))
                module = getattr(sys.modules.get(declarer.__module__), "__file__", "")
                if module.startswith(self._prefix):
                    watch[name] = (default, self._key(module, declarer.__qualname__, name))
        self.seen.update(key for _default, key in watch.values())
        return watch

    def _start(self, code, _offset):
        frame = sys._getframe(1)
        watch = self._watched.get(code)
        if watch is None:
            watch = self._watched[code] = self._watch(code, frame)
        if watch:
            values = frame.f_locals
            for name, (default, key) in list(watch.items()):
                if not _is_default(values.get(name, default), default):
                    del watch[name]
                    self.set.add(key)
        if not watch:
            return sys.monitoring.DISABLE
        return None


# ----------------------------------------------------------------------
# The report


def audit(uncalled, defs, unset, params, entries):
    """The complaints, one line each, comparing the defs no root called
    and the parameters and fields no root set with the list; an empty list
    means the list is exact. ``params`` holds every audited parameter and
    field."""
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
                complaints.append(f"{where}: no such parameter or field")
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


def report(recorder):
    """The complaints for what ``recorder`` saw, and a last line of counts."""
    defs, params, fields = audited_defs(), audited_params(), audited_fields()
    uncalled = {key for key, where in defs.items() if where not in recorder.entered}
    audited = params | fields
    unset = (recorder.seen - recorder.set) & audited
    complaints = audit(uncalled, defs, unset, audited, read_list())
    return complaints, (
        f"{len(defs)} defs audited, {len(uncalled)} called by no root; "
        f"{len(params)} defaulted parameters, {len(unset & params)} never set; "
        f"{len(fields)} defaulted fields, {len(recorder.seen & fields)} "
        f"constructed, {len(unset & fields)} never set")
