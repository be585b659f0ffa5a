"""The call audit's ``sys.monitoring`` recorder, on a package of its own.

CPython 3.12 or later (the recorder needs ``sys.monitoring``). The
package below is written to a temporary ``src/sample``; a
:class:`CallRecorder` over it sees what a root's calls would show.
"""

import functools
import importlib
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

from tests.reach.check_executed import CallRecorder

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "monitoring"), reason="the recorder needs sys.monitoring (3.12+)")

SAMPLE = '''
from dataclasses import dataclass


def rebinds(n=3):
    yield n
    n = 7
    yield n


def scaled(x, factor=2.0):
    return x * factor


def plain(x):
    return x


@dataclass
class Base:
    x: int = 1


@dataclass
class Child(Base):
    y: int = 2
'''


@functools.lru_cache(maxsize=None)
def _sample():
    """``(the module, its package directory)``, written and imported once."""
    package = Path(tempfile.mkdtemp()) / "src" / "sample"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(SAMPLE))
    sys.path.insert(0, str(package.parent))
    return importlib.import_module("sample.mod"), package


def _recorded(run):
    """The recorder over the sample package, open while ``run()`` runs."""
    module, package = _sample()
    recorder = CallRecorder(package)
    recorder.open()
    try:
        run(module)
    finally:
        recorder.close()
    return recorder


def _where(function):
    code = function.__code__
    return code.co_filename, code.co_firstlineno


def test_a_parameter_rebound_after_the_first_yield_is_not_set():
    recorder = _recorded(lambda m: list(m.rebinds()))
    module, _package = _sample()
    assert _where(module.rebinds) in recorder.entered
    assert recorder.seen == {"src/sample/mod.py:rebinds(n)"}
    assert recorder.set == set()


def test_an_int_for_a_float_default_is_set():
    recorder = _recorded(lambda m: m.scaled(1, 2))
    assert recorder.set == {"src/sample/mod.py:scaled(factor)"}
    assert not _recorded(lambda m: m.scaled(1, 2.0)).set


def test_a_disabled_code_object_is_seen_no_more():
    seen = []

    class Counting(CallRecorder):
        def _start(self, code, offset):
            seen.append(code.co_name)
            return super()._start(code, offset)

    module, package = _sample()
    recorder = Counting(package)
    recorder.open()
    try:
        for _ in range(3):
            module.plain(1)            # nothing to strike: disabled at once
            module.scaled(1, 3.0)      # struck on the first call, then disabled
    finally:
        recorder.close()
    assert seen.count("plain") == seen.count("scaled") == 1


def test_a_field_passed_through_a_subclass_is_credited_to_its_declarer():
    recorder = _recorded(lambda m: m.Child(x=5))
    assert recorder.seen == {"src/sample/mod.py:Base(x)", "src/sample/mod.py:Child(y)"}
    assert recorder.set == {"src/sample/mod.py:Base(x)"}


def test_a_generated_init_outside_the_package_is_ignored():
    from dataclasses import dataclass

    @dataclass
    class Elsewhere:
        z: int = 0

    recorder = _recorded(lambda _m: Elsewhere(z=1))
    assert recorder.seen == recorder.set == set()


def test_a_taken_tool_id_fails_loudly():
    _module, package = _sample()
    recorder = CallRecorder(package)
    recorder.open()
    try:
        with pytest.raises(RuntimeError, match="taken"):
            CallRecorder(package).open()
    finally:
        recorder.close()
