"""Repo-wide pytest configuration: a per-test wall-clock cap, and a
derandomised Hypothesis profile.

A deterministic simulator's failure mode for a bug in event wiring is an
infinite event loop — the suite hangs instead of failing. The cap turns
a hang into a loud failure. When the ``pytest-timeout`` plugin is
installed it owns the job (configured via ``timeout`` in pyproject);
otherwise this shim enforces the same ``timeout`` ini value with
``SIGALRM`` on platforms that have it, and stays out of the way
everywhere else.

The property suite is made as reproducible as the simulator it tests:
under the ``repro`` profile Hypothesis derives its examples from each
test's own source, not from a fresh seed per run, and keeps no example
database — a property that is false fails on every run or on none.
"""

import signal

import pytest

try:
    import pytest_timeout  # noqa: F401
    _HAVE_PLUGIN = True
except ImportError:
    _HAVE_PLUGIN = False

_HAVE_SIGALRM = hasattr(signal, "SIGALRM")

try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # only the property tests need it
    pass
else:
    _hypothesis_settings.register_profile("repro", derandomize=True, database=None)
    _hypothesis_settings.load_profile("repro")


def pytest_addoption(parser):
    if _HAVE_PLUGIN:
        return  # the real plugin registers the ini option itself
    parser.addini(
        "timeout",
        "per-test wall-clock cap in seconds (SIGALRM fallback shim)",
        default="0",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if _HAVE_PLUGIN or not _HAVE_SIGALRM:
        return (yield)
    try:
        seconds = float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        seconds = 0.0
    if seconds <= 0:
        return (yield)

    def on_alarm(_signum, _frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {seconds:g}s per-test cap"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
