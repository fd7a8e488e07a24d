"""Suite-wide fixtures and the per-test timeout fallback.

Socket-level fault-injection tests can hang forever on a blocking read if
a bug slips into the framing code; ``@pytest.mark.timeout(seconds)``
bounds them.  When the ``pytest-timeout`` plugin is installed it owns the
marker; otherwise this conftest enforces it with a SIGALRM timer (main
thread, POSIX -- a no-op on platforms without SIGALRM).  The default for
bare ``@pytest.mark.timeout`` markers comes from ``fault_test_timeout``
in ``pyproject.toml``.

Also home of :func:`reference_frame`, the in-process conformance
reference every byte-identity test compares the server's wire bytes to.
"""

import signal

import pytest

from repro.core.pdistance import PDistanceMap
from repro.observability import NULL_TELEMETRY
from repro.portal import protocol
from repro.portal.dispatch import PortalDispatcher


def reference_frame(itracker, message):
    """The frame a portal must answer ``message`` with, given ``itracker``.

    A bare :class:`PortalDispatcher` has no transport, no view publisher,
    no memo and no splice: its view handlers recompute from the iTracker
    and the result is a plain ``dict`` put through plain ``encode_json``.
    That is the whole of what the deleted threaded server's handler did
    per frame, so this is the reference it used to be.
    """
    dispatcher = PortalDispatcher(itracker, telemetry=NULL_TELEMETRY)
    return protocol.encode_frame(dispatcher.dispatch(message))


def view_of(pids, distances):
    """The :class:`PDistanceMap` over ``pids`` holding ``{(src, dst): value}``."""
    return PDistanceMap.from_entries(
        pids, [(src, dst, value) for (src, dst), value in distances.items()]
    )


def view_pairs(view):
    """``{(src, dst): value}`` of a view's given pairs, in external-view order."""
    return {(src, dst): value for src, dst, value in view.entries()}


def pytest_addoption(parser):
    parser.addini(
        "fault_test_timeout",
        "default seconds for @pytest.mark.timeout tests without an argument",
        default="30",
    )


def _marker_seconds(item):
    marker = item.get_closest_marker("timeout")
    if marker is None:
        return None
    if marker.args:
        return float(marker.args[0])
    return float(item.config.getini("fault_test_timeout"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    seconds = _marker_seconds(item)
    if (
        seconds is None
        or item.config.pluginmanager.hasplugin("timeout")
        or not hasattr(signal, "SIGALRM")
    ):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(f"test exceeded {seconds:g}s timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
