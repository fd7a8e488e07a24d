"""Overhead budget for the telemetry-instrumented dispatch path.

The whole point of ``repro.observability`` is that instrumentation is
cheap enough to leave on: ``PortalDispatcher.dispatch`` with a live
:class:`~repro.observability.telemetry.Telemetry` bundle must stay within
10% of the same dispatch wired to ``NULL_TELEMETRY`` (every instrument a
no-op).  Measured on the bare, transport-free dispatcher -- no sockets,
the view recomputed per request -- so the comparison isolates exactly
the registry work.
"""

import time

import pytest

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.network.library import abilene
from repro.observability import NULL_TELEMETRY, Telemetry
from repro.portal.dispatch import PortalDispatcher


def _build_server(telemetry):
    tracker = ITracker(
        topology=abilene(), config=ITrackerConfig(mode=PriceMode.HOP_COUNT)
    )
    tracker.telemetry = telemetry
    return PortalDispatcher(tracker, telemetry=telemetry)


def _time_dispatch(server, message, calls, trials):
    """Best-of-``trials`` wall time for ``calls`` dispatches (min is the
    standard noise-robust estimator for microbenchmarks)."""
    dispatch = server.dispatch
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(calls):
            dispatch(message)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.perf
def test_instrumented_dispatch_overhead_under_10_percent():
    message = {"method": "get_pdistances", "params": {}}
    calls, trials = 300, 7
    null_server = _build_server(NULL_TELEMETRY)
    real_server = _build_server(Telemetry())
    for server in (null_server, real_server):  # warm caches / JIT-free
        _time_dispatch(server, message, calls, 1)
    null_t = _time_dispatch(null_server, message, calls, trials)
    real_t = _time_dispatch(real_server, message, calls, trials)
    overhead = real_t / null_t - 1.0
    print(
        f"\n  dispatch x{calls}: null={null_t * 1e3:.2f}ms "
        f"real={real_t * 1e3:.2f}ms overhead={overhead * 100:+.2f}%"
    )
    assert overhead < 0.10, (
        f"instrumented dispatch {overhead * 100:.1f}% slower than no-op "
        f"registry (budget: 10%)"
    )


@pytest.mark.perf
def test_null_registry_costs_nothing_measurable():
    """The disable path: NULL_TELEMETRY instrument calls are plain no-ops,
    so a labels().inc() round trip must run in well under a microsecond."""
    counter = NULL_TELEMETRY.registry.counter("x_total", "", ("m",))
    n = 100_000
    start = time.perf_counter()
    for _ in range(n):
        counter.labels(m="a").inc()
    per_call = (time.perf_counter() - start) / n
    print(f"\n  null labels().inc(): {per_call * 1e9:.0f}ns/call")
    assert per_call < 1e-6
