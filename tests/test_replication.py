"""Tests for primary/standby replication and health-ranked failover.

Covers the wire method (``get_state_delta``), the standby's WAL-tailing
sync loop with its regression guard and staleness accounting, the
failover client's ranking and fresh-before-stale policy, and the client
reconnect satellite (a portal restart mid-session costs one resend, not
an error).  Socket tests carry ``@pytest.mark.timeout`` per the repo's
fault-testing convention.
"""

import random

import pytest

from repro.apptracker.selection import P4PSelection, PeerInfo
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.network.library import abilene
from repro.observability import Telemetry
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import Integrator, PortalClient, PortalClientError
from repro.portal.faults import FaultyPortal
from repro.portal.replication import FailoverPortalClient, StandbyReplica
from repro.portal.resilience import (
    CircuitBreaker,
    PortalUnavailable,
    ResilientPortalClient,
    RetryPolicy,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_tracker():
    return ITracker(
        topology=abilene(),
        config=ITrackerConfig(mode=PriceMode.DYNAMIC, update_period=5.0),
    )


def bump(tracker, times=1, start=0.0, load=60.0):
    key = next(iter(tracker.topology.links))
    for i in range(times):
        tracker.observe_loads({key: load}, now=start + 5.0 * (i + 1))


def fast_retry():
    return RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, attempt_timeout=2.0)


def make_failover(endpoints, clock, **kwargs):
    kwargs.setdefault("retry", fast_retry())
    kwargs.setdefault("stale_ttl", 30.0)
    kwargs.setdefault("clock", clock)
    kwargs.setdefault("sleep", lambda _d: None)
    kwargs.setdefault(
        "breaker_factory",
        lambda: CircuitBreaker(failure_threshold=2, cooldown=10.0, clock=clock),
    )
    return FailoverPortalClient(endpoints, **kwargs)


@pytest.mark.timeout(30)
class TestStateDeltaWire:
    def test_get_state_delta_over_the_wire(self):
        tracker = make_tracker()
        bump(tracker, times=3)
        with AsyncPortalServer(tracker) as server:
            with PortalClient(*server.address) as client:
                delta = client.get_state_delta(since=-1)
        assert delta["version"] == tracker.version
        assert delta["epoch"] == tracker.epoch
        versions = [record["version"] for record in delta["records"]]
        assert versions == sorted(versions)
        assert versions[-1] == tracker.version
        # Records are self-contained: the newest carries the full vector.
        assert len(delta["records"][-1]["prices"]) == len(tracker.topology.links)

    def test_since_filters_records(self):
        tracker = make_tracker()
        bump(tracker, times=4)
        with AsyncPortalServer(tracker) as server:
            with PortalClient(*server.address) as client:
                delta = client.get_state_delta(since=tracker.version - 1)
        assert [r["version"] for r in delta["records"]] == [tracker.version]

    def test_apply_state_delta_regression_guard(self):
        leader, follower = make_tracker(), make_tracker()
        bump(leader, times=3)
        assert follower.apply_state_delta(leader.state_delta()) is True
        assert follower.version == leader.version
        prices = dict(follower.link_prices)
        # An amnesiac leader (fresh identity, lower version) is ignored.
        amnesiac = make_tracker()
        bump(amnesiac, times=1)
        assert follower.apply_state_delta(amnesiac.state_delta()) is False
        assert follower.version == leader.version
        assert follower.link_prices == prices


@pytest.mark.timeout(30)
class TestStandbyReplica:
    def test_sync_applies_and_tracks_staleness(self):
        clock = FakeClock()
        primary = make_tracker()
        bump(primary, times=2)
        standby = StandbyReplica(make_tracker(), ("127.0.0.1", 0), clock=clock)
        with AsyncPortalServer(primary) as server:
            standby.primary = server.address
            assert standby.staleness() is None  # never synced yet
            assert standby.sync() is True
            assert standby.follower.version == primary.version
            clock.advance(7.0)
            assert standby.staleness() == pytest.approx(7.0)
            standby.close()

    def test_sync_failure_is_swallowed_and_counted(self):
        clock = FakeClock()
        standby = StandbyReplica(make_tracker(), ("127.0.0.1", 1), clock=clock)
        assert standby.sync() is False  # nothing listens on port 1
        assert standby.sync_failures == 1
        assert standby.staleness() is None

    def test_standby_server_advertises_staleness(self):
        clock = FakeClock()
        primary = make_tracker()
        bump(primary, times=2)
        with AsyncPortalServer(primary) as server:
            standby = StandbyReplica(make_tracker(), server.address, clock=clock)
            assert standby.sync()
            clock.advance(3.0)
            with standby.serve() as replica_server:
                with PortalClient(*replica_server.address) as client:
                    info = client.get_version_info()
            standby.close()
        assert info["version"] == primary.version
        assert info["staleness"] == pytest.approx(3.0)
        # The primary's own get_version has no staleness field at all.
        with AsyncPortalServer(primary) as server:
            with PortalClient(*server.address) as client:
                assert "staleness" not in client.get_version_info()


class TestFailoverClientConstruction:
    def test_rejects_empty_endpoints(self):
        with pytest.raises(ValueError):
            FailoverPortalClient([])

    def test_rejects_shared_breaker(self):
        with pytest.raises(ValueError, match="breaker_factory"):
            FailoverPortalClient(
                [("127.0.0.1", 1)], breaker=CircuitBreaker()
            )


@pytest.mark.timeout(60)
class TestFailover:
    def test_partitioned_primary_fails_over_to_standby(self):
        """The acceptance test: primary partitioned -> standby serves a
        *fresh* view with bounded advertised staleness; the selection
        plane sees zero exceptions throughout."""
        clock = FakeClock()
        primary = make_tracker()
        bump(primary, times=3)
        with AsyncPortalServer(primary) as server, FaultyPortal(server.address) as proxy:
            standby = StandbyReplica(make_tracker(), server.address, clock=clock)
            assert standby.sync()
            with standby.serve() as replica_server:
                with make_failover(
                    [proxy.address, replica_server.address], clock
                ) as client:
                    views, health = {}, {}
                    selector = P4PSelection(pdistances=views, portal_health=health)
                    integrator = Integrator()
                    as_number = abilene().node(abilene().aggregation_pids[0]).as_number
                    integrator.add(as_number, client)

                    def refresh():
                        views.clear()
                        views.update(integrator.views())
                        health.clear()
                        health.update(integrator.status_map())

                    refresh()
                    assert health[as_number] == "ok"
                    assert client.active_endpoint == proxy.address

                    proxy.down = True  # the partition
                    clock.advance(5.0)
                    refresh()
                    assert health[as_number] == "ok"  # still fresh -- via standby
                    assert client.active_endpoint == replica_server.address
                    snapshot = client.last_good
                    assert snapshot is not None and not snapshot.stale
                    assert snapshot.origin_staleness is not None
                    assert snapshot.origin_staleness <= clock.now

                    # The selection plane keeps working on the standby's view.
                    peers = [
                        PeerInfo(peer_id=i, pid=pid, as_number=as_number)
                        for i, pid in enumerate(abilene().aggregation_pids[:4])
                    ]
                    chosen = selector.select(peers[0], peers[1:], 2, random.Random(1))
                    assert len(chosen) == 2
                    assert selector.native_fallbacks == 0
                standby.close()

    def test_both_endpoints_down_serves_stale_then_unavailable(self):
        clock = FakeClock()
        primary = make_tracker()
        bump(primary, times=2)
        with AsyncPortalServer(primary) as server, FaultyPortal(server.address) as proxy:
            standby = StandbyReplica(make_tracker(), server.address, clock=clock)
            assert standby.sync()
            with standby.serve() as replica_server:
                standby_proxy = FaultyPortal(replica_server.address)
                with standby_proxy, make_failover(
                    [proxy.address, standby_proxy.address], clock, stale_ttl=20.0
                ) as client:
                    assert not client.get_view().stale
                    proxy.down = True
                    standby_proxy.down = True
                    clock.advance(5.0)
                    snapshot = client.get_view()
                    assert snapshot.stale
                    assert snapshot.age == pytest.approx(5.0)
                    clock.advance(40.0)  # past the stale TTL
                    with pytest.raises(PortalUnavailable):
                        client.get_view()
                standby.close()

    def test_ranked_prefers_declaration_order_when_equally_healthy(self):
        clock = FakeClock()
        with FailoverPortalClient(
            [("127.0.0.1", 1), ("127.0.0.1", 2)],
            clock=clock,
            breaker_factory=lambda: CircuitBreaker(clock=clock),
        ) as client:
            assert client.ranked() == [0, 1]
            client.clients[0].breaker.record_failure()
            assert client.ranked() == [1, 0]  # fewer consecutive failures wins


@pytest.mark.timeout(30)
class TestClientReconnect:
    """Satellite: a portal restart mid-session is survived transparently."""

    def test_reconnect_after_server_restart(self):
        tracker = make_tracker()
        bump(tracker, times=1)
        telemetry = Telemetry()
        server = AsyncPortalServer(tracker)
        host, port = server.address
        client = PortalClient(host, port, telemetry=telemetry)
        assert client.get_version() == tracker.version
        server.close()  # the client now holds a dead socket
        server = AsyncPortalServer(tracker, host=host, port=port)
        try:
            assert client.get_version() == tracker.version  # resent once
        finally:
            client.close()
            server.close()
        assert telemetry.registry.counter("p4p_client_reconnects_total").value == 1

    def test_reconnect_failure_propagates_transport_error(self):
        tracker = make_tracker()
        server = AsyncPortalServer(tracker)
        client = PortalClient(*server.address)
        server.close()
        with pytest.raises(PortalClientError):
            client.get_version()
        client.close()

    def test_resilient_client_still_wraps_reconnect_path(self):
        """The resilience layer sees reconnect failures as transport
        errors (breaker fodder), not raw socket exceptions."""
        clock = FakeClock()
        tracker = make_tracker()
        bump(tracker, times=1)
        server = AsyncPortalServer(tracker)
        resilient = ResilientPortalClient(
            *server.address,
            retry=fast_retry(),
            breaker=CircuitBreaker(failure_threshold=3, clock=clock),
            clock=clock,
            sleep=lambda _d: None,
        )
        assert resilient.fetch_fresh().version == tracker.version
        server.close()
        with pytest.raises(PortalClientError):
            resilient.fetch_fresh()
        assert resilient.breaker.consecutive_failures > 0
        resilient.close()
