"""Tests for the policy and capability interfaces."""

import pytest

from repro.core.capability import (
    AccessDeniedError,
    Capability,
    CapabilityKind,
    CapabilityRegistry,
)
from repro.core.policy import NetworkPolicy, TimeOfDayPolicy, UsageThresholds


class TestTimeOfDayPolicy:
    def test_inside_window(self):
        policy = TimeOfDayPolicy(link=("A", "B"), avoid_windows=((18.0, 23.0),))
        assert policy.should_avoid(20.0)
        assert not policy.should_avoid(10.0)

    def test_window_boundaries(self):
        policy = TimeOfDayPolicy(link=("A", "B"), avoid_windows=((18.0, 23.0),))
        assert policy.should_avoid(18.0)
        assert not policy.should_avoid(23.0)

    def test_wrapping_window(self):
        policy = TimeOfDayPolicy(link=("A", "B"), avoid_windows=((22.0, 2.0),))
        assert policy.should_avoid(23.0)
        assert policy.should_avoid(1.0)
        assert not policy.should_avoid(12.0)

    def test_hour_normalized(self):
        policy = TimeOfDayPolicy(link=("A", "B"), avoid_windows=((18.0, 23.0),))
        assert policy.should_avoid(44.0)  # 44 mod 24 = 20

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TimeOfDayPolicy(link=("A", "B"), avoid_windows=((0.0, 25.0),))


class TestUsageThresholds:
    def test_validation(self):
        with pytest.raises(ValueError):
            UsageThresholds(near_congestion=0.0)
        with pytest.raises(ValueError):
            UsageThresholds(heavy_usage=2.0)


class TestNetworkPolicy:
    def test_links_to_avoid(self):
        policy = NetworkPolicy()
        policy.add_time_of_day(
            TimeOfDayPolicy(link=("A", "B"), avoid_windows=((18.0, 23.0),))
        )
        policy.add_time_of_day(
            TimeOfDayPolicy(link=("C", "D"), avoid_windows=((8.0, 10.0),))
        )
        assert policy.links_to_avoid(19.0) == [("A", "B")]
        assert policy.links_to_avoid(9.0) == [("C", "D")]
        assert policy.links_to_avoid(12.0) == []

    def test_document_round_trip(self):
        policy = NetworkPolicy(thresholds=UsageThresholds(0.6, 0.2))
        policy.add_time_of_day(
            TimeOfDayPolicy(link=("A", "B"), avoid_windows=((18.0, 23.0),))
        )
        restored = NetworkPolicy.from_document(policy.to_document())
        assert restored.thresholds.near_congestion == 0.6
        assert restored.time_of_day[0].link == ("A", "B")
        assert restored.time_of_day[0].should_avoid(19.0)


class TestCapabilityRegistry:
    def make_registry(self):
        registry = CapabilityRegistry()
        registry.add(Capability(CapabilityKind.CACHE, pid="NYC", capacity_mbps=500))
        registry.add(
            Capability(CapabilityKind.ON_DEMAND_SERVER, pid="CHI", capacity_mbps=200)
        )
        return registry

    def test_open_registry_serves_anyone(self):
        registry = self.make_registry()
        assert len(registry.query("anyone")) == 2

    def test_filter_by_kind(self):
        registry = self.make_registry()
        found = registry.query("anyone", kind=CapabilityKind.CACHE)
        assert len(found) == 1
        assert found[0].pid == "NYC"

    def test_filter_by_pid(self):
        registry = self.make_registry()
        assert registry.query("anyone", pid="CHI")[0].kind is CapabilityKind.ON_DEMAND_SERVER

    def test_trusted_only(self):
        registry = self.make_registry()
        registry.trusted_requesters.add("pando")
        assert registry.query("pando")
        with pytest.raises(AccessDeniedError):
            registry.query("stranger")

    def test_blocked_content(self):
        registry = self.make_registry()
        registry.blocked_content.add("bad-content")
        with pytest.raises(AccessDeniedError):
            registry.query("anyone", content_id="bad-content")
        assert registry.query("anyone", content_id="fine-content")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Capability(CapabilityKind.CACHE, pid="X", capacity_mbps=-1.0)

    def test_to_document(self):
        docs = self.make_registry().to_document()
        assert {entry["kind"] for entry in docs} == {"cache", "on-demand-server"}
