#!/usr/bin/env python3
"""Run a live iTracker portal and query it over the wire protocol.

Starts a portal server for an Abilene iTracker (policy + capabilities +
PID map provisioned), registers it in the DNS-SRV-style registry, then
acts as a P2P client: discovers the portal, maps its IP to a PID, reads
the policy, lists caches, and pulls the p-distance view -- twice, to show
the version-based caching.

Run:  python examples/itracker_portal.py
"""

from repro.core.capability import Capability, CapabilityKind
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.pdistance import uniform_pid_map
from repro.core.policy import TimeOfDayPolicy
from repro.network.library import abilene
from repro.portal.aserver import AsyncPortalServer
from repro.portal.client import PortalClient, discover_itracker, register_itracker


def main() -> None:
    # Provider side: configure and serve the iTracker.
    topology = abilene()
    itracker = ITracker(
        topology=topology,
        config=ITrackerConfig(mode=PriceMode.HOP_COUNT),
        pid_map=uniform_pid_map(topology),
    )
    itracker.policy.add_time_of_day(
        TimeOfDayPolicy(link=("WASH", "NYCM"), avoid_windows=((18.0, 23.0),))
    )
    itracker.capabilities.add(
        Capability(CapabilityKind.CACHE, pid="CHIN", capacity_mbps=2000, name="cache-chi")
    )

    with AsyncPortalServer(itracker) as server:
        host, port = server.address
        register_itracker("abilene.example", host, port)
        print(f"portal serving at {host}:{port} (registered as abilene.example)")

        # Client side: discover and query.
        address = discover_itracker("abilene.example")
        with PortalClient(*address) as client:
            pid, as_number = client.lookup_pid("10.3.0.42")
            print(f"\nclient 10.3.0.42 maps to PID {pid} in AS{as_number}")

            policy = client.get_policy()
            print(f"links to avoid at 20:00: {policy.links_to_avoid(20.0)}")

            caches = client.get_capabilities("example-apptracker", kind="cache")
            for cache in caches:
                print(
                    f"cache available: {cache['name']} at {cache['pid']} "
                    f"({cache['capacity_mbps']:.0f} Mbps)"
                )

            view = client.get_pdistances()
            print(f"\np-distances from {pid}:")
            for dst, distance in sorted(view.row(pid).items())[:5]:
                print(f"  {pid} -> {dst:<5} {distance:.1f}")
            cached = client.get_pdistances()
            print(f"second fetch served from cache: {cached is view}")


if __name__ == "__main__":
    main()
