"""Extension: Nash Bargaining Solution for conflicting inter-AS distances.

Sec. 6.2 deploys "use the joining client's AS view" and names NBS as the
principled alternative.  This benchmark builds the two virtual Abilene
ISPs' conflicting views of the cross-AS PID pairs and compares the two
rules' costs for both providers.
"""

from conftest import print_rows

from repro.apptracker.interas import bargaining_from_views
from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.network.interdomain import partition_virtual_isps
from repro.network.library import abilene


def test_ext_nash_bargaining(benchmark):
    topo = abilene()
    partition = partition_virtual_isps(topo)
    west, east = partition.components

    # Each virtual ISP prices distance normally inside itself, but triples
    # the cost of pairs leaving through its own charged links -- the
    # provider/customer style asymmetry.
    def make_view(own_side):
        view_topo = topo.copy()
        for link in view_topo.links.values():
            if link.interdomain and link.src in own_side:
                link.ospf_weight = link.distance * 3.0
            else:
                link.ospf_weight = max(1.0, link.distance)
        tracker = ITracker(
            topology=view_topo,
            config=ITrackerConfig(mode=PriceMode.OSPF_WEIGHTS),
        )
        return tracker.get_pdistances()

    view_a = make_view(west)
    view_b = make_view(east)
    pairs = [
        (src, dst) for src in sorted(west) for dst in sorted(east)
    ][:12]

    outcome = benchmark.pedantic(
        lambda: bargaining_from_views(view_a, view_b, pairs), rounds=1, iterations=1
    )
    cost_a = sum(view_a.distance(*p) * w for p, w in outcome.weights.items())
    cost_b = sum(view_b.distance(*p) * w for p, w in outcome.weights.items())
    rows = [
        f"disagreement (uniform split) cost: A {outcome.disagreement_cost_a:9.1f}  "
        f"B {outcome.disagreement_cost_b:9.1f}",
        f"NBS allocation cost:               A {cost_a:9.1f}  B {cost_b:9.1f}",
        f"surpluses: A {outcome.utility_a:9.1f}  B {outcome.utility_b:9.1f}  "
        f"(Nash product {outcome.nash_product:9.1f})",
    ]
    print_rows("Extension: inter-AS Nash bargaining", rows)

    # Both providers do at least as well as without cooperation.
    assert outcome.utility_a >= 0
    assert outcome.utility_b >= 0
    assert sum(outcome.weights.values()) > 0.999
