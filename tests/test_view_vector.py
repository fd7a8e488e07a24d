"""The p-distance vector as the unit of publication.

A price update flows from ``observe_loads`` to the wire as arrays: the
super-gradient and the utilisation gauge are vector work, the update log
keeps the price vector (rendered as ``[src, dst, value]`` lists only when
read or persisted), ``ITracker.view_vector`` aggregates the full mesh
into one float vector, and the view publisher encodes both full-mesh
documents and every restricted splice straight from it.  Pinned here:

* the price iterates, the utilisation gauge and the ``get_state_delta``
  frames are those of the per-link loops they replaced (digests taken
  from the loop implementation);
* the intra-PID entries keep their configured wire form (``1`` stays
  ``1``) in full-mesh documents and splices;
* with diverse prices -- the benchmark's are degenerate, two distinct
  values -- every served document is byte-identical to the reference
  builders over the :func:`~tests.conftest.mesh_view` of its prices;
* publishing and serving a raw view builds no ``PDistanceMap`` at all.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro.core.itracker import ITracker, ITrackerConfig, PriceMode
from repro.core.objectives import BandwidthDistanceProduct, MinMaxUtilization
from repro.core.pdistance import PDistanceMap, uniform_pid_map
from repro.network.generators import US_METROS, synthetic_isp
from repro.network.library import abilene
from repro.network.routing import RoutingTable
from repro.observability import NULL_TELEMETRY, Telemetry, flatten_snapshot
from repro.portal import alto, protocol
from repro.portal.aserver import AsyncPortalServer
from repro.portal.views import ViewPublisher
from tests.conftest import mesh_view, reference_frame, view_pairs

FOOTPRINTS = (["NYCM", "CHIN", "WASH"], ["SEAT"], ["LOSA", "NYCM", "HSTN", "KSCY"])


def bench80():
    return synthetic_isp(
        name="BENCH", n_pops=80, metros=US_METROS, n_hubs=12, as_number=65000, seed=9
    )


def seeded_loads(topology, rng):
    """A random half of the links loaded to 0-90% of capacity."""
    return {
        key: round(rng.uniform(0.0, 0.9) * link.capacity, 3)
        for key, link in sorted(topology.links.items())
        if rng.random() < 0.5
    }


def price_trace(topology, objective, updates=40, seed=5):
    """sha256 digests of every price iterate, of the utilisation and
    super-gradient gauges after every update (the price iterates of MLU
    and BDP coincide: their super-gradients differ by a multiple of the
    capacities, which the projection absorbs), and of two
    ``get_state_delta`` frames."""
    telemetry = Telemetry()
    tracker = ITracker(
        topology=topology, objective=objective, telemetry=telemetry
    )
    rng = random.Random(seed)
    prices, gauges = hashlib.sha256(), hashlib.sha256()
    for _ in range(updates):
        tracker.observe_loads(seeded_loads(topology, rng))
        prices.update(tracker._prices.tobytes())
        flat = flatten_snapshot(telemetry.snapshot())
        for gauge in ("p4p_core_max_link_utilization", "p4p_core_supergradient_norm"):
            gauges.update(float(flat[gauge]).hex().encode())
    frames = hashlib.sha256()
    for since in (-1, tracker.version - 3):
        message = {"method": "get_state_delta", "params": {"since": since}}
        frames.update(reference_frame(tracker, message))
    return prices.hexdigest()[:16], gauges.hexdigest()[:16], frames.hexdigest()[:16]


class TestPriceUpdatesAreTheLoops:
    """Digests taken from the per-link loop implementation."""

    @pytest.mark.parametrize(
        "name, topology, objective, expected",
        [
            ("abilene-mlu", abilene, MinMaxUtilization,
             ("72674800896ad28b", "04a0a133e5d47314", "717c9000e9c0bcf6")),
            ("bench80-mlu", bench80, MinMaxUtilization,
             ("b5f1378276438ede", "e1a78e4b7055e3cb", "632649f322bef4a9")),
            ("bench80-bdp", bench80, BandwidthDistanceProduct,
             ("b5f1378276438ede", "4db333bf458fd80c", "632649f322bef4a9")),
        ],
    )
    def test_iterates_gauges_and_delta_frames(self, name, topology, objective, expected):
        assert price_trace(topology(), objective()) == expected

    def test_an_int_price_vector_is_rendered_as_floats(self):
        topology = abilene()
        tracker = ITracker(
            topology=topology,
            config=ITrackerConfig(mode=PriceMode.EXPLICIT),
            explicit_prices={key: 2 for key in topology.links},
        )
        assert tracker._prices.dtype.kind == "i"
        record = tracker.state_delta()["records"][-1]
        assert {type(value) for _, _, value in record["prices"]} == {float}
        frame = reference_frame(
            tracker, {"method": "get_state_delta", "params": {"since": -1}}
        )
        assert hashlib.sha256(frame).hexdigest()[:16] == "397ff6e38b413d70"

    def test_links_loaded_counts_the_measured_links_once(self):
        telemetry = Telemetry()
        topology = abilene()
        tracker = ITracker(topology=topology, telemetry=telemetry)
        loads = {key: 10.0 * (n % 3) for n, key in enumerate(sorted(topology.links))}
        tracker.observe_loads(loads)
        span = telemetry.traces.to_wire()[-1]
        assert span["attributes"]["links_loaded"] == sum(
            1 for value in loads.values() if value > 0
        )


class TestViewVector:
    @pytest.mark.parametrize("objective", [MinMaxUtilization, BandwidthDistanceProduct])
    def test_the_snapshot_is_the_vector_and_external_view(self, objective):
        topology = bench80()
        tracker = ITracker(topology=topology, objective=objective())
        tracker.observe_loads(seeded_loads(topology, random.Random(1)))
        index, values = tracker.view_vector()
        assert values.dtype == np.float64 and len(values) == len(index.pairs)
        view = tracker.view_snapshot()
        reference = mesh_view(
            topology,
            tracker.routing,
            tracker.link_prices,
            tracker.objective.cost_offsets(topology),
        )
        assert list(view_pairs(view)) == list(index.pairs) == list(view_pairs(reference))
        assert values.tolist() == list(view_pairs(view).values())
        assert protocol.encode_json(list(view_pairs(view).values())) == (
            protocol.encode_json(list(view_pairs(reference).values()))
        )

    def test_a_negative_p_distance_is_refused_on_the_vector(self):
        topology = abilene()
        tracker = ITracker(
            topology=topology,
            config=ITrackerConfig(mode=PriceMode.EXPLICIT),
            explicit_prices={key: 1.0 for key in topology.links},
        )
        tracker._prices = -tracker._prices
        with pytest.raises(ValueError, match="negative p-distance"):
            tracker.view_vector()


def serve(tracker):
    return AsyncPortalServer(tracker, workers=1, telemetry=NULL_TELEMETRY)


def messages():
    yield {"method": "get_pdistances", "params": {}}
    for mode in (alto.NUMERICAL, alto.ORDINAL):
        yield {"method": "get_alto_costmap", "params": {"mode": mode}}
    for pids in FOOTPRINTS:
        yield {"method": "get_pdistances", "params": {"pids": pids}}
        for mode in (alto.NUMERICAL, alto.ORDINAL):
            yield {"method": "get_alto_costmap", "params": {"pids": pids, "mode": mode}}


@pytest.mark.timeout(60)
class TestIntraPidWireForm:
    @pytest.mark.parametrize("intra", [0.0, 1, 2.5], ids=["zero", "int-one", "2.5"])
    def test_documents_and_splices_match_the_reference(self, intra):
        topology = abilene()
        config = ITrackerConfig(intra_pid_distance=intra)
        tracker = ITracker(topology=topology, config=config, pid_map=uniform_pid_map(topology))
        tracker.observe_loads(seeded_loads(topology, random.Random(3)))
        with serve(tracker) as server:
            for message in messages():
                frame = protocol.encode_frame(server.dispatch(message))
                assert frame == reference_frame(tracker, message), message
        full = json.loads(reference_frame(tracker, {"method": "get_pdistances", "params": {}})[4:])
        diagonal = {value for src, dst, value in full["result"]["distances"] if src == dst}
        assert diagonal == {intra} and {type(value) for value in diagonal} == {type(intra)}


def install_diverse_prices(tracker, seed):
    """Seeded, non-degenerate prices on every link, as a replica installs
    them (``apply_state_delta``)."""
    rng = random.Random(seed)
    prices = [
        [src, dst, rng.uniform(1e-6, 1e-3)] for src, dst in tracker.topology.links
    ]
    record = {"epoch": 0, "version": tracker.version + 1, "time": 0.0, "prices": prices}
    assert tracker.apply_state_delta({"records": [record]})


CONFIGS = {
    "plain": {},
    "perturbed": {"perturbation": 0.05},
    "ranks": {"serve_ranks": True},
}


@pytest.mark.timeout(120)
class TestDiversePrices:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("objective", [MinMaxUtilization, BandwidthDistanceProduct])
    def test_served_bytes_are_the_reference_builders(self, objective, config):
        topology = bench80()
        tracker = ITracker(
            topology=topology,
            config=ITrackerConfig(**CONFIGS[config]),
            objective=objective(),
            pid_map=uniform_pid_map(topology),
        )
        install_diverse_prices(tracker, seed=11)
        routing = RoutingTable.build(topology)
        raw = mesh_view(
            topology, routing, tracker.link_prices, objective().cost_offsets(topology)
        )
        off_diagonal = [value for (src, dst), value in view_pairs(raw).items() if src != dst]
        assert len(set(off_diagonal)) > 0.4 * len(off_diagonal)
        version = tracker.version
        publisher = ViewPublisher(tracker, NULL_TELEMETRY)
        snapshot = publisher.current()
        full = tracker.finish_view(raw, version=version)
        assert publisher.pdistances_document(snapshot) == protocol.encode_json(
            protocol.pdistance_to_wire(full)
        )
        for mode in (alto.NUMERICAL, alto.ORDINAL):
            assert publisher.costmap_document(snapshot, mode) == protocol.encode_json(
                alto.cost_map_document(full, mode=mode, map_vtag=f"p4p-{version}")
            )
        for pids in FOOTPRINTS + (list(raw.pids)[::-1],):
            restricted = tracker.finish_view(raw.restricted_to(pids), version=version)
            if tracker.serves_raw_views:
                pdistances = publisher.spliced_pdistances(snapshot, pids)
                costmap = publisher.spliced_costmap(snapshot, pids)
            else:
                pdistances = protocol.encode_json(
                    protocol.pdistance_to_wire(publisher.finish(snapshot, pids))
                )
                costmap = protocol.encode_json(
                    alto.cost_map_document(
                        publisher.finish(snapshot, pids), map_vtag=f"p4p-{version}"
                    )
                )
            assert pdistances == protocol.encode_json(protocol.pdistance_to_wire(restricted))
            assert costmap == protocol.encode_json(
                alto.cost_map_document(restricted, map_vtag=f"p4p-{version}")
            )


@pytest.mark.timeout(60)
class TestNoPerPairObjects:
    def test_publishing_and_serving_a_raw_view_builds_no_pdistance_map(
        self, monkeypatch
    ):
        tracker = ITracker(topology=abilene(), pid_map=uniform_pid_map(abilene()))
        built = []
        real = PDistanceMap.__post_init__

        def counting(self):
            built.append(len(self.pids))
            real(self)

        monkeypatch.setattr(PDistanceMap, "__post_init__", counting)
        reads = [
            {"method": "get_pdistances", "params": {}},
            {"method": "get_alto_costmap", "params": {}},
        ] + [
            {"method": method, "params": {"pids": pids}}
            for pids in FOOTPRINTS
            for method in ("get_pdistances", "get_alto_costmap")
        ]
        with serve(tracker) as server:
            for _ in range(2):
                tracker.observe_loads(seeded_loads(tracker.topology, random.Random(4)))
                for message in reads:
                    assert type(server.dispatch(message)["result"]) is bytes
            assert server.publisher.current().key == (0, tracker.version)
        assert built == []
        # The dense form is still there for whoever asks for one.
        tracker.get_pdistances()
        assert built
