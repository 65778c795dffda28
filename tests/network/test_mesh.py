"""Mesh latency and contention model."""

import hashlib
import random

import pytest

from repro.common.params import MachineConfig
from repro.network.mesh import Mesh, RouteTable, queueing_delays, route_table
from repro.network.topology import MeshTopology


@pytest.fixture
def mesh(small_config):
    return Mesh(small_config)


class TestUnloadedLatency:
    def test_local_send_is_free(self, mesh):
        assert mesh.send(3, 3, 9, depart=100.0) == 100.0

    def test_single_flit_one_hop(self, mesh):
        # 1 hop x 2 cycles, tail == head for 1 flit.
        assert mesh.unloaded_latency(0, 1, 1) == 2

    def test_data_message_latency(self, mesh, small_config):
        # hops * hop_latency + (flits - 1) serialization.
        flits = mesh.data_flits()
        hops = mesh.topology.hops(0, 15)
        assert mesh.unloaded_latency(0, 15, flits) == hops * 2 + flits - 1

    def test_send_matches_unloaded_when_idle(self, mesh):
        arrival = mesh.send(0, 15, 9, depart=0.0)
        assert arrival == pytest.approx(mesh.unloaded_latency(0, 15, 9))

    def test_flit_counts(self, mesh, small_config):
        assert mesh.control_flits() == 1
        assert mesh.data_flits() == 1 + small_config.cache_line_flits


class TestContention:
    def test_loaded_link_adds_delay(self, mesh):
        # Saturate a link within one epoch, then measure a fresh message.
        for _ in range(40):
            mesh.send(0, 1, 9, depart=10.0)
        loaded = mesh.send(0, 1, 9, depart=11.0) - 11.0
        assert loaded > mesh.unloaded_latency(0, 1, 9)

    def test_contention_clears_in_later_epoch(self, mesh):
        for _ in range(40):
            mesh.send(0, 1, 9, depart=10.0)
        later = Mesh.CONTENTION_EPOCH * 3 + 5.0
        fresh = mesh.send(0, 1, 9, depart=later) - later
        assert fresh == pytest.approx(mesh.unloaded_latency(0, 1, 9))

    def test_delay_is_bounded(self, mesh):
        """The utilization clamp keeps single-link delay finite."""
        for _ in range(10000):
            mesh.send(0, 1, 9, depart=50.0)
        worst = mesh.send(0, 1, 9, depart=50.0) - 50.0
        max_per_link = 9 * Mesh.MAX_UTILIZATION / (1 - Mesh.MAX_UTILIZATION)
        assert worst <= max_per_link + mesh.unloaded_latency(0, 1, 9) + 1

    def test_disjoint_paths_do_not_interact(self, mesh):
        for _ in range(40):
            mesh.send(0, 1, 9, depart=10.0)
        # Traffic in the opposite corner is unaffected.
        other = mesh.send(15, 14, 9, depart=11.0) - 11.0
        assert other == pytest.approx(mesh.unloaded_latency(15, 14, 9))

    def test_out_of_order_departures_stay_stable(self, mesh):
        """A far-future send must not blow up frontier traffic (the
        busy-until pathology this model replaces)."""
        mesh.send(0, 3, 9, depart=1_000_000.0)
        frontier = mesh.send(0, 3, 9, depart=10.0) - 10.0
        assert frontier <= mesh.unloaded_latency(0, 3, 9) + 5


class TestAccounting:
    def test_flit_traversal_counts(self, mesh):
        mesh.send(0, 3, 2, depart=0.0)  # 3 hops, 2 flits
        assert mesh.link_flit_traversals == 6
        assert mesh.router_flit_traversals == 8  # (hops + 1) routers

    def test_local_send_counts_no_traversals(self, mesh):
        mesh.send(5, 5, 9, depart=0.0)
        assert mesh.link_flit_traversals == 0
        assert mesh.messages_sent == 1

    def test_round_trip(self, mesh):
        arrival = mesh.round_trip(0, 1, 1, 9, depart=0.0)
        expected = mesh.unloaded_latency(0, 1, 1) + mesh.unloaded_latency(1, 0, 9)
        assert arrival == pytest.approx(expected)


# -- pinned send-sequence equivalence ---------------------------------------

_CONFIGS = {4: MachineConfig.tiny, 16: MachineConfig.small, 64: MachineConfig.paper}


def _send_sequence(num_cores: int, seed: int, count: int = 5000):
    """A seeded mix of messages exercising every contention-model branch.

    Yields ``(src, dst, flits, depart)``.  The clock advances ~20 cycles a
    message, so links roll over many 512-cycle epochs.  Departures are
    ints or floats; about a tenth are *stale* (hundreds to thousands of
    cycles behind the clock, older than the epoch their links last
    saw); bursts of data messages on one hot pair saturate its links at
    ``MAX_UTILIZATION``; and some messages are local (``src == dst``).
    """
    rng = random.Random(seed)
    config = _CONFIGS[num_cores]()
    control, data = config.header_flits, config.header_flits + config.cache_line_flits
    hot = (0, num_cores - 1)
    clock = 0
    sent = 0
    while sent < count:
        kind = rng.random()
        clock += rng.randint(0, 40)
        depart = clock if rng.random() < 0.5 else clock + rng.random()
        src, dst = rng.randrange(num_cores), rng.randrange(num_cores)
        flits = data if rng.random() < 0.5 else control
        if kind < 0.02:  # saturating burst on the hot pair
            for _ in range(rng.randint(40, 90)):
                yield hot[0], hot[1], data, depart
                sent += 1
            continue
        if kind < 0.12:  # stale: older than the links' stored epochs
            back = rng.randint(100, 3000)
            if rng.random() < 0.5:
                depart = max(0, clock - back)
            else:
                depart = max(0.0, clock - back - rng.random())
        elif kind < 0.20:
            dst = src
        yield src, dst, flits, depart
        sent += 1


def _replay(num_cores: int, seed: int) -> dict:
    mesh = Mesh(_CONFIGS[num_cores]())
    digest = hashlib.sha256()
    for src, dst, flits, depart in _send_sequence(num_cores, seed):
        arrival = mesh.send(src, dst, flits, depart)
        # repr pins the exact value and its type (int vs float).
        digest.update(f"{type(arrival).__name__}:{arrival!r};".encode())
    return {
        "arrivals_sha256": digest.hexdigest(),
        "total_queueing_delay": mesh.total_queueing_delay.hex(),
        "router_flit_traversals": mesh.router_flit_traversals,
        "link_flit_traversals": mesh.link_flit_traversals,
        "messages_sent": mesh.messages_sent,
        "total_flits": mesh.total_flits,
    }


#: The exact outcome of ``_send_sequence(num_cores, 2014)``, captured from
#: the tuple-keyed contention model the dense-link mesh replaced.  Any
#: change to the arithmetic (order of float additions, epoch handling,
#: the utilization clamp, int-vs-float arrivals) changes these.
PINNED_SEQUENCES = {
    4: {
        "arrivals_sha256": "90a9279cfec295bdf063a7c23095bbed82825acb1b7c744312dfbe13434394e5",
        "total_queueing_delay": "0x1.95fe69179d63cp+18",
        "router_flit_traversals": 96695,
        "link_flit_traversals": 62910,
        "messages_sent": 5026,
        "total_flits": 36730,
    },
    16: {
        "arrivals_sha256": "fb50c2620b89552665b4386b27351833a0b0062471b181157c1c845f736a6eff",
        "total_queueing_delay": "0x1.b0d81cc663567p+19",
        "router_flit_traversals": 219426,
        "link_flit_traversals": 183981,
        "messages_sent": 5026,
        "total_flits": 36730,
    },
    64: {
        "arrivals_sha256": "a822dc6ab2ca43555efa75822b53fb1a8c3343b8eb38d1f51ec948a38f0d1728",
        "total_queueing_delay": "0x1.74f75aa765b83p+20",
        "router_flit_traversals": 460395,
        "link_flit_traversals": 424494,
        "messages_sent": 5026,
        "total_flits": 36730,
    },
}


@pytest.mark.parametrize("num_cores", sorted(PINNED_SEQUENCES))
def test_send_sequence_matches_pinned_values(num_cores):
    assert _replay(num_cores, 2014) == PINNED_SEQUENCES[num_cores]


def test_int_departure_yields_float_arrival(mesh):
    arrival = mesh.send(0, 1, 1, depart=0)
    assert type(arrival) is float and arrival == 2.0
    assert type(mesh.send(2, 2, 1, depart=7)) is int  # local: returned as is


# -- route table and bounds -------------------------------------------------

@pytest.mark.parametrize("num_cores", [4, 16, 64])
def test_route_table_decodes_to_xy_routes(num_cores):
    table = route_table(num_cores)
    topology = MeshTopology(num_cores)
    for src in range(num_cores):
        for dst in range(num_cores):
            decoded = [table.link_endpoints(link) for link in table.row(src)[dst]]
            assert decoded == list(topology.route(src, dst)), (src, dst)


@pytest.mark.parametrize("num_cores", [4, 16, 64])
def test_distinct_links_get_distinct_ids(num_cores):
    table = route_table(num_cores)
    ids = {}
    for src in range(num_cores):
        for dst in range(num_cores):
            for link in table.row(src)[dst]:
                assert 0 <= link < table.num_links
                ids.setdefault(table.link_endpoints(link), set()).add(link)
    assert all(len(links) == 1 for links in ids.values())
    assert len({next(iter(links)) for links in ids.values()}) == len(ids)
    # Every directed link between neighbouring tiles appears on some route.
    side = table.topology.side
    assert len(ids) == 4 * side * (side - 1)


def test_route_table_is_built_once_per_core_count():
    first = Mesh(MachineConfig.small())
    second = Mesh(MachineConfig.small())
    assert first.routes is second.routes is route_table(16)
    assert route_table(64) is not route_table(16)
    first.send(5, 10, 1, depart=0.0)
    row = first.routes.row(5)
    second.send(5, 3, 1, depart=0.0)
    assert second.routes.row(5) is row  # the row is shared, not rebuilt


def _built_rows(table):
    return sum(row is not None for row in table.rows)


def test_routes_are_built_lazily_per_source_row():
    table = route_table(64)
    before = _built_rows(table)
    Mesh(MachineConfig.paper())
    assert _built_rows(table) == before  # construction builds nothing
    fresh = RouteTable(64)
    assert _built_rows(fresh) == 0
    assert fresh.row(7) is fresh.row(7)
    assert _built_rows(fresh) == 1


@pytest.mark.parametrize("src, dst", [(-1, 0), (0, -1), (16, 0), (0, 16), (-1, 15), (3, 99)])
def test_send_rejects_cores_outside_the_mesh(mesh, src, dst):
    with pytest.raises(ValueError, match="outside mesh"):
        mesh.send(src, dst, 1, depart=0.0)


@pytest.mark.parametrize("flits", [1, 9])
def test_queueing_delay_table_matches_the_formula(flits):
    epoch, cap = Mesh.CONTENTION_EPOCH, Mesh.MAX_UTILIZATION
    table = queueing_delays(flits, epoch, cap)
    assert table[0] == 0.0 and table[-1] == flits * cap / (1.0 - cap)
    for load in range(2 * epoch):
        utilization = min(load / epoch, cap)
        expected = flits * utilization / (1.0 - utilization) if utilization > 0.0 else 0.0
        assert table[min(load, len(table) - 1)] == expected, load
