"""Electrical 2-D mesh interconnect with contention modelling.

Latency model (Table 1): each hop costs ``hop_latency`` cycles (1 router +
1 link); the message tail arrives ``flits - 1`` cycles after the head.

Contention model: per-link **windowed utilization queueing** (the same
family of analytical contention model the Graphite simulator uses).
Each directed link counts the flits it carried in the current epoch;
a message crossing a link at utilization ``u`` pays an M/D/1-style
queueing delay of ``u / (1 - u)`` service times.  This is deterministic,
O(1) memory per link, and — unlike naive busy-until reservations — is
stable when transactions carry timestamps slightly ahead of the global
simulation frontier (a busy-until model lets one far-future reservation
block frontier traffic on an idle link, producing runaway feedback).

Representation: every directed link has a dense id ``4 * core +
direction`` (the core it leaves, and which of its four neighbours it
enters), and a mesh keeps each link's epoch and load in two flat lists
indexed by that id.  XY routes are static, so a :class:`RouteTable` of
link-id tuples per ``(src, dst)`` is shared by every mesh of the same
size in the process; it is filled one source row at a time, on first
use, from coordinate arithmetic.  ``send`` walks a route's ids inline,
reading each hop's queueing delay from a per-message-size table of the
formula above: it sits on the miss path of every simulation kernel.

Energy accounting counts router traversals and link traversals per flit;
the energy model charges them separately (Figure 6 splits "Network
Router" and "Network Link").
"""

from __future__ import annotations

import functools
import math

from repro.common.params import MachineConfig
from repro.network.topology import MeshTopology

#: Direction codes of the four links leaving a tile (``+x, -x, +y, -y``).
EAST, WEST, SOUTH, NORTH = range(4)


class RouteTable:
    """XY routes of one mesh size as tuples of dense link ids.

    Link ``4 * core + direction`` leaves ``core`` towards its
    ``direction`` neighbour.  Rows (all routes from one source) are
    built lazily, so creating a table costs nothing up front.
    """

    def __init__(self, num_cores: int) -> None:
        self.topology = MeshTopology(num_cores)
        self.num_cores = num_cores
        self.num_links = 4 * num_cores
        #: ``rows[src][dst]``: link ids of the route, ``None`` until built.
        self.rows: list[tuple[tuple[int, ...], ...] | None] = [None] * num_cores

    def row(self, src: int) -> tuple[tuple[int, ...], ...]:
        """Routes from ``src`` to every core, building them on first use."""
        self.topology._check(src)
        row = self.rows[src]
        if row is None:
            row = self.rows[src] = tuple(
                self._build(src, dst) for dst in range(self.num_cores)
            )
        return row

    def link_endpoints(self, link: int) -> tuple[int, int]:
        """``(from_core, to_core)`` of a link id."""
        core, direction = divmod(link, 4)
        side = self.topology.side
        return core, core + (1, -1, side, -side)[direction]

    def _build(self, src: int, dst: int) -> tuple[int, ...]:
        side = self.topology.side
        sx, sy = src % side, src // side
        dx, dy = dst % side, dst // side
        links = []
        core = src
        step, direction = (1, EAST) if dx > sx else (-1, WEST)
        for _ in range(abs(dx - sx)):
            links.append(4 * core + direction)
            core += step
        step, direction = (side, SOUTH) if dy > sy else (-side, NORTH)
        for _ in range(abs(dy - sy)):
            links.append(4 * core + direction)
            core += step
        return tuple(links)


@functools.cache
def route_table(num_cores: int) -> RouteTable:
    """The process-wide route table for meshes of ``num_cores`` tiles."""
    return RouteTable(num_cores)


@functools.cache
def queueing_delays(flits: int, epoch_len: int, max_utilization: float) -> tuple[float, ...]:
    """Queueing delay of a ``flits``-flit message, by prior link load.

    Entry ``load`` is the delay on a link that already carried ``load``
    flits this epoch: ``flits * u / (1 - u)`` service times at
    utilization ``u = min(load / epoch_len, max_utilization)``, and 0.0
    on an idle link.  The last entry is the first load at the clamp; it
    holds for every heavier load.
    """
    if flits < 0:
        raise ValueError(f"message of {flits} flits")
    delays = []
    load = 0
    while True:
        utilization = min(load / epoch_len, max_utilization)
        delays.append(flits * utilization / (1.0 - utilization) if utilization > 0.0 else 0.0)
        if utilization == max_utilization:
            return tuple(delays)
        load += 1


class Mesh:
    """The on-chip network: latency, contention and flit accounting."""

    #: Length of a utilization-accounting window, in cycles.
    CONTENTION_EPOCH = 512
    #: Utilization is clamped below 1 so the delay formula stays finite;
    #: at the cap a message pays ~19 service times of queueing.
    MAX_UTILIZATION = 0.95

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.routes = route_table(config.num_cores)
        self.topology = self.routes.topology
        self._num_cores = config.num_cores
        self._route_rows = self.routes.rows
        self._hop_latency = config.hop_latency
        #: A hop without queueing adds ``0.0 + hop_latency``: a float even
        #: when ``depart`` and the latency are ints.
        self._free_hop = 0.0 + config.hop_latency
        #: ``queueing_delays`` tables by message size.
        self._delays: dict[int, tuple[float, ...]] = {}
        #: Per link id: the epoch its load belongs to (-inf: never used)
        #: and the flits it carried in that epoch.
        self._link_epoch: list[float] = [-math.inf] * self.routes.num_links
        self._link_load: list[int] = [0] * self.routes.num_links
        # -- counters consumed by the energy model --------------------------
        self.router_flit_traversals = 0
        self.link_flit_traversals = 0
        self.messages_sent = 0
        self.total_flits = 0
        self.total_queueing_delay = 0.0

    def control_flits(self) -> int:
        """Flits in an address-only message (invalidation, ack, request)."""
        return self.config.header_flits

    def data_flits(self) -> int:
        """Flits in a message carrying a full cache line."""
        return self.config.header_flits + self.config.cache_line_flits

    def send(self, src: int, dst: int, flits: int, depart: float) -> float:
        """Send a message; returns the arrival time of the tail flit.

        Accumulates per-link load for the contention model and the
        router/link energy event counts.  ``src == dst`` is a local
        operation: free and instantaneous.
        """
        self.messages_sent += 1
        self.total_flits += flits
        if src == dst:
            return depart
        num_cores = self._num_cores
        if not (0 <= src < num_cores and 0 <= dst < num_cores):
            # A negative core would otherwise index the table from the end.
            self.topology._check(src)
            self.topology._check(dst)
        row = self._route_rows[src]
        if row is None:
            row = self.routes.row(src)
        route = row[dst]

        delays = self._delays.get(flits)
        if delays is None:
            delays = self._delays[flits] = queueing_delays(
                flits, self.CONTENTION_EPOCH, self.MAX_UTILIZATION
            )
        saturated = len(delays) - 1
        epoch_len = self.CONTENTION_EPOCH
        hop_latency = self._hop_latency
        free_hop = self._free_hop
        epochs = self._link_epoch
        loads = self._link_load
        queueing = self.total_queueing_delay
        now = depart
        for link in route:
            epoch = int(now) // epoch_len
            if epoch > epochs[link]:
                epochs[link] = epoch
                loads[link] = flits
                now += free_hop
                continue
            # Same epoch (or a stale timestamp): accumulate into the
            # link's stored epoch.
            prior_load = loads[link]
            loads[link] = prior_load + flits
            delay = delays[prior_load if prior_load < saturated else saturated]
            queueing += delay
            now += delay + hop_latency
        self.total_queueing_delay = queueing
        hops = len(route)
        self.router_flit_traversals += flits * (hops + 1)
        self.link_flit_traversals += flits * hops
        # Tail flit trails the head by (flits - 1) cycles of serialization.
        return now + (flits - 1)

    def round_trip(
        self, src: int, dst: int, request_flits: int, response_flits: int, depart: float
    ) -> float:
        """Request/response pair; returns the response arrival time."""
        arrive = self.send(src, dst, request_flits, depart)
        return self.send(dst, src, response_flits, arrive)

    def unloaded_latency(self, src: int, dst: int, flits: int) -> int:
        """Latency with zero contention (for analytical checks)."""
        if src == dst:
            return 0
        hops = self.topology.hops(src, dst)
        return hops * self.config.hop_latency + (flits - 1)
