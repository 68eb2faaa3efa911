"""Region sharding of a service market: partition, routing, and the log.

The market's network model is naturally regional — GT-ITM transit-stub
graphs group stub domains under transit homes (``region_map`` in
:mod:`repro.network.generators`) — and most caching interaction is local:
with a latency budget armed, a provider's feasible cloudlets (the finite
entries of its compiled ``fixed`` row) usually sit inside one region.
This module turns that locality into an explicit sharded architecture:

* :func:`partition_market` groups the cloudlets by region into shards
  (optionally coalescing small regions into ``n_shards`` contiguous
  blocks) and assigns every network node an *owning* shard.
* :func:`classify_providers` splits the population into **interior**
  providers (latency-budget mask touches exactly one shard — they can be
  settled entirely inside it), **boundary** providers (mask spans shards —
  they couple shard equilibria and are reconciled globally), and
  **unreachable** ones (no feasible cloudlet at all).
* :func:`shard_view` builds one self-contained
  :class:`~repro.market.compiled.CompiledMarket` per shard — a
  fancy-indexed copy of the global tables over the shard's cloudlet
  columns and only the provider rows the shard can price: its interior
  providers plus the boundary providers whose mask reaches it (recorded
  per shard by the classification). The congestion prefix is cut to the
  view's row count. Entries are bit-equal slices of the global tables,
  and a view pickles to a few KB for shipping to a worker process.
* :class:`ShardDelta` + :class:`ShardLog` extend the
  :class:`~repro.market.delta.MarketDelta` protocol into a
  sequence-numbered replication log: every global delta is routed into
  per-shard sub-deltas (arrivals by the owner of the service's user node,
  departures by the recorded owner, cloudlet events by the cloudlet's
  shard). Routed sub-deltas of one sequence number touch disjoint state,
  so *any* interleaving that respects per-shard sequence order replays to
  the same gathered tables as the original global stream —
  ``tests/market/test_shard.py`` pins this property, and an optional
  :class:`~repro.runtime.CheckpointJournal` makes the log
  crash-consistent (fsynced before the shard equilibria run).

The partitioned equilibrium driver that consumes all of this lives in
:mod:`repro.game.partitioned`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING, cast,
)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.market.compiled import CompiledMarket
from repro.market.delta import MarketDelta
from repro.market.service import Service, ServiceProvider
from repro.network.generators import region_map

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.market.market import ServiceMarket
    from repro.runtime import CheckpointJournal


@dataclass(frozen=True)
class MarketPartition:
    """A static partition of a market's cloudlets into region shards.

    Shards are numbered ``0 .. n_shards-1`` in ascending region-id order;
    every network node is owned by exactly one shard (nodes in regions
    without any cloudlet fall back to shard 0 — their providers are
    routed somewhere deterministic, and classification, not ownership,
    decides where they may actually cache).
    """

    n_shards: int
    #: shard id -> cloudlet node ids, in network (compile-column) order.
    cloudlets: Mapping[int, Tuple[int, ...]]
    #: cloudlet node id -> owning shard.
    shard_of_cloudlet: Mapping[int, int]
    #: every network node id -> owning shard (delta-routing key).
    owner: Mapping[int, int]
    #: shard id -> the region ids it covers (diagnostics / reports).
    regions: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(range(self.n_shards))

    def __repr__(self) -> str:
        sizes = ",".join(
            str(len(self.cloudlets[s])) for s in self.shard_ids
        )
        return f"MarketPartition(shards={self.n_shards}, cloudlets=[{sizes}])"


@dataclass(frozen=True)
class ShardClassification:
    """Interior/boundary split of the current population (see module doc)."""

    #: shard id -> interior provider ids, ascending.
    interior: Mapping[int, Tuple[int, ...]]
    #: providers whose feasible mask spans more than one shard, ascending.
    boundary: Tuple[int, ...]
    #: providers with no feasible cloudlet at all, ascending.
    unreachable: Tuple[int, ...]
    #: interior provider id -> its single feasible shard.
    interior_shard: Mapping[int, int]
    #: shard id -> the boundary providers whose feasible mask touches
    #: that shard, ascending: the only boundary rows its view can price.
    boundary_reach: Mapping[int, Tuple[int, ...]]


def partition_market(
    market: "ServiceMarket", n_shards: Optional[int] = None
) -> MarketPartition:
    """Partition the market's cloudlets by transit-stub region.

    Each region that hosts at least one cloudlet becomes a shard; with
    ``n_shards`` given, the (sorted) region list is coalesced into that
    many contiguous blocks, keeping neighbouring region ids together.
    """
    regions = region_map(market.network)
    cl_nodes = [cl.node_id for cl in market.network.cloudlets]
    if not cl_nodes:
        raise ConfigurationError("cannot partition a market with no cloudlets")
    by_region: Dict[int, List[int]] = {}
    for node in cl_nodes:  # network order within each region
        by_region.setdefault(regions[node], []).append(node)
    region_ids = sorted(by_region)
    k = len(region_ids)
    if n_shards is not None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        k = min(n_shards, len(region_ids))
    # Coalescing order is a BFS over the region *adjacency* graph, not the
    # region-id sequence: contiguous blocks of the BFS order group regions
    # that are topologically close, so a provider whose latency-budget mask
    # spans two neighbouring regions usually lands interior to one shard
    # instead of on the boundary (fewer boundary providers = cheaper
    # reconciliation). Deterministic: BFS seeds and neighbour visits are in
    # ascending region-id order.
    order = _region_bfs_order(market.network, regions, region_ids)
    shard_of_region = {
        r: (i * k) // len(region_ids) for i, r in enumerate(order)
    }
    # Shard column order preserves the *global* compile-column order (not
    # region-major concatenation): the batch kernel breaks argmin ties by
    # first minimum, so a sub-view with permuted columns could settle exact
    # ties differently from the global engine and break the single-shard
    # bit-identical lockdown.
    col_order = {node: j for j, node in enumerate(cl_nodes)}
    cloudlets: Dict[int, Tuple[int, ...]] = {s: () for s in range(k)}
    shard_regions: Dict[int, Tuple[int, ...]] = {s: () for s in range(k)}
    grouped: Dict[int, List[int]] = {s: [] for s in range(k)}
    for r in region_ids:
        s = shard_of_region[r]
        grouped[s].extend(by_region[r])
        shard_regions[s] = shard_regions[s] + (r,)
    for s in range(k):
        cloudlets[s] = tuple(sorted(grouped[s], key=col_order.__getitem__))
    shard_of_cloudlet = {
        node: s for s, nodes in cloudlets.items() for node in nodes
    }
    #: Regions without cloudlets fall back to shard 0 (documented above).
    owner = {
        node: shard_of_region.get(regions[node], 0)
        for node in market.network.graph.nodes
    }
    return MarketPartition(
        n_shards=k,
        cloudlets=cloudlets,
        shard_of_cloudlet=shard_of_cloudlet,
        owner=owner,
        regions=shard_regions,
    )


def _region_bfs_order(
    network: object, regions: Mapping[int, int], region_ids: Sequence[int]
) -> List[int]:
    """``region_ids`` re-ordered by a BFS over the region adjacency graph.

    Two regions are adjacent when any network edge crosses between them;
    the BFS runs over *all* regions (cloudlet-less ones still transmit
    proximity) and the result filters to ``region_ids`` in visit order.
    Seeds and neighbour visits ascend by region id, so the order is a
    pure function of the topology.
    """
    g = getattr(network, "graph", network)
    adjacency: Dict[int, set] = {r: set() for r in set(regions.values())}
    for u, v in g.edges:
        ru, rv = regions[u], regions[v]
        if ru != rv:
            adjacency[ru].add(rv)
            adjacency[rv].add(ru)
    visited: List[int] = []
    seen = set()
    for seed in sorted(adjacency):
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        while queue:
            r = queue.pop(0)
            visited.append(r)
            for nb in sorted(adjacency[r]):
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    wanted = set(region_ids)
    return [r for r in visited if r in wanted]


def classify_providers(
    compiled: CompiledMarket, partition: MarketPartition
) -> ShardClassification:
    """Interior/boundary/unreachable split from the compiled ``fixed`` mask.

    A provider is interior to shard ``s`` when every finite entry of its
    ``fixed`` row (the latency-budget-masked congestion-free costs) lies
    in ``s``'s cloudlet columns. The mask is read through
    ``active_rows``, so the split is delta-safe.
    """
    shard_of_col = np.fromiter(
        (partition.shard_of_cloudlet[node] for node in compiled.cloudlet_nodes),
        dtype=np.int64,
        count=len(compiled.cloudlet_nodes),
    )
    rows = compiled.active_rows
    feasible = np.isfinite(compiled.fixed[rows]) if len(rows) else np.zeros(
        (0, compiled.n_cloudlets), dtype=bool
    )
    # (n, n_shards) touch matrix: does provider i reach any cloudlet of s?
    touched = np.zeros((len(rows), partition.n_shards), dtype=bool)
    for s in range(partition.n_shards):
        cols = np.flatnonzero(shard_of_col == s)
        if cols.size:
            touched[:, s] = feasible[:, cols].any(axis=1)
    counts = touched.sum(axis=1)

    # Boundary reach per shard, without a per-provider scan: the nonzeros
    # of the boundary block of ``touched``, transposed, come out grouped
    # by shard and ascending by row (= ascending provider id) within it.
    ids = np.asarray(compiled.provider_ids, dtype=np.int64)
    boundary_ids = ids[counts > 1]
    reach = touched[counts > 1].T
    per_shard = np.split(
        boundary_ids[np.nonzero(reach)[1]], np.cumsum(reach.sum(axis=1))[:-1]
    )
    boundary_reach = {
        s: tuple(pids.tolist()) for s, pids in enumerate(per_shard)
    }

    home = touched.argmax(axis=1)
    interior: Dict[int, List[int]] = {s: [] for s in partition.shard_ids}
    interior_shard: Dict[int, int] = {}
    unreachable: List[int] = []
    for i, pid in enumerate(compiled.provider_ids):  # ascending id order
        if counts[i] == 0:
            unreachable.append(pid)
        elif counts[i] == 1:
            s = int(home[i])
            interior[s].append(pid)
            interior_shard[pid] = s
    return ShardClassification(
        interior={s: tuple(pids) for s, pids in interior.items()},
        boundary=tuple(boundary_ids.tolist()),
        unreachable=tuple(unreachable),
        interior_shard=interior_shard,
        boundary_reach=boundary_reach,
    )


def shard_view(
    compiled: CompiledMarket,
    partition: MarketPartition,
    shard_id: int,
    classification: ShardClassification,
) -> CompiledMarket:
    """One shard's self-contained :class:`CompiledMarket` sub-view.

    Rows: the shard's interior providers plus the boundary providers
    whose feasible mask reaches it (``classification.boundary_reach``),
    ascending id order. A placed provider outside those rows has no
    finite cost anywhere in the shard, so the view cannot price it; the
    settle loop rejects such a placement instead of dropping it.
    Columns: the shard's cloudlets in global column order. Every table
    entry is a fancy-indexed *copy* of the global entry — bit-equal, and
    safely picklable to a worker without aliasing the parent arrays. The
    congestion prefix ``g`` is cut to ``len(rows) + 1``: a sub-game over
    these rows never reaches a higher occupancy, and its ``coeff * g``
    products are the global ``shared`` entries bit for bit. The view is
    shipped as a runtime blob named by the SHA-256 of its pickled bytes,
    so a worker's per-process blob cache can only ever return the bytes
    it was asked for: a view whose tables changed gets a new name, and an
    unchanged one is fetched once.
    """
    if shard_id not in partition.cloudlets:
        raise ConfigurationError(f"unknown shard id {shard_id}")
    pids = sorted(
        classification.interior.get(shard_id, ())
        + classification.boundary_reach.get(shard_id, ())
    )
    col_nodes = list(partition.cloudlets[shard_id])
    if not col_nodes:
        raise ConfigurationError(f"shard {shard_id} has no cloudlets")
    rows = [compiled.provider_index[pid] for pid in pids]
    cols = [compiled.cloudlet_index[node] for node in col_nodes]
    if rows:
        sub = np.ix_(rows, cols)
        fixed = compiled.fixed[sub]
        access = compiled.access[sub]
        update = compiled.update[sub]
        user_delay = compiled.user_delay[sub]
        instantiation = compiled.instantiation[rows]
        remote = compiled.remote[rows]
        demand = compiled.demand[rows]
    else:
        m = len(cols)
        fixed = np.empty((0, m))
        access = np.empty((0, m))
        update = np.empty((0, m))
        user_delay = np.empty((0, m))
        instantiation = np.empty(0)
        remote = np.empty(0)
        demand = np.empty((0, 2))
    return CompiledMarket(
        provider_ids=list(pids),
        cloudlet_nodes=col_nodes,
        fixed=fixed,
        instantiation=instantiation,
        access=access,
        update=update,
        coeff=compiled.coeff[cols],
        g=compiled.g[: len(rows) + 1].copy(),
        demand=demand,
        capacity=compiled.capacity[cols],
        remote=remote,
        user_delay=user_delay,
        congestion=compiled.congestion,
    )


# --------------------------------------------------------------------- #
# The replication log
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardDelta:
    """One shard's slice of a global delta, stamped with its sequence
    number. Replay rule: ascending ``(seq, shard_id)``; deltas sharing a
    ``seq`` touch disjoint state and commute."""

    shard_id: int
    seq: int
    delta: MarketDelta

    def to_payload(self) -> dict:
        """A JSON-serialisable record (journal line)."""
        d = self.delta
        return {
            "shard_id": self.shard_id,
            "seq": self.seq,
            "arrivals": [_provider_payload(p) for p in d.arrivals],
            "departures": list(d.departures),
            "capacity_changes": {
                str(node): list(v) for node, v in d.capacity_changes.items()
            },
            "price_changes": {
                str(node): list(v) for node, v in d.price_changes.items()
            },
            "outages": list(d.outages),
            "recoveries": list(d.recoveries),
        }

    @staticmethod
    def from_payload(payload: Mapping) -> "ShardDelta":
        delta = MarketDelta(
            arrivals=tuple(
                _provider_from_payload(p) for p in payload["arrivals"]
            ),
            departures=tuple(payload["departures"]),
            capacity_changes={
                int(node): tuple(v)
                for node, v in payload["capacity_changes"].items()
            },
            price_changes={
                int(node): tuple(v)
                for node, v in payload["price_changes"].items()
            },
            outages=tuple(payload["outages"]),
            recoveries=tuple(payload["recoveries"]),
        )
        return ShardDelta(
            shard_id=int(payload["shard_id"]),
            seq=int(payload["seq"]),
            delta=delta,
        )


def _provider_payload(p: ServiceProvider) -> dict:
    svc = p.service
    return {
        "provider_id": p.provider_id,
        "name": p.name,
        "coordinated": p.coordinated,
        "service": {
            "service_id": svc.service_id,
            "requests": svc.requests,
            "compute_per_request": svc.compute_per_request,
            "bandwidth_per_request": svc.bandwidth_per_request,
            "data_volume_gb": svc.data_volume_gb,
            "home_dc": svc.home_dc,
            "user_node": svc.user_node,
            "user_clusters": (
                [list(c) for c in svc.user_clusters]
                if svc.user_clusters is not None
                else None
            ),
            "update_ratio": svc.update_ratio,
            "sync_frequency": svc.sync_frequency,
            "request_traffic_gb": svc.request_traffic_gb,
            "instantiation_cost": svc.instantiation_cost,
        },
    }


def _provider_from_payload(payload: Mapping) -> ServiceProvider:
    svc = dict(payload["service"])
    if svc.get("user_clusters") is not None:
        svc["user_clusters"] = tuple(tuple(c) for c in svc["user_clusters"])
    return ServiceProvider(
        provider_id=int(payload["provider_id"]),
        service=Service(**svc),
        name=payload.get("name", ""),
        coordinated=bool(payload.get("coordinated", False)),
    )


def route_delta(
    delta: MarketDelta,
    partition: MarketPartition,
    seq: int,
    owners: Mapping[int, int],
) -> Tuple[ShardDelta, ...]:
    """Split one global delta into per-shard sub-deltas.

    Arrivals route to the shard owning the service's user node;
    departures to the recorded owner of the departing provider
    (``owners``, maintained by :class:`ShardLog`); capacity/price/outage
    events to the affected cloudlet's shard. Only non-empty sub-deltas
    are returned, in ascending shard-id order.
    """
    arrivals: Dict[int, List[ServiceProvider]] = {}
    departures: Dict[int, List[int]] = {}
    cap: Dict[int, Dict[int, Tuple[float, float]]] = {}
    price: Dict[int, Dict[int, Tuple[float, float]]] = {}
    out: Dict[int, List[int]] = {}
    rec: Dict[int, List[int]] = {}
    for p in delta.arrivals:
        s = partition.owner[p.service.user_node]
        arrivals.setdefault(s, []).append(p)
    for pid in delta.departures:
        try:
            s = owners[pid]
        except KeyError:
            raise ConfigurationError(
                f"departing provider {pid} has no recorded shard owner"
            ) from None
        departures.setdefault(s, []).append(pid)
    for node, v in delta.capacity_changes.items():
        cap.setdefault(partition.shard_of_cloudlet[node], {})[node] = v
    for node, v in delta.price_changes.items():
        price.setdefault(partition.shard_of_cloudlet[node], {})[node] = v
    for node in delta.outages:
        out.setdefault(partition.shard_of_cloudlet[node], []).append(node)
    for node in delta.recoveries:
        rec.setdefault(partition.shard_of_cloudlet[node], []).append(node)

    routed: List[ShardDelta] = []
    touched = sorted(
        set(arrivals) | set(departures) | set(cap) | set(price)
        | set(out) | set(rec)
    )
    for s in touched:
        routed.append(
            ShardDelta(
                shard_id=s,
                seq=seq,
                delta=MarketDelta(
                    arrivals=tuple(arrivals.get(s, ())),
                    departures=tuple(departures.get(s, ())),
                    capacity_changes=cap.get(s, {}),
                    price_changes=price.get(s, {}),
                    outages=tuple(out.get(s, ())),
                    recoveries=tuple(rec.get(s, ())),
                ),
            )
        )
    return tuple(routed)


class ShardLog:
    """The sequence-numbered per-shard replication log.

    Owns the provider -> shard ownership map (seeded from the initial
    population, updated on every arrival/departure so departures route to
    the shard that received the matching arrival) and the monotone
    sequence counter. With a journal attached, each global delta that
    routes anywhere is durably appended (flushed + fsynced) as one
    journal record keyed ``(seq,)``, holding the payloads of all its
    sub-deltas, *before* :meth:`append` returns — the shard equilibria
    that consume the delta only ever run after the log entry is on disk,
    which is what makes a crashed run resumable by :meth:`replay`. One
    record per sequence number makes a delta durable all or nothing: a
    torn tail loses a whole global delta, never part of one.
    """

    def __init__(
        self,
        partition: MarketPartition,
        providers: Sequence[ServiceProvider] = (),
        journal: Optional["CheckpointJournal"] = None,
    ) -> None:
        self.partition = partition
        self.journal = journal
        self._owners: Dict[int, int] = {
            p.provider_id: partition.owner[p.service.user_node]
            for p in providers
        }
        self._seq = 0

    @property
    def seq(self) -> int:
        """The sequence number of the last appended global delta."""
        return self._seq

    def owner_of(self, provider_id: int) -> int:
        return self._owners[provider_id]

    def append(self, delta: MarketDelta) -> Tuple[ShardDelta, ...]:
        """Route one global delta, journal it, and advance the sequence."""
        self._seq += 1
        routed = route_delta(delta, self.partition, self._seq, self._owners)
        for p in delta.arrivals:
            self._owners[p.provider_id] = self.partition.owner[
                p.service.user_node
            ]
        for pid in delta.departures:
            self._owners.pop(pid, None)
        if self.journal is not None and routed:
            self.journal.record(
                (self._seq,), [sd.to_payload() for sd in routed]
            )
        return routed

    @staticmethod
    def replay(journal: "CheckpointJournal") -> List[ShardDelta]:
        """All journaled sub-deltas in replay order (``(seq, shard_id)``
        ascending) — the crash-consistent resume stream.

        Reads both record layouts: one record per global delta, keyed
        ``(seq,)`` with a list of sub-delta payloads, and the older one
        record per sub-delta, keyed ``(seq, shard_id)``. Each
        ``(seq, shard_id)`` is yielded once; where records overlap, the
        one :meth:`~repro.runtime.journal.CheckpointJournal.load` yields
        later wins, as a re-recorded key does there.
        """
        payloads: Dict[Tuple[int, int], Mapping] = {}
        for key, value in journal.load().items():
            batch = value if len(key) == 1 else [value]
            for payload in cast(List[Mapping], batch):
                sid = (int(payload["seq"]), int(payload["shard_id"]))
                payloads[sid] = payload
        return [
            ShardDelta.from_payload(payloads[sid]) for sid in sorted(payloads)
        ]


__all__ = [
    "MarketPartition",
    "ShardClassification",
    "ShardDelta",
    "ShardLog",
    "classify_providers",
    "partition_market",
    "route_delta",
    "shard_view",
]
