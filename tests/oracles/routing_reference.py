"""Reference routing table: one networkx Dijkstra and one BFS per source.

:class:`ReferenceRoutingTable` is the library's original
:class:`~repro.network.routing.RoutingTable`, kept verbatim as the oracle
the csgraph-backed table is tested against. It runs
``nx.single_source_dijkstra_path_length`` and
``nx.single_source_shortest_path_length`` on first touch of a source and
memoises each result as a ``{node: value}`` dict; unreachable nodes are
absent from a row.

Both tables sum link delays from the source outwards and answer an
undirected ``(u, v)`` from a cached row of ``u`` before one of ``v``, so
every delay, hop count and per-pair answer agrees bit for bit
(``tests/network/test_routing_equivalence.py``). Its rows are dicts;
:class:`ArrayRowReference` lays the same values out as arrays in graph node
order, so the market compiler, which gathers rows by node position, can be
run on networkx routing too.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

import networkx as nx
import numpy as np

from repro.exceptions import TopologyError

#: Row value type: delay rows hold floats, hop rows hold ints.
_V = TypeVar("_V", float, int)


class ReferenceRoutingTable:
    """Shortest-path oracle over a delay-weighted graph.

    Per-source distance rows (sum of ``weight`` = link delay) and hop-count
    rows (unweighted BFS) are computed lazily on first use and memoised;
    explicit paths are memoised per pair. Query results are identical to an
    eager all-pairs computation — laziness only changes when the Dijkstra
    runs happen.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("cannot build a routing table for an empty graph")
        self._graph = graph
        self._symmetric = not graph.is_directed()
        self._delay_rows: Dict[int, Dict[int, float]] = {}
        self._hop_rows: Dict[int, Dict[int, int]] = {}
        self._path_cache: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------ #
    # Row computation
    # ------------------------------------------------------------------ #
    def _delay_row(self, u: int) -> Dict[int, float]:
        row = self._delay_rows.get(u)
        if row is None:
            if u not in self._graph:
                raise TopologyError(f"unknown node {u}")
            row = dict(
                nx.single_source_dijkstra_path_length(self._graph, u, weight="weight")
            )
            self._delay_rows[u] = row
        return row

    def _hop_row(self, u: int) -> Dict[int, int]:
        row = self._hop_rows.get(u)
        if row is None:
            if u not in self._graph:
                raise TopologyError(f"unknown node {u}")
            row = dict(nx.single_source_shortest_path_length(self._graph, u))
            self._hop_rows[u] = row
        return row

    def _lookup(
        self,
        rows: Dict[int, Dict[int, _V]],
        compute_row: Callable[[int], Dict[int, _V]],
        u: int,
        v: int,
    ) -> Optional[_V]:
        """Answer ``(u, v)`` from a cached row of ``u`` or — on undirected
        graphs — of ``v``; otherwise compute the row for ``v`` (the
        destination side is the small node set under the cost model's
        query pattern: cloudlets and data centers)."""
        row = rows.get(u)
        if row is not None:
            return row.get(v)
        if self._symmetric:
            row = rows.get(v)
            if row is None:
                row = compute_row(v)
            return row.get(u) if u in self._graph else None
        return compute_row(u).get(v)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def delay_row(self, u: int) -> Dict[int, float]:
        """The full single-source delay row ``{node: delay_ms}`` of ``u``.

        Bulk consumers (e.g. the market compiler) gather whole rows instead
        of issuing per-pair queries; values are the memoised Dijkstra
        results :meth:`path_delay` serves from. Treat the dict as
        read-only.
        """
        return self._delay_row(u)

    def hop_row(self, u: int) -> Dict[int, int]:
        """The full single-source hop-count row ``{node: hops}`` of ``u``
        (same memoised BFS results as :meth:`hop_count`; read-only)."""
        return self._hop_row(u)

    def path_delay(self, u: int, v: int) -> float:
        """Total delay (ms) along the min-delay path; 0 when ``u == v``."""
        d = self._lookup(self._delay_rows, self._delay_row, u, v)
        if d is None:
            raise TopologyError(f"no path between {u} and {v}")
        return d

    def hop_count(self, u: int, v: int) -> int:
        """Hop count of the unweighted shortest path; 0 when ``u == v``."""
        h = self._lookup(self._hop_rows, self._hop_row, u, v)
        if h is None:
            raise TopologyError(f"no path between {u} and {v}")
        return h

    def shortest_path(self, u: int, v: int) -> List[int]:
        """Node sequence of the min-delay path ``u → v`` (inclusive)."""
        key = (u, v)
        if key not in self._path_cache:
            try:
                path = nx.dijkstra_path(self._graph, u, v, weight="weight")
            except nx.NetworkXNoPath:
                raise TopologyError(f"no path between {u} and {v}") from None
            except nx.NodeNotFound as exc:
                raise TopologyError(str(exc)) from None
            self._path_cache[key] = path
        return list(self._path_cache[key])

    def eccentricity(self, u: int) -> float:
        """Max delay from ``u`` to any reachable node."""
        return max(self._delay_row(u).values())

    def diameter(self) -> float:
        """Max delay between any node pair (delay-weighted diameter)."""
        return max(self.eccentricity(u) for u in self._graph.nodes)


class ArrayRowReference(ReferenceRoutingTable):
    """:class:`ReferenceRoutingTable` behind the library's array-row surface.

    ``delay_row`` / ``hop_row`` return the reference's dict rows re-laid as
    float64 arrays indexed by graph node order (``inf`` where a node is
    unreachable), and ``index_of`` maps nodes to those positions. The values
    are the networkx ones, copied exactly; only the layout changes.
    """

    def __init__(self, graph: nx.Graph) -> None:
        super().__init__(graph)
        self._nodes = list(graph.nodes)
        self._pos = {n: i for i, n in enumerate(self._nodes)}

    def index_of(self, nodes: Iterable[int]) -> np.ndarray:
        try:
            return np.array([self._pos[n] for n in nodes], dtype=np.intp)
        except KeyError as exc:
            raise TopologyError(f"unknown node {exc.args[0]}") from None

    def _as_array(self, row: Dict[int, _V]) -> np.ndarray:
        return np.array([row.get(n, math.inf) for n in self._nodes], dtype=np.float64)

    def solve_rows(self, nodes: Iterable[int], unweighted: bool) -> None:
        """Memoise the rows of ``nodes``, one networkx solve per row."""
        solve = self._hop_row if unweighted else self._delay_row
        for u in nodes:
            solve(u)

    def delay_row(self, u: int) -> np.ndarray:
        return self._as_array(super().delay_row(u))

    def hop_row(self, u: int) -> np.ndarray:
        return self._as_array(super().hop_row(u))


__all__ = ["ArrayRowReference", "ReferenceRoutingTable"]
