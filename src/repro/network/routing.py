"""Shortest-path routing with lazily computed per-source distance rows.

The cost model turns network distance into bandwidth cost (a cached instance
must synchronise updates back to its home data center, Section II.C), so
distance queries are on the hot path of every algorithm. An eager all-pairs
computation is wasted work, though: the queried sources are almost entirely
user, cloudlet and data-center nodes, so rows are solved on demand.

The table builds one CSR adjacency (link delays as weights) when it is
constructed. Undirected graphs store both directions, so every solve runs
directed and skips a per-call symmetrisation; explicit zeros are kept,
because a zero-delay link is still a link. The first touch of a source runs
one :func:`scipy.sparse.csgraph.dijkstra` from it (the delay row) or one
unweighted solve (the hop row), and memoises the result as a read-only
float64 array indexed by node position (:meth:`RoutingTable.index_of`);
unreachable nodes read ``inf``. Delays are summed from the source outwards,
exactly as networkx's Dijkstra sums them, so every entry is bit-equal to
the networkx result. Undirected graphs additionally answer ``(u, v)`` from
a cached row of either endpoint (distances are symmetric), which keeps the
row set small when the query pattern is many-sources-to-few-destinations.

The market compiler leans on that symmetry for hops: it stacks the hop rows
of the cloudlet nodes into one ``(nodes, cloudlets)`` block and reads every
endpoint's hops to the cloudlets off it, so new users cost no hop solve, and
remote pricing's hop lookups resolve from the home data centers' rows. Hop
counts are integers, so the cloudlet-side read is exact. Delay rows stay
source-side, one per user endpoint: a float sum taken from the other end
can differ in the last bit. A compile or a delta knows every row it will
read up front, so it solves the missing ones per metric in one multi-source
call (:meth:`RoutingTable.solve_rows`) and then reads them through
``hop_row`` / ``delay_row`` as memo hits; a row of a multi-source solve is
bit-equal to its single-source solve.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from repro.exceptions import TopologyError


class RoutingTable:
    """Shortest-path oracle over a delay-weighted graph.

    Per-source distance rows (sum of ``weight`` = link delay) and hop-count
    rows (unweighted shortest paths) are computed lazily on first use and
    memoised; explicit paths are memoised per pair. Query results are
    identical to an eager all-pairs computation — laziness only changes
    when the Dijkstra runs happen.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("cannot build a routing table for an empty graph")
        if graph.is_multigraph():
            raise TopologyError("cannot build a routing table for a multigraph")
        self._graph = graph
        self._symmetric = not graph.is_directed()
        self._pos: Dict[int, int] = {node: i for i, node in enumerate(graph.nodes)}
        src: List[int] = []
        dst: List[int] = []
        weights: List[float] = []
        for u, v, w in graph.edges(data="weight", default=1):
            i, j = self._pos[u], self._pos[v]
            if i == j:
                continue  # a non-negative self-loop never shortens a path
            src.append(i)
            dst.append(j)
            weights.append(w)
            if self._symmetric:
                src.append(j)
                dst.append(i)
                weights.append(w)
        n = len(self._pos)
        self._csr = csr_array(
            (np.array(weights, dtype=np.float64), (src, dst)), shape=(n, n)
        )
        self._delay_rows: Dict[int, np.ndarray] = {}
        self._hop_rows: Dict[int, np.ndarray] = {}
        self._path_cache: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------ #
    # Row computation
    # ------------------------------------------------------------------ #
    def solve_rows(self, nodes: Iterable[int], unweighted: bool) -> None:
        """Memoise the delay rows of ``nodes``, or with ``unweighted`` their
        hop rows: the missing ones come from one multi-source solve.

        Each row is the same read-only array a single-source solve would
        memoise, bit for bit; already memoised rows are not solved again.
        """
        rows = self._hop_rows if unweighted else self._delay_rows
        missing = [u for u in dict.fromkeys(nodes) if u not in rows]
        if not missing:
            return
        block = dijkstra(
            self._csr, directed=True, indices=self.index_of(missing),
            unweighted=unweighted,
        )
        block.setflags(write=False)
        rows.update(zip(missing, block))

    def _row(self, u: int, unweighted: bool) -> np.ndarray:
        """The memoised delay row of ``u``, or with ``unweighted`` its hop
        row; solved on first touch."""
        rows = self._hop_rows if unweighted else self._delay_rows
        if u not in rows:
            self.solve_rows([u], unweighted)
        return rows[u]

    def _entry(self, row: np.ndarray, v: int) -> Optional[float]:
        """``row``'s value at node ``v``; None if ``v`` is unknown or
        unreachable."""
        j = self._pos.get(v)
        if j is None:
            return None
        d = float(row[j])
        return None if d == math.inf else d

    def _lookup(self, unweighted: bool, u: int, v: int) -> Optional[float]:
        """Answer ``(u, v)`` from a cached row of ``u`` or — on undirected
        graphs — of ``v``; otherwise compute the row for ``v`` (the
        destination side is the small node set under the cost model's
        query pattern: cloudlets and data centers)."""
        row = (self._hop_rows if unweighted else self._delay_rows).get(u)
        if row is not None:
            return self._entry(row, v)
        if self._symmetric:
            return self._entry(self._row(v, unweighted), u)
        return self._entry(self._row(u, unweighted), v)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def index_of(self, nodes: Iterable[int]) -> np.ndarray:
        """Row positions of ``nodes``: ``delay_row(u)[index_of([v])[0]]``
        is the delay ``u → v``."""
        try:
            return np.array([self._pos[n] for n in nodes], dtype=np.intp)
        except KeyError as exc:
            raise TopologyError(f"unknown node {exc.args[0]}") from None

    def delay_row(self, u: int) -> np.ndarray:
        """The full single-source delay row of ``u`` (ms), indexed by node
        position (:meth:`index_of`); ``inf`` marks unreachable nodes.

        Bulk consumers (e.g. the market compiler) gather whole rows instead
        of issuing per-pair queries; values are the memoised Dijkstra
        results :meth:`path_delay` serves from. The array is read-only.
        """
        return self._row(u, unweighted=False)

    def hop_row(self, u: int) -> np.ndarray:
        """The full single-source hop-count row of ``u`` (same layout and
        memoised solves as :meth:`hop_count`; read-only)."""
        return self._row(u, unweighted=True)

    def path_delay(self, u: int, v: int) -> float:
        """Total delay (ms) along the min-delay path; 0 when ``u == v``."""
        d = self._lookup(False, u, v)
        if d is None:
            raise TopologyError(f"no path between {u} and {v}")
        return d

    def hop_count(self, u: int, v: int) -> int:
        """Hop count of the unweighted shortest path; 0 when ``u == v``."""
        h = self._lookup(True, u, v)
        if h is None:
            raise TopologyError(f"no path between {u} and {v}")
        return int(h)

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
        row = self._row(u, unweighted=False)
        return float(row[np.isfinite(row)].max())

    def diameter(self) -> float:
        """Max delay between any node pair (delay-weighted diameter)."""
        return max(self.eccentricity(u) for u in self._graph.nodes)


__all__ = ["RoutingTable"]
