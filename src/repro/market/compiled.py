"""The compiled (array-backed) instance representation of a market.

Every algorithm layer in the library consumes the same instance data —
fixed caching costs (Eq. 3's ``c_l^ins + c_i^bdw``), per-cloudlet
congestion charges ``(alpha_i + beta_i) * g(k)``, provider demand vectors
and cloudlet capacity vectors. :class:`CompiledMarket` is the one
structure-of-arrays all of them read: Appro's GAP build (Eq. 9) and
capacity repair, the baselines' admission, ``optimal``'s fixed-cost table,
the game engine's tables and the dynamic simulation's billing. It is the
only instance representation the algorithms run on.

It is built exactly once per market (``ServiceMarket.compile()`` caches it
on the instance) by evaluating the cost model's own methods, so every table
entry is **bit-equal** to the object-graph evaluation. The object-graph
versions of the algorithms live on as test oracles
(``tests/oracles/object_graph_reference.py``), and
``tests/integration/test_compiled_equivalence.py`` pins the two to the same
placements and social costs, bit for bit.

It is also a *live* structure: when the market changes — providers arrive
or depart, capacities or congestion prices move — a
:class:`~repro.market.delta.MarketDelta` applied through
``ServiceMarket.apply()`` patches only the affected rows via
:meth:`CompiledMarket.apply_delta` (tombstoned rows are recycled and the
tables periodically compacted), so a churning population never pays a full
recompile. Consumers therefore must address rows through ``provider_index``
or :attr:`CompiledMarket.active_rows` rather than assume row ``i`` is the
``i``-th provider in id order; after any delta the gathered view is
per-entry equal to a from-scratch ``compile()``, which
``tests/dynamics/test_delta_equivalence.py`` pins over long churn traces.

The blob is deliberately self-contained (plain numpy arrays, id↔index
dicts, and a picklable :class:`~repro.market.costs.CongestionFunction`):
it carries no reference back to the market, network, or cost model, so it
pickles cheaply and can cross a process-pool boundary — the parallel sweep
harness ships precompiled markets to workers instead of rebuilding them
per task (see :mod:`repro.experiments.parallel`).

Summation order matters for bit-equality: :meth:`social_cost` gathers the
per-provider terms with one vectorised table lookup but folds them
left-to-right in placement order, exactly like
:meth:`~repro.market.costs.CostModel.social_cost` does, so the two paths
return the same float, not merely the same value within tolerance.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.market.costs import CongestionFunction
from repro.utils.contracts import invariants_active, sanitize_active
from repro.utils.validation import CAPACITY_EPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (market imports us)
    from repro.market.delta import MarketDelta
    from repro.market.market import ServiceMarket
    from repro.market.service import ServiceProvider

#: Tombstoned rows tolerated before :meth:`CompiledMarket.compact` fires
#: (beyond one full active population's worth).
COMPACTION_SLACK = 16

class _RowBlock(NamedTuple):
    """A block of providers' rows of the per-provider tables (the fields
    are named after the :class:`CompiledMarket` tables they fill)."""

    instantiation: np.ndarray  # (k,)
    remote: np.ndarray  # (k,)
    demand: np.ndarray  # (k, 2)
    access: np.ndarray  # (k, m)
    update: np.ndarray  # (k, m)
    user_delay: np.ndarray  # (k, m)
    fixed: np.ndarray  # (k, m)


class _ProviderRowBuilder:
    """Evaluates a block of providers' table rows from the market's cost model.

    Shared by :meth:`CompiledMarket.from_market` (every provider at build
    time) and :meth:`CompiledMarket.apply_delta` (a delta's arrivals), so a
    delta-patched row is bit-equal to the row a fresh compile would have
    produced — same operand order, same memoised routing rows.

    Hop counts come from one ``(nodes, cloudlets)`` block whose column
    ``j`` is cloudlet ``j``'s hop row: hop counts are integers and network
    graphs are undirected, so ``hops(u → c) == hop_row(c)[u]`` exactly, and
    one row per cloudlet serves every endpoint. Delays are float sums whose
    last bit depends on the direction they are summed in, so they stay
    source-side: one delay row per distinct cluster or user node.

    :meth:`build` first solves every row it will read that the network's
    routing table has not memoised yet — the cloudlet and home-DC hop rows
    and the distinct delay endpoints — in one
    :meth:`~repro.network.routing.RoutingTable.solve_rows` call per metric,
    then reads them through ``hop_row`` / ``delay_row`` as memo hits.

    Multi-cluster services fold rank by rank: rank ``r`` adds every
    provider's ``r``-th cluster term with the same elementwise operations,
    in the same order, as the per-cluster loop of the scalar cost model.
    """

    def __init__(self, market: "ServiceMarket") -> None:
        model = self.model = market.cost_model
        self.routing = market.network.routing
        cloudlets = market.network.cloudlets
        self.transmit = model.pricing.transmit_per_gb
        self.surcharge = model.pricing.hop_surcharge
        self.budget = model.latency_budget_ms
        self.bdw_units = np.array([cl.bdw_unit_cost for cl in cloudlets], dtype=float)
        self._cl_nodes = [cl.node_id for cl in cloudlets]
        self._cl_idx = self.routing.index_of(self._cl_nodes)

    def _delays(self, nodes: List[int]) -> np.ndarray:
        """``(len(nodes), m)`` delays to the cloudlets, one memoised
        source-side row per distinct node."""
        slot = {u: i for i, u in enumerate(dict.fromkeys(nodes))}
        block = np.array(
            [self.routing.delay_row(u)[self._cl_idx] for u in slot], dtype=float
        ).reshape(len(slot), len(self._cl_idx))
        return block[[slot[u] for u in nodes]]

    def build(self, providers: Sequence["ServiceProvider"]) -> _RowBlock:
        k, m = len(providers), len(self._cl_idx)
        services = [p.service for p in providers]
        clusters = [svc.clusters for svc in services]
        # Remote pricing asks hops(cluster → home DC), so the home DCs' hop
        # rows are solved with the cloudlets' and the cost model's lookups
        # read a memoised row.
        self.routing.solve_rows(
            self._cl_nodes + [svc.home_dc for svc in services], unweighted=True
        )
        delay_nodes = [svc.user_node for svc in services]
        if self.budget is not None:
            delay_nodes += [node for cs in clusters for node, _ in cs]
        self.routing.solve_rows(delay_nodes, unweighted=False)
        cl_hops = np.stack(
            [self.routing.hop_row(node) for node in self._cl_nodes], axis=1
        )
        instantiation = np.array(
            [self.model.instantiation_cost(p) for p in providers], dtype=float
        )
        remote = np.array([self.model.remote_cost(p) for p in providers], dtype=float)
        demand = np.array(
            [(p.compute_demand, p.bandwidth_demand) for p in providers], dtype=float
        ).reshape(k, 2)

        # access_cost: per-cluster transmission charges, folded in cluster
        # order — volume * price * (1 + surcharge * hops).
        traffic = np.array([svc.request_traffic_gb for svc in services], dtype=float)
        access = np.zeros((k, m), dtype=float)
        access_delay = np.zeros((k, m), dtype=float) if self.budget is not None else None
        for rank in range(max(map(len, clusters), default=0)):
            live = [i for i, cs in enumerate(clusters) if len(cs) > rank]
            nodes = [clusters[i][rank][0] for i in live]
            weight = np.array([clusters[i][rank][1] for i in live], dtype=float)
            volume_price = (traffic[live] * weight) * self.transmit
            hops = cl_hops[self.routing.index_of(nodes)]
            access[live] = access[live] + volume_price[:, None] * (
                1.0 + self.surcharge * hops
            )
            if access_delay is not None:
                dly = weight[:, None] * self._delays(nodes)
                access_delay[live] = access_delay[live] + dly

        # update_cost: cloudlet bandwidth charge plus the hop-scaled
        # consistency-update transit back to the home data center.
        vol = np.array([svc.update_volume_gb for svc in services], dtype=float)
        dc_hops = cl_hops[self.routing.index_of([svc.home_dc for svc in services])]
        transit = (vol * self.transmit)[:, None] * (1.0 + self.surcharge * dc_hops)
        update = self.bdw_units[None, :] * vol[:, None] + transit

        fixed = instantiation[:, None] + access + update
        if access_delay is not None:
            fixed = np.where(access_delay > self.budget, np.inf, fixed)
        return _RowBlock(
            instantiation=instantiation,
            remote=remote,
            demand=demand,
            access=access,
            update=update,
            user_delay=self._delays([svc.user_node for svc in services]),
            fixed=fixed,
        )


class CompiledMarket:
    """Dense-array view of a :class:`~repro.market.market.ServiceMarket`.

    Tables (``n`` providers in id order, ``m`` cloudlets in network order)
    ----------------------------------------------------------------------
    ``fixed``
        ``(n, m)`` — the congestion-free part of Eq. (3),
        ``c_l^ins + c_i^bdw`` including the hop-scaled update distance;
        ``+inf`` marks forbidden pairs (latency-budget violations).
    ``instantiation`` / ``access`` / ``update``
        The components of ``fixed``: ``c_l^ins`` per provider ``(n,)``,
        request-offloading cost ``(n, m)``, and consistency-update cost
        ``(n, m)`` (Section II.C). The baselines price subsets of these.
    ``coeff``
        ``(m,)`` — ``alpha_i + beta_i`` per cloudlet (Eq. 1–2).
    ``g``
        ``(n + 1,)`` — the congestion function at occupancies ``0..n``
        (longer after a growing delta, which reserves occupancies past
        ``n``; :meth:`compact` trims the reserve).
    ``shared``
        ``(m, len(g))`` — ``shared[i, k] = coeff[i] * g[k]``, the anonymous
        congestion charge of Eq. (3) at every occupancy any profile can
        reach; works for any :class:`CongestionFunction`.
    ``demand``
        ``(n, 2)`` — ``(a_l * r_l, b_l * r_l)`` per provider.
    ``capacity``
        ``(m, 2)`` — ``(C(CL_i), B(CL_i))`` per cloudlet (Eq. 7's inputs).
    ``remote``
        ``(n,)`` — the "do not cache" remote-serving cost per provider.
    ``user_delay``
        ``(n, m)`` — end-to-end delay from each provider's user node to
        each cloudlet (the ``OffloadCache`` baseline's objective).
    """

    def __init__(
        self,
        provider_ids: List[int],
        cloudlet_nodes: List[int],
        fixed: np.ndarray,
        instantiation: np.ndarray,
        access: np.ndarray,
        update: np.ndarray,
        coeff: np.ndarray,
        g: np.ndarray,
        demand: np.ndarray,
        capacity: np.ndarray,
        remote: np.ndarray,
        user_delay: np.ndarray,
        congestion: CongestionFunction,
    ) -> None:
        self.provider_ids = provider_ids
        self.cloudlet_nodes = cloudlet_nodes
        self.provider_index: Dict[int, int] = {
            pid: i for i, pid in enumerate(provider_ids)
        }
        self.cloudlet_index: Dict[int, int] = {
            node: j for j, node in enumerate(cloudlet_nodes)
        }
        self.fixed = fixed
        self.instantiation = instantiation
        self.access = access
        self.update = update
        self.coeff = coeff
        self.g = g
        self.shared = coeff[:, None] * g[None, :]
        self.demand = demand
        self.capacity = capacity
        self.remote = remote
        self.user_delay = user_delay
        self.congestion = congestion
        # Delta bookkeeping: tombstoned physical rows available for reuse,
        # and the cached active-row gather (see :meth:`apply_delta`).
        self._free_rows: List[int] = []
        self._active_rows: Optional[np.ndarray] = None
        # Write sanitizer (REPRO_SANITIZE=1): freeze the tables outside the
        # internal writable context the build/patch paths run under, so a
        # stray in-place write raises at the write site (reprolint R9's
        # runtime witness). Latched at construction; per-instance.
        self._sanitize = sanitize_active()
        self._writable_depth = 0
        self._freeze_tables()

    # ------------------------------------------------------------------ #
    # Write sanitizer
    # ------------------------------------------------------------------ #
    #: The numpy tables the sanitizer freezes/thaws as one unit.
    _TABLE_FIELDS = _RowBlock._fields + ("coeff", "g", "shared", "capacity")

    def _set_tables_writeable(self, writeable: bool) -> None:
        for name in self._TABLE_FIELDS:
            getattr(self, name).flags.writeable = writeable

    def _freeze_tables(self) -> None:
        if self._sanitize and self._writable_depth == 0:
            self._set_tables_writeable(False)

    @contextmanager
    def _writable_tables(self) -> Iterator[None]:
        """Temporarily thaw the tables for a sanctioned patch path.

        Reentrant (``apply_delta`` calls ``_grow_rows``/``compact`` inside
        its own context): a depth counter thaws on first entry and
        re-freezes on last exit. The exit freeze iterates the *current*
        attribute values, so paths that rebind a table (``np.concatenate``
        growth, compaction gathers) leave the new arrays frozen too.
        """
        if not self._sanitize:
            yield
            return
        if self._writable_depth == 0:
            self._set_tables_writeable(True)
        self._writable_depth += 1
        try:
            yield
        finally:
            self._writable_depth -= 1
            if self._writable_depth == 0:
                self._set_tables_writeable(False)

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        # Pickles cross process boundaries (the sweep harness ships
        # compiled blobs to workers) and may predate the sanitizer fields:
        # re-evaluate the flag in the receiving process and normalise the
        # writeable flags, which numpy does not reliably round-trip. A
        # protocol-4 pickle can hand a table back as a read-only view on
        # immutable ``bytes``; only such a table gets an owned copy.
        self._sanitize = sanitize_active()
        self._writable_depth = 0
        for name in self._TABLE_FIELDS:
            table = getattr(self, name)
            try:
                table.flags.writeable = True
            except ValueError:
                setattr(self, name, table.copy())
        self._freeze_tables()
        if self._active_rows is not None:
            self._active_rows.flags.writeable = False

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_market(cls, market: "ServiceMarket") -> "CompiledMarket":
        """Evaluate the market's cost model once into dense tables.

        The per-pair tables are assembled as one block by
        :class:`_ProviderRowBuilder` from cloudlet-side hop rows and
        source-side delay rows, applying the cost model's arithmetic
        (Section II.C / IV.A pricing) in the exact operand and
        association order of the scalar methods — every entry is bit-equal
        to the per-pair ``CostModel`` evaluation, which
        :meth:`verify_against` re-checks whenever runtime invariants are
        armed.
        """
        model = market.cost_model
        net = market.network
        providers = market.providers
        cloudlets = net.cloudlets
        n, m = len(providers), len(cloudlets)
        if m == 0:
            raise ConfigurationError("market network has no cloudlets to compile")

        block = _ProviderRowBuilder(market).build(providers)
        coeff = np.array([cl.alpha + cl.beta for cl in cloudlets], dtype=float)
        g = np.array([model.congestion(k) for k in range(n + 1)], dtype=float)
        capacity = np.array(
            [[cl.compute_capacity, cl.bandwidth_capacity] for cl in cloudlets],
            dtype=float,
        )

        compiled = cls(
            provider_ids=[p.provider_id for p in providers],
            cloudlet_nodes=[cl.node_id for cl in cloudlets],
            fixed=block.fixed,
            instantiation=block.instantiation,
            access=block.access,
            update=block.update,
            coeff=coeff,
            g=g,
            demand=block.demand,
            capacity=capacity,
            remote=block.remote,
            user_delay=block.user_delay,
            congestion=model.congestion,
        )
        if invariants_active():
            compiled.verify_against(market)
        return compiled

    # ------------------------------------------------------------------ #
    # Delta recompilation (the mutation protocol's compiled half)
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: "MarketDelta", market: "ServiceMarket") -> None:
        """Patch the tables in place for one :class:`MarketDelta`.

        O(changed rows) instead of a full recompile:

        * price changes rewrite one ``coeff`` entry and one ``shared`` row
          (the same ``coeff * g`` products a fresh compile computes);
        * capacity changes store into the ``(m, 2)`` capacity vector;
        * departures *tombstone* their physical rows in one fancy-indexed
          write (``fixed``/``remote`` scrubbed to ``+inf`` so a stale
          gather can never look feasible), recycle them through a free list
          and drop their ids in one filtered pass over ``provider_ids``;
        * arrivals reuse tombstoned rows, built as one block by the same
          :class:`_ProviderRowBuilder` as :meth:`from_market`, so every
          entry is bit-equal to a from-scratch compile, and are merged into
          ``provider_ids`` in one sort. A dry free list grows the tables
          geometrically (by half the population, or the shortfall if
          larger), so a growing population reallocates only now and then;
        * the congestion prefix ``g`` (and the ``shared`` table) grow past
          the new maximum occupancy when the population expands, by half
          the population like the rows, so ``g[:n + 1]`` and
          ``shared[:, :n + 1]`` match a fresh compile and the reserve
          holds the congestion values of the occupancies beyond.

        ``market`` must already reflect the delta (call through
        :meth:`ServiceMarket.apply`, which orders the two). After
        :data:`COMPACTION_SLACK` plus one population's worth of tombstones
        accumulate, :meth:`compact` rewrites the tables dense; the growth
        reserve alone (at most half the population) never trips it.

        Physical row order is *not* id order after a delta — consumers
        must gather through ``provider_index`` / :attr:`active_rows`
        rather than assume ``row i == i-th provider``.
        """
        # Validate against current state before mutating anything.
        for node in (
            *delta.price_changes,
            *delta.capacity_changes,
            *delta.outages,
            *delta.recoveries,
        ):
            self.cloudlet_col(node)
        missing = [pid for pid in delta.departures if pid not in self.provider_index]
        if missing:
            raise ConfigurationError(
                f"cannot depart unknown provider ids {missing}"
            )
        departing = set(delta.departures)
        dup = [
            p.provider_id
            for p in delta.arrivals
            if p.provider_id in self.provider_index
            and p.provider_id not in departing
        ]
        if dup:
            raise ConfigurationError(f"arriving provider ids {dup} already present")
        arrivals = sorted(delta.arrivals, key=lambda p: p.provider_id)
        block = _ProviderRowBuilder(market).build(arrivals) if arrivals else None

        with self._writable_tables():
            for node, (alpha, beta) in delta.price_changes.items():
                j = self.cloudlet_index[node]
                self.coeff[j] = alpha + beta
                self.shared[j, :] = self.coeff[j] * self.g
            for node, (cpu, bw) in delta.capacity_changes.items():
                j = self.cloudlet_index[node]
                self.capacity[j, 0] = cpu
                self.capacity[j, 1] = bw
            # Outages/recoveries are capacity patches too: ``market``
            # already reflects the delta (zeroed on outage, nominal
            # restored on recovery), so the cloudlet's live capacities are
            # the new truth.
            for node in (*delta.outages, *delta.recoveries):
                j = self.cloudlet_index[node]
                cl = market.network.cloudlet_at(node)
                self.capacity[j, 0] = cl.compute_capacity
                self.capacity[j, 1] = cl.bandwidth_capacity

            if delta.departures:
                gone = [self.provider_index.pop(pid) for pid in delta.departures]
                self.provider_ids[:] = [
                    pid for pid in self.provider_ids if pid not in departing
                ]
                self._free_rows.extend(gone)
                self.fixed[gone] = np.inf
                self.remote[gone] = np.inf
                self.demand[gone] = 0.0

            if block is not None:
                k = len(arrivals)
                shortfall = k - len(self._free_rows)
                if shortfall > 0:
                    self._grow_rows(max(shortfall, (len(self.provider_ids) + k) // 2))
                rows = self._free_rows[-k:]
                del self._free_rows[-k:]
                for name, values in zip(_RowBlock._fields, block):
                    getattr(self, name)[rows] = values
                ids = [p.provider_id for p in arrivals]
                self.provider_index.update(zip(ids, rows))
                self.provider_ids.extend(ids)
                self.provider_ids.sort()

            self._active_rows = None

            n = len(self.provider_ids)
            if n + 1 > len(self.g):
                # Reserve half the population beyond the new occupancy
                # range, as _grow_rows reserves rows, so a growing
                # population reallocates g/shared only now and then.
                new_g = np.array(
                    [self.congestion(k) for k in range(len(self.g), n + 1 + n // 2)],
                    dtype=float,
                )
                self.g = np.concatenate([self.g, new_g])
                self.shared = np.concatenate(
                    [self.shared, self.coeff[:, None] * new_g[None, :]], axis=1
                )

        if len(self._free_rows) > max(COMPACTION_SLACK, n):
            self.compact()
        if invariants_active():
            self.verify_against(market)

    def _grow_rows(self, k: int) -> None:
        """Append ``k`` blank physical rows (pushed onto the free list)."""
        with self._writable_tables():
            old = self.fixed.shape[0]
            for name in _RowBlock._fields:
                table = getattr(self, name)
                blank = np.inf if name in ("fixed", "remote") else 0.0
                setattr(self, name, np.concatenate(
                    [table, np.full((k, *table.shape[1:]), blank)]
                ))
            self._free_rows.extend(range(old, old + k))

    def compact(self) -> None:
        """Rewrite the tables dense — row ``i`` is again the ``i``-th
        provider in id order — dropping tombstoned rows and trimming the
        congestion prefix back to the active occupancy range."""
        with self._writable_tables():
            rows = self.active_rows
            for name in _RowBlock._fields:
                setattr(self, name, getattr(self, name)[rows])
            self.provider_index = {pid: i for i, pid in enumerate(self.provider_ids)}
            self._free_rows = []
            self._active_rows = None
            n = len(self.provider_ids)
            if len(self.g) > n + 1:
                self.g = self.g[: n + 1].copy()
                self.shared = np.ascontiguousarray(self.shared[:, : n + 1])

    # ------------------------------------------------------------------ #
    # Shapes and id↔index maps
    # ------------------------------------------------------------------ #
    @property
    def n_providers(self) -> int:
        return len(self.provider_ids)

    @property
    def n_rows(self) -> int:
        """Physical table rows (active providers plus tombstones)."""
        return int(self.fixed.shape[0])

    @property
    def active_rows(self) -> np.ndarray:
        """Physical row of every active provider, in provider-id order.

        The gather consumers must use instead of assuming dense rows: after
        :meth:`apply_delta`, ``fixed[active_rows]`` (etc.) is the same
        table a fresh compile would produce, whatever the physical layout.
        """
        if self._active_rows is None:
            self._active_rows = np.fromiter(
                (self.provider_index[pid] for pid in self.provider_ids),
                dtype=np.int64,
                count=len(self.provider_ids),
            )
            # Handed out by reference on every call: freeze the cache so no
            # caller can scramble the gather order under every other holder.
            self._active_rows.flags.writeable = False
        return self._active_rows

    @property
    def n_cloudlets(self) -> int:
        return len(self.cloudlet_nodes)

    def provider_row(self, provider_id: int) -> int:
        try:
            return self.provider_index[provider_id]
        except KeyError:
            raise ConfigurationError(f"unknown provider id {provider_id}") from None

    def cloudlet_col(self, node: int) -> int:
        try:
            return self.cloudlet_index[node]
        except KeyError:
            raise ConfigurationError(f"node {node} hosts no cloudlet") from None

    # ------------------------------------------------------------------ #
    # Cost queries (all bit-equal to the CostModel evaluations)
    # ------------------------------------------------------------------ #
    def g_at(self, occupancy: int) -> float:
        """``g(k)``, falling back to the congestion function beyond the
        precomputed range (the GAP split can price slots past ``n``)."""
        if occupancy < len(self.g):
            return float(self.g[occupancy])
        return float(self.congestion(occupancy))

    def gap_costs(self) -> np.ndarray:
        """Eq. (9) flat GAP costs ``alpha_i + beta_i + c_l^ins + c_i^bdw``
        as an ``(n, m)`` table (``CostModel.gap_cost`` vectorised)."""
        return self.coeff[None, :] + self.fixed

    def remote_cost(self, provider_id: int) -> float:
        return float(self.remote[self.provider_row(provider_id)])

    # ------------------------------------------------------------------ #
    # Placement state
    # ------------------------------------------------------------------ #
    def gather(self, placement: Mapping[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(provider rows, cloudlet columns)`` of a placement, in
        placement order."""
        rows = np.fromiter(
            (self.provider_index[pid] for pid in placement), dtype=np.int64,
            count=len(placement),
        )
        return rows, self._columns(placement)

    def _columns(self, placement: Mapping[int, int]) -> np.ndarray:
        try:
            return np.fromiter(
                (self.cloudlet_index[node] for node in placement.values()),
                dtype=np.int64, count=len(placement),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"placement uses node {exc.args[0]!r}, which hosts no cloudlet"
            ) from None

    def occupancy_vector(self, placement: Mapping[int, int]) -> np.ndarray:
        """``|sigma_i|`` per cloudlet column for a placement
        (``provider_id -> cloudlet node_id``)."""
        return np.bincount(self._columns(placement), minlength=self.n_cloudlets)

    def load_matrix(self, placement: Mapping[int, int]) -> np.ndarray:
        """Per-cloudlet ``(compute, bandwidth)`` loads, accumulated in
        placement order: ``np.add.at`` applies repeated columns in order,
        the same addition order as the object-graph aggregators, so values
        are bit-equal."""
        rows, cols = self.gather(placement)
        loads = np.zeros((self.n_cloudlets, 2), dtype=float)
        np.add.at(loads, cols, self.demand[rows])
        return loads

    def fits_mask(self, provider_row: int, loads: np.ndarray) -> np.ndarray:
        """Which cloudlets admit the provider's demand on top of ``loads``
        (capacity only; pair admissibility is ``isfinite(fixed)``)."""
        new_load = loads + self.demand[provider_row]
        return np.all(new_load <= self.capacity + CAPACITY_EPS, axis=1)

    # ------------------------------------------------------------------ #
    # Aggregate costs (Eq. 5–6)
    # ------------------------------------------------------------------ #
    def provider_cost(self, provider_id: int, placement: Mapping[int, int]) -> float:
        """``c_l(sigma_l)`` (Eq. 5) for a placed provider."""
        node = placement.get(provider_id)
        if node is None:
            raise ConfigurationError(
                f"provider {provider_id} is unplaced in the given placement"
            )
        j = self.cloudlet_col(node)
        occ = self.occupancy_vector(placement)
        return float(
            self.shared[j, occ[j]] + self.fixed[self.provider_row(provider_id), j]
        )

    def _placed_costs(self, placement: Mapping[int, int]) -> np.ndarray:
        """Every placed provider's Eq. (5) cost, in placement order: the
        occupancy is counted once and the congestion and fixed terms come
        from one vectorised gather."""
        rows, cols = self.gather(placement)
        occ = np.bincount(cols, minlength=self.n_cloudlets)
        return self.shared[cols, occ[cols]] + self.fixed[rows, cols]

    def provider_costs(self, placement: Mapping[int, int]) -> Dict[int, float]:
        """``provider_id -> c_l(sigma_l)`` (Eq. 5) for every placed provider,
        bit-equal to :meth:`provider_cost` of each."""
        return dict(zip(placement, self._placed_costs(placement).tolist()))

    def social_cost(self, placement: Mapping[int, int]) -> float:
        """Eq. (6) over the placed providers.

        The fold runs left-to-right in placement order over
        :meth:`_placed_costs`, so the result is bit-equal to
        ``CostModel.social_cost``.
        """
        total = 0.0
        for t in self._placed_costs(placement).tolist():
            total += t
        return total

    # ------------------------------------------------------------------ #
    # Debug cross-check (armed by REPRO_DEBUG_INVARIANTS=1)
    # ------------------------------------------------------------------ #
    def verify_against(self, market: "ServiceMarket") -> None:
        """Assert every table entry equals its object-graph evaluation.

        Runs at build time when runtime invariants are armed; a mismatch
        means a compiled consumer would silently diverge from the object
        path, so it raises immediately instead.
        """
        from repro.exceptions import InvariantViolation

        model = market.cost_model
        market_ids = [p.provider_id for p in market.providers]
        if market_ids != list(self.provider_ids):
            raise InvariantViolation(
                f"compiled provider ids {self.provider_ids} out of sync with "
                f"market {market_ids}"
            )
        for p in market.providers:
            i = self.provider_index[p.provider_id]
            for j, cl in enumerate(market.network.cloudlets):
                want = model.fixed_cost(p, cl)
                got = float(self.fixed[i, j])
                if got != want and not (np.isinf(got) and np.isinf(want)):
                    raise InvariantViolation(
                        f"compiled fixed[{i},{j}] = {got!r} != object-graph {want!r}"
                    )
            if float(self.remote[i]) != model.remote_cost(p):
                raise InvariantViolation(
                    f"compiled remote[{i}] = {self.remote[i]!r} "
                    f"!= object-graph {model.remote_cost(p)!r}"
                )
            if (
                float(self.demand[i, 0]) != p.compute_demand
                or float(self.demand[i, 1]) != p.bandwidth_demand
            ):
                raise InvariantViolation(
                    f"compiled demand[{i}] = {self.demand[i]!r} out of sync "
                    f"with provider {p.provider_id}"
                )
        for j, cl in enumerate(market.network.cloudlets):
            for k in range(1, self.n_providers + 1):
                want = model.congestion_cost(cl, k)
                if float(self.shared[j, k]) != want:
                    raise InvariantViolation(
                        f"compiled shared[{j},{k}] = {self.shared[j, k]!r} "
                        f"!= object-graph {want!r}"
                    )
            if (
                float(self.capacity[j, 0]) != cl.compute_capacity
                or float(self.capacity[j, 1]) != cl.bandwidth_capacity
            ):
                raise InvariantViolation(
                    f"compiled capacity[{j}] = {self.capacity[j]!r} out of "
                    f"sync with cloudlet {cl.node_id}"
                )

    def __repr__(self) -> str:
        return (
            f"CompiledMarket(providers={self.n_providers}, "
            f"cloudlets={self.n_cloudlets}, congestion={self.congestion!r})"
        )


__all__ = ["COMPACTION_SLACK", "CompiledMarket"]
