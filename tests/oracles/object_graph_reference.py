"""Reference object-graph pipeline: the algorithms before the compiled tables.

The library reads every instance through one representation, the
array-backed :class:`~repro.market.compiled.CompiledMarket`. The
object-graph and scalar paths it replaced are kept here verbatim as the
oracles the differential suites compare it against:

* :func:`_assemble_scalar` — the per-pair GAP LP assembly (the oracle of
  the bulk one in :mod:`tests.oracles.gap_reference`);
* :func:`_greedy_scalar` — the per-item greedy regret loop over slot
  counters;
* :func:`object_build_gap_instance` — the Eq. (7)–(9) GAP build that
  recomputes the split per cloudlet (:func:`object_virtual_cloudlets`)
  and queries the cost model per (provider, slot) pair;
* :func:`object_weighted_gap_instance`, :func:`object_merge_assignment`
  and :func:`use_weighted_gap` — the same build stated as a weighted GAP
  (every item weighs one slot's capacity), mapped back slot by slot, and
  solved by the general-GAP reference: Appro before its GAP became a slot
  table;
* :func:`object_repair_capacities` (with :func:`_loads` / :func:`_fits`)
  and :func:`object_enter_newcomers` — Appro's capacity repair and warm
  newcomer scan over per-cloudlet load lists;
* :func:`object_market_game` — the market congestion game as a plain
  :class:`~repro.game.congestion.SingletonCongestionGame` over
  :class:`~repro.market.costs.CostModel` closures, whose ``compile()``
  evaluates the tables pair by pair (the library's
  :class:`~repro.game.engine.MarketGame` reads them off the compiled
  market);
* :func:`object_posted_entry` — LCF's posted-price selfish entry, one
  cost-model query per (provider, cloudlet) pair; the tolled market and
  the rebuild simulation's arrivals enter through it too;
* :func:`object_jo_offload_cache` / :func:`object_offload_cache` — the two
  baselines' sequential admission with per-cloudlet cost-model queries;
* :func:`object_social_cost_lower_bound` (with
  :func:`_slots_per_cloudlet`) — the slotted LP lower bound on the social
  optimum, one column per (provider, cloudlet, slot) triple (the library's
  bound aggregates the slots and reads the compiled tables);
* :func:`object_anticipatory_tolls` / :func:`object_tolled_selfish_market`
  — the congestion-toll extension, :func:`object_posted_entry` with tolls
  added (the library's tolled market is the simulation's posted-price
  entry on the compiled tables with tolls added);
* :class:`ObjectRebuildSimulation` — the dynamic simulation that rebuilds
  the market object graph every epoch instead of delta-patching one.

Each oracle decides with the same floats, the same scan order and the same
tie-breaks as the library path it mirrors, so placements, rejections and
social costs agree bit for bit.

:func:`use_object_graph` swaps the oracles in at the library's module-level
seams, so whole ``appro`` / ``lcf`` / warm-start pipelines replay on the
object graph.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple
from unittest import mock

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.core.appro import appro
from repro.core.assignment import CachingAssignment, Stopwatch
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.dynamics.simulation import DynamicMarketSimulation, EpochRecord
from repro.exceptions import ConfigurationError, InfeasibleError, SolverError
from repro.game.congestion import SingletonCongestionGame
from repro.gap.instance import GAPInstance
from repro.market.compiled import CompiledMarket
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.service import ServiceProvider
from repro.network.elements import Cloudlet
from repro.utils.contracts import invariant_capacity_feasible
from repro.utils.validation import CAPACITY_EPS, check_non_negative

from tests.oracles import gap_reference
from tests.oracles.gap_reference import WeightedGAPInstance, allowed, trivially_infeasible


# --------------------------------------------------------------------- #
# GAP solvers (replace gap_reference._assemble / greedy._greedy_assignment)
# --------------------------------------------------------------------- #
def _assemble_scalar(
    instance: WeightedGAPInstance,
) -> Tuple[np.ndarray, np.ndarray, csr_matrix, csr_matrix, np.ndarray, np.ndarray]:
    """Reference per-pair assembly (kept as the differential oracle)."""
    if trivially_infeasible(instance):
        raise InfeasibleError("some item has no admissible bin")

    pairs: List[Tuple[int, int]] = [
        (j, i)
        for j in range(instance.n_items)
        for i in range(instance.n_bins)
        if allowed(instance, j, i)
    ]
    col_of: Dict[Tuple[int, int], int] = {p: k for k, p in enumerate(pairs)}
    n_cols = len(pairs)

    c = np.array([instance.costs[j, i] for j, i in pairs])

    # Equality: one row per item.
    eq_rows, eq_cols, eq_data = [], [], []
    for (j, i), k in col_of.items():
        eq_rows.append(j)
        eq_cols.append(k)
        eq_data.append(1.0)
    a_eq = csr_matrix((eq_data, (eq_rows, eq_cols)), shape=(instance.n_items, n_cols))

    # Inequality: one row per bin.
    ub_rows, ub_cols, ub_data = [], [], []
    for (j, i), k in col_of.items():
        ub_rows.append(i)
        ub_cols.append(k)
        ub_data.append(instance.weights[j, i])
    a_ub = csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(instance.n_bins, n_cols))

    rows = np.fromiter((j for j, _ in pairs), dtype=np.int64, count=n_cols)
    cols = np.fromiter((i for _, i in pairs), dtype=np.int64, count=n_cols)
    return rows, cols, a_eq, a_ub, c, np.ones(instance.n_items)


def _greedy_scalar(instance: GAPInstance) -> List[int]:
    """Reference implementation: per-item Python loops over the slot-form
    instance (the pre-compiled pipeline). Returns the assignment list."""
    free_slots = [int(k) for k in instance.slots]
    assignment: List[Optional[int]] = [None] * instance.n_items
    unassigned = set(range(instance.n_items))

    while unassigned:
        best_item = -1
        best_bin = -1
        best_regret = -np.inf
        for j in unassigned:
            feasible = [
                i
                for i in range(instance.n_bins)
                if np.isfinite(instance.costs[j, i]) and free_slots[i] > 0
            ]
            if not feasible:
                raise InfeasibleError(f"greedy could not place item {j}")
            ordered = sorted(feasible, key=lambda i: instance.costs[j, i])
            cheapest = ordered[0]
            if len(ordered) > 1:
                regret = instance.costs[j, ordered[1]] - instance.costs[j, cheapest]
            else:
                regret = np.inf  # only one option left: place it now
            if regret > best_regret:
                best_regret = regret
                best_item = j
                best_bin = cheapest

        assignment[best_item] = best_bin
        free_slots[best_bin] -= 1
        unassigned.remove(best_item)

    return [int(a) for a in assignment]


# --------------------------------------------------------------------- #
# Appro (replace VirtualCloudletSplit.build_gap_instance and
# repro.core.appro._repair_capacities / _enter_newcomers)
# --------------------------------------------------------------------- #
def object_virtual_cloudlets(self: VirtualCloudletSplit) -> List[Tuple[int, int]]:
    """The Eq. (7) split, one ``(cloudlet node, slot)`` pair per virtual
    cloudlet (GAP bin) in bin order: ``n_i`` slots for each cloudlet in
    node order."""
    slots: List[Tuple[int, int]] = []
    for cl in self.market.network.cloudlets:
        n_i = min(
            math.floor(cl.compute_capacity / self.a_max),
            math.floor(cl.bandwidth_capacity / self.b_max),
        )
        slots.extend((cl.node_id, slot) for slot in range(n_i))
    return slots


def _object_gap_costs(self: VirtualCloudletSplit) -> np.ndarray:
    """The Eq. (9) cost table (flat or marginal slot prices, plus the
    remote column) from the cost model, one (provider, slot) pair at a
    time."""
    providers = self.market.providers
    virtual = object_virtual_cloudlets(self)
    costs = np.zeros((len(providers), len(virtual) + (1 if self.allow_remote else 0)))
    model = self.market.cost_model
    net = self.market.network
    for j, provider in enumerate(providers):
        for index, (node, slot) in enumerate(virtual):
            cloudlet = net.cloudlet_at(node)
            if self.slot_pricing == "flat":
                # The paper's Eq. (9): alpha_i + beta_i + fixed.
                costs[j, index] = model.gap_cost(provider, cloudlet)
            else:
                # Marginal pricing: slot k of CL_i carries the marginal
                # social congestion charge
                #   (alpha_i + beta_i) * (k*g(k) - (k-1)*g(k-1)),
                # i.e. (2k - 1)(alpha_i + beta_i) under the paper's
                # linear model, so filling k slots sums to the true
                # social congestion cost (alpha_i+beta_i) * k * g(k).
                # The GAP objective then equals the social cost (Eq. 6)
                # exactly, which is what makes the coordinated
                # placement worth following.
                k = slot + 1
                g = model.congestion
                marginal = (cloudlet.alpha + cloudlet.beta) * (
                    k * g(k) - (k - 1) * g(k - 1)
                )
                costs[j, index] = marginal + model.fixed_cost(provider, cloudlet)
        if self.allow_remote:
            costs[j, len(virtual)] = model.remote_cost(provider)
    return costs


def object_build_gap_instance(self: VirtualCloudletSplit) -> GAPInstance:
    """:meth:`VirtualCloudletSplit.build_gap_instance` from the cost model,
    one (provider, slot) pair at a time: one slot per virtual cloudlet,
    ``n`` for the remote bin."""
    costs = _object_gap_costs(self)
    n_virtual = len(object_virtual_cloudlets(self))
    slots = [1] * n_virtual + ([costs.shape[0]] if self.allow_remote else [])
    return GAPInstance(costs=costs, slots=np.array(slots, dtype=np.int64))


def object_weighted_gap_instance(self: VirtualCloudletSplit) -> WeightedGAPInstance:
    """The same GAP stated with weights: every item weighs the slot
    capacity ``max(a_max, b_max)``, each virtual cloudlet holds one slot's
    capacity and the remote bin ``n`` of them."""
    costs = _object_gap_costs(self)
    n = costs.shape[0]
    capacities = [self.slot_capacity] * len(object_virtual_cloudlets(self))
    if self.allow_remote:
        capacities.append(n * self.slot_capacity)
    return WeightedGAPInstance(
        costs=costs,
        weights=np.full(costs.shape, self.slot_capacity),
        capacities=np.array(capacities),
    )


def object_merge_assignment(
    self: VirtualCloudletSplit, gap_assignment: List[int]
) -> Tuple[Dict[int, int], Set[int]]:
    """:meth:`VirtualCloudletSplit.merge_assignment`, one item at a time
    through the per-slot list."""
    providers = self.market.providers
    if len(gap_assignment) != len(providers):
        raise ConfigurationError(
            f"GAP assignment covers {len(gap_assignment)} items, "
            f"market has {len(providers)} providers"
        )
    virtual = object_virtual_cloudlets(self)
    placement: Dict[int, int] = {}
    rejected: Set[int] = set()
    for j, bin_index in enumerate(gap_assignment):
        pid = providers[j].provider_id
        if self.allow_remote and bin_index >= len(virtual):
            rejected.add(pid)
        else:
            placement[pid] = virtual[bin_index][0]
    return placement, rejected


@contextmanager
def use_weighted_gap() -> Iterator[None]:
    """Run cold Appro on the weighted GAP while the context is open: the
    split builds :func:`object_weighted_gap_instance`, the general-GAP
    reference solves it (:func:`gap_reference.shmoys_tardos` /
    :func:`gap_reference.greedy_gap`), and :func:`object_merge_assignment`
    maps the bins back."""
    split = "repro.core.virtual_cloudlets.VirtualCloudletSplit"
    solvers = {
        "shmoys_tardos": gap_reference.shmoys_tardos,
        "greedy": gap_reference.greedy_gap,
    }
    with ExitStack() as stack:
        stack.enter_context(
            mock.patch(f"{split}.build_gap_instance", object_weighted_gap_instance)
        )
        stack.enter_context(
            mock.patch(f"{split}.merge_assignment", object_merge_assignment)
        )
        stack.enter_context(mock.patch.dict("repro.core.appro._GAP_SOLVERS", solvers))
        yield


def _loads(market: ServiceMarket, placement: Dict[int, int]) -> Dict[int, List[float]]:
    loads: Dict[int, List[float]] = {
        cl.node_id: [0.0, 0.0] for cl in market.network.cloudlets
    }
    for pid, node in placement.items():
        p = market.provider(pid)
        loads[node][0] += p.compute_demand
        loads[node][1] += p.bandwidth_demand
    return loads


def _fits(market: ServiceMarket, node: int, load: List[float], pid: int) -> bool:
    cl = market.network.cloudlet_at(node)
    p = market.provider(pid)
    return (
        load[0] + p.compute_demand <= cl.compute_capacity + CAPACITY_EPS
        and load[1] + p.bandwidth_demand <= cl.bandwidth_capacity + CAPACITY_EPS
    )


@invariant_capacity_feasible()
def object_repair_capacities(
    market: ServiceMarket,
    placement: Dict[int, int],
    compiled: Optional[CompiledMarket] = None,
) -> Tuple[Dict[int, int], Set[int], int]:
    """:func:`repro.core.appro._repair_capacities` over per-cloudlet load
    lists and cost-model queries; ``compiled`` is ignored."""
    loads = _loads(market, placement)
    evicted: List[int] = []
    for cl in market.network.cloudlets:
        node = cl.node_id
        members = sorted(
            (pid for pid, n in placement.items() if n == node),
            key=lambda pid: -max(
                market.provider(pid).compute_demand,
                market.provider(pid).bandwidth_demand,
            ),
        )
        k = 0
        while (
            loads[node][0] > cl.compute_capacity + CAPACITY_EPS
            or loads[node][1] > cl.bandwidth_capacity + CAPACITY_EPS
        ) and k < len(members):
            pid = members[k]
            k += 1
            p = market.provider(pid)
            loads[node][0] -= p.compute_demand
            loads[node][1] -= p.bandwidth_demand
            del placement[pid]
            evicted.append(pid)

    rejected: Set[int] = set()
    moves = 0
    model = market.cost_model
    for pid in evicted:
        provider = market.provider(pid)
        candidates = [
            cl.node_id
            for cl in market.network.cloudlets
            if _fits(market, cl.node_id, loads[cl.node_id], pid)
            and math.isfinite(model.gap_cost(provider, cl))
        ]
        if not candidates:
            rejected.add(pid)
            continue
        best = min(
            candidates,
            key=lambda n: model.gap_cost(provider, market.network.cloudlet_at(n)),
        )
        placement[pid] = best
        loads[best][0] += provider.compute_demand
        loads[best][1] += provider.bandwidth_demand
        moves += 1
    return placement, rejected, moves


def object_enter_newcomers(
    market: ServiceMarket,
    cm: Optional[CompiledMarket],
    placement: Dict[int, int],
    newcomers: List[int],
    rejected: Set[int],
    allow_remote: bool,
) -> int:
    """:func:`repro.core.appro._enter_newcomers` (the warm-start newcomer
    scan) over cost-model queries; ``cm`` is ignored."""
    entered = 0
    model = market.cost_model
    obj_loads = _loads(market, placement)
    for pid in newcomers:
        provider = market.provider(pid)
        candidates_o = [
            cl.node_id
            for cl in market.network.cloudlets
            if _fits(market, cl.node_id, obj_loads[cl.node_id], pid)
            and math.isfinite(model.gap_cost(provider, cl))
        ]
        if not candidates_o:
            rejected.add(pid)
            continue
        best_node = min(
            candidates_o,
            key=lambda n: model.gap_cost(
                provider, market.network.cloudlet_at(n)
            ),
        )
        best_cost = model.gap_cost(
            provider, market.network.cloudlet_at(best_node)
        )
        if allow_remote and model.remote_cost(provider) < best_cost:
            rejected.add(pid)
            continue
        placement[pid] = best_node
        obj_loads[best_node][0] += provider.compute_demand
        obj_loads[best_node][1] += provider.bandwidth_demand
        entered += 1
    return entered


# --------------------------------------------------------------------- #
# LCF's game (replaces repro.core.lcf.market_game)
# --------------------------------------------------------------------- #
def object_market_game(
    market: ServiceMarket, players: Optional[Sequence[int]] = None
) -> SingletonCongestionGame:
    """The congestion game of Section II.E over the market's cost-model
    callables: players are provider ids, resources are cloudlet node ids,
    the shared cost is ``(alpha_i + beta_i) * g(k)``, the fixed cost
    ``c_l^ins + c_i^bdw``, and capacities are the two-dimensional
    (compute, bandwidth) cloudlet limits. ``game.compile()`` is the
    generic per-pair table build."""
    model = market.cost_model
    net = market.network

    def shared(node: int, occupancy: int) -> float:
        return model.congestion_cost(net.cloudlet_at(node), occupancy)

    def fixed(provider_id: int, node: int) -> float:
        return model.fixed_cost(market.provider(provider_id), net.cloudlet_at(node))

    def demand(provider_id: int, node: int) -> np.ndarray:
        p = market.provider(provider_id)
        return np.array([p.compute_demand, p.bandwidth_demand])

    def capacity(node: int) -> np.ndarray:
        cl = net.cloudlet_at(node)
        return np.array([cl.compute_capacity, cl.bandwidth_capacity])

    if players is None:
        players = [p.provider_id for p in market.providers]
    return SingletonCongestionGame(
        players=list(players),
        resources=[cl.node_id for cl in net.cloudlets],
        shared_cost=shared,
        fixed_cost=fixed,
        demand=demand,
        capacity=capacity,
    )


def object_posted_entry(
    market: ServiceMarket,
    profile: Dict[int, int],
    selfish_ids: Sequence[int],
    rejected: Set[int],
    allow_remote: bool,
    tolls: Optional[Dict[int, float]] = None,
) -> None:
    """:func:`repro.core.lcf._posted_entry` over cost-model queries: each
    entrant, in order, takes the first cloudlet with room whose posted
    price ``cost(provider, cl, 1)`` (plus its toll) is strictly below the
    best so far, starting from the remote cost when ``allow_remote`` and
    from ``inf`` otherwise; with none, it is rejected.
    The tolled market and the rebuild simulation's arrivals enter through
    the same loop."""
    tolls = tolls or {}
    model = market.cost_model
    loads = _loads(market, profile)
    for pid in selfish_ids:
        provider = market.provider(pid)
        best_node = None
        best_price = model.remote_cost(provider) if allow_remote else math.inf
        for cl in market.network.cloudlets:
            node = cl.node_id
            if not _fits(market, node, loads[node], pid):
                continue
            price = model.cost(provider, cl, 1) + tolls.get(node, 0.0)
            if price < best_price:
                best_price = price
                best_node = node
        if best_node is None:
            rejected.add(pid)
            continue
        profile[pid] = best_node
        loads[best_node][0] += provider.compute_demand
        loads[best_node][1] += provider.bandwidth_demand


# --------------------------------------------------------------------- #
# Baselines (whole-function oracles)
# --------------------------------------------------------------------- #
def _sequential_admission(
    market: ServiceMarket,
    preference_cost: Callable[[ServiceProvider, Cloudlet, int], float],
) -> Tuple[Dict[int, int], Set[int]]:
    """Admit providers in id order; each takes its cheapest feasible cloudlet
    under ``preference_cost(provider, cloudlet, occupancy_if_joining)``."""
    loads: Dict[int, List[float]] = {
        cl.node_id: [0.0, 0.0] for cl in market.network.cloudlets
    }
    occupancy: Dict[int, int] = {cl.node_id: 0 for cl in market.network.cloudlets}
    placement: Dict[int, int] = {}
    rejected: Set[int] = set()

    for provider in market.providers:
        best_node: Optional[int] = None
        best_cost = float("inf")
        for cl in market.network.cloudlets:
            node = cl.node_id
            if (
                loads[node][0] + provider.compute_demand > cl.compute_capacity + CAPACITY_EPS
                or loads[node][1] + provider.bandwidth_demand
                > cl.bandwidth_capacity + CAPACITY_EPS
            ):
                continue
            # Infrastructure-level admission: forbidden (infinite fixed
            # cost) pairs — e.g. latency-budget violations — are rejected
            # for the baselines too.
            if not math.isfinite(market.cost_model.fixed_cost(provider, cl)):
                continue
            cost = preference_cost(provider, cl, occupancy[node] + 1)
            if cost < best_cost:
                best_cost = cost
                best_node = node
        if best_node is None:
            rejected.add(provider.provider_id)
            continue
        placement[provider.provider_id] = best_node
        loads[best_node][0] += provider.compute_demand
        loads[best_node][1] += provider.bandwidth_demand
        occupancy[best_node] += 1
    return placement, rejected


def object_jo_offload_cache(market: ServiceMarket) -> CachingAssignment:
    """:func:`repro.core.baselines.jo_offload_cache` on the cost model."""
    model = market.cost_model

    def myopic_cost(provider: ServiceProvider, cloudlet: Cloudlet, occupancy: int) -> float:
        # Joint offloading + caching under static prices: the provider sees
        # the published per-unit congestion prices (occupancy 1, i.e.
        # itself) but not the other providers' simultaneous choices, and
        # the update/synchronisation cost is invisible to [23].
        return (
            model.congestion_cost(cloudlet, 1)
            + model.instantiation_cost(provider)
            + model.access_cost(provider, cloudlet)
        )

    with Stopwatch() as watch:
        placement, rejected = _sequential_admission(market, myopic_cost)
    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="JoOffloadCache",
        runtime_s=watch.elapsed,
    )


def object_offload_cache(market: ServiceMarket) -> CachingAssignment:
    """:func:`repro.core.baselines.offload_cache` on the network queries."""
    network = market.network

    def offload_only_cost(provider: ServiceProvider, cloudlet: Cloudlet, occupancy: int) -> float:
        # Pure offloading optimum: minimum end-to-end delay from the users
        # to the cloudlet; caching (prices, congestion, updates) is decided
        # "later" by simply instantiating where the requests went.
        return network.path_delay(provider.service.user_node, cloudlet.node_id)

    with Stopwatch() as watch:
        placement, rejected = _sequential_admission(market, offload_only_cost)
    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="OffloadCache",
        runtime_s=watch.elapsed,
    )


# --------------------------------------------------------------------- #
# The LP lower bound (whole-function oracle)
# --------------------------------------------------------------------- #
def _slots_per_cloudlet(market: ServiceMarket) -> Dict[int, int]:
    """Max services a cloudlet could conceivably host: bounded by provider
    count and by capacity over the smallest demand."""
    n = market.num_providers
    a_min = market.min_compute_demand()
    b_min = market.min_bandwidth_demand()
    slots: Dict[int, int] = {}
    for cl in market.network.cloudlets:
        by_cpu = math.floor(cl.compute_capacity / a_min) if a_min > 0 else n
        by_bw = math.floor(cl.bandwidth_capacity / b_min) if b_min > 0 else n
        slots[cl.node_id] = max(0, min(n, by_cpu, by_bw))
    return slots


def object_social_cost_lower_bound(
    market: ServiceMarket,
    allow_remote: bool = False,
) -> float:
    """:func:`repro.core.lower_bound.social_cost_lower_bound` as the slotted
    LP over the cost model: one column ``x[l, i, k]`` per (provider,
    cloudlet, slot), slot ``k`` priced at the provider's fixed cost plus
    the marginal congestion charge ``(alpha_i + beta_i) * (k*g(k) -
    (k-1)*g(k-1))``, each slot holding at most one (fractional) service
    and the compute / bandwidth capacities bounding the cloudlet total.

    ``allow_remote`` adds each provider's remote-serving option, matching
    algorithms run with their remote fallback enabled. Raises
    :class:`InfeasibleError` when not even the relaxation can place
    everyone (and remote is off).
    """
    model = market.cost_model
    net = market.network
    providers = market.providers
    n = len(providers)
    slots = _slots_per_cloudlet(market)

    # Column construction: (provider_index, cloudlet_node, slot) + optional
    # remote columns (provider_index, None, 0).
    columns: List[Tuple[int, Optional[int], int]] = []
    costs: List[float] = []
    g = model.congestion
    for j, provider in enumerate(providers):
        for cl in net.cloudlets:
            fixed = model.fixed_cost(provider, cl)
            coeff = cl.alpha + cl.beta
            for k in range(1, slots[cl.node_id] + 1):
                marginal = coeff * (k * g(k) - (k - 1) * g(k - 1))
                columns.append((j, cl.node_id, k))
                costs.append(fixed + marginal)
        if allow_remote:
            columns.append((j, None, 0))
            costs.append(model.remote_cost(provider))
    if not columns:
        raise InfeasibleError("no placement columns (zero slots everywhere)")

    n_cols = len(columns)
    c = np.asarray(costs)

    rows_eq, cols_eq, data_eq = [], [], []
    for idx, (j, _node, _k) in enumerate(columns):
        rows_eq.append(j)
        cols_eq.append(idx)
        data_eq.append(1.0)
    a_eq = csr_matrix((data_eq, (rows_eq, cols_eq)), shape=(n, n_cols))
    b_eq = np.ones(n)

    # Inequalities: per (cloudlet, slot) occupancy <= 1; per cloudlet the
    # two capacity constraints.
    slot_row: Dict[Tuple[int, int], int] = {}
    cap_row: Dict[Tuple[int, str], int] = {}
    next_row = 0
    for cl in net.cloudlets:
        for k in range(1, slots[cl.node_id] + 1):
            slot_row[(cl.node_id, k)] = next_row
            next_row += 1
        cap_row[(cl.node_id, "cpu")] = next_row
        cap_row[(cl.node_id, "bw")] = next_row + 1
        next_row += 2

    rows_ub, cols_ub, data_ub = [], [], []
    b_ub = np.zeros(next_row)
    for (node, k), r in slot_row.items():
        b_ub[r] = 1.0
    for cl in net.cloudlets:
        b_ub[cap_row[(cl.node_id, "cpu")]] = cl.compute_capacity
        b_ub[cap_row[(cl.node_id, "bw")]] = cl.bandwidth_capacity

    for idx, (j, node, k) in enumerate(columns):
        if node is None:
            continue
        provider = providers[j]
        rows_ub.append(slot_row[(node, k)])
        cols_ub.append(idx)
        data_ub.append(1.0)
        rows_ub.append(cap_row[(node, "cpu")])
        cols_ub.append(idx)
        data_ub.append(provider.compute_demand)
        rows_ub.append(cap_row[(node, "bw")])
        cols_ub.append(idx)
        data_ub.append(provider.bandwidth_demand)
    a_ub = csr_matrix((data_ub, (rows_ub, cols_ub)), shape=(next_row, n_cols))

    result = linprog(
        c,
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleError("the LP relaxation itself is infeasible")
    if not result.success:
        raise SolverError(f"linprog failed: {result.message}")
    return float(result.fun)


# --------------------------------------------------------------------- #
# Congestion tolls
# --------------------------------------------------------------------- #
def object_anticipatory_tolls(market: ServiceMarket, level: float) -> Dict[int, float]:
    """Per-cloudlet tolls ``level * (alpha_i + beta_i) * load_i`` where
    ``load_i`` is the load the social optimum (Appro with marginal pricing)
    would put there — the leader's anticipation of a healthy allocation."""
    check_non_negative(level, "level")
    reference = appro(market, allow_remote=True)
    occupancy = reference.occupancy()
    tolls: Dict[int, float] = {}
    for cl in market.network.cloudlets:
        load = occupancy.get(cl.node_id, 0)
        tolls[cl.node_id] = level * (cl.alpha + cl.beta) * load
    return tolls


def object_tolled_selfish_market(
    market: ServiceMarket,
    tolls: Optional[Dict[int, float]] = None,
) -> CachingAssignment:
    """Run the fully selfish posted-price market under the given tolls.

    Every provider (no coordination at all) picks the cloudlet minimising
    ``posted cost + toll``, sequentially with capacity admission and the
    remote option. Tolls are excluded from the reported social cost.
    """
    tolls = tolls or {}
    unknown = set(tolls) - {cl.node_id for cl in market.network.cloudlets}
    if unknown:
        raise ConfigurationError(f"tolls reference unknown cloudlets {sorted(unknown)}")

    with Stopwatch() as watch:
        placement: Dict[int, int] = {}
        rejected: Set[int] = set()
        object_posted_entry(
            market, placement, [p.provider_id for p in market.providers],
            rejected, allow_remote=True, tolls=tolls,
        )

    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="TolledSelfish",
        runtime_s=watch.elapsed,
        info={"toll_revenue": sum(tolls.get(n, 0.0) for n in placement.values())},
    )


# --------------------------------------------------------------------- #
# The seams
# --------------------------------------------------------------------- #
#: ``(patch target, oracle)`` for every module-level seam the library's
#: compiled path is reached through.
_SEAMS = (
    ("repro.gap.greedy._greedy_assignment", _greedy_scalar),
    (
        "repro.core.virtual_cloudlets.VirtualCloudletSplit.build_gap_instance",
        object_build_gap_instance,
    ),
    ("repro.core.appro._repair_capacities", object_repair_capacities),
    ("repro.core.appro._enter_newcomers", object_enter_newcomers),
    ("repro.core.lcf.market_game", object_market_game),
    ("repro.core.lcf._posted_entry", object_posted_entry),
)


@contextmanager
def use_object_graph() -> Iterator[None]:
    """Run the library on the object-graph oracles while the context is
    open: greedy GAP loops per item, Appro builds its GAP instance, repairs
    capacities and places warm newcomers through the cost model, LCF's
    posted-price entry queries the cost model per pair, and LCF's games
    evaluate their tables from the cost callables."""
    with ExitStack() as stack:
        for target, oracle in _SEAMS:
            stack.enter_context(mock.patch(target, oracle))
        yield


# --------------------------------------------------------------------- #
# The dynamic simulation
# --------------------------------------------------------------------- #
class ObjectRebuildSimulation(DynamicMarketSimulation):
    """:class:`DynamicMarketSimulation` that rebuilds the market object graph
    from scratch every epoch and runs every epoch on the object-graph
    oracles (:func:`use_object_graph`).

    Outages still route through the protocol: the fresh market gets one
    cumulative ``MarketDelta(outages=...)`` for everything currently down,
    and :meth:`step` recovers them again before the epoch ends, since the
    rebuilt markets share one network whose cloudlets must re-enter each
    epoch nominal. Region sharding is not supported (it needs the
    persistent market).
    """

    #: The market the current epoch was run on.
    _epoch_market: Optional[ServiceMarket] = None

    def _social(
        self, market: ServiceMarket, placement: Dict[int, int], rejected: Set[int]
    ) -> float:
        model = market.cost_model
        total = model.social_cost(market.providers_by_id(), placement)
        for pid in sorted(rejected):
            total += model.remote_cost(market.provider(pid))
        return total

    def _advance_market(
        self, delta: MarketDelta, providers: List[ServiceProvider]
    ) -> ServiceMarket:
        down = self.outages.failed if self.outages is not None else ()
        market = self._market(providers)
        if down:
            market.apply(MarketDelta(outages=down))
        self._epoch_market = market
        return market

    def _incremental(
        self, market: ServiceMarket, arrivals: Set[int]
    ) -> Tuple[Dict[int, int], Set[int]]:
        """Keep survivors in place; arrivals enter posted-price greedily."""
        present = {p.provider_id for p in market.providers}
        placement = {
            pid: node for pid, node in self.placement.items() if pid in present
        }
        rejected = {pid for pid in self.rejected if pid in present}

        object_posted_entry(
            market, placement, sorted(arrivals), rejected, allow_remote=True
        )
        return placement, rejected

    def step(self) -> EpochRecord:
        with use_object_graph():
            record = super().step()
        market = self._epoch_market
        if market is not None and market.failed_cloudlets:
            # The object arm rebuilds its market every epoch but shares
            # one network: hand the borrowed cloudlets back at nominal
            # capacity before the next rebuild saves 0.0 as "nominal".
            market.apply(MarketDelta(recoveries=market.failed_cloudlets))
        return record


__all__ = [
    "ObjectRebuildSimulation",
    "object_build_gap_instance",
    "object_enter_newcomers",
    "object_jo_offload_cache",
    "object_market_game",
    "object_merge_assignment",
    "object_offload_cache",
    "object_posted_entry",
    "object_repair_capacities",
    "object_virtual_cloudlets",
    "object_weighted_gap_instance",
    "use_object_graph",
    "use_weighted_gap",
]
