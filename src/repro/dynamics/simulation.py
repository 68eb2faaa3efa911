"""Epoch-by-epoch simulation of a dynamic caching market.

Each epoch: the population churns, a placement policy reacts, and the epoch
is billed its social cost (Eq. 6 over the current placement) plus the
*migration cost* of every cached instance that moved — re-shipping its data
volume over the network and re-instantiating its VM. Three policies:

* ``"replan"`` — rerun the full LCF mechanism on the new population every
  epoch. Near-optimal per epoch but migrates aggressively.
* ``"incremental"`` — survivors keep their cloudlets; only arrivals choose,
  through :func:`~repro.core.lcf.posted_price_entry` (the posted-price
  entry the toll extension runs with tolls added). Zero migrations, but
  the placement drifts away from optimal as the population turns over.
* ``"hysteresis"`` — hold the incremental placement until its social cost
  drifts more than ``hysteresis_threshold`` (relative) away from the cost
  recorded at the last replan, then replan once and re-anchor. The
  stability knob between the two extremes: migrations happen in bursts,
  only when staying put has become measurably bad.

The tension between the policies is the classic caching stability trade-off
the title alludes to; ``examples/dynamic_market.py`` and the dynamics
benchmark quantify it.

Epochs can also carry *cloudlet outages*: pass an
:class:`~repro.dynamics.outages.OutageTrace` and each epoch's failure and
recovery events ride the same :class:`~repro.market.delta.MarketDelta` as
the provider churn. Providers cached on a failed cloudlet are *displaced*
— their instances are destroyed (re-instantiated from the data center,
so no migration is billed) and they re-enter under a ``recovery`` policy:

* ``"failover"`` — displaced providers re-enter through the same
  posted-price entry, everyone else stays put (the cheap, warm path);
* ``"replan"`` — a full (warm-started) LCF replan absorbs the outage;
* ``"hysteresis"`` — failover until the social cost drifts past
  ``hysteresis_threshold``, then one replan.

Per-epoch availability metrics (which cloudlets are down, displacement
churn, SLA violations, time-to-recover) land on the
:class:`EpochRecord`/:class:`SimulationSummary` report.

Epochs run on the mutation protocol: the simulation keeps **one** persistent
:class:`~repro.market.market.ServiceMarket` and feeds each epoch's churn to
``market.apply(MarketDelta(...))``, which patches the cached
:class:`~repro.market.compiled.CompiledMarket` in place (tombstone/append
rows) instead of recompiling; replans are *warm-started* from the previous
epoch's LCF result (survivors keep strategies, only newcomers are placed —
the GAP LP is skipped entirely). The rebuild-every-epoch reference — a
fresh market object graph per epoch, run on the object-graph algorithms —
lives on as a test oracle (``ObjectRebuildSimulation`` in
``tests/oracles/object_graph_reference.py``); for the same policy and
``warm_start`` setting it bills bit-identical costs every epoch, which
``tests/dynamics/test_delta_equivalence.py`` pins over long churn traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.appro import GAP_SOLVERS
from repro.core.lcf import LCFResult, lcf, posted_price_entry
from repro.dynamics.outages import OutageEvent, OutageTrace
from repro.game.partitioned import partitioned_best_response
from repro.dynamics.population import PopulationEvent, PopulationProcess
from repro.exceptions import ConfigurationError
from repro.market.costs import CongestionFunction
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.service import ServiceProvider
from repro.market.shard import MarketPartition, ShardLog, partition_market
from repro.network.topology import MECNetwork
from repro.utils.validation import check_fraction

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runtime import CheckpointJournal, Runtime

_POLICIES = ("replan", "incremental", "hysteresis")
_RECOVERY_POLICIES = ("failover", "replan", "hysteresis")
_SHARDING = ("none", "region")

#: Floor for the relative-drift denominator, so an anchor of zero social
#: cost (an epoch the market emptied into) cannot divide by zero.
_DRIFT_FLOOR = 1e-12


@dataclass
class EpochRecord:
    """Everything billed in one epoch."""

    epoch: int
    population: int
    arrived: int
    departed: int
    social_cost: float
    migration_cost: float
    migrations: int
    rejected: int
    #: Whether this epoch ran the full LCF replan (always true for
    #: ``"replan"``, never for ``"incremental"``, drift-dependent for
    #: ``"hysteresis"``).
    replanned: bool = False
    #: Cloudlets that went down this epoch.
    outages: Tuple[int, ...] = ()
    #: Cloudlets that came back up this epoch.
    recoveries: Tuple[int, ...] = ()
    #: Cloudlets down at the end of the epoch (after outages/recoveries).
    failed_cloudlets: Tuple[int, ...] = ()
    #: Providers whose cached instance was destroyed by an outage this
    #: epoch (they re-enter under the recovery policy).
    displaced: int = 0
    #: Displaced providers the recovery policy could not re-place at the
    #: edge this epoch — their service falls back to remote serving.
    sla_violations: int = 0
    #: Best-response moves the sharded settle committed after the policy
    #: ran (``sharding="region"`` only; zero otherwise).
    settle_moves: int = 0
    #: Whether the sharded settle certified the final placement as a
    #: global Nash equilibrium; ``None`` when sharding is off.
    equilibrium_certified: Optional[bool] = None

    @property
    def total_cost(self) -> float:
        return self.social_cost + self.migration_cost


@dataclass
class SimulationSummary:
    """Aggregates over a full run."""

    policy: str
    epochs: List[EpochRecord]
    #: Completed outage durations, one entry per cloudlet-down incident
    #: that recovered within the run (epochs from failure to recovery).
    #: Incidents still open when the run ends are not counted.
    recovery_epochs: Tuple[int, ...] = ()

    @property
    def total_cost(self) -> float:
        return sum(e.total_cost for e in self.epochs)

    @property
    def total_migration_cost(self) -> float:
        return sum(e.migration_cost for e in self.epochs)

    @property
    def total_migrations(self) -> int:
        return sum(e.migrations for e in self.epochs)

    @property
    def total_replans(self) -> int:
        return sum(1 for e in self.epochs if e.replanned)

    @property
    def total_settle_moves(self) -> int:
        """Moves committed by the sharded settle across the run."""
        return sum(e.settle_moves for e in self.epochs)

    @property
    def mean_social_cost(self) -> float:
        return float(np.mean([e.social_cost for e in self.epochs]))

    @property
    def mean_population(self) -> float:
        return float(np.mean([e.population for e in self.epochs]))

    # ------------------------------------------------------------------ #
    # Availability metrics
    # ------------------------------------------------------------------ #
    @property
    def total_displaced(self) -> int:
        """Displacement churn: provider instances destroyed by outages."""
        return sum(e.displaced for e in self.epochs)

    @property
    def total_sla_violations(self) -> int:
        """Displaced providers that fell back to remote serving."""
        return sum(e.sla_violations for e in self.epochs)

    @property
    def provider_downtime(self) -> int:
        """Provider-epochs spent rejected (served remotely, not at the
        edge) — the end-to-end availability cost of congestion *and*
        outages together."""
        return sum(e.rejected for e in self.epochs)

    @property
    def cloudlet_downtime(self) -> int:
        """Cloudlet-epochs spent failed across the run."""
        return sum(len(e.failed_cloudlets) for e in self.epochs)

    @property
    def mean_time_to_recover(self) -> float:
        """Mean epochs from cloudlet failure to recovery over completed
        incidents; ``nan`` when no incident completed."""
        if not self.recovery_epochs:
            return float("nan")
        return float(np.mean(self.recovery_epochs))


class DynamicMarketSimulation:
    """Run a placement policy over a churning provider population.

    Parameters
    ----------
    policy:
        ``"replan"``, ``"incremental"`` or ``"hysteresis"`` (see the
        module docstring).
    warm_start:
        Warm-start each replan from the previous replan's LCF result
        (survivors keep strategies, newcomers enter greedily, no GAP LP).
        Default on; set ``False`` for cold replans — the quality
        reference the benchmark compares against.
    hysteresis_threshold:
        Relative social-cost drift that triggers a replan under the
        ``"hysteresis"`` policy. ``0.0`` replans on any drift
        (≈ ``"replan"``); ``inf`` never re-triggers after the first
        epoch (≈ ``"incremental"``).
    outages:
        Optional :class:`~repro.dynamics.outages.OutageTrace`; stepped
        once per epoch, its failure/recovery events ride the epoch's
        :class:`~repro.market.delta.MarketDelta`.
    recovery:
        How displaced providers re-enter on epochs with new outages:
        ``"failover"`` (greedy posted-price re-entry, everyone else
        stays), ``"replan"`` (full warm LCF replan) or ``"hysteresis"``
        (failover until drift exceeds ``hysteresis_threshold``). Ignored
        when ``outages`` is ``None``.
    sharding:
        ``"none"`` (default) bills each epoch's policy output as-is;
        ``"region"`` partitions the market into transit-stub region
        shards and, after the policy runs, settles the placement to a
        certified equilibrium with
        :func:`~repro.game.partitioned.partitioned_best_response` —
        epoch churn rides the sequence-numbered
        :class:`~repro.market.shard.ShardLog` replication log alongside
        the compiled-table deltas.
    n_shards / boundary_rounds:
        Shard count for :func:`~repro.market.shard.partition_market`
        (default: one shard per cloudlet-bearing region) and the cap on
        interior/boundary reconciliation iterations per settle.
    shard_runtime:
        Where shard interiors settle: a caller-owned live
        :class:`~repro.runtime.Runtime` (``Runtime(workers=N)``,
        ``Runtime(spool=DIR)`` or ``Runtime(transport=...)``) that the
        simulation borrows and never closes; ``None`` settles serially,
        the deterministic reference. Region sharding only.
    shard_journal:
        Optional :class:`~repro.runtime.CheckpointJournal`
        handed to the :class:`~repro.market.shard.ShardLog`: every
        :class:`~repro.market.shard.ShardDelta` routed from one global
        delta is durably checkpointed in one record under ``(seq,)``
        before the epoch settles, and
        :meth:`ShardLog.replay <repro.market.shard.ShardLog.replay>`
        rebuilds the delta stream deterministically from it after a
        crash. Region sharding only.
    """

    def __init__(
        self,
        network: MECNetwork,
        population: PopulationProcess,
        policy: str = "replan",
        xi: float = 0.7,
        pricing: Optional[Pricing] = None,
        congestion: Optional[CongestionFunction] = None,
        latency_budget_ms: Optional[float] = None,
        migration_setup_cost: float = 0.1,
        trace: Optional[Callable[[int], float]] = None,
        warm_start: bool = True,
        gap_solver: str = "shmoys_tardos",
        hysteresis_threshold: float = 0.15,
        outages: Optional[OutageTrace] = None,
        recovery: str = "failover",
        sharding: str = "none",
        n_shards: Optional[int] = None,
        boundary_rounds: int = 8,
        shard_runtime: Optional["Runtime"] = None,
        shard_journal: Optional["CheckpointJournal"] = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"policy must be one of {_POLICIES}, got {policy!r}"
            )
        if sharding not in _SHARDING:
            raise ConfigurationError(
                f"sharding must be one of {_SHARDING}, got {sharding!r}"
            )
        if boundary_rounds < 1:
            raise ConfigurationError(
                f"boundary_rounds must be >= 1, got {boundary_rounds}"
            )
        if recovery not in _RECOVERY_POLICIES:
            raise ConfigurationError(
                f"recovery must be one of {_RECOVERY_POLICIES}, got {recovery!r}"
            )
        if gap_solver not in GAP_SOLVERS:
            raise ConfigurationError(
                f"gap_solver must be one of {list(GAP_SOLVERS)}, "
                f"got {gap_solver!r}"
            )
        if hysteresis_threshold < 0:
            raise ConfigurationError(
                f"hysteresis_threshold must be >= 0, got {hysteresis_threshold}"
            )
        if sharding == "none" and (
            shard_runtime is not None or shard_journal is not None
        ):
            raise ConfigurationError(
                'shard_runtime= and shard_journal= need sharding="region"; '
                'with sharding="none" no shard settle runs'
            )
        check_fraction(xi, "xi")
        self.network = network
        self.population = population
        self.policy = policy
        self.xi = xi
        self.pricing = pricing if pricing is not None else Pricing()
        self.congestion = congestion
        #: Optional per-request latency budget for every epoch's market;
        #: a tight budget shrinks feasible cloudlet sets, which is what
        #: gives region sharding non-trivial shard *interiors* (providers
        #: whose settle can dispatch to shard workers or host agents).
        self.latency_budget_ms = latency_budget_ms
        self.migration_setup_cost = migration_setup_cost
        #: Optional ``epoch -> arrival rate`` profile (e.g.
        #: :class:`repro.dynamics.traces.DiurnalTrace`); when given, the
        #: population's arrival rate is retargeted before every epoch.
        self.trace = trace
        self.warm_start = warm_start
        self.gap_solver = gap_solver
        self.hysteresis_threshold = hysteresis_threshold
        self.outages = outages
        self.recovery = recovery
        #: Completed outage durations (epochs down per recovered incident).
        self._recovery_times: List[int] = []
        #: node -> epoch it failed, for incidents still open.
        self._down_since: Dict[int, int] = {}
        #: provider_id -> cloudlet node of the *currently cached* instance.
        self.placement: Dict[int, int] = {}
        self.rejected: Set[int] = set()
        #: The persistent delta-patched market (built on the first
        #: populated epoch).
        self.market: Optional[ServiceMarket] = None
        self._last_result: Optional[LCFResult] = None
        self._anchor_cost: Optional[float] = None
        self.sharding = sharding
        self.n_shards = n_shards
        self.boundary_rounds = boundary_rounds
        self.shard_journal = shard_journal
        self.shard_runtime = shard_runtime
        #: Region partition + replication log, built lazily with the
        #: persistent market (``sharding="region"`` only).
        self._partition: Optional[MarketPartition] = None
        self._shard_log: Optional[ShardLog] = None

    # ------------------------------------------------------------------ #
    # Cost helpers
    # ------------------------------------------------------------------ #
    def _market(self, providers: List[ServiceProvider]) -> ServiceMarket:
        return ServiceMarket(
            self.network,
            providers,
            pricing=self.pricing,
            congestion=self.congestion,
            latency_budget_ms=self.latency_budget_ms,
        )

    def migration_cost(self, provider: ServiceProvider, old: int, new: int) -> float:
        """Cost of moving a cached instance between cloudlets: re-ship the
        full service data along the path plus a VM re-setup charge."""
        hops = self.network.hop_count(old, new)
        shipping = self.pricing.transmission_cost(provider.service.data_volume_gb, hops)
        return shipping + self.migration_setup_cost

    def _bill_migrations(
        self, market: ServiceMarket, new_placement: Dict[int, int]
    ) -> Tuple[float, int]:
        """Bill survivors whose cloudlet changed across the epoch boundary.

        Only the epoch's *net* movement is billed: a provider evicted and
        readmitted within the same epoch (e.g. shuffled by the capacity
        repair, or placed by the incremental candidate and then moved by a
        hysteresis replan) is charged exactly once, for the old -> final
        hop — and nothing at all if it ends up back where it started,
        since the instance never physically moved.
        """
        cost = 0.0
        count = 0
        for pid, node in new_placement.items():
            old = self.placement.get(pid)
            if old is not None and old != node:
                cost += self.migration_cost(market.provider(pid), old, node)
                count += 1
        return cost, count

    def _social(
        self, market: ServiceMarket, placement: Dict[int, int], rejected: Set[int]
    ) -> float:
        """Epoch social cost: Eq. (6) over the placed providers plus the
        remote-serving cost of the rejected ones (folded in id order)."""
        cm = market.compile()
        total = cm.social_cost(placement)
        for pid in sorted(rejected):
            total += cm.remote_cost(pid)
        return total

    # ------------------------------------------------------------------ #
    # Market maintenance (the mutation protocol)
    # ------------------------------------------------------------------ #
    def _init_sharding(self, market: ServiceMarket) -> None:
        """Build the region partition and seed the replication log with
        the market's founding population (later churn arrives as deltas
        through :meth:`_apply_delta`)."""
        if self.sharding != "region" or self._partition is not None:
            return
        self._partition = partition_market(market, self.n_shards)
        self._shard_log = ShardLog(
            self._partition,
            providers=market.providers,
            journal=self.shard_journal,
        )

    def _apply_delta(self, delta: MarketDelta) -> None:
        """Patch the persistent market and, when sharding, append the
        delta to the replication log (advancing its sequence number)."""
        assert self.market is not None
        self.market.apply(delta)
        if self._shard_log is not None:
            self._shard_log.append(delta)

    def _advance_market(
        self, delta: MarketDelta, providers: List[ServiceProvider]
    ) -> ServiceMarket:
        """One epoch's market: delta-patch the persistent one, or build it
        on the first populated epoch (with one cumulative
        ``MarketDelta(outages=...)`` for everything already down)."""
        if self.market is None:
            down = self.outages.failed if self.outages is not None else ()
            self.market = self._market(providers)
            self.market.compile()
            self._init_sharding(self.market)
            if down:
                self._apply_delta(MarketDelta(outages=down))
        else:
            self._apply_delta(delta)
        return self.market

    # ------------------------------------------------------------------ #
    # Policies
    # ------------------------------------------------------------------ #
    def _replan(self, market: ServiceMarket) -> Tuple[Dict[int, int], Set[int]]:
        warm = self._last_result if self.warm_start else None
        result = lcf(
            market,
            xi=self.xi,
            allow_remote=True,
            gap_solver=self.gap_solver,
            warm_start=warm,
        )
        self._last_result = result
        return dict(result.assignment.placement), set(result.assignment.rejected)

    def _incremental(
        self, market: ServiceMarket, arrivals: Set[int]
    ) -> Tuple[Dict[int, int], Set[int]]:
        """Keep survivors in place; arrivals enter through
        :func:`~repro.core.lcf.posted_price_entry` in id order."""
        present = {p.provider_id for p in market.providers}
        placement = {
            pid: node for pid, node in self.placement.items() if pid in present
        }
        rejected = {pid for pid in self.rejected if pid in present}
        posted_price_entry(market.compile(), placement, rejected, sorted(arrivals))
        return placement, rejected

    def _hysteresis(
        self, market: ServiceMarket, arrivals: Set[int]
    ) -> Tuple[Dict[int, int], Set[int], bool]:
        """Stick with the incremental candidate until its social cost
        drifts past the threshold, then replan and re-anchor."""
        placement, rejected = self._incremental(market, arrivals)
        candidate_cost = self._social(market, placement, rejected)
        if self._anchor_cost is None:
            drift = float("inf")
        else:
            drift = abs(candidate_cost - self._anchor_cost) / max(
                abs(self._anchor_cost), _DRIFT_FLOOR
            )
        if drift > self.hysteresis_threshold:
            placement, rejected = self._replan(market)
            self._anchor_cost = self._social(market, placement, rejected)
            return placement, rejected, True
        return placement, rejected, False

    # ------------------------------------------------------------------ #
    # The epoch loop
    # ------------------------------------------------------------------ #
    def step(self) -> EpochRecord:
        """Advance one epoch and bill it."""
        if self.trace is not None:
            next_epoch = self.population._epoch + 1
            self.population.arrival_rate = float(self.trace(next_epoch))
        event: PopulationEvent = self.population.step()
        outage_event: Optional[OutageEvent] = (
            self.outages.step() if self.outages is not None else None
        )
        out_nodes = outage_event.outages if outage_event is not None else ()
        rec_nodes = outage_event.recoveries if outage_event is not None else ()
        for node in out_nodes:
            self._down_since[node] = event.epoch
        for node in rec_nodes:
            self._recovery_times.append(event.epoch - self._down_since.pop(node))
        failed_now = (
            set(self.outages.failed) if self.outages is not None else set()
        )

        providers = self.population.present
        by_id = {p.provider_id: p for p in providers}
        delta = MarketDelta(
            arrivals=tuple(by_id[pid] for pid in sorted(event.arrived)),
            departures=tuple(event.departed),
            outages=out_nodes,
            recoveries=rec_nodes,
        )

        if not providers:
            # The market died out this epoch: keep the persistent market's
            # tables in sync (it may refill later) and reset the warm state
            # — the next population starts a fresh history.
            if self.market is not None:
                self._apply_delta(delta)
            self.placement = {}
            self.rejected = set()
            self._last_result = None
            self._anchor_cost = None
            return EpochRecord(
                epoch=event.epoch,
                population=0,
                arrived=len(event.arrived),
                departed=len(event.departed),
                social_cost=0.0,
                migration_cost=0.0,
                migrations=0,
                rejected=0,
                outages=out_nodes,
                recoveries=rec_nodes,
                failed_cloudlets=tuple(sorted(failed_now)),
            )

        market = self._advance_market(delta, providers)

        # Outage displacement: instances cached on a failed cloudlet are
        # destroyed. The provider re-enters through the recovery policy
        # below as if newly arrived (re-instantiated from the data
        # center), so no old->new migration is billed for them.
        displaced = {
            pid for pid, node in self.placement.items() if node in failed_now
        }
        if displaced:
            self.placement = {
                pid: node
                for pid, node in self.placement.items()
                if pid not in displaced
            }

        replanned = False
        # Anyone present but unplaced must choose now — epoch-1 initial
        # population included, displaced providers included, not just this
        # epoch's arrivals.
        unplaced = {
            p.provider_id
            for p in providers
            if p.provider_id not in self.placement
            and p.provider_id not in self.rejected
        }
        # On an outage epoch the recovery policy decides how the market
        # absorbs the displacement; "failover" is the incremental entry.
        mode = self.recovery if displaced else self.policy
        if mode == "replan":
            new_placement, new_rejected = self._replan(market)
            replanned = True
            if displaced:
                self._anchor_cost = self._social(market, new_placement, new_rejected)
        elif mode in ("incremental", "failover"):
            new_placement, new_rejected = self._incremental(market, unplaced)
        else:
            new_placement, new_rejected, replanned = self._hysteresis(market, unplaced)

        settle_moves = 0
        certified: Optional[bool] = None
        if self._partition is not None:
            new_placement, settle_moves, certified = self._settle_sharded(
                market, new_placement
            )

        migration_cost, migrations = self._bill_migrations(market, new_placement)
        self.placement = new_placement
        self.rejected = new_rejected

        social = self._social(market, new_placement, new_rejected)
        return EpochRecord(
            epoch=event.epoch,
            population=len(providers),
            arrived=len(event.arrived),
            departed=len(event.departed),
            social_cost=social,
            migration_cost=migration_cost,
            migrations=migrations,
            rejected=len(new_rejected),
            replanned=replanned,
            outages=out_nodes,
            recoveries=rec_nodes,
            failed_cloudlets=tuple(sorted(failed_now)),
            displaced=len(displaced),
            sla_violations=len(displaced & new_rejected),
            settle_moves=settle_moves,
            equilibrium_certified=certified,
        )

    def _settle_sharded(
        self, market: ServiceMarket, placement: Dict[int, int]
    ) -> Tuple[Dict[int, int], int, bool]:
        """Settle the policy's placement to a partitioned equilibrium.

        Each settle slices the shard views it needs from the current
        tables and, on a runtime, publishes them by content; nothing is
        carried from one epoch to the next.
        """
        result = partitioned_best_response(
            market,
            placement,
            partition=self._partition,
            boundary_rounds=self.boundary_rounds,
            runtime=self.shard_runtime,
        )
        return dict(result.profile), result.moves, result.certified

    def run(self, epochs: int) -> SimulationSummary:
        """Run ``epochs`` epochs and return the billing summary."""
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        records = [self.step() for _ in range(epochs)]
        return SimulationSummary(
            policy=self.policy,
            epochs=records,
            recovery_epochs=tuple(self._recovery_times),
        )


__all__ = ["EpochRecord", "SimulationSummary", "DynamicMarketSimulation"]
