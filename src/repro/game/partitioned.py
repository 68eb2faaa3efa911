"""Partitioned best-response equilibria over region shards.

The driver consumes the sharding layer of :mod:`repro.market.shard` and
runs the paper's best-response dynamics as a two-level fixed point:

1. **Interior phase** — each shard settles its interior providers on its
   own :class:`~repro.market.compiled.CompiledMarket` sub-view (played as
   the :class:`~repro.game.engine.MarketGame` read off it) with the
   batch kernel, boundary providers currently cached on the shard pinned
   in place. Congestion is per-cloudlet, so a shard's occupancies are
   *exact* — the only coupling across shards is boundary providers
   wanting to move between them. A sub-view carries only the rows its
   shard can price (interior providers plus the boundary providers that
   reach it), and a placed provider outside them is rejected with
   :class:`~repro.exceptions.InfeasibleError`. The phase is *screened*
   first: one Jacobi propose over the global tables prices every dirty
   shard's interior movers exactly as round 1 of their own shard's
   settle would (an interior provider's finite costs all lie in its
   shard's columns, and the sub-view's tables and occupancies are
   bit-equal there), and a shard none of whose movers can improve —
   whose settle would commit nothing — is skipped: its view is neither
   built nor shipped. The remaining shards are independent and run
   either serially (deterministic reference) or on a
   :class:`~repro.runtime.Runtime`: each sub-view is published on its
   content-addressed blob store, and the shard tasks of one phase travel
   as one chunk per worker (balanced by sub-profile size, settled in
   shard-id order inside a chunk), so a phase is a single
   ``Runtime.map`` call of at most ``runtime.workers`` tasks — which a
   local transport runs in-process when it holds one chunk. The merge
   is bit-identical to the serial path.
2. **Boundary phase** — one batch best-response pass over the *global*
   tables with only the boundary providers movable, re-pricing their
   cross-shard options against the frozen interiors.

The loop repeats until a full iteration commits no move (or the
``boundary_rounds`` cap is hit), then the result is *certified*
(:func:`repro.game.equilibrium.certify_equilibrium`): the same propose
over the movable population confirms that no player can
strictly improve — a certified profile is a global Nash equilibrium of
the market game, not merely a fixed point of the loop. The boundary
phase's kernel validates the placement's capacities; a call without
boundary movers validates it once up front instead, so a skipped
shard's overload is still reported as a
:class:`~repro.exceptions.CapacityError`.

Tolerance semantics
-------------------
With one shard the loop degenerates to the global batch engine — same
tables (bit-equal sub-view), same player order, same column order, same
tie-breaking — so the result is **bit-identical**; the differential
lockdown in ``tests/game/test_partitioned.py`` pins this. With several
shards, the interleaving of commits differs from the global round-robin
schedule, so the dynamics may settle in a *different* Nash equilibrium
of the same potential game. Both endpoints are certified equilibria;
their social costs agree within :data:`BOUNDARY_TOLERANCE` on the test
topologies (documented in ``docs/sharding.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Final,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.game.batch import batch_best_response
from repro.game.congestion import Profile
from repro.game.engine import game_from_compiled
from repro.game.equilibrium import _improving, certify_equilibrium
from repro.market.compiled import CompiledMarket
from repro.market.shard import (
    MarketPartition,
    ShardClassification,
    classify_providers,
    partition_market,
    shard_view,
)
from repro.runtime.transport import BlobRef, fetch_blob
from repro.utils.contracts import (
    _second_arg,
    _third_arg,
    invariant_capacity_feasible,
    invariant_shard_ownership,
)

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.market.market import ServiceMarket
    from repro.runtime import Runtime

#: Documented relative tolerance between the sharded and the global
#: equilibrium's social cost on multi-shard topologies. Both are
#: *certified* Nash equilibria of the same exact-potential game; they may
#: sit in different basins, and on the test topologies their social costs
#: agree within this bound (single-shard runs are bit-identical instead).
#: The worst gap measured over 155 certified settles of 150- and 300-node
#: markets (3/5/8 ms and no latency budget, 2-8 shards) was 1.3e-3.
BOUNDARY_TOLERANCE: Final[float] = 0.01


def _settle_shard(
    sub_cm: CompiledMarket,
    sub_profile: Profile,
    movable: Sequence[int],
    max_rounds: int,
) -> Tuple[Profile, int]:
    """Settle one shard's interior providers on its sub-view tables."""
    game = game_from_compiled(sub_cm, players=sorted(sub_profile))
    profile, _converged, _rounds, moves, _trace, _log = batch_best_response(
        game,
        sub_profile,
        movable=movable,
        max_rounds=max_rounds,
    )
    return profile, moves


#: One shard's work item inside a chunk: ``(blob ref of its sub-view,
#: shard id, sub-profile items, movable ids)``.
ShardItem = Tuple[BlobRef, int, Tuple[Tuple[int, int], ...], Tuple[int, ...]]


def _shard_task(
    task: Tuple[Tuple[ShardItem, ...], int],
) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], int], ...]:
    """Worker body for one chunk of shard interior settles.

    ``task`` is ``(shard items, max_rounds)``; each item's heavy sub-view
    travels by reference (fetched and memoized per worker by
    :func:`repro.runtime.fetch_blob`), the rest is a few tuples. The
    chunk's shards settle in order, and each yields ``(settled items,
    moves)``. Pure: reads the blobs, returns the settled items; no
    module state is written besides the fetch memo.
    """
    items, max_rounds = task
    results = []
    for ref, _shard_id, sub_items, movable in items:
        profile, moves = _settle_shard(
            fetch_blob(ref), dict(sub_items), list(movable), max_rounds
        )
        results.append((tuple(sorted(profile.items())), moves))
    return tuple(results)


def _chunks(
    tasks: Sequence[Tuple[int, Profile, List[int]]], n_chunks: int
) -> List[List[Tuple[int, Profile, List[int]]]]:
    """Split shard tasks into ``n_chunks`` deterministic chunks balanced
    by sub-profile size: largest first onto the lightest chunk (lowest
    index on ties), each chunk then in shard-id order."""
    chunks: List[List[Tuple[int, Profile, List[int]]]] = [
        [] for _ in range(n_chunks)
    ]
    loads = [0] * n_chunks
    for task in sorted(tasks, key=lambda t: (-len(t[1]), t[0])):
        k = loads.index(min(loads))
        chunks[k].append(task)
        loads[k] += len(task[1])
    return [sorted(chunk, key=lambda t: t[0]) for chunk in chunks]


@dataclass(frozen=True)
class PartitionedResult:
    """Outcome of one partitioned equilibrium computation."""

    #: The settled placement, provider id -> cloudlet node.
    profile: Dict[int, int]
    #: Did a full interior+boundary iteration commit zero moves before
    #: the ``boundary_rounds`` cap?
    converged: bool
    #: Boundary-loop iterations executed.
    rounds: int
    #: Moves committed inside shard interiors / by boundary providers.
    interior_moves: int
    boundary_moves: int
    #: Did the final Jacobi propose confirm a global Nash equilibrium?
    certified: bool
    #: Eq. (6) social cost of the settled placement (global tables).
    social_cost: float
    partition: MarketPartition
    classification: ShardClassification = field(repr=False)

    @property
    def moves(self) -> int:
        return self.interior_moves + self.boundary_moves


@invariant_capacity_feasible()
@invariant_shard_ownership(
    get_partition=_second_arg, get_classification=_third_arg
)
def _reconcile(
    market: "ServiceMarket",
    partition: MarketPartition,
    classification: ShardClassification,
    cm: CompiledMarket,
    profile: Profile,
    movable_set: set,
    max_rounds: int,
    boundary_rounds: int,
    runtime: Optional["Runtime"],
) -> PartitionedResult:
    """The bounded interior/boundary fixed-point loop (see module doc).

    Decorated with the capacity contract (market-form, against the first
    argument) and the shard-ownership contract (partition/classification
    from the second/third arguments) — both armed by
    ``REPRO_DEBUG_INVARIANTS=1``. Raises :class:`InfeasibleError` for a
    placed provider that its cloudlet's shard view cannot price.
    """
    if not profile:
        return PartitionedResult(
            profile={},
            converged=True,
            rounds=0,
            interior_moves=0,
            boundary_moves=0,
            certified=True,
            social_cost=0.0,
            partition=partition,
            classification=classification,
        )

    # The tables do not change inside one call, so each shard's view is
    # sliced at most once, and the global boundary game is built once:
    # the placed population never changes inside the loop, only
    # positions do.
    views: Dict[int, CompiledMarket] = {}

    def view_of(s: int) -> CompiledMarket:
        if s not in views:
            views[s] = shard_view(cm, partition, s, classification)
        return views[s]

    boundary_movable = sorted(set(classification.boundary) & movable_set)
    global_game = game_from_compiled(cm, players=sorted(profile))

    interior_moves = 0
    boundary_moves = 0
    converged = False
    rounds = 0
    shard_of_cl = partition.shard_of_cloudlet
    # Shards whose occupancies may have changed since their last interior
    # settle. Congestion is per-cloudlet, so only a boundary move into or
    # out of a shard can disturb an already-settled interior — iteration 1
    # screens every shard, later iterations only the shards the boundary
    # phase's move log actually touched.
    dirty = set(partition.shard_ids)
    interior_shard = classification.interior_shard
    reach = {s: set(pids) for s, pids in classification.boundary_reach.items()}
    if not boundary_movable:
        # No boundary phase validates the placement, and the screen below
        # may skip every interior settle that would have.
        global_game.validate_profile(profile)
    for rounds in range(1, boundary_rounds + 1):
        it_moves = 0

        # One pass groups the placement by shard (profile order within a
        # shard) and rejects a provider its shard's view cannot price.
        by_shard: Dict[int, Profile] = {}
        for pid, node in profile.items():
            s = shard_of_cl.get(node)
            if s is None or (interior_shard.get(pid) != s and pid not in reach[s]):
                raise InfeasibleError(
                    f"provider {pid} is placed on node {node}, which no "
                    f"shard view can price: the node is not a cloudlet of "
                    f"a shard the provider's feasible mask reaches"
                )
            by_shard.setdefault(s, {})[pid] = node

        # Interior phase: shards are disjoint, merge order is irrelevant;
        # shard-id order keeps the serial path deterministic anyway.
        tasks = []
        for s in sorted(dirty):
            sub_profile = by_shard.get(s, {})
            mv = sorted(
                set(classification.interior.get(s, ()))
                & movable_set
                & set(sub_profile)
            )
            if not mv:
                continue
            tasks.append((s, sub_profile, mv))

        # Screen: an interior provider's finite costs all lie in its own
        # shard's columns, and a sub-view's tables and occupancies are
        # bit-equal to the global ones there, so one global propose gives
        # every mover the same best and current cost as round 1 of its
        # shard's settle. A shard none of whose movers improves would
        # settle in that round with zero moves, returning its input: it
        # is skipped, without building, publishing or shipping its view.
        if tasks:
            shard_of_mover = {p: s for s, _sub, mv in tasks for p in mv}
            order = [p for p in global_game.players if p in shard_of_mover]
            fires = _improving(global_game, profile, order).tolist()
            live = {shard_of_mover[p] for p, f in zip(order, fires) if f}
            tasks = [task for task in tasks if task[0] in live]

        if runtime is not None and tasks:
            payloads = [
                (
                    tuple(
                        (
                            runtime.publish(view_of(s)),
                            s,
                            tuple(sorted(sub_profile.items())),
                            tuple(mv),
                        )
                        for s, sub_profile, mv in chunk
                    ),
                    max_rounds,
                )
                for chunk in _chunks(tasks, min(runtime.workers, len(tasks)))
            ]
            for chunk_results in runtime.map(_shard_task, payloads):
                for items, moves in chunk_results:
                    profile.update(dict(items))
                    interior_moves += moves
                    it_moves += moves
        else:
            # The serial reference settles the views themselves, unpickled.
            for s, sub_profile, mv in tasks:
                settled, moves = _settle_shard(
                    view_of(s), sub_profile, mv, max_rounds
                )
                profile.update(settled)
                interior_moves += moves
                it_moves += moves

        # Boundary phase: re-price cross-shard options on global tables
        # against the frozen interiors; its move log marks the shards to
        # re-settle next iteration.
        dirty = set()
        if boundary_movable:
            profile_b, _conv, _r, moves, _trace, blog = batch_best_response(
                global_game,
                profile,
                movable=boundary_movable,
                max_rounds=max_rounds,
                record_moves=True,
            )
            profile = profile_b
            boundary_moves += moves
            it_moves += moves
            for _p, old, new, _d in blog:
                dirty.add(shard_of_cl[old])
                dirty.add(shard_of_cl[new])

        if it_moves == 0:
            converged = True
            break

    certified = certify_equilibrium(
        global_game, profile, movable=movable_set & set(profile)
    )
    return PartitionedResult(
        profile=dict(profile),
        converged=converged,
        rounds=rounds,
        interior_moves=interior_moves,
        boundary_moves=boundary_moves,
        certified=certified,
        social_cost=cm.social_cost(profile),
        partition=partition,
        classification=classification,
    )


def partitioned_best_response(
    market: "ServiceMarket",
    initial_profile: Mapping[int, int],
    *,
    partition: Optional[MarketPartition] = None,
    n_shards: Optional[int] = None,
    classification: Optional[ShardClassification] = None,
    movable: Optional[Iterable[int]] = None,
    max_rounds: int = 1000,
    boundary_rounds: int = 8,
    runtime: Optional["Runtime"] = None,
) -> PartitionedResult:
    """Settle a placement to equilibrium shard by shard.

    Parameters
    ----------
    partition / n_shards:
        An existing :class:`MarketPartition`, or the target shard count
        for :func:`repro.market.shard.partition_market` (default: one
        shard per cloudlet-bearing region).
    movable:
        Providers allowed to move (default: every placed provider);
        intersected with the placed population.
    boundary_rounds:
        Cap on interior/boundary iterations. The loop usually exits
        earlier — at the first iteration committing zero moves.
    runtime:
        Optional :class:`~repro.runtime.Runtime` for concurrent
        interiors: each interior phase publishes its shards' sub-views
        by content and settles them in one
        :meth:`~repro.runtime.Runtime.map` call of one chunk per worker,
        so a runtime may be shared by any number of markets and table
        states. ``None`` settles serially, without pickling, with
        bit-identical results.
    classification:
        A precomputed :class:`ShardClassification` for the market's
        compiled tables at their current state (recompute after every
        applied delta).

    Nothing is kept between calls: sub-views and the global boundary
    game live for one call.
    """
    if boundary_rounds < 1:
        raise ConfigurationError(
            f"boundary_rounds must be >= 1, got {boundary_rounds}"
        )
    cm = market.compile()
    if partition is None:
        partition = partition_market(market, n_shards)
    if classification is None:
        classification = classify_providers(cm, partition)
    profile: Profile = dict(initial_profile)
    movable_set = set(movable) if movable is not None else set(profile)
    movable_set &= set(profile)
    return _reconcile(
        market,
        partition,
        classification,
        cm,
        profile,
        movable_set,
        max_rounds,
        boundary_rounds,
        runtime,
    )


__all__ = [
    "BOUNDARY_TOLERANCE",
    "PartitionedResult",
    "certify_equilibrium",
    "partitioned_best_response",
]
