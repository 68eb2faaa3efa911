"""Reference best-response dynamics: the naive and incremental engines.

The library runs Lemma 3's round-robin best response through one kernel,
:func:`repro.game.batch.batch_best_response`. The two engines it replaced
are kept here verbatim as the oracles the differential and property suites
compare it against:

* :func:`naive_best_response_dynamics` — per-resource Python scans and a
  full Rosenthal-potential recomputation every round;
* :func:`incremental_best_response` — compiled cost tables, one vectorised
  argmin per player turn and a delta-maintained potential.

:func:`scalar_improvement_dynamics` is the per-resource scan the
library's better-response and random-order dynamics
(:func:`repro.game.dynamics_variants.improvement_dynamics`) ran before
they priced moves on the compiled tables; its best responder is the naive
engine's. :func:`scalar_move_is_feasible` is the scalar move-feasibility
check all the scalar scans here share.

The library's one sequential entry,
:func:`repro.game.best_response.sequential_entry`, has two scalar twins
here: :func:`scalar_greedy_feasible_profile`, the per-resource greedy start
``greedy_feasible_profile`` ran before it read the compiled tables, and
:func:`naive_selfish_entry`, LCF's matching full-information entry scan,
the naive twin of :func:`repro.core.lcf._selfish_entry` (the posted-price
entry's twin is
:func:`tests.oracles.object_graph_reference.object_posted_entry`).

All three engines visit players in the same order with the same strict
improvement threshold and the same first-minimum tie-break, so they
produce the same profiles, move counts and rounds. The incremental engine
and the batch kernel also agree on every potential-trace float; the naive
engine recomputes the potential from scratch, which reorders float
additions (~1e-15 relative drift), so its traces agree to ``allclose``.

:func:`use_kernel` routes the library's best-response callers through an
oracle kernel, so whole pipelines (``lcf``, warm starts) can be replayed
on the reference engines.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)
from unittest import mock

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.game.batch import movable_order
from repro.game.best_response import BestResponseResult, best_response_dynamics
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.dynamics_variants import VARIANTS
from repro.game.engine import IMPROVEMENT_EPS, CompiledGame
from repro.utils.contracts import (
    check_potential_accumulator,
    invariant_capacity_feasible,
    invariant_potential_descends,
    invariants_active,
)
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import CAPACITY_EPS
from tests.oracles.state_reference import loop_loads, loop_occupancy

#: The naive engine's name for the strict-improvement threshold.
_IMPROVEMENT_EPS = IMPROVEMENT_EPS


def scalar_move_is_feasible(
    game: SingletonCongestionGame,
    player: Hashable,
    resource: Hashable,
    profile: Mapping[Hashable, Hashable],
    loads: Optional[Dict[Hashable, np.ndarray]] = None,
) -> bool:
    """Whether ``player`` may deviate to ``resource`` given the others'
    current usage (the player's own demand is removed first)."""
    if np.isinf(game.fixed_cost(player, resource)):
        return False
    if not game.capacitated:
        return True
    if loads is None:
        loads = game.loads(profile)
    current = profile.get(player)
    load = loads.get(resource, np.zeros_like(game.capacity_of(resource))).copy()
    if current == resource:
        load = load - game.demand_of(player, resource)
    new_load = load + game.demand_of(player, resource)
    return bool(np.all(new_load <= game.capacity_of(resource) + CAPACITY_EPS))


def _entry_costs(
    c: CompiledGame,
    player_idx: int,
    occ: np.ndarray,
    loads: Optional[np.ndarray],
) -> np.ndarray:
    """Cost of joining each resource (infeasible ones are ``+inf``): the
    player faces the live occupancy plus itself. Infeasible means the
    player's demand does not fit on top of ``loads`` (uncapacitated games
    admit everything)."""
    kcol = np.minimum(occ + 1, c.n_players)
    shared = c.shared[np.arange(c.n_resources), kcol]
    costs = shared + c.fixed[player_idx]
    if c.demand is not None:
        new_load = loads + c.demand[player_idx]
        costs[~np.all(new_load <= c.capacity + CAPACITY_EPS, axis=1)] = np.inf
    return costs


def _best_feasible_response(
    game: SingletonCongestionGame,
    player: Hashable,
    profile: Profile,
    loads: Dict[Hashable, np.ndarray],
    occ: Dict[Hashable, int],
) -> Optional[Hashable]:
    """The player's cheapest feasible resource, or ``None`` when staying put
    is (weakly) best. Deviating to ``r`` faces occupancy ``occ[r] + 1``."""
    current = profile[player]
    current_cost = game.cost(player, current, occ[current])
    best_r = None
    best_cost = current_cost - _IMPROVEMENT_EPS
    for r in game.resources:
        if r == current:
            continue
        if not scalar_move_is_feasible(game, player, r, profile, loads):
            continue
        c = game.cost(player, r, occ.get(r, 0) + 1)
        if c < best_cost:
            best_cost = c
            best_r = r
    return best_r


@invariant_capacity_feasible()
@invariant_potential_descends()
def naive_best_response_dynamics(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    record_moves: bool = False,
) -> BestResponseResult:
    """Round-robin best response with per-resource scans and a from-scratch
    potential every round."""
    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    movable_set: Set[Hashable] = set(movable) if movable is not None else set(game.players)
    unknown = movable_set - set(game.players)
    if unknown:
        raise InfeasibleError(f"movable contains unknown players {sorted(unknown, key=str)}")

    move_order = [p for p in game.players if p in movable_set]
    loads = game.loads(profile)
    occ = game.occupancy(profile)
    trace = [game.potential(profile)]
    moves = 0
    rounds = 0
    converged = not move_order  # nothing to move: trivially converged
    move_log: List[Tuple[Hashable, Hashable, Hashable, float]] = []

    for rounds in range(1, max_rounds + 1):
        improved = False
        for p in move_order:
            r_new = _best_feasible_response(game, p, profile, loads, occ)
            if r_new is None:
                continue
            r_old = profile[p]
            if record_moves:
                old_cost = game.cost(p, r_old, occ[r_old])
            profile[p] = r_new
            occ[r_old] -= 1
            if occ[r_old] == 0:
                del occ[r_old]
            occ[r_new] = occ.get(r_new, 0) + 1
            if game.capacitated:
                loads[r_old] = loads[r_old] - game.demand_of(p, r_old)
                d = game.demand_of(p, r_new)
                loads[r_new] = loads.get(r_new, np.zeros_like(d)) + d
            if record_moves:
                new_cost = game.cost(p, r_new, occ[r_new])
                move_log.append((p, r_old, r_new, new_cost - old_cost))
            moves += 1
            improved = True
        trace.append(game.potential(profile))
        if not improved:
            converged = True
            break

    return BestResponseResult(
        profile=profile,
        converged=converged,
        rounds=rounds,
        moves=moves,
        potential_trace=trace,
        move_log=move_log,
    )


@invariant_capacity_feasible()
@invariant_potential_descends()
def incremental_best_response(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    record_moves: bool = False,
) -> Tuple[Profile, bool, int, int, List[float], List[Tuple[Hashable, Hashable, Hashable, float]]]:
    """Round-robin best-response dynamics on compiled tables.

    Returns ``(profile, converged, rounds, moves, potential_trace,
    move_log)`` with the same semantics as the naive engine; the potential
    trace is maintained by the per-move accumulator. ``move_log`` holds
    ``(player, old_resource, new_resource, cost_delta)`` tuples when
    ``record_moves`` is set (each ``cost_delta`` is the mover's strict
    improvement, i.e. the exact potential decrease of that move).
    """
    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    movable_set = set(movable) if movable is not None else set(game.players)
    unknown = movable_set - set(game.players)
    if unknown:
        raise InfeasibleError(f"movable contains unknown players {sorted(unknown, key=str)}")
    move_order = [p for p in game.players if p in movable_set]

    phi = game.potential(profile)
    trace = [phi]
    moves = 0
    rounds = 0
    converged = not move_order
    move_log: List[Tuple[Hashable, Hashable, Hashable, float]] = []

    if move_order:
        c = game.compile()
        occ = loop_occupancy(c, profile)
        loads = loop_loads(c, profile)
        strat = {p: c.resource_index[profile[p]] for p in move_order}
        mover_idx = [c.player_index[p] for p in move_order]
    else:
        c = None

    for rounds in range(1, max_rounds + 1):
        improved = False
        for p, pi in zip(move_order, mover_idx) if move_order else ():
            cur = strat[p]
            current_cost = c.shared[cur, occ[cur]] + c.fixed[pi, cur]
            costs = _entry_costs(c, pi, occ, loads)
            costs[cur] = np.inf
            j = int(np.argmin(costs))
            best = costs[j]
            if not best < current_cost - IMPROVEMENT_EPS:
                continue
            # Apply the move delta. The mover's new cost is exactly the
            # selected entry cost, so the exact-potential property gives
            # the accumulator update for free.
            occ[cur] -= 1
            occ[j] += 1
            if loads is not None:
                loads[cur] -= c.demand[pi, cur]
                loads[j] += c.demand[pi, j]
            strat[p] = j
            profile[p] = c.resources[j]
            delta = float(best - current_cost)
            phi += delta
            if record_moves:
                move_log.append((p, c.resources[cur], c.resources[j], delta))
            moves += 1
            improved = True
        trace.append(phi)
        if not improved:
            converged = True
            break

    if invariants_active():
        # The delta updates are exact by the potential property; verify the
        # accumulator against a from-scratch Rosenthal recomputation.
        check_potential_accumulator(game, profile, phi)
    return profile, converged, rounds, moves, trace, move_log


def incremental_best_response_dynamics(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    record_moves: bool = False,
) -> BestResponseResult:
    """:func:`incremental_best_response` with the result wrapped like
    :func:`repro.game.best_response.best_response_dynamics` wraps the
    batch kernel's."""
    profile, converged, rounds, moves, trace, move_log = incremental_best_response(
        game,
        initial_profile,
        movable=movable,
        max_rounds=max_rounds,
        record_moves=record_moves,
    )
    return BestResponseResult(
        profile=profile,
        converged=converged,
        rounds=rounds,
        moves=moves,
        potential_trace=trace,
        move_log=move_log,
    )


#: Both reference engines and the library's dynamics (``"batch"``) by
#: name, each with the signature and result of
#: :func:`repro.game.best_response.best_response_dynamics`.
DYNAMICS: Dict[str, Callable[..., BestResponseResult]] = {
    "naive": naive_best_response_dynamics,
    "incremental": incremental_best_response_dynamics,
    "batch": best_response_dynamics,
}


def _first_improving_response(
    game: SingletonCongestionGame,
    player: Hashable,
    profile: Profile,
    loads: Dict[Hashable, np.ndarray],
    occ: Dict[Hashable, int],
) -> Optional[Hashable]:
    """The first feasible resource strictly cheaper than the current one
    (deterministic resource order)."""
    current = profile[player]
    current_cost = game.cost(player, current, occ[current])
    for resource in game.resources:
        if resource == current:
            continue
        if not scalar_move_is_feasible(game, player, resource, profile, loads):
            continue
        if game.cost(player, resource, occ.get(resource, 0) + 1) < (
            current_cost - IMPROVEMENT_EPS
        ):
            return resource
    return None


def scalar_improvement_dynamics(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    variant: str = "better",
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    rng: RandomSource = None,
) -> BestResponseResult:
    """:func:`repro.game.dynamics_variants.improvement_dynamics` with
    per-resource scans over the game's cost callables: ``"better"`` takes
    :func:`_first_improving_response`, ``"best_random_order"`` the naive
    engine's :func:`_best_feasible_response`."""
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {variant!r}; choose from {VARIANTS}"
        )
    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    base_order = movable_order(game, movable)
    rng = as_rng(rng)
    responder = (
        _first_improving_response if variant == "better" else _best_feasible_response
    )

    loads = game.loads(profile)
    occ = game.occupancy(profile)
    trace = [game.potential(profile)]
    moves = 0
    rounds = 0
    converged = not base_order

    for rounds in range(1, max_rounds + 1):
        order = list(base_order)
        if variant == "best_random_order":
            rng.shuffle(order)
        improved = False
        for player in order:
            target = responder(game, player, profile, loads, occ)
            if target is None:
                continue
            old = profile[player]
            profile[player] = target
            occ[old] -= 1
            if occ[old] == 0:
                del occ[old]
            occ[target] = occ.get(target, 0) + 1
            if game.capacitated:
                loads[old] = loads[old] - game.demand_of(player, old)
                d = game.demand_of(player, target)
                loads[target] = loads.get(target, np.zeros_like(d)) + d
            moves += 1
            improved = True
        trace.append(game.potential(profile))
        if not improved:
            converged = True
            break

    return BestResponseResult(
        profile=profile,
        converged=converged,
        rounds=rounds,
        moves=moves,
        potential_trace=trace,
    )


def scalar_greedy_feasible_profile(
    game: SingletonCongestionGame,
    players: Optional[Sequence[Hashable]] = None,
    base_profile: Optional[Mapping[Hashable, Hashable]] = None,
    order: Optional[Sequence[Hashable]] = None,
) -> Profile:
    """Build a feasible profile by sequential cheapest-feasible placement.

    ``base_profile`` holds already-placed players (e.g. the coordinated set);
    the remaining ``players`` (default: all unplaced) are inserted one at a
    time onto the resource minimising their cost at the occupancy they would
    create. Raises :class:`InfeasibleError` when someone cannot be placed.
    """
    profile: Profile = dict(base_profile) if base_profile else {}
    todo = list(players) if players is not None else [
        p for p in game.players if p not in profile
    ]
    if order is not None:
        order_index = {p: k for k, p in enumerate(order)}
        todo.sort(key=lambda p: order_index.get(p, len(order_index)))

    loads = game.loads(profile)
    occ = game.occupancy(profile)
    for p in todo:
        best_r = None
        best_cost = np.inf
        for r in game.resources:
            if not scalar_move_is_feasible(game, p, r, profile, loads):
                continue
            c = game.cost(p, r, occ.get(r, 0) + 1)
            if c < best_cost:
                best_cost = c
                best_r = r
        if best_r is None:
            raise InfeasibleError(f"no feasible resource for player {p!r}")
        profile[p] = best_r
        occ[best_r] = occ.get(best_r, 0) + 1
        if game.capacitated:
            d = game.demand_of(p, best_r)
            loads[best_r] = loads.get(best_r, np.zeros_like(d)) + d
    return profile


def naive_selfish_entry(
    game_all: SingletonCongestionGame,
    profile: Dict[int, int],
    selfish_ids: List[int],
    rejected: Set[int],
    placed_selfish: List[int],
    entry_threshold: Callable[[int], float],
) -> None:
    """LCF's full-information sequential selfish entry with per-resource
    scans over the game's cost callables; same arguments and in-place
    updates as :func:`repro.core.lcf._selfish_entry`."""
    occ: Dict[int, int] = game_all.occupancy(profile)
    loads = game_all.loads(profile)
    for pid in selfish_ids:
        best_node = None
        best_cost = entry_threshold(pid)
        for node in game_all.resources:
            if not scalar_move_is_feasible(game_all, pid, node, profile, loads):
                continue
            c = game_all.cost(pid, node, occ.get(node, 0) + 1)
            if c < best_cost:
                best_cost = c
                best_node = node
        if best_node is None:
            rejected.add(pid)
            continue
        profile[pid] = best_node
        occ[best_node] = occ.get(best_node, 0) + 1
        if game_all.capacitated:
            d = game_all.demand_of(pid, best_node)
            loads[best_node] = loads.get(best_node, d * 0.0) + d
        placed_selfish.append(pid)


#: Where the library looks the best-response kernel up: the module that
#: defines it (``repro.cli`` imports it at call time) and the module-level
#: name ``best_response_dynamics`` calls.
_KERNEL_SITES = (
    "repro.game.batch.batch_best_response",
    "repro.game.best_response.batch_best_response",
)


@contextmanager
def use_kernel(name: str) -> Iterator[None]:
    """Run the library on a reference engine while the context is open.

    ``"incremental"`` swaps :func:`incremental_best_response` in for the
    batch kernel. ``"naive"`` swaps in :func:`naive_best_response_dynamics`
    for ``lcf``'s dynamics and :func:`naive_selfish_entry` for its
    full-information entry scan — the whole naive full-information LCF
    pipeline. ``"batch"`` changes nothing.
    """
    if name == "batch":
        yield
    elif name == "incremental":
        with mock.patch(_KERNEL_SITES[0], incremental_best_response), mock.patch(
            _KERNEL_SITES[1], incremental_best_response
        ):
            yield
    elif name == "naive":
        with mock.patch(
            "repro.core.lcf.best_response_dynamics", naive_best_response_dynamics
        ), mock.patch("repro.core.lcf._selfish_entry", naive_selfish_entry):
            yield
    else:
        raise ValueError(f"unknown reference engine {name!r}")


__all__ = [
    "DYNAMICS",
    "incremental_best_response",
    "incremental_best_response_dynamics",
    "naive_best_response_dynamics",
    "naive_selfish_entry",
    "scalar_greedy_feasible_profile",
    "scalar_improvement_dynamics",
    "scalar_move_is_feasible",
    "use_kernel",
]
