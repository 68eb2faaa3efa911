"""Alternative improvement dynamics for congestion games.

:mod:`repro.game.best_response` runs deterministic round-robin best
responses. This module adds the two classic variants used to study
convergence speed in potential games:

* **better-response** — the mover takes the *first* improving resource
  (cheaper per move, possibly more moves overall);
* **random-order best response** — the player order is reshuffled every
  round (removes order artifacts; used for equilibrium-selection studies).

All variants share the Rosenthal-potential convergence argument, so they
terminate at (the same set of) pure Nash equilibria; the fixed points only
differ in *which* equilibrium is selected.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set

import numpy as np

from repro.exceptions import InfeasibleError
from repro.game.best_response import BestResponseResult
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import IMPROVEMENT_EPS
from repro.utils.rng import RandomSource, as_rng


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
        if not game.move_is_feasible(player, resource, profile, loads):
            continue
        if game.cost(player, resource, occ.get(resource, 0) + 1) < (
            current_cost - IMPROVEMENT_EPS
        ):
            return resource
    return None


def _best_response(
    game: SingletonCongestionGame,
    player: Hashable,
    profile: Profile,
    loads: Dict[Hashable, np.ndarray],
    occ: Dict[Hashable, int],
) -> Optional[Hashable]:
    current = profile[player]
    best_cost = game.cost(player, current, occ[current]) - IMPROVEMENT_EPS
    best_resource = None
    for resource in game.resources:
        if resource == current:
            continue
        if not game.move_is_feasible(player, resource, profile, loads):
            continue
        cost = game.cost(player, resource, occ.get(resource, 0) + 1)
        if cost < best_cost:
            best_cost = cost
            best_resource = resource
    return best_resource


def improvement_dynamics(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    variant: str = "better",
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    rng: RandomSource = None,
) -> BestResponseResult:
    """Run an improvement dynamic to a pure Nash equilibrium.

    ``variant``:

    * ``"better"`` — first improving move, round-robin order;
    * ``"best_random_order"`` — best responses, order reshuffled per round.
    """
    if variant not in ("better", "best_random_order"):
        raise InfeasibleError(f"unknown variant {variant!r}")
    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    movable_set: Set[Hashable] = (
        set(movable) if movable is not None else set(game.players)
    )
    unknown = movable_set - set(game.players)
    if unknown:
        raise InfeasibleError(f"movable contains unknown players {sorted(unknown, key=str)}")
    rng = as_rng(rng)
    responder = (
        _first_improving_response if variant == "better" else _best_response
    )

    base_order = [p for p in game.players if p in movable_set]
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


__all__ = ["improvement_dynamics"]
