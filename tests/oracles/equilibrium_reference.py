"""Reference Nash-equilibrium check: the scalar per-resource scan.

The library certifies equilibria with one vectorised propose of the
best-response kernel, :func:`repro.game.equilibrium.certify_equilibrium`.
The scalar check it replaced is kept here verbatim as the oracle the
differential tests compare it against:

* :func:`best_deviation` — a player's best feasible unilateral deviation,
  found by a Python scan over the game's cost callables;
* :func:`is_nash_equilibrium` — no movable player gains more than ``eps``
  (default ``1e-7``; the certificate uses the kernel's move threshold
  :data:`repro.game.engine.IMPROVEMENT_EPS`).

A profile is a (constrained, pure) Nash equilibrium of the movable players
when no movable player has a *feasible* unilateral deviation that lowers its
cost by more than ``eps``. Coordinated players are treated as part of the
environment (their strategies are pinned by the Stackelberg leader), which is
exactly the equilibrium notion of Theorem 1.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Set, Tuple

from repro.game.congestion import SingletonCongestionGame
from tests.oracles.best_response_reference import scalar_move_is_feasible


def best_deviation(
    game: SingletonCongestionGame,
    player: Hashable,
    profile: Mapping[Hashable, Hashable],
) -> Tuple[Optional[Hashable], float]:
    """The player's best feasible deviation and its gain (> 0 = improves).

    Returns ``(None, 0.0)`` when staying put is weakly optimal.
    """
    occ = game.occupancy(profile)
    loads = game.loads(profile)
    current = profile[player]
    current_cost = game.cost(player, current, occ[current])
    best_r: Optional[Hashable] = None
    best_gain = 0.0
    for r in game.resources:
        if r == current:
            continue
        if not scalar_move_is_feasible(game, player, r, profile, loads):
            continue
        gain = current_cost - game.cost(player, r, occ.get(r, 0) + 1)
        if gain > best_gain:
            best_gain = gain
            best_r = r
    return best_r, best_gain


def is_nash_equilibrium(
    game: SingletonCongestionGame,
    profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    eps: float = 1e-7,
) -> bool:
    """Whether no movable player can feasibly improve by more than ``eps``."""
    movable_set: Set[Hashable] = set(movable) if movable is not None else set(game.players)
    for p in movable_set:
        _, gain = best_deviation(game, p, profile)
        if gain > eps:
            return False
    return True


__all__ = ["best_deviation", "is_nash_equilibrium"]
