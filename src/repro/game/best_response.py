"""Best-response dynamics for capacitated singleton congestion games.

Movable players take turns (round-robin, deterministic order) switching to
their cheapest feasible resource; the dynamics stop when a full round passes
without an improving move. Because the game admits Rosenthal's exact
potential, every improving move strictly decreases the potential, so the
dynamics terminate at a (constrained) Nash equilibrium of the movable
players (Lemma 3).

The dynamics run on the batch-vectorized kernel of :mod:`repro.game.batch`:
every round prices all players' candidate moves as one delta-cost matrix
over compiled tables and commits them in round-robin priority order,
replaying the serial move sequence bit for bit. The naive per-resource
engine and the per-turn incremental engine it replaced live in
``tests/oracles/best_response_reference.py`` as differential oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InfeasibleError
from repro.game.batch import batch_best_response
from repro.game.congestion import Profile, SingletonCongestionGame


@dataclass
class BestResponseResult:
    """Outcome of a best-response run."""

    profile: Profile
    converged: bool
    rounds: int
    moves: int
    #: Rosenthal potential sampled after each round (index 0 = initial).
    potential_trace: List[float] = field(default_factory=list)
    #: Per-move records ``(player, old, new, cost_delta)``; filled only
    #: when the dynamics ran with ``record_moves=True``.
    move_log: List[Tuple[Hashable, Hashable, Hashable, float]] = field(
        default_factory=list
    )

    @property
    def final_potential(self) -> float:
        return self.potential_trace[-1] if self.potential_trace else float("nan")


def greedy_feasible_profile(
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
            if not game.move_is_feasible(p, r, profile, loads):
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


def best_response_dynamics(
    game: SingletonCongestionGame,
    initial_profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
    max_rounds: int = 1000,
    record_moves: bool = False,
) -> BestResponseResult:
    """Run round-robin best-response dynamics from ``initial_profile``.

    Parameters
    ----------
    movable:
        The players allowed to deviate; defaults to all. Coordinated
        (Stackelberg-pinned) players are simply excluded from this set.
    max_rounds:
        Safety bound; the potential argument guarantees termination, the
        bound only protects against ill-formed cost functions; hitting it
        returns ``converged=False``.
    record_moves:
        Fill :attr:`BestResponseResult.move_log` with one record per
        improving move.
    """
    profile, converged, rounds, moves, trace, move_log = batch_best_response(
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


__all__ = [
    "BestResponseResult",
    "best_response_dynamics",
    "greedy_feasible_profile",
]
