"""Best-response dynamics for capacitated singleton congestion games.

Movable players take turns (round-robin, deterministic order) switching to
their cheapest feasible resource; the dynamics stop when a full round passes
without an improving move. Because the game admits Rosenthal's exact
potential, every improving move strictly decreases the potential, so the
dynamics terminate at a (constrained) Nash equilibrium of the movable
players (Lemma 3).

Starts come from :func:`sequential_entry`, the one sequential
cheapest-feasible entry (the greedy start and LCF's full-information
selfish entry), which reads the same compiled tables as the kernel.

The dynamics run on the batch-vectorized kernel of :mod:`repro.game.batch`:
every round prices all players' candidate moves as one delta-cost matrix
over compiled tables and commits them in round-robin priority order,
replaying the serial move sequence bit for bit. The naive per-resource
engine and the per-turn incremental engine it replaced, and the scalar
greedy entry, live in ``tests/oracles/best_response_reference.py`` as
differential oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InfeasibleError
from repro.game.batch import _fits, batch_best_response
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import CompiledGame
from repro.utils.validation import CAPACITY_EPS


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


def _join_row(
    c: CompiledGame,
    i: int,
    occ: np.ndarray,
    loads: Optional[np.ndarray],
    cap_eps: Optional[np.ndarray],
) -> np.ndarray:
    """Player row ``i``'s cost of joining each resource at the occupancy
    it would create, ``shared[r, occ_r + 1] + fixed[i, r]``, with ``inf``
    where its demand does not fit on top of ``loads`` (``None`` for an
    uncapacitated game). A fresh array the caller may mask further."""
    costs = c.shared[np.arange(c.n_resources), np.minimum(occ + 1, c.n_players)] + c.fixed[i]
    if loads is not None:
        costs[~_fits(loads, c.demand[i], cap_eps)] = np.inf
    return costs


def sequential_entry(
    game: SingletonCongestionGame,
    profile: Profile,
    entrants: Iterable[Hashable],
    threshold: Optional[Callable[[Hashable], float]] = None,
) -> List[Hashable]:
    """Sequential cheapest-feasible entry on the game's compiled tables.

    Each entrant, in order, joins the first resource minimising
    ``shared[r, occ_r + 1] + fixed[p, r]`` — its cost at the occupancy it
    would create — among those whose residual capacity admits its demand,
    unless that cost does not beat ``threshold(p)`` (default ``inf``: only
    an entrant with no feasible resource is turned away). ``profile`` holds
    the players already placed and is extended in place; the entrants
    turned away are returned in entry order.
    """
    c = game.compile()
    occ = c.occupancy_vector(profile)
    loads = c.load_matrix(profile)
    cap_eps = None if loads is None else c.capacity + CAPACITY_EPS
    rejected: List[Hashable] = []
    for p in entrants:
        i = c.player_index[p]
        costs = _join_row(c, i, occ, loads, cap_eps)
        j = int(np.argmin(costs))
        if not costs[j] < (np.inf if threshold is None else threshold(p)):
            rejected.append(p)
            continue
        profile[p] = c.resources[j]
        occ[j] += 1
        if loads is not None:
            loads[j] += c.demand[i, j]
    return rejected


def greedy_feasible_profile(
    game: SingletonCongestionGame,
    players: Optional[Sequence[Hashable]] = None,
    base_profile: Optional[Mapping[Hashable, Hashable]] = None,
    order: Optional[Sequence[Hashable]] = None,
) -> Profile:
    """Build a feasible profile by sequential cheapest-feasible placement.

    ``base_profile`` holds already-placed players (e.g. the coordinated set);
    the remaining ``players`` (default: all unplaced) enter one at a time
    (:func:`sequential_entry`, sorted by ``order`` when given) onto the
    resource minimising their cost at the occupancy they would create.
    Raises :class:`InfeasibleError` naming the first player that cannot be
    placed.
    """
    profile: Profile = dict(base_profile) if base_profile else {}
    todo = list(players) if players is not None else [
        p for p in game.players if p not in profile
    ]
    if order is not None:
        order_index = {p: k for k, p in enumerate(order)}
        todo.sort(key=lambda p: order_index.get(p, len(order_index)))
    rejected = sequential_entry(game, profile, todo)
    if rejected:
        raise InfeasibleError(f"no feasible resource for player {rejected[0]!r}")
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
    "sequential_entry",
]
