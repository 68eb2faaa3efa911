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

Each turn prices the mover's moves on the game's compiled tables, from the
join row ``shared[r, occ_r + 1] + fixed[p, r]`` under the kernel's capacity
mask that :func:`repro.game.best_response.sequential_entry` reads too. The
per-resource scalar scans it replaced are the differential oracle
``scalar_improvement_dynamics`` in ``tests/oracles/best_response_reference.py``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.game.batch import movable_order
from repro.game.best_response import BestResponseResult, _join_row
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import IMPROVEMENT_EPS
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import CAPACITY_EPS

#: The improvement dynamics this module runs, by ``variant`` name.
VARIANTS = ("better", "best_random_order")


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
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {variant!r}; choose from {VARIANTS}"
        )
    game.validate_profile(initial_profile)
    profile: Profile = dict(initial_profile)
    base_order = movable_order(game, movable)
    rng = as_rng(rng)

    c = game.compile()
    occ = c.occupancy_vector(profile)
    loads = c.load_matrix(profile)
    cap_eps = None if loads is None else c.capacity + CAPACITY_EPS
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
            i = c.player_index[player]
            cur = c.resource_index[profile[player]]
            costs = _join_row(c, i, occ, loads, cap_eps)
            costs[cur] = np.inf
            bar = c.shared[cur, occ[cur]] + c.fixed[i, cur] - IMPROVEMENT_EPS
            if variant == "better":
                # The first improving column; 0 when none, which fails the bar.
                j = int(np.argmax(costs < bar))
            else:
                j = int(np.argmin(costs))
            if not costs[j] < bar:
                continue
            profile[player] = c.resources[j]
            occ[cur] -= 1
            occ[j] += 1
            if loads is not None:
                loads[cur] = loads[cur] - c.demand[i, cur]
                loads[j] = loads[j] + c.demand[i, j]
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


__all__ = ["VARIANTS", "improvement_dynamics"]
