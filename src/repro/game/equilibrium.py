"""Nash-equilibrium certification for capacitated singleton games.

A profile is a (constrained, pure) Nash equilibrium of the movable players
when no movable player has a *feasible* unilateral deviation that lowers its
cost by more than :data:`~repro.game.engine.IMPROVEMENT_EPS`. Coordinated
players are treated as part of the environment (their strategies are pinned
by the Stackelberg leader), which is exactly the equilibrium notion of
Theorem 1.

The certificate is one vectorised Jacobi propose of the best-response
kernel (:mod:`repro.game.batch`) over the game's compiled tables: its
threshold and tie-break are the kernel's move rule, so a converged run of
the kernel is certified by construction. The scalar per-resource check it
replaced lives in ``tests/oracles/equilibrium_reference.py`` as the
differential oracle.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Mapping, Optional

import numpy as np

from repro.game.batch import _BatchState, movable_order
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.engine import IMPROVEMENT_EPS


def _improving(
    game: SingletonCongestionGame,
    profile: Profile,
    move_order: List[Hashable],
) -> np.ndarray:
    """One vectorised Jacobi propose at ``profile``: which players of
    ``move_order`` (a subsequence of ``game.players``) can strictly
    improve by a unilateral move."""
    if not move_order:
        return np.zeros(0, dtype=bool)
    state = _BatchState(game.compile(), profile, move_order)
    _targets, best, cur_cost = state.propose(0)
    return best < cur_cost - IMPROVEMENT_EPS


def certify_equilibrium(
    game: SingletonCongestionGame,
    profile: Mapping[Hashable, Hashable],
    movable: Optional[Iterable[Hashable]] = None,
) -> bool:
    """Can no movable player (default: all) strictly improve?  ``False``
    means the profile is not a Nash equilibrium of ``game`` restricted to
    the movable population. Raises :class:`~repro.exceptions.InfeasibleError`
    when ``movable`` names a player the game does not have."""
    move_order = movable_order(game, movable)
    return not bool(np.any(_improving(game, dict(profile), move_order)))


__all__ = ["certify_equilibrium"]
