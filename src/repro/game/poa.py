"""Price-of-Anarchy measurement.

The PoA is the ratio between the *worst* Nash-equilibrium social cost and
the social optimum (Section II.E). For tiny games we enumerate all pure
profiles and filter equilibria exactly; for larger games we estimate the
worst equilibrium by running best-response dynamics from many random initial
profiles (a standard empirical lower bound on the true PoA).
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError, ReproError
from repro.game.best_response import best_response_dynamics, greedy_feasible_profile
from repro.game.congestion import Profile, SingletonCongestionGame
from repro.game.equilibrium import certify_equilibrium
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive

_ENUM_LIMIT = 2_000_000


def enumerate_equilibria(
    game: SingletonCongestionGame,
    movable: Optional[List[Hashable]] = None,
) -> Iterator[Profile]:
    """Yield every feasible pure Nash equilibrium (exhaustive; tiny games).

    Raises :class:`ConfigurationError` when the profile space exceeds an
    enumeration safety limit.
    """
    n_profiles = len(game.resources) ** len(game.players)
    if n_profiles > _ENUM_LIMIT:
        raise ConfigurationError(
            f"{n_profiles} profiles exceed the enumeration limit {_ENUM_LIMIT}"
        )
    for combo in itertools.product(game.resources, repeat=len(game.players)):
        profile: Profile = dict(zip(game.players, combo))
        try:
            game.validate_profile(profile)
        except ReproError:
            # Overloaded or malformed profiles are simply not equilibria
            # candidates; anything outside the library hierarchy is a bug
            # and must propagate.
            continue
        if certify_equilibrium(game, profile, movable=movable):
            yield profile


def worst_equilibrium_cost(
    game: SingletonCongestionGame,
    exact: bool = False,
    trials: int = 20,
    rng: RandomSource = None,
    movable: Optional[List[Hashable]] = None,
) -> Tuple[float, Profile]:
    """The (estimated) worst NE social cost and a witnessing profile.

    ``exact=True`` enumerates every equilibrium; otherwise the estimate runs
    best-response dynamics from ``trials`` random feasible starts and keeps
    the costliest converged equilibrium.
    """
    # One compilation serves every trial: the social-cost evaluations below
    # are table gathers (bit-equal to game.social_cost) and the dynamics
    # read the same cached tables instead of rebuilding them per start.
    compiled = game.compile()
    if exact:
        worst_cost = -np.inf
        worst_profile: Optional[Profile] = None
        for eq in enumerate_equilibria(game, movable=movable):
            c = compiled.social_cost(eq)
            if c > worst_cost:
                worst_cost = c
                worst_profile = eq
        if worst_profile is None:
            raise InfeasibleError("game has no feasible pure Nash equilibrium")
        return worst_cost, worst_profile

    rng = as_rng(rng)
    worst_cost = -np.inf
    worst_profile = None
    move_set = list(movable) if movable is not None else list(game.players)
    for _ in range(trials):
        order = list(game.players)
        rng.shuffle(order)
        try:
            start = greedy_feasible_profile(game, order=order, players=order)
        except InfeasibleError:
            continue
        result = best_response_dynamics(game, start, movable=move_set)
        if not result.converged:
            continue
        if not certify_equilibrium(game, result.profile, movable=move_set):
            continue
        c = compiled.social_cost(result.profile)
        if c > worst_cost:
            worst_cost = c
            worst_profile = result.profile
    if worst_profile is None:
        raise InfeasibleError("no equilibrium found from any random start")
    return worst_cost, worst_profile


def empirical_poa(
    game: SingletonCongestionGame,
    optimal_cost: float,
    exact: bool = False,
    trials: int = 20,
    rng: RandomSource = None,
    movable: Optional[List[Hashable]] = None,
) -> float:
    """Worst-NE social cost divided by the given optimal social cost."""
    check_positive(optimal_cost, "optimal_cost")
    worst, _ = worst_equilibrium_cost(
        game, exact=exact, trials=trials, rng=rng, movable=movable
    )
    return worst / optimal_cost


__all__ = ["enumerate_equilibria", "worst_equilibrium_cost", "empirical_poa"]
