"""Capacitated singleton congestion games.

The game ``Gamma(N, CL, (sigma_l), (c_i))`` of Section II.E: players are
providers, resources are cloudlets, a strategy is one resource, and player
``l``'s cost on resource ``i`` at occupancy ``k`` is

``cost(l, i, k) = shared(i, k) + fixed(l, i)``

with ``shared`` non-decreasing in ``k`` and identical for all players. Such
games are exact potential games: Rosenthal's potential

``Phi(sigma) = sum_i sum_{k=1}^{occ_i} shared(i, k) + sum_l fixed(l, sigma_l)``

decreases by exactly the mover's cost improvement under any unilateral move,
which is what makes best-response dynamics converge (Lemma 3 relies on the
affine special case; we keep the general statement).

Resources may carry multi-dimensional capacities and players
multi-dimensional demands (compute and bandwidth in the MEC instantiation);
a strategy is feasible when the residual capacity admits the demand.

The game on a concrete market is :class:`repro.game.engine.MarketGame`,
whose costs are gathers of the market's compiled tables.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from repro.exceptions import CapacityError, ConfigurationError
from repro.utils.validation import CAPACITY_EPS

if TYPE_CHECKING:  # pragma: no cover - cycle guard (engine imports us)
    from repro.game.engine import CompiledGame

#: A pure strategy profile: player id -> resource id.
Profile = Dict[Hashable, Hashable]


class SingletonCongestionGame:
    """A capacitated singleton congestion game.

    Parameters
    ----------
    players:
        Hashable player ids.
    resources:
        Hashable resource ids.
    shared_cost:
        ``shared(resource, occupancy) -> float`` — anonymous congestion cost,
        non-decreasing in occupancy (``occupancy >= 1``).
    fixed_cost:
        ``fixed(player, resource) -> float`` — player-specific standalone
        cost of the resource (may be ``inf`` to forbid the pair).
    demand:
        Optional ``demand(player, resource) -> np.ndarray`` of resource
        consumption. ``None`` disables capacity constraints.
    capacity:
        Optional ``capacity(resource) -> np.ndarray``; required iff
        ``demand`` is given.
    """

    def __init__(
        self,
        players: Sequence[Hashable],
        resources: Sequence[Hashable],
        shared_cost: Callable[[Hashable, int], float],
        fixed_cost: Callable[[Hashable, Hashable], float],
        demand: Optional[Callable[[Hashable, Hashable], np.ndarray]] = None,
        capacity: Optional[Callable[[Hashable], np.ndarray]] = None,
    ) -> None:
        if not players:
            raise ConfigurationError("game needs at least one player")
        if not resources:
            raise ConfigurationError("game needs at least one resource")
        if len(set(players)) != len(players):
            raise ConfigurationError("player ids must be unique")
        if len(set(resources)) != len(resources):
            raise ConfigurationError("resource ids must be unique")
        if (demand is None) != (capacity is None):
            raise ConfigurationError("demand and capacity must be given together")

        self.players = list(players)
        self.resources = list(resources)
        self._shared = shared_cost
        self._fixed = fixed_cost
        self._demand = demand
        self._capacity = capacity
        self._compiled_cache: Optional["CompiledGame"] = None

    # ------------------------------------------------------------------ #
    # Costs
    # ------------------------------------------------------------------ #
    def shared_cost(self, resource: Hashable, occupancy: int) -> float:
        if occupancy < 1:
            raise ValueError(f"occupancy must be >= 1, got {occupancy}")
        return float(self._shared(resource, occupancy))

    def fixed_cost(self, player: Hashable, resource: Hashable) -> float:
        return float(self._fixed(player, resource))

    def cost(self, player: Hashable, resource: Hashable, occupancy: int) -> float:
        """Player ``l``'s cost on ``resource`` at total occupancy ``k``
        (including the player itself)."""
        return self.shared_cost(resource, occupancy) + self.fixed_cost(player, resource)

    # ------------------------------------------------------------------ #
    # Profiles
    # ------------------------------------------------------------------ #
    def occupancy(self, profile: Mapping[Hashable, Hashable]) -> Dict[Hashable, int]:
        counts: Dict[Hashable, int] = {}
        for r in profile.values():
            counts[r] = counts.get(r, 0) + 1
        return counts

    def loads(self, profile: Mapping[Hashable, Hashable]) -> Dict[Hashable, np.ndarray]:
        """Per-resource accumulated demand vectors (capacitated games)."""
        if self._demand is None:
            return {}
        loads: Dict[Hashable, np.ndarray] = {}
        for p, r in profile.items():
            d = np.asarray(self._demand(p, r), dtype=float)
            if r in loads:
                loads[r] = loads[r] + d
            else:
                loads[r] = d.copy()
        return loads

    def player_cost(self, player: Hashable, profile: Mapping[Hashable, Hashable]) -> float:
        """``c_l(sigma)`` — the player's cost under a full profile."""
        resource = profile[player]
        return self.cost(player, resource, self.occupancy(profile)[resource])

    def social_cost(self, profile: Mapping[Hashable, Hashable]) -> float:
        """Eq. (6): the sum of all players' costs."""
        occ = self.occupancy(profile)
        return sum(self.cost(p, r, occ[r]) for p, r in profile.items())

    def potential(self, profile: Mapping[Hashable, Hashable]) -> float:
        """Rosenthal's exact potential ``Phi`` (see module docstring)."""
        occ = self.occupancy(profile)
        phi = 0.0
        for r, k in occ.items():
            phi += sum(self.shared_cost(r, j) for j in range(1, k + 1))
        for p, r in profile.items():
            phi += self.fixed_cost(p, r)
        return phi

    # ------------------------------------------------------------------ #
    # Feasibility
    # ------------------------------------------------------------------ #
    @property
    def capacitated(self) -> bool:
        return self._demand is not None

    def demand_of(self, player: Hashable, resource: Hashable) -> np.ndarray:
        if self._demand is None:
            raise ConfigurationError("game has no capacity constraints")
        return np.asarray(self._demand(player, resource), dtype=float)

    def capacity_of(self, resource: Hashable) -> np.ndarray:
        if self._capacity is None:
            raise ConfigurationError("game has no capacity constraints")
        return np.asarray(self._capacity(resource), dtype=float)

    def validate_profile(self, profile: Mapping[Hashable, Hashable]) -> None:
        """Check that a profile places exactly the game's players on the
        game's resources, within capacity."""
        missing = set(self.players) - set(profile)
        if missing:
            raise ConfigurationError(f"profile misses players {sorted(missing, key=str)}")
        unknown = set(profile) - set(self.players)
        if unknown:
            raise ConfigurationError(f"profile has unknown players {sorted(unknown, key=str)}")
        off_game = set(profile.values()) - set(self.resources)
        if off_game:
            raise ConfigurationError(
                f"profile uses unknown resources {sorted(off_game, key=str)}"
            )
        if self._demand is not None:
            for r, load in self.loads(profile).items():
                cap = self.capacity_of(r)
                if np.any(load > cap + CAPACITY_EPS):
                    raise CapacityError(
                        f"resource {r!r} overloaded: load {load} > capacity {cap}"
                    )

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def compile(self) -> "CompiledGame":
        """Precompute the game's cost/demand/capacity tables.

        The returned :class:`~repro.game.engine.CompiledGame` backs the
        best-response kernel: all ``fixed_cost`` /
        ``shared_cost`` / ``demand`` / ``capacity`` evaluations are done
        once up front and later queries are vectorised array lookups.

        The result is cached on the game (the cost structure is immutable
        once constructed). This is the generic per-pair build; the market
        game (:class:`~repro.game.engine.MarketGame`) slices its tables
        from the compiled market instead.
        """
        if self._compiled_cache is None:
            from repro.game.engine import CompiledGame

            self._compiled_cache = CompiledGame(self)
        return self._compiled_cache


__all__ = ["Profile", "SingletonCongestionGame"]
