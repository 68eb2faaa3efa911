"""Compiled game tables and warm-started best response.

:class:`CompiledGame` evaluates a game's cost structure exactly once —
fixed costs, shared congestion costs at every occupancy, demands and
capacities all become numpy tables — so the best-response kernel of
:mod:`repro.game.batch` prices moves with array gathers instead of
Python-level calls into the cost callables. Every table entry is the same
``float(...)`` evaluation the cost callables return, so compiled cost
comparisons are bit-equal to the object-graph ones.

:func:`warm_started_best_response` carries an equilibrium across a market
delta: survivors keep their strategies and only the disturbed players
re-enter before the kernel settles them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.game.congestion import Profile, SingletonCongestionGame

if TYPE_CHECKING:  # pragma: no cover - cycle guard (market.compiled is upstream)
    from repro.market.compiled import CompiledMarket
from repro.utils.validation import CAPACITY_EPS

#: Minimum strict cost improvement for a best-response move.
IMPROVEMENT_EPS = 1e-9


class CompiledGame:
    """Dense-array view of a :class:`SingletonCongestionGame`.

    Tables
    ------
    ``fixed``
        ``(n_players, n_resources)`` — ``fixed_cost(p, r)``.
    ``shared``
        ``(n_resources, n_players + 1)`` — ``shared_cost(r, k)`` in column
        ``k`` (column 0 is unused and zero; occupancy never exceeds the
        player count in a singleton game).
    ``demand``
        ``(n_players, n_resources, dims)`` for capacitated games, else
        ``None``.
    ``capacity``
        ``(n_resources, dims)`` for capacitated games, else ``None``.

    All entries are produced by the exact same ``float(...)`` evaluations
    the game's cost callables return, so compiled cost comparisons are
    bit-equal to object-graph ones.
    """

    def __init__(self, game: SingletonCongestionGame) -> None:
        self.game = game
        self.players: List[Hashable] = list(game.players)
        self.resources: List[Hashable] = list(game.resources)
        self.player_index: Dict[Hashable, int] = {
            p: i for i, p in enumerate(self.players)
        }
        self.resource_index: Dict[Hashable, int] = {
            r: j for j, r in enumerate(self.resources)
        }
        n, m = len(self.players), len(self.resources)

        self.fixed = np.empty((n, m), dtype=float)
        for i, p in enumerate(self.players):
            for j, r in enumerate(self.resources):
                self.fixed[i, j] = game.fixed_cost(p, r)

        self.shared = np.zeros((m, n + 1), dtype=float)
        for j, r in enumerate(self.resources):
            for k in range(1, n + 1):
                self.shared[j, k] = game.shared_cost(r, k)

        if game.capacitated:
            self.capacity = np.stack(
                [game.capacity_of(r) for r in self.resources]
            ).astype(float)
            dims = self.capacity.shape[1]
            self.demand = np.empty((n, m, dims), dtype=float)
            for i, p in enumerate(self.players):
                for j, r in enumerate(self.resources):
                    self.demand[i, j] = game.demand_of(p, r)
        else:
            self.capacity = None
            self.demand = None

    @classmethod
    def from_market(
        cls, cm: "CompiledMarket", game: SingletonCongestionGame
    ) -> "CompiledGame":
        """Build the game's tables as slices of a :class:`CompiledMarket`.

        The market-bridged game (see :func:`repro.core.bridge.market_game`)
        uses provider ids as players and cloudlet node ids as resources, so
        its tables are row/column selections of the market-wide ones — no
        cost-model re-evaluation at all. Entries are bit-equal to what
        ``CompiledGame(game)`` would compute: the fixed table is the same
        memoised ``fixed_cost`` value, and the shared table is the same
        IEEE product ``(alpha_i + beta_i) * g(k)`` of the same two doubles.
        """
        try:
            rows = [cm.provider_index[p] for p in game.players]
            cols = [cm.cloudlet_index[r] for r in game.resources]
        except KeyError as exc:
            raise ConfigurationError(
                f"game player/resource {exc.args[0]!r} is not part of the compiled market"
            ) from None

        self = cls.__new__(cls)
        self.game = game
        self.players = list(game.players)
        self.resources = list(game.resources)
        self.player_index = {p: i for i, p in enumerate(self.players)}
        self.resource_index = {r: j for j, r in enumerate(self.resources)}
        n, m = len(rows), len(cols)

        self.fixed = cm.fixed[np.ix_(rows, cols)]
        self.shared = np.zeros((m, n + 1), dtype=float)
        self.shared[:, 1:] = cm.coeff[cols, None] * cm.g[None, 1 : n + 1]
        self.capacity = cm.capacity[cols].copy()
        self.demand = np.broadcast_to(
            cm.demand[rows][:, None, :], (n, m, cm.demand.shape[1])
        )
        return self

    # ------------------------------------------------------------------ #
    # State construction
    # ------------------------------------------------------------------ #
    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    def occupancy_vector(self, profile: Mapping[Hashable, Hashable]) -> np.ndarray:
        """Integer occupancy per resource index."""
        occ = np.zeros(self.n_resources, dtype=np.int64)
        for r in profile.values():
            occ[self.resource_index[r]] += 1
        return occ

    def load_matrix(self, profile: Mapping[Hashable, Hashable]) -> Optional[np.ndarray]:
        """Per-resource load vectors, accumulated in profile order (the
        same addition order as ``game.loads``, so values are bit-equal)."""
        if self.demand is None:
            return None
        loads = np.zeros_like(self.capacity)
        for p, r in profile.items():
            loads[self.resource_index[r]] += self.demand[
                self.player_index[p], self.resource_index[r]
            ]
        return loads

    # ------------------------------------------------------------------ #
    # Vectorised queries
    # ------------------------------------------------------------------ #
    def feasible_mask(self, player_idx: int, loads: Optional[np.ndarray]) -> np.ndarray:
        """Which resources admit the player's demand on top of ``loads``.

        Matches ``game.move_is_feasible`` for resources the player does not
        currently occupy (the best-response scan never queries the current
        one). Uncapacitated games admit everything.
        """
        if self.demand is None:
            return np.ones(self.n_resources, dtype=bool)
        new_load = loads + self.demand[player_idx]
        return np.all(new_load <= self.capacity + CAPACITY_EPS, axis=1)

    def entry_costs(
        self,
        player_idx: int,
        occ: np.ndarray,
        loads: Optional[np.ndarray],
        posted: bool = False,
    ) -> np.ndarray:
        """Cost of joining each resource (infeasible ones are ``+inf``).

        ``posted=True`` evaluates the congestion term at its face value of
        one occupant (the posted-price information model); otherwise the
        player faces the live occupancy plus itself.
        """
        if posted:
            shared = self.shared[:, 1]
        else:
            kcol = np.minimum(occ + 1, self.n_players)
            shared = self.shared[np.arange(self.n_resources), kcol]
        costs = shared + self.fixed[player_idx]
        costs[~self.feasible_mask(player_idx, loads)] = np.inf
        return costs

    def social_cost(self, profile: Mapping[Hashable, Hashable]) -> float:
        """Eq. (6) evaluated from the tables.

        One vectorised gather of the per-player terms, folded left-to-right
        in profile order — bit-equal to ``game.social_cost(profile)``.
        """
        if not profile:
            return 0.0
        rows = np.fromiter(
            (self.player_index[p] for p in profile), dtype=np.int64, count=len(profile)
        )
        cols = np.fromiter(
            (self.resource_index[r] for r in profile.values()),
            dtype=np.int64, count=len(profile),
        )
        occ = np.zeros(self.n_resources, dtype=np.int64)
        np.add.at(occ, cols, 1)
        terms = self.shared[cols, occ[cols]] + self.fixed[rows, cols]
        total = 0.0
        for t in terms.tolist():
            total += t
        return total


def warm_started_best_response(
    game: SingletonCongestionGame,
    prior_profile: Mapping[Hashable, Hashable],
    scope: str = "queue",
    max_rounds: int = 1000,
    compiled: Optional[CompiledGame] = None,
    record_moves: bool = False,
) -> Tuple[Profile, bool, int, int, List[float], List[Tuple[Hashable, Hashable, Hashable, float]]]:
    """Carry an equilibrium across a market delta instead of restarting cold.

    ``prior_profile`` is the previous (pre-delta) equilibrium; ``game`` is
    the game on the *current* player population. Three phases:

    1. **Survivors keep their strategies** — the prior profile restricted
       to players and resources that still exist, in player order.
    2. **Evictions** — resources whose capacity no longer covers the
       surviving load shed members (largest demand first, the same rule as
       Appro's repair) until feasible; evictees join the entry queue
       behind the arrivals.
    3. **Queue entry + best response** — queued players enter greedily at
       the live occupancies, then round-robin best response runs with
       ``movable`` limited to the queue (``scope="queue"``, the default)
       or open to everyone (``scope="all"``). With ``scope="queue"`` the
       survivors are *pinned*: the dynamics only settle the players the
       delta actually disturbed, which is what makes warm epochs cheap.

    The queue settles on the batch kernel of :mod:`repro.game.batch`;
    the result is its ``(profile, converged, rounds, moves, trace,
    move_log)`` tuple.
    """
    if scope not in ("queue", "all"):
        raise InfeasibleError(
            f"scope must be 'queue' or 'all', got {scope!r}"
        )
    c = compiled if compiled is not None else game.compile()
    resources = set(game.resources)
    profile: Profile = {
        p: prior_profile[p]
        for p in game.players
        if p in prior_profile and prior_profile[p] in resources
    }
    queue = [p for p in game.players if p not in profile]

    if c.capacity is not None:
        loads = c.load_matrix(profile)
        for j in range(c.n_resources):
            if np.all(loads[j] <= c.capacity[j] + CAPACITY_EPS):
                continue
            members = sorted(
                (p for p, r in profile.items() if c.resource_index[r] == j),
                key=lambda p: -float(np.max(c.demand[c.player_index[p], j])),
            )
            k = 0
            while (
                np.any(loads[j] > c.capacity[j] + CAPACITY_EPS)
                and k < len(members)
            ):
                p = members[k]
                k += 1
                loads[j] -= c.demand[c.player_index[p], j]
                del profile[p]
                queue.append(p)

    occ = c.occupancy_vector(profile)
    live_loads = c.load_matrix(profile)
    for p in queue:
        pi = c.player_index[p]
        costs = c.entry_costs(pi, occ, live_loads)
        j = int(np.argmin(costs))
        if not np.isfinite(costs[j]):
            raise InfeasibleError(
                f"warm start cannot place player {p!r}: no feasible resource"
            )
        profile[p] = c.resources[j]
        occ[j] += 1
        if live_loads is not None:
            live_loads[j] += c.demand[pi, j]

    from repro.game.batch import batch_best_response  # cycle guard

    return batch_best_response(
        game,
        profile,
        movable=queue if scope == "queue" else None,
        max_rounds=max_rounds,
        compiled=c,
        record_moves=record_moves,
    )


__all__ = [
    "CompiledGame",
    "IMPROVEMENT_EPS",
    "warm_started_best_response",
]
